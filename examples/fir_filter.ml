(* FIR filter area/latency exploration: bind the same 8-tap FIR kernel
   under different resource constraints and watch the schedule length,
   multiplexer structure, area and power move — the classic HLS design
   space the binder sits inside.  Also writes the 2-multiplier design
   as VHDL and BLIF next to the executable.

   Run with:  dune exec examples/fir_filter.exe *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Benchmarks = Hlp_cdfg.Benchmarks
module Reg_binding = Hlp_core.Reg_binding
module Binding = Hlp_core.Binding
module Sa_table = Hlp_core.Sa_table
module Binder = Hlp_core.Binder
module Datapath = Hlp_rtl.Datapath
module Vhdl = Hlp_rtl.Vhdl
module Blif = Hlp_netlist.Blif
module Elaborate = Hlp_rtl.Elaborate
module Flow = Hlp_rtl.Flow

let () =
  let graph = Benchmarks.fir ~taps:8 in
  Printf.printf "FIR-8: %d multiplications, %d additions\n"
    (Cdfg.num_ops_of_class graph Cdfg.Multiplier)
    (Cdfg.num_ops_of_class graph Cdfg.Add_sub);
  let sa_table = lazy (Sa_table.create ~width:12 ~k:4 ()) in
  Printf.printf "%-12s %7s %6s %8s %10s %11s %10s\n" "adders/mults"
    "csteps" "regs" "LUTs" "clk (ns)" "power (mW)" "muxLen";
  let bind_at (adders, mults) =
    let resources = function
      | Cdfg.Add_sub -> adders
      | Cdfg.Multiplier -> mults
    in
    let prepared = Binder.prepare (Binder.Bounded (graph, resources)) in
    let { Binder.schedule; regs } = prepared in
    let binding =
      (Binder.run ~resources ~sa_table (Binder.Hlpower { alpha = 0.5 })
         prepared)
        .binding
    in
    let config =
      { Flow.default_config with Flow.width = 12; vectors = 100 }
    in
    let r =
      Flow.run ~config
        ~design:(Printf.sprintf "fir8-%da%dm" adders mults)
        binding
    in
    let s = Binding.mux_stats binding in
    Printf.printf "%-12s %7d %6d %8d %10.2f %11.3f %10d\n"
      (Printf.sprintf "%d / %d" adders mults)
      schedule.Schedule.num_csteps (Reg_binding.num_regs regs) r.Flow.luts
      r.Flow.clock_period_ns r.Flow.dynamic_power_mw s.Binding.mux_length;
    binding
  in
  let _ = bind_at (1, 1) in
  let b22 = bind_at (2, 2) in
  let _ = bind_at (4, 4) in
  (* Persist the 2/2 design point's artifacts. *)
  let dp = Datapath.build ~width:12 b22 in
  Vhdl.write_file dp ~name:"fir8" "fir8.vhd";
  let elab = Elaborate.elaborate dp in
  Blif.output_file elab.Elaborate.netlist "fir8.blif";
  Printf.printf "\nwrote fir8.vhd and fir8.blif\n"
