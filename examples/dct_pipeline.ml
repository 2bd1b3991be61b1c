(* DCT kernel study: the paper's motivating workload class.  Runs the
   'pr' benchmark (an 8-point DCT kernel profile from Table 1) through
   both binders and prints a side-by-side comparison of the structures
   and the measured power — a miniature of the paper's Table 3 row.

   Run with:  dune exec examples/dct_pipeline.exe *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Benchmarks = Hlp_cdfg.Benchmarks
module Reg_binding = Hlp_core.Reg_binding
module Binding = Hlp_core.Binding
module Sa_table = Hlp_core.Sa_table
module Binder = Hlp_core.Binder
module Flow = Hlp_rtl.Flow
module Stats = Hlp_util.Stats

let () =
  let profile = Benchmarks.find "pr" in
  let graph = Benchmarks.generate profile in
  Printf.printf "DCT kernel 'pr': %d adds, %d mults, %d PIs -> %d POs\n"
    (Cdfg.num_ops_of_class graph Cdfg.Add_sub)
    (Cdfg.num_ops_of_class graph Cdfg.Multiplier)
    (Cdfg.num_inputs graph)
    (List.length (Cdfg.outputs graph));
  let resources = Benchmarks.resources profile in
  let prepared = Binder.prepare (Binder.Bench (profile, 0)) in
  let { Binder.schedule; regs } = prepared in
  Printf.printf
    "scheduled in %d control steps on %d adders + %d multipliers, %d \
     registers\n\n"
    schedule.Schedule.num_csteps (resources Cdfg.Add_sub)
    (resources Cdfg.Multiplier) (Reg_binding.num_regs regs);

  (* Bind with the LOPASS-style baseline and with HLPower. *)
  let sa_table = lazy (Sa_table.create ~width:16 ~k:4 ()) in
  let bind binder = (Binder.run ~sa_table binder prepared).binding in
  let lopass = bind Binder.Lopass in
  let hlpower = bind (Binder.Hlpower { alpha = 0.5 }) in
  let config = { Flow.default_config with Flow.vectors = 150 } in
  let evaluate name binding =
    let s = Binding.mux_stats binding in
    let r = Flow.run ~config ~design:name binding in
    Printf.printf
      "%-10s muxDiff %.2f/%.2f, largest mux %d, mux length %d\n"
      name s.Binding.fu_mux_diff_mean s.Binding.fu_mux_diff_var
      s.Binding.largest_mux s.Binding.mux_length;
    Format.printf "           %a@." Flow.pp_report r;
    r
  in
  let rl = evaluate "lopass" lopass in
  let rh = evaluate "hlpower" hlpower in
  Printf.printf
    "\nHLPower vs LOPASS: toggle rate %+.1f%%, dynamic power %+.1f%%, LUTs \
     %+.1f%%\n"
    (Stats.percent_change ~from:rl.Flow.toggle_rate_mhz
       ~to_:rh.Flow.toggle_rate_mhz)
    (Stats.percent_change ~from:rl.Flow.dynamic_power_mw
       ~to_:rh.Flow.dynamic_power_mw)
    (Stats.percent_change
       ~from:(float_of_int rl.Flow.luts)
       ~to_:(float_of_int rh.Flow.luts))
