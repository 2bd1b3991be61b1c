(* The alpha study of §6.2: sweep Eq. 4's weighting coefficient from pure
   switching-activity pricing (alpha = 1) to pure multiplexer balancing
   (alpha = 0) on the 'wang' DCT benchmark, and watch the trade-off
   between mux balance, area and measured toggle rate.

   Run with:  dune exec examples/alpha_sweep.exe *)

module Benchmarks = Hlp_cdfg.Benchmarks
module Binding = Hlp_core.Binding
module Sa_table = Hlp_core.Sa_table
module Binder = Hlp_core.Binder
module Flow = Hlp_rtl.Flow

let () =
  let prepared = Binder.prepare (Binder.Bench (Benchmarks.find "wang", 0)) in
  let sa_table = lazy (Sa_table.create ~width:16 ~k:4 ()) in
  Printf.printf
    "wang: sweeping alpha (Eq. 4).  alpha = 1 prices merges purely by \
     glitch-aware SA;\nalpha = 0 purely by multiplexer balance.\n\n";
  Printf.printf "%-6s %14s %8s %8s %12s %12s\n" "alpha" "muxDiff m/v"
    "muxLen" "LUTs" "toggle M/s" "power (mW)";
  List.iter
    (fun alpha ->
      let binding =
        (Binder.run ~sa_table (Binder.Hlpower { alpha }) prepared).binding
      in
      let s = Binding.mux_stats binding in
      let config = { Flow.default_config with Flow.vectors = 100 } in
      let r = Flow.run ~config ~design:"wang-alpha" binding in
      Printf.printf "%-6.2f %6.2f / %5.2f %8d %8d %12.2f %12.3f\n" alpha
        s.Binding.fu_mux_diff_mean s.Binding.fu_mux_diff_var
        s.Binding.mux_length r.Flow.luts r.Flow.toggle_rate_mhz
        r.Flow.dynamic_power_mw)
    [ 1.0; 0.75; 0.5; 0.25; 0.0 ]
