module Cdfg = Hlp_cdfg.Cdfg
module Benchmarks = Hlp_cdfg.Benchmarks
module Explore = Hlp_hls.Explore
module Sa_table = Hlp_core.Sa_table
module Telemetry = Hlp_util.Telemetry
module Json = Hlp_util.Json
module P = Hlp_server.Protocol
module Router = Hlp_server.Router

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_config =
  {
    Explore.vectors = 5;
    add_range = [ 1; 2 ];
    mult_range = [ 1; 2 ];
    alphas = [ 0.5 ];
  }

let sweep cdfg =
  Explore.sweep ~config:small_config
    ~sa_table:(Sa_table.create ~width:4 ~k:4 ())
    cdfg

let test_sweep_covers_grid () =
  let points = sweep (Benchmarks.fir ~taps:4) in
  check_int "2x2x1 grid" 4 (List.length points);
  List.iter
    (fun p ->
      check_bool "positive metrics" true
        Explore.(
          p.luts > 0 && p.power_mw > 0. && p.csteps > 0
          && p.latency_ns > 0.))
    points

let test_more_units_shorter_schedule () =
  let points = sweep (Benchmarks.fir ~taps:6) in
  let find a m =
    List.find
      (fun p -> p.Explore.add_units = a && p.Explore.mult_units = m)
      points
  in
  check_bool "2 mults schedule no longer than 1" true
    ((find 1 2).Explore.csteps <= (find 1 1).Explore.csteps);
  check_bool "more units, more LUTs" true
    ((find 2 2).Explore.luts > (find 1 1).Explore.luts)

let test_pareto_filters_dominated () =
  let mk latency power luts =
    {
      Explore.add_units = 1; mult_units = 1; alpha = 0.5; csteps = 1;
      latency_ns = latency; clock_ns = 1.; regs = 1; luts;
      power_mw = power; toggle_mhz = 1.;
    }
  in
  let a = mk 10. 1. 100 in
  let b = mk 20. 2. 200 in
  (* dominated by a *)
  let c = mk 5. 3. 300 in
  (* trades latency for power/area: non-dominated *)
  let front = Explore.pareto [ a; b; c ] in
  check_int "two survivors" 2 (List.length front);
  check_bool "a kept" true (List.memq a front);
  check_bool "c kept" true (List.memq c front);
  check_bool "b dropped" false (List.memq b front)

let test_pareto_keeps_equal_points () =
  let mk () =
    {
      Explore.add_units = 1; mult_units = 1; alpha = 0.5; csteps = 1;
      latency_ns = 1.; clock_ns = 1.; regs = 1; luts = 1; power_mw = 1.;
      toggle_mhz = 1.;
    }
  in
  let a = mk () and b = mk () in
  check_int "ties are not dominated" 2
    (List.length (Explore.pareto [ a; b ]))

let test_sweep_deterministic () =
  let run () = sweep (Benchmarks.fir ~taps:3) in
  check_bool "same points" true (run () = run ())

(* The daemon's explore binds on the router's warm table for its
   width, so a repeated sweep fills nothing.  The counter is the
   process-wide one: the sweep's grid cells run on pool domains, which
   a reply's scoped telemetry does not see. *)
let test_router_explore_reuses_sa_table () =
  let router = Router.create () in
  let handle op =
    match Router.handle router ~checkpoint:ignore op with
    | Ok v -> Json.to_string v
    | Error _ -> Alcotest.failf "%s failed" (P.op_name op)
  in
  ignore
    (handle (P.Bind { P.default_bind_params with P.bench = "pr"; width = 4 }));
  let explore () =
    handle
      (P.Explore
         {
           P.ex_bench = "pr";
           ex_width = 4;
           ex_vectors = 8;
           ex_adds = [ 2 ];
           ex_mults = [ 2 ];
           ex_alphas = [ 0.5 ];
         })
  in
  let misses = Telemetry.counter "sa_table.misses" in
  let first = explore () in
  let before = Telemetry.value misses in
  let second = explore () in
  check_int "SA misses of the second explore" 0
    (Telemetry.value misses - before);
  Alcotest.(check string) "same reply" first second

let suite =
  [
    Alcotest.test_case "sweep covers the grid" `Slow test_sweep_covers_grid;
    Alcotest.test_case "more units, shorter schedule" `Slow
      test_more_units_shorter_schedule;
    Alcotest.test_case "pareto filters dominated" `Quick
      test_pareto_filters_dominated;
    Alcotest.test_case "pareto keeps ties" `Quick
      test_pareto_keeps_equal_points;
    Alcotest.test_case "sweep deterministic" `Slow test_sweep_deterministic;
    Alcotest.test_case "router explore reuses the warm SA table" `Quick
      test_router_explore_reuses_sa_table;
  ]
