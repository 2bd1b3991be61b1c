module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Reg_binding = Hlp_core.Reg_binding
module Sa_table = Hlp_core.Sa_table
module Hlpower = Hlp_core.Hlpower
module Flow = Hlp_rtl.Flow
module Pool = Hlp_util.Pool
module Telemetry = Hlp_util.Telemetry

type point = {
  add_units : int;
  mult_units : int;
  alpha : float;
  csteps : int;
  latency_ns : float;
  clock_ns : float;
  regs : int;
  luts : int;
  power_mw : float;
  toggle_mhz : float;
}

let pp_point fmt p =
  Format.fprintf fmt
    "%d+/%d* a=%.2f: %d steps, %.0f ns latency, %d regs, %d LUTs, %.3f mW, \
     %.1f Mtoggle/s"
    p.add_units p.mult_units p.alpha p.csteps p.latency_ns p.regs p.luts
    p.power_mw p.toggle_mhz

type config = {
  vectors : int;
  add_range : int list;
  mult_range : int list;
  alphas : float list;
}

let default_config =
  {
    vectors = 60;
    add_range = [ 1; 2; 4 ];
    mult_range = [ 1; 2; 4 ];
    alphas = [ 1.0; 0.5 ];
  }

let sweep ?(config = default_config) ~sa_table cdfg =
  (* One task per (add, mult) allocation: each schedules once and walks the
     alpha list, so the grid parallelizes across Pool workers while every
     point is still produced from its own deterministic seed.  The result
     order (add, then mult, then alpha) is that of the sequential loops
     regardless of worker interleaving. *)
  let grid =
    List.concat_map
      (fun add_units ->
        List.map (fun mult_units -> (add_units, mult_units)) config.mult_range)
      config.add_range
  in
  let eval_cell (add_units, mult_units) =
    let resources = function
      | Cdfg.Add_sub -> add_units
      | Cdfg.Multiplier -> mult_units
    in
    match Schedule.list_schedule cdfg ~resources with
    | exception Invalid_argument _ -> []
    | schedule ->
        let regs = Reg_binding.bind (Lifetime.analyze schedule) in
        List.filter_map
          (fun alpha ->
            match
              Hlpower.bind
                ~params:(Hlpower.calibrate ~alpha sa_table)
                ~sa_table ~regs ~resources schedule
            with
            | exception Failure _ -> None
            | result ->
                let flow_config =
                  {
                    Flow.default_config with
                    Flow.width = Sa_table.width sa_table;
                    k = Sa_table.k sa_table;
                    vectors = config.vectors;
                  }
                in
                let report =
                  Flow.run ~config:flow_config
                    ~design:
                      (Printf.sprintf "%s-%da%dm-a%.2f" (Cdfg.name cdfg)
                         add_units mult_units alpha)
                    result.Hlpower.binding
                in
                Some
                  {
                    add_units;
                    mult_units;
                    alpha;
                    csteps = schedule.Schedule.num_csteps;
                    latency_ns =
                      float_of_int schedule.Schedule.num_csteps
                      *. report.Flow.clock_period_ns;
                    clock_ns = report.Flow.clock_period_ns;
                    regs = Reg_binding.num_regs regs;
                    luts = report.Flow.luts;
                    power_mw = report.Flow.dynamic_power_mw;
                    toggle_mhz = report.Flow.toggle_rate_mhz;
                  })
          config.alphas
  in
  Telemetry.time "explore.sweep" (fun () ->
      List.concat (Pool.parallel_map_list eval_cell grid))

let dominates a b =
  a.latency_ns <= b.latency_ns
  && a.power_mw <= b.power_mw
  && a.luts <= b.luts
  && (a.latency_ns < b.latency_ns || a.power_mw < b.power_mw
     || a.luts < b.luts)

let pareto points =
  List.filter
    (fun p -> not (List.exists (fun q -> dominates q p) points))
    points
