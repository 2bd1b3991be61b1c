module Nl = Hlp_netlist.Netlist

type model = {
  vdd : float;
  c_base_f : float;
  c_fanout_f : float;
  t_lut_ns : float;
  t_route_ns : float;
  t_seq_ns : float;
}

let default_model =
  {
    vdd = 1.2;
    c_base_f = 12e-15;
    c_fanout_f = 6e-15;
    t_lut_ns = 0.45;
    t_route_ns = 0.55;
    t_seq_ns = 1.2;
  }

let clock_period_ns model ~depth =
  model.t_seq_ns +. (float_of_int depth *. (model.t_lut_ns +. model.t_route_ns))

type estimator = [ `Sim | `Static | `Both ]

let estimator_name = function
  | `Sim -> "sim"
  | `Static -> "static"
  | `Both -> "both"

let estimator_of_string = function
  | "sim" -> Some `Sim
  | "static" -> Some `Static
  | "both" -> Some `Both
  | _ -> None

type report = {
  dynamic_power_mw : float;
  toggle_rate_mhz : float;
  total_toggles : int;
  sim_glitch_fraction : float;
  clock_period_ns : float;
  frequency_mhz : float;
}

(* Shared core: per-net toggle counts (float to admit the static
   estimate; [toggles id] for each of the [nodes] nets) over a
   simulated-time base of [cycles] clock periods. *)
let analyze_counts model ~network ~nodes ~toggles ~total_toggles
    ~glitch_toggles ~cycles =
  let depth = Nl.max_depth network in
  let period_ns = clock_period_ns model ~depth in
  let time_s = float_of_int cycles *. period_ns *. 1e-9 in
  let fanouts = Nl.fanout_counts network in
  (* Energy per net = toggles * C_net * 0.5 * Vdd^2. *)
  let energy =
    let acc = ref 0. in
    for id = 0 to nodes - 1 do
      let c =
        model.c_base_f +. (float_of_int fanouts.(id) *. model.c_fanout_f)
      in
      acc := !acc +. (toggles id *. c)
    done;
    !acc *. 0.5 *. model.vdd *. model.vdd
  in
  let power_w = if time_s > 0. then energy /. time_s else 0. in
  let num_signals = Nl.num_nodes network in
  let toggle_rate =
    if time_s > 0. && num_signals > 0 then
      total_toggles /. float_of_int num_signals /. time_s /. 1e6
    else 0.
  in
  {
    dynamic_power_mw = power_w *. 1e3;
    toggle_rate_mhz = toggle_rate;
    total_toggles = int_of_float (Float.round total_toggles);
    sim_glitch_fraction =
      (if total_toggles > 0. then glitch_toggles /. total_toggles else 0.);
    clock_period_ns = period_ns;
    frequency_mhz = (if period_ns > 0. then 1000. /. period_ns else 0.);
  }

let analyze model ~network ~sim =
  let node_toggles = sim.Sim.node_toggles in
  analyze_counts model ~network ~nodes:(Array.length node_toggles)
    ~toggles:(fun id -> float_of_int node_toggles.(id))
    ~total_toggles:(float_of_int sim.Sim.total_toggles)
    ~glitch_toggles:(float_of_int sim.Sim.glitch_toggles)
    ~cycles:sim.Sim.cycles

let analyze_static model ~network ~analysis ~cycles =
  let fcycles = float_of_int cycles in
  let node_toggles = Hlp_static.Analysis.node_toggles analysis in
  analyze_counts model ~network ~nodes:(Array.length node_toggles)
    ~toggles:(fun id -> node_toggles.(id) *. fcycles)
    ~total_toggles:(Hlp_static.Analysis.total_toggles analysis *. fcycles)
    ~glitch_toggles:(Hlp_static.Analysis.glitch_toggles analysis *. fcycles)
    ~cycles
