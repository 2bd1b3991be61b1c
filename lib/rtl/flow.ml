module Binding = Hlp_core.Binding
module Mapper = Hlp_mapper.Mapper
module Telemetry = Hlp_util.Telemetry
module Json = Hlp_util.Json

type config = {
  width : int;
  k : int;
  vectors : int;
  seed : string;
  check : bool;
  model : Power.model;
  objective : Mapper.objective;
  estimator : Power.estimator;
}

let default_config =
  {
    width = 16;
    k = 4;
    vectors = 1000;
    seed = "flow";
    check = true;
    model = Power.default_model;
    objective = Mapper.Min_sa;
    estimator = `Sim;
  }

type static_summary = {
  static_power_mw : float;
  static_toggle_rate_mhz : float;
  static_total_toggles : int;
  static_glitch_fraction : float;
}

type report = {
  design : string;
  dynamic_power_mw : float;
  clock_period_ns : float;
  luts : int;
  largest_mux : int;
  mux_length : int;
  toggle_rate_mhz : float;
  mux : Binding.mux_stats;
  est_total_sa : float;
  est_glitch_sa : float;
  sim_glitch_fraction : float;
  cycles : int;
  depth : int;
  static : static_summary option;
}

(* Pipeline-wide structural checking.  Hlp_lint registers a checker at
   link time that lints the elaborated netlist and the LUT cover and
   raises with every Error-severity diagnostic; it runs behind
   [config.check].  (Binding and datapath artifacts are already guarded
   by the Binding.validate / Datapath.validate hooks.) *)
type artifacts = {
  a_design : string;
  a_config : config;
  a_binding : Binding.t;
  a_datapath : Datapath.t;
  a_elab : Elaborate.t;
  a_mapping : Mapper.t;
}

let checker : (artifacts -> unit) option ref = ref None
let set_checker f = checker := Some f

let phases = [ "elaborate"; "map"; "lint"; "static"; "sim"; "power" ]

let run ?(checkpoint = fun _ -> ()) ?(config = default_config) ~design binding
    =
  checkpoint "elaborate";
  let dp, elab =
    Telemetry.time "flow.elaborate" (fun () ->
        let dp = Datapath.build ~width:config.width binding in
        Datapath.validate dp;
        (dp, Elaborate.elaborate dp))
  in
  checkpoint "map";
  let mapping =
    Mapper.map ~objective:config.objective elab.Elaborate.netlist ~k:config.k
  in
  checkpoint "lint";
  if config.check then
    Option.iter
      (fun check ->
        Telemetry.time "flow.lint" (fun () ->
            check
              {
                a_design = design;
                a_config = config;
                a_binding = binding;
                a_datapath = dp;
                a_elab = elab;
                a_mapping = mapping;
              }))
      !checker;
  let network = mapping.Mapper.lut_network in
  (* Simulation-free estimate first (it is the cheap path): under
     [`Static] it replaces the simulator entirely, under [`Both] it
     rides along for comparison, under [`Sim] nothing is computed and
     the report is byte-identical to what it always was. *)
  let static_power =
    match config.estimator with
    | `Sim -> None
    | `Static | `Both ->
        checkpoint "static";
        Some
          (Telemetry.time "flow.static" (fun () ->
               let analysis = Static_model.analyze elab ~network in
               Power.analyze_static config.model ~network ~analysis
                 ~cycles:(Static_model.cycles elab ~vectors:config.vectors)))
  in
  let power, cycles =
    match config.estimator with
    | `Static ->
        let p = Option.get static_power in
        (p, Static_model.cycles elab ~vectors:config.vectors)
    | `Sim | `Both ->
        checkpoint "sim";
        let sim_config =
          { Sim.vectors = config.vectors; seed = config.seed;
            check = config.check }
        in
        let sim = Sim.run ~config:sim_config elab ~network in
        checkpoint "power";
        ( Telemetry.time "flow.power" (fun () ->
              Power.analyze config.model ~network ~sim),
          sim.Sim.cycles )
  in
  let mux = Binding.mux_stats binding in
  {
    design;
    dynamic_power_mw = power.Power.dynamic_power_mw;
    clock_period_ns = power.Power.clock_period_ns;
    luts = mapping.Mapper.lut_count;
    largest_mux = mux.Binding.largest_mux;
    mux_length = mux.Binding.mux_length;
    toggle_rate_mhz = power.Power.toggle_rate_mhz;
    mux;
    est_total_sa = mapping.Mapper.total_sa;
    est_glitch_sa = mapping.Mapper.glitch_sa;
    sim_glitch_fraction = power.Power.sim_glitch_fraction;
    cycles;
    depth = mapping.Mapper.depth;
    static =
      Option.map
        (fun (p : Power.report) ->
          {
            static_power_mw = p.Power.dynamic_power_mw;
            static_toggle_rate_mhz = p.Power.toggle_rate_mhz;
            static_total_toggles = p.Power.total_toggles;
            static_glitch_fraction = p.Power.sim_glitch_fraction;
          })
        static_power;
  }

(* Machine-readable form of a report.  Json prints floats with %.17g,
   so two reports print equal iff the metrics are bit-identical — this
   is what lets the bench CI diff a warm-cache run against a cold one. *)
let json_of_report r =
  let f x = Json.Float x and i n = Json.Int n in
  Json.Obj
    ([
       ("design", Json.String r.design);
       ("dynamic_power_mw", f r.dynamic_power_mw);
       ("clock_period_ns", f r.clock_period_ns);
       ("luts", i r.luts);
       ("largest_mux", i r.largest_mux);
       ("mux_length", i r.mux_length);
       ("toggle_rate_mhz", f r.toggle_rate_mhz);
       ("est_total_sa", f r.est_total_sa);
       ("est_glitch_sa", f r.est_glitch_sa);
       ("sim_glitch_fraction", f r.sim_glitch_fraction);
       ("cycles", i r.cycles);
       ("depth", i r.depth);
     ]
    @
    match r.static with
    | None -> []
    | Some st ->
        [
          ("static_power_mw", f st.static_power_mw);
          ("static_toggle_rate_mhz", f st.static_toggle_rate_mhz);
          ("static_total_toggles", i st.static_total_toggles);
          ("static_glitch_fraction", f st.static_glitch_fraction);
        ])

let pp_report fmt r =
  Format.fprintf fmt
    "%s: %.1f mW, clk %.2f ns, %d LUTs (depth %d), largest mux %d, mux \
     length %d, toggle %.1f M/s, glitch %.0f%%"
    r.design r.dynamic_power_mw r.clock_period_ns r.luts r.depth
    r.largest_mux r.mux_length r.toggle_rate_mhz
    (100. *. r.sim_glitch_fraction);
  match r.static with
  | None -> ()
  | Some st ->
      Format.fprintf fmt " [static: %.1f mW, toggle %.1f M/s, glitch %.0f%%]"
        st.static_power_mw st.static_toggle_rate_mhz
        (100. *. st.static_glitch_fraction)
