module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Benchmarks = Hlp_cdfg.Benchmarks
module Reg_binding = Hlp_core.Reg_binding
module Binding = Hlp_core.Binding
module Sa_table = Hlp_core.Sa_table
module Hlpower = Hlp_core.Hlpower
module Lopass = Hlp_core.Lopass
module Datapath = Hlp_rtl.Datapath
module Elaborate = Hlp_rtl.Elaborate
module Sim = Hlp_rtl.Sim
module Power = Hlp_rtl.Power
module Vhdl = Hlp_rtl.Vhdl
module Flow = Hlp_rtl.Flow
module Nl = Hlp_netlist.Netlist

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text
    && (String.sub text i n = sub || go (i + 1))
  in
  go 0

let sa_table = Sa_table.create ~width:4 ~k:4 ()

let bind_cdfg ?(resources = fun _ -> 2) cdfg =
  let schedule = Schedule.list_schedule cdfg ~resources in
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  let min_res cls = max 1 (Schedule.max_density schedule cls) in
  (Hlpower.bind ~sa_table ~regs ~resources:min_res schedule).Hlpower.binding

let fig1_binding () =
  let s = Benchmarks.fig1 () in
  let regs = Reg_binding.bind (Lifetime.analyze s) in
  let min_res cls = max 1 (Schedule.max_density s cls) in
  (Hlpower.bind ~sa_table ~regs ~resources:min_res s).Hlpower.binding

(* --- datapath --- *)

let test_datapath_fig1 () =
  let b = fig1_binding () in
  let dp = Datapath.build ~width:4 b in
  Datapath.validate dp;
  check_int "fus" 3 (Array.length dp.Datapath.fus);
  check_int "steps" 3 (Array.length dp.Datapath.ctrl)

let test_golden_eval_diamond () =
  (* m = a*b; s = a+b; y = m - s over 8 bits *)
  let g =
    Cdfg.create ~name:"diamond" ~num_inputs:2
      ~ops:
        [
          { Cdfg.id = 0; kind = Cdfg.Mult; left = Cdfg.Input 0;
            right = Cdfg.Input 1 };
          { Cdfg.id = 1; kind = Cdfg.Add; left = Cdfg.Input 0;
            right = Cdfg.Input 1 };
          { Cdfg.id = 2; kind = Cdfg.Sub; left = Cdfg.Op 0; right = Cdfg.Op 1 };
        ]
      ~outputs:[ Cdfg.Op 2 ]
  in
  let b = bind_cdfg g in
  let dp = Datapath.build ~width:8 b in
  (match Datapath.golden_eval dp [| 7; 9 |] with
  | [ ("out0", v) ] -> check_int "7*9 - (7+9) mod 256" ((63 - 16) land 255) v
  | _ -> Alcotest.fail "one output expected");
  Datapath.validate dp

let test_datapath_rejects_zero_width () =
  let b = fig1_binding () in
  Alcotest.check_raises "width 0"
    (Invalid_argument "Datapath.build: width must be >= 1") (fun () ->
      ignore (Datapath.build ~width:0 b))

(* --- gate-level simulation, checked against the golden model --- *)

let run_gate_sim ?(vectors = 20) ~width cdfg =
  let b = bind_cdfg cdfg in
  let dp = Datapath.build ~width b in
  Datapath.validate dp;
  let elab = Elaborate.elaborate dp in
  Nl.validate elab.Elaborate.netlist;
  let config = { Sim.default_config with Sim.vectors; seed = "t" } in
  Sim.run ~config elab ~network:elab.Elaborate.netlist

let test_sim_gate_level_fig1 () =
  let s = Benchmarks.fig1 () in
  let r = run_gate_sim ~width:4 s.Schedule.cdfg in
  check_bool "toggles counted" true (r.Sim.total_toggles > 0);
  check_int "cycles" (20 * 3) r.Sim.cycles

let test_sim_gate_level_fir () =
  let r = run_gate_sim ~width:6 (Benchmarks.fir ~taps:4) in
  check_bool "glitches observed" true (r.Sim.glitch_toggles > 0)

let test_sim_gate_level_wang () =
  (* A full Table 1 benchmark through schedule, binding, datapath, gates,
     simulation — verified against the golden model every vector. *)
  let p = Benchmarks.find "wang" in
  let g = Benchmarks.generate p in
  let schedule = Schedule.list_schedule g ~resources:(Benchmarks.resources p) in
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  let b = Lopass.bind ~regs ~resources:(Benchmarks.resources p) schedule in
  let dp = Datapath.build ~width:4 b in
  let elab = Elaborate.elaborate dp in
  let config = { Sim.default_config with Sim.vectors = 5; seed = "wang" } in
  let r = Sim.run ~config elab ~network:elab.Elaborate.netlist in
  check_bool "ran" true (r.Sim.cycles > 0)

(* --- LUT-level simulation matches golden model too --- *)

let test_sim_lut_level_fir () =
  let b = bind_cdfg (Benchmarks.fir ~taps:3) in
  let dp = Datapath.build ~width:5 b in
  let elab = Elaborate.elaborate dp in
  let mapping = Hlp_mapper.Mapper.map elab.Elaborate.netlist ~k:4 in
  Hlp_mapper.Mapper.check_cover mapping;
  let config = { Sim.default_config with Sim.vectors = 30; seed = "lut" } in
  let r = Sim.run ~config elab ~network:mapping.Hlp_mapper.Mapper.lut_network in
  check_bool "simulated" true (r.Sim.total_toggles > 0)

let test_sim_deterministic () =
  let b = bind_cdfg (Benchmarks.fir ~taps:3) in
  let dp = Datapath.build ~width:4 b in
  let elab = Elaborate.elaborate dp in
  let config = { Sim.vectors = 10; seed = "same"; check = false } in
  let r1 = Sim.run ~config elab ~network:elab.Elaborate.netlist in
  let r2 = Sim.run ~config elab ~network:elab.Elaborate.netlist in
  check_int "same toggles" r1.Sim.total_toggles r2.Sim.total_toggles

(* --- power model --- *)

let test_power_monotone_in_toggles () =
  let model = Power.default_model in
  let b = bind_cdfg (Benchmarks.fir ~taps:3) in
  let dp = Datapath.build ~width:4 b in
  let elab = Elaborate.elaborate dp in
  let net = elab.Elaborate.netlist in
  let run vectors =
    let config = { Sim.vectors; seed = "p"; check = false } in
    let sim = Sim.run ~config elab ~network:net in
    Power.analyze model ~network:net ~sim
  in
  let a = run 5 and b2 = run 50 in
  check_bool "toggles grow" true
    (b2.Power.total_toggles > a.Power.total_toggles);
  check_bool "power positive" true (b2.Power.dynamic_power_mw > 0.)

let test_clock_period_model () =
  let m = Power.default_model in
  let p0 = Power.clock_period_ns m ~depth:0 in
  let p10 = Power.clock_period_ns m ~depth:10 in
  check_bool "longer path, longer period" true (p10 > p0);
  Alcotest.(check (float 1e-9))
    "linear in levels" (p10 -. p0)
    (10. *. (m.Power.t_lut_ns +. m.Power.t_route_ns))

(* --- vhdl --- *)

let test_vhdl_emission () =
  let b = fig1_binding () in
  let dp = Datapath.build ~width:8 b in
  let text = Vhdl.emit dp ~name:"fig1" in
  Vhdl.lint text;
  check_bool "entity named" true (contains text "entity fig1 is");
  check_bool "registers declared" true (contains text "signal r0 :");
  check_bool "fsm present" true (contains text "signal step :");
  check_bool "outputs wired" true (contains text "out0 <= std_logic_vector")

let test_vhdl_subtraction_control () =
  let g =
    Cdfg.create ~name:"sub" ~num_inputs:2
      ~ops:
        [
          { Cdfg.id = 0; kind = Cdfg.Sub; left = Cdfg.Input 0;
            right = Cdfg.Input 1 };
        ]
      ~outputs:[ Cdfg.Op 0 ]
  in
  let b = bind_cdfg g in
  let dp = Datapath.build ~width:4 b in
  let text = Vhdl.emit dp ~name:"subber" in
  Vhdl.lint text;
  check_bool "sub control emitted" true (contains text "_sub <= '1'")

let test_vhdl_file_output () =
  let b = fig1_binding () in
  let dp = Datapath.build ~width:8 b in
  let path = Filename.temp_file "hlp" ".vhd" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Vhdl.write_file dp ~name:"fig1" path;
      let ic = open_in path in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      Vhdl.lint text)

(* --- full flow --- *)

let test_flow_fir () =
  let b = bind_cdfg (Benchmarks.fir ~taps:4) in
  let config = { Flow.default_config with Flow.vectors = 25; width = 6 } in
  let r = Flow.run ~config ~design:"fir4" b in
  check_bool "power > 0" true (r.Flow.dynamic_power_mw > 0.);
  check_bool "luts > 0" true (r.Flow.luts > 0);
  check_bool "toggle rate > 0" true (r.Flow.toggle_rate_mhz > 0.);
  check_bool "estimated SA > 0" true (r.Flow.est_total_sa > 0.);
  check_bool "depth > 0" true (r.Flow.depth > 0)

let test_flow_hlpower_vs_lopass_pr () =
  (* End-to-end comparison on a real benchmark: both bindings simulate
     correctly; report fields populated.  (Relative quality is asserted
     statistically by the bench harness, not per-run here.) *)
  let p = Benchmarks.find "pr" in
  let g = Benchmarks.generate p in
  let schedule = Schedule.list_schedule g ~resources:(Benchmarks.resources p) in
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  let min_res cls = max 1 (Schedule.max_density schedule cls) in
  let lop = Lopass.bind ~regs ~resources:(Benchmarks.resources p) schedule in
  let hlp = (Hlpower.bind ~sa_table ~regs ~resources:min_res schedule)
              .Hlpower.binding in
  let config = { Flow.default_config with Flow.vectors = 5; width = 4 } in
  let r1 = Flow.run ~config ~design:"pr-lopass" lop in
  let r2 = Flow.run ~config ~design:"pr-hlpower" hlp in
  check_bool "both sim fine" true
    (r1.Flow.dynamic_power_mw > 0. && r2.Flow.dynamic_power_mw > 0.);
  check_int "same cycles" r1.Flow.cycles r2.Flow.cycles

let suite =
  [
    Alcotest.test_case "datapath fig1" `Quick test_datapath_fig1;
    Alcotest.test_case "golden eval diamond" `Quick test_golden_eval_diamond;
    Alcotest.test_case "datapath rejects width 0" `Quick
      test_datapath_rejects_zero_width;
    Alcotest.test_case "gate sim fig1 (checked)" `Quick
      test_sim_gate_level_fig1;
    Alcotest.test_case "gate sim fir (checked)" `Quick test_sim_gate_level_fir;
    Alcotest.test_case "gate sim wang benchmark (checked)" `Slow
      test_sim_gate_level_wang;
    Alcotest.test_case "lut sim fir (checked)" `Quick test_sim_lut_level_fir;
    Alcotest.test_case "sim deterministic" `Quick test_sim_deterministic;
    Alcotest.test_case "power model monotone" `Quick
      test_power_monotone_in_toggles;
    Alcotest.test_case "clock period model" `Quick test_clock_period_model;
    Alcotest.test_case "vhdl emission" `Quick test_vhdl_emission;
    Alcotest.test_case "vhdl subtraction control" `Quick
      test_vhdl_subtraction_control;
    Alcotest.test_case "vhdl file output" `Quick test_vhdl_file_output;
    Alcotest.test_case "full flow fir" `Slow test_flow_fir;
    Alcotest.test_case "full flow pr: hlpower vs lopass" `Slow
      test_flow_hlpower_vs_lopass_pr;
  ]
