(* Quickstart: build a small data-flow graph by hand, schedule it, bind it
   with HLPower, and inspect everything the library produces — the binding,
   the VHDL, and the measured power report.

   Run with:  dune exec examples/quickstart.exe *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Reg_binding = Hlp_core.Reg_binding
module Binding = Hlp_core.Binding
module Sa_table = Hlp_core.Sa_table
module Hlpower = Hlp_core.Hlpower
module Binder = Hlp_core.Binder
module Datapath = Hlp_rtl.Datapath
module Vhdl = Hlp_rtl.Vhdl
module Flow = Hlp_rtl.Flow

let () =
  (* 1. A tiny kernel: y0 = (a+b) * (c+d);  y1 = (a+b) - (c*d). *)
  let i k = Cdfg.Input k in
  let o j = Cdfg.Op j in
  let graph =
    Cdfg.create ~name:"quickstart" ~num_inputs:4
      ~ops:
        [
          { Cdfg.id = 0; kind = Cdfg.Add; left = i 0; right = i 1 };
          { Cdfg.id = 1; kind = Cdfg.Add; left = i 2; right = i 3 };
          { Cdfg.id = 2; kind = Cdfg.Mult; left = i 2; right = i 3 };
          { Cdfg.id = 3; kind = Cdfg.Mult; left = o 0; right = o 1 };
          { Cdfg.id = 4; kind = Cdfg.Sub; left = o 0; right = o 2 };
        ]
      ~outputs:[ o 3; o 4 ]
  in
  Printf.printf "CDFG %s: %d ops, %d edges, depth %d\n" (Cdfg.name graph)
    (Cdfg.num_ops graph) (Cdfg.edge_count graph) (Cdfg.depth graph);

  (* 2. Schedule under a resource constraint: 1 adder, 1 multiplier. *)
  let resources = function Cdfg.Add_sub -> 1 | Cdfg.Multiplier -> 1 in
  let schedule = Schedule.list_schedule graph ~resources in
  Printf.printf "schedule: %d control steps\n" schedule.Schedule.num_csteps;

  (* 3. Register binding (Huang et al. weighted bipartite matching). *)
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  Printf.printf "registers: %d allocated\n" (Reg_binding.num_regs regs);

  (* 4. HLPower functional-unit binding with glitch-aware SA pricing;
     [Binder.run] first fits Eq. 4's beta to the SA table. *)
  let sa_table = lazy (Sa_table.create ~width:8 ~k:4 ()) in
  let result =
    Binder.run ~sa_table (Binder.Hlpower { alpha = 0.5 })
      { Binder.schedule; regs }
  in
  let binding = result.binding in
  Binding.validate binding;
  Format.printf "binding: %a (%d matching iterations)@."
    Binding.pp_summary binding
    (Option.fold ~none:0 ~some:(fun r -> r.Hlpower.iterations)
       result.hlpower);

  (* 5. Emit VHDL for the bound design. *)
  let dp = Datapath.build ~width:8 binding in
  let vhdl = Vhdl.emit dp ~name:"quickstart" in
  Printf.printf "\n--- VHDL (first 15 lines) ---\n";
  String.split_on_char '\n' vhdl
  |> List.filteri (fun k _ -> k < 15)
  |> List.iter print_endline;

  (* 6. Evaluate: elaborate to gates, map to 4-LUTs, simulate with random
     vectors (checked against the golden CDFG evaluation), report power. *)
  let config = { Flow.default_config with Flow.width = 8; vectors = 200 } in
  let report = Flow.run ~config ~design:"quickstart" binding in
  Format.printf "@.%a@." Flow.pp_report report
