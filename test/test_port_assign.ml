module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Benchmarks = Hlp_cdfg.Benchmarks
module Reg_binding = Hlp_core.Reg_binding
module Binding = Hlp_core.Binding
module Lopass = Hlp_core.Lopass
module Binder = Hlp_core.Binder
module Port_assign = Hlp_core.Port_assign
module Datapath = Hlp_rtl.Datapath
module Elaborate = Hlp_rtl.Elaborate
module Sim = Hlp_rtl.Sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bind_bench name =
  let p = Benchmarks.find name in
  let g = Benchmarks.generate p in
  let schedule = Schedule.list_schedule g ~resources:(Benchmarks.resources p) in
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  Lopass.bind ~regs ~resources:(Benchmarks.resources p) schedule

let test_min_inputs_never_worse () =
  List.iter
    (fun name ->
      let b = bind_bench name in
      let before = (Binding.mux_stats b).Binding.mux_length in
      let after =
        (Binding.mux_stats (Port_assign.optimize ~objective:Port_assign.Min_inputs b))
          .Binding.mux_length
      in
      check_bool
        (Printf.sprintf "%s: %d -> %d" name before after)
        true (after <= before))
    [ "pr"; "wang"; "mcm" ]

let test_min_diff_balances () =
  let b = bind_bench "wang" in
  let before = (Binding.mux_stats b).Binding.fu_mux_diff_mean in
  let after =
    (Binding.mux_stats (Port_assign.optimize ~objective:Port_assign.Min_diff b))
      .Binding.fu_mux_diff_mean
  in
  check_bool "diff not increased" true (after <= before)

let test_never_swaps_subtractions () =
  let b = Port_assign.optimize (bind_bench "pr") in
  let cdfg = b.Binding.schedule.Schedule.cdfg in
  Array.iteri
    (fun id sw ->
      if sw then
        check_bool "swapped op is commutative" true
          ((Cdfg.op cdfg id).Cdfg.kind <> Cdfg.Sub))
    b.Binding.swapped

let test_set_swaps_rejects_sub () =
  let b = bind_bench "pr" in
  let cdfg = b.Binding.schedule.Schedule.cdfg in
  let sub_id =
    let found = ref None in
    Array.iter
      (fun o -> if o.Cdfg.kind = Cdfg.Sub && !found = None then
          found := Some o.Cdfg.id)
      (Cdfg.ops cdfg);
    !found
  in
  match sub_id with
  | None -> () (* no subtraction in this instance; nothing to check *)
  | Some id ->
      let bad = Array.make (Cdfg.num_ops cdfg) false in
      bad.(id) <- true;
      check_bool "set_swaps rejects sub" true
        (try ignore (Binding.set_swaps b bad); false
         with Invalid_argument _ -> true)

let test_swapped_binding_still_simulates_correctly () =
  (* End-to-end: the re-oriented datapath must still match the golden
     model on every vector (commutativity preserved through routing). *)
  let b = Port_assign.optimize (bind_bench "wang") in
  Binding.validate b;
  let dp = Datapath.build ~width:5 b in
  Datapath.validate dp;
  let elab = Elaborate.elaborate dp in
  let config = { Sim.default_config with Sim.vectors = 10; seed = "pa" } in
  let r = Sim.run ~config elab ~network:elab.Elaborate.netlist in
  check_bool "simulated with checks" true (r.Sim.total_toggles > 0)

let test_effective_operands () =
  let b = bind_bench "pr" in
  let cdfg = b.Binding.schedule.Schedule.cdfg in
  (* With no swaps, effective operands are the declared ones. *)
  Array.iter
    (fun o ->
      let l, r = Binding.effective_operands b o.Cdfg.id in
      check_bool "unswapped" true (l = o.Cdfg.left && r = o.Cdfg.right))
    (Cdfg.ops cdfg);
  check_int "swapped array length" (Cdfg.num_ops cdfg)
    (Array.length b.Binding.swapped)

(* One SA table for every HLPower bind: width-2 entries map in
   microseconds, and port assignment reads only the binding's structure. *)
let sa_table = lazy (Hlp_core.Sa_table.create ~width:2 ~k:4 ())

(* Binders validate what they return, and the daemon and the CLI do not
   validate again after [Port_assign.optimize]: its result must stay
   valid, for LOPASS on a FIR and for HLPower on a variant of each of the
   seven benchmarks. *)
let prop_port_assign_valid =
  QCheck.Test.make ~name:"port assignment preserves binding validity"
    ~count:20
    QCheck.(
      quad (int_range 2 8) (int_range 1 3) (int_range 0 2)
        (float_bound_inclusive 1.))
    (fun (taps, units, variant, alpha) ->
      let g = Benchmarks.fir ~taps in
      let resources = fun _ -> units in
      let schedule = Schedule.list_schedule g ~resources in
      let regs = Reg_binding.bind (Lifetime.analyze schedule) in
      let b = Lopass.bind ~regs ~resources schedule in
      let b' = Port_assign.optimize b in
      Binding.validate b';
      List.iter
        (fun p ->
          let prepared = Binder.prepare (Binder.Bench (p, variant)) in
          let r = Binder.run ~sa_table (Binder.Hlpower { alpha }) prepared in
          Binding.validate (Port_assign.optimize r.Binder.binding))
        Benchmarks.all;
      (Binding.mux_stats b').Binding.mux_length
      <= (Binding.mux_stats b).Binding.mux_length)

let suite =
  [
    Alcotest.test_case "min-inputs never worse" `Quick
      test_min_inputs_never_worse;
    Alcotest.test_case "min-diff balances" `Quick test_min_diff_balances;
    Alcotest.test_case "never swaps subtractions" `Quick
      test_never_swaps_subtractions;
    Alcotest.test_case "set_swaps rejects subtraction" `Quick
      test_set_swaps_rejects_sub;
    Alcotest.test_case "swapped binding simulates correctly" `Quick
      test_swapped_binding_still_simulates_correctly;
    Alcotest.test_case "effective operands" `Quick test_effective_operands;
    QCheck_alcotest.to_alcotest prop_port_assign_valid;
  ]
