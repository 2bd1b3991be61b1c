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

(* The set-based [Port_assign.optimize] that per-port register counts
   replaced, kept as the reference: for every candidate flip it rebuilds
   both port source sets from all of the unit's ops, before and after.
   Copied verbatim but for the module paths. *)
module Reference = struct
  module IS = Set.Make (Int)

  type objective = Port_assign.objective = Min_inputs | Min_diff

  (* Cost of one FU's orientation state under the objective: sources are the
     per-port distinct register sets. *)
  let cost objective left right =
    let l = IS.cardinal left and r = IS.cardinal right in
    match objective with
    | Min_inputs -> (l + r, abs (l - r))
    | Min_diff -> (abs (l - r), l + r)

  let optimize ?(objective = Min_inputs) binding =
    let cdfg = binding.Binding.schedule.Schedule.cdfg in
    let swapped = Array.copy binding.Binding.swapped in
    let reg = Reg_binding.reg_of_operand binding.Binding.regs in
    let op_regs id =
      let o = Cdfg.op cdfg id in
      (reg o.Cdfg.left, reg o.Cdfg.right)
    in
    let commutative id = (Cdfg.op cdfg id).Cdfg.kind <> Cdfg.Sub in
    List.iter
      (fun fu ->
        let ops = Array.of_list fu.Binding.fu_ops in
        (* Port source sets as a function of the current orientation. *)
        let sets () =
          Array.fold_left
            (fun (l, r) id ->
              let rl, rr = op_regs id in
              let a, b = if swapped.(id) then (rr, rl) else (rl, rr) in
              (IS.add a l, IS.add b r))
            (IS.empty, IS.empty) ops
        in
        (* Greedy coordinate descent over the ops' swap flags. *)
        let improved = ref true in
        let rounds = ref 0 in
        while !improved && !rounds < 8 do
          improved := false;
          incr rounds;
          Array.iter
            (fun id ->
              if commutative id then begin
                let l0, r0 = sets () in
                let before = cost objective l0 r0 in
                swapped.(id) <- not swapped.(id);
                let l1, r1 = sets () in
                let after = cost objective l1 r1 in
                if after < before then improved := true
                else swapped.(id) <- not swapped.(id)
              end)
            ops
        done)
      binding.Binding.fus;
    Binding.set_swaps binding swapped
end

(* Same flips, hence the same binding: the swap flags, and the units and
   their ops. *)
let same_assignment tag (a : Binding.t) (b : Binding.t) =
  if a.Binding.swapped <> b.Binding.swapped then
    QCheck.Test.fail_reportf "%s: flips differ" tag;
  if a.Binding.fus <> b.Binding.fus || a.Binding.fu_of_op <> b.Binding.fu_of_op
  then QCheck.Test.fail_reportf "%s: units differ" tag

let objectives =
  [ ("min-inputs", Port_assign.Min_inputs); ("min-diff", Port_assign.Min_diff) ]

let check_against_reference tag binding =
  List.iter
    (fun (name, objective) ->
      same_assignment (tag ^ " " ^ name)
        (Port_assign.optimize ~objective binding)
        (Reference.optimize ~objective binding))
    objectives

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

(* The seven benchmarks (both variants) under LOPASS and HLPower at
   alpha 1 and 0.5. *)
let test_benchmarks_same_as_reference () =
  List.iter
    (fun (p : Benchmarks.profile) ->
      List.iter
        (fun variant ->
          let prepared = Binder.prepare (Binder.Bench (p, variant)) in
          List.iter
            (fun binder ->
              let r = Binder.run ~sa_table binder prepared in
              check_against_reference
                (Printf.sprintf "%s/%d %s" p.Benchmarks.bench_name variant
                   (Binder.name binder))
                r.Binder.binding)
            [ Binder.Lopass; Binder.Hlpower { alpha = 1.0 };
              Binder.Hlpower { alpha = 0.5 } ])
        [ 0; 1 ])
    Benchmarks.all

(* Random designs (the binder differential's generator) under HLPower
   and, when it binds them, LOPASS. *)
let prop_random_same_as_reference =
  QCheck.Test.make ~count:300
    ~name:"port assignment = set-based reference on random designs"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun seed ->
      let module D = Test_hlpower_diff in
      let st = Random.State.make [| seed |] in
      let num_inputs = 1 + Random.State.int st 4 in
      let cdfg =
        D.graph ~num_inputs
          (D.random_ops st ~num_inputs
             ~num_ops:(2 + Random.State.int st 30) ~flat:false)
      in
      let latency = D.random_latency st in
      let schedule = D.random_schedule st ~latency ~flat:false cdfg in
      let regs = Reg_binding.bind (Lifetime.analyze schedule) in
      let resources = D.random_bound st schedule in
      let params =
        { Hlp_core.Hlpower.default_params with alpha = D.random_alpha st }
      in
      let h =
        Hlp_core.Hlpower.bind ~params ~sa_table:D.sa_table ~regs ~resources
          schedule
      in
      check_against_reference "hlpower" h.Hlp_core.Hlpower.binding;
      (match Lopass.bind ~regs ~resources schedule with
      | b -> check_against_reference "lopass" b
      | exception Failure _ -> ());
      true)

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
    Alcotest.test_case "seven benchmarks = set-based reference" `Quick
      test_benchmarks_same_as_reference;
    QCheck_alcotest.to_alcotest prop_random_same_as_reference;
  ]
