(* Differential tests of the bit-parallel LUT simulator ([Sim.run])
   against the scalar oracle ([Sim.run_scalar]): random CDFGs, awkward
   vector counts (0, 1, one lane, one lane +/- 1, non-multiples of the
   lane width) and random seeds, plus every Sec. 6 design of the fast
   bench subset under all three binders, must produce bit-identical
   results; pinned regressions freeze the exact toggle counts and the
   PRNG vector-stream contract so any behavioural drift fails loudly. *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Benchmarks = Hlp_cdfg.Benchmarks
module Reg_binding = Hlp_core.Reg_binding
module Hlpower = Hlp_core.Hlpower
module Lopass = Hlp_core.Lopass
module Sa_table = Hlp_core.Sa_table
module Datapath = Hlp_rtl.Datapath
module Elaborate = Hlp_rtl.Elaborate
module Sim = Hlp_rtl.Sim
module Mapper = Hlp_mapper.Mapper
module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Bits = Hlp_util.Bits

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sa_table = Sa_table.create ~width:4 ~k:4 ()

(* --- harness -------------------------------------------------------- *)

(* A random but always-valid CDFG: ops in id order, operands drawn from
   earlier ops (biased toward op results so graphs get deep enough to
   glitch) or primary inputs, outputs from the last op plus one random
   op. *)
let random_cdfg st ~num_inputs ~num_ops =
  let operand i =
    if i > 0 && Random.State.int st 5 < 3 then
      Cdfg.Op (Random.State.int st i)
    else Cdfg.Input (Random.State.int st num_inputs)
  in
  let ops =
    List.init num_ops (fun i ->
        let kind =
          match Random.State.int st 3 with
          | 0 -> Cdfg.Add
          | 1 -> Cdfg.Sub
          | _ -> Cdfg.Mult
        in
        { Cdfg.id = i; kind; left = operand i; right = operand i })
  in
  let outputs =
    [ Cdfg.Op (num_ops - 1); Cdfg.Op (Random.State.int st num_ops) ]
  in
  Cdfg.create ~name:"qsim" ~num_inputs ~ops ~outputs

let elab_of ~width cdfg =
  let schedule =
    Schedule.list_schedule cdfg
      ~resources:(fun _ -> max 1 (Cdfg.num_ops cdfg))
  in
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  let min_res cls = max 1 (Schedule.max_density schedule cls) in
  let binding =
    (Hlpower.bind ~sa_table ~regs ~resources:min_res schedule)
      .Hlpower.binding
  in
  Elaborate.elaborate (Datapath.build ~width binding)

let assert_same tag (rs : Sim.result) (rp : Sim.result) =
  check_int (tag ^ ": total_toggles") rs.Sim.total_toggles
    rp.Sim.total_toggles;
  check_int (tag ^ ": glitch_toggles") rs.Sim.glitch_toggles
    rp.Sim.glitch_toggles;
  check_int (tag ^ ": cycles") rs.Sim.cycles rp.Sim.cycles;
  check_int (tag ^ ": num_signals") rs.Sim.num_signals rp.Sim.num_signals;
  check_bool (tag ^ ": node_toggles") true
    (rs.Sim.node_toggles = rp.Sim.node_toggles)

(* Vector counts that stress the word packing: empty, one lane, exactly
   one word, one word +/- one lane, and non-multiples of the lane
   count. *)
let vector_choices = [| 0; 1; 2; Bits.lanes; Bits.lanes + 1; 64; 100; 130 |]

(* --- differential properties ---------------------------------------- *)

let prop_sim_differential =
  QCheck.Test.make
    ~name:"glitch sim: scalar oracle = bit-parallel (random CDFGs)"
    ~count:40
    QCheck.(
      quad (int_range 0 10_000) (int_range 1 4) (int_range 1 10)
        (int_range 0 (Array.length vector_choices - 1)))
    (fun (seed, num_inputs, num_ops, vi) ->
      let st = Random.State.make [| seed; num_inputs; num_ops |] in
      let cdfg = random_cdfg st ~num_inputs ~num_ops in
      let width = 1 + (seed mod 4) in
      let elab = elab_of ~width cdfg in
      (* Rotate through the raw gate netlist (cells of arity <= 3) and
         the mapped 4-, 5- and 6-LUT covers, so every word-evaluator
         arity is simulated.  [seed / 4] picks the network independently
         of [seed mod 4], the width, so each network meets every width. *)
      let network =
        match (seed / 4) mod 4 with
        | 0 -> elab.Elaborate.netlist
        | r -> (Mapper.map elab.Elaborate.netlist ~k:(r + 3)).Mapper.lut_network
      in
      let config =
        {
          Sim.default_config with
          Sim.vectors = vector_choices.(vi);
          seed = Printf.sprintf "q%d" seed;
        }
      in
      (* config.check stays on: the golden-model check must pass under
         both engines. *)
      let rs = Sim.run_scalar ~config elab ~network in
      let rp = Sim.run ~config elab ~network in
      rs = rp)

(* --- pinned regressions --------------------------------------------- *)

let single_cdfg () =
  Cdfg.create ~name:"single" ~num_inputs:2
    ~ops:
      [
        { Cdfg.id = 0; kind = Cdfg.Add; left = Cdfg.Input 0;
          right = Cdfg.Input 1 };
      ]
    ~outputs:[ Cdfg.Op 0 ]

let run_both ~vectors ~seed elab =
  let config = { Sim.default_config with Sim.vectors; seed } in
  let rs = Sim.run_scalar ~config elab ~network:elab.Elaborate.netlist in
  let rp = Sim.run ~config elab ~network:elab.Elaborate.netlist in
  (rs, rp)

let test_zero_vectors () =
  let elab = elab_of ~width:1 (single_cdfg ()) in
  let rs, rp = run_both ~vectors:0 ~seed:"z" elab in
  assert_same "zero vectors" rs rp;
  check_int "no toggles" 0 rs.Sim.total_toggles;
  check_int "no glitches" 0 rs.Sim.glitch_toggles;
  check_int "no cycles" 0 rs.Sim.cycles;
  check_bool "all node counters zero" true
    (Array.for_all (fun t -> t = 0) rs.Sim.node_toggles)

(* Exact counts for the smallest network (1-bit single-op datapath),
   under a full word of vectors and under a 5-lane tail.  These values
   are the scalar oracle's output at the time the engines were proven
   identical; any change to either engine or to the vector stream moves
   them. *)
let test_single_node_pinned () =
  let elab = elab_of ~width:1 (single_cdfg ()) in
  let pin tag vectors (total, glitch, cycles) =
    let rs, rp = run_both ~vectors ~seed:"pin" elab in
    assert_same tag rs rp;
    check_int (tag ^ ": pinned total") total rs.Sim.total_toggles;
    check_int (tag ^ ": pinned glitch") glitch rs.Sim.glitch_toggles;
    check_int (tag ^ ": pinned cycles") cycles rs.Sim.cycles;
    check_int (tag ^ ": pinned signals") 6 rs.Sim.num_signals
  in
  pin "one full word" 63 (169, 16, 63);
  pin "tail of 5 lanes" 5 (17, 2, 5)

(* A diamond — y = (a + b) * a — reconverges with unequal path depths,
   so the unit-delay model must produce glitches, and both engines must
   count exactly the same ones. *)
let test_glitch_network_pinned () =
  let diamond =
    Cdfg.create ~name:"diamond" ~num_inputs:2
      ~ops:
        [
          { Cdfg.id = 0; kind = Cdfg.Add; left = Cdfg.Input 0;
            right = Cdfg.Input 1 };
          { Cdfg.id = 1; kind = Cdfg.Mult; left = Cdfg.Op 0;
            right = Cdfg.Input 0 };
        ]
      ~outputs:[ Cdfg.Op 1 ]
  in
  let elab = elab_of ~width:4 diamond in
  let rs, rp = run_both ~vectors:10 ~seed:"glitch" elab in
  assert_same "diamond" rs rp;
  check_bool "glitches observed" true (rs.Sim.glitch_toggles > 0);
  check_int "pinned total" 345 rs.Sim.total_toggles;
  check_int "pinned glitch" 42 rs.Sim.glitch_toggles;
  check_int "pinned cycles" 20 rs.Sim.cycles;
  check_int "pinned signals" 43 rs.Sim.num_signals

(* The stream contract both engines consume (sim.mli): one generator
   from the seed, draws vector-major input-minor, each draw
   [Rng.int rng (mask + 1)].  Pinned golden draws: if this test fails,
   the stream changed and every committed benchmark number moves. *)
let test_vector_stream_pinned () =
  let vs = Sim.vector_stream ~seed:"pin" ~vectors:4 ~num_inputs:3 ~mask:255 in
  let expect =
    [| [| 72; 69; 132 |]; [| 182; 221; 62 |]; [| 243; 5; 167 |];
       [| 69; 222; 230 |] |]
  in
  check_bool "golden stream draws" true (vs = expect)

(* A prefix of the stream must not depend on the total vector count —
   otherwise "same seed, more vectors" would silently resample
   everything and per-vector results could not be compared across
   runs. *)
let test_vector_stream_prefix () =
  let short = Sim.vector_stream ~seed:"p" ~vectors:5 ~num_inputs:2 ~mask:15 in
  let long = Sim.vector_stream ~seed:"p" ~vectors:90 ~num_inputs:2 ~mask:15 in
  check_bool "prefix stable" true
    (Array.for_all2 (fun a b -> a = b) short (Array.sub long 0 5))

(* Constant-driven LUTs: constants settle in the canonical state and
   never toggle; downstream logic sees them as frozen lanes in every
   word.  Checked against exhaustive scalar evaluation. *)
let test_constant_driven_luts () =
  let b = Nl.create_builder ~name:"const" in
  let a = Nl.add_input b "a" in
  let c1 = Nl.add_const b true in
  let c0 = Nl.add_const b false in
  let and_t = Tt.and_ (Tt.var 0 2) (Tt.var 1 2) in
  let or_t = Tt.or_ (Tt.var 0 2) (Tt.var 1 2) in
  let y_and = Nl.add_node b ~name:"y_and" ~func:and_t ~fanins:[| a; c1 |] in
  let y_or = Nl.add_node b ~name:"y_or" ~func:or_t ~fanins:[| a; c0 |] in
  let y_up = Nl.add_node b ~name:"y_up" ~func:or_t ~fanins:[| y_and; c1 |] in
  Nl.mark_output b "y_and" y_and;
  Nl.mark_output b "y_or" y_or;
  Nl.mark_output b "y_up" y_up;
  let net = Nl.freeze b in
  (* eval vs eval_words on every input value, all lanes alternating. *)
  List.iter
    (fun v ->
      let scalar = Nl.eval net [| v |] in
      let words =
        Nl.eval_words net [| (if v then Bits.mask_lanes Bits.lanes else 0) |]
      in
      Array.iteri
        (fun id w ->
          let expect =
            if scalar.(id) then Bits.mask_lanes Bits.lanes else 0
          in
          check_int
            (Printf.sprintf "node %d words (a=%b)" id v)
            expect w)
        words)
    [ false; true ]

(* --- the Sec. 6 designs ---------------------------------------------- *)

(* The designs the paper evaluates, not only random graphs: pr, wang,
   honda and mcm (the fast bench subset), each bound by LOPASS and by
   HLPower at alpha 1.0 and 0.5, elaborated at 16 bits and mapped to
   4-LUTs.  Tagged "<bench>-<binder>"; [Test_static] pins the analyzer
   on the same set. *)
let sec6_designs =
  lazy
    (let width = 16 in
     let sa_table = Sa_table.create ~width ~k:4 () in
     List.concat_map
       (fun name ->
         let profile = Benchmarks.find name in
         let resources = Benchmarks.resources profile in
         let schedule =
           Schedule.list_schedule (Benchmarks.generate profile) ~resources
         in
         let regs = Reg_binding.bind (Lifetime.analyze schedule) in
         let min_res cls = max 1 (Schedule.max_density schedule cls) in
         let hlpower alpha =
           (Hlpower.bind
              ~params:(Hlpower.calibrate ~alpha sa_table)
              ~sa_table ~regs ~resources:min_res schedule)
             .Hlpower.binding
         in
         List.map
           (fun (binder, binding) ->
             let elab = Elaborate.elaborate (Datapath.build ~width binding) in
             let network =
               (Mapper.map elab.Elaborate.netlist ~k:4).Mapper.lut_network
             in
             (name ^ "-" ^ binder, elab, network))
           [
             ("lopass", Lopass.bind ~regs ~resources schedule);
             ("hlp-a1.0", hlpower 1.0);
             ("hlp-a0.5", hlpower 0.5);
           ])
       [ "pr"; "wang"; "honda"; "mcm" ])

(* The engines agree on every Sec. 6 design, simulated at 40 vectors
   with the flow's seed and the golden-model check on. *)
let test_bench_designs_identical () =
  List.iter
    (fun (tag, elab, network) ->
      let config =
        { Sim.default_config with Sim.vectors = 40; seed = "flow" }
      in
      assert_same tag
        (Sim.run_scalar ~config elab ~network)
        (Sim.run ~config elab ~network))
    (Lazy.force sec6_designs)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sim_differential;
    Alcotest.test_case "zero vectors" `Quick test_zero_vectors;
    Alcotest.test_case "single node pinned" `Quick test_single_node_pinned;
    Alcotest.test_case "glitch network pinned" `Quick
      test_glitch_network_pinned;
    Alcotest.test_case "vector stream pinned" `Quick
      test_vector_stream_pinned;
    Alcotest.test_case "vector stream prefix stable" `Quick
      test_vector_stream_prefix;
    Alcotest.test_case "constant-driven luts" `Quick
      test_constant_driven_luts;
    Alcotest.test_case "sec. 6 designs: scalar oracle = bit-parallel"
      `Slow test_bench_designs_identical;
  ]
