(* Differential soundness harness for the static activity analyzer.

   On a tree netlist every fanin cone is disjoint, so the spatial
   independence assumption holds exactly and the propagated signal
   probabilities must agree with brute-force enumeration to float
   round-off — for both the scalar minterm oracle and the vectorized
   Shannon recursion.  Against the bit-parallel evaluator the same
   probabilities must agree to sampling tolerance.  At the flow level,
   the static estimate must track the simulated toggle rate. *)

module Tt = Hlp_netlist.Truth_table
module Nl = Hlp_netlist.Netlist
module Bits = Hlp_util.Bits
module Rng = Hlp_util.Rng
module Prob = Hlp_activity.Prob
module A = Hlp_static.Analysis
module Cl = Hlp_netlist.Cell_library
module Benchmarks = Hlp_cdfg.Benchmarks
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Reg_binding = Hlp_core.Reg_binding
module Lopass = Hlp_core.Lopass
module Flow = Hlp_rtl.Flow
module Power = Hlp_rtl.Power
module SM = Hlp_rtl.Static_model
module RA = Hlp_lint.Rules_activity
module D = Hlp_lint.Diagnostic

let check_float msg = Alcotest.(check (float 1e-9)) msg

(* The static fields a report's JSON carries. *)
let static_fields r =
  List.filter
    (fun k -> Hlp_util.Json.member k (Flow.json_of_report r) <> None)
    [
      "static_power_mw"; "static_toggle_rate_mhz"; "static_total_toggles";
      "static_glitch_fraction";
    ]

(* --- random tree netlists ------------------------------------------- *)

(* Every node (input or gate) feeds exactly one consumer, so cones are
   disjoint by construction. *)
let random_tree_netlist seed =
  let rng = Rng.create (Printf.sprintf "tree-%d" seed) in
  let b = Nl.create_builder ~name:"tree" in
  let n_leaves = 2 + Rng.int rng 9 in
  let free =
    ref
      (List.init n_leaves (fun i -> Nl.add_input b (Printf.sprintf "x%d" i)))
  in
  let fresh = ref 0 in
  let rec combine () =
    match !free with
    | [] -> assert false
    | [ root ] -> root
    | nodes ->
        let arr = Array.of_list nodes in
        Rng.shuffle rng arr;
        let k = min (2 + Rng.int rng 2) (Array.length arr) in
        let fanins = Array.sub arr 0 k in
        let rest = Array.to_list (Array.sub arr k (Array.length arr - k)) in
        let func = Tt.create k (Rng.bits64 rng) in
        incr fresh;
        let id =
          Nl.add_node b
            ~name:(Printf.sprintf "n%d" !fresh)
            ~func ~fanins
        in
        free := id :: rest;
        combine ()
  in
  Nl.mark_output b "y" (combine ());
  Nl.freeze b

(* Brute-force per-node probabilities under uniform inputs. *)
let exact_probs t =
  let n = Array.length (Nl.inputs t) in
  let counts = Array.make (Nl.num_nodes t) 0 in
  for a = 0 to (1 lsl n) - 1 do
    let assignment = Array.init n (fun i -> (a lsr i) land 1 = 1) in
    Array.iteri
      (fun id v -> if v then counts.(id) <- counts.(id) + 1)
      (Nl.eval t assignment)
  done;
  Array.map (fun c -> float_of_int c /. float_of_int (1 lsl n)) counts

(* node_probabilities re-implemented on the scalar minterm oracle. *)
let scalar_probs t =
  let probs = Array.make (Nl.num_nodes t) 0. in
  Array.iter
    (fun id ->
      if Nl.is_input t id then probs.(id) <- 0.5
      else
        let node = Nl.node t id in
        probs.(id) <-
          Prob.of_table_minterms node.Nl.func
            (Array.map (fun f -> probs.(f)) node.Nl.fanins))
    (Nl.topo_order t);
  probs

let arb_seed = QCheck.(int_range 0 1_000_000)

let prop_tree_exact =
  QCheck.Test.make ~name:"tree probabilities exact vs enumeration"
    ~count:150 arb_seed (fun seed ->
      let t = random_tree_netlist seed in
      let exact = exact_probs t in
      let got = Prob.node_probabilities t ~input_prob:Prob.uniform in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) exact got)

let prop_scalar_vectorized_bit_equal =
  (* Under the uniform assignment every intermediate probability is a
     small dyadic, so the Shannon recursion and the minterm loop must
     agree bit for bit, not just within epsilon. *)
  QCheck.Test.make ~name:"scalar and vectorized of_table bit-equal"
    ~count:150 arb_seed (fun seed ->
      let t = random_tree_netlist seed in
      let got = Prob.node_probabilities t ~input_prob:Prob.uniform in
      Array.for_all2 (fun a b -> Float.equal a b) (scalar_probs t) got)

let prop_tree_vs_bit_parallel =
  (* Empirical ones-frequency from the bit-parallel evaluator converges
     on the static probability; 300 words x 63 lanes keeps the 5-sigma
     band under 0.02 for p = 0.5. *)
  QCheck.Test.make ~name:"tree probabilities vs bit-parallel sampling"
    ~count:40 arb_seed (fun seed ->
      let t = random_tree_netlist seed in
      let rng = Rng.create (Printf.sprintf "sample-%d" seed) in
      let n = Array.length (Nl.inputs t) in
      let words = 300 in
      let counts = Array.make (Nl.num_nodes t) 0 in
      for _ = 1 to words do
        let assignment =
          Array.init n (fun _ ->
              Int64.to_int (Rng.bits64 rng) land Bits.mask_lanes Bits.lanes)
        in
        Array.iteri
          (fun id w -> counts.(id) <- counts.(id) + Bits.popcount w)
          (Nl.eval_words t assignment)
      done;
      let samples = float_of_int (words * Bits.lanes) in
      let static = Prob.node_probabilities t ~input_prob:Prob.uniform in
      let tol = 5. *. (0.5 /. sqrt samples) +. 1e-9 in
      Array.for_all2
        (fun p c -> Float.abs (p -. (float_of_int c /. samples)) <= tol)
        static counts)

(* --- analyzer unit behavior ----------------------------------------- *)

let diamond () =
  (* y = (a and b) or (a and c): reconvergent at y. *)
  let b = Nl.create_builder ~name:"diamond" in
  let a = Nl.add_input b "a" in
  let bb = Nl.add_input b "b" in
  let c = Nl.add_input b "c" in
  let ab = Cl.and2 b a bb in
  let ac = Cl.and2 b a c in
  let y = Cl.or2 b ab ac in
  Nl.mark_output b "y" y;
  (Nl.freeze b, ab, ac, y)

let test_reconvergent_diamond () =
  let t, ab, ac, y = diamond () in
  let r = A.reconvergent t in
  Alcotest.(check bool) "ab is a tree node" false r.(ab);
  Alcotest.(check bool) "ac is a tree node" false r.(ac);
  Alcotest.(check bool) "y reconverges on a" true r.(y)

let test_reconvergent_tree () =
  let t = random_tree_netlist 42 in
  Alcotest.(check bool) "tree has no reconvergence" false
    (Array.exists Fun.id (A.reconvergent t))

let test_analysis_windows () =
  (* Balanced XOR: window [1,1], spread 0, no glitches.  A chained
     third input gives the top node window [1,2], spread 1. *)
  let b = Nl.create_builder ~name:"skew" in
  let a = Nl.add_input b "a" in
  let bb = Nl.add_input b "b" in
  let c = Nl.add_input b "c" in
  let x = Cl.xor2 b a bb in
  let y = Cl.xor2 b x c in
  Nl.mark_output b "y" y;
  let t = Nl.freeze b in
  let an = A.analyze t ~input:(fun _ -> A.default_input) in
  let info = A.info an in
  Alcotest.(check int) "x min" 1 info.(x).A.min_arrival;
  Alcotest.(check int) "x max" 1 info.(x).A.max_arrival;
  Alcotest.(check int) "x spread" 0 (A.spread info.(x));
  check_float "balanced xor does not glitch" 0. (A.glitch info.(x));
  Alcotest.(check int) "y min" 1 info.(y).A.min_arrival;
  Alcotest.(check int) "y max" 2 info.(y).A.max_arrival;
  Alcotest.(check int) "y spread" 1 (A.spread info.(y))

let test_analysis_totals_consistent () =
  let t, _, _, _ = diamond () in
  let an = A.analyze t ~input:(fun _ -> A.default_input) in
  let sum = Array.fold_left ( +. ) 0. (A.node_toggles an) in
  check_float "total = sum of per-node" sum (A.total_toggles an);
  Alcotest.(check bool) "glitch <= total" true
    (A.glitch_toggles an <= A.total_toggles an +. 1e-9)

(* --- A rules --------------------------------------------------------- *)

let codes ds = List.sort_uniq compare (List.map (fun d -> d.D.code) ds)

let test_rules_a002_near_constant () =
  let t, _, _, _ = diamond () in
  (* Rail-pinned inputs force every conjunction near 0. *)
  let an =
    A.analyze t
      ~input:(fun _ -> A.input ~prob:0.001 ~activity:0.001 ~density:0.001)
  in
  let ds = RA.check an in
  Alcotest.(check bool) "A002 fires" true (List.mem "A002" (codes ds));
  (* Uniform inputs on the same netlist: nothing is near-constant. *)
  let an = A.analyze t ~input:(fun _ -> A.default_input) in
  Alcotest.(check bool) "A002 silent on uniform" false
    (List.mem "A002" (codes (RA.check an)))

let test_rules_a004_reconvergent_share () =
  let t, _, _, _ = diamond () in
  let an = A.analyze t ~input:(fun _ -> A.default_input) in
  (* 1 of 3 logic nets reconverges: fires at a 0.2 share threshold,
     silent at the 0.5 default. *)
  let th = { RA.default_thresholds with RA.a4_share = 0.2 } in
  Alcotest.(check bool) "A004 fires at share 0.2" true
    (List.mem "A004" (codes (RA.check ~thresholds:th an)));
  Alcotest.(check bool) "A004 silent at default share" false
    (List.mem "A004" (codes (RA.check an)))

let test_rules_a001_a003_thresholds () =
  let b = Nl.create_builder ~name:"chain" in
  let a = Nl.add_input b "a" in
  let bb = Nl.add_input b "b" in
  let c = Nl.add_input b "c" in
  let x = Cl.xor2 b a bb in
  let y = Cl.xor2 b x c in
  Nl.mark_output b "y" y;
  let t = Nl.freeze b in
  let an = A.analyze t ~input:(fun _ -> A.default_input) in
  (* Forced-low thresholds make the skewed node fire both rules. *)
  let th =
    {
      RA.default_thresholds with
      RA.a1_spread = 1;
      a1_glitch = 0.;
      a3_budget = 0.;
    }
  in
  let cs = codes (RA.check ~thresholds:th an) in
  Alcotest.(check bool) "A001 fires" true (List.mem "A001" cs);
  Alcotest.(check bool) "A003 fires" true (List.mem "A003" cs);
  (* Default thresholds stay silent on a three-gate toy. *)
  Alcotest.(check (list string)) "defaults silent" [] (codes (RA.check an))

let test_rules_reject_bad_thresholds () =
  let t, _, _, _ = diamond () in
  let an = A.analyze t ~input:(fun _ -> A.default_input) in
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Rules_activity.check: a3_budget < 0") (fun () ->
      ignore
        (RA.check
           ~thresholds:{ RA.default_thresholds with RA.a3_budget = -1. }
           an))

(* --- catalog --------------------------------------------------------- *)

let test_catalog_sorted_unique () =
  let codes = List.map (fun r -> r.Hlp_lint.Lint.r_code) Hlp_lint.Lint.catalog in
  Alcotest.(check (list string)) "codes sorted and unique"
    (List.sort_uniq compare codes)
    codes;
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " cataloged") true (List.mem c codes))
    [ "A001"; "A004"; "B001"; "D001"; "L001"; "M001"; "N001"; "S001"; "S008" ]

(* --- estimator plumbing ---------------------------------------------- *)

let test_estimator_names () =
  List.iter
    (fun (s, e) ->
      Alcotest.(check string) ("canonical " ^ s) s (Power.estimator_name e);
      match Power.estimator_of_string s with
      | Some e' -> Alcotest.(check bool) ("parse " ^ s) true (e = e')
      | None -> Alcotest.fail ("estimator_of_string " ^ s))
    [ ("sim", `Sim); ("static", `Static); ("both", `Both) ];
  Alcotest.(check bool) "garbage rejected" true
    (Power.estimator_of_string "spice" = None)

let flow_binding () =
  let p = Benchmarks.find "pr" in
  let cdfg = Benchmarks.generate p in
  let resources = Benchmarks.resources p in
  let schedule = Schedule.list_schedule cdfg ~resources in
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  Lopass.bind ~regs ~resources schedule

let test_flow_estimators () =
  let binding = flow_binding () in
  let config v =
    { Flow.default_config with Flow.width = 8; vectors = 60; estimator = v }
  in
  let sim = Flow.run ~config:(config `Sim) ~design:"pr-sim" binding in
  let both = Flow.run ~config:(config `Both) ~design:"pr-both" binding in
  let static = Flow.run ~config:(config `Static) ~design:"pr-static" binding in
  (* `Sim reports no static section and its JSON stays byte-free of it. *)
  Alcotest.(check bool) "sim: no static section" true (sim.Flow.static = None);
  Alcotest.(check (list string)) "sim JSON has no static fields" []
    (static_fields sim);
  (* `Both simulates identically to `Sim and adds the static section. *)
  check_float "both: same simulated power" sim.Flow.dynamic_power_mw
    both.Flow.dynamic_power_mw;
  check_float "both: same simulated toggle rate" sim.Flow.toggle_rate_mhz
    both.Flow.toggle_rate_mhz;
  (match both.Flow.static with
  | None -> Alcotest.fail "both: static section missing"
  | Some st ->
      let rel =
        Float.abs (st.Flow.static_toggle_rate_mhz -. sim.Flow.toggle_rate_mhz)
        /. sim.Flow.toggle_rate_mhz
      in
      Alcotest.(check bool)
        (Printf.sprintf "both: static within 35%% of sim (got %.1f%%)"
           (100. *. rel))
        true (rel < 0.35);
      Alcotest.(check int) "both JSON carries static fields" 4
        (List.length (static_fields both));
      (* `Static reports the same numbers without simulating. *)
      match static.Flow.static with
      | None -> Alcotest.fail "static: static section missing"
      | Some st' ->
          check_float "static = both's static power" st.Flow.static_power_mw
            st'.Flow.static_power_mw;
          check_float "static headline power is the static estimate"
            st'.Flow.static_power_mw static.Flow.dynamic_power_mw)

let test_static_model_inputs_match_layout () =
  let binding = flow_binding () in
  let dp = Hlp_rtl.Datapath.build ~width:8 binding in
  let elab = Hlp_rtl.Elaborate.elaborate dp in
  let ins = SM.inputs elab in
  Alcotest.(check int) "one record per primary input"
    (Array.length (Nl.inputs elab.Hlp_rtl.Elaborate.netlist))
    (Array.length ins);
  Array.iter
    (fun (i : A.input) ->
      let p = i.A.signal.Hlp_activity.Switching.prob in
      Alcotest.(check bool) "prob in range" true (p >= 0. && p <= 1.);
      Alcotest.(check bool) "density in range" true
        (i.A.density >= 0. && i.A.density <= 1.))
    ins;
  Alcotest.check_raises "samples < 1 rejected"
    (Invalid_argument "Static_model.inputs: samples < 1") (fun () ->
      ignore (SM.inputs ~samples:0 elab));
  Alcotest.(check int) "cycles = vectors x steps"
    (100 * Array.length dp.Hlp_rtl.Datapath.ctrl)
    (SM.cycles elab ~vectors:100)

(* The analyzer's output, bit for bit, on the Sec. 6 designs
   [Test_sim_parallel] builds: one digest per design over all six
   [node_info] fields of every node, floats as their IEEE bits.  A
   speed-up of the sweep must leave these untouched; a change meant to
   move the estimates re-records them. *)
let info_digest an =
  let buf = Buffer.create 65536 in
  let bits f = Buffer.add_int64_le buf (Int64.bits_of_float f) in
  Array.iter
    (fun (i : A.node_info) ->
      bits i.A.prob;
      bits i.A.functional;
      bits i.A.density;
      bits i.A.toggles;
      Buffer.add_int64_le buf (Int64.of_int i.A.min_arrival);
      Buffer.add_int64_le buf (Int64.of_int i.A.max_arrival))
    (A.info an);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pinned_info_digests =
  [
    ("pr-lopass", "f06283855171c00bb92a3b25e3d5ee68");
    ("pr-hlp-a1.0", "902daf7985183e12883001e2fcf620c0");
    ("pr-hlp-a0.5", "44fc96787ef3c5eb90da4b764d94cf2f");
    ("wang-lopass", "abb019e8644f8eb8c6118c364f79ce66");
    ("wang-hlp-a1.0", "8c5368c83f6de8b3abc6af4786e3688e");
    ("wang-hlp-a0.5", "61a500fb1c8522f627f584200a17b642");
    ("honda-lopass", "9d73a20a5d1bf90fbf57baa182aa73a5");
    ("honda-hlp-a1.0", "0872ec4f241da98a3c3211894cf9dcc3");
    ("honda-hlp-a0.5", "84122e3050da8eba60947f61fa1c3a21");
    ("mcm-lopass", "18b03be2cc72b39e309a8c22be2e54ff");
    ("mcm-hlp-a1.0", "1c50f8cd9c279de0b0db0a4bbffacdac");
    ("mcm-hlp-a0.5", "ea892793da4779f5a249b30c99bc947f");
  ]

let test_info_pinned () =
  List.iter
    (fun (tag, elab, network) ->
      Alcotest.(check string)
        (tag ^ ": Analysis.info digest")
        (List.assoc tag pinned_info_digests)
        (info_digest (SM.analyze elab ~network)))
    (Lazy.force Test_sim_parallel.sec6_designs)

let suite =
  [
    Alcotest.test_case "reconvergent diamond" `Quick test_reconvergent_diamond;
    Alcotest.test_case "reconvergent tree" `Quick test_reconvergent_tree;
    Alcotest.test_case "arrival windows" `Quick test_analysis_windows;
    Alcotest.test_case "totals consistent" `Quick
      test_analysis_totals_consistent;
    Alcotest.test_case "A002 near-constant" `Quick
      test_rules_a002_near_constant;
    Alcotest.test_case "A004 reconvergent share" `Quick
      test_rules_a004_reconvergent_share;
    Alcotest.test_case "A001/A003 thresholds" `Quick
      test_rules_a001_a003_thresholds;
    Alcotest.test_case "bad thresholds rejected" `Quick
      test_rules_reject_bad_thresholds;
    Alcotest.test_case "catalog sorted and unique" `Quick
      test_catalog_sorted_unique;
    Alcotest.test_case "estimator names" `Quick test_estimator_names;
    Alcotest.test_case "flow estimators" `Slow test_flow_estimators;
    Alcotest.test_case "static-model inputs" `Quick
      test_static_model_inputs_match_layout;
    Alcotest.test_case "Analysis.info pinned on the Sec. 6 designs" `Slow
      test_info_pinned;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_tree_exact;
        prop_scalar_vectorized_bit_equal;
        prop_tree_vs_bit_parallel;
      ]
