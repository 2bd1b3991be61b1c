module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Cl = Hlp_netlist.Cell_library
module Cut = Hlp_mapper.Cut
module Mapper = Hlp_mapper.Mapper

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* y = (a and b) xor (c or d): 4 inputs, 3 gates, depth 2. *)
let small () =
  let b = Nl.create_builder ~name:"small" in
  let a = Nl.add_input b "a" in
  let bb = Nl.add_input b "b" in
  let c = Nl.add_input b "c" in
  let d = Nl.add_input b "d" in
  let g1 = Cl.and2 b a bb in
  let g2 = Cl.or2 b c d in
  let y = Cl.xor2 b g1 g2 in
  Nl.mark_output b "y" y;
  (Nl.freeze b, y)

(* Each node's cuts from the list-based reference and from [Cut]'s
   store, as leaf-array lists: every cut test holds both. *)
let both_cut_sets t ~k ~max_cuts =
  let store = Cut.enumerate t ~k ~max_cuts in
  [
    ("reference", Array.map (List.map (fun c -> c.Cut_reference.leaves))
       (Cut_reference.enumerate t ~k ~max_cuts));
    ("store", Array.init (Nl.num_nodes t) (fun id ->
         List.init (Cut.stop store id - Cut.first store id) (fun i ->
             Cut.leaves store (Cut.first store id + i))));
  ]

let pp_leaves fmt leaves =
  Format.fprintf fmt "{%s}"
    (String.concat "," (Array.to_list (Array.map string_of_int leaves)))

let test_cuts_of_inputs () =
  let t, _ = small () in
  let a = (Nl.inputs t).(0) in
  List.iter
    (fun (_, cuts) ->
      match cuts.(a) with
      | [ c ] -> check_int "trivial cut" 1 (Array.length c)
      | _ -> Alcotest.fail "input should have exactly its trivial cut")
    (both_cut_sets t ~k:4 ~max_cuts:8)

let test_cuts_cover_whole_cone () =
  let t, y = small () in
  List.iter
    (fun (_, cuts) ->
      (* With k=4, the root has a cut whose leaves are the 4 PIs. *)
      let has_full = List.exists (fun c -> Array.length c = 4) cuts.(y) in
      check_bool "4-input cut exists" true has_full;
      (* All cuts are k-feasible. *)
      List.iter
        (fun c -> check_bool "k-feasible" true (Array.length c <= 4))
        cuts.(y))
    (both_cut_sets t ~k:4 ~max_cuts:8)

let test_cuts_no_dominated () =
  let t, y = small () in
  let subset a b = Array.for_all (fun x -> Array.exists (( = ) x) b) a in
  List.iter
    (fun (_, cuts) ->
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i <> j && subset a b then
                Alcotest.failf "cut %a dominates %a" pp_leaves a pp_leaves b)
            cuts.(y))
        cuts.(y))
    (both_cut_sets t ~k:4 ~max_cuts:16)

let test_cone_function_matches () =
  let t, y = small () in
  let store = Cut.enumerate t ~k:4 ~max_cuts:8 in
  let full = ref (-1) in
  for c = Cut.stop store y - 1 downto Cut.first store y do
    if Cut.size store c = 4 then full := c
  done;
  let f = Cut.cone_function store t y !full in
  (* Check against direct evaluation for all 16 assignments. *)
  for m = 0 to 15 do
    let assignment = Array.init 4 (fun i -> m land (1 lsl i) <> 0) in
    let values = Nl.eval t assignment in
    (* leaves are sorted by id = input creation order here *)
    let mt = ref 0 in
    Array.iteri
      (fun i leaf -> if values.(leaf) then mt := !mt lor (1 lsl i))
      (Cut.leaves store !full);
    check_bool "cone function agrees" (values.(y)) (Tt.eval f !mt)
  done

let test_enumerate_rejects_bad_k () =
  let t, _ = small () in
  Alcotest.check_raises "k=1" (Invalid_argument "Cut.enumerate: bad k")
    (fun () -> ignore (Cut.enumerate t ~k:1 ~max_cuts:4));
  Alcotest.check_raises "k=9" (Invalid_argument "Cut.enumerate: bad k")
    (fun () -> ignore (Cut.enumerate t ~k:9 ~max_cuts:4))

let test_map_small_single_lut () =
  (* 4 inputs, k=4: whole circuit fits in one LUT. *)
  let t, _ = small () in
  let m = Mapper.map t ~k:4 in
  Mapper.check_cover m;
  check_int "single LUT" 1 m.Mapper.lut_count;
  check_int "depth 1" 1 m.Mapper.depth

let test_map_small_k2 () =
  let t, _ = small () in
  let m = Mapper.map t ~k:2 in
  Mapper.check_cover m;
  check_bool "at least 3 LUTs" true (m.Mapper.lut_count >= 3)

let test_map_adder () =
  let b = Nl.create_builder ~name:"add8" in
  let a = Cl.input_word b ~prefix:"a" ~width:8 in
  let bw = Cl.input_word b ~prefix:"b" ~width:8 in
  let cin = Nl.add_const b false in
  let sum, cout = Cl.ripple_adder b ~a ~b_in:bw ~cin in
  Array.iteri (fun i id -> Nl.mark_output b (Printf.sprintf "s%d" i) id) sum;
  Nl.mark_output b "cout" cout;
  let t = Nl.freeze b in
  let m = Mapper.map t ~k:4 in
  Mapper.check_cover m;
  check_bool "fewer LUTs than gates" true
    (m.Mapper.lut_count < Nl.num_logic_nodes t);
  check_bool "sa positive" true (m.Mapper.total_sa > 0.);
  check_bool "adder chains glitch" true (m.Mapper.glitch_sa > 0.)

let test_map_multiplier_cover () =
  let b = Nl.create_builder ~name:"mult4" in
  let a = Cl.input_word b ~prefix:"a" ~width:4 in
  let bw = Cl.input_word b ~prefix:"b" ~width:4 in
  let p = Cl.array_multiplier b ~a ~b_in:bw ~truncate:false in
  Array.iteri (fun i id -> Nl.mark_output b (Printf.sprintf "p%d" i) id) p;
  let t = Nl.freeze b in
  let m = Mapper.map t ~k:4 in
  Mapper.check_cover m

let test_min_depth_objective () =
  let b = Nl.create_builder ~name:"chain" in
  let x0 = Nl.add_input b "x0" in
  let prev = ref x0 in
  for i = 1 to 8 do
    let xi = Nl.add_input b (Printf.sprintf "x%d" i) in
    prev := Cl.xor2 b !prev xi
  done;
  Nl.mark_output b "y" !prev;
  let t = Nl.freeze b in
  let sa = Mapper.map ~objective:Mapper.Min_sa t ~k:4 in
  let depth = Mapper.map ~objective:Mapper.Min_depth t ~k:4 in
  Mapper.check_cover sa;
  Mapper.check_cover depth;
  check_bool "depth objective at least as shallow" true
    (depth.Mapper.depth <= sa.Mapper.depth)

(* The mapper sums Eq. 3 from the waveforms it chose; a fresh unit-delay
   propagation over the LUT network it returns must give the same three
   totals, bit for bit. *)
let totals_match_propagation (m : Mapper.t) =
  let module Timed = Hlp_activity.Timed in
  let s =
    Timed.summarize m.Mapper.lut_network
      (Timed.propagate m.Mapper.lut_network ~delay:(fun _ -> 1)
         ~input:(fun _ -> Hlp_activity.Switching.default_input))
  in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  same m.Mapper.total_sa s.Timed.total_sa
  && same m.Mapper.functional_sa s.Timed.functional_sa
  && same m.Mapper.glitch_sa s.Timed.glitch_sa

let test_map_with_const_outputs () =
  let b = Nl.create_builder ~name:"constout" in
  let a = Nl.add_input b "a" in
  let k1 = Nl.add_const b true in
  let g = Cl.and2 b a k1 in
  Nl.mark_output b "y" g;
  Nl.mark_output b "k" k1;
  let t = Nl.freeze b in
  let m = Mapper.map t ~k:4 in
  Mapper.check_cover m;
  check_bool "totals = fresh propagation" true (totals_match_propagation m)

let test_partial_datapath_totals () =
  List.iter
    (fun fu ->
      let t =
        Cl.partial_datapath ~fu ~width:16 ~left_inputs:4 ~right_inputs:3 ()
      in
      check_bool "totals = fresh propagation" true
        (totals_match_propagation (Mapper.map t ~k:4)))
    [ Cl.Adder; Cl.Multiplier ]

let test_sa_decomposition () =
  let t =
    Cl.partial_datapath ~fu:Cl.Adder ~width:8 ~left_inputs:4 ~right_inputs:2 ()
  in
  let m = Mapper.map t ~k:4 in
  Alcotest.(check (float 1e-6))
    "total = functional + glitch" m.Mapper.total_sa
    (m.Mapper.functional_sa +. m.Mapper.glitch_sa)

let test_mapping_reduces_sa_vs_gates () =
  (* Collapsing gates into LUTs hides internal transitions; the mapped
     network should estimate fewer total transitions than the gate net. *)
  let t =
    Cl.partial_datapath ~fu:Cl.Adder ~width:8 ~left_inputs:3 ~right_inputs:3 ()
  in
  let gate_sa = (Hlp_activity.Timed.estimate t).Hlp_activity.Timed.total_sa in
  let m = Mapper.map t ~k:4 in
  check_bool "mapped SA < gate SA" true (m.Mapper.total_sa < gate_sa)

(* Random netlists: cover always valid and equivalent. *)
let prop_random_cover =
  QCheck.Test.make ~name:"random netlists map to valid covers" ~count:60
    QCheck.(pair (int_range 1 4) (int_range 1 100000))
    (fun (k_choice, seed) ->
      let k = 2 + (k_choice mod 3) in
      let rng = Hlp_util.Rng.create (string_of_int seed) in
      let b = Nl.create_builder ~name:"rand" in
      let pool = ref [] in
      let n_inputs = 2 + Hlp_util.Rng.int rng 5 in
      for i = 0 to n_inputs - 1 do
        pool := Nl.add_input b (Printf.sprintf "i%d" i) :: !pool
      done;
      let outs = ref [] in
      for g = 1 to 5 + Hlp_util.Rng.int rng 25 do
        let arr = Array.of_list !pool in
        let x = Hlp_util.Rng.pick rng arr and y = Hlp_util.Rng.pick rng arr in
        let f = Tt.create 2 (Int64.of_int (Hlp_util.Rng.int rng 16)) in
        let id = Nl.add_node b ~name:"g" ~func:f ~fanins:[| x; y |] in
        pool := id :: !pool;
        if g mod 7 = 0 then outs := id :: !outs
      done;
      let last = List.hd !pool in
      Nl.mark_output b "y" last;
      List.iteri
        (fun i id -> Nl.mark_output b (Printf.sprintf "o%d" i) id)
        !outs;
      let t = Nl.freeze b in
      let m = Mapper.map t ~k in
      Mapper.check_cover m;
      totals_match_propagation m)

(* The mapper's output on the netlists the benchmark's flow requests
   map: 7 benchmarks x {lopass, hlpower alpha 1.0, hlpower alpha 0.5},
   width 16, K = 4.  One MD5 per design over the bits of the Eq. 3
   totals, the LUT count, the depth and the BLIF of the LUT network, so
   a mapper change that moves one estimate bit or one LUT fails here. *)
let flow_mix_pinned =
  [
    ("chem/lopass", "41480156afcf6c11372c56e1d894dc8e");
    ("chem/hlpower-a1.0", "9c8ac904c232d63068d15aad0e98c259");
    ("chem/hlpower-a0.5", "f8128720921417d4c694eb202b01927b");
    ("dir/lopass", "539b3fb78dcc7e6a186aec125329cd31");
    ("dir/hlpower-a1.0", "149f622d669dfd18ae98f6adf5eea126");
    ("dir/hlpower-a0.5", "1b0efe410d57aeca235dfdcf5f9c308f");
    ("honda/lopass", "87777ceae46f92815cacb5a9e854025f");
    ("honda/hlpower-a1.0", "d990155c77195823d198f038c8d8ea6e");
    ("honda/hlpower-a0.5", "977687c0476e4b3846291325363619e3");
    ("mcm/lopass", "3d256b6068ed3ef1fbc2c109c7d026c5");
    ("mcm/hlpower-a1.0", "29464a4b1af9be33ab988191cf0b019a");
    ("mcm/hlpower-a0.5", "24e37ed7eed22bd0e92c53d1e85f2192");
    ("pr/lopass", "dd5be9c6ba8e8883faa8db5dc6d42c3b");
    ("pr/hlpower-a1.0", "4538b6ba4d75ead8eeb78ff08fc811a1");
    ("pr/hlpower-a0.5", "5405234c50ff414d039c9fca8dc33e91");
    ("steam/lopass", "5c748b3506f37e7442b9406eb8394923");
    ("steam/hlpower-a1.0", "d2cf5f18404700dc436452850523cd0d");
    ("steam/hlpower-a0.5", "db0183ee23e7905eb01739e881f06bcf");
    ("wang/lopass", "af1eab82748db581e7506cbcd61266de");
    ("wang/hlpower-a1.0", "7f75c60ca67fe662169af86fa5e3cf7c");
    ("wang/hlpower-a0.5", "b68363c7b1b6e30a474b4c7e8db115e7");
  ]

(* The elaborated netlists of those designs, named "<bench>/<binder>"
   in [flow_mix_pinned]'s order; also the netlists the flow checker
   writes and parses for N009 (test_blif_diff pins those bytes). *)
let flow_mix_netlists =
  lazy
    (let module Binder = Hlp_core.Binder in
     let module Benchmarks = Hlp_cdfg.Benchmarks in
     let sa_table = lazy (Hlp_core.Sa_table.create ~width:16 ~k:4 ()) in
     let binders =
       [
         ("lopass", Binder.Lopass);
         ("hlpower-a1.0", Binder.Hlpower { alpha = 1.0 });
         ("hlpower-a0.5", Binder.Hlpower { alpha = 0.5 });
       ]
     in
     List.concat_map
       (fun (profile : Benchmarks.profile) ->
         List.map
           (fun (label, binder) ->
             let prepared = Binder.prepare (Binder.Bench (profile, 0)) in
             let r = Binder.run ~sa_table binder prepared in
             let dp = Hlp_rtl.Datapath.build ~width:16 r.Binder.binding in
             ( profile.Benchmarks.bench_name ^ "/" ^ label,
               (Hlp_rtl.Elaborate.elaborate dp).Hlp_rtl.Elaborate.netlist ))
           binders)
       Benchmarks.all)

let flow_mix_digest netlist =
  let m = Mapper.map netlist ~k:4 in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%h %h %d %d\n%s" m.Mapper.total_sa
          m.Mapper.functional_sa m.Mapper.lut_count m.Mapper.depth
          (Hlp_netlist.Blif.to_string m.Mapper.lut_network)))

let test_flow_mix_pinned () =
  let got =
    List.map
      (fun (name, netlist) -> (name, flow_mix_digest netlist))
      (Lazy.force flow_mix_netlists)
  in
  Alcotest.(check (list (pair string string)))
    "21 flow-mix mappings" flow_mix_pinned got

(* Every piece of mapper state lives in one [map] call: two domains
   mapping the same netlists at once, in opposite orders, each get the
   pinned digests. *)
let test_flow_mix_two_domains () =
  let netlists = Lazy.force flow_mix_netlists in
  let run order =
    Domain.spawn (fun () ->
        List.map (fun (name, netlist) -> (name, flow_mix_digest netlist)) order)
  in
  let forward = run netlists and backward = run (List.rev netlists) in
  let forward = Domain.join forward and backward = Domain.join backward in
  Alcotest.(check (list (pair string string)))
    "first domain" flow_mix_pinned forward;
  Alcotest.(check (list (pair string string)))
    "second domain" flow_mix_pinned (List.rev backward)

let suite =
  [
    Alcotest.test_case "cuts of inputs" `Quick test_cuts_of_inputs;
    Alcotest.test_case "full-cone cut exists" `Quick
      test_cuts_cover_whole_cone;
    Alcotest.test_case "no dominated cuts" `Quick test_cuts_no_dominated;
    Alcotest.test_case "cone function matches evaluation" `Quick
      test_cone_function_matches;
    Alcotest.test_case "enumerate rejects bad k" `Quick
      test_enumerate_rejects_bad_k;
    Alcotest.test_case "small circuit -> one 4-LUT" `Quick
      test_map_small_single_lut;
    Alcotest.test_case "small circuit, k=2" `Quick test_map_small_k2;
    Alcotest.test_case "8-bit adder mapping" `Quick test_map_adder;
    Alcotest.test_case "4-bit multiplier mapping" `Quick
      test_map_multiplier_cover;
    Alcotest.test_case "min-depth objective" `Quick test_min_depth_objective;
    Alcotest.test_case "constant outputs" `Quick test_map_with_const_outputs;
    Alcotest.test_case "width-16 partial datapath totals" `Quick
      test_partial_datapath_totals;
    Alcotest.test_case "sa decomposition" `Quick test_sa_decomposition;
    Alcotest.test_case "mapping reduces SA vs gate level" `Quick
      test_mapping_reduces_sa_vs_gates;
    Alcotest.test_case "21 flow-mix mappings pinned" `Quick
      test_flow_mix_pinned;
    Alcotest.test_case "flow-mix mappings on two domains" `Quick
      test_flow_mix_two_domains;
    QCheck_alcotest.to_alcotest prop_random_cover;
  ]
