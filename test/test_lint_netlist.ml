(* Netlist rule family (N001-N010): structural warnings/errors on
   hand-built netlists, BLIF parse diagnostics with exact line numbers,
   and the BLIF round-trip check. *)

module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Cl = Hlp_netlist.Cell_library
module D = Hlp_lint.Diagnostic
module Rules = Hlp_lint.Rules_netlist

let check_bool = Alcotest.(check bool)
let check_codes = Alcotest.(check (list string))

(* z = (x & y) ^ w — every node reachable, every input read. *)
let clean_netlist () =
  let b = Nl.create_builder ~name:"clean" in
  let x = Nl.add_input b "x"
  and y = Nl.add_input b "y"
  and w = Nl.add_input b "w" in
  let g = Cl.and2 b x y in
  let z = Cl.xor2 b g w in
  Nl.mark_output b "z" z;
  Nl.freeze b

let test_clean () =
  check_codes "no diagnostics" [] (D.codes (Rules.check (clean_netlist ())))

let test_unreachable_logic () =
  let b = Nl.create_builder ~name:"dead" in
  let x = Nl.add_input b "x" and y = Nl.add_input b "y" in
  let live = Cl.and2 b x y in
  let _dead = Cl.or2 b x y in
  Nl.mark_output b "z" live;
  let ds = Rules.check (Nl.freeze b) in
  check_bool "N005 reported" true (D.has_code "N005" ds);
  check_bool "only a warning" true (D.errors ds = [])

let test_unused_input () =
  let b = Nl.create_builder ~name:"unused" in
  let x = Nl.add_input b "x" and _y = Nl.add_input b "y" in
  Nl.mark_output b "z" (Cl.not_ b x);
  check_bool "N008 reported" true
    (D.has_code "N008" (Rules.check (Nl.freeze b)))

let test_constant_foldable () =
  let b = Nl.create_builder ~name:"fold" in
  let x = Nl.add_input b "x" and y = Nl.add_input b "y" in
  (* A 2-input node that only depends on input 0. *)
  let n = Nl.add_node b ~name:"buf" ~func:(Tt.var 0 2) ~fanins:[| x; y |] in
  Nl.mark_output b "z" n;
  check_bool "N007 reported" true
    (D.has_code "N007" (Rules.check (Nl.freeze b)))

let test_duplicate_output () =
  let b = Nl.create_builder ~name:"dup" in
  let x = Nl.add_input b "x" and y = Nl.add_input b "y" in
  Nl.mark_output b "z" (Cl.and2 b x y);
  Nl.mark_output b "z" (Cl.or2 b x y);
  check_bool "N006 reported" true
    (D.has_code "N006" (Rules.check (Nl.freeze b)))

(* Several injected problems, one run, all reported. *)
let test_all_violations_in_one_run () =
  let b = Nl.create_builder ~name:"multi" in
  let x = Nl.add_input b "x" and y = Nl.add_input b "y" in
  let _z = Nl.add_input b "zz" (* N008: never read *) in
  let live = Cl.and2 b x y in
  let _dead = Cl.or2 b x y (* N005 *) in
  let fold = Nl.add_node b ~name:"f" ~func:(Tt.var 0 2) ~fanins:[| live; x |] in
  (* N007 *)
  Nl.mark_output b "o" fold;
  Nl.mark_output b "o" live (* N006 *);
  let ds = Rules.check (Nl.freeze b) in
  List.iter
    (fun code ->
      check_bool (code ^ " present in combined run") true (D.has_code code ds))
    [ "N005"; "N006"; "N007"; "N008" ]

(* --- BLIF parse diagnostics: exact line numbers --- *)

let parse_error s =
  match Rules.parse_blif s with
  | Ok _ -> Alcotest.fail "parse unexpectedly succeeded"
  | Error d -> d

let test_blif_duplicate_input_line () =
  let d =
    parse_error
      ".model m\n.inputs a b\n.inputs a\n.outputs z\n.names a z\n1 1\n.end\n"
  in
  Alcotest.(check string) "code" "N010" d.D.code;
  (* The second .inputs directive is physical line 3. *)
  check_bool "line 3" true (d.D.loc = D.Line 3)

let test_blif_undefined_net_line () =
  let d =
    parse_error ".model m\n.inputs a\n.outputs z\n.names a ghost z\n11 1\n.end\n"
  in
  Alcotest.(check string) "code" "N010" d.D.code;
  (* The .names that references the undefined fanin is line 4. *)
  check_bool "line 4" true (d.D.loc = D.Line 4)

let test_blif_cycle_line () =
  let d =
    parse_error
      ".model m\n.inputs a\n.outputs z\n.names z a q\n11 1\n.names q a z\n\
       11 1\n.end\n"
  in
  Alcotest.(check string) "code" "N010" d.D.code;
  (match d.D.loc with
  | D.Line (4 | 6) -> ()
  | loc -> Alcotest.failf "cycle at %s" (Format.asprintf "%a" D.pp_loc loc));
  check_bool "message mentions the cycle" true
    (String.length d.D.message > 0)

(* A model without outputs is an N010 at its .model line. *)
let test_blif_no_outputs_line () =
  let d = parse_error ".model m\n.inputs a\n.end\n" in
  Alcotest.(check string) "code" "N010" d.D.code;
  check_bool "line 1" true (d.D.loc = D.Line 1)

(* --- round trip --- *)

let test_roundtrip_clean () =
  check_codes "round trip equivalent" []
    (D.codes (Rules.check_blif_roundtrip (clean_netlist ())))

let test_roundtrip_adder () =
  let b = Nl.create_builder ~name:"adder" in
  let a = Cl.input_word b ~prefix:"a" ~width:4 in
  let bw = Cl.input_word b ~prefix:"b" ~width:4 in
  let cin = Nl.add_const b false in
  let sum, cout = Cl.ripple_adder b ~a ~b_in:bw ~cin in
  Array.iteri (fun i s -> Nl.mark_output b (Printf.sprintf "s%d" i) s) sum;
  Nl.mark_output b "cout" cout;
  let t = Nl.freeze b in
  check_codes "round trip equivalent" []
    (D.codes (Rules.check_blif_roundtrip t))

(* Logic node 3 would be "n3" in BLIF, the name of the first input; the
   writer renames the node, so the round trip keeps y1 = n3 & b and
   y2 = not y1. *)
let clash_netlist ~swapped =
  let b = Nl.create_builder ~name:"clash" in
  let n3 = Nl.add_input b "n3" and bb = Nl.add_input b "b" in
  let _node2 = Cl.not_ b bb in
  let node3 = Cl.and2 b n3 bb in
  check_bool "node 3" true (node3 = 3);
  let node4 = Cl.not_ b node3 in
  let y1, y2 = if swapped then (node4, node3) else (node3, node4) in
  Nl.mark_output b "y1" y1;
  Nl.mark_output b "y2" y2;
  Nl.freeze b

let test_roundtrip_name_clash () =
  check_codes "round trip equivalent" []
    (D.codes (Rules.check_blif_roundtrip (clash_netlist ~swapped:false)));
  (* Node 2 would be "n2", the net of the output's buffer. *)
  let b = Nl.create_builder ~name:"clash_out" in
  let x = Nl.add_input b "x" and y = Nl.add_input b "y" in
  let node2 = Cl.and2 b x y in
  check_bool "node 2" true (node2 = 2);
  Nl.mark_output b "n2" (Cl.not_ b node2);
  check_codes "output named like a node" []
    (D.codes (Rules.check_blif_roundtrip (Nl.freeze b)))

(* A buffer cover for output "a" would redefine input "a", so the
   writer renames the output; the round trip compares outputs by
   position, not by name. *)
let test_roundtrip_output_named_like_input () =
  let b = Nl.create_builder ~name:"out_in" in
  let a = Nl.add_input b "a" and bb = Nl.add_input b "b" in
  Nl.mark_output b "a" (Cl.and2 b a bb);
  check_codes "output a = a & b" []
    (D.codes (Rules.check_blif_roundtrip (Nl.freeze b)));
  let b = Nl.create_builder ~name:"passthrough" in
  let a = Nl.add_input b "a" in
  Nl.mark_output b "a" a;
  check_codes "output a driven by input a" []
    (D.codes (Rules.check_blif_roundtrip (Nl.freeze b)))

(* Inputs "a-b" and "a_b", and outputs "o-1" and "o_1", sanitize
   alike; the writer renames the later of each pair, so the text
   declares each net once. *)
let test_roundtrip_sanitized_clash () =
  let b = Nl.create_builder ~name:"in_clash" in
  let x = Nl.add_input b "a-b" and y = Nl.add_input b "a_b" in
  Nl.mark_output b "z" (Cl.and2 b x (Cl.not_ b y));
  let t = Nl.freeze b in
  check_codes "inputs a-b and a_b" [] (D.codes (Rules.check_blif_roundtrip t));
  check_bool "second input renamed" true
    (String.starts_with ~prefix:".model in_clash\n.inputs a_b a_b_1\n"
       (Hlp_netlist.Blif.to_string t));
  let b = Nl.create_builder ~name:"out_clash" in
  let x = Nl.add_input b "x" and y = Nl.add_input b "y" in
  Nl.mark_output b "o-1" (Cl.and2 b x y);
  Nl.mark_output b "o_1" (Cl.or2 b x y);
  check_codes "outputs o-1 and o_1" []
    (D.codes (Rules.check_blif_roundtrip (Nl.freeze b)))

(* Swapping y1 and y2 keeps each vector's set of output values, so only
   a comparison by position tells the two netlists apart. *)
let test_equivalence_by_position () =
  check_bool "swapped outputs differ" false
    (Rules.equivalent_on_random_vectors ~seed:"lint-blif-roundtrip"
       (clash_netlist ~swapped:false)
       (clash_netlist ~swapped:true))

let suite =
  [
    Alcotest.test_case "clean netlist lints clean" `Quick test_clean;
    Alcotest.test_case "N005 unreachable logic" `Quick test_unreachable_logic;
    Alcotest.test_case "N006 duplicate output" `Quick test_duplicate_output;
    Alcotest.test_case "N007 constant-foldable" `Quick test_constant_foldable;
    Alcotest.test_case "N008 unused input" `Quick test_unused_input;
    Alcotest.test_case "all violations in one run" `Quick
      test_all_violations_in_one_run;
    Alcotest.test_case "N010 duplicate input line no" `Quick
      test_blif_duplicate_input_line;
    Alcotest.test_case "N010 undefined net line no" `Quick
      test_blif_undefined_net_line;
    Alcotest.test_case "N010 cycle line no" `Quick test_blif_cycle_line;
    Alcotest.test_case "N010 model without outputs" `Quick
      test_blif_no_outputs_line;
    Alcotest.test_case "round trip clean" `Quick test_roundtrip_clean;
    Alcotest.test_case "round trip 4-bit adder" `Quick test_roundtrip_adder;
    Alcotest.test_case "round trip with node names taken" `Quick
      test_roundtrip_name_clash;
    Alcotest.test_case "round trip with an output named like an input"
      `Quick test_roundtrip_output_named_like_input;
    Alcotest.test_case "round trip with names that sanitize alike" `Quick
      test_roundtrip_sanitized_clash;
    Alcotest.test_case "N009 compares outputs by position" `Quick
      test_equivalence_by_position;
  ]
