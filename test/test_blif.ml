module Nl = Hlp_netlist.Netlist
module Blif = Hlp_netlist.Blif
module Cl = Hlp_netlist.Cell_library

let check_bool = Alcotest.(check bool)

let tiny () =
  let b = Nl.create_builder ~name:"tiny" in
  let a = Nl.add_input b "a" in
  let bb = Nl.add_input b "b" in
  let c = Nl.add_input b "c" in
  let ab = Cl.and2 b a bb in
  let y = Cl.xor2 b ab c in
  Nl.mark_output b "y" y;
  Nl.freeze b

(* Semantic equivalence on all input assignments (small circuits only). *)
let equivalent t1 t2 =
  let n1 = Array.length (Nl.inputs t1) in
  let n2 = Array.length (Nl.inputs t2) in
  n1 = n2 && n1 <= 16
  &&
  let ok = ref true in
  for m = 0 to (1 lsl n1) - 1 do
    let assignment = Array.init n1 (fun i -> m land (1 lsl i) <> 0) in
    let o1 = Nl.output_values t1 assignment in
    let o2 = Nl.output_values t2 assignment in
    if List.sort compare o1 <> List.sort compare o2 then ok := false
  done;
  !ok

let test_roundtrip_tiny () =
  let t = tiny () in
  let t' = Blif.of_string (Blif.to_string t) in
  Nl.validate t';
  check_bool "roundtrip preserves semantics" true (equivalent t t')

let test_roundtrip_partial_datapath () =
  let t =
    Cl.partial_datapath ~fu:Cl.Adder ~width:2 ~left_inputs:2 ~right_inputs:1 ()
  in
  let t' = Blif.of_string (Blif.to_string t) in
  Nl.validate t';
  check_bool "datapath roundtrip" true (equivalent t t')

let test_parse_dont_cares () =
  let t =
    Blif.of_string
      ".model dc\n.inputs a b c\n.outputs y\n.names a b c y\n1-- 1\n-11 1\n.end\n"
  in
  (* y = a or (b and c) *)
  let eval a b c =
    match Nl.output_values t [| a; b; c |] with
    | [ (_, v) ] -> v
    | _ -> Alcotest.fail "one output expected"
  in
  check_bool "100" true (eval true false false);
  check_bool "011" true (eval false true true);
  check_bool "010" false (eval false true false);
  check_bool "000" false (eval false false false)

let test_parse_zero_polarity () =
  (* Cover written in the off-set: y = not a. *)
  let t = Blif.of_string ".model z\n.inputs a\n.outputs y\n.names a y\n1 0\n.end\n" in
  let eval a =
    match Nl.output_values t [| a |] with
    | [ (_, v) ] -> v
    | _ -> Alcotest.fail "one output expected"
  in
  check_bool "not 1" false (eval true);
  check_bool "not 0" true (eval false)

let test_parse_out_of_order () =
  (* y defined before its fanin net. *)
  let t =
    Blif.of_string
      ".model ooo\n.inputs a b\n.outputs y\n.names t y\n1 1\n.names a b t\n11 1\n.end\n"
  in
  let eval a b =
    match Nl.output_values t [| a; b |] with
    | [ (_, v) ] -> v
    | _ -> Alcotest.fail "one output expected"
  in
  check_bool "and" true (eval true true);
  check_bool "and0" false (eval true false)

let test_parse_continuation_and_comments () =
  let t =
    Blif.of_string
      "# a comment\n.model c\n.inputs a \\\nb\n.outputs y\n.names a b y # trailing\n11 1\n.end\n"
  in
  check_bool "two inputs" true (Array.length (Nl.inputs t) = 2)

let test_parse_constant () =
  let t = Blif.of_string ".model k\n.inputs a\n.outputs y\n.names y\n1\n.end\n" in
  (match Nl.output_values t [| false |] with
  | [ (_, v) ] -> check_bool "const1 output" true v
  | _ -> Alcotest.fail "one output expected")

let test_reject_cycle () =
  let s = ".model c\n.inputs a\n.outputs y\n.names y y\n1 1\n.end\n" in
  check_bool "cycle rejected" true
    (try ignore (Blif.of_string s); false with Failure _ -> true)

let test_reject_undefined_net () =
  let s = ".model u\n.inputs a\n.outputs y\n.names ghost y\n1 1\n.end\n" in
  check_bool "undefined net rejected" true
    (try ignore (Blif.of_string s); false with Failure _ -> true)

let test_reject_subckt () =
  let s = ".model s\n.inputs a\n.outputs y\n.subckt foo x=a y=y\n.end\n" in
  check_bool "subckt rejected" true
    (try ignore (Blif.of_string s); false with Failure _ -> true)

(* A model without outputs is malformed input: an error at its .model
   line, or at line 1 when there is none. *)
let test_reject_no_outputs () =
  let check name line s =
    Alcotest.(check (result reject (pair int string)))
      name
      (Error (line, "no outputs declared"))
      (Blif.parse s)
  in
  check "model without outputs" 2 "# empty\n.model m\n.inputs a\n.end\n";
  check "empty text" 1 "";
  check "outputs directive without nets" 1 ".inputs a\n.outputs\n"

let test_file_roundtrip () =
  let t = tiny () in
  let path = Filename.temp_file "hlp" ".blif" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Blif.output_file t path;
      let t' = Blif.parse_file path in
      check_bool "file roundtrip" true (equivalent t t'))

(* Random-netlist roundtrip property. *)
let arb_netlist =
  let open QCheck in
  let gen =
    Gen.(
      int_range 1 4 >>= fun n_inputs ->
      int_range 1 10 >>= fun n_gates ->
      int_range 0 1_000_000 >>= fun seed ->
      return (n_inputs, n_gates, seed))
  in
  make
    ~print:(fun (i, g, s) -> Printf.sprintf "inputs=%d gates=%d seed=%d" i g s)
    gen

let build_random (n_inputs, n_gates, seed) =
  let rng = Hlp_util.Rng.create (string_of_int seed) in
  let b = Nl.create_builder ~name:"rand" in
  let pool = ref [] in
  for i = 0 to n_inputs - 1 do
    pool := Nl.add_input b (Printf.sprintf "i%d" i) :: !pool
  done;
  let last = ref (List.hd !pool) in
  for _ = 1 to n_gates do
    let arr = Array.of_list !pool in
    let x = Hlp_util.Rng.pick rng arr and y = Hlp_util.Rng.pick rng arr in
    let f =
      Hlp_netlist.Truth_table.create 2
        (Int64.of_int (Hlp_util.Rng.int rng 16))
    in
    let id = Nl.add_node b ~name:"g" ~func:f ~fanins:[| x; y |] in
    pool := id :: !pool;
    last := id
  done;
  Nl.mark_output b "y" !last;
  Nl.freeze b

let prop_roundtrip_random =
  QCheck.Test.make ~name:"blif roundtrip on random netlists" ~count:100
    arb_netlist (fun spec ->
      let t = build_random spec in
      let t' = Blif.of_string (Blif.to_string t) in
      equivalent t t')

let suite =
  [
    Alcotest.test_case "roundtrip tiny" `Quick test_roundtrip_tiny;
    Alcotest.test_case "roundtrip partial datapath" `Quick
      test_roundtrip_partial_datapath;
    Alcotest.test_case "parse don't-cares" `Quick test_parse_dont_cares;
    Alcotest.test_case "parse off-set polarity" `Quick test_parse_zero_polarity;
    Alcotest.test_case "parse out-of-order definitions" `Quick
      test_parse_out_of_order;
    Alcotest.test_case "continuations and comments" `Quick
      test_parse_continuation_and_comments;
    Alcotest.test_case "constant cover" `Quick test_parse_constant;
    Alcotest.test_case "reject cycle" `Quick test_reject_cycle;
    Alcotest.test_case "reject undefined net" `Quick test_reject_undefined_net;
    Alcotest.test_case "reject subckt" `Quick test_reject_subckt;
    Alcotest.test_case "reject a model without outputs" `Quick
      test_reject_no_outputs;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
  ]
