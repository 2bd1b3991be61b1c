(* Mapped-network rule family (M001-M005): corrupting a real mapper
   result must produce the expected diagnostic codes. *)

module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Cl = Hlp_netlist.Cell_library
module Mapper = Hlp_mapper.Mapper
module D = Hlp_lint.Diagnostic
module Rules = Hlp_lint.Rules_mapped

let check_bool = Alcotest.(check bool)

let k = 4

(* A 4-bit ripple adder: deep enough that the 4-LUT cover is non-trivial. *)
let mapping () =
  let b = Nl.create_builder ~name:"add4" in
  let a = Cl.input_word b ~prefix:"a" ~width:4 in
  let bw = Cl.input_word b ~prefix:"b" ~width:4 in
  let cin = Nl.add_const b false in
  let sum, cout = Cl.ripple_adder b ~a ~b_in:bw ~cin in
  Array.iteri (fun i s -> Nl.mark_output b (Printf.sprintf "s%d" i) s) sum;
  Nl.mark_output b "cout" cout;
  Mapper.map (Nl.freeze b) ~k

let test_clean () =
  Alcotest.(check (list string))
    "no diagnostics" []
    (D.codes (Rules.check ~k (mapping ())))

(* Shrinking k below what the cover uses: every wider LUT violates M001. *)
let test_lut_too_wide () =
  let m = mapping () in
  let widest =
    Array.fold_left
      (fun acc l -> max acc (Array.length l.Mapper.leaves))
      0 m.Mapper.luts
  in
  check_bool "cover uses multi-input LUTs" true (widest >= 2);
  check_bool "M001 reported" true
    (D.has_code "M001" (Rules.check ~k:(widest - 1) m))

let test_arity_mismatch () =
  let m = mapping () in
  let luts =
    match Array.to_list m.Mapper.luts with
    | l :: rest when Array.length l.Mapper.leaves >= 1 ->
        (* Wrong-arity function for the leaf count. *)
        { l with Mapper.func = Tt.var 0 (Array.length l.Mapper.leaves + 1) }
        :: rest
    | _ -> Alcotest.fail "unexpected empty cover"
  in
  check_bool "M005 reported" true
    (D.has_code "M005" (Rules.check ~k { m with Mapper.luts = Array.of_list luts }))

let test_bad_leaf () =
  let m = mapping () in
  let luts =
    match Array.to_list m.Mapper.luts with
    | l :: rest ->
        { l with Mapper.leaves = Array.map (fun _ -> 9999) l.Mapper.leaves }
        :: rest
    | [] -> Alcotest.fail "unexpected empty cover"
  in
  check_bool "M002 reported" true
    (D.has_code "M002" (Rules.check ~k { m with Mapper.luts = Array.of_list luts }))

(* Dropping the LUT that implements an output breaks coverage. *)
let test_output_not_implemented () =
  let m = mapping () in
  let out_id =
    match Nl.outputs m.Mapper.source with
    | (_, id) :: _ -> id
    | [] -> Alcotest.fail "no outputs"
  in
  let luts =
    List.filter (fun l -> l.Mapper.root <> out_id)
      (Array.to_list m.Mapper.luts)
  in
  check_bool "M002 reported" true
    (D.has_code "M002" (Rules.check ~k { m with Mapper.luts = Array.of_list luts }))

(* A LUT network deeper than the gate netlist it covers is impossible for
   a real cover: each LUT absorbs at least one gate level. *)
let test_depth_not_monotone () =
  let m = mapping () in
  let deep =
    let b = Nl.create_builder ~name:"chain" in
    let x = Nl.add_input b "x" in
    let n = ref x in
    for _ = 1 to Nl.max_depth m.Mapper.source + 3 do
      n := Cl.not_ b !n
    done;
    Nl.mark_output b "z" !n;
    Nl.freeze b
  in
  let ds = Rules.check ~k { m with Mapper.lut_network = deep } in
  check_bool "M004 reported" true (D.has_code "M004" ds)

(* Several corruptions, one run, all reported. *)
let test_all_violations_in_one_run () =
  let m = mapping () in
  let luts =
    match Array.to_list m.Mapper.luts with
    | l1 :: l2 :: rest ->
        { l1 with Mapper.leaves = Array.map (fun _ -> 9999) l1.Mapper.leaves }
        :: { l2 with Mapper.func = Tt.var 0 (Array.length l2.Mapper.leaves + 1) }
        :: rest
    | _ -> Alcotest.fail "cover too small"
  in
  let ds = Rules.check ~k:1 { m with Mapper.luts = Array.of_list luts } in
  List.iter
    (fun code ->
      check_bool (code ^ " present in combined run") true (D.has_code code ds))
    [ "M001"; "M002"; "M005" ]

let suite =
  [
    Alcotest.test_case "clean mapping lints clean" `Quick test_clean;
    Alcotest.test_case "M001 LUT wider than k" `Quick test_lut_too_wide;
    Alcotest.test_case "M002 bad leaf" `Quick test_bad_leaf;
    Alcotest.test_case "M002 output not implemented" `Quick
      test_output_not_implemented;
    Alcotest.test_case "M004 depth not monotone" `Quick
      test_depth_not_monotone;
    Alcotest.test_case "M005 arity mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "all violations in one run" `Quick
      test_all_violations_in_one_run;
  ]
