module Tt = Hlp_netlist.Truth_table

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* QCheck generator for a random truth table of arity 0..6. *)
let arb_table =
  let open QCheck in
  let gen =
    Gen.(
      int_range 0 Tt.max_vars >>= fun n ->
      map (fun bits -> Tt.create n bits) ui64)
  in
  make ~print:(fun t -> Format.asprintf "%a" Tt.pp t) gen

let arb_table_pos =
  let open QCheck in
  let gen =
    Gen.(
      int_range 1 Tt.max_vars >>= fun n ->
      map (fun bits -> Tt.create n bits) ui64)
  in
  make ~print:(fun t -> Format.asprintf "%a" Tt.pp t) gen

let test_constants () =
  for n = 0 to Tt.max_vars do
    for m = 0 to (1 lsl n) - 1 do
      check_bool "const0" false (Tt.eval (Tt.const0 n) m);
      check_bool "const1" true (Tt.eval (Tt.const1 n) m)
    done
  done

let test_var () =
  for n = 1 to Tt.max_vars do
    for i = 0 to n - 1 do
      let v = Tt.var i n in
      for m = 0 to (1 lsl n) - 1 do
        check_bool "var eval" (m land (1 lsl i) <> 0) (Tt.eval v m)
      done
    done
  done

let test_var_out_of_range () =
  Alcotest.check_raises "var 3 2" (Invalid_argument
    "Truth_table.var: index out of range") (fun () -> ignore (Tt.var 3 2))

let test_create_masks_extra_bits () =
  let t = Tt.create 1 0xFFL in
  check_int "only 2 entries survive" 2 (Tt.count_ones t)

let test_create_bad_arity () =
  Alcotest.check_raises "arity 7" (Invalid_argument
    "Truth_table.create: bad arity") (fun () -> ignore (Tt.create 7 0L))

let test_xor2_column () =
  let x = Tt.var 0 2 and y = Tt.var 1 2 in
  Alcotest.(check string) "xor column" "0110" (Tt.to_string (Tt.xor x y))

let test_demorgan () =
  let a = Tt.var 0 3 and b = Tt.var 2 3 in
  let lhs = Tt.not_ (Tt.and_ a b) in
  let rhs = Tt.or_ (Tt.not_ a) (Tt.not_ b) in
  check_bool "de morgan" true (Tt.equal lhs rhs)

let test_cofactor_and () =
  let f = Tt.and_ (Tt.var 0 2) (Tt.var 1 2) in
  check_bool "f|x0=1 = x1" true (Tt.equal (Tt.cofactor f 0 true) (Tt.var 1 2));
  check_bool "f|x0=0 = 0" true (Tt.equal (Tt.cofactor f 0 false) (Tt.const0 2))

let test_boolean_difference_xor () =
  (* d(xor)/dx = 1 for every input: any flip toggles parity. *)
  let f = Tt.xor (Tt.var 0 3) (Tt.xor (Tt.var 1 3) (Tt.var 2 3)) in
  for i = 0 to 2 do
    check_bool "bd of parity is const1" true
      (Tt.equal (Tt.boolean_difference f i) (Tt.const1 3))
  done

let test_boolean_difference_and () =
  (* d(ab)/da = b *)
  let f = Tt.and_ (Tt.var 0 2) (Tt.var 1 2) in
  check_bool "d(ab)/da = b" true
    (Tt.equal (Tt.boolean_difference f 0) (Tt.var 1 2))

let test_support () =
  let f = Tt.or_ (Tt.var 0 4) (Tt.var 3 4) in
  Alcotest.(check (list int)) "support" [ 0; 3 ] (Tt.support f)

let test_compose_identity () =
  let f = Tt.xor (Tt.var 0 2) (Tt.var 1 2) in
  let g = Tt.compose f [| Tt.var 0 2; Tt.var 1 2 |] in
  check_bool "identity compose" true (Tt.equal f g)

let test_compose_swap () =
  let f = Tt.and_ (Tt.var 0 2) (Tt.not_ (Tt.var 1 2)) in
  let g = Tt.compose f [| Tt.var 1 2; Tt.var 0 2 |] in
  let expect = Tt.and_ (Tt.var 1 2) (Tt.not_ (Tt.var 0 2)) in
  check_bool "swap compose" true (Tt.equal g expect)

let test_compose_mux_collapse () =
  (* mux(s, a, b) with s = a and b = const: collapses correctly. *)
  let mux = Tt.create 3 0b11001010L in
  (* args over 2 fresh vars: d0 = x0, d1 = not x0, sel = x1 *)
  let x0 = Tt.var 0 2 and x1 = Tt.var 1 2 in
  let g = Tt.compose mux [| x0; Tt.not_ x0; x1 |] in
  (* sel=0 -> x0; sel=1 -> not x0, i.e. x0 xor x1 *)
  check_bool "mux compose" true (Tt.equal g (Tt.xor x0 x1))

(* Properties *)

let prop_double_negation =
  QCheck.Test.make ~name:"not (not f) = f" ~count:200 arb_table (fun t ->
      Tt.equal (Tt.not_ (Tt.not_ t)) t)

let prop_xor_self =
  QCheck.Test.make ~name:"f xor f = 0" ~count:200 arb_table (fun t ->
      Tt.equal (Tt.xor t t) (Tt.const0 (Tt.arity t)))

let prop_shannon =
  QCheck.Test.make ~name:"shannon expansion" ~count:200 arb_table_pos (fun t ->
      let i = 0 in
      let x = Tt.var i (Tt.arity t) in
      let expanded =
        Tt.or_
          (Tt.and_ x (Tt.cofactor t i true))
          (Tt.and_ (Tt.not_ x) (Tt.cofactor t i false))
      in
      Tt.equal expanded t)

let prop_bd_detects_sensitivity =
  QCheck.Test.make ~name:"boolean difference = flip sensitivity" ~count:100
    arb_table_pos (fun t ->
      let n = Tt.arity t in
      let ok = ref true in
      for i = 0 to n - 1 do
        let bd = Tt.boolean_difference t i in
        for m = 0 to (1 lsl n) - 1 do
          let flipped = m lxor (1 lsl i) in
          let sensitive = Tt.eval t m <> Tt.eval t flipped in
          if Tt.eval bd m <> sensitive then ok := false
        done
      done;
      !ok)

let prop_support_is_sensitivity =
  QCheck.Test.make ~name:"depends_on and support_size = flip sensitivity"
    ~count:300 arb_table (fun t ->
      let inputs = List.init (Tt.arity t) Fun.id in
      let agrees t =
        let sensitive i =
          List.exists
            (fun m -> Tt.eval t m <> Tt.eval t (m lxor (1 lsl i)))
            (List.init (1 lsl Tt.arity t) Fun.id)
        in
        List.for_all (fun i -> Tt.depends_on t i = sensitive i) inputs
        && Tt.support t = List.filter sensitive inputs
        && Tt.support_size t = List.length (Tt.support t)
      in
      (* Random columns depend on every input; their cofactors do not. *)
      agrees t
      && List.for_all (fun i -> agrees (Tt.cofactor t i false)) inputs
      && agrees (List.fold_left (fun t i -> Tt.cofactor t i true) t inputs))

let prop_count_ones_matches_eval =
  QCheck.Test.make ~name:"count_ones = number of true minterms" ~count:200
    arb_table (fun t ->
      let n = ref 0 in
      for m = 0 to (1 lsl (Tt.arity t)) - 1 do
        if Tt.eval t m then incr n
      done;
      !n = Tt.count_ones t)

let prop_compose_pointwise =
  QCheck.Test.make ~name:"compose = pointwise evaluation" ~count:100
    (QCheck.triple arb_table_pos arb_table_pos arb_table_pos)
    (fun (f, g1, g2) ->
      QCheck.assume (Tt.arity f = 2);
      QCheck.assume (Tt.arity g1 = Tt.arity g2);
      let h = Tt.compose f [| g1; g2 |] in
      let m_args = Tt.arity g1 in
      let ok = ref true in
      for m = 0 to (1 lsl m_args) - 1 do
        let inner =
          (if Tt.eval g1 m then 1 else 0) lor (if Tt.eval g2 m then 2 else 0)
        in
        if Tt.eval h m <> Tt.eval f inner then ok := false
      done;
      !ok)

(* The word evaluators against [eval], lane by lane: random tables of
   arity 0-6 over random input words.  [eval_words_at] reads its words
   through a fanin array out of a larger value table, as the simulator
   and [Netlist.eval_words] do. *)
let prop_eval_words_lanes =
  QCheck.Test.make ~name:"eval_words and eval_words_at = eval per lane"
    ~count:300
    QCheck.(pair arb_table (array_of_size (Gen.return 8) int))
    (fun (t, pool) ->
      let n = Tt.arity t in
      let fanins = Array.init n (fun i -> 7 - i) in
      let ws = Array.map (fun f -> pool.(f)) fanins in
      let words = Tt.eval_words t ws and at = Tt.eval_words_at t pool fanins in
      let ok = ref (words = at) in
      for l = 0 to Hlp_util.Bits.lanes - 1 do
        let m = ref 0 in
        for i = 0 to n - 1 do
          if (ws.(i) lsr l) land 1 = 1 then m := !m lor (1 lsl i)
        done;
        if (words lsr l) land 1 = 1 <> Tt.eval t !m then ok := false
      done;
      !ok)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_eval_words_lanes;
      prop_double_negation;
      prop_xor_self;
      prop_shannon;
      prop_bd_detects_sensitivity;
      prop_support_is_sensitivity;
      prop_count_ones_matches_eval;
      prop_compose_pointwise;
    ]

let suite =
  [
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "var projections" `Quick test_var;
    Alcotest.test_case "var out of range" `Quick test_var_out_of_range;
    Alcotest.test_case "create masks extra bits" `Quick
      test_create_masks_extra_bits;
    Alcotest.test_case "create rejects arity > 6" `Quick test_create_bad_arity;
    Alcotest.test_case "xor2 column string" `Quick test_xor2_column;
    Alcotest.test_case "de morgan" `Quick test_demorgan;
    Alcotest.test_case "cofactors of and" `Quick test_cofactor_and;
    Alcotest.test_case "boolean difference of parity" `Quick
      test_boolean_difference_xor;
    Alcotest.test_case "boolean difference of and" `Quick
      test_boolean_difference_and;
    Alcotest.test_case "support" `Quick test_support;
    Alcotest.test_case "compose identity" `Quick test_compose_identity;
    Alcotest.test_case "compose swap" `Quick test_compose_swap;
    Alcotest.test_case "compose mux collapse" `Quick test_compose_mux_collapse;
  ]
  @ props
