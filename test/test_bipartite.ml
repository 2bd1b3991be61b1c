module Bp = Hlp_core.Bipartite

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* Brute force over all matchings (small sizes). *)
let brute_force ~n_left ~n_right ~weight =
  let best = ref 0. in
  let rec go i used acc =
    if i = n_left then best := max !best acc
    else begin
      (* leave i unmatched *)
      go (i + 1) used acc;
      for j = 0 to n_right - 1 do
        if not (List.mem j used) then
          match weight i j with
          | Some w -> go (i + 1) (j :: used) (acc +. w)
          | None -> ()
      done
    end
  in
  go 0 [] 0.;
  !best

let weight_of_matrix m i j = m.(i).(j)

let test_simple_2x2 () =
  let m = [| [| Some 1.; Some 10. |]; [| Some 10.; Some 1. |] |] in
  let pairs =
    Bp.max_weight_matching ~n_left:2 ~n_right:2 ~weight:(weight_of_matrix m)
  in
  check_float "anti-diagonal" 20.
    (Bp.total_weight ~weight:(weight_of_matrix m) pairs)

let test_unbalanced () =
  let m = [| [| Some 5.; Some 1.; Some 3. |] |] in
  let pairs =
    Bp.max_weight_matching ~n_left:1 ~n_right:3 ~weight:(weight_of_matrix m)
  in
  (match pairs with
  | [ (0, 0) ] -> ()
  | _ -> Alcotest.fail "expected (0,0)");
  check_int "one pair" 1 (List.length pairs)

let test_sparse_prefers_real_edges () =
  (* Forced structure: left 0 only connects to right 1. *)
  let m = [| [| None; Some 2. |]; [| Some 3.; Some 4. |] |] in
  let pairs =
    Bp.max_weight_matching ~n_left:2 ~n_right:2 ~weight:(weight_of_matrix m)
  in
  check_float "total 5" 5. (Bp.total_weight ~weight:(weight_of_matrix m) pairs)

let test_no_edges () =
  let pairs =
    Bp.max_weight_matching ~n_left:3 ~n_right:3 ~weight:(fun _ _ -> None)
  in
  check_int "empty" 0 (List.length pairs)

let test_empty_sides () =
  check_int "0 left" 0
    (List.length
       (Bp.max_weight_matching ~n_left:0 ~n_right:5 ~weight:(fun _ _ ->
            Some 1.)));
  check_int "0 right" 0
    (List.length
       (Bp.max_weight_matching ~n_left:4 ~n_right:0 ~weight:(fun _ _ ->
            Some 1.)))

let test_rejects_nonpositive () =
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Bipartite.max_weight_matching: non-positive weight")
    (fun () ->
      ignore
        (Bp.max_weight_matching ~n_left:1 ~n_right:1 ~weight:(fun _ _ ->
             Some 0.)))

let test_maximal_when_positive () =
  (* All-positive complete graphs must produce a perfect matching on the
     smaller side. *)
  let pairs =
    Bp.max_weight_matching ~n_left:3 ~n_right:5 ~weight:(fun i j ->
        Some (1. +. float_of_int ((i * 7) + j)))
  in
  check_int "3 pairs" 3 (List.length pairs)

let prop_matches_brute_force =
  QCheck.Test.make ~name:"hungarian = brute force (random sparse)" ~count:200
    QCheck.(triple (int_range 1 5) (int_range 1 5) (int_range 0 10000))
    (fun (nl, nr, seed) ->
      let rng = Hlp_util.Rng.create (string_of_int seed) in
      let m =
        Array.init nl (fun _ ->
            Array.init nr (fun _ ->
                if Hlp_util.Rng.float rng 1. < 0.3 then None
                else Some (1. +. float_of_int (Hlp_util.Rng.int rng 100))))
      in
      let weight = weight_of_matrix m in
      let pairs = Bp.max_weight_matching ~n_left:nl ~n_right:nr ~weight in
      (* valid matching *)
      let ls = List.map fst pairs and rs = List.map snd pairs in
      let distinct l = List.length (List.sort_uniq compare l) = List.length l in
      distinct ls && distinct rs
      && List.for_all (fun (i, j) -> weight i j <> None) pairs
      && abs_float
           (Bp.total_weight ~weight pairs
           -. brute_force ~n_left:nl ~n_right:nr ~weight)
         < 1e-6)

(* Larger random graphs, up to 7x7 — the brute force stays cheap because
   the used-column pruning bounds it by the number of injective partial
   maps (~131k at 7x7).  Checks optimality and validity separately so a
   failure names the broken property. *)
let gen_graph =
  let open QCheck in
  let gen =
    Gen.(
      triple (int_range 1 7) (int_range 1 7) (int_range 0 1_000_000)
      >>= fun (nl, nr, seed) ->
      map (fun density -> (nl, nr, seed, density)) (float_range 0.2 1.0))
  in
  make
    ~print:(fun (nl, nr, seed, d) ->
      Printf.sprintf "%dx%d seed=%d density=%.2f" nl nr seed d)
    gen

let random_matrix (nl, nr, seed, density) =
  let rng = Hlp_util.Rng.create (Printf.sprintf "bp7-%d" seed) in
  Array.init nl (fun _ ->
      Array.init nr (fun _ ->
          if Hlp_util.Rng.float rng 1. > density then None
          else Some (0.5 +. Hlp_util.Rng.float rng 100.)))

let prop_optimal_up_to_7x7 =
  QCheck.Test.make ~name:"weight equals brute-force optimum (<= 7x7)"
    ~count:150 gen_graph (fun inst ->
      let nl, nr, _, _ = inst in
      let weight = weight_of_matrix (random_matrix inst) in
      let pairs = Bp.max_weight_matching ~n_left:nl ~n_right:nr ~weight in
      abs_float
        (Bp.total_weight ~weight pairs -. brute_force ~n_left:nl ~n_right:nr ~weight)
      < 1e-6)

let prop_valid_matching_up_to_7x7 =
  QCheck.Test.make ~name:"pairs are a valid matching on real edges (<= 7x7)"
    ~count:150 gen_graph (fun inst ->
      let nl, nr, _, _ = inst in
      let weight = weight_of_matrix (random_matrix inst) in
      let pairs = Bp.max_weight_matching ~n_left:nl ~n_right:nr ~weight in
      let ls = List.map fst pairs and rs = List.map snd pairs in
      let distinct l = List.length (List.sort_uniq compare l) = List.length l in
      distinct ls && distinct rs
      && List.for_all
           (fun (i, j) ->
             i >= 0 && i < nl && j >= 0 && j < nr && weight i j <> None)
           pairs)

(* The padded-square solver that [Bp.max_weight_matching] replaced, kept
   verbatim as a test-only reference: it pads every graph to a
   max(n_left, n_right) square.  The rows <= columns solver must return
   exactly its pair list, tie-breaks included, or binds would change. *)
module Padded_square = struct
  (* Hungarian algorithm (potentials formulation), minimizing cost on a square
     matrix.  We maximize weight by minimizing [big - w], with [big] larger
     than any weight; dummy (padding / non-edge) cells cost exactly [big], so
     they are used only when structurally unavoidable and never displace a
     real edge. *)

  let hungarian cost n =
    (* cost is an n*n matrix (row-major).  Returns, per row, the matched
       column.  Classic e-maxx implementation with 1-based sentinels. *)
    let u = Array.make (n + 1) 0. in
    let v = Array.make (n + 1) 0. in
    let p = Array.make (n + 1) 0 in
    (* p.(j) = row matched to column j; column 0 is the sentinel *)
    let way = Array.make (n + 1) 0 in
    for i = 1 to n do
      p.(0) <- i;
      let j0 = ref 0 in
      let minv = Array.make (n + 1) infinity in
      let used = Array.make (n + 1) false in
      let continue = ref true in
      while !continue do
        used.(!j0) <- true;
        let i0 = p.(!j0) in
        let delta = ref infinity in
        let j1 = ref 0 in
        for j = 1 to n do
          if not used.(j) then begin
            let cur = cost.(((i0 - 1) * n) + (j - 1)) -. u.(i0) -. v.(j) in
            if cur < minv.(j) then begin
              minv.(j) <- cur;
              way.(j) <- !j0
            end;
            if minv.(j) < !delta then begin
              delta := minv.(j);
              j1 := j
            end
          end
        done;
        for j = 0 to n do
          if used.(j) then begin
            u.(p.(j)) <- u.(p.(j)) +. !delta;
            v.(j) <- v.(j) -. !delta
          end
          else minv.(j) <- minv.(j) -. !delta
        done;
        j0 := !j1;
        if p.(!j0) = 0 then continue := false
      done;
      (* Augment along the alternating path. *)
      let j = ref !j0 in
      while !j <> 0 do
        let j1 = way.(!j) in
        p.(!j) <- p.(j1);
        j := j1
      done
    done;
    let row_match = Array.make n (-1) in
    for j = 1 to n do
      if p.(j) >= 1 then row_match.(p.(j) - 1) <- j - 1
    done;
    row_match

  let max_weight_matching ~n_left ~n_right ~weight =
    if n_left < 0 || n_right < 0 then
      invalid_arg "Bipartite.max_weight_matching: negative size";
    if n_left = 0 || n_right = 0 then []
    else begin
      let n = max n_left n_right in
      let w = Array.make (n_left * n_right) None in
      let max_w = ref 0. in
      for i = 0 to n_left - 1 do
        for j = 0 to n_right - 1 do
          match weight i j with
          | Some x when x <= 0. ->
              invalid_arg "Bipartite.max_weight_matching: non-positive weight"
          | (Some x : float option) ->
              w.((i * n_right) + j) <- Some x;
              if x > !max_w then max_w := x
          | None -> ()
        done
      done;
      let big = !max_w +. 1. in
      let cost = Array.make (n * n) big in
      for i = 0 to n_left - 1 do
        for j = 0 to n_right - 1 do
          match w.((i * n_right) + j) with
          | Some x -> cost.((i * n) + j) <- big -. x
          | None -> ()
        done
      done;
      let row_match = hungarian cost n in
      let pairs = ref [] in
      for i = n_left - 1 downto 0 do
        let j = row_match.(i) in
        if j >= 0 && j < n_right && w.((i * n_right) + j) <> None then
          pairs := (i, j) :: !pairs
      done;
      !pairs
    end
end

type alphabet = Tie_heavy | Eq4_like | Generic

let alphabet_name = function
  | Tie_heavy -> "ints 1-3"
  | Eq4_like -> "1/(50+k)"
  | Generic -> "reals"

(* Tie-heavy small integers, the few distinct values Eq. 4 takes over a
   round (it depends only on the merged source-register counts), and
   generic reals. *)
let draw_weight rng = function
  | Tie_heavy -> 1. +. float_of_int (Hlp_util.Rng.int rng 3)
  | Eq4_like -> 1. /. (50. +. float_of_int (Hlp_util.Rng.int rng 8))
  | Generic -> 0.5 +. Hlp_util.Rng.float rng 100.

let random_rect ~seed ~nl ~nr ~density alphabet =
  let rng = Hlp_util.Rng.create (Printf.sprintf "bp-rect-%d" seed) in
  Array.init nl (fun _ ->
      Array.init nr (fun _ ->
          if Hlp_util.Rng.float rng 1. > density then None
          else Some (draw_weight rng alphabet)))

(* One side up to 14 and the other up to 64, in either orientation: the
   binders' graphs pair a few units with many ops. *)
let gen_rect =
  let open QCheck in
  let gen =
    Gen.(
      map2
        (fun (small, large, flip) (seed, density, alphabet) ->
          let nl, nr = if flip then (large, small) else (small, large) in
          (nl, nr, seed, density, alphabet))
        (triple (int_range 1 14) (int_range 1 64) bool)
        (triple (int_range 0 1_000_000) (float_range 0.2 1.0)
           (oneofl [ Tie_heavy; Eq4_like; Generic ])))
  in
  make
    ~print:(fun (nl, nr, seed, d, a) ->
      Printf.sprintf "%dx%d seed=%d density=%.2f weights=%s" nl nr seed d
        (alphabet_name a))
    gen

let prop_same_pairs_as_padded_square =
  QCheck.Test.make ~name:"same pairs as the padded-square solver" ~count:4000
    gen_rect (fun (nl, nr, seed, density, alphabet) ->
      let weight =
        weight_of_matrix (random_rect ~seed ~nl ~nr ~density alphabet)
      in
      Bp.max_weight_matching ~n_left:nl ~n_right:nr ~weight
      = Padded_square.max_weight_matching ~n_left:nl ~n_right:nr ~weight)

(* A round shaped like chem's first adder round: 9 seed units against
   170 pending ops, about half the pairs compatible, and Eq. 4-like
   weights drawn from four values, so nearly every choice is a tie. *)
let test_chem_shaped_round () =
  let nl = 9 and nr = 170 in
  let rng = Hlp_util.Rng.create "bp-chem-round" in
  let m =
    Array.init nl (fun _ ->
        Array.init nr (fun _ ->
            if Hlp_util.Rng.bool rng then None
            else Some (1. /. (50. +. float_of_int (Hlp_util.Rng.int rng 4)))))
  in
  let weight = weight_of_matrix m in
  let pairs = Bp.max_weight_matching ~n_left:nl ~n_right:nr ~weight in
  check_int "every unit matched" nl (List.length pairs);
  Alcotest.(check (list (pair int int)))
    "same pairs as the padded-square solver"
    (Padded_square.max_weight_matching ~n_left:nl ~n_right:nr ~weight)
    pairs

let suite =
  [
    Alcotest.test_case "simple 2x2" `Quick test_simple_2x2;
    Alcotest.test_case "unbalanced" `Quick test_unbalanced;
    Alcotest.test_case "sparse structure respected" `Quick
      test_sparse_prefers_real_edges;
    Alcotest.test_case "no edges" `Quick test_no_edges;
    Alcotest.test_case "empty sides" `Quick test_empty_sides;
    Alcotest.test_case "rejects non-positive weights" `Quick
      test_rejects_nonpositive;
    Alcotest.test_case "complete graph gives perfect matching" `Quick
      test_maximal_when_positive;
    QCheck_alcotest.to_alcotest prop_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_optimal_up_to_7x7;
    QCheck_alcotest.to_alcotest prop_valid_matching_up_to_7x7;
    QCheck_alcotest.to_alcotest prop_same_pairs_as_padded_square;
    Alcotest.test_case "chem-shaped 9x170 round keeps its pairs" `Quick
      test_chem_shaped_round;
  ]
