(* Differential test of the dense matching kernel: [Bipartite] solves a
   float matrix in a reusable workspace, and must return exactly the pair
   list of the option-callback solver it replaced, kept below as the
   reference — tie-breaks included, or binds would change.  Each case
   solves a sequence of graphs on one workspace, so shapes that grow and
   shrink between rounds are covered the way a binder reuses it. *)

module Bp = Hlp_core.Bipartite

(* The option-callback solver, as the library had it: [weight i j] is
   [Some w] (w > 0) for an edge and [None] for a non-edge. *)
module Reference = struct
  let hungarian cost n_rows n_cols =
    let u = Array.make (n_rows + 1) 0. in
    let v = Array.make (n_cols + 1) 0. in
    let p = Array.make (n_cols + 1) 0 in
    let way = Array.make (n_cols + 1) 0 in
    for i = 1 to n_rows do
      p.(0) <- i;
      let j0 = ref 0 in
      let minv = Array.make (n_cols + 1) infinity in
      let used = Array.make (n_cols + 1) false in
      let continue = ref true in
      while !continue do
        used.(!j0) <- true;
        let i0 = p.(!j0) in
        let delta = ref infinity in
        let j1 = ref 0 in
        for j = 1 to n_cols do
          if not used.(j) then begin
            let cur =
              cost.(((i0 - 1) * n_cols) + (j - 1)) -. u.(i0) -. v.(j)
            in
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
        for j = 0 to n_cols do
          if used.(j) then begin
            u.(p.(j)) <- u.(p.(j)) +. !delta;
            v.(j) <- v.(j) -. !delta
          end
          else minv.(j) <- minv.(j) -. !delta
        done;
        j0 := !j1;
        if p.(!j0) = 0 then continue := false
      done;
      let j = ref !j0 in
      while !j <> 0 do
        let j1 = way.(!j) in
        p.(!j) <- p.(j1);
        j := j1
      done
    done;
    let row_match = Array.make n_rows (-1) in
    for j = 1 to n_cols do
      if p.(j) >= 1 then row_match.(p.(j) - 1) <- j - 1
    done;
    row_match

  let max_weight_matching ~n_left ~n_right ~weight =
    if n_left < 0 || n_right < 0 then
      invalid_arg "Bipartite.max_weight_matching: negative size";
    if n_left = 0 || n_right = 0 then []
    else begin
      let n_cols = max n_left n_right in
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
      let cost = Array.make (n_left * n_cols) big in
      for i = 0 to n_left - 1 do
        for j = 0 to n_right - 1 do
          match w.((i * n_right) + j) with
          | Some x -> cost.((i * n_cols) + j) <- big -. x
          | None -> ()
        done
      done;
      let row_match = hungarian cost n_left n_cols in
      let pairs = ref [] in
      for i = n_left - 1 downto 0 do
        let j = row_match.(i) in
        if j >= 0 && j < n_right && w.((i * n_right) + j) <> None then
          pairs := (i, j) :: !pairs
      done;
      !pairs
    end

  (* Sum of edge weights over matched pairs (0 for pairs without an
     edge). *)
  let total_weight ~weight pairs =
    List.fold_left
      (fun acc (i, j) -> acc +. Option.value ~default:0. (weight i j))
      0. pairs
end

(* [dense ?ws ?non_edge ~n_left ~n_right ~weight] solves the graph of an
   option callback with the dense kernel, on [ws] when given: a [None]
   cell is written as [non_edge i j] when that is [Some] (a value <= 0),
   and left as [Bp.weights] returned it otherwise (the default). *)
let dense ?(ws = Bp.workspace ()) ?(non_edge = fun _ _ -> None) ~n_left
    ~n_right ~weight () =
  let m = Bp.weights ws ~n_left ~n_right in
  for i = 0 to n_left - 1 do
    for j = 0 to n_right - 1 do
      match (weight i j, non_edge i j) with
      | Some w, _ | None, Some w -> m.((i * n_right) + j) <- w
      | None, None -> ()
    done
  done;
  Bp.max_weight_matching ws

(* One graph: either side may be empty and either may be the larger;
   weights are small integers (so ties are common) or reals, and each
   non-edge is left as the workspace zeroed it, or written as 0 or as a
   negative cell. *)
type graph = {
  nl : int;
  nr : int;
  cells : float option array array;
  holes : float option array array; (* what a non-edge cell is set to *)
}

let gen_graph =
  QCheck.Gen.(
    let size =
      frequency [ (1, return 0); (8, int_range 1 9); (2, int_range 10 40) ]
    in
    pair size size >>= fun (nl, nr) ->
    float_range 0. 1. >>= fun density ->
    bool >>= fun integral ->
    let cell =
      float_range 0. 1. >>= fun x ->
      if x > density then return None
      else if integral then
        map (fun k -> Some (float_of_int k)) (int_range 1 3)
      else map (fun w -> Some w) (float_range 0.5 100.)
    in
    let hole =
      frequency
        [
          (2, return None);
          (1, return (Some 0.));
          (1, map Option.some (float_range (-5.) 0.));
        ]
    in
    array_size (return nl) (array_size (return nr) cell) >>= fun cells ->
    array_size (return nl) (array_size (return nr) hole) >>= fun holes ->
    return { nl; nr; cells; holes })

let print_graph g =
  let cell = function None -> "." | Some w -> Printf.sprintf "%g" w in
  Printf.sprintf "%dx%d\n%s" g.nl g.nr
    (String.concat "\n"
       (Array.to_list
          (Array.map
             (fun row ->
               String.concat " " (Array.to_list (Array.map cell row)))
             g.cells)))

let arb_rounds =
  QCheck.make
    ~print:(fun gs -> String.concat "\n--\n" (List.map print_graph gs))
    QCheck.Gen.(list_size (int_range 1 4) gen_graph)

let prop_same_pairs_as_reference =
  QCheck.Test.make ~name:"dense kernel = option-callback reference"
    ~count:1500 arb_rounds (fun graphs ->
      let ws = Bp.workspace () in
      List.for_all
        (fun g ->
          let weight i j = g.cells.(i).(j) in
          let want =
            Reference.max_weight_matching ~n_left:g.nl ~n_right:g.nr ~weight
          in
          let got =
            dense ~ws
              ~non_edge:(fun i j -> g.holes.(i).(j))
              ~n_left:g.nl ~n_right:g.nr ~weight ()
          in
          got = want
          || QCheck.Test.fail_reportf "%dx%d: %d pairs, reference %d" g.nl
               g.nr (List.length got) (List.length want))
        graphs)

(* Rounds shaped like a class run: a few units against many pending ops,
   the op side shrinking by the round's pairs and the unit side growing
   by one on a promotion, all on one workspace. *)
let test_class_run_rounds () =
  let rng = Hlp_util.Rng.create "bp-diff-rounds" in
  let ws = Bp.workspace () in
  let nl = ref 4 and nr = ref 60 in
  while !nr > 0 do
    let cells =
      Array.init !nl (fun _ ->
          Array.init !nr (fun _ ->
              if Hlp_util.Rng.int rng 3 = 0 then None
              else Some (1. /. (50. +. float_of_int (Hlp_util.Rng.int rng 4)))))
    in
    let weight i j = cells.(i).(j) in
    let want =
      Reference.max_weight_matching ~n_left:!nl ~n_right:!nr ~weight
    in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "%dx%d round" !nl !nr)
      want
      (dense ~ws ~n_left:!nl ~n_right:!nr ~weight ());
    if want = [] || Hlp_util.Rng.int rng 4 = 0 then begin
      incr nl;
      decr nr
    end
    else nr := !nr - List.length want
  done

let suite =
  [
    QCheck_alcotest.to_alcotest prop_same_pairs_as_reference;
    Alcotest.test_case "class-run rounds on one workspace" `Quick
      test_class_run_rounds;
  ]
