(* Hungarian algorithm (potentials formulation) in its rows <= columns form,
   minimizing cost on an [n_rows * n_cols] matrix.  We maximize weight by
   minimizing [big - w], with [big] larger than any weight; dummy (padding /
   non-edge) cells cost exactly [big], so they are used only when
   structurally unavoidable and never displace a real edge.

   Only the left side's rows are solved; columns are padded to the row
   count when left > right, so a solve costs O(n_left^2 * n_cols).  The
   pairs, tie-breaks included, equal those of the square padded with dummy
   rows (test_bipartite holds it to that solver): a dummy row costs [big]
   in every column, so, solved after the real rows, it augments onto a
   free column at reduced cost 0 and moves no real row. *)

let hungarian cost n_rows n_cols =
  (* cost is an n_rows*n_cols matrix (row-major), n_rows <= n_cols.
     Returns, per row, the matched column.  Classic e-maxx implementation
     with 1-based sentinels. *)
  let u = Array.make (n_rows + 1) 0. in
  let v = Array.make (n_cols + 1) 0. in
  let p = Array.make (n_cols + 1) 0 in
  (* p.(j) = row matched to column j; column 0 is the sentinel *)
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
          let cur = cost.(((i0 - 1) * n_cols) + (j - 1)) -. u.(i0) -. v.(j) in
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
    (* Augment along the alternating path. *)
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

let total_weight ~weight pairs =
  List.fold_left
    (fun acc (i, j) ->
      acc +. Option.value ~default:0. (weight i j))
    0. pairs
