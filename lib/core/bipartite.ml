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
   free column at reduced cost 0 and moves no real row.  Every array
   lives in the workspace and only grows. *)

type workspace = {
  mutable n_left : int;
  mutable n_right : int;
  mutable w : float array; (* n_left * n_right weights, row-major *)
  mutable cost : float array; (* n_left * n_cols costs, row-major *)
  (* Indexed 0..n_cols, row or column 0 the sentinel: the potentials [u]
     (rows) and [v] (columns), [p.(j)] the row matched to column j, and
     the search state of one row. *)
  mutable u : float array;
  mutable v : float array;
  mutable p : int array;
  mutable way : int array;
  mutable minv : float array;
  mutable used : Bytes.t;
}

let workspace () =
  {
    n_left = 0;
    n_right = 0;
    w = [||];
    cost = [||];
    u = [||];
    v = [||];
    p = [||];
    way = [||];
    minv = [||];
    used = Bytes.empty;
  }

let weights ws ~n_left ~n_right =
  if n_left < 0 || n_right < 0 then
    invalid_arg "Bipartite.weights: negative size";
  let cells = n_left * n_right in
  if Array.length ws.w < cells then ws.w <- Array.make cells 0.
  else Array.fill ws.w 0 cells 0.;
  ws.n_left <- n_left;
  ws.n_right <- n_right;
  ws.w

(* The classic e-maxx solve of [ws.cost], n_rows <= n_cols, leaving the
   matching in [ws.p]. *)
let hungarian ws n_rows n_cols =
  if Array.length ws.v <= n_cols then begin
    ws.u <- Array.make (n_cols + 1) 0.;
    ws.v <- Array.make (n_cols + 1) 0.;
    ws.p <- Array.make (n_cols + 1) 0;
    ws.way <- Array.make (n_cols + 1) 0;
    ws.minv <- Array.make (n_cols + 1) 0.;
    ws.used <- Bytes.make (n_cols + 1) '\000'
  end;
  let cost = ws.cost and u = ws.u and v = ws.v and p = ws.p
  and way = ws.way and minv = ws.minv and used = ws.used in
  Array.fill u 0 (n_rows + 1) 0.;
  Array.fill v 0 (n_cols + 1) 0.;
  Array.fill p 0 (n_cols + 1) 0;
  Array.fill way 0 (n_cols + 1) 0;
  for i = 1 to n_rows do
    p.(0) <- i;
    let j0 = ref 0 in
    Array.fill minv 0 (n_cols + 1) infinity;
    Bytes.fill used 0 (n_cols + 1) '\000';
    let continue = ref true in
    while !continue do
      Bytes.unsafe_set used !j0 '\001';
      let i0 = p.(!j0) in
      let row = (i0 - 1) * n_cols in
      let ui0 = u.(i0) in
      let delta = ref infinity in
      let j1 = ref 0 in
      for j = 1 to n_cols do
        if Bytes.unsafe_get used j = '\000' then begin
          let cur = cost.(row + (j - 1)) -. ui0 -. v.(j) in
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
      let delta = !delta in
      for j = 0 to n_cols do
        if Bytes.unsafe_get used j <> '\000' then begin
          u.(p.(j)) <- u.(p.(j)) +. delta;
          v.(j) <- v.(j) -. delta
        end
        else minv.(j) <- minv.(j) -. delta
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
  done

let max_weight_matching ws =
  let n_left = ws.n_left and n_right = ws.n_right and w = ws.w in
  if n_left = 0 || n_right = 0 then []
  else begin
    let n_cols = max n_left n_right in
    let max_w = ref 0. in
    for c = 0 to (n_left * n_right) - 1 do
      if w.(c) > !max_w then max_w := w.(c)
    done;
    let big = !max_w +. 1. in
    if Array.length ws.cost < n_left * n_cols then
      ws.cost <- Array.make (n_left * n_cols) 0.;
    let cost = ws.cost in
    for i = 0 to n_left - 1 do
      let row = i * n_cols and wrow = i * n_right in
      for j = 0 to n_cols - 1 do
        cost.(row + j) <-
          (if j < n_right && w.(wrow + j) > 0. then big -. w.(wrow + j)
           else big)
      done
    done;
    hungarian ws n_left n_cols;
    (* Matched columns, real edges only, in row order. *)
    let pairs = ref [] in
    for j = n_right downto 1 do
      let i = ws.p.(j) - 1 in
      if i >= 0 && w.((i * n_right) + j - 1) > 0. then
        pairs := (i, j - 1) :: !pairs
    done;
    List.sort compare !pairs
  end
