module Tt = Hlp_netlist.Truth_table
module Nl = Hlp_netlist.Netlist

type signal = { prob : float; activity : float }

let default_input = { prob = 0.5; activity = 0.5 }

let signal ~prob ~activity =
  if prob < 0. || prob > 1. then invalid_arg "Switching.signal: prob range";
  if activity < 0. || activity > 1. then
    invalid_arg "Switching.signal: activity range";
  (* s(x) = P(x flips across T) <= 2 * min(P, 1-P): a signal that is 1 with
     probability P cannot flip more often than it visits its rarer state. *)
  let bound = 2. *. Float.min prob (1. -. prob) in
  { prob; activity = Float.min activity bound }

(* Chou-Roy Eq. 2 in two stages.  The first depends only on the function
   and the input probabilities: P(f) and the on-set of f.  The second
   maps per-input activities to P(y(t) = 1 and y(t+T) = 1), the sum over
   pairs (m, m') of on-set minterms of the product of per-input joint
   probabilities over (x(t), x(t+T)):
     P(0->1) = P(1->0) = s/2; P(1->1) = P - s/2; P(0->0) = 1 - P - s/2.
   A pair whose minterms differ on an input with s/2 = 0 has a zero
   factor.  When every joint entry lies in [-1, 1], no product can
   overflow to infinity before reaching that factor, so the term is
   zero and the step visits only pairs that agree on the static inputs.
   Visited pairs come in the same order, and each product multiplies
   the same factors in input order and stops at the first zero, so the
   sum equals the full double loop's bit for bit.  A step returns the
   activity [signal ~prob:p] would keep (never out of range: [p] and
   the clamped sum lie in [0, 1] or are NaN), and writes its joint
   terms to one buffer of the stage, so it allocates no record. *)
let of_table_staged f probs =
  let n = Tt.arity f in
  if Array.length probs <> n then
    invalid_arg "Switching.of_table_staged: wrong number of inputs";
  let p = Prob.of_table f probs in
  let on = Array.init (1 lsl n) (Tt.eval f) in
  let ones =
    Array.of_list (List.filter (Array.get on) (List.init (1 lsl n) Fun.id))
  in
  let bound = 2. *. Float.min p (1. -. p) in
  (* [joints.(4i + (b lor (b' lsl 1)))]: input [i]'s probability of
     (x(t) = b, x(t+T) = b'). *)
  let joints = Array.make (4 * n) 0. in
  let step activities =
    if Array.length activities <> n then
      invalid_arg "Switching.of_table_staged: wrong number of activities";
    let moving = ref 0 and bounded = ref true in
    for i = 0 to n - 1 do
      let h = activities.(i) /. 2. in
      let p11 = Float.max 0. (probs.(i) -. h) in
      let p00 = Float.max 0. (1. -. probs.(i) -. h) in
      joints.(4 * i) <- p00;
      joints.((4 * i) + 1) <- h;
      joints.((4 * i) + 2) <- h;
      joints.((4 * i) + 3) <- p11;
      if h <> 0. then moving := !moving lor (1 lsl i);
      (* NaN fails every comparison, so it counts as unbounded. *)
      if not (p00 <= 1. && p11 <= 1. && Float.abs h <= 1.) then
        bounded := false
    done;
    let moving = if !bounded then !moving else (1 lsl n) - 1 in
    let p_joint = ref 0. in
    for a = 0 to Array.length ones - 1 do
      let m = ones.(a) in
      let base = m land lnot moving in
      (* [x] runs over the submasks of [moving] in increasing order, so
         [m'] increases too. *)
      let x = ref 0 and more = ref true in
      while !more do
        let m' = base lor !x in
        if on.(m') then begin
          let acc = ref 1. and i = ref 0 in
          while !i < n && !acc <> 0. do
            let b = (m lsr !i) land 1 and b' = (m' lsr !i) land 1 in
            acc := !acc *. joints.((4 * !i) + (b lor (b' lsl 1)));
            incr i
          done;
          p_joint := !p_joint +. !acc
        end;
        if !x = moving then more := false
        else x := ((!x lor lnot moving) + 1) land moving
      done
    done;
    let s = 2. *. (p -. !p_joint) in
    Float.min (Hlp_util.Stats.clamp ~lo:0. ~hi:1. s) bound
  in
  (p, step)

let of_table f inputs =
  if Array.length inputs <> Tt.arity f then
    invalid_arg "Switching.of_table: wrong number of inputs";
  let prob, step = of_table_staged f (Array.map (fun s -> s.prob) inputs) in
  { prob; activity = step (Array.map (fun s -> s.activity) inputs) }

let najm_density f inputs =
  let n = Tt.arity f in
  if Array.length inputs <> n then
    invalid_arg "Switching.najm_density: wrong number of inputs";
  let probs = Array.map (fun s -> s.prob) inputs in
  let total = ref 0. in
  for i = 0 to n - 1 do
    let bd = Tt.boolean_difference f i in
    total := !total +. (Prob.of_table bd probs *. inputs.(i).activity)
  done;
  !total

let propagate t ~input =
  let signals =
    Array.make (Nl.num_nodes t) { prob = 0.; activity = 0. }
  in
  Array.iteri (fun k id -> signals.(id) <- input k) (Nl.inputs t);
  Array.iter
    (fun id ->
      if not (Nl.is_input t id) then begin
        let n = Nl.node t id in
        let fanins = Array.map (fun f -> signals.(f)) n.Nl.fanins in
        signals.(id) <- of_table n.Nl.func fanins
      end)
    (Nl.topo_order t);
  signals

let total t signals =
  let acc = ref 0. in
  Array.iter
    (fun id ->
      if not (Nl.is_input t id) then acc := !acc +. signals.(id).activity)
    (Nl.topo_order t);
  !acc
