module Tt = Hlp_netlist.Truth_table
module Nl = Hlp_netlist.Netlist

type signal = { prob : float; activity : float }

let default_input = { prob = 0.5; activity = 0.5 }

let[@inline] clamp ~prob activity =
  if prob < 0. || prob > 1. then invalid_arg "Switching.signal: prob range";
  if activity < 0. || activity > 1. then
    invalid_arg "Switching.signal: activity range";
  (* s(x) = P(x flips across T) <= 2 * min(P, 1-P): a signal that is 1 with
     probability P cannot flip more often than it visits its rarer state. *)
  Float.min activity (2. *. Float.min prob (1. -. prob))

let signal ~prob ~activity = { prob; activity = clamp ~prob activity }

let clamp_activities probs activities n =
  for i = 0 to n - 1 do
    activities.(i) <- clamp ~prob:probs.(i) activities.(i)
  done

(* Chou-Roy Eq. 2.  P(y(t) = 1 and y(t+T) = 1) is the sum over pairs
   (m, m') of on-set minterms of the product of per-input joint
   probabilities over (x(t), x(t+T)):
     P(0->1) = P(1->0) = s/2; P(1->1) = P - s/2; P(0->0) = 1 - P - s/2.
   A pair whose minterms differ on an input with s/2 = 0 has a zero
   factor.  When every joint entry lies in [-1, 1], no product can
   overflow to infinity before reaching that factor, so the term is
   zero and a step visits only the pairs that agree on the static
   inputs; otherwise it visits every pair.  Either way the pairs come
   in the order of the full double loop over the ones, and each product
   multiplies its factors in input order and stops at the first zero,
   so the sum equals the full double loop's bit for bit.

   An entry holds what depends on the function alone: the on-set, the
   ones, and per mask of moving inputs the pairs a step visits, built
   on first use.  A pair is coded two bits per input, input [i] at bits
   [2i] and [2i + 1]: [x(t)] then [x(t+T)], the offset of its factor in
   the input's four joint probabilities. *)
type entry = {
  func : Tt.t;
  arity : int;
  on : bool array;
  ones : int array;
  pairs : int array array;  (* by moving mask; [unbuilt] until used *)
  joints : float array;  (* [4i + code]: input [i]'s joint probability *)
  shannon : float array;  (* {!Prob.of_table_in}'s buffer *)
}

let unbuilt = [| -1 |]

let entry f =
  let n = Tt.arity f in
  let on = Array.init (1 lsl n) (Tt.eval f) in
  let ones =
    Array.of_list (List.filter (Array.get on) (List.init (1 lsl n) Fun.id))
  in
  {
    func = f;
    arity = n;
    on;
    ones;
    pairs = Array.make (1 lsl n) unbuilt;
    joints = Array.make (4 * n) 0.;
    shannon = Prob.scratch ();
  }

let arity e = e.arity

let prob e probs = Prob.of_table_in e.shannon e.func probs

let pair_code n m m' =
  let c = ref 0 in
  for i = n - 1 downto 0 do
    c := (!c lsl 2) lor ((m lsr i) land 1) lor (((m' lsr i) land 1) lsl 1)
  done;
  !c

(* For each one [m], the on-set minterms [m'] that agree with [m]
   outside [moving], in increasing order: [x] runs over the submasks of
   [moving] in increasing order, so [m'] increases too. *)
let pairs e moving =
  let built = e.pairs.(moving) in
  if built != unbuilt then built
  else begin
    let codes = ref [] in
    Array.iter
      (fun m ->
        let base = m land lnot moving in
        let x = ref 0 and more = ref true in
        while !more do
          let m' = base lor !x in
          if e.on.(m') then codes := pair_code e.arity m m' :: !codes;
          if !x = moving then more := false
          else x := ((!x lor lnot moving) + 1) land moving
        done)
      e.ones;
    let codes = Array.of_list (List.rev !codes) in
    e.pairs.(moving) <- codes;
    codes
  end

(* The step writes the activity [signal ~prob:p] would keep (never out
   of range: [p] and the clamped sum lie in [0, 1] or are NaN) to an
   array slot instead of returning it, so a caller in another module
   steps through time without boxing a float per step. *)
let step e ~p probs activities out at =
  let n = e.arity and joints = e.joints in
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
  let codes = pairs e (if !bounded then !moving else (1 lsl n) - 1) in
  let p_joint = ref 0. in
  (* Reads are unchecked: factor [j] of a pair is at [4j + code land 3],
     below [4n], the length of [joints]. *)
  for a = 0 to Array.length codes - 1 do
    let c = ref (Array.unsafe_get codes a) and acc = ref 1. and j = ref 0 in
    while !j < n && !acc <> 0. do
      acc := !acc *. Array.unsafe_get joints ((4 * !j) + (!c land 3));
      c := !c lsr 2;
      incr j
    done;
    p_joint := !p_joint +. !acc
  done;
  let s = 2. *. (p -. !p_joint) in
  let s = if s < 0. then 0. else if s > 1. then 1. else s in
  out.(at) <- Float.min s (2. *. Float.min p (1. -. p))

let of_table f inputs =
  if Array.length inputs <> Tt.arity f then
    invalid_arg "Switching.of_table: wrong number of inputs";
  let e = entry f in
  let probs = Array.map (fun s -> s.prob) inputs in
  let prob = prob e probs in
  let out = [| 0. |] in
  step e ~p:prob probs (Array.map (fun s -> s.activity) inputs) out 0;
  { prob; activity = out.(0) }

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
