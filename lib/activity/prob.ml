module Tt = Hlp_netlist.Truth_table
module Nl = Hlp_netlist.Netlist

let check_arity name f probs =
  if Array.length probs <> Tt.arity f then
    invalid_arg (Printf.sprintf "Prob.%s: wrong number of probabilities" name)

let of_table_minterms f probs =
  check_arity "of_table_minterms" f probs;
  let n = Tt.arity f in
  let total = ref 0. in
  for m = 0 to (1 lsl n) - 1 do
    if Tt.eval f m then begin
      let p = ref 1. in
      for i = 0 to n - 1 do
        p := !p *. (if m land (1 lsl i) <> 0 then probs.(i) else 1. -. probs.(i))
      done;
      total := !total +. !p
    end
  done;
  (* Summation drift can push the total marginally outside [0, 1]. *)
  Hlp_util.Stats.clamp ~lo:0. ~hi:1. !total

(* Shannon expansion on the table column, the float twin of the
   recursion [Truth_table.eval_column_words] uses for 5- and 6-input
   tables: expanding on the top input,
   P(f) = P(f|x=0) + p_x * (P(f|x=1) - P(f|x=0)).  O(2^n) float
   operations instead of the O(n * 2^n) minterm sum, and equal halves
   fold without reading the input probability.  Each level leaves its
   result in [s.(n)] instead of returning it, so no intermediate float
   is boxed.  The minterm loop above is kept as the test oracle. *)
let rec shannon (s : float array) probs bits n =
  if n = 0 then s.(0) <- (if bits land 1 = 1 then 1. else 0.)
  else begin
    let half = 1 lsl (n - 1) in
    shannon s probs bits (n - 1);
    let lo = s.(n - 1) in
    shannon s probs (bits lsr half) (n - 1);
    let hi = s.(n - 1) in
    s.(n) <-
      (if lo = hi then lo
       else lo +. (Array.unsafe_get probs (n - 1) *. (hi -. lo)))
  end

let scratch () = Array.make (Tt.max_vars + 1) 0.

let of_table_in s f probs =
  check_arity "of_table" f probs;
  let n = Tt.arity f in
  let p =
    if n < Tt.max_vars then begin
      shannon s probs (Int64.to_int (Tt.bits f)) n;
      s.(n)
    end
    else begin
      (* 2^6 table bits overflow a 63-bit native int: split on the top
         input, as [eval_column_words] does. *)
      shannon s probs (Tt.low_half f) 5;
      let lo = s.(5) in
      shannon s probs (Tt.high_half f) 5;
      let hi = s.(5) in
      if lo = hi then lo else lo +. (probs.(5) *. (hi -. lo))
    end
  in
  Hlp_util.Stats.clamp ~lo:0. ~hi:1. p

let of_table f probs = of_table_in (scratch ()) f probs

let node_probabilities t ~input_prob =
  let probs = Array.make (Nl.num_nodes t) 0.5 in
  Array.iteri (fun k id -> probs.(id) <- input_prob k) (Nl.inputs t);
  Array.iter
    (fun id ->
      if not (Nl.is_input t id) then begin
        let n = Nl.node t id in
        let fanin_probs = Array.map (fun f -> probs.(f)) n.Nl.fanins in
        probs.(id) <- of_table n.Nl.func fanin_probs
      end)
    (Nl.topo_order t);
  probs

let uniform _ = 0.5
