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
   operations instead of the O(n * 2^n) minterm sum, no allocation, and
   equal halves fold without reading the input probability.  The
   minterm loop above is kept as the test oracle. *)
let rec shannon probs bits n =
  if n = 0 then (if bits land 1 = 1 then 1. else 0.)
  else begin
    let half = 1 lsl (n - 1) in
    let lo = shannon probs bits (n - 1) in
    let hi = shannon probs (bits lsr half) (n - 1) in
    if lo = hi then lo
    else lo +. (Array.unsafe_get probs (n - 1) *. (hi -. lo))
  end

let of_table f probs =
  check_arity "of_table" f probs;
  let n = Tt.arity f in
  let p =
    if n < Tt.max_vars then shannon probs (Int64.to_int (Tt.bits f)) n
    else begin
      (* 2^6 table bits overflow a 63-bit native int: split on the top
         input, as [eval_column_words] does. *)
      let blo, bhi = Tt.column_halves f in
      let lo = shannon probs blo 5 and hi = shannon probs bhi 5 in
      if lo = hi then lo else lo +. (probs.(5) *. (hi -. lo))
    end
  in
  Hlp_util.Stats.clamp ~lo:0. ~hi:1. p

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
