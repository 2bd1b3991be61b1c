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

(* Per-input joint distribution over (x(t), x(t+T)) implied by (P, s):
   P(0->1) = P(1->0) = s/2; P(1->1) = P - s/2; P(0->0) = 1 - P - s/2. *)
let joint { prob = p; activity = s } =
  let h = s /. 2. in
  let p11 = Float.max 0. (p -. h) in
  let p00 = Float.max 0. (1. -. p -. h) in
  (* [| p(0,0); p(1,0); p(0,1); p(1,1) |], indexed by bit0 = x(t),
     bit1 = x(t+T). *)
  [| p00; h; h; p11 |]

let of_table f inputs =
  let n = Tt.arity f in
  if Array.length inputs <> n then
    invalid_arg "Switching.of_table: wrong number of inputs";
  let probs = Array.map (fun s -> s.prob) inputs in
  let p = Prob.of_table f probs in
  let joints = Array.map joint inputs in
  (* Ones of f, enumerated once. *)
  let ones = ref [] in
  for m = (1 lsl n) - 1 downto 0 do
    if Tt.eval f m then ones := m :: !ones
  done;
  let ones = Array.of_list !ones in
  (* P(y(t) = 1 and y(t+T) = 1) = sum over pairs of satisfying minterms of
     the product of per-input joint probabilities. *)
  let p_joint = ref 0. in
  Array.iter
    (fun m ->
      Array.iter
        (fun m' ->
          let acc = ref 1. in
          (try
             for i = 0 to n - 1 do
               let b = (m lsr i) land 1 and b' = (m' lsr i) land 1 in
               acc := !acc *. joints.(i).(b lor (b' lsl 1));
               if !acc = 0. then raise Exit
             done
           with Exit -> ());
          p_joint := !p_joint +. !acc)
        ones)
    ones;
  let s = 2. *. (p -. !p_joint) in
  signal ~prob:p ~activity:(Hlp_util.Stats.clamp ~lo:0. ~hi:1. s)

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
