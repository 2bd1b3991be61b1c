module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table

type t = { leaves : Nl.node_id array }

let pp fmt c =
  Format.fprintf fmt "{%s}"
    (String.concat ","
       (Array.to_list (Array.map string_of_int c.leaves)))

let trivial id = { leaves = [| id |] }
let empty = { leaves = [||] }

(* Merge two sorted distinct arrays; None if the union exceeds [k]. *)
let merge k a b =
  let la = Array.length a.leaves and lb = Array.length b.leaves in
  let out = Array.make (la + lb) 0 in
  let rec go i j n =
    if n > k then None
    else if i = la && j = lb then
      Some { leaves = Array.sub out 0 n }
    else if j = lb || (i < la && a.leaves.(i) < b.leaves.(j)) then begin
      out.(n) <- a.leaves.(i);
      go (i + 1) j (n + 1)
    end
    else if i = la || b.leaves.(j) < a.leaves.(i) then begin
      out.(n) <- b.leaves.(j);
      go i (j + 1) (n + 1)
    end
    else begin
      out.(n) <- a.leaves.(i);
      go (i + 1) (j + 1) (n + 1)
    end
  in
  go 0 0 0

let subset a b =
  (* a subseteq b, both sorted *)
  let la = Array.length a.leaves and lb = Array.length b.leaves in
  let rec go i j =
    if i = la then true
    else if j = lb then false
    else if a.leaves.(i) = b.leaves.(j) then go (i + 1) (j + 1)
    else if a.leaves.(i) > b.leaves.(j) then go i (j + 1)
    else false
  in
  la <= lb && go 0 0


(* Remove duplicates and dominated cuts, keep at most [max_cuts] smallest. *)
let prune max_cuts cuts =
  let sorted =
    List.sort_uniq
      (fun a b ->
        let c = compare (Array.length a.leaves) (Array.length b.leaves) in
        if c <> 0 then c else compare a.leaves b.leaves)
      cuts
  in
  let kept = ref [] in
  List.iter
    (fun c ->
      if not (List.exists (fun k -> subset k c) !kept) then kept := c :: !kept)
    sorted;
  let undominated = List.rev !kept in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take max_cuts undominated

let is_terminal t id =
  Nl.is_input t id
  || Array.length (Nl.node t id).Nl.fanins = 0

let is_const t id = (not (Nl.is_input t id))
  && Array.length (Nl.node t id).Nl.fanins = 0

let enumerate t ~k ~max_cuts =
  if k < 2 || k > Tt.max_vars then invalid_arg "Cut.enumerate: bad k";
  if max_cuts < 1 then invalid_arg "Cut.enumerate: bad max_cuts";
  let n = Nl.num_nodes t in
  let cuts = Array.make n [] in
  (* Per-node cut sets used for building fanout cuts: include the trivial
     cut so a fanout can stop at this node. *)
  let building = Array.make n [] in
  Array.iter
    (fun id ->
      if is_const t id then begin
        cuts.(id) <- [ empty ];
        building.(id) <- [ empty ]
      end
      else if is_terminal t id then begin
        cuts.(id) <- [ trivial id ];
        building.(id) <- [ trivial id ]
      end
      else begin
        let node = Nl.node t id in
        let fanin_sets =
          Array.map (fun f -> building.(f)) node.Nl.fanins
        in
        (* Fold the cartesian product of fanin cut sets. *)
        let combos =
          Array.fold_left
            (fun acc set ->
              List.concat_map
                (fun partial ->
                  List.filter_map (fun c -> merge k partial c) set)
                acc)
            [ empty ] fanin_sets
        in
        let node_cuts = prune max_cuts combos in
        cuts.(id) <- node_cuts;
        building.(id) <-
          prune max_cuts (trivial id :: node_cuts)
      end)
    (Nl.topo_order t);
  cuts

(* Leaf [i]'s value on each of the 32 minterms of five inputs: lane
   [j] holds bit [i] of [j]. *)
let lane_var = function
  | 0 -> 0xAAAAAAAA
  | 1 -> 0xCCCCCCCC
  | 2 -> 0xF0F0F0F0
  | 3 -> 0xFF00FF00
  | _ -> 0xFFFF0000

(* The cone is evaluated bit-parallel, one lane per leaf minterm.  Slot
   [i] holds leaf [i]; the cone's nodes follow in post-order, so a
   node's fanins sit in earlier slots.  Six leaves have 64 minterms, one
   more than a native int holds: [lo] evaluates the 32 with leaf 5 at
   0, [hi] the 32 with leaf 5 at 1. *)
let cone_function t root cut =
  let leaves = cut.leaves in
  let m = Array.length leaves in
  if m > Tt.max_vars then invalid_arg "Cut.cone_function: cut too wide";
  let slots = ref (Array.make (m + 8) 0) and used = ref m in
  Array.blit leaves 0 !slots 0 m;
  let slot id =
    let s = !slots and i = ref 0 in
    while !i < !used && s.(!i) <> id do incr i done;
    if !i < !used then !i else -1
  in
  let rec visit id =
    if slot id < 0 then begin
      if Nl.is_input t id then
        invalid_arg "Cut.cone_function: cut does not cover node";
      Array.iter visit (Nl.node t id).Nl.fanins;
      if !used = Array.length !slots then begin
        let grown = Array.make (2 * !used) 0 in
        Array.blit !slots 0 grown 0 !used;
        slots := grown
      end;
      !slots.(!used) <- id;
      incr used
    end
  in
  visit root;
  let lo = Array.make !used 0 and hi = Array.make !used 0 in
  for i = 0 to min m 5 - 1 do
    lo.(i) <- lane_var i;
    hi.(i) <- lane_var i
  done;
  if m = 6 then hi.(5) <- -1;
  let fanins = Array.make Tt.max_vars 0 in
  for s = m to !used - 1 do
    let node = Nl.node t !slots.(s) in
    let arity = Tt.arity node.Nl.func in
    Array.iteri (fun i f -> fanins.(i) <- slot f) node.Nl.fanins;
    let tlo, thi = Tt.column_halves node.Nl.func in
    lo.(s) <- Tt.eval_column_words ~arity ~lo:tlo ~hi:thi lo fanins 0;
    if m = 6 then
      hi.(s) <- Tt.eval_column_words ~arity ~lo:tlo ~hi:thi hi fanins 0
  done;
  let r = slot root in
  let half v = Int64.of_int (v land 0xFFFFFFFF) in
  Tt.create m (Int64.logor (half lo.(r)) (Int64.shift_left (half hi.(r)) 32))
