(* The list-based Cong-Wu-Ding cut enumeration that [Cut.enumerate]'s
   flat store replaced, kept as the reference: cut sets are lists of
   leaf arrays, a node's unions come from a [List.concat_map] product of
   its fanins' sets, and [prune] sorts them with [List.sort_uniq] and
   drops dominated ones by a quadratic scan.  [enumerate t ~k ~max_cuts]
   gives each node's cuts as [Cut] keeps them, in the same order. *)

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
