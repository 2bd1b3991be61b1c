(* Differential test of cut enumeration: [Cut.enumerate]'s flat store
   against the list-based enumerator kept in [Cut_reference].  On random
   netlists with constants, K = 2-6 and max_cuts = 1-8, every node's
   cuts must be the reference's, leaf for leaf and in the same order.
   Half the cases are netlists past 128 nodes, so cuts hold leaves
   whose signature bits collide (ids 64 apart) or are missing (id land
   63 = 63). *)

module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Cut = Hlp_mapper.Cut
module Rng = Hlp_util.Rng

(* 60-130 inputs and constants, then 20-140 gates of arity up to
   [min 4 k], each fanin drawn from the 12 newest nodes or from all of
   them, so cones are deep and mix low and high ids. *)
let wide_netlist rng ~k =
  let b = Nl.create_builder ~name:"wide" in
  let pool = ref [] in
  for i = 0 to 59 + Rng.int rng 71 do
    let id =
      if Rng.int rng 8 = 0 then Nl.add_const b (Rng.bool rng)
      else Nl.add_input b (Printf.sprintf "i%d" i)
    in
    pool := id :: !pool
  done;
  for g = 1 to 20 + Rng.int rng 121 do
    let arr = Array.of_list !pool in
    let pick () =
      if Rng.bool rng then arr.(Rng.int rng 12) else Rng.pick rng arr
    in
    let arity = 1 + Rng.int rng (min 4 k) in
    let fanins = Array.init arity (fun _ -> pick ()) in
    let func = Tt.create arity (Rng.bits64 rng) in
    let id = Nl.add_node b ~name:(Printf.sprintf "g%d" g) ~func ~fanins in
    pool := id :: !pool;
    if g mod 7 = 0 then Nl.mark_output b (Printf.sprintf "o%d" g) id
  done;
  Nl.mark_output b "y" (List.hd !pool);
  Nl.freeze b

let store_cuts store id =
  List.init
    (Cut.stop store id - Cut.first store id)
    (fun i -> Cut.leaves store (Cut.first store id + i))

let reference_cuts cuts id =
  List.map (fun c -> c.Cut_reference.leaves) cuts.(id)

let print_case (seed, k, max_cuts, wide) =
  Printf.sprintf "seed %d k %d max_cuts %d%s" seed k max_cuts
    (if wide then " wide" else "")

let prop_store_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"Cut.enumerate = list-based reference, cut for cut"
    QCheck.(
      make ~print:print_case
        Gen.(
          quad (int_range 0 1_000_000) (int_range 2 6) (int_range 1 8) bool))
    (fun (seed, k, max_cuts, wide) ->
      let rng = Rng.create (Printf.sprintf "cut-diff-%d" seed) in
      let t =
        if wide then wide_netlist rng ~k
        else Test_mapper_diff.random_netlist rng ~k
      in
      let store = Cut.enumerate t ~k ~max_cuts in
      let reference = Cut_reference.enumerate t ~k ~max_cuts in
      let ok = ref true in
      for id = 0 to Nl.num_nodes t - 1 do
        if store_cuts store id <> reference_cuts reference id then ok := false
      done;
      !ok)

let suite = [ QCheck_alcotest.to_alcotest prop_store_matches_reference ]
