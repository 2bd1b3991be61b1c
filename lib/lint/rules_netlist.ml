module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Blif = Hlp_netlist.Blif
module D = Diagnostic

let check (t : Nl.t) =
  let diags = ref [] in
  let report d = diags := d :: !diags in
  let n = Nl.num_nodes t in
  let well_formed = ref true in
  Array.iteri
    (fun i (node : Nl.node) ->
      if node.Nl.id <> i then begin
        well_formed := false;
        report
          (D.error "N001" (D.Node i) "node id %d does not match its index"
             node.Nl.id)
      end;
      let arity = Tt.arity node.Nl.func in
      let n_fanins = Array.length node.Nl.fanins in
      if (not (Nl.is_input t i)) && arity <> n_fanins then
        report
          (D.error "N002" (D.Node i)
             "truth table of arity %d feeds %d fanins" arity n_fanins);
      Array.iter
        (fun f ->
          if f < 0 || f >= i then begin
            well_formed := false;
            report
              (D.error "N003" (D.Node i)
                 "fanin %d is out of range or not topologically ordered \
                  (must be in [0,%d))"
                 f i)
          end)
        node.Nl.fanins)
    (Array.init n (fun i -> Nl.node t i));
  (* Outputs: range and duplicate drivers. *)
  let seen_outputs = Hashtbl.create 16 in
  List.iter
    (fun (name, id) ->
      if id < 0 || id >= n then
        report
          (D.error "N004" (D.Net name) "output driven by unknown node %d" id);
      (match Hashtbl.find_opt seen_outputs name with
      | Some prev ->
          report
            (D.error "N006" (D.Net name)
               "output declared twice (nodes %d and %d)" prev id)
      | None -> Hashtbl.replace seen_outputs name id))
    (Nl.outputs t);
  (* The remaining rules walk fanins, which is only safe on a
     well-formed id/topology skeleton. *)
  if !well_formed then begin
    (* Reachability from the outputs: N005 (dead logic), N008 (unused
       inputs).  Both warnings: the artifact still simulates, but dead
       structure usually means an upstream elaboration bug. *)
    let reachable = Array.make n false in
    let rec mark id =
      if id >= 0 && id < n && not reachable.(id) then begin
        reachable.(id) <- true;
        Array.iter mark (Nl.node t id).Nl.fanins
      end
    in
    List.iter (fun (_, id) -> mark id) (Nl.outputs t);
    Array.iteri
      (fun i r ->
        if not r then
          if Nl.is_input t i then
            report
              (D.warning "N008" (D.Node i) "input %s is never read"
                 (Nl.node t i).Nl.name)
          else
            report
              (D.warning "N005" (D.Node i)
                 "logic node %s is unreachable from every output"
                 (Nl.node t i).Nl.name))
      reachable;
    (* Constant-foldable nodes: N007. *)
    Array.iteri
      (fun i _ ->
        if not (Nl.is_input t i) then begin
          let node = Nl.node t i in
          let arity = Tt.arity node.Nl.func in
          if arity > 0 && arity = Array.length node.Nl.fanins then begin
            let support = Tt.support node.Nl.func in
            if support = [] then
              report
                (D.warning "N007" (D.Node i)
                   "node %s computes a constant despite %d fanins"
                   node.Nl.name arity)
            else if List.length support < arity then
              report
                (D.warning "N007" (D.Node i)
                   "node %s ignores %d of its %d fanins" node.Nl.name
                   (arity - List.length support)
                   arity)
          end
        end)
      reachable
  end;
  List.sort D.compare !diags

let parse_blif s =
  match Blif.parse s with
  | Ok t -> Ok t
  | Error (lineno, msg) -> Error (D.error "N010" (D.Line lineno) "%s" msg)

let equivalent_on_random_vectors ~seed a b =
  let module Bits = Hlp_util.Bits in
  let rng = Hlp_util.Rng.create seed in
  let n_in = Array.length (Nl.inputs a) in
  let outs_a = Nl.outputs a and outs_b = Nl.outputs b in
  let words = Array.make n_in 0 in
  let rec from base =
    base >= 64
    ||
    let active = min Bits.lanes (64 - base) in
    Array.fill words 0 n_in 0;
    for lane = 0 to active - 1 do
      for i = 0 to n_in - 1 do
        if Hlp_util.Rng.bool rng then words.(i) <- words.(i) lor (1 lsl lane)
      done
    done;
    let va = Nl.eval_words a words and vb = Nl.eval_words b words in
    let mask = Bits.mask_lanes active in
    List.for_all2
      (fun (_, x) (_, y) -> (va.(x) lxor vb.(y)) land mask = 0)
      outs_a outs_b
    && from (base + active)
  in
  List.compare_lengths outs_a outs_b = 0 && from 0

let check_blif_roundtrip (t : Nl.t) =
  let s = Blif.to_string t in
  match Blif.parse s with
  | Error (lineno, msg) ->
      [ D.error "N010" (D.Line lineno) "round trip does not parse: %s" msg ]
  | Ok t' ->
      let n_in = Array.length (Nl.inputs t) in
      if Array.length (Nl.inputs t') <> n_in then
        [
          D.error "N009" D.Design
            "round trip changed the input count (%d -> %d)" n_in
            (Array.length (Nl.inputs t'));
        ]
      else if List.length (Nl.outputs t') <> List.length (Nl.outputs t) then
        [
          D.error "N009" D.Design
            "round trip changed the output count (%d -> %d)"
            (List.length (Nl.outputs t))
            (List.length (Nl.outputs t'));
        ]
      else
        match equivalent_on_random_vectors ~seed:"lint-blif-roundtrip" t t' with
        | true -> []
        | false ->
            [
              D.error "N009" D.Design
                "round trip is not functionally equivalent";
            ]
        | exception e ->
            [
              D.error "N009" D.Design "round-trip evaluation failed: %s"
                (Printexc.to_string e);
            ]
