module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Blif = Hlp_netlist.Blif
module D = Diagnostic

let check (t : Nl.t) =
  let diags = ref [] in
  let report d = diags := d :: !diags in
  let n = Nl.num_nodes t in
  let well_formed = ref true in
  for i = 0 to n - 1 do
    let node = Nl.node t i in
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
    let fanins = node.Nl.fanins in
    for j = 0 to Array.length fanins - 1 do
      let f = fanins.(j) in
      if f < 0 || f >= i then begin
        well_formed := false;
        report
          (D.error "N003" (D.Node i)
             "fanin %d is out of range or not topologically ordered \
              (must be in [0,%d))"
             f i)
      end
    done
  done;
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
    let reachable = Bytes.make n '\000' in
    let rec mark id =
      if id >= 0 && id < n && Bytes.get reachable id = '\000' then begin
        Bytes.set reachable id '\001';
        Array.iter mark (Nl.node t id).Nl.fanins
      end
    in
    List.iter (fun (_, id) -> mark id) (Nl.outputs t);
    for i = 0 to n - 1 do
      if Bytes.get reachable i = '\000' then
        if Nl.is_input t i then
          report
            (D.warning "N008" (D.Node i) "input %s is never read"
               (Nl.node t i).Nl.name)
        else
          report
            (D.warning "N005" (D.Node i)
               "logic node %s is unreachable from every output"
               (Nl.node t i).Nl.name)
    done;
    (* Constant-foldable nodes: N007. *)
    for i = 0 to n - 1 do
      if not (Nl.is_input t i) then begin
        let node = Nl.node t i in
        let arity = Tt.arity node.Nl.func in
        if arity > 0 && arity = Array.length node.Nl.fanins then begin
          let support = Tt.support_size node.Nl.func in
          if support = 0 then
            report
              (D.warning "N007" (D.Node i)
                 "node %s computes a constant despite %d fanins" node.Nl.name
                 arity)
          else if support < arity then
            report
              (D.warning "N007" (D.Node i)
                 "node %s ignores %d of its %d fanins" node.Nl.name
                 (arity - support) arity)
        end
      end
    done
  end;
  List.sort D.compare !diags

let parse_blif s =
  match Blif.parse s with
  | Ok t -> Ok t
  | Error (lineno, msg) -> Error (D.error "N010" (D.Line lineno) "%s" msg)

(* Two evaluations of each netlist, every lane of both words a vector. *)
let equivalent_on_random_vectors ~seed a b =
  let rng = Hlp_util.Rng.create seed in
  let n_in = Array.length (Nl.inputs a) in
  let outs_a = Nl.outputs a and outs_b = Nl.outputs b in
  let words = Array.make n_in 0 in
  let va = Array.make (Nl.num_nodes a) 0 in
  let vb = Array.make (Nl.num_nodes b) 0 in
  let rec from word =
    word >= 2
    ||
    (Array.fill words 0 n_in 0;
     for lane = 0 to Hlp_util.Bits.lanes - 1 do
       for i = 0 to n_in - 1 do
         if Hlp_util.Rng.bool rng then words.(i) <- words.(i) lor (1 lsl lane)
       done
     done;
     Nl.eval_words_into a words va;
     Nl.eval_words_into b words vb;
     List.for_all2 (fun (_, x) (_, y) -> va.(x) = vb.(y)) outs_a outs_b
     && from (word + 1))
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
