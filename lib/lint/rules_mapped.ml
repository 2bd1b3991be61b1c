module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Mapper = Hlp_mapper.Mapper
module D = Diagnostic

let is_terminal t id =
  Nl.is_input t id || Array.length (Nl.node t id).Nl.fanins = 0

let check ~k (m : Mapper.t) =
  let diags = ref [] in
  let report d = diags := d :: !diags in
  let t = m.Mapper.source in
  let roots = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace roots l.Mapper.root ()) m.Mapper.luts;
  (* --- per-LUT rules: M001, M002 (leaves), M005 --- *)
  List.iter
    (fun (l : Mapper.lut) ->
      let n_leaves = Array.length l.Mapper.leaves in
      if n_leaves > k then
        report
          (D.error "M001" (D.Node l.Mapper.root) "LUT has %d inputs, k = %d"
             n_leaves k);
      if Tt.arity l.Mapper.func <> n_leaves then
        report
          (D.error "M005" (D.Node l.Mapper.root)
             "LUT function arity %d differs from its %d leaves"
             (Tt.arity l.Mapper.func) n_leaves);
      Array.iter
        (fun leaf ->
          if
            leaf < 0 || leaf >= Nl.num_nodes t
            || not (is_terminal t leaf || Hashtbl.mem roots leaf)
          then
            report
              (D.error "M002" (D.Node l.Mapper.root)
                 "leaf %d is neither terminal nor another LUT root" leaf))
        l.Mapper.leaves)
    m.Mapper.luts;
  (* --- every primary output implemented: M002 --- *)
  List.iter
    (fun (name, id) ->
      if not (is_terminal t id || Hashtbl.mem roots id) then
        report
          (D.error "M002" (D.Net name) "output not implemented by any LUT"))
    (Nl.outputs t);
  (* The LUT network itself must also respect k (a mapper bug could
     rebuild it differently from the cover it reports). *)
  Array.iteri
    (fun i (node : Nl.node) ->
      if
        (not (Nl.is_input m.Mapper.lut_network i))
        && Array.length node.Nl.fanins > k
      then
        report
          (D.error "M001" (D.Node i)
             "LUT-network node has %d fanins, k = %d"
             (Array.length node.Nl.fanins)
             k))
    (Array.init
       (Nl.num_nodes m.Mapper.lut_network)
       (fun i -> Nl.node m.Mapper.lut_network i));
  (* --- depth monotonicity: M004 --- *)
  let source_depth = Nl.max_depth t in
  let mapped_depth = Nl.max_depth m.Mapper.lut_network in
  if mapped_depth > source_depth then
    report
      (D.error "M004" D.Design
         "LUT network depth %d exceeds gate netlist depth %d" mapped_depth
         source_depth);
  (* --- functional equivalence on random vectors: M003.  Only
     meaningful once the structure above holds. --- *)
  if D.errors !diags = [] then begin
    match
      Rules_netlist.equivalent_on_random_vectors ~seed:"lint-mapped-equiv" t
        m.Mapper.lut_network
    with
    | true -> ()
    | false ->
        report
          (D.error "M003" D.Design
             "LUT network disagrees with the source netlist on random \
              vectors")
    | exception e ->
        report
          (D.error "M003" D.Design "equivalence check failed to run: %s"
             (Printexc.to_string e))
  end;
  List.sort D.compare !diags
