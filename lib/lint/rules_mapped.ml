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
  let n = Nl.num_nodes t in
  (* '\001' at each source node that some LUT implements *)
  let roots = Bytes.make n '\000' in
  Array.iter
    (fun l ->
      let root = l.Mapper.root in
      if root >= 0 && root < n then Bytes.set roots root '\001')
    m.Mapper.luts;
  let is_root id = Bytes.get roots id <> '\000' in
  (* --- per-LUT rules: M001, M002 (leaves), M005 --- *)
  Array.iter
    (fun (l : Mapper.lut) ->
      let leaves = l.Mapper.leaves in
      let n_leaves = Array.length leaves in
      if n_leaves > k then
        report
          (D.error "M001" (D.Node l.Mapper.root) "LUT has %d inputs, k = %d"
             n_leaves k);
      if Tt.arity l.Mapper.func <> n_leaves then
        report
          (D.error "M005" (D.Node l.Mapper.root)
             "LUT function arity %d differs from its %d leaves"
             (Tt.arity l.Mapper.func) n_leaves);
      for i = 0 to n_leaves - 1 do
        let leaf = leaves.(i) in
        if leaf < 0 || leaf >= n || not (is_terminal t leaf || is_root leaf)
        then
          report
            (D.error "M002" (D.Node l.Mapper.root)
               "leaf %d is neither terminal nor another LUT root" leaf)
      done)
    m.Mapper.luts;
  (* --- every primary output implemented: M002 --- *)
  List.iter
    (fun (name, id) ->
      if not (is_terminal t id || is_root id) then
        report
          (D.error "M002" (D.Net name) "output not implemented by any LUT"))
    (Nl.outputs t);
  (* The LUT network itself must also respect k (a mapper bug could
     rebuild it differently from the cover it reports). *)
  let network = m.Mapper.lut_network in
  for i = 0 to Nl.num_nodes network - 1 do
    let fanins = (Nl.node network i).Nl.fanins in
    if (not (Nl.is_input network i)) && Array.length fanins > k then
      report
        (D.error "M001" (D.Node i) "LUT-network node has %d fanins, k = %d"
           (Array.length fanins) k)
  done;
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
