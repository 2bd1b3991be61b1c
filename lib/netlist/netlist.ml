type node_id = int

type node = {
  id : node_id;
  name : string;
  func : Truth_table.t;
  fanins : node_id array;
}

type t = {
  name : string;
  nodes : node array; (* index = id; ids are dense and topologically sorted *)
  inputs : node_id array;
  outputs : (string * node_id) list;
  input_set : Bytes.t; (* '\001' at a primary input's id *)
  mutable max_depth : int; (* -1 until [max_depth] computes it *)
}

(* The nodes so far are the first [b_count] of [b_nodes], which doubles
   when full; [freeze] takes it as it is when the count is exact, so a
   builder sized by the caller allocates its node array once. *)
type builder = {
  b_name : string;
  mutable b_nodes : node array;
  mutable b_count : int;
  mutable b_inputs : int;
  mutable b_outputs : (string * node_id) list; (* reversed *)
  mutable b_frozen : bool;
}

(* Every input shares one table, and so does each constant. *)
let input_func = Truth_table.var 0 1
let const_funcs = [| Truth_table.const0 0; Truth_table.const1 0 |]
let unused = { id = -1; name = ""; func = input_func; fanins = [||] }

let create_builder_sized ~name ~nodes =
  { b_name = name; b_nodes = Array.make (max nodes 1) unused; b_count = 0;
    b_inputs = 0; b_outputs = []; b_frozen = false }

let create_builder ~name = create_builder_sized ~name ~nodes:64

let check_open b =
  if b.b_frozen then invalid_arg "Netlist: builder already frozen"

let push b node =
  let id = b.b_count in
  if id = Array.length b.b_nodes then begin
    let nodes = Array.make (2 * id) unused in
    Array.blit b.b_nodes 0 nodes 0 id;
    b.b_nodes <- nodes
  end;
  Array.unsafe_set b.b_nodes id node;
  b.b_count <- id + 1;
  id

let add_input b name =
  check_open b;
  b.b_inputs <- b.b_inputs + 1;
  push b { id = b.b_count; name; func = input_func; fanins = [||] }

let add_node b ~name ~func ~fanins =
  check_open b;
  if Truth_table.arity func <> Array.length fanins then
    invalid_arg "Netlist.add_node: arity / fanin count mismatch";
  for i = 0 to Array.length fanins - 1 do
    let f = fanins.(i) in
    if f < 0 || f >= b.b_count then
      invalid_arg "Netlist.add_node: unknown fanin id"
  done;
  push b { id = b.b_count; name; func; fanins }

let add_const b v =
  check_open b;
  push b { id = b.b_count; name = (if v then "const1" else "const0");
           func = const_funcs.(Bool.to_int v); fanins = [||] }

let mark_output b name id =
  check_open b;
  if id < 0 || id >= b.b_count then
    invalid_arg "Netlist.mark_output: unknown node id";
  b.b_outputs <- (name, id) :: b.b_outputs

(* Only an input's table has more inputs than the node has fanins. *)
let[@inline] is_input_node n =
  Array.length n.fanins = 0 && Truth_table.arity n.func = 1

let freeze b =
  check_open b;
  if b.b_outputs = [] then invalid_arg "Netlist.freeze: no outputs declared";
  b.b_frozen <- true;
  let n = b.b_count in
  let nodes =
    if n = Array.length b.b_nodes then b.b_nodes else Array.sub b.b_nodes 0 n
  in
  let inputs = Array.make b.b_inputs 0 in
  let input_set = Bytes.make n '\000' in
  let k = ref 0 in
  for id = 0 to n - 1 do
    if is_input_node nodes.(id) then begin
      inputs.(!k) <- id;
      incr k;
      Bytes.unsafe_set input_set id '\001'
    end
  done;
  { name = b.b_name; nodes; inputs; outputs = List.rev b.b_outputs;
    input_set; max_depth = -1 }

let name t = t.name
let node t id = t.nodes.(id)
let num_nodes t = Array.length t.nodes
let inputs t = t.inputs
let outputs t = t.outputs
let is_input t id = Bytes.get t.input_set id = '\001'

(* Ids are assigned in creation order and fanins must pre-exist, so the
   identity permutation is already topological. *)
let topo_order t = Array.init (Array.length t.nodes) (fun i -> i)

let fanouts t =
  let res = Array.make (Array.length t.nodes) [] in
  Array.iter
    (fun n -> Array.iter (fun f -> res.(f) <- n.id :: res.(f)) n.fanins)
    t.nodes;
  Array.map (fun l -> Array.of_list (List.rev l)) res

let fanout_counts t =
  let counts = Array.make (Array.length t.nodes) 0 in
  Array.iter
    (fun n ->
      for i = 0 to Array.length n.fanins - 1 do
        let f = n.fanins.(i) in
        counts.(f) <- counts.(f) + 1
      done)
    t.nodes;
  counts

let depth t =
  let d = Array.make (Array.length t.nodes) 0 in
  Array.iter
    (fun n ->
      if Array.length n.fanins > 0 && not (is_input t n.id) then begin
        let deepest = ref 0 in
        for i = 0 to Array.length n.fanins - 1 do
          deepest := max !deepest d.(n.fanins.(i))
        done;
        d.(n.id) <- 1 + !deepest
      end)
    t.nodes;
  d

(* Computed once: a netlist never changes, and every domain that
   computes it stores the same value. *)
let max_depth t =
  if t.max_depth < 0 then t.max_depth <- Array.fold_left max 0 (depth t);
  t.max_depth

let num_logic_nodes t =
  Array.fold_left
    (fun acc n ->
      if (not (is_input t n.id)) && Array.length n.fanins > 0 then acc + 1
      else acc)
    0 t.nodes

let eval t assignment =
  if Array.length assignment <> Array.length t.inputs then
    invalid_arg "Netlist.eval: wrong assignment length";
  let values = Array.make (Array.length t.nodes) false in
  Array.iteri (fun k id -> values.(id) <- assignment.(k)) t.inputs;
  Array.iter
    (fun n ->
      if not (is_input t n.id) then begin
        let m = ref 0 in
        Array.iteri (fun i f -> if values.(f) then m := !m lor (1 lsl i))
          n.fanins;
        values.(n.id) <- Truth_table.eval n.func !m
      end)
    t.nodes;
  values

let eval_words_into t assignment values =
  if Array.length assignment <> Array.length t.inputs then
    invalid_arg "Netlist.eval_words: wrong assignment length";
  if Array.length values <> Array.length t.nodes then
    invalid_arg "Netlist.eval_words_into: wrong value array length";
  Array.iteri (fun k id -> values.(id) <- assignment.(k)) t.inputs;
  Array.iter
    (fun n ->
      if not (is_input t n.id) then
        values.(n.id) <- Truth_table.eval_words_at n.func values n.fanins)
    t.nodes

let eval_words t assignment =
  let values = Array.make (Array.length t.nodes) 0 in
  eval_words_into t assignment values;
  values

let output_values t assignment =
  let values = eval t assignment in
  List.map (fun (name, id) -> (name, values.(id))) t.outputs

let validate t =
  Array.iteri
    (fun i n ->
      if n.id <> i then failwith "Netlist.validate: id/index mismatch";
      if Truth_table.arity n.func <> Array.length n.fanins
         && not (is_input t n.id)
      then failwith (Printf.sprintf "Netlist.validate: node %d arity" i);
      Array.iter
        (fun f ->
          if f >= i then
            failwith (Printf.sprintf "Netlist.validate: node %d not topo" i))
        n.fanins)
    t.nodes;
  List.iter
    (fun (name, id) ->
      if id < 0 || id >= Array.length t.nodes then
        failwith ("Netlist.validate: dangling output " ^ name))
    t.outputs
