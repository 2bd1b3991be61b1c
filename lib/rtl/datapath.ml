module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Binding = Hlp_core.Binding
module Reg_binding = Hlp_core.Reg_binding

type fu_inst = {
  fu : Binding.fu;
  left_sources : int array;
  right_sources : int array;
}

type fu_ctrl = {
  op_id : int;
  left_sel : int;
  right_sel : int;
  subtract : bool;
}

type step_ctrl = {
  fu_ctrl : fu_ctrl option array;
  reg_load : int option array;
}

type t = {
  binding : Binding.t;
  width : int;
  adder_impls : Hlp_netlist.Cell_library.adder_impl array;
  fus : fu_inst array;
  reg_writers : int array array;
  input_regs : (int * int) list;
  output_regs : (string * int) list;
  ctrl : step_ctrl array;
}

let num_regs t = Reg_binding.num_regs t.binding.Binding.regs

let index_of x arr =
  let rec go i =
    if i = Array.length arr then raise Not_found
    else if arr.(i) = x then i
    else go (i + 1)
  in
  go 0

let build ?adder_impls ~width binding =
  if width < 1 then invalid_arg "Datapath.build: width must be >= 1";
  let n_fus_total = List.length binding.Binding.fus in
  let adder_impls =
    match adder_impls with
    | None -> Array.make (max n_fus_total 1) Hlp_netlist.Cell_library.Ripple
    | Some a ->
        if Array.length a <> n_fus_total then
          invalid_arg "Datapath.build: adder_impls length mismatch";
        Array.copy a
  in
  let schedule = binding.Binding.schedule in
  let cdfg = schedule.Schedule.cdfg in
  let regs = binding.Binding.regs in
  let n_regs = Reg_binding.num_regs regs in
  let fus =
    Array.of_list
      (List.map
         (fun fu ->
           let left, right = Binding.port_sources binding fu in
           {
             fu;
             left_sources = Array.of_list left;
             right_sources = Array.of_list right;
           })
         binding.Binding.fus)
  in
  (* Writer lists: FU ids producing each register, in fu order. *)
  let reg_writers = Array.make (max n_regs 1) [] in
  Array.iter
    (fun o ->
      let r = Reg_binding.reg_of_var regs (Lifetime.V_op o.Cdfg.id) in
      let f = binding.Binding.fu_of_op.(o.Cdfg.id) in
      if not (List.mem f reg_writers.(r)) then
        reg_writers.(r) <- f :: reg_writers.(r))
    (Cdfg.ops cdfg);
  let reg_writers = Array.map (fun l -> Array.of_list (List.rev l)) reg_writers in
  let input_regs =
    List.init (Cdfg.num_inputs cdfg) (fun k ->
        (k, Reg_binding.reg_of_var regs (Lifetime.V_input k)))
  in
  let output_regs =
    List.mapi
      (fun i operand ->
        (Printf.sprintf "out%d" i, Reg_binding.reg_of_operand regs operand))
      (Cdfg.outputs cdfg)
  in
  (* Control tables. *)
  let n_steps = max schedule.Schedule.num_csteps 1 in
  let ctrl =
    Array.init n_steps (fun _ ->
        {
          fu_ctrl = Array.make (Array.length fus) None;
          reg_load = Array.make (max n_regs 1) None;
        })
  in
  let operand_reg = Reg_binding.reg_of_operand regs in
  Array.iter
    (fun o ->
      let id = o.Cdfg.id in
      let f = binding.Binding.fu_of_op.(id) in
      let inst = fus.(f) in
      let start, finish = Schedule.active_steps schedule id in
      let eff_left, eff_right = Binding.effective_operands binding id in
      let fc =
        {
          op_id = id;
          left_sel = index_of (operand_reg eff_left) inst.left_sources;
          right_sel = index_of (operand_reg eff_right) inst.right_sources;
          subtract = o.Cdfg.kind = Cdfg.Sub;
        }
      in
      (* The FU holds its operands over the whole occupancy (multi-cycle
         ops keep their selects stable). *)
      for s = start to finish do
        ctrl.(s).fu_ctrl.(f) <- Some fc
      done;
      (* Result registered at the end of the finish step. *)
      let r = Reg_binding.reg_of_var regs (Lifetime.V_op id) in
      ctrl.(finish).reg_load.(r) <- Some (index_of f reg_writers.(r)))
    (Cdfg.ops cdfg);
  { binding; width; adder_impls; fus; reg_writers; input_regs;
    output_regs; ctrl }

let golden_operand stream ofs values mask = function
  | Cdfg.Input k -> stream.(ofs + k) land mask
  | Cdfg.Op j -> values.(j)

let rec golden_store stream ofs values mask outputs i = function
  | [] -> ()
  | o :: rest ->
      outputs.(i) <- golden_operand stream ofs values mask o;
      golden_store stream ofs values mask outputs (i + 1) rest

let golden_outputs t stream ~ofs ~values ~outputs =
  let cdfg = t.binding.Binding.schedule.Schedule.cdfg in
  let mask = (1 lsl t.width) - 1 in
  let ops = Cdfg.ops cdfg in
  for i = 0 to Array.length ops - 1 do
    let o = ops.(i) in
    let l = golden_operand stream ofs values mask o.Cdfg.left
    and r = golden_operand stream ofs values mask o.Cdfg.right in
    values.(o.Cdfg.id) <-
      (match o.Cdfg.kind with
      | Cdfg.Add -> (l + r) land mask
      | Cdfg.Sub -> (l - r) land mask
      | Cdfg.Mult -> (l * r) land mask)
  done;
  golden_store stream ofs values mask outputs 0 (Cdfg.outputs cdfg)

let golden_eval t inputs =
  let cdfg = t.binding.Binding.schedule.Schedule.cdfg in
  if Array.length inputs <> Cdfg.num_inputs cdfg then
    invalid_arg "Datapath.golden_eval: wrong input count";
  let outputs = Array.make (List.length (Cdfg.outputs cdfg)) 0 in
  golden_outputs t inputs ~ofs:0 ~values:(Array.make (Cdfg.num_ops cdfg) 0)
    ~outputs;
  List.mapi (fun i v -> (Printf.sprintf "out%d" i, v)) (Array.to_list outputs)

(* The control-table checks that used to live here as fail-fast
   [failwith]s were migrated into Hlp_lint.Rules_datapath (rule family
   D001-D008), the single source of truth.  Linking hlp_lint (which every
   executable in this tree does) installs the rule family below;
   [validate] then reports every violation in one raised message. *)
let lint_hook : (t -> string list) option ref = ref None
let set_lint_hook f = lint_hook := Some f

let validate t =
  match !lint_hook with
  | Some rules -> (
      match rules t with
      | [] -> ()
      | msgs -> failwith ("Datapath: " ^ String.concat "\n" msgs))
  | None -> ()
