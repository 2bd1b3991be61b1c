module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime

type fu = {
  fu_id : int;
  fu_class : Cdfg.fu_class;
  fu_ops : int list;
}

type t = {
  schedule : Schedule.t;
  regs : Reg_binding.t;
  fus : fu list;
  fu_of_op : int array;
  swapped : bool array;
}

let make ~schedule ~regs ~groups =
  let cdfg = schedule.Schedule.cdfg in
  let fu_of_op = Array.make (Cdfg.num_ops cdfg) (-1) in
  let fus =
    List.mapi
      (fun fu_id (fu_class, ops) ->
        if ops = [] then invalid_arg "Binding.make: empty FU";
        List.iter
          (fun id ->
            if id < 0 || id >= Cdfg.num_ops cdfg then
              invalid_arg "Binding.make: unknown op";
            if Cdfg.class_of (Cdfg.op cdfg id).Cdfg.kind <> fu_class then
              invalid_arg "Binding.make: op class mismatch";
            if fu_of_op.(id) <> -1 then
              invalid_arg "Binding.make: op bound twice";
            fu_of_op.(id) <- fu_id)
          ops;
        { fu_id; fu_class; fu_ops = List.sort compare ops })
      groups
  in
  Array.iteri
    (fun id f ->
      if f = -1 then
        invalid_arg (Printf.sprintf "Binding.make: op %d unbound" id))
    fu_of_op;
  { schedule; regs; fus; fu_of_op;
    swapped = Array.make (Cdfg.num_ops cdfg) false }

(* The comprehensive rule family lives in Hlp_lint.Rules_binding (one
   source of truth); linking hlp_lint installs it here, upgrading
   [validate] to report every violation at once.  Without hlp_lint the
   legacy fail-fast checks below still guard the core invariants. *)
let lint_hook : (t -> string list) option ref = ref None
let set_lint_hook f = lint_hook := Some f

let basic_validate t =
  Reg_binding.validate t.regs;
  List.iter
    (fun fu ->
      let spans =
        List.map (fun id -> Schedule.active_steps t.schedule id) fu.fu_ops
      in
      List.iteri
        (fun i (s1, f1) ->
          List.iteri
            (fun j (s2, f2) ->
              if i < j && s1 <= f2 && s2 <= f1 then
                failwith
                  (Printf.sprintf
                     "Binding: fu%d has temporally overlapping ops" fu.fu_id))
            spans)
        spans)
    t.fus

let validate t =
  match !lint_hook with
  | Some rules -> (
      match rules t with
      | [] -> ()
      | msgs -> failwith ("Binding: " ^ String.concat "\n" msgs))
  | None -> basic_validate t

let num_fus t cls =
  List.length (List.filter (fun f -> f.fu_class = cls) t.fus)

let effective_operands t op_id =
  let o = Cdfg.op t.schedule.Schedule.cdfg op_id in
  if t.swapped.(op_id) then (o.Cdfg.right, o.Cdfg.left)
  else (o.Cdfg.left, o.Cdfg.right)

let set_swaps t swapped =
  let cdfg = t.schedule.Schedule.cdfg in
  if Array.length swapped <> Cdfg.num_ops cdfg then
    invalid_arg "Binding.set_swaps: wrong length";
  Array.iteri
    (fun id sw ->
      if sw && (Cdfg.op cdfg id).Cdfg.kind = Cdfg.Sub then
        invalid_arg "Binding.set_swaps: subtraction ports cannot swap")
    swapped;
  { t with swapped = Array.copy swapped }

let port_sources t fu =
  let collect pick =
    List.map
      (fun id ->
        Reg_binding.reg_of_operand t.regs (pick (effective_operands t id)))
      fu.fu_ops
    |> List.sort_uniq compare
  in
  (collect fst, collect snd)

let mux_diff t fu =
  let left, right = port_sources t fu in
  abs (List.length left - List.length right)

let reg_writers t =
  let cdfg = t.schedule.Schedule.cdfg in
  let n = Reg_binding.num_regs t.regs in
  let writers = Array.make (max n 1) [] in
  let add r w = if not (List.mem w writers.(r)) then writers.(r) <- w :: writers.(r) in
  for k = 0 to Cdfg.num_inputs cdfg - 1 do
    add (Reg_binding.reg_of_var t.regs (Lifetime.V_input k)) `Env
  done;
  Array.iter
    (fun o ->
      let r = Reg_binding.reg_of_var t.regs (Lifetime.V_op o.Cdfg.id) in
      add r (`Fu t.fu_of_op.(o.Cdfg.id)))
    (Cdfg.ops cdfg);
  Array.map List.rev writers

type mux_stats = {
  largest_mux : int;
  mux_length : int;
  mux_count : int;
  fu_mux_diff_mean : float;
  fu_mux_diff_var : float;
  num_fu : int;
}

let mux_stats t =
  let sizes = ref [] in
  List.iter
    (fun fu ->
      let left, right = port_sources t fu in
      sizes := List.length left :: List.length right :: !sizes)
    t.fus;
  Array.iter
    (fun ws -> sizes := List.length ws :: !sizes)
    (reg_writers t);
  let muxes = List.filter (fun s -> s >= 2) !sizes in
  let diffs = List.map (fun fu -> float_of_int (mux_diff t fu)) t.fus in
  {
    largest_mux = List.fold_left max 0 muxes;
    mux_length = List.fold_left ( + ) 0 muxes;
    mux_count = List.length muxes;
    fu_mux_diff_mean = Hlp_util.Stats.mean diffs;
    fu_mux_diff_var = Hlp_util.Stats.variance diffs;
    num_fu = List.length t.fus;
  }

let pp_summary fmt t =
  let s = mux_stats t in
  Format.fprintf fmt
    "%d add-FU, %d mult-FU, %d regs; largest mux %d, mux length %d, muxDiff \
     %.2f/%.2f"
    (num_fus t Cdfg.Add_sub)
    (num_fus t Cdfg.Multiplier)
    (Reg_binding.num_regs t.regs)
    s.largest_mux s.mux_length s.fu_mux_diff_mean s.fu_mux_diff_var
