module Lifetime = Hlp_cdfg.Lifetime
module Schedule = Hlp_cdfg.Schedule
module Cdfg = Hlp_cdfg.Cdfg

type t = {
  lt : Lifetime.t;
  num_regs : int;
  assignment : (Lifetime.var, int) Hashtbl.t;
  contents : Lifetime.var list array; (* per register, birth order *)
}

let lifetime t = t.lt
let num_regs t = t.num_regs

let reg_of_var t v =
  match Hashtbl.find_opt t.assignment v with
  | Some r -> r
  | None -> raise Not_found

let reg_of_operand t = function
  | Cdfg.Input k -> reg_of_var t (Lifetime.V_input k)
  | Cdfg.Op j -> reg_of_var t (Lifetime.V_op j)

let vars_of_reg t r = List.rev t.contents.(r)

(* Affinity of assigning variable [v] to register [r]: strong preference
   when the producer op of [v] reads a value that lived in [r] (the FU
   writes back into a register it read from), mild preference for reusing
   a register whose previous occupant was produced by the same op class
   (downstream, those results tend to flow to the same FUs). *)
let affinity cdfg assignment v r r_vars =
  let base = 1. in
  match v with
  | Lifetime.V_input _ -> base
  | Lifetime.V_op id ->
      let op = Cdfg.op cdfg id in
      let operand_reg = function
        | Cdfg.Input k -> Hashtbl.find_opt assignment (Lifetime.V_input k)
        | Cdfg.Op j -> Hashtbl.find_opt assignment (Lifetime.V_op j)
      in
      let reads_r =
        List.exists
          (fun o -> operand_reg o = Some r)
          [ op.Cdfg.left; op.Cdfg.right ]
      in
      let same_class =
        match r_vars with
        | Lifetime.V_op prev :: _ ->
            Cdfg.class_of (Cdfg.op cdfg prev).Cdfg.kind
            = Cdfg.class_of op.Cdfg.kind
        | _ -> false
      in
      base +. (if reads_r then 4. else 0.) +. (if same_class then 1. else 0.)

let bind lt =
  let sched = Lifetime.schedule lt in
  let cdfg = sched.Schedule.cdfg in
  let num_regs = Lifetime.max_live lt in
  let assignment = Hashtbl.create 64 in
  let contents = Array.make (max num_regs 1) [] in
  (* Per-register step after which it is free again. *)
  let free_after = Array.make (max num_regs 1) (-1) in
  (* Group intervals by birth step (intervals are already birth-sorted). *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (iv : Lifetime.interval) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt groups iv.birth) in
      Hashtbl.replace groups iv.birth (iv :: l))
    (Lifetime.intervals lt);
  let births =
    Hashtbl.fold (fun b _ acc -> b :: acc) groups [] |> List.sort compare
  in
  List.iter
    (fun birth ->
      let cluster =
        List.rev (Option.value ~default:[] (Hashtbl.find_opt groups birth))
      in
      let cluster = Array.of_list cluster in
      let free_regs =
        List.init num_regs (fun r -> r)
        |> List.filter (fun r -> free_after.(r) < birth)
      in
      let free_regs = Array.of_list free_regs in
      if Array.length cluster > Array.length free_regs then
        failwith "Reg_binding.bind: allocation too small (internal error)";
      let weight i j =
        let iv = cluster.(i) in
        let r = free_regs.(j) in
        Some (affinity cdfg assignment iv.Lifetime.var r contents.(r))
      in
      let pairs =
        Bipartite.max_weight_matching ~n_left:(Array.length cluster)
          ~n_right:(Array.length free_regs) ~weight
      in
      List.iter
        (fun (i, j) ->
          let iv = cluster.(i) in
          let r = free_regs.(j) in
          Hashtbl.replace assignment iv.Lifetime.var r;
          contents.(r) <- iv.Lifetime.var :: contents.(r);
          free_after.(r) <- iv.Lifetime.death)
        pairs;
      (* Every cluster member must be matched (enough free registers). *)
      if List.length pairs <> Array.length cluster then
        failwith "Reg_binding.bind: incomplete cluster assignment")
    births;
  { lt; num_regs; assignment; contents }

let validate t =
  List.iter
    (fun (iv : Lifetime.interval) ->
      if not (Hashtbl.mem t.assignment iv.Lifetime.var) then
        failwith
          ("Reg_binding: unbound variable "
          ^ Lifetime.var_to_string iv.Lifetime.var))
    (Lifetime.intervals t.lt);
  Array.iteri
    (fun r vars ->
      let ivs = List.map (Lifetime.interval t.lt) vars in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i < j && Lifetime.overlap a b then
                failwith
                  (Printf.sprintf
                     "Reg_binding: overlapping variables %s and %s share r%d"
                     (Lifetime.var_to_string a.Lifetime.var)
                     (Lifetime.var_to_string b.Lifetime.var)
                     r))
            ivs)
        ivs)
    t.contents
