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
   (downstream, those results tend to flow to the same FUs).
   [affinity_row] resolves [v]'s side once and writes its weight for
   each register of [free] to [m], from cell [at] on. *)
let affinity_row cdfg assignment contents v free m ~at =
  (* The producer op's class and operand registers, -1 for none. *)
  let cls, left, right =
    match v with
    | Lifetime.V_input _ -> (None, -1, -1)
    | Lifetime.V_op id ->
        let op = Cdfg.op cdfg id in
        let reg = function
          | Cdfg.Input k -> Hashtbl.find_opt assignment (Lifetime.V_input k)
          | Cdfg.Op j -> Hashtbl.find_opt assignment (Lifetime.V_op j)
        in
        let reg o = Option.value ~default:(-1) (reg o) in
        (Some (Cdfg.class_of op.Cdfg.kind), reg op.Cdfg.left, reg op.Cdfg.right)
  in
  Array.iteri
    (fun j r ->
      let same_class =
        match (contents.(r), cls) with
        | Lifetime.V_op prev :: _, Some c ->
            Cdfg.class_of (Cdfg.op cdfg prev).Cdfg.kind = c
        | _ -> false
      in
      m.(at + j) <-
        1.
        +. (if left = r || right = r then 4. else 0.)
        +. if same_class then 1. else 0.)
    free

let bind lt =
  let sched = Lifetime.schedule lt in
  let cdfg = sched.Schedule.cdfg in
  let num_regs = Lifetime.max_live lt in
  let ws = Bipartite.workspace () in
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
      let n_free = Array.length free_regs in
      let m =
        Bipartite.weights ws ~n_left:(Array.length cluster) ~n_right:n_free
      in
      Array.iteri
        (fun i (iv : Lifetime.interval) ->
          affinity_row cdfg assignment contents iv.Lifetime.var free_regs m
            ~at:(i * n_free))
        cluster;
      let pairs = Bipartite.max_weight_matching ws in
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
