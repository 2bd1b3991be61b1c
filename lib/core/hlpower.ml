module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Telemetry = Hlp_util.Telemetry
module IS = Set.Make (Int)

let c_iterations = Telemetry.counter "hlpower.iterations"
let c_promotions = Telemetry.counter "hlpower.promotions"
let c_binds = Telemetry.counter "hlpower.binds"
let c_first_fit = Telemetry.counter "hlpower.first_fit_fallbacks"
let c_weight_hits = Telemetry.counter "hlpower.memo_weight_hits"
let c_weight_misses = Telemetry.counter "hlpower.memo_weight_misses"
let c_class_hits = Telemetry.counter "hlpower.memo_class_hits"
let c_class_misses = Telemetry.counter "hlpower.memo_class_misses"

type params = {
  alpha : float;
  beta : Cdfg.fu_class -> float;
}

let paper_beta = function
  | Cdfg.Add_sub -> 30.
  | Cdfg.Multiplier -> 1000.

let default_params = { alpha = 0.5; beta = paper_beta }

exception Calibration_error of string

(* The paper chose beta empirically (~30 add / ~1000 mult) so that the
   muxDiff term is commensurate with 1/SA *at their datapath width*.  The
   published constants transfer to any width by observing that they match
   the typical SA of a small partial datapath: calibrating beta to the
   (2,2)-mux cell's SA reproduces the published balance on our cells. *)
let calibrate ?(alpha = 0.5) sa_table =
  let beta cls =
    match Sa_table.lookup sa_table cls ~left:2 ~right:2 with
    | sa -> sa
    | exception (Failure msg | Invalid_argument msg) ->
        raise
          (Calibration_error
             (Printf.sprintf
                "cannot calibrate beta for class %s: the (2,2) partial \
                 datapath of the width-%d K=%d library is unusable (%s)"
                (Cdfg.class_to_string cls)
                (Sa_table.width sa_table) (Sa_table.k sa_table) msg))
    | exception Not_found ->
        raise
          (Calibration_error
             (Printf.sprintf
                "cannot calibrate beta for class %s: the width-%d K=%d SA \
                 table has no (2,2) entry"
                (Cdfg.class_to_string cls)
                (Sa_table.width sa_table) (Sa_table.k sa_table)))
  in
  let beta_add = beta Cdfg.Add_sub and beta_mult = beta Cdfg.Multiplier in
  {
    alpha;
    beta =
      (function Cdfg.Add_sub -> beta_add | Cdfg.Multiplier -> beta_mult);
  }

type result = {
  binding : Binding.t;
  iterations : int;
  promoted : int;
}

(* A node of the bipartite graph: a (partially filled) functional unit. *)
type node = {
  cls : Cdfg.fu_class;
  n_ops : int list; (* descending insertion, sorted at the end *)
  busy : IS.t; (* occupied control steps *)
  left_srcs : IS.t; (* distinct source registers, port A *)
  right_srcs : IS.t; (* distinct source registers, port B *)
}

let node_of_op schedule regs op =
  let id = op.Cdfg.id in
  let s, f = Schedule.active_steps schedule id in
  let busy = ref IS.empty in
  for x = s to f do
    busy := IS.add x !busy
  done;
  let reg o =
    match o with
    | Cdfg.Input k -> Reg_binding.reg_of_var regs (Hlp_cdfg.Lifetime.V_input k)
    | Cdfg.Op j -> Reg_binding.reg_of_var regs (Hlp_cdfg.Lifetime.V_op j)
  in
  {
    cls = Cdfg.class_of op.Cdfg.kind;
    n_ops = [ id ];
    busy = !busy;
    left_srcs = IS.singleton (reg op.Cdfg.left);
    right_srcs = IS.singleton (reg op.Cdfg.right);
  }

let compatible u v = u.cls = v.cls && IS.disjoint u.busy v.busy

let merge u v =
  {
    cls = u.cls;
    n_ops = u.n_ops @ v.n_ops;
    busy = IS.union u.busy v.busy;
    left_srcs = IS.union u.left_srcs v.left_srcs;
    right_srcs = IS.union u.right_srcs v.right_srcs;
  }

let edge_weight ~params ~sa_table ~cls ~left ~right =
  let sa = Sa_table.lookup sa_table cls ~left ~right in
  let mux_diff = abs (left - right) in
  (params.alpha /. sa)
  +. (1. -. params.alpha)
     /. (float_of_int (mux_diff + 1) *. params.beta cls)

(* --- persistent binder state ------------------------------------------ *)

(* An Eq. 4 evaluation is a pure function of the merged source-register
   sets plus everything that parameterizes the weight: the class, alpha,
   the class beta, and the SA table identity (width, K) — entries of equal
   (width, K) tables are pure functions of the key, so two tables with the
   same identity yield the same weight. *)
type weight_key = {
  wk_cls : Cdfg.fu_class;
  wk_alpha : float;
  wk_beta : float;
  wk_width : int;
  wk_k : int;
  wk_left : int list; (* merged left-source registers, ascending *)
  wk_right : int list; (* merged right-source registers, ascending *)
}

(* A whole per-class run is a pure function of this signature: seeding
   reads only the class ops' active intervals (the peak step is the argmax
   of the class's own density profile, unaffected by other classes), each
   round reads only intervals, source registers and Eq. 4 weights, and the
   first-fit fallback reads only start steps and op ids.  Caching on exact
   structural equality makes reuse provably identical to re-running. *)
type class_key = {
  ck_cls : Cdfg.fu_class;
  ck_alpha : float;
  ck_beta : float;
  ck_width : int;
  ck_k : int;
  ck_resources : int;
  ck_ops : (int * int * int * int * int) list;
      (* (op id, start, finish, left reg, right reg) in id order *)
}

type class_value = {
  cv_groups : (Cdfg.fu_class * int list) list;
  cv_iterations : int;
  cv_promoted : int;
  cv_first_fit : bool;
}

type state = {
  weight_memo : (weight_key, float) Hashtbl.t;
  class_memo : (class_key, class_value) Hashtbl.t;
}

let create_state () =
  { weight_memo = Hashtbl.create 256; class_memo = Hashtbl.create 64 }

let merged_weight ?state ~params ~sa_table u v =
  let compute () =
    let left = IS.cardinal (IS.union u.left_srcs v.left_srcs) in
    let right = IS.cardinal (IS.union u.right_srcs v.right_srcs) in
    edge_weight ~params ~sa_table ~cls:u.cls ~left ~right
  in
  match state with
  | None -> compute ()
  | Some st -> (
      let key =
        {
          wk_cls = u.cls;
          wk_alpha = params.alpha;
          wk_beta = params.beta u.cls;
          wk_width = Sa_table.width sa_table;
          wk_k = Sa_table.k sa_table;
          wk_left = IS.elements (IS.union u.left_srcs v.left_srcs);
          wk_right = IS.elements (IS.union u.right_srcs v.right_srcs);
        }
      in
      match Hashtbl.find_opt st.weight_memo key with
      | Some w ->
          Telemetry.incr c_weight_hits;
          w
      | None ->
          let w = compute () in
          Hashtbl.replace st.weight_memo key w;
          Telemetry.incr c_weight_misses;
          w)

(* --- resumable rounds -------------------------------------------------- *)

(* The in-flight binding of one class: the partially merged unit set [U],
   the not-yet-absorbed ops [V], and the round counters.  Values are
   persistent — each round returns a fresh state — so a caller can stop,
   inspect, and resume between rounds. *)
type class_state = {
  cs_cls : Cdfg.fu_class;
  cs_u : node array;
  cs_v : node list;
  cs_iterations : int;
  cs_promoted : int;
}

let cs_units cs = Array.length cs.cs_u + List.length cs.cs_v
let cs_pending cs = List.length cs.cs_v

let ops_of_class cdfg cls =
  Array.to_list (Cdfg.ops cdfg)
  |> List.filter (fun o -> Cdfg.class_of o.Cdfg.kind = cls)

let seed_of_ops ~schedule ~regs cls ops_of_cls =
  if ops_of_cls = [] then None
  else begin
    let peak = Schedule.peak_step schedule cls in
    let in_peak o =
      let s, f = Schedule.active_steps schedule o.Cdfg.id in
      s <= peak && peak <= f
    in
    let u_ops, v_ops = List.partition in_peak ops_of_cls in
    Some
      {
        cs_cls = cls;
        cs_u = Array.of_list (List.map (node_of_op schedule regs) u_ops);
        cs_v = List.map (node_of_op schedule regs) v_ops;
        cs_iterations = 0;
        cs_promoted = 0;
      }
  end

let seed ~schedule ~regs cls =
  seed_of_ops ~schedule ~regs cls (ops_of_class schedule.Schedule.cdfg cls)

(* One iterated-matching round: solve the bipartite graph between U and V;
   merge every matched pair, or — when nothing can merge (multi-cycle
   case) — promote the earliest V node into U. *)
let matching_round ?state ~params ~sa_table cs =
  let v_arr = Array.of_list cs.cs_v in
  let u = Array.copy cs.cs_u in
  let weight i j =
    let un = u.(i) and vn = v_arr.(j) in
    if compatible un vn then
      Some (merged_weight ?state ~params ~sa_table un vn)
    else None
  in
  let pairs =
    Bipartite.max_weight_matching ~n_left:(Array.length u)
      ~n_right:(Array.length v_arr) ~weight
  in
  if pairs = [] then
    match cs.cs_v with
    | first :: rest ->
        {
          cs with
          cs_u = Array.append cs.cs_u [| first |];
          cs_v = rest;
          cs_iterations = cs.cs_iterations + 1;
          cs_promoted = cs.cs_promoted + 1;
        }
    | [] -> invalid_arg "Hlpower.matching_round: no pending ops"
  else begin
    let matched_v =
      List.fold_left (fun s (_, j) -> IS.add j s) IS.empty pairs
    in
    List.iter (fun (i, j) -> u.(i) <- merge u.(i) v_arr.(j)) pairs;
    {
      cs with
      cs_u = u;
      cs_v =
        List.filteri (fun j _ -> not (IS.mem j matched_v))
          (Array.to_list v_arr);
      cs_iterations = cs.cs_iterations + 1;
    }
  end

(* Multi-cycle fallback round: merge the single best compatible pair of
   allocated units (still priced by Eq. 4), or report that none exists.
   Equal-weight candidates are tie-broken on the canonical (min op id,
   max-of-min op id) pair so the choice does not depend on the order U was
   assembled in — promotion order would otherwise leak into the result and
   break bit-identity between from-scratch and resumed runs. *)
let fallback_round ?state ~params ~sa_table cs =
  let nodes = cs.cs_u in
  let min_op n = List.fold_left min max_int n.n_ops in
  let best = ref None in
  Array.iteri
    (fun i ni ->
      Array.iteri
        (fun j nj ->
          if i < j && compatible ni nj then begin
            let w = merged_weight ?state ~params ~sa_table ni nj in
            let a = min_op ni and b = min_op nj in
            let key = (min a b, max a b) in
            let better =
              match !best with
              | None -> true
              | Some (_, _, w', key') -> w > w' || (w = w' && key < key')
            in
            if better then best := Some (i, j, w, key)
          end)
        nodes)
    nodes;
  match !best with
  | None -> None
  | Some (i, j, _, _) ->
      let merged = merge nodes.(i) nodes.(j) in
      let u =
        Array.of_list
          (List.filteri (fun k _ -> k <> j) (Array.to_list nodes))
      in
      u.(i) <- merged;
      Some { cs with cs_u = u; cs_iterations = cs.cs_iterations + 1 }

(* Last resort: first-fit interval packing.  Ops occupy contiguous
   control-step ranges, so greedy assignment in start order uses exactly
   the schedule's peak density — always within the constraint.  Eq. 4
   quality is lost for this class, but binding never fails on a feasible
   schedule.  Ties at the same start step are broken on op id: List.sort
   is not stable, so a cstep-only key would leave equal-step order to the
   stdlib's whims. *)
let first_fit ~schedule ~regs cs ops_of_cls =
  Telemetry.incr c_first_fit;
  let sorted =
    List.sort
      (fun a b ->
        compare
          (schedule.Schedule.cstep.(a.Cdfg.id), a.Cdfg.id)
          (schedule.Schedule.cstep.(b.Cdfg.id), b.Cdfg.id))
      ops_of_cls
  in
  (* Growable array of units, scanned in creation order (first fit):
     appending to the old list representation copied the whole list per
     op, quadratic in unit count. *)
  let units = ref [||] in
  let n_units = ref 0 in
  let push n =
    if !n_units = Array.length !units then begin
      let grown = Array.make (max 16 (2 * !n_units)) n in
      Array.blit !units 0 grown 0 !n_units;
      units := grown
    end;
    !units.(!n_units) <- n;
    incr n_units
  in
  List.iter
    (fun op ->
      let n = node_of_op schedule regs op in
      let rec place i =
        if i >= !n_units then push n
        else if compatible !units.(i) n then !units.(i) <- merge !units.(i) n
        else place (i + 1)
      in
      place 0)
    sorted;
  { cs with cs_u = Array.sub !units 0 !n_units; cs_v = [] }

let groups_of cs =
  Array.to_list cs.cs_u @ cs.cs_v
  |> List.map (fun n -> (cs.cs_cls, List.sort compare n.n_ops))

(* Run one class to completion: iterated matching while over the bound and
   V is nonempty, then fallback merging, then first fit.  Returns the
   groups plus the counters and whether first fit fired (so a memo replay
   can re-report the same telemetry). *)
let run_class ?state ~params ~sa_table ~resources ~schedule ~regs cs
    ops_of_cls =
  let rec matching cs =
    if cs_units cs > resources && cs.cs_v <> [] then
      matching (matching_round ?state ~params ~sa_table cs)
    else cs
  in
  let rec fallback cs =
    if cs_units cs > resources then
      match fallback_round ?state ~params ~sa_table cs with
      | Some cs' -> fallback cs'
      | None -> cs
    else cs
  in
  let cs = fallback (matching cs) in
  let cs, used_first_fit =
    if cs_units cs > resources then
      (first_fit ~schedule ~regs cs ops_of_cls, true)
    else (cs, false)
  in
  if cs_units cs > resources then
    failwith
      (Printf.sprintf
         "Hlpower.bind: cannot meet resource constraint for class %s"
         (Cdfg.class_to_string cs.cs_cls));
  (groups_of cs, cs.cs_iterations, cs.cs_promoted, used_first_fit)

let class_signature ~params ~sa_table ~resources ~schedule ~regs cls
    ops_of_cls =
  let reg o =
    match o with
    | Cdfg.Input k -> Reg_binding.reg_of_var regs (Hlp_cdfg.Lifetime.V_input k)
    | Cdfg.Op j -> Reg_binding.reg_of_var regs (Hlp_cdfg.Lifetime.V_op j)
  in
  {
    ck_cls = cls;
    ck_alpha = params.alpha;
    ck_beta = params.beta cls;
    ck_width = Sa_table.width sa_table;
    ck_k = Sa_table.k sa_table;
    ck_resources = resources;
    ck_ops =
      List.map
        (fun o ->
          let s, f = Schedule.active_steps schedule o.Cdfg.id in
          (o.Cdfg.id, s, f, reg o.Cdfg.left, reg o.Cdfg.right))
        ops_of_cls;
  }

let bind ?state ?(params = default_params) ~sa_table ~regs ~resources
    schedule =
  Telemetry.time "hlpower.bind" @@ fun () ->
  let cdfg = schedule.Schedule.cdfg in
  List.iter
    (fun cls ->
      let need = Schedule.max_density schedule cls in
      if need > 0 && resources cls < need then
        failwith
          (Printf.sprintf
             "Hlpower.bind: class %s needs at least %d units, bound is %d"
             (Cdfg.class_to_string cls) need (resources cls)))
    Cdfg.all_classes;
  let iterations = ref 0 in
  let promoted = ref 0 in
  (* Per class, seed U from the peak-density control step and run the
     iterated matching rounds. *)
  let bind_class cls =
    let ops_of_cls = ops_of_class cdfg cls in
    match seed_of_ops ~schedule ~regs cls ops_of_cls with
    | None -> []
    | Some cs ->
        let resources = resources cls in
        let fresh () =
          run_class ?state ~params ~sa_table ~resources ~schedule ~regs cs
            ops_of_cls
        in
        let groups, its, promos, _ =
          match state with
          | None -> fresh ()
          | Some st -> (
              let key =
                class_signature ~params ~sa_table ~resources ~schedule ~regs
                  cls ops_of_cls
              in
              match Hashtbl.find_opt st.class_memo key with
              | Some cv ->
                  Telemetry.incr c_class_hits;
                  if cv.cv_first_fit then Telemetry.incr c_first_fit;
                  (cv.cv_groups, cv.cv_iterations, cv.cv_promoted,
                   cv.cv_first_fit)
              | None ->
                  Telemetry.incr c_class_misses;
                  let groups, its, promos, ff = fresh () in
                  Hashtbl.replace st.class_memo key
                    {
                      cv_groups = groups;
                      cv_iterations = its;
                      cv_promoted = promos;
                      cv_first_fit = ff;
                    };
                  (groups, its, promos, ff))
        in
        iterations := !iterations + its;
        promoted := !promoted + promos;
        groups
  in
  let groups = List.concat_map bind_class Cdfg.all_classes in
  let binding = Binding.make ~schedule ~regs ~groups in
  Binding.validate binding;
  Telemetry.incr c_binds;
  Telemetry.add c_iterations !iterations;
  Telemetry.add c_promotions !promoted;
  { binding; iterations = !iterations; promoted = !promoted }

module Rounds = struct
  type nonrec class_state = class_state

  let seed = seed
  let units = cs_units
  let pending = cs_pending
  let iterations cs = cs.cs_iterations
  let promoted cs = cs.cs_promoted
  let matching_round = matching_round
  let fallback_round = fallback_round
  let groups = groups_of
end
