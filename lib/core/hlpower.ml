module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Telemetry = Hlp_util.Telemetry

let c_iterations = Telemetry.counter "hlpower.iterations"
let c_promotions = Telemetry.counter "hlpower.promotions"
let c_binds = Telemetry.counter "hlpower.binds"
let c_first_fit = Telemetry.counter "hlpower.first_fit_fallbacks"
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

let edge_weight ~params ~sa_table ~cls ~left ~right =
  let sa = Sa_table.lookup sa_table cls ~left ~right in
  let mux_diff = abs (left - right) in
  (params.alpha /. sa)
  +. (1. -. params.alpha)
     /. (float_of_int (mux_diff + 1) *. params.beta cls)

(* --- persistent binder state ------------------------------------------ *)

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

type state = (class_key, class_value) Hashtbl.t

let create_state () = Hashtbl.create 64

(* The Eq. 4 weights of one class within one bind: cell
   [(left - 1) * cols + right - 1] holds [edge_weight] at mux sizes
   (left, right), filled from the SA table on first use (nan until then).
   Sized by the class's distinct source registers per port, which bound
   every merged mux. *)
type pricing = {
  params : params;
  sa_table : Sa_table.t;
  cols : int;
  cells : float array;
}

let pricing ~params ~sa_table ~rows ~cols =
  { params; sa_table; cols; cells = Array.make (rows * cols) Float.nan }

(* The cell holding the weight of merging [u] and [v], filled on first
   use.  Returning the index, not the float, keeps the weight unboxed on
   its way into the matching matrix. *)
let merged_cell p (u : Fu_node.t) v =
  let left = Fu_node.mux_left u v and right = Fu_node.mux_right u v in
  let i = ((left - 1) * p.cols) + right - 1 in
  if Float.is_nan p.cells.(i) then
    p.cells.(i) <-
      edge_weight ~params:p.params ~sa_table:p.sa_table ~cls:u.cls ~left
        ~right;
  i

(* --- one class ------------------------------------------------------- *)

(* The in-flight binding of one class: the partially merged unit set [U],
   the not-yet-absorbed ops [V], and the round counters. *)
type class_state = {
  cs_u : Fu_node.t array;
  cs_v : Fu_node.t list;
  cs_iterations : int;
  cs_promoted : int;
}

let cs_units cs = Array.length cs.cs_u + List.length cs.cs_v

let ops_of_class cdfg cls =
  Array.to_list (Cdfg.ops cdfg)
  |> List.filter (fun o -> Cdfg.class_of o.Cdfg.kind = cls)

(* One iterated-matching round: solve the bipartite graph between U and V
   on the bind's workspace; merge every matched pair, or — when nothing
   can merge (multi-cycle case) — promote the earliest V node into U. *)
let matching_round p ws cs =
  let v_arr = Array.of_list cs.cs_v in
  let u = Array.copy cs.cs_u in
  let n_v = Array.length v_arr in
  let m = Bipartite.weights ws ~n_left:(Array.length u) ~n_right:n_v in
  Array.iteri
    (fun i un ->
      for j = 0 to n_v - 1 do
        let vn = v_arr.(j) in
        if Fu_node.compatible un vn then
          m.((i * n_v) + j) <- p.cells.(merged_cell p un vn)
      done)
    u;
  match (Bipartite.max_weight_matching ws, cs.cs_v) with
  | [], first :: rest ->
      {
        cs_u = Array.append cs.cs_u [| first |];
        cs_v = rest;
        cs_iterations = cs.cs_iterations + 1;
        cs_promoted = cs.cs_promoted + 1;
      }
  | pairs, _ ->
      let matched = Array.make n_v false in
      List.iter
        (fun (i, j) ->
          matched.(j) <- true;
          u.(i) <- Fu_node.merge u.(i) v_arr.(j))
        pairs;
      {
        cs with
        cs_u = u;
        cs_v = List.filteri (fun j _ -> not matched.(j)) cs.cs_v;
        cs_iterations = cs.cs_iterations + 1;
      }

(* Last resort: first-fit interval packing.  Ops occupy contiguous
   control-step ranges, so greedy assignment in start order uses exactly
   the schedule's peak density — always within the constraint.  Eq. 4
   quality is lost for this class, but binding never fails on a feasible
   schedule.  Ties at the same start step are broken on op id: List.sort
   is not stable, so a cstep-only key would leave equal-step order to the
   stdlib's whims. *)
let first_fit ~schedule ~regs ops_of_cls =
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
      let n = Fu_node.of_op schedule regs op in
      let rec place i =
        if i >= !n_units then push n
        else if Fu_node.compatible !units.(i) n then
          !units.(i) <- Fu_node.merge !units.(i) n
        else place (i + 1)
      in
      place 0)
    sorted;
  Array.sub !units 0 !n_units

(* Run one class to completion: seed U with the ops active at the class's
   peak step, run matching rounds while over the bound and V is nonempty,
   then pack first fit if still over the bound.  Returns the groups plus
   the counters and whether first fit fired (so a memo replay can
   re-report the same telemetry). *)
let run_class ~params ~sa_table ~ws ~resources ~schedule ~regs cls
    ops_of_cls =
  let peak = Schedule.peak_step schedule cls in
  let in_peak o =
    let s, f = Schedule.active_steps schedule o.Cdfg.id in
    s <= peak && peak <= f
  in
  let u_ops, v_ops = List.partition in_peak ops_of_cls in
  let node = Fu_node.of_op schedule regs in
  (* No merged mux is larger than the class's distinct source registers
     on its port, so they size the class's weight grid. *)
  let sources port =
    List.length
      (List.sort_uniq compare
         (List.map (fun o -> Reg_binding.reg_of_operand regs (port o))
            ops_of_cls))
  in
  let p =
    pricing ~params ~sa_table
      ~rows:(sources (fun o -> o.Cdfg.left))
      ~cols:(sources (fun o -> o.Cdfg.right))
  in
  let rec matching cs =
    if cs_units cs > resources && cs.cs_v <> [] then
      matching (matching_round p ws cs)
    else cs
  in
  let cs =
    matching
      {
        cs_u = Array.of_list (List.map node u_ops);
        cs_v = List.map node v_ops;
        cs_iterations = 0;
        cs_promoted = 0;
      }
  in
  let cs, used_first_fit =
    if cs_units cs > resources then
      let units = first_fit ~schedule ~regs ops_of_cls in
      ({ cs with cs_u = units; cs_v = [] }, true)
    else (cs, false)
  in
  if cs_units cs > resources then
    failwith
      (Printf.sprintf
         "Hlpower.bind: cannot meet resource constraint for class %s"
         (Cdfg.class_to_string cls));
  let groups =
    Array.to_list cs.cs_u @ cs.cs_v
    |> List.map (fun (n : Fu_node.t) -> (cls, List.sort compare n.ops))
  in
  (groups, cs.cs_iterations, cs.cs_promoted, used_first_fit)

let class_signature ~params ~sa_table ~resources ~schedule ~regs cls
    ops_of_cls =
  let reg = Reg_binding.reg_of_operand regs in
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
  (* Every matching round of every class is solved on this one
     workspace. *)
  let ws = Bipartite.workspace () in
  let bind_class cls =
    match ops_of_class cdfg cls with
    | [] -> []
    | ops_of_cls ->
        let resources = resources cls in
        let fresh () =
          run_class ~params ~sa_table ~ws ~resources ~schedule ~regs cls
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
              match Hashtbl.find_opt st key with
              | Some cv ->
                  Telemetry.incr c_class_hits;
                  if cv.cv_first_fit then Telemetry.incr c_first_fit;
                  (cv.cv_groups, cv.cv_iterations, cv.cv_promoted,
                   cv.cv_first_fit)
              | None ->
                  Telemetry.incr c_class_misses;
                  let groups, its, promos, ff = fresh () in
                  Hashtbl.replace st key
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
