module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Telemetry = Hlp_util.Telemetry

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
  wk_left : int array; (* merged left-source registers, canonical words *)
  wk_right : int array; (* merged right-source registers, canonical words *)
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

(* The words of [a ∪ b] without its trailing zero words: equal sets give
   equal keys whatever the register count of the bind that priced them,
   so a memo carried across session edits still hits. *)
let canonical_union a b =
  let rec last i = if i > 0 && a.(i) lor b.(i) = 0 then last (i - 1) else i in
  let n = last (Array.length a - 1) + 1 in
  Array.init n (fun i -> a.(i) lor b.(i))

(* The Eq. 4 weights of one class within one bind: cell
   [(left - 1) * cols + right - 1] holds [edge_weight] at mux sizes
   (left, right), filled from the SA table on first use (nan until then).
   Sized by the class's distinct source registers per port, which bound
   every merged mux. *)
type pricing = {
  params : params;
  sa_table : Sa_table.t;
  state : state option;
  cols : int;
  cells : float array;
}

let pricing ?state ~params ~sa_table ~rows ~cols () =
  { params; sa_table; state; cols; cells = Array.make (rows * cols) Float.nan }

let grid_weight p cls ~left ~right =
  let i = ((left - 1) * p.cols) + right - 1 in
  let w = p.cells.(i) in
  if Float.is_nan w then begin
    let w = edge_weight ~params:p.params ~sa_table:p.sa_table ~cls ~left ~right in
    p.cells.(i) <- w;
    w
  end
  else w

let merged_weight p (u : Fu_node.t) v =
  let compute () =
    grid_weight p u.cls ~left:(Fu_node.mux_left u v)
      ~right:(Fu_node.mux_right u v)
  in
  match p.state with
  | None -> compute ()
  | Some st -> (
      let key =
        {
          wk_cls = u.cls;
          wk_alpha = p.params.alpha;
          wk_beta = p.params.beta u.cls;
          wk_width = Sa_table.width p.sa_table;
          wk_k = Sa_table.k p.sa_table;
          wk_left = canonical_union u.left_srcs v.left_srcs;
          wk_right = canonical_union u.right_srcs v.right_srcs;
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

(* One iterated-matching round: solve the bipartite graph between U and V;
   merge every matched pair, or — when nothing can merge (multi-cycle
   case) — promote the earliest V node into U. *)
let matching_round p cs =
  let v_arr = Array.of_list cs.cs_v in
  let u = Array.copy cs.cs_u in
  let weight i j =
    let un = u.(i) and vn = v_arr.(j) in
    if Fu_node.compatible un vn then Some (merged_weight p un vn) else None
  in
  let pairs =
    Bipartite.max_weight_matching ~n_left:(Array.length u)
      ~n_right:(Array.length v_arr) ~weight
  in
  match (pairs, cs.cs_v) with
  | [], first :: rest ->
      {
        cs_u = Array.append cs.cs_u [| first |];
        cs_v = rest;
        cs_iterations = cs.cs_iterations + 1;
        cs_promoted = cs.cs_promoted + 1;
      }
  | _ ->
      let matched = Array.make (Array.length v_arr) false in
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
let run_class ?state ~params ~sa_table ~resources ~schedule ~regs cls
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
    pricing ?state ~params ~sa_table
      ~rows:(sources (fun o -> o.Cdfg.left))
      ~cols:(sources (fun o -> o.Cdfg.right))
      ()
  in
  let rec matching cs =
    if cs_units cs > resources && cs.cs_v <> [] then
      matching (matching_round p cs)
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
  let bind_class cls =
    match ops_of_class cdfg cls with
    | [] -> []
    | ops_of_cls ->
        let resources = resources cls in
        let fresh () =
          run_class ?state ~params ~sa_table ~resources ~schedule ~regs cls
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
