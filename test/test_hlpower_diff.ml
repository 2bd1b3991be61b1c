(* Differential test of the HLPower binder: [Hlpower.bind] against the
   set-based binder kept here as the reference.  The reference holds a
   node's busy control steps and its two source-register sets as
   [Set.Make (Int)] values, prices every candidate merge by a fresh
   [Sa_table.lookup], solves each round with the option-callback
   matching kept in test_bipartite_diff.ml, and memoizes whole classes
   the way the binder state does.  On random CDFGs under list, ASAP and
   hand-placed schedules, unit and multi-cycle latencies, bounds from
   the density upward and alpha in {0, 0.5, 1, random}, both binders
   must return the same groups in the same order, the same iteration
   and promotion counts, and — with a binder state, including one
   carried across binds whose register count differs — the same class
   memo hit and miss counts.  [Lopass.bind] is held the same way to the
   set-based LOPASS binder kept below, on the same random designs. *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module RB = Hlp_core.Reg_binding
module H = Hlp_core.Hlpower
module Lopass = Hlp_core.Lopass
module ST = Hlp_core.Sa_table
module Bind = Hlp_core.Binding
module Bipartite = Test_bipartite_diff.Reference
module Telemetry = Hlp_util.Telemetry

module Reference = struct
  module IS = Set.Make (Int)

  type node = {
    cls : Cdfg.fu_class;
    n_ops : int list;
    busy : IS.t;
    left_srcs : IS.t;
    right_srcs : IS.t;
  }

  let reg regs = function
    | Cdfg.Input k -> RB.reg_of_var regs (Lifetime.V_input k)
    | Cdfg.Op j -> RB.reg_of_var regs (Lifetime.V_op j)

  let node_of_op schedule regs op =
    let s, f = Schedule.active_steps schedule op.Cdfg.id in
    {
      cls = Cdfg.class_of op.Cdfg.kind;
      n_ops = [ op.Cdfg.id ];
      busy = IS.of_list (List.init (f - s + 1) (fun i -> s + i));
      left_srcs = IS.singleton (reg regs op.Cdfg.left);
      right_srcs = IS.singleton (reg regs op.Cdfg.right);
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

  (* The class memo counters the binder reports as hlpower.memo_class_*. *)
  type counts = { mutable c_hits : int; mutable c_misses : int }

  type state = {
    classes :
      ( Cdfg.fu_class * float * float * int * int * int
        * (int * int * int * int * int) list,
        (Cdfg.fu_class * int list) list * int * int )
      Hashtbl.t;
    counts : counts;
  }

  let create_state () =
    { classes = Hashtbl.create 16; counts = { c_hits = 0; c_misses = 0 } }

  let merged_weight ~params ~sa_table u v =
    let left = IS.cardinal (IS.union u.left_srcs v.left_srcs) in
    let right = IS.cardinal (IS.union u.right_srcs v.right_srcs) in
    let sa = ST.lookup sa_table u.cls ~left ~right in
    (params.H.alpha /. sa)
    +. (1. -. params.H.alpha)
       /. (float_of_int (abs (left - right) + 1) *. params.H.beta u.cls)

  (* One class in flight: allocated units [u], pending ops [v]. *)
  type cs = {
    u : node array;
    v : node list;
    iterations : int;
    promoted : int;
  }

  let matching_round ~params ~sa_table cs =
    let v_arr = Array.of_list cs.v in
    let u = Array.copy cs.u in
    let weight i j =
      if compatible u.(i) v_arr.(j) then
        Some (merged_weight ~params ~sa_table u.(i) v_arr.(j))
      else None
    in
    let pairs =
      Bipartite.max_weight_matching ~n_left:(Array.length u)
        ~n_right:(Array.length v_arr) ~weight
    in
    if pairs = [] then
      match cs.v with
      | first :: rest ->
          {
            u = Array.append cs.u [| first |];
            v = rest;
            iterations = cs.iterations + 1;
            promoted = cs.promoted + 1;
          }
      | [] -> invalid_arg "Reference.matching_round: no pending ops"
    else begin
      let matched = List.map snd pairs in
      List.iter (fun (i, j) -> u.(i) <- merge u.(i) v_arr.(j)) pairs;
      {
        cs with
        u;
        v = List.filteri (fun j _ -> not (List.mem j matched)) cs.v;
        iterations = cs.iterations + 1;
      }
    end

  let fallback_round ~params ~sa_table cs =
    let min_op n = List.fold_left min max_int n.n_ops in
    let best = ref None in
    Array.iteri
      (fun i ni ->
        Array.iteri
          (fun j nj ->
            if i < j && compatible ni nj then begin
              let w = merged_weight ~params ~sa_table ni nj in
              let a = min_op ni and b = min_op nj in
              let key = (min a b, max a b) in
              match !best with
              | Some (_, _, w', key') when not (w > w' || (w = w' && key < key'))
                ->
                  ()
              | _ -> best := Some (i, j, w, key)
            end)
          cs.u)
      cs.u;
    match !best with
    | None -> None
    | Some (i, j, _, _) ->
        let u =
          Array.of_list (List.filteri (fun k _ -> k <> j) (Array.to_list cs.u))
        in
        u.(i) <- merge cs.u.(i) cs.u.(j);
        Some { cs with u; iterations = cs.iterations + 1 }

  let first_fit ~schedule ~regs ops =
    let sorted =
      List.sort
        (fun a b ->
          compare
            (schedule.Schedule.cstep.(a.Cdfg.id), a.Cdfg.id)
            (schedule.Schedule.cstep.(b.Cdfg.id), b.Cdfg.id))
        ops
    in
    let units = ref [] in
    List.iter
      (fun op ->
        let n = node_of_op schedule regs op in
        let rec place = function
          | [] -> [ n ]
          | x :: rest when compatible x n -> merge x n :: rest
          | x :: rest -> x :: place rest
        in
        units := place !units)
      sorted;
    Array.of_list !units

  let units cs = Array.length cs.u + List.length cs.v

  let groups cls cs =
    Array.to_list cs.u @ cs.v
    |> List.map (fun n -> (cls, List.sort compare n.n_ops))

  (* The paths the reference's binds took, summed over a run. *)
  type paths = {
    mutable promotions : int;
    mutable fallback_rounds : int;
    mutable first_fits : int;
  }

  let new_paths () = { promotions = 0; fallback_rounds = 0; first_fits = 0 }

  let run_class ~params ~sa_table ~resources ~schedule ~regs ~paths cls ops =
    let peak = Schedule.peak_step schedule cls in
    let in_peak o =
      let s, f = Schedule.active_steps schedule o.Cdfg.id in
      s <= peak && peak <= f
    in
    let u_ops, v_ops = List.partition in_peak ops in
    let cs =
      {
        u = Array.of_list (List.map (node_of_op schedule regs) u_ops);
        v = List.map (node_of_op schedule regs) v_ops;
        iterations = 0;
        promoted = 0;
      }
    in
    let rec matching cs =
      if units cs > resources && cs.v <> [] then
        matching (matching_round ~params ~sa_table cs)
      else cs
    in
    let rec fallback cs =
      if units cs > resources then begin
        paths.fallback_rounds <- paths.fallback_rounds + 1;
        match fallback_round ~params ~sa_table cs with
        | Some cs' -> fallback cs'
        | None -> cs
      end
      else cs
    in
    let cs = fallback (matching cs) in
    paths.promotions <- paths.promotions + cs.promoted;
    let cs =
      if units cs > resources then begin
        paths.first_fits <- paths.first_fits + 1;
        { cs with u = first_fit ~schedule ~regs ops; v = [] }
      end
      else cs
    in
    if units cs > resources then failwith "Reference.bind: bound unreachable";
    (groups cls cs, cs.iterations, cs.promoted)

  let bind ?state ~params ~sa_table ~regs ~resources ~paths schedule =
    let cdfg = schedule.Schedule.cdfg in
    let results =
      List.map
        (fun cls ->
          let ops =
            Array.to_list (Cdfg.ops cdfg)
            |> List.filter (fun o -> Cdfg.class_of o.Cdfg.kind = cls)
          in
          if ops = [] then ([], 0, 0)
          else
            let resources = resources cls in
            let fresh () =
              run_class ~params ~sa_table ~resources ~schedule ~regs
                ~paths cls ops
            in
            match state with
            | None -> fresh ()
            | Some st -> (
                let key =
                  ( cls,
                    params.H.alpha,
                    params.H.beta cls,
                    ST.width sa_table,
                    ST.k sa_table,
                    resources,
                    List.map
                      (fun o ->
                        let s, f = Schedule.active_steps schedule o.Cdfg.id in
                        ( o.Cdfg.id, s, f, reg regs o.Cdfg.left,
                          reg regs o.Cdfg.right ))
                      ops )
                in
                match Hashtbl.find_opt st.classes key with
                | Some r ->
                    st.counts.c_hits <- st.counts.c_hits + 1;
                    r
                | None ->
                    st.counts.c_misses <- st.counts.c_misses + 1;
                    let r = fresh () in
                    Hashtbl.replace st.classes key r;
                    r))
        Cdfg.all_classes
    in
    let groups = List.concat_map (fun (g, _, _) -> g) results in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
    (groups, sum (fun (_, i, _) -> i), sum (fun (_, _, p) -> p))
end

(* The set-based LOPASS binder, kept as the reference for [Lopass.bind]:
   a unit holds its busy steps and source registers as [Set.Make (Int)]
   values, and every (op, unit) pair priced builds the op's span afresh.
   Returns the groups it hands to [Binding.make]. *)
module Lopass_reference = struct
  module IS = Set.Make (Int)

  type fu_state = {
    mutable ops : int list;
    mutable busy : IS.t;
    mutable left_srcs : IS.t;
    mutable right_srcs : IS.t;
  }

  let bind ~regs ~resources schedule =
    let cdfg = schedule.Schedule.cdfg in
    let reg = Reference.reg regs in
    let bind_class cls =
      let n_units = Schedule.max_density schedule cls in
      if n_units > resources cls then
        failwith
          (Printf.sprintf "Lopass.bind: class %s density exceeds bound"
             (Cdfg.class_to_string cls));
      if n_units = 0 then []
      else begin
        let units =
          Array.init n_units (fun _ ->
              { ops = []; busy = IS.empty; left_srcs = IS.empty;
                right_srcs = IS.empty })
        in
        let by_step = Hashtbl.create 16 in
        Array.iter
          (fun o ->
            if Cdfg.class_of o.Cdfg.kind = cls then begin
              let s = schedule.Schedule.cstep.(o.Cdfg.id) in
              let l = Option.value ~default:[] (Hashtbl.find_opt by_step s) in
              Hashtbl.replace by_step s (o :: l)
            end)
          (Cdfg.ops cdfg);
        let steps =
          Hashtbl.fold (fun s _ acc -> s :: acc) by_step [] |> List.sort compare
        in
        List.iter
          (fun s ->
            let ops =
              Array.of_list
                (List.rev
                   (Option.value ~default:[] (Hashtbl.find_opt by_step s)))
            in
            let weight i j =
              let o = ops.(i) in
              let st, fi = Schedule.active_steps schedule o.Cdfg.id in
              let span = ref IS.empty in
              for x = st to fi do
                span := IS.add x !span
              done;
              if not (IS.disjoint units.(j).busy !span) then None
              else begin
                let mem r set = if IS.mem r set then 1 else 0 in
                let reuse =
                  mem (reg o.Cdfg.left) units.(j).left_srcs
                  + mem (reg o.Cdfg.right) units.(j).right_srcs
                in
                Some
                  (1.
                  +. (0.001 *. float_of_int reuse)
                  +. (0.01 /. float_of_int (1 + List.length units.(j).ops)))
              end
            in
            let pairs =
              Bipartite.max_weight_matching ~n_left:(Array.length ops)
                ~n_right:n_units ~weight
            in
            if List.length pairs <> Array.length ops then
              failwith "Lopass.bind: could not place every op (internal)";
            List.iter
              (fun (i, j) ->
                let o = ops.(i) in
                let st, fi = Schedule.active_steps schedule o.Cdfg.id in
                let unit = units.(j) in
                unit.ops <- o.Cdfg.id :: unit.ops;
                for x = st to fi do
                  unit.busy <- IS.add x unit.busy
                done;
                unit.left_srcs <- IS.add (reg o.Cdfg.left) unit.left_srcs;
                unit.right_srcs <- IS.add (reg o.Cdfg.right) unit.right_srcs)
              pairs)
          steps;
        Array.to_list units
        |> List.filter (fun u -> u.ops <> [])
        |> List.map (fun u -> (cls, List.sort compare u.ops))
      end
    in
    List.concat_map bind_class Cdfg.all_classes
end

(* The register binder as it priced each cell through the
   option-callback matching: two operand lookups and a list per (var,
   register) pair.  Kept as the reference for [Reg_binding.bind], which
   resolves a variable's side once per row; returns each variable's
   register in interval order. *)
module Reg_reference = struct
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
        base +. (if reads_r then 4. else 0.) +. if same_class then 1. else 0.

  let bind lt =
    let cdfg = (Lifetime.schedule lt).Schedule.cdfg in
    let num_regs = Lifetime.max_live lt in
    let assignment = Hashtbl.create 64 in
    let contents = Array.make (max num_regs 1) [] in
    let free_after = Array.make (max num_regs 1) (-1) in
    let ivs = Lifetime.intervals lt in
    let births =
      List.sort_uniq compare (List.map (fun iv -> iv.Lifetime.birth) ivs)
    in
    List.iter
      (fun birth ->
        let cluster =
          Array.of_list (List.filter (fun iv -> iv.Lifetime.birth = birth) ivs)
        in
        let free_regs =
          Array.of_list
            (List.filter
               (fun r -> free_after.(r) < birth)
               (List.init num_regs Fun.id))
        in
        let weight i j =
          let r = free_regs.(j) in
          Some
            (affinity cdfg assignment cluster.(i).Lifetime.var r contents.(r))
        in
        List.iter
          (fun (i, j) ->
            let iv = cluster.(i) and r = free_regs.(j) in
            Hashtbl.replace assignment iv.Lifetime.var r;
            contents.(r) <- iv.Lifetime.var :: contents.(r);
            free_after.(r) <- iv.Lifetime.death)
          (Bipartite.max_weight_matching ~n_left:(Array.length cluster)
             ~n_right:(Array.length free_regs) ~weight))
      births;
    List.map (fun iv -> Hashtbl.find assignment iv.Lifetime.var) ivs
end

(* --- random designs --------------------------------------------------- *)

(* One small table for every case: entries at width 2 map in
   microseconds, and Eq. 4 reads them exactly as it reads a width-16
   table. *)
let sa_table = ST.create ~width:2 ~k:4 ()

(* Ops in id order; operands from earlier ops or the inputs ([flat]:
   inputs only, so any start steps are a valid schedule). *)
let random_ops st ~num_inputs ~num_ops ~flat =
  let operand i =
    if (not flat) && i > 0 && Random.State.int st 5 < 3 then
      Cdfg.Op (Random.State.int st i)
    else Cdfg.Input (Random.State.int st num_inputs)
  in
  List.init num_ops (fun i ->
      let kind =
        match Random.State.int st 3 with
        | 0 -> Cdfg.Add
        | 1 -> Cdfg.Sub
        | _ -> Cdfg.Mult
      in
      { Cdfg.id = i; kind; left = operand i; right = operand i })

let graph ~num_inputs ops =
  let n = List.length ops in
  Cdfg.create ~name:"qdiff" ~num_inputs ~ops
    ~outputs:[ Cdfg.Op (n - 1); Cdfg.Op (n / 2) ]

let random_latency st =
  match Random.State.int st 3 with
  | 0 -> Schedule.unit_latency
  | 1 -> ( function Cdfg.Mult -> 2 | _ -> 1)
  | _ -> ( function Cdfg.Mult -> 3 | _ -> 2)

let random_schedule st ~latency ~flat cdfg =
  match Random.State.int st (if flat then 3 else 2) with
  | 0 -> Schedule.asap ~latency cdfg
  | 1 ->
      let cap = 1 + Random.State.int st 3 in
      Schedule.list_schedule ~latency cdfg ~resources:(fun _ -> cap)
  | _ ->
      let horizon = 1 + (Cdfg.num_ops cdfg / 2) in
      Schedule.of_csteps ~latency cdfg
        ~cstep:(Array.init (Cdfg.num_ops cdfg) (fun _ ->
             Random.State.int st horizon))

let random_alpha st =
  match Random.State.int st 4 with
  | 0 -> 0.
  | 1 -> 0.5
  | 2 -> 1.
  | _ -> Random.State.float st 1.

(* Density (at least 1) plus [spare] to [spare + 2] units per class. *)
let random_bound ?(spare = 0) st schedule =
  let extra = Array.init 2 (fun _ -> spare + Random.State.int st 3) in
  fun cls ->
    max 1 (Schedule.max_density schedule cls)
    + extra.(match cls with Cdfg.Add_sub -> 0 | Cdfg.Multiplier -> 1)

(* --- comparison ------------------------------------------------------- *)

let memo_counters = [ "hlpower.memo_class_hits"; "hlpower.memo_class_misses" ]

let counter_of deltas name =
  Option.value ~default:0 (List.assoc_opt name deltas)

let memo_counts (rs : Reference.state) =
  let c = rs.counts in
  [ c.c_hits; c.c_misses ]

(* Binds with both binders (each on its own state when [states] is
   given) and fails on the first difference. *)
let same_bind ?states ~params ~paths tag (schedule, regs, resources) =
  let before = Option.map (fun (_, rs) -> memo_counts rs) states in
  let r, deltas =
    Telemetry.with_scope (fun () ->
        H.bind ?state:(Option.map fst states) ~params ~sa_table ~regs
          ~resources schedule)
  in
  let groups, iterations, promoted =
    Reference.bind ?state:(Option.map snd states) ~params ~sa_table ~regs
      ~resources ~paths schedule
  in
  let got =
    List.map (fun f -> (f.Bind.fu_class, f.Bind.fu_ops)) r.H.binding.Bind.fus
  in
  if got <> groups then QCheck.Test.fail_reportf "%s: groups differ" tag;
  if r.H.iterations <> iterations then
    QCheck.Test.fail_reportf "%s: iterations %d, reference %d" tag
      r.H.iterations iterations;
  if r.H.promoted <> promoted then
    QCheck.Test.fail_reportf "%s: promotions %d, reference %d" tag
      r.H.promoted promoted;
  let expected =
    match (states, before) with
    | Some (_, rs), Some before -> List.map2 ( - ) (memo_counts rs) before
    | _ -> [ 0; 0 ]
  in
  List.iter2
    (fun name want ->
      let n = counter_of deltas name in
      if n <> want then
        QCheck.Test.fail_reportf "%s: %s %d, reference %d" tag name n want)
    memo_counters expected

(* One case: a random design [a] bound statelessly, then on one state as
   a session would: [a] cold and warm (the class memo replays), [a] with
   one op appended, [a] with 64 more (unread) inputs — wider register
   bitsets, same ops — and [a] again. *)
let check_case paths seed =
  let st = Random.State.make [| seed |] in
  let flat = Random.State.int st 4 = 0 in
  let num_inputs = 1 + Random.State.int st 4 in
  let num_ops = 2 + Random.State.int st 22 in
  let ops = random_ops st ~num_inputs ~num_ops:(num_ops + 1) ~flat in
  let a_ops = List.filteri (fun i _ -> i < num_ops) ops in
  let latency = random_latency st in
  let params = H.calibrate ~alpha:(random_alpha st) sa_table in
  let design schedule =
    (schedule, RB.bind (Lifetime.analyze schedule), random_bound st schedule)
  in
  let ((a_sched, _, _) as a) =
    design (random_schedule st ~latency ~flat (graph ~num_inputs a_ops))
  in
  let b = design (random_schedule st ~latency ~flat (graph ~num_inputs ops)) in
  let wide =
    design
      (Schedule.of_csteps ~latency
         (graph ~num_inputs:(num_inputs + 64) a_ops)
         ~cstep:a_sched.Schedule.cstep)
  in
  same_bind ~params ~paths "stateless" a;
  let states = (H.create_state (), Reference.create_state ()) in
  List.iter
    (fun (tag, d) -> same_bind ~states ~params ~paths tag d)
    [
      ("cold state", a);
      ("warm state", a);
      ("one op more", b);
      ("wider registers", wide);
      ("back again", a);
    ];
  true

let prop_same_as_reference =
  QCheck.Test.make ~name:"hlpower bind = set-based reference" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed -> check_case (Reference.new_paths ()) seed)

(* Over fixed seeds, every path of the binder must have run and agreed:
   promotion and first fit.  The reference still runs a fallback round
   (merge the best compatible pair of units) before first fit, which the
   binder does not: binds that ran one agreeing with the binder shows
   that the round never changed a result.  It cannot merge: the peak
   seeds share a step, a node is promoted only when no unit in U is
   compatible with any pending op, and merging only grows busy sets, so
   no two units in U are ever compatible. *)
let test_paths_covered () =
  let paths = Reference.new_paths () in
  for seed = 0 to 99 do
    ignore (check_case paths seed)
  done;
  let check what n = Alcotest.(check bool) what true (n > 0) in
  check "some bind promoted" paths.promotions;
  check "some bind ran a fallback round" paths.fallback_rounds;
  check "some bind fell back to first fit" paths.first_fits

(* Registers of one random design: every variable in the register the
   reference binder gives it. *)
let prop_regs_same_as_reference =
  QCheck.Test.make ~name:"register bind = option-callback reference"
    ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let flat = Random.State.int st 4 = 0 in
      let num_inputs = 1 + Random.State.int st 4 in
      let num_ops = 2 + Random.State.int st 30 in
      let ops = random_ops st ~num_inputs ~num_ops ~flat in
      let latency = random_latency st in
      let lt =
        Lifetime.analyze
          (random_schedule st ~latency ~flat (graph ~num_inputs ops))
      in
      let regs = RB.bind lt in
      List.map (fun iv -> RB.reg_of_var regs iv.Lifetime.var)
        (Lifetime.intervals lt)
      = Reg_reference.bind lt)

(* LOPASS on one random design, under a bound from one below the
   density upward, so that some classes cannot be bound: [Lopass.bind]
   must return the reference's groups in the same order, or raise the
   same [Failure].  Returns whether the bind failed. *)
let lopass_case seed =
  let st = Random.State.make [| seed |] in
  let flat = Random.State.int st 4 = 0 in
  let num_inputs = 1 + Random.State.int st 4 in
  let num_ops = 2 + Random.State.int st 30 in
  let ops = random_ops st ~num_inputs ~num_ops ~flat in
  let latency = random_latency st in
  let schedule = random_schedule st ~latency ~flat (graph ~num_inputs ops) in
  let regs = RB.bind (Lifetime.analyze schedule) in
  let resources = random_bound ~spare:(-1) st schedule in
  let outcome bind =
    match bind () with groups -> Ok groups | exception Failure m -> Error m
  in
  let got =
    outcome (fun () ->
        List.map
          (fun f -> (f.Bind.fu_class, f.Bind.fu_ops))
          (Lopass.bind ~regs ~resources schedule).Bind.fus)
  in
  let want =
    outcome (fun () -> Lopass_reference.bind ~regs ~resources schedule)
  in
  let show = function
    | Ok groups -> Printf.sprintf "%d units" (List.length groups)
    | Error m -> m
  in
  if got <> want then
    QCheck.Test.fail_reportf "seed %d: %s, reference %s" seed (show got)
      (show want);
  Result.is_error got

let prop_lopass_same_as_reference =
  QCheck.Test.make ~name:"lopass bind = set-based reference" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      ignore (lopass_case seed);
      true)

let test_lopass_outcomes_covered () =
  let failed = List.init 100 lopass_case in
  Alcotest.(check bool) "some bind failed" true (List.mem true failed);
  Alcotest.(check bool) "some bind succeeded" true (List.mem false failed)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_same_as_reference;
    Alcotest.test_case "promotion, fallback and first fit all compared"
      `Quick test_paths_covered;
    QCheck_alcotest.to_alcotest prop_lopass_same_as_reference;
    Alcotest.test_case "lopass binds and bound failures both compared"
      `Quick test_lopass_outcomes_covered;
    QCheck_alcotest.to_alcotest prop_regs_same_as_reference;
  ]
