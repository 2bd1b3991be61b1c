module Json = Hlp_util.Json
module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Benchmarks = Hlp_cdfg.Benchmarks
module Reg_binding = Hlp_core.Reg_binding
module Binding = Hlp_core.Binding
module Sa_table = Hlp_core.Sa_table
module Hlpower = Hlp_core.Hlpower
module Binder = Hlp_core.Binder
module Flow = Hlp_rtl.Flow
module Explore = Hlp_hls.Explore
module Diagnostic = Hlp_lint.Diagnostic

module Delta = Hlp_cdfg.Delta
module Clock = Hlp_util.Clock
module Telemetry = Hlp_util.Telemetry

let c_sessions_opened = Telemetry.counter "router.sessions_opened"
let c_sessions_closed = Telemetry.counter "router.sessions_closed"
let c_sessions_evicted = Telemetry.counter "router.sessions_evicted"
let c_session_edits = Telemetry.counter "router.session_edits"
let c_session_reply_hits = Telemetry.counter "router.session_reply_hits"

(* One incremental re-binding session: the client's current graph plus
   every piece of warm state an edit can reuse — the ASAP schedule (which
   add/remove deltas patch instead of recomputing), the binder state
   (Eq. 4 and per-class memos), and a whole-reply cache keyed by the
   canonical (graph, alpha, resources) the reply depends on, so an edit
   stream that revisits a state is answered with the identical bytes in
   microseconds.  [s_mu] serializes edits, and with them [s_key], the
   one buffer every reply key of the session is written in; the table
   mutex is never held while a session works. *)
type session = {
  s_id : string;
  s_mu : Mutex.t;
  s_binder : string;
  s_width : int;
  s_k : int;
  s_state : Hlpower.state;
  s_replies : (string, string) Hashtbl.t;
  s_key : Buffer.t;
  mutable s_cdfg : Cdfg.t;
  mutable s_schedule : Schedule.t;
  (* Lazy so a reply-cache hit never pays for register rebinding: the
     edit path installs a thunk and only a cache-missing bind forces
     it. *)
  mutable s_regs : Reg_binding.t Lazy.t;
  mutable s_alpha : float;
  mutable s_res_add : int option;
  mutable s_res_mult : int option;
  mutable s_edits : int;
  mutable s_reply_hits : int;
  mutable s_last_used : float;  (* Clock.now (), the injectable timeline *)
}

type t = {
  sa_cache_dir : string option;
  mu : Mutex.t;  (* guards the registry map, not the tables themselves *)
  tables : (int * int, Sa_table.t) Hashtbl.t;
  bmu : Mutex.t;  (* guards [benches] *)
  benches : (string, Binder.prepared) Hashtbl.t;
  session_ttl_s : float;
  max_sessions : int;
  smu : Mutex.t;  (* guards the session table and counters below *)
  sessions : (string, session) Hashtbl.t;
  mutable session_seq : int;
  mutable s_opened : int;
  mutable s_closed : int;
  mutable s_evicted : int;
}

let default_session_ttl_ms = 600_000
let default_max_sessions = 256

let env_int name ~default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> default)
  | None -> default

let create ?sa_cache_dir ?session_ttl_ms ?max_sessions () =
  let ttl_ms =
    match session_ttl_ms with
    | Some ms -> max 1 ms
    | None -> env_int "HLP_SESSION_TTL_MS" ~default:default_session_ttl_ms
  in
  let max_sessions =
    match max_sessions with
    | Some n -> max 1 n
    | None -> env_int "HLP_SESSION_MAX" ~default:default_max_sessions
  in
  {
    sa_cache_dir;
    mu = Mutex.create ();
    tables = Hashtbl.create 4;
    bmu = Mutex.create ();
    benches = Hashtbl.create 8;
    session_ttl_s = float_of_int ttl_ms /. 1000.;
    max_sessions;
    smu = Mutex.create ();
    sessions = Hashtbl.create 16;
    session_seq = 0;
    s_opened = 0;
    s_closed = 0;
    s_evicted = 0;
  }

(* One warm table per (width, k), created on first use and shared by
   every subsequent request: the first bind at a given width pays the
   fill (or loads it from the disk cache), everything after is served
   from memory.  Sa_table is internally mutex-guarded, so handing the
   same table to concurrent workers is safe. *)
let sa_table t ~width ~k =
  Mutex.lock t.mu;
  let table =
    match Hashtbl.find_opt t.tables (width, k) with
    | Some table -> table
    | None ->
        let table =
          match t.sa_cache_dir with
          | Some dir -> Sa_table.create_persistent ~width ~k ~dir ()
          | None -> Sa_table.create_default ~width ~k ()
        in
        Hashtbl.replace t.tables (width, k) table;
        table
  in
  Mutex.unlock t.mu;
  table

let all_tables t =
  Mutex.lock t.mu;
  let l = Hashtbl.fold (fun _ table acc -> table :: acc) t.tables [] in
  Mutex.unlock t.mu;
  l

let persist t = List.iter Sa_table.persist (all_tables t)

let sa_stats_json t : Json.t =
  Json.List
    (List.map
       (fun table ->
         Json.Obj
           [
             ("width", Json.Int (Sa_table.width table));
             ("k", Json.Int (Sa_table.k table));
             ("entries", Json.Int (List.length (Sa_table.entries table)));
             ("hits", Json.Int (Sa_table.hits table));
             ("misses", Json.Int (Sa_table.misses table));
             ("disk_hits", Json.Int (Sa_table.disk_hits table));
             ("disk_entries", Json.Int (Sa_table.disk_entries table));
             ( "cache_file",
               match Sa_table.cache_file table with
               | Some p -> Json.String p
               | None -> Json.Null );
           ])
       (List.sort
          (fun a b ->
            compare (Sa_table.width a, Sa_table.k a)
              (Sa_table.width b, Sa_table.k b))
          (all_tables t)))

(* A named benchmark's preparation (list schedule under its Table 2
   bound, then register binding), made on first use and shared by every
   bind and flow that names it: a prepared design is never mutated, and
   there are at most as many as [Benchmarks.all].  The first use prepares
   under the lock, so a racing one waits instead of preparing twice. *)
let prepared_bench t name =
  Mutex.protect t.bmu @@ fun () ->
  match Hashtbl.find_opt t.benches name with
  | Some prepared -> prepared
  | None ->
      (* [Not_found] maps to S004 in [handle]'s backstop. *)
      let prepared = Binder.prepare (Binder.Bench (Benchmarks.find name, 0)) in
      Hashtbl.replace t.benches name prepared;
      prepared

let prepared_benches t =
  Mutex.protect t.bmu (fun () ->
      List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.benches []))

let unknown_design ~what name expected =
  [
    Diagnostic.error "S004" Design "unknown %s %S (expected one of %s)" what
      name (String.concat ", " expected);
  ]

let bind_binding t ~checkpoint (p : Protocol.bind_params) =
  let design_base, prepared =
    match p.graph with
    | Some cdfg -> (Cdfg.name cdfg, Binder.prepare (Binder.Graph cdfg))
    | None -> (p.bench, prepared_bench t p.bench)
  in
  checkpoint "bind";
  let binder = Binder.of_name ~alpha:p.alpha p.binder in
  let r =
    Binder.run ~sa_table:(lazy (sa_table t ~width:p.width ~k:4)) binder
      prepared
  in
  let binding =
    if p.port_assign then Hlp_core.Port_assign.optimize r.binding
    else r.binding
  in
  (design_base ^ "-" ^ Binder.name binder, binding, r.hlpower)

let mux_stats_json (s : Binding.mux_stats) : Json.t =
  Json.Obj
    [
      ("largest_mux", Json.Int s.largest_mux);
      ("mux_length", Json.Int s.mux_length);
      ("mux_count", Json.Int s.mux_count);
      ("fu_mux_diff_mean", Json.Float s.fu_mux_diff_mean);
      ("fu_mux_diff_var", Json.Float s.fu_mux_diff_var);
      ("num_fu", Json.Int s.num_fu);
    ]

(* The op-independent bind result shape, shared by [bind] and the
   session ops (whose acceptance property literally compares these
   objects against a from-scratch bind). *)
let bind_result_json ~design ~hlp (binding : Binding.t) : Json.t =
  let stats = Binding.mux_stats binding in
  Json.Obj
    ([
       ("design", Json.String design);
       ("csteps", Json.Int binding.schedule.Schedule.num_csteps);
       ("regs", Json.Int (Reg_binding.num_regs binding.regs));
       ( "add_fus",
         Json.Int (Binding.num_fus binding Cdfg.Add_sub) );
       ( "mult_fus",
         Json.Int (Binding.num_fus binding Cdfg.Multiplier) );
       ("mux_stats", mux_stats_json stats);
     ]
    @
    match hlp with
    | None -> []
    | Some r ->
        [
          ("iterations", Json.Int r.Hlpower.iterations);
          ("promoted", Json.Int r.Hlpower.promoted);
        ])

let handle_bind t ~checkpoint p =
  let design, binding, hlp = bind_binding t ~checkpoint p in
  bind_result_json ~design ~hlp binding

let handle_flow t ~checkpoint (p : Protocol.bind_params) =
  let design, binding, _ = bind_binding t ~checkpoint p in
  let estimator =
    Option.value ~default:`Sim
      (Hlp_rtl.Power.estimator_of_string p.estimator)
  in
  let config =
    {
      Flow.default_config with
      Flow.width = p.width;
      vectors = p.vectors;
      estimator;
      model =
        (* Validated at the protocol boundary (S011); anything that
           reaches here is finite, normal and in physical range. *)
        Option.value ~default:Flow.default_config.Flow.model p.model;
    }
  in
  Flow.json_of_report
    (Flow.run ~checkpoint ~config ~design binding)

let handle_explore t ~checkpoint (p : Protocol.explore_params) =
  checkpoint "explore";
  let profile = Benchmarks.find p.ex_bench in
  let cdfg = Benchmarks.generate profile in
  let config =
    {
      Explore.vectors = p.ex_vectors;
      add_range = p.ex_adds;
      mult_range = p.ex_mults;
      alphas = p.ex_alphas;
    }
  in
  let sa_table = sa_table t ~width:p.ex_width ~k:4 in
  let points = Explore.sweep ~config ~sa_table cdfg in
  let front = Explore.pareto points in
  let point_json (pt : Explore.point) =
    Json.Obj
      [
        ("add_units", Json.Int pt.add_units);
        ("mult_units", Json.Int pt.mult_units);
        ("alpha", Json.Float pt.alpha);
        ("csteps", Json.Int pt.csteps);
        ("latency_ns", Json.Float pt.latency_ns);
        ("clock_ns", Json.Float pt.clock_ns);
        ("regs", Json.Int pt.regs);
        ("luts", Json.Int pt.luts);
        ("power_mw", Json.Float pt.power_mw);
        ("toggle_mhz", Json.Float pt.toggle_mhz);
        ("pareto", Json.Bool (List.memq pt front));
      ]
  in
  Json.Obj
    [
      ("bench", Json.String p.ex_bench);
      ("points", Json.List (List.map point_json points));
      ("pareto_size", Json.Int (List.length front));
    ]

let handle_lint t ~checkpoint (p : Protocol.lint_params) =
  checkpoint "lint";
  let config = { Flow.default_config with Flow.width = p.lint_width } in
  let sa_table = lazy (sa_table t ~width:p.lint_width ~k:4) in
  let results =
    List.map
      (fun (design, binding) ->
        checkpoint "lint";
        (design, Hlp_lint.Lint.run_all ~config ~design (binding ())))
      (Hlp_lint.Lint.designs ?bench:p.lint_bench ~binder:p.lint_binder
         ~sa_table ())
  in
  let errors =
    List.fold_left
      (fun n (_, ds) -> n + List.length (Diagnostic.errors ds))
      0 results
  in
  Json.Obj
    [
      ("designs", Json.Int (List.length results));
      ("errors", Json.Int errors);
      ("report", Hlp_lint.Lint.json_report results);
    ]

let handle_ping ~checkpoint ms =
  (* Sleep in short slices with a checkpoint between each, so a ping
     with a deadline exercises mid-job cancellation deterministically —
     the serving tests and the smoke job rely on this. *)
  (* Raw monotonic, not the injectable {!Hlp_util.Clock.now}: the sleep
     pacing is physical (a frozen fake timeline must not make a ping
     sleep forever), while the deadline [checkpoint] between slices
     stays on the injectable timeline. *)
  let slice = 0.01 in
  let deadline =
    Hlp_util.Clock.monotonic () +. (float_of_int ms /. 1000.)
  in
  let rec nap () =
    checkpoint "ping";
    let remaining = deadline -. Hlp_util.Clock.monotonic () in
    if remaining > 0. then (
      Unix.sleepf (Float.min slice remaining);
      nap ())
  in
  nap ();
  Json.Obj [ ("pong", Json.Bool true); ("slept_ms", Json.Int ms) ]

(* --- incremental re-binding sessions --- *)

(* Resolved per-class resource bound: the explicit override when set,
   else the schedule's own density (the paper's lower bound, always
   feasible). *)
let session_resources s cls =
  let override =
    match cls with
    | Cdfg.Add_sub -> s.s_res_add
    | Cdfg.Multiplier -> s.s_res_mult
  in
  match override with
  | Some n -> n
  | None -> Binder.density_bound s.s_schedule cls

(* [n]'s decimal digits, the bytes [string_of_int n] would give, written
   straight into [b] with no intermediate string. *)
let rec add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    (* -(n / 10) and -(n mod 10) are representable even for min_int *)
    if n <= -10 then add_int b (-(n / 10));
    Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))
  end
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

(* Injective graph fingerprint for the reply-cache key: a flat encoding
   of exactly the structure the wire JSON carries (name, input count,
   every op's kind and operands, the output list), but written straight
   into a buffer — no tree, no escaping, no string per number — so
   keying an edit costs a few microseconds instead of a full JSON
   render.  Each variable-length field is delimited, so equal keys imply
   equal graphs. *)
let add_graph_key b (g : Cdfg.t) =
  Buffer.add_string b (Cdfg.name g);
  Buffer.add_char b '\x00';
  add_int b (Cdfg.num_inputs g);
  let operand = function
    | Cdfg.Input k ->
        Buffer.add_char b 'i';
        add_int b k
    | Cdfg.Op j ->
        Buffer.add_char b 'o';
        add_int b j
  in
  for i = 0 to Cdfg.num_ops g - 1 do
    let op = Cdfg.op g i in
    Buffer.add_char b
      (match op.Cdfg.kind with Cdfg.Add -> '+' | Cdfg.Sub -> '-'
      | Cdfg.Mult -> '*');
    operand op.Cdfg.left;
    operand op.Cdfg.right
  done;
  Buffer.add_char b '>';
  List.iter operand (Cdfg.outputs g)

(* About the key's size: an op takes 11 bytes at four-digit indices. *)
let key_capacity (g : Cdfg.t) =
  String.length (Cdfg.name g)
  + 64
  + (12 * Cdfg.num_ops g)
  + (6 * List.length (Cdfg.outputs g))

let graph_key g =
  let b = Buffer.create (key_capacity g) in
  add_graph_key b g;
  Buffer.contents b

(* Whole-reply cache key: the canonical encoding of everything the bind
   result depends on within one session (binder, width and K are fixed
   per session, so they stay out of the key), after the graph
   fingerprint, in the session's key buffer.  The graph fingerprint is
   structurally exact; alpha is rendered as a hex float so distinct
   values never collide.  The caller holds [s_mu], or the session is not
   yet published. *)
let session_reply_key s =
  let b = s.s_key in
  Buffer.clear b;
  add_graph_key b s.s_cdfg;
  Printf.bprintf b "|%h|%d|%d" s.s_alpha
    (session_resources s Cdfg.Add_sub)
    (session_resources s Cdfg.Multiplier);
  Buffer.contents b

let session_bind t s ~checkpoint : Json.t =
  checkpoint "bind";
  let binder = Binder.of_name ~alpha:s.s_alpha s.s_binder in
  let r =
    Binder.run ~state:s.s_state ~resources:(session_resources s)
      ~sa_table:(lazy (sa_table t ~width:s.s_width ~k:s.s_k))
      binder
      { Binder.schedule = s.s_schedule; regs = Lazy.force s.s_regs }
  in
  bind_result_json
    ~design:(Cdfg.name s.s_cdfg ^ "-" ^ Binder.name binder)
    ~hlp:r.hlpower r.binding

(* Returns the rendered bind object plus whether the whole reply came
   from the cache.  Replies are cached as strings and re-emitted as
   [Json.Raw], so a hit is byte-identical to the bind that populated
   it. *)
let session_bind_cached t s ~checkpoint =
  let key = session_reply_key s in
  match Hashtbl.find_opt s.s_replies key with
  | Some rendered ->
      s.s_reply_hits <- s.s_reply_hits + 1;
      Telemetry.incr c_session_reply_hits;
      (rendered, true)
  | None ->
      let rendered = Json.to_string (session_bind t s ~checkpoint) in
      Hashtbl.replace s.s_replies key rendered;
      (rendered, false)

let sweep_expired_locked t =
  let now = Clock.now () in
  let expired =
    Hashtbl.fold
      (fun id s acc ->
        if now -. s.s_last_used > t.session_ttl_s then (id, s) :: acc
        else acc)
      t.sessions []
  in
  List.iter
    (fun (id, _) ->
      Hashtbl.remove t.sessions id;
      t.s_evicted <- t.s_evicted + 1;
      Telemetry.incr c_sessions_evicted)
    expired

let find_session t id =
  Mutex.lock t.smu;
  sweep_expired_locked t;
  let r = Hashtbl.find_opt t.sessions id in
  (match r with Some s -> s.s_last_used <- Clock.now () | None -> ());
  Mutex.unlock t.smu;
  r

let unknown_session id =
  [
    Diagnostic.error "S013" Design
      "unknown, closed or expired session %S" id;
  ]

let session_ttl_ms t = int_of_float (t.session_ttl_s *. 1000.)

let handle_session_open t ~checkpoint (p : Protocol.session_open_params) =
  checkpoint "session";
  let cdfg =
    match p.so_graph with
    | Some g -> g
    | None ->
        (* [Not_found] maps to S004 in [handle]'s backstop. *)
        Benchmarks.generate (Benchmarks.find p.so_bench)
  in
  (* Sessions schedule ASAP (unit latency, unconstrained): ASAP is a
     single forward pass, which is what makes add/remove deltas
     patchable in O(1) with a provably identical result.  Resource
     bounds constrain the binder, not the schedule. *)
  let schedule = Schedule.asap cdfg in
  let regs = lazy (Reg_binding.bind (Lifetime.analyze schedule)) in
  Mutex.lock t.smu;
  sweep_expired_locked t;
  if Hashtbl.length t.sessions >= t.max_sessions then begin
    Mutex.unlock t.smu;
    Error
      [
        Diagnostic.error "S015" Design
          "session table is full (%d open); close or let one expire"
          t.max_sessions;
      ]
  end
  else begin
    t.session_seq <- t.session_seq + 1;
    let id = Printf.sprintf "s-%d" t.session_seq in
    Mutex.unlock t.smu;
    let s =
      {
        s_id = id;
        s_mu = Mutex.create ();
        s_binder = p.so_binder;
        s_width = p.so_width;
        s_k = p.so_k;
        s_state = Hlpower.create_state ();
        s_replies = Hashtbl.create 16;
        s_key = Buffer.create (key_capacity cdfg);
        s_cdfg = cdfg;
        s_schedule = schedule;
        s_regs = regs;
        s_alpha = p.so_alpha;
        s_res_add = p.so_res_add;
        s_res_mult = p.so_res_mult;
        s_edits = 0;
        s_reply_hits = 0;
        s_last_used = Clock.now ();
      }
    in
    (* Bind before publishing the session: a failing open (infeasible
       explicit bound, calibration failure) leaves no session behind. *)
    let rendered, _ = session_bind_cached t s ~checkpoint in
    Mutex.lock t.smu;
    Hashtbl.replace t.sessions id s;
    t.s_opened <- t.s_opened + 1;
    Mutex.unlock t.smu;
    Telemetry.incr c_sessions_opened;
    Ok
      (Json.Obj
         [
           ("session", Json.String id);
           ("ttl_ms", Json.Int (session_ttl_ms t));
           ("bind", Json.Raw rendered);
         ])
  end

(* Apply one delta to a session.  The candidate graph/schedule/bounds
   are validated first (S014 on any problem, session untouched), then
   committed and bound; an unexpected binder exception rolls the fields
   back so the session never holds a state it cannot bind. *)
let session_apply_delta t s ~checkpoint (delta : Protocol.session_delta) =
  let invalid fmt = Printf.ksprintf (fun m -> Stdlib.Error m) fmt in
  let candidate =
    match delta with
    | Protocol.D_add_op { d_kind; d_left; d_right; d_output } -> (
        if Cdfg.num_ops s.s_cdfg >= Protocol.max_graph_ops then
          invalid "graph already has %d ops, the admission limit"
            Protocol.max_graph_ops
        else if
          d_output
          && List.length (Cdfg.outputs s.s_cdfg)
             >= Protocol.max_graph_outputs
        then
          invalid "graph already has %d outputs, the admission limit"
            Protocol.max_graph_outputs
        else
          match
            Delta.apply s.s_cdfg
              (Delta.Add_op
                 {
                   kind = d_kind;
                   left = d_left;
                   right = d_right;
                   output = d_output;
                 })
          with
          | Stdlib.Error m -> Stdlib.Error m
          | Ok cdfg' ->
              let schedule' = Schedule.patch_append s.s_schedule cdfg' in
              Ok (cdfg', schedule', s.s_alpha, s.s_res_add, s.s_res_mult))
    | Protocol.D_remove_op id -> (
        match Delta.apply s.s_cdfg (Delta.Remove_op id) with
        | Stdlib.Error m -> Stdlib.Error m
        | Ok cdfg' ->
            let schedule' =
              Schedule.patch_remove s.s_schedule cdfg' ~removed:id
            in
            Ok (cdfg', schedule', s.s_alpha, s.s_res_add, s.s_res_mult))
    | Protocol.D_set_resource (cls, n) ->
        let res_add, res_mult =
          match cls with
          | Cdfg.Add_sub -> (Some n, s.s_res_mult)
          | Cdfg.Multiplier -> (s.s_res_add, Some n)
        in
        Ok (s.s_cdfg, s.s_schedule, s.s_alpha, res_add, res_mult)
    | Protocol.D_set_alpha a ->
        Ok (s.s_cdfg, s.s_schedule, a, s.s_res_add, s.s_res_mult)
  in
  match candidate with
  | Stdlib.Error m -> Stdlib.Error m
  | Ok (cdfg, schedule, alpha, res_add, res_mult) -> (
      (* Explicit bounds must stay feasible against the candidate
         schedule — this covers both set_resource below the density and
         add_op raising the density above an existing bound. *)
      let infeasible =
        List.find_map
          (fun cls ->
            let bound =
              match cls with
              | Cdfg.Add_sub -> res_add
              | Cdfg.Multiplier -> res_mult
            in
            match bound with
            | None -> None
            | Some n ->
                let need = Schedule.max_density schedule cls in
                if n < need then Some (cls, n, need) else None)
          Cdfg.all_classes
      in
      match infeasible with
      | Some (cls, n, need) ->
          invalid
            "resource bound %d for class %s is below the schedule's \
             density %d"
            n
            (Cdfg.class_to_string cls)
            need
      | None -> (
          let saved =
            ( s.s_cdfg,
              s.s_schedule,
              s.s_regs,
              s.s_alpha,
              s.s_res_add,
              s.s_res_mult )
          in
          let regs =
            if cdfg == s.s_cdfg then s.s_regs
            else lazy (Reg_binding.bind (Lifetime.analyze schedule))
          in
          s.s_cdfg <- cdfg;
          s.s_schedule <- schedule;
          s.s_regs <- regs;
          s.s_alpha <- alpha;
          s.s_res_add <- res_add;
          s.s_res_mult <- res_mult;
          match session_bind_cached t s ~checkpoint with
          | result -> Ok result
          | exception e ->
              let cdfg, schedule, regs, alpha, res_add, res_mult = saved in
              s.s_cdfg <- cdfg;
              s.s_schedule <- schedule;
              s.s_regs <- regs;
              s.s_alpha <- alpha;
              s.s_res_add <- res_add;
              s.s_res_mult <- res_mult;
              raise e))

let handle_session_edit t ~checkpoint (p : Protocol.session_edit_params) =
  match find_session t p.se_session with
  | None -> Error (unknown_session p.se_session)
  | Some s ->
      Mutex.lock s.s_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.s_mu)
        (fun () ->
          checkpoint "session";
          match session_apply_delta t s ~checkpoint p.se_delta with
          | Stdlib.Error m ->
              Error
                [
                  Diagnostic.error "S014" Design "invalid delta: %s" m;
                ]
          | Ok (rendered, cached) ->
              s.s_edits <- s.s_edits + 1;
              Telemetry.incr c_session_edits;
              Ok
                (Json.Obj
                   [
                     ("session", Json.String s.s_id);
                     ("edit", Json.Int s.s_edits);
                     ("cached", Json.Bool cached);
                     ("bind", Json.Raw rendered);
                   ]))

let handle_session_close t (p : Protocol.session_close_params) =
  Mutex.lock t.smu;
  sweep_expired_locked t;
  let found = Hashtbl.find_opt t.sessions p.sc_session in
  (match found with
  | Some _ ->
      Hashtbl.remove t.sessions p.sc_session;
      t.s_closed <- t.s_closed + 1
  | None -> ());
  Mutex.unlock t.smu;
  match found with
  | None -> Error (unknown_session p.sc_session)
  | Some s ->
      Telemetry.incr c_sessions_closed;
      Ok
        (Json.Obj
           [
             ("session", Json.String s.s_id);
             ("closed", Json.Bool true);
             ("edits", Json.Int s.s_edits);
             ("reply_cache_hits", Json.Int s.s_reply_hits);
           ])

let open_sessions t =
  Mutex.lock t.smu;
  let n = Hashtbl.length t.sessions in
  Mutex.unlock t.smu;
  n

let drain_sessions t =
  Mutex.lock t.smu;
  let n = Hashtbl.length t.sessions in
  Hashtbl.reset t.sessions;
  t.s_closed <- t.s_closed + n;
  Mutex.unlock t.smu;
  if n > 0 then Telemetry.count "router.sessions_drained" n;
  n

let session_stats_json t : Json.t =
  Mutex.lock t.smu;
  let open_ = Hashtbl.length t.sessions in
  let opened = t.s_opened and closed = t.s_closed and evicted = t.s_evicted in
  Mutex.unlock t.smu;
  Json.Obj
    [
      ("open", Json.Int open_);
      ("opened", Json.Int opened);
      ("closed", Json.Int closed);
      ("evicted", Json.Int evicted);
      ("ttl_ms", Json.Int (session_ttl_ms t));
      ("max", Json.Int t.max_sessions);
    ]

let handle t ~checkpoint (op : Protocol.op) =
  let bench_of = function
    | Protocol.Bind p | Protocol.Flow p -> Some p.bench
    | Protocol.Explore p -> Some p.ex_bench
    | Protocol.Lint { lint_bench; _ } -> lint_bench
    | Protocol.Session_open p -> Some p.so_bench
    | Protocol.Session_edit _ | Protocol.Session_close _
    | Protocol.Ping _ | Protocol.Stats | Protocol.Cluster_stats ->
        None
  in
  match
    match op with
    | Protocol.Ping ms -> Ok (handle_ping ~checkpoint ms)
    | Protocol.Bind p -> Ok (handle_bind t ~checkpoint p)
    | Protocol.Flow p -> Ok (handle_flow t ~checkpoint p)
    | Protocol.Explore p -> Ok (handle_explore t ~checkpoint p)
    | Protocol.Lint p -> Ok (handle_lint t ~checkpoint p)
    | Protocol.Session_open p -> handle_session_open t ~checkpoint p
    | Protocol.Session_edit p -> handle_session_edit t ~checkpoint p
    | Protocol.Session_close p -> handle_session_close t p
    | Protocol.Stats | Protocol.Cluster_stats ->
        Error
          [
            Diagnostic.error "S006" Design
              "stats is served by the daemon, not the router";
          ]
  with
  | result -> result
  | exception Not_found ->
      let name = Option.value ~default:"?" (bench_of op) in
      Error
        (match op with
        | Protocol.Lint _ ->
            unknown_design ~what:"design" name Hlp_lint.Lint.design_names
        | _ ->
            unknown_design ~what:"benchmark" name
              (List.map (fun p -> p.Benchmarks.bench_name) Benchmarks.all))
  | exception Hlpower.Calibration_error msg ->
      (* A structured client error, not an internal 500: the requested
         (width, K) library cannot produce the calibration entry. *)
      Error [ Diagnostic.error "S016" Design "%s" msg ]
  | exception (Failure msg | Invalid_argument msg) ->
      (* Binder/pipeline failures on valid-shaped input (e.g. an
         infeasible allocation) are client errors, not daemon bugs. *)
      Error [ Diagnostic.error "S005" Design "%s" msg ]
