module P = Hlp_server.Protocol
module Json = Hlp_server.Json
module Telemetry = Hlp_util.Telemetry
module Clock = Hlp_util.Clock
module Diagnostic = P.Diagnostic

type config = {
  socket_path : string;
  tcp_port : int option;
  backends : (string * Forwarder.addr) list;
  vnodes : int;
  ping_interval_ms : int;
  fail_threshold : int;
  max_frame : int;
  max_inflight : int;
  retry_attempts : int;
  retry_backoff_ms : int;
  forward_timeout_s : float option;
  metrics_port : int option;
}

let default_config =
  {
    socket_path = "/tmp/hlpowerd-head.sock";
    tcp_port = None;
    backends = [];
    vnodes = 128;
    ping_interval_ms = 500;
    fail_threshold = 2;
    max_frame = P.default_max_frame;
    max_inflight = 256;
    retry_attempts = 3;
    retry_backoff_ms = 25;
    forward_timeout_s = None;
    metrics_port = None;
  }

type conn_entry = {
  cfd : Unix.file_descr;
  writer : P.writer;
  mutable cth : Thread.t option;
}

type t = {
  cfg : config;
  ring : Ring.t;
  health : Health.t;
  fwd : Forwarder.t;
  fingerprint : string;
  listeners : Unix.file_descr list;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop : bool Atomic.t;
  started_at : float;
  inflight : int Atomic.t;
  rr : int Atomic.t;  (* round-robin cursor for keyless ops *)
  conn_mu : Mutex.t;
  mutable conns : conn_entry list;
  mutable metrics : Hlp_server.Metrics.t option;
  mutable health_th : Thread.t option;
  (* per-shard forward counters, for stats/metrics *)
  counts_mu : Mutex.t;
  counts : (string, int) Hashtbl.t;
}

let config t = t.cfg
let addr_of t name = List.assoc name t.cfg.backends

let count_shard t name =
  Mutex.lock t.counts_mu;
  Hashtbl.replace t.counts name
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts name));
  Mutex.unlock t.counts_mu;
  Telemetry.count ("cluster.forward." ^ name) 1

(* A ping frame the head originates itself (health checks).  Id 0 is
   fine: these replies are consumed here, never relayed. *)
let ping_frame =
  P.encode_request { P.id = Json.Int 0; deadline_ms = Some 2000; op = P.Ping 0 }

let reply_is_ok line =
  match P.decode_reply line with
  | Ok { P.payload = P.Result _; _ } -> true
  | Ok { P.payload = P.Error _; _ } | Error _ -> false

let create ?(config = default_config) () =
  if config.backends = [] then
    invalid_arg "Head.create: no backends configured";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fwd = Forwarder.create ~max_frame:config.max_frame () in
  let ping name =
    match
      Forwarder.request_raw
        ?timeout_s:
          (Some (Option.value ~default:2. config.forward_timeout_s))
        fwd
        (List.assoc name config.backends)
        ping_frame
    with
    | Ok line -> reply_is_ok line
    | Error _ -> false
  in
  let health =
    Health.create ~interval_ms:config.ping_interval_ms
      ~fail_threshold:config.fail_threshold ~ping
      (List.map fst config.backends)
  in
  let listeners =
    Hlp_server.Server.listen_unix config.socket_path
    ::
    (match config.tcp_port with
    | Some p -> [ Hlp_server.Server.listen_tcp p ]
    | None -> [])
  in
  let wake_r, wake_w = Unix.pipe () in
  {
    cfg = config;
    ring = Ring.create ~vnodes:config.vnodes (List.map fst config.backends);
    health;
    fwd;
    fingerprint = Hlp_core.Sa_table.fingerprint ();
    listeners;
    wake_r;
    wake_w;
    stop = Atomic.make false;
    started_at = Clock.monotonic ();
    inflight = Atomic.make 0;
    rr = Atomic.make 0;
    conn_mu = Mutex.create ();
    conns = [];
    metrics = None;
    health_th = None;
    counts_mu = Mutex.create ();
    counts = Hashtbl.create 8;
  }

let shutdown t =
  if not (Atomic.exchange t.stop true) then
    try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()

let install_signal_handlers t =
  let handle _ = shutdown t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle)

let force_health_round t = Health.force_round t.health

let stats_json t : Json.t =
  let shard_objs =
    List.map
      (fun (name, addr) ->
        Mutex.lock t.counts_mu;
        let n = Option.value ~default:0 (Hashtbl.find_opt t.counts name) in
        Mutex.unlock t.counts_mu;
        ( name,
          Json.Obj
            [
              ("addr", Json.String (Forwarder.addr_to_string addr));
              ("alive", Json.Bool (Health.alive t.health name));
              ("requests", Json.Int n);
            ] ))
      t.cfg.backends
  in
  Json.Obj
    [
      ("role", Json.String "head");
      ("uptime_s", Json.Float (Clock.monotonic () -. t.started_at));
      ("draining", Json.Bool (Atomic.get t.stop));
      ("inflight", Json.Int (Atomic.get t.inflight));
      ( "ring",
        Json.Obj
          [
            ("shards", Json.Int (Ring.size t.ring));
            ("vnodes", Json.Int t.cfg.vnodes);
            ("fingerprint", Json.String t.fingerprint);
          ] );
      ("shards", Json.Obj shard_objs);
      ( "telemetry",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (Telemetry.counters ()))
      );
    ]

let metrics_body t () =
  let module Prom = Hlp_util.Prometheus in
  let shard_gauges =
    List.concat_map
      (fun (name, _) ->
        Mutex.lock t.counts_mu;
        let n = Option.value ~default:0 (Hashtbl.find_opt t.counts name) in
        Mutex.unlock t.counts_mu;
        [
          Prom.gauge
            ~labels:[ ("shard", name) ]
            ~help:"1 while the shard answers pings." "hlp_shard_alive"
            (if Health.alive t.health name then 1. else 0.);
          Prom.counter
            ~labels:[ ("shard", name) ]
            ~help:"Requests forwarded to the shard." "hlp_shard_requests"
            (float_of_int n);
        ])
      t.cfg.backends
  in
  Prom.render
    (Prom.gauge ~help:"Seconds since the head started." "hlp_uptime_seconds"
       (Clock.monotonic () -. t.started_at)
    :: Prom.gauge ~help:"1 while draining, 0 while serving." "hlp_draining"
         (if Atomic.get t.stop then 1. else 0.)
    :: Prom.gauge ~help:"Forwards in flight right now." "hlp_head_inflight"
         (float_of_int (Atomic.get t.inflight))
    :: Prom.gauge ~help:"Live shards in the ring." "hlp_ring_alive_shards"
         (float_of_int (List.length (Health.alive_shards t.health)))
    :: (shard_gauges @ Prom.of_counters (Telemetry.counters ())))

(* --- routing --- *)

(* The ring key of an op, when it has one.  [k] is the LUT arity the
   op's SA table would use: sessions carry it; everything else runs on
   the daemon default (4, matching {!Hlp_core.Sa_table.create}). *)
let ring_key_of_op t (op : P.op) =
  let key ~width ~k = Ring.key ~width ~k ~fingerprint:t.fingerprint in
  match op with
  | P.Bind p | P.Flow p -> Some (key ~width:p.P.width ~k:4)
  | P.Explore p -> Some (key ~width:p.P.ex_width ~k:4)
  | P.Lint p -> Some (key ~width:p.P.lint_width ~k:4)
  | P.Session_open p -> Some (key ~width:p.P.so_width ~k:p.P.so_k)
  | P.Ping _ | P.Stats | P.Cluster_stats | P.Session_edit _
  | P.Session_close _ ->
      None

(* Live failover candidates for a keyed request: ring order from the
   owner, dead shards skipped.  For keyless ops (ping), round-robin
   over whatever is alive. *)
let candidates t (op : P.op) =
  let alive = Health.alive_shards t.health in
  match ring_key_of_op t op with
  | Some key ->
      List.filter (fun n -> List.mem n alive) (Ring.successors t.ring key)
  | None -> (
      match alive with
      | [] -> []
      | alive ->
          let n = List.length alive in
          let i = Atomic.fetch_and_add t.rr 1 mod n in
          let arr = Array.of_list alive in
          List.init n (fun j -> arr.((i + j) mod n)))

let unavailable_reply ~id fmt =
  Printf.ksprintf
    (fun msg ->
      P.error_reply
        ~diagnostics:[ Diagnostic.error "S017" Diagnostic.Design "%s" msg ]
        ~id P.Unavailable "%s" msg)
    fmt

let bad_session_reply ~id fmt =
  Printf.ksprintf
    (fun msg ->
      P.error_reply
        ~diagnostics:[ Diagnostic.error "S018" Diagnostic.Design "%s" msg ]
        ~id P.Bad_request "%s" msg)
    fmt

(* Forward [frame] to the shards in [names] order: first success wins;
   transport failures demerit the shard and move on after a bounded
   backoff.  Returns the raw reply line. *)
let forward_failover t ~names ~attempts frame =
  let rec go names attempt backoff_ms last_err =
    match names with
    | [] -> Error last_err
    | _ when attempt >= attempts -> Error last_err
    | name :: rest -> (
        if attempt > 0 then begin
          Telemetry.count "cluster.failovers" 1;
          Thread.delay (float_of_int backoff_ms /. 1000.)
        end;
        count_shard t name;
        match
          Forwarder.request_raw ?timeout_s:t.cfg.forward_timeout_s t.fwd
            (addr_of t name) frame
        with
        | Ok line ->
            Health.note_success t.health name;
            Ok line
        | Error msg ->
            Health.note_failure t.health name;
            Forwarder.invalidate t.fwd (addr_of t name);
            Telemetry.count "cluster.forward_errors" 1;
            go rest (attempt + 1)
              (min 1000 (backoff_ms * 2))
              (Printf.sprintf "%s: %s" name msg))
  in
  go names 0 t.cfg.retry_backoff_ms "no live shards"

(* --- session-id rewriting --- *)

let prefix_session ~shard sid = shard ^ "/" ^ sid

let split_session sid =
  match String.index_opt sid '/' with
  | None -> None
  | Some i ->
      Some
        ( String.sub sid 0 i,
          String.sub sid (i + 1) (String.length sid - i - 1) )

(* Rewrite the [session] field of a successful reply's result.  The
   JSON layer's parse/print round trip is byte-stable, so everything
   except the session id is relayed exactly as the worker wrote it. *)
let rewrite_reply_session ~shard line =
  match P.decode_reply line with
  | Ok
      {
        P.reply_id;
        payload = P.Result { op; result = Json.Obj fields; telemetry; elapsed_ms };
      }
    when List.mem_assoc "session" fields ->
      let fields =
        List.map
          (fun (k, v) ->
            match (k, v) with
            | "session", Json.String sid ->
                (k, Json.String (prefix_session ~shard sid))
            | kv -> kv)
          fields
      in
      P.encode_reply
        {
          P.reply_id;
          payload =
            P.Result { op; result = Json.Obj fields; telemetry; elapsed_ms };
        }
  | _ -> line

(* --- request handling --- *)

let send_line writer line =
  match P.write_framed writer line with
  | `Ok -> ()
  | `Error | `Dropped -> Telemetry.count "cluster.head_replies_unwritable" 1
  | `Poisoned -> Telemetry.count "cluster.head_conns_poisoned" 1

let send_reply writer reply = send_line writer (P.encode_reply reply)

(* The aggregated [cluster_stats]: every live shard's own reply keyed
   by name, next to the head's stats. *)
let cluster_stats_json t =
  let frame =
    P.encode_request
      { P.id = Json.Int 0; deadline_ms = Some 5000; op = P.Cluster_stats }
  in
  let shard_results =
    List.filter_map
      (fun name ->
        match
          Forwarder.request_raw ?timeout_s:t.cfg.forward_timeout_s t.fwd
            (addr_of t name) frame
        with
        | Ok line -> (
            match P.decode_reply line with
            | Ok { P.payload = P.Result { result; _ }; _ } ->
                Some (name, result)
            | _ -> Some (name, Json.Null))
        | Error _ ->
            Health.note_failure t.health name;
            None)
      (Health.alive_shards t.health)
  in
  Json.Obj
    [
      ("role", Json.String "head");
      ("head", stats_json t);
      ("shards", Json.Obj shard_results);
    ]

let handle_request t writer ~raw (req : P.request) =
  match req.P.op with
  | P.Stats ->
      send_reply writer
        {
          P.reply_id = req.P.id;
          payload =
            P.Result
              {
                op = "stats";
                result = stats_json t;
                telemetry = [];
                elapsed_ms = 0.;
              };
        }
  | P.Cluster_stats ->
      send_reply writer
        {
          P.reply_id = req.P.id;
          payload =
            P.Result
              {
                op = "cluster_stats";
                result = cluster_stats_json t;
                telemetry = [];
                elapsed_ms = 0.;
              };
        }
  | P.Session_edit _ | P.Session_close _ -> (
      let sid, rebuild =
        match req.P.op with
        | P.Session_edit p ->
            ( p.P.se_session,
              fun inner -> P.Session_edit { p with P.se_session = inner } )
        | P.Session_close p ->
            ( p.P.sc_session,
              fun inner -> P.Session_close { P.sc_session = inner } )
        | _ -> assert false
      in
      match split_session sid with
      | None ->
          Telemetry.count "cluster.bad_session_id" 1;
          send_reply writer
            (bad_session_reply ~id:req.P.id
               "session id %S names no shard (expected shard/id, as issued \
                by session_open)"
               sid)
      | Some (shard, inner) -> (
          match List.assoc_opt shard t.cfg.backends with
          | None ->
              Telemetry.count "cluster.bad_session_id" 1;
              send_reply writer
                (bad_session_reply ~id:req.P.id
                   "session id %S names unknown shard %S" sid shard)
          | Some addr ->
              if not (Health.alive t.health shard) then begin
                Telemetry.count "cluster.session_unavailable" 1;
                send_reply writer
                  (unavailable_reply ~id:req.P.id
                     "shard %s holding session %s is down; the session is \
                      lost — reopen it"
                     shard sid)
              end
              else begin
                let frame =
                  P.encode_request
                    {
                      P.id = req.P.id;
                      deadline_ms = req.P.deadline_ms;
                      op = rebuild inner;
                    }
                in
                count_shard t shard;
                match
                  Forwarder.request_raw ?timeout_s:t.cfg.forward_timeout_s
                    ~retry_stale:false t.fwd addr frame
                with
                | Ok line ->
                    Health.note_success t.health shard;
                    (* Session ids in the reply (if any) go back out
                       prefixed, like session_open's. *)
                    send_line writer (rewrite_reply_session ~shard line)
                | Error msg ->
                    (* Never transport-retry a session edit: the shard
                       may have applied the delta before dying, and a
                       replay would double-apply it. *)
                    Health.note_failure t.health shard;
                    Forwarder.invalidate t.fwd addr;
                    Telemetry.count "cluster.session_unavailable" 1;
                    send_reply writer
                      (unavailable_reply ~id:req.P.id
                         "shard %s died mid-session (%s); session %s is \
                          lost — reopen it"
                         shard msg sid)
              end))
  | P.Session_open _ -> (
      (* Route by key, single shard, no transport retry (an open that
         died mid-flight may have created the session; a client retry
         creates a fresh one, which is correct — a head retry would
         leak one silently). *)
      match candidates t req.P.op with
      | [] ->
          Telemetry.count "cluster.unroutable" 1;
          send_reply writer
            (unavailable_reply ~id:req.P.id "no live shards in the ring")
      | shard :: _ -> (
          count_shard t shard;
          match
            Forwarder.request_raw ?timeout_s:t.cfg.forward_timeout_s
              ~retry_stale:false t.fwd (addr_of t shard) raw
          with
          | Ok line ->
              Health.note_success t.health shard;
              send_line writer (rewrite_reply_session ~shard line)
          | Error msg ->
              Health.note_failure t.health shard;
              Forwarder.invalidate t.fwd (addr_of t shard);
              Telemetry.count "cluster.session_unavailable" 1;
              send_reply writer
                (unavailable_reply ~id:req.P.id
                   "shard %s unreachable (%s); retry to open on a \
                    failed-over shard"
                   shard msg)))
  | P.Ping _ | P.Bind _ | P.Flow _ | P.Explore _ | P.Lint _ -> (
      (* Idempotent: failover across live replicas in ring order. *)
      match candidates t req.P.op with
      | [] ->
          Telemetry.count "cluster.unroutable" 1;
          send_reply writer
            (unavailable_reply ~id:req.P.id "no live shards in the ring")
      | names -> (
          match
            forward_failover t ~names ~attempts:t.cfg.retry_attempts raw
          with
          | Ok line -> send_line writer line
          | Error msg ->
              send_reply writer
                (unavailable_reply ~id:req.P.id
                   "request failed on every live replica (last: %s)" msg)))

let serve_conn t entry =
  let reader = P.reader_of_fd ~max_frame:t.cfg.max_frame entry.cfd in
  let rec loop () =
    if P.writer_poisoned entry.writer then ()
    else
      match P.read_frame reader with
      | `Eof -> ()
      | `Too_large n ->
          Telemetry.count "cluster.head_frames_too_large" 1;
          send_reply entry.writer
            (P.error_reply
               ~diagnostics:
                 [
                   Diagnostic.error "S012" (Diagnostic.Line 1)
                     "frame of %d bytes exceeds the %d-byte limit and was \
                      discarded unread"
                     n t.cfg.max_frame;
                 ]
               ~id:Json.Null P.Frame_too_large
               "frame of %d bytes exceeds the %d-byte limit" n
               t.cfg.max_frame);
          loop ()
      | `Frame line ->
          Telemetry.count "cluster.head_frames" 1;
          (match P.decode_request line with
          | Error { P.err_code; err_id; err_diagnostics } ->
              Telemetry.count "cluster.head_frames_invalid" 1;
              send_reply entry.writer
                (P.error_reply ~diagnostics:err_diagnostics ~id:err_id
                   err_code "invalid request frame")
          | Ok req ->
              if Atomic.get t.stop then
                send_reply entry.writer
                  (P.error_reply ~id:req.P.id P.Draining
                     "head is draining; connect again after restart")
              else if Atomic.fetch_and_add t.inflight 1 >= t.cfg.max_inflight
              then begin
                ignore (Atomic.fetch_and_add t.inflight (-1));
                Telemetry.count "cluster.head_overloaded" 1;
                send_reply entry.writer
                  (P.error_reply ~id:req.P.id P.Overloaded
                     "head at max in-flight forwards (%d); retry later"
                     t.cfg.max_inflight)
              end
              else
                Fun.protect
                  ~finally:(fun () ->
                    ignore (Atomic.fetch_and_add t.inflight (-1)))
                  (fun () -> handle_request t entry.writer ~raw:line req));
          loop ()
  in
  (try loop () with Unix.Unix_error _ | Sys_error _ -> ());
  Mutex.lock t.conn_mu;
  t.conns <- List.filter (fun e -> e != entry) t.conns;
  Mutex.unlock t.conn_mu;
  try Unix.close entry.cfd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stop then ()
    else
      match Unix.select (t.wake_r :: t.listeners) [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ ->
          if List.mem t.wake_r readable || Atomic.get t.stop then ()
          else begin
            List.iter
              (fun lfd ->
                if List.mem lfd readable then
                  match Unix.accept lfd with
                  | exception Unix.Unix_error _ -> ()
                  | fd, _ ->
                      Telemetry.count "cluster.head_connections" 1;
                      let entry =
                        { cfd = fd; writer = P.writer_of_fd fd; cth = None }
                      in
                      Mutex.lock t.conn_mu;
                      t.conns <- entry :: t.conns;
                      Mutex.unlock t.conn_mu;
                      let th =
                        Thread.create (fun () -> serve_conn t entry) ()
                      in
                      Mutex.lock t.conn_mu;
                      entry.cth <- Some th;
                      Mutex.unlock t.conn_mu)
              t.listeners;
            loop ()
          end
  in
  loop ()

let run t =
  Logs.info (fun m ->
      m "hlpowerd head: listening on %s%s, %d shard(s), %d vnodes"
        t.cfg.socket_path
        (match t.cfg.tcp_port with
        | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
        | None -> "")
        (List.length t.cfg.backends)
        t.cfg.vnodes);
  (match t.cfg.metrics_port with
  | None -> ()
  | Some port ->
      let m = Hlp_server.Metrics.start ~port (metrics_body t) in
      t.metrics <- Some m;
      Logs.info (fun l ->
          l "hlpowerd head: /metrics on 127.0.0.1:%d"
            (Hlp_server.Metrics.port m)));
  (* Health thread: wall-clock pacing for the loop, Clock.now pacing
     for the ping schedule (so tests can drive it with a fake clock and
     force_health_round). *)
  t.health_th <-
    Some
      (Thread.create
         (fun () ->
           while not (Atomic.get t.stop) do
             (try Health.check_due t.health with _ -> ());
             Thread.delay 0.05
           done)
         ());
  accept_loop t;
  Logs.info (fun m -> m "hlpowerd head: draining");
  (* 1. Stop accepting; new frames on live connections get [draining]
        replies (checked per frame in serve_conn). *)
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  (try Unix.unlink t.cfg.socket_path
   with Unix.Unix_error _ | Sys_error _ -> ());
  (* 2. Unblock idle readers but let in-flight forwards finish: shut
        only the receive side, so a handler mid-forward still writes
        its reply before its loop sees EOF. *)
  Mutex.lock t.conn_mu;
  let conns = t.conns in
  Mutex.unlock t.conn_mu;
  List.iter
    (fun { cfd; _ } ->
      try Unix.shutdown cfd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    conns;
  List.iter
    (fun { cth; _ } -> match cth with Some th -> Thread.join th | None -> ())
    conns;
  (* 3. Stop the auxiliaries. *)
  (match t.health_th with Some th -> Thread.join th | None -> ());
  (match t.metrics with
  | Some m ->
      Hlp_server.Metrics.stop m;
      t.metrics <- None
  | None -> ());
  Forwarder.close_all t.fwd;
  Telemetry.write_if_requested ();
  (try
     Unix.close t.wake_r;
     Unix.close t.wake_w
   with Unix.Unix_error _ -> ());
  Logs.info (fun m -> m "hlpowerd head: drained, exiting")
