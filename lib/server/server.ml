module Json = Hlp_util.Json
module Telemetry = Hlp_util.Telemetry
module Clock = Hlp_util.Clock

type config = {
  socket_path : string;
  tcp_port : int option;
  workers : int;
  queue_capacity : int;
  default_deadline_ms : int option;
  max_frame : int;
  sa_cache_dir : string option;
  metrics_port : int option;
}

let default_config =
  {
    socket_path = "/tmp/hlpowerd.sock";
    tcp_port = None;
    workers = Hlp_util.Pool.jobs ();
    queue_capacity = 64;
    default_deadline_ms = None;
    max_frame = Protocol.default_max_frame;
    sa_cache_dir = None;
    metrics_port = None;
  }

(* Raised by the deadline checkpoint between pipeline phases. *)
exception Expired

type t = {
  cfg : config;
  front : Front.t;
  router : Router.t;
  scheduler : Scheduler.t;
}

let config t = t.cfg

let create ?(config = default_config) () =
  let front =
    Front.create ~socket_path:config.socket_path ~tcp_port:config.tcp_port
      ~max_frame:config.max_frame
  in
  {
    cfg = config;
    front;
    router = Router.create ?sa_cache_dir:config.sa_cache_dir ();
    scheduler =
      Scheduler.create ~workers:config.workers
        ~capacity:config.queue_capacity ();
  }

let shutdown t = Front.shutdown t.front
let install_signal_handlers t = Front.install_signal_handlers t.front

(* The process's GC counters, from [Gc.quick_stat]: collections and
   allocated words since start, which only grow, then the major heap's
   current and largest size in words, gauges that OCaml 5 sums over the
   live domains. *)
let gc_stats () =
  let g = Gc.quick_stat () in
  let words = int_of_float in
  Hlp_util.Prometheus.
    [
      ("minor_collections", Counter, "Minor collections.",
       g.Gc.minor_collections);
      ("major_collections", Counter, "Major collection cycles completed.",
       g.Gc.major_collections);
      ("minor_words", Counter, "Words allocated in the minor heaps.",
       words g.Gc.minor_words);
      ("promoted_words", Counter,
       "Words promoted from the minor heaps to the major heap.",
       words g.Gc.promoted_words);
      ("major_words", Counter,
       "Words allocated in the major heap, promoted words included.",
       words g.Gc.major_words);
      ("heap_words", Gauge, "Major heap size in words.", g.Gc.heap_words);
      ("top_heap_words", Gauge, "Largest major heap size in words.",
       g.Gc.top_heap_words);
    ]

let stats_json t : Json.t =
  let s = Scheduler.stats t.scheduler in
  Json.Obj
    [
      ("uptime_s", Json.Float (Front.uptime t.front));
      ("draining", Json.Bool (Front.stopping t.front));
      ( "scheduler",
        Json.Obj
          [
            ("workers", Json.Int s.Scheduler.workers);
            ("capacity", Json.Int s.Scheduler.capacity);
            ("queued", Json.Int s.Scheduler.queued);
            ("running", Json.Int s.Scheduler.running);
            ("accepted", Json.Int s.Scheduler.accepted);
            ("completed", Json.Int s.Scheduler.completed);
            ("rejected", Json.Int s.Scheduler.rejected);
          ] );
      ("sa_tables", Router.sa_stats_json t.router);
      ("sessions", Router.session_stats_json t.router);
      ( "gc",
        Json.Obj
          (List.map (fun (name, _, _, v) -> (name, Json.Int v)) (gc_stats ()))
      );
      ( "telemetry",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (Telemetry.counters ()))
      );
    ]

(* The /metrics exposition: every telemetry counter as a Prometheus
   counter, plus point-in-time gauges the counters cannot carry (queue
   depth, running, uptime) and the GC counters under [hlp_gc_].
   Rendered fresh at scrape time. *)
let metrics_body t () =
  let module Prom = Hlp_util.Prometheus in
  let s = Scheduler.stats t.scheduler in
  let gc =
    List.map
      (fun (name, kind, help, v) ->
        let metric =
          match kind with Prom.Counter -> Prom.counter | Gauge -> Prom.gauge
        in
        metric ~help ("hlp_gc_" ^ name) (float_of_int v))
      (gc_stats ())
  in
  Prom.render
    (Prom.gauge ~help:"Seconds since the daemon started." "hlp_uptime_seconds"
       (Front.uptime t.front)
    :: Prom.gauge ~help:"1 while draining, 0 while serving." "hlp_draining"
         (if Front.stopping t.front then 1. else 0.)
    :: Prom.gauge ~help:"Worker domains in the scheduler pool."
         "hlp_scheduler_workers"
         (float_of_int s.Scheduler.workers)
    :: Prom.gauge ~help:"Bounded queue capacity." "hlp_scheduler_capacity"
         (float_of_int s.Scheduler.capacity)
    :: Prom.gauge ~help:"Jobs waiting in the queue right now."
         "hlp_scheduler_queued"
         (float_of_int s.Scheduler.queued)
    :: Prom.gauge ~help:"Jobs executing right now." "hlp_scheduler_running"
         (float_of_int s.Scheduler.running)
    :: Prom.counter ~help:"Jobs ever admitted." "hlp_scheduler_accepted"
         (float_of_int s.Scheduler.accepted)
    :: Prom.counter ~help:"Jobs finished." "hlp_scheduler_completed"
         (float_of_int s.Scheduler.completed)
    :: Prom.counter ~help:"Overloaded rejections." "hlp_scheduler_rejected"
         (float_of_int s.Scheduler.rejected)
    :: (gc @ Prom.of_counters (Telemetry.counters ())))

(* --- dispatch --- *)

(* Deadlines live on {!Clock.now}'s timeline: monotonic by default, so
   an NTP step or a sysadmin's [date -s] can neither expire every
   in-flight request at once nor extend them for hours — and
   injectable, so tests can prove exactly that. *)
let now () = Clock.now ()

(* Execute one request on a worker domain: scoped telemetry, deadline
   checkpoints, structured failure containment. *)
let run_request t conn (req : Protocol.request) ~deadline =
  let checkpoint _phase =
    match deadline with
    | Some d when now () > d -> raise Expired
    | _ -> ()
  in
  let t0 = now () in
  match
    Telemetry.with_scope (fun () ->
        checkpoint "start";
        Router.handle t.router ~checkpoint req.Protocol.op)
  with
  | Ok result, telemetry ->
      Telemetry.count "server.requests_ok" 1;
      Front.send conn
        {
          Protocol.reply_id = req.Protocol.id;
          payload =
            Protocol.Result
              {
                op = Protocol.op_name req.Protocol.op;
                result;
                telemetry;
                elapsed_ms = (now () -. t0) *. 1000.;
              };
        }
  | Error diagnostics, _ ->
      Telemetry.count "server.requests_rejected" 1;
      Front.send conn
        (Protocol.error_reply ~diagnostics ~id:req.Protocol.id
           Protocol.Bad_request "request failed validation or execution")
  | exception Expired ->
      Telemetry.count "server.requests_expired" 1;
      Front.send conn
        (Protocol.error_reply ~id:req.Protocol.id Protocol.Deadline_exceeded
           "deadline expired after %.0f ms" ((now () -. t0) *. 1000.))
  | exception e ->
      Telemetry.count "server.requests_failed" 1;
      Front.send conn
        (Protocol.error_reply ~id:req.Protocol.id Protocol.Internal "%s"
           (Printexc.to_string e))

let dispatch t conn ~raw:_ (req : Protocol.request) =
  match req.Protocol.op with
  | Protocol.Stats ->
      (* Served inline on the connection thread: stats must answer even
         when every worker is busy — that is what makes it a health
         probe. *)
      Front.send_inline conn ~id:req.Protocol.id ~op:"stats" (stats_json t)
  | Protocol.Cluster_stats ->
      (* Same inline treatment; a standalone worker answers for itself,
         a cluster head intercepts this op and aggregates shards. *)
      Front.send_inline conn ~id:req.Protocol.id ~op:"cluster_stats"
        (Json.Obj [ ("role", Json.String "worker"); ("stats", stats_json t) ])
  | _ -> (
      let deadline =
        match (req.Protocol.deadline_ms, t.cfg.default_deadline_ms) with
        | Some ms, _ | None, Some ms ->
            Some (now () +. (float_of_int ms /. 1000.))
        | None, None -> None
      in
      (* The job holds its own reference until its reply is sent. *)
      Front.retain conn;
      let job () =
        Fun.protect
          ~finally:(fun () -> Front.release conn)
          (fun () -> run_request t conn req ~deadline)
      in
      match Scheduler.submit t.scheduler job with
      | `Accepted -> ()
      | `Overloaded s ->
          Front.release conn;
          Telemetry.count "server.requests_overloaded" 1;
          (* Report the load observed by the rejection itself (the
             snapshot rides on the verdict): re-reading stats here
             could show a queue that has since drained next to an
             "overloaded" verdict — a torn pair. *)
          Front.send conn
            (Protocol.error_reply ~id:req.Protocol.id Protocol.Overloaded
               "queue full (%d queued, %d running, capacity %d); retry \
                later"
               s.Scheduler.queued s.Scheduler.running s.Scheduler.capacity)
      | `Draining ->
          Front.release conn;
          Front.send conn
            (Protocol.error_reply ~id:req.Protocol.id Protocol.Draining
               "daemon is draining; connect again after restart"))

let run t =
  Logs.info (fun m ->
      m "hlpowerd: listening on %s%s (%d workers, queue %d)"
        t.cfg.socket_path
        (match t.cfg.tcp_port with
        | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
        | None -> "")
        t.cfg.workers t.cfg.queue_capacity);
  (* The worker's drain step finishes every admitted request; each
     writes its own reply before the scheduler counts it complete, so
     after [Scheduler.drain] no reply is outstanding. *)
  Front.run t.front ~name:"hlpowerd" ~metrics_port:t.cfg.metrics_port
    ~metrics:(metrics_body t) ~handle:(dispatch t)
    ~drain:(fun () -> Scheduler.drain t.scheduler);
  (* Flush warm state and diagnostics.  Open sessions are discharged
     first: accepted session work has already completed and every
     connection thread has been joined, so nothing can race the table
     reset, and a client that reconnects after restart gets a clean
     S013 instead of a stale id silently resolving. *)
  let dropped = Router.drain_sessions t.router in
  if dropped > 0 then
    Logs.info (fun m -> m "drain: closed %d open session(s)" dropped);
  Router.persist t.router;
  Telemetry.write_if_requested ();
  Logs.info (fun m -> m "hlpowerd: drained, exiting")
