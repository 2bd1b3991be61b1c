(** The [hlpowerd] daemon loop.

    One process owns: the connection front end ({!Front}: the
    listening sockets, one connection thread per client, the drain), a
    {!Scheduler} whose worker domains execute requests, and a {!Router}
    holding the warm SA tables.  Lifecycle:

    + {!create} binds and listens (see {!Front.create});
    + {!run} accepts until {!shutdown} is triggered — by a direct call
      or by [SIGTERM]/[SIGINT] once {!install_signal_handlers} has been
      called;
    + drain: admission stops ([draining] replies), every request
      admitted before the signal runs to completion and its reply is
      written (zero dropped replies), open sessions are closed, the SA
      tables are flushed to their disk cache, telemetry is written
      ([HLP_TELEMETRY]), and {!run} returns.

    Deadlines: a request's [deadline_ms] (or the server's default)
    starts at {e receipt}.  Expiry is checked when a worker picks the
    job up and again at every pipeline-phase boundary (the
    {!Hlp_rtl.Flow.run} checkpoint hook), so an expired request frees
    its worker slot at the next boundary instead of running to
    completion — the reply is [deadline_exceeded] either way. *)

type config = {
  socket_path : string;  (** Unix-domain socket path *)
  tcp_port : int option;  (** also listen on 127.0.0.1:port *)
  workers : int;  (** scheduler worker domains *)
  queue_capacity : int;  (** bounded queue: beyond this, [overloaded] *)
  default_deadline_ms : int option;  (** for requests with no deadline *)
  max_frame : int;  (** per-frame byte cap *)
  sa_cache_dir : string option;  (** overrides [HLP_SA_CACHE] *)
  metrics_port : int option;
      (** serve Prometheus text on [127.0.0.1:port/metrics] *)
}

(** [/tmp/hlpowerd.sock], no TCP, [Hlp_util.Pool.jobs ()] workers,
    queue capacity 64, no default deadline, 1 MiB frames. *)
val default_config : config

type t

(** [create ~config ()] binds the sockets.  @raise Unix.Unix_error when
    binding fails (e.g. the socket path is taken by a live daemon),
    with nothing left open. *)
val create : ?config:config -> unit -> t

val config : t -> config

(** [run t] serves until shutdown, then drains and returns.  Call it at
    most once. *)
val run : t -> unit

(** [shutdown t] triggers the drain sequence from any thread or from a
    signal handler; returns immediately ({!run} performs the drain). *)
val shutdown : t -> unit

(** [install_signal_handlers t] routes [SIGTERM] and [SIGINT] to
    {!shutdown}. *)
val install_signal_handlers : t -> unit

(** [stats_json t] is the [stats] reply body: uptime, request counters,
    scheduler occupancy, warm SA tables, sessions, the process's GC
    counters ([gc], from [Gc.quick_stat]: the counters
    [minor_collections], [major_collections], [minor_words],
    [promoted_words] and [major_words], which never decrease, and the
    gauges [heap_words] and [top_heap_words], which OCaml 5 sums over
    the live domains, so both can fall) and telemetry counters. *)
val stats_json : t -> Hlp_util.Json.t

(** [metrics_body t ()] is the [/metrics] body: the scheduler and uptime
    gauges, the GC counters of {!stats_json} as [hlp_gc_<name>_total]
    (the two heap sizes as gauges [hlp_gc_heap_words] and
    [hlp_gc_top_heap_words]) and every telemetry counter. *)
val metrics_body : t -> unit -> string
