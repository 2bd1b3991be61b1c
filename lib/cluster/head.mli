(** The cluster head: [hlpowerd --head].

    Speaks the worker protocol unchanged on its own socket and fans
    requests out over N backend workers through the consistent-hash
    {!Ring} keyed [(width, k, lib_fingerprint)].  What lands where:

    - [bind]/[flow]/[explore]/[lint]: the ring owner of the request's
      key; on a transport failure the request — idempotent by
      construction — fails over to the next live replica in ring
      order, with bounded backoff, before giving up with an
      [unavailable] reply (S017).
    - [ping]: round-robin over live shards (no key to hash).
    - [session_open]: ring owner; the reply's session id comes back
      prefixed with the owning shard ([w0/s-3]), which is the entire
      session-stickiness mechanism — every later [session_edit]/
      [session_close] names its shard in the id, so the head stays
      stateless across session traffic.  Session requests never retry
      on another shard (the session state lives on exactly one);
      a dead shard mid-session earns S017, an unparseable or unknown
      prefix S018.
    - [stats]: answered locally (head's own occupancy + shard map).
    - [cluster_stats]: aggregated — every live shard's reply keyed by
      shard name, next to the head's own stats.

    Forwarded frames are relayed byte-for-byte in both directions;
    only session ids are rewritten (by decode/re-encode, which the
    JSON layer keeps byte-stable).  Worker health: periodic pings on
    the injectable {!Hlp_util.Clock} timeline plus immediate demerits
    from forwarding failures ({!Health}).  The connection front end —
    listeners, per-connection threads, frame cap, decode errors, drain —
    is the worker's own ({!Hlp_server.Front}).  SIGTERM stops admission,
    lets every in-flight forward complete and its reply flush, then
    returns from {!run} — worker shutdown belongs to whoever spawned
    the workers. *)

type config = {
  socket_path : string;
  tcp_port : int option;
  backends : (string * Hlp_server.Client.addr) list;
      (** shard name, address *)
  vnodes : int;
  ping_interval_ms : int;
  fail_threshold : int;
  max_frame : int;
  max_inflight : int;  (** concurrent forwards; beyond it, [overloaded] *)
  retry_attempts : int;  (** failover attempts for idempotent requests *)
  retry_backoff_ms : int;
  forward_timeout_s : float option;
  metrics_port : int option;
}

val default_config : config

type t

(** @raise Unix.Unix_error when binding fails, with nothing left open.
    @raise Invalid_argument on an empty backend list. *)
val create : ?config:config -> unit -> t

val config : t -> config

(** Serve until {!shutdown}, then drain and return.  Call at most
    once. *)
val run : t -> unit

val shutdown : t -> unit
val install_signal_handlers : t -> unit

(** The [stats] reply body (also served to protocol clients). *)
val stats_json : t -> Hlp_util.Json.t

(** Exposed for tests: one liveness round right now. *)
val force_health_round : t -> unit
