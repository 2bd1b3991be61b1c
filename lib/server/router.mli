(** Request execution for the serving daemon.

    A router owns the daemon's {e warm state}: a registry of
    {!Hlp_core.Sa_table} instances keyed by [(width, k)], shared by
    every request (the table itself is mutex-guarded, so concurrent
    binds on the same width hit the same warm entries — the whole point
    of serving instead of re-spawning the CLI).  When the router is
    given a cache directory, each table is persistent in it and is
    flushed on {!persist} (the daemon calls that during drain).

    {!handle} executes one already-decoded operation and either returns
    the op-specific result JSON or a list of {!Hlp_lint.Diagnostic}
    shaped problems (S004 unknown benchmark, S005 binder failure, ...).
    It never raises for predictable bad input; exceptions escaping
    [handle] are bugs (the server maps them to [internal]).  The
    [checkpoint] callback is forwarded to {!Hlp_rtl.Flow.run} and called
    between the router's own stages, so a deadline can cancel a request
    at every phase boundary. *)

type t

(** [create ?sa_cache_dir ?session_ttl_ms ?max_sessions ()] —
    [sa_cache_dir] overrides the [HLP_SA_CACHE] environment variable for
    the daemon's tables.  [session_ttl_ms] (default: [HLP_SESSION_TTL_MS]
    or 600 000) is the idle time after which a session is evicted;
    expiry is checked lazily, on every session operation, against the
    injectable {!Hlp_util.Clock.now} timeline.  [max_sessions] (default:
    [HLP_SESSION_MAX] or 256) caps concurrently open sessions (S015
    beyond it). *)
val create :
  ?sa_cache_dir:string ->
  ?session_ttl_ms:int ->
  ?max_sessions:int ->
  unit ->
  t

(** [handle t ~checkpoint op] runs one operation to completion on the
    calling domain.  [Stats] is {e not} handled here (the server owns
    the scheduler and uptime) — passing it returns an error
    diagnostic. *)
val handle :
  t ->
  checkpoint:(string -> unit) ->
  Protocol.op ->
  (Hlp_util.Json.t, Protocol.Diagnostic.t list) result

(** [sa_stats_json t] describes every warm table: width, k, entries,
    hits, misses, disk hits. *)
val sa_stats_json : t -> Hlp_util.Json.t

(** [session_stats_json t] — open/opened/closed/evicted session counts
    plus the TTL and capacity, for the daemon's [stats] reply. *)
val session_stats_json : t -> Hlp_util.Json.t

(** Number of currently open sessions. *)
val open_sessions : t -> int

(** [drain_sessions t] closes every open session (daemon shutdown);
    returns how many were open.  Subsequent operations on their ids
    answer S013. *)
val drain_sessions : t -> int

(** [persist t] flushes every persistent table to disk (atomic temp +
    rename), as on process exit. *)
val persist : t -> unit
