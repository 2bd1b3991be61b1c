(** Process-wide observability: named counters and accumulated
    wall-clock timers, dumped as JSON.

    Every primitive is safe to call from any domain, so instrumented code
    (the mapper, the simulator, the SA-table cache, the binder) needs no
    coordination of its own.  Counters are lock-free atomics; timers
    share one mutex, taken only on the (cold) record path.  Names come
    from the code or the daemon's configuration, never from request
    data, so a long-running process holds a bounded set of them.

    Collection is always on — the cost is a few atomic adds per
    instrumented call — but nothing is written unless the program asks:
    {!write} dumps to an explicit path, and {!write_if_requested} honours
    the [HLP_TELEMETRY=path.json] environment knob (no-op when unset).

    Telemetry never feeds back into any algorithm, so instrumented flows
    stay deterministic; note however that under [HLP_JOBS > 1] the
    {e diagnostic} numbers themselves may legitimately differ from a
    sequential run (e.g. two domains racing to fill the same SA-table
    entry record two misses where a sequential run records one). *)

(** Handle to a named counter; cheap to bump from hot loops. *)
type counter

(** [counter name] returns the (unique, process-wide) counter for [name],
    creating it at zero on first use. *)
val counter : string -> counter

val add : counter -> int -> unit
val incr : counter -> unit

(** [count name n] is [add (counter name) n] — for cold call sites. *)
val count : string -> int -> unit

(** [value (counter name)] reads the current total. *)
val value : counter -> int

(** [time name f] runs [f ()], adding its wall-clock duration (and one
    call) to the accumulated timer [name].  Exceptions propagate; the
    partial duration is still recorded. *)
val time : string -> (unit -> 'a) -> 'a

(** [with_scope f] runs [f ()] with a per-request counter scope active
    in the calling domain: every counter bump made by this domain while
    [f] runs is recorded both process-wide (as always) and into the
    scope.  Returns [f]'s result together with the scope's deltas,
    sorted by name — exactly the counters this request moved, which is
    what the serving daemon reports per reply.  Scopes nest (the inner
    scope shadows the outer for its duration) and never cross domains:
    work handed to other domains (e.g. an explore sweep) contributes
    only to the process-wide totals.  If [f] raises, the scope is
    discarded and the exception propagates. *)
val with_scope : (unit -> 'a) -> 'a * (string * int) list

(** Snapshots, sorted by name. *)
val counters : unit -> (string * int) list

(** [(name, calls, total_seconds)] per accumulated timer. *)
val timers : unit -> (string * int * float) list

(** [reset ()] clears all counters and timers (tests). *)
val reset : unit -> unit

(** [to_json ()] is the snapshot as a JSON object with fields
    ["counters"] (object of integers) and ["timers"] (array of
    [{name, calls, seconds}]). *)
val to_json : unit -> Json.t

(** [write path] writes [to_json ()] to [path] as one line. *)
val write : string -> unit

(** [write_if_requested ()] writes to [$HLP_TELEMETRY] when that variable
    is set and non-empty; otherwise does nothing.  An unwritable path is
    reported on stderr rather than raised — telemetry is diagnostics, and
    must never fail the run. *)
val write_if_requested : unit -> unit
