(** Raw-frame forwarding from head to workers, over pooled
    connections.

    The head never re-encodes what it relays: a request frame is
    forwarded byte-for-byte and the worker's reply line is returned
    byte-for-byte, so a client talking through the head sees exactly
    the bytes the worker produced (the single exception — session-id
    rewriting — happens in {!Head}, which re-encodes deliberately).
    Decoding for routing is the head's business, not this module's.

    Workers are addressed and dialled as {!Hlp_server.Client} does.
    Connections are pooled per worker address: a request pops an idle
    connection or dials a new one, and returns it on clean completion.
    A request that fails on a {e pooled} connection retries once on a
    fresh dial — the pooled socket may simply have been closed by an
    idle worker — before reporting the worker unreachable. *)

type t

val create : ?max_frame:int -> unit -> t

(** [request_raw t addr frame] sends one frame and blocks for one
    reply line.  [timeout_s] bounds each socket operation (default
    none); an elapsed timeout reports as an error, like any transport
    failure.  Thread-safe.

    With [retry_stale:false] the idle pool is bypassed and the frame is
    sent on a single fresh dial, never re-sent: use it for
    non-idempotent frames (session ops), where a failed pooled attempt
    cannot be distinguished from a worker that already executed the
    frame.  The default retries once on a fresh dial after a pooled
    connection fails, as described above. *)
val request_raw :
  ?timeout_s:float ->
  ?retry_stale:bool ->
  t ->
  Hlp_server.Client.addr ->
  string ->
  (string, string) result

(** Drop every pooled connection to [addr] (a shard just declared
    dead). *)
val invalidate : t -> Hlp_server.Client.addr -> unit

val close_all : t -> unit
