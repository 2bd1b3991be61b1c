(** The connection front end both daemons share: the worker
    ({!Server}) and the cluster head ([Hlp_cluster.Head]).

    It owns the listening sockets (a Unix-domain socket, optionally a
    loopback TCP port), the self-pipe that {!shutdown} writes to, the
    [select] accept loop, one thread per connection and the drain.  A
    connection thread reads frames under the [max_frame] cap: an
    oversized frame earns an S012 [frame_too_large] reply and the
    connection stays usable, a frame that does not decode earns its
    decode error, and a decoded request goes to the role's [handle].
    Everything past the decode — inline answers, admission, scheduling,
    forwarding — is the role's. *)

type t

(** One accepted client connection. *)
type conn

(** [create ~socket_path ~tcp_port ~max_frame] binds and listens on
    the Unix-domain socket [socket_path] and, given a port, on
    [127.0.0.1:port] ([SO_REUSEADDR] set), and ignores [SIGPIPE]: a
    client that disconnects mid-reply must not kill the daemon.  A
    socket file already at [socket_path] is reclaimed only when it is
    stale: if a probe connect succeeds, a live daemon owns it and this
    raises [Unix_error (EADDRINUSE, ...)].

    @raise Unix.Unix_error when binding fails, after closing every
    socket it opened and removing a socket file it bound, so a retry
    on the same path and port can succeed. *)
val create : socket_path:string -> tcp_port:int option -> max_frame:int -> t

(** [run t ~name ~metrics_port ~metrics ~handle ~drain] serves until
    {!shutdown}, then drains and returns.  Call it at most once.

    [handle conn ~raw req] runs on [conn]'s thread for each decoded
    request; [raw] is the frame as it arrived.  Given a
    [metrics_port], [metrics] renders the body of [/metrics] there.
    [name] prefixes the log lines ([hlpowerd], [hlpowerd head]).

    The drain, in order: close the listeners and unlink the socket
    file; run the role's [drain] step; shut the receive side of every
    open connection, so a thread mid-request still writes its reply
    and then reads EOF; join the connection threads; stop [/metrics];
    close the self-pipe.  The role's later steps follow [run]. *)
val run :
  t ->
  name:string ->
  metrics_port:int option ->
  metrics:(unit -> string) ->
  handle:(conn -> raw:string -> Protocol.request -> unit) ->
  drain:(unit -> unit) ->
  unit

(** [shutdown t] starts the drain from any thread or from a signal
    handler and returns at once ({!run} performs the drain). *)
val shutdown : t -> unit

(** [install_signal_handlers t] routes [SIGTERM] and [SIGINT] to
    {!shutdown}. *)
val install_signal_handlers : t -> unit

(** [stopping t] holds from the first {!shutdown} on. *)
val stopping : t -> bool

(** Seconds since {!create}, on the raw monotonic clock. *)
val uptime : t -> float

(** [send conn reply] writes one reply frame.  A write that fails
    before any byte went out loses only that reply; a torn write
    poisons the connection, whose thread then stops reading (see
    {!Protocol.write_framed}). *)
val send : conn -> Protocol.reply -> unit

(** [send_line conn line] is {!send} for a reply already encoded (a
    worker's reply relayed as it came). *)
val send_line : conn -> string -> unit

(** [send_inline conn ~id ~op result] answers [op] on the connection
    thread itself: no telemetry, [elapsed_ms] 0. *)
val send_inline :
  conn -> id:Hlp_util.Json.t -> op:string -> Hlp_util.Json.t -> unit

(** [retain conn] keeps [conn]'s descriptor open until the matching
    {!release}, for a reply written after [handle] has returned.  The
    connection thread holds one reference of its own for as long as it
    reads, so a client EOF cannot close (and let the kernel recycle) a
    descriptor that a queued job will later write to. *)
val retain : conn -> unit

val release : conn -> unit
