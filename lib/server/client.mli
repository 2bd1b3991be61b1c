(** Blocking client for the [hlpowerd] protocol — used by the CLI
    [client] subcommand, the bench load generator, and the serving
    tests.  Its address type and {!dial} are also the cluster head's
    way to its workers. *)

type t

(** A daemon's address: a Unix-domain socket path, or a TCP host and
    port. *)
type addr = Unix_path of string | Tcp of string * int

(** [addr_of_string s]: [host:port] (with a numeric port) parses as
    TCP, anything else is a Unix-domain socket path. *)
val addr_of_string : string -> addr

val addr_to_string : addr -> string

(** [dial addr] opens a socket connected to [addr] (the socket is
    closed again when the connect fails).
    @raise Unix.Unix_error when nobody is listening. *)
val dial : addr -> Unix.file_descr

(** [connect path] connects to the daemon's Unix-domain socket.
    @raise Unix.Unix_error when nobody is listening. *)
val connect : ?max_frame:int -> string -> t

(** [connect_tcp ~host ~port ()] connects to a TCP daemon. *)
val connect_tcp : ?max_frame:int -> host:string -> port:int -> unit -> t

(** [of_fd fd] wraps an already-connected socket.  Such a client has no
    address to reconnect to, so {!request_retry} degrades to plain
    {!request}. *)
val of_fd : ?max_frame:int -> Unix.file_descr -> t

(** [request c req] sends [req] and blocks for one reply.  [Error] is a
    transport- or decode-level failure (connection closed, bad frame) —
    protocol-level errors come back as [Ok] replies with an [Error]
    payload.  Note replies are matched by arrival order: interleave
    {!send}/{!recv} yourself for pipelining. *)
val request : t -> Protocol.request -> (Protocol.reply, string) result

(** [request_retry c req] is {!request} plus bounded
    retry-with-backoff across transport failures: [ECONNREFUSED] /
    [EPIPE] / reset on send, or EOF before the reply arrives — the
    symptoms of a daemon restart.  Between attempts the connection is
    re-established from the address given at {!connect} time (clients
    built with [of_fd] cannot reconnect and fail on the first transport
    error).  Backoff doubles from [backoff_ms] (default 50 ms, capped
    at 2 s) for up to [attempts] tries (default 4).

    Only use this for idempotent requests: a retried frame may execute
    twice when the failure struck after the daemon accepted it but
    before the reply was written.  [bind]/[flow]/[explore]/[lint] are
    pure queries and safe; [session_edit] is not. *)
val request_retry :
  ?attempts:int ->
  ?backoff_ms:int ->
  t ->
  Protocol.request ->
  (Protocol.reply, string) result

val send : t -> Protocol.request -> unit

(** [send_raw c line] writes an arbitrary frame (tests). *)
val send_raw : t -> string -> unit

val recv : t -> (Protocol.reply, string) result

val close : t -> unit
