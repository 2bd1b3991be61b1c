module Json = Hlp_util.Json
module Telemetry = Hlp_util.Telemetry
module Clock = Hlp_util.Clock

(* Replies from concurrently completing jobs interleave on one socket;
   the writer serialises frames and poisons the stream on a torn write
   (see {!Protocol.write_framed}).  [refs] counts who may still write:
   the reader thread for the connection's lifetime, plus whatever
   replies the role has retained. *)
type conn = {
  fd : Unix.file_descr;
  writer : Protocol.writer;
  rmu : Mutex.t;  (* guards [refs] *)
  mutable refs : int;
}

(* One per accepted connection, registered in [t.conns] before the
   handler thread starts so drain can see every live connection; [th] is
   filled in right after [Thread.create] returns. *)
type entry = { conn : conn; mutable th : Thread.t option }

type t = {
  socket_path : string;
  max_frame : int;
  listeners : Unix.file_descr list;
  wake_r : Unix.file_descr;  (* self-pipe: signal handler -> accept loop *)
  wake_w : Unix.file_descr;
  stop : bool Atomic.t;
  started_at : float;
  conn_mu : Mutex.t;
  mutable conns : entry list;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let unlink_quietly path =
  try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()

(* [f ()], or on an exception [undo ()] and re-raise: what a failed
   start opened must not outlive it. *)
let undo_on_error ~undo f =
  match f () with
  | v -> v
  | exception e ->
      undo ();
      raise e

let listen_unix path =
  (* A stale socket file from a dead daemon would make bind fail; only
     remove it when nothing is accepting on it. *)
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let alive =
        try
          Unix.connect probe (Unix.ADDR_UNIX path);
          true
        with Unix.Unix_error _ -> false
      in
      Unix.close probe;
      if alive then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
      else Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  undo_on_error
    ~undo:(fun () -> close_quietly fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64);
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  undo_on_error
    ~undo:(fun () -> close_quietly fd)
    (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64);
  fd

let create ~socket_path ~tcp_port ~max_frame =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let unix = listen_unix socket_path in
  let listeners =
    undo_on_error
      ~undo:(fun () ->
        close_quietly unix;
        unlink_quietly socket_path)
      (fun () -> unix :: Option.to_list (Option.map listen_tcp tcp_port))
  in
  let wake_r, wake_w = Unix.pipe () in
  {
    socket_path;
    max_frame;
    listeners;
    wake_r;
    wake_w;
    stop = Atomic.make false;
    (* Raw monotonic (not the injectable source): uptime is physical
       elapsed time even when a test has installed a fake timeline. *)
    started_at = Clock.monotonic ();
    conn_mu = Mutex.create ();
    conns = [];
  }

let shutdown t =
  if not (Atomic.exchange t.stop true) then
    (* Wake the accept loop.  A single byte suffices; EAGAIN/EPIPE can
       only mean shutdown already raced ahead of us. *)
    try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()

let install_signal_handlers t =
  let handle _ = shutdown t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle)

let stopping t = Atomic.get t.stop
let uptime t = Clock.monotonic () -. t.started_at

(* --- per-connection handling --- *)

let retain conn =
  Mutex.lock conn.rmu;
  conn.refs <- conn.refs + 1;
  Mutex.unlock conn.rmu

let release conn =
  Mutex.lock conn.rmu;
  conn.refs <- conn.refs - 1;
  let close = conn.refs = 0 in
  Mutex.unlock conn.rmu;
  if close then close_quietly conn.fd

(* A clean write failure (no bytes left) means the client left — the
   work's result is simply dropped, which is the only "dropped reply"
   the drain guarantee permits (there is no one left to read it).  A
   torn write poisons the connection instead: the writer shuts the
   stream down at the tear so no later frame can be spliced onto the
   torn one's tail, and every subsequent reply on that connection is
   dropped (counted separately — they are collateral of the tear, not
   independent failures). *)
let send_line conn line =
  match Protocol.write_framed conn.writer line with
  | `Ok -> ()
  | `Error -> Telemetry.count "server.replies_unwritable" 1
  | `Poisoned ->
      Telemetry.count "server.replies_unwritable" 1;
      Telemetry.count "server.conns_poisoned" 1
  | `Dropped -> Telemetry.count "server.replies_dropped" 1

let send conn reply = send_line conn (Protocol.encode_reply reply)

let send_inline conn ~id ~op result =
  send conn
    {
      Protocol.reply_id = id;
      payload =
        Protocol.Result { op; result; telemetry = []; elapsed_ms = 0. };
    }

let serve_conn t entry ~handle =
  let conn = entry.conn in
  let reader = Protocol.reader_of_fd ~max_frame:t.max_frame conn.fd in
  let rec loop () =
    (* A poisoned stream can never carry another reply, so reading
       further requests would only burn work on answers the client
       cannot receive; close instead. *)
    if Protocol.writer_poisoned conn.writer then ()
    else
      match Protocol.read_frame reader with
      | `Eof -> ()
      | `Too_large n ->
          Telemetry.count "server.frames_too_large" 1;
          send conn
            (Protocol.error_reply
               ~diagnostics:
                 [
                   Protocol.Diagnostic.error "S012" (Line 1)
                     "frame of %d bytes exceeds the %d-byte limit and was \
                      discarded unread"
                     n t.max_frame;
                 ]
               ~id:Json.Null Protocol.Frame_too_large
               "frame of %d bytes exceeds the %d-byte limit" n t.max_frame);
          loop ()
      | `Frame line ->
          Telemetry.count "server.frames" 1;
          (match Protocol.decode_request line with
          | Ok req -> handle conn ~raw:line req
          | Error { Protocol.err_code; err_id; err_diagnostics } ->
              Telemetry.count "server.frames_invalid" 1;
              send conn
                (Protocol.error_reply ~diagnostics:err_diagnostics ~id:err_id
                   err_code "invalid request frame"));
          loop ()
  in
  (try loop () with Unix.Unix_error _ | Sys_error _ -> ());
  (* Deregister before dropping the reader's reference: once released,
     the fd may close (and its number be recycled) as soon as the last
     retained reply is written, and drain must never shut down a
     recycled descriptor it finds in [t.conns]. *)
  Mutex.lock t.conn_mu;
  t.conns <- List.filter (fun e -> e != entry) t.conns;
  Mutex.unlock t.conn_mu;
  release conn

let accept t lfd ~handle =
  match Unix.accept lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      Telemetry.count "server.connections" 1;
      let conn =
        {
          fd;
          writer = Protocol.writer_of_fd fd;
          rmu = Mutex.create ();
          refs = 1 (* the reader thread's reference *);
        }
      in
      let entry = { conn; th = None } in
      Mutex.lock t.conn_mu;
      t.conns <- entry :: t.conns;
      Mutex.unlock t.conn_mu;
      let th = Thread.create (fun () -> serve_conn t entry ~handle) () in
      Mutex.lock t.conn_mu;
      entry.th <- Some th;
      Mutex.unlock t.conn_mu

let rec accept_loop t ~handle =
  if not (Atomic.get t.stop) then
    match Unix.select (t.wake_r :: t.listeners) [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t ~handle
    | readable, _, _ ->
        if not (List.mem t.wake_r readable || Atomic.get t.stop) then begin
          List.iter
            (fun lfd -> if List.mem lfd readable then accept t lfd ~handle)
            t.listeners;
          accept_loop t ~handle
        end

let run t ~name ~metrics_port ~metrics ~handle ~drain =
  let metrics =
    Option.map
      (fun port ->
        let m = Metrics.start ~port metrics in
        Logs.info (fun l ->
            l "%s: /metrics on 127.0.0.1:%d" name (Metrics.port m));
        m)
      metrics_port
  in
  accept_loop t ~handle;
  Logs.info (fun m -> m "%s: draining" name);
  (* 1. Stop accepting new connections. *)
  List.iter close_quietly t.listeners;
  unlink_quietly t.socket_path;
  (* 2. The role's step: the worker finishes every admitted request
        here, each writing its own reply. *)
  drain ();
  (* 3. Release the connections: shutting the receive side unblocks
        threads idle in read, while a thread mid-request still writes
        its reply before its next read sees EOF; then join them.  Only
        live connections are still registered — each thread
        deregisters itself on exit — and a registered conn's fd is
        provably open (its reader reference is still held), so no
        recycled fd number can be shut down here. *)
  Mutex.lock t.conn_mu;
  let conns = t.conns in
  Mutex.unlock t.conn_mu;
  List.iter
    (fun { conn; _ } ->
      try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun { th; _ } -> Option.iter Thread.join th) conns;
  (* 4. Stop the auxiliaries. *)
  Option.iter Metrics.stop metrics;
  close_quietly t.wake_r;
  close_quietly t.wake_w
