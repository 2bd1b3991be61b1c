(* Serving semantics, against an in-process daemon: concurrent replies
   bit-identical to sequential runs, backpressure on a full queue,
   deadline expiry freeing the worker slot, graceful drain with zero
   dropped replies (for a worker and for a cluster head, which share
   one front end), and a failed start that leaves nothing open.  (The
   CI smoke job covers the same ground over a real process boundary
   with a real SIGTERM.) *)

module Json = Hlp_util.Json
module P = Hlp_server.Protocol
module Server = Hlp_server.Server
module Client = Hlp_server.Client
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Benchmarks = Hlp_cdfg.Benchmarks
module Reg_binding = Hlp_core.Reg_binding
module Sa_table = Hlp_core.Sa_table
module Hlpower = Hlp_core.Hlpower
module Flow = Hlp_rtl.Flow

let check = Alcotest.(check bool)
let check_s = Alcotest.(check string)

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Printf.sprintf "/tmp/hlp_test_%d_%d.sock" (Unix.getpid ()) !socket_counter

(* Start a server.  [stop ()] shuts it down and returns once
   [Server.run] has; calling it again is harmless. *)
let start_server ?(workers = 2) ?(queue_capacity = 64) () =
  let socket_path = fresh_socket () in
  let config =
    { Server.default_config with
      Server.socket_path; workers; queue_capacity }
  in
  let server = Server.create ~config () in
  let runner = Thread.create (fun () -> Server.run server) () in
  let stop () =
    Server.shutdown server;
    Thread.join runner;
    try Unix.unlink socket_path with Unix.Unix_error _ -> ()
  in
  (socket_path, server, stop)

(* Start a server, run [f] against it, then drain — whatever [f] did. *)
let with_server ?workers ?queue_capacity f =
  let socket_path, server, stop = start_server ?workers ?queue_capacity () in
  Fun.protect ~finally:stop (fun () -> f socket_path server)

let is_ok = function
  | Ok { P.payload = P.Result _; _ } -> true
  | _ -> false

let error_code = function
  | Ok { P.payload = P.Error { code; _ }; _ } -> Some code
  | _ -> None

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* --- concurrent daemon == sequential CLI --- *)

(* Extract the raw bytes of the "result" object from a reply frame, so
   the comparison below is literal byte equality, not
   parse-and-compare. *)
let raw_result_of_frame line =
  let marker = "\"result\": " in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length line then
      Alcotest.failf "no result field in %s" line
    else if String.sub line i mlen = marker then i + mlen
    else find (i + 1)
  in
  let start = find 0 in
  let n = String.length line in
  let rec scan i depth in_string escaped =
    if i >= n then Alcotest.failf "unterminated result in %s" line
    else
      let c = line.[i] in
      if in_string then
        scan (i + 1) depth
          (escaped || c <> '"')
          ((not escaped) && c = '\\')
      else
        match c with
        | '"' -> scan (i + 1) depth true false
        | '{' | '[' -> scan (i + 1) (depth + 1) false false
        | '}' | ']' ->
            if depth = 1 then i + 1 else scan (i + 1) (depth - 1) false false
        | _ -> scan (i + 1) depth false false
  in
  let stop = scan start 0 false false in
  String.sub line start (stop - start)

(* One raw-frame exchange: send the request, return the reply frame. *)
let raw_request socket req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      P.write_frame fd (P.encode_request req);
      match P.read_frame (P.reader_of_fd fd) with
      | `Frame line -> line
      | `Too_large _ | `Eof -> Alcotest.fail "no reply frame")

let flow_width = 8
let flow_vectors = 30

(* The CLI pipeline for [bench], run sequentially in this process. *)
let sequential_flow_report bench =
  let p = Benchmarks.find bench in
  let cdfg = Benchmarks.generate p in
  let schedule =
    Schedule.list_schedule cdfg ~resources:(Benchmarks.resources p)
  in
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  let sa_table = Sa_table.create ~width:flow_width ~k:4 () in
  let params = Hlpower.calibrate ~alpha:0.5 sa_table in
  let r =
    Hlpower.bind ~params ~sa_table ~regs
      ~resources:(fun cls -> max 1 (Schedule.max_density schedule cls))
      schedule
  in
  let config =
    { Flow.default_config with Flow.width = flow_width; vectors = flow_vectors }
  in
  Flow.run ~config ~design:(bench ^ "-hlpower") r.Hlpower.binding

let test_concurrent_matches_sequential () =
  let benches = [ "pr"; "wang"; "honda"; "mcm" ] in
  with_server ~workers:4 (fun socket _server ->
      (* 4 concurrent clients, one bench each, all in flight at once. *)
      let frames = Array.make (List.length benches) "" in
      let threads =
        List.mapi
          (fun i bench ->
            Thread.create
              (fun () ->
                frames.(i) <-
                  raw_request socket
                    {
                      P.id = Json.Int i;
                      deadline_ms = None;
                      op =
                        P.Flow
                          { P.default_bind_params with
                            P.bench;
                            width = flow_width;
                            vectors = flow_vectors };
                    })
              ())
          benches
      in
      List.iter Thread.join threads;
      List.iteri
        (fun i bench ->
          let expected =
            Json.to_string (Flow.json_of_report (sequential_flow_report bench))
          in
          check_s
            (Printf.sprintf "%s concurrent == sequential (bit-identical)"
               bench)
            expected
            (raw_result_of_frame frames.(i)))
        benches)

(* --- lint over the wire: the report object must arrive in one
   newline-delimited frame --- *)

let test_lint_reply_single_frame () =
  with_server ~workers:1 (fun socket _server ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* A kernel names a design too, and no bench lints all 22 the
             CLI does: 11 designs under both binders. *)
          List.iter
            (fun (lint_bench, designs) ->
              match
                Client.request c
                  {
                    P.id = Json.Int 1;
                    deadline_ms = None;
                    op =
                      P.Lint
                        { P.lint_bench; lint_binder = "both"; lint_width = 8 };
                  }
              with
              | Ok { P.payload = P.Result { result; _ }; _ } ->
                  check
                    (Printf.sprintf "%d designs linted" designs)
                    true
                    (Json.member "designs" result = Some (Json.Int designs));
                  check "no lint errors" true
                    (Json.member "errors" result = Some (Json.Int 0));
                  check "report object present" true
                    (match Json.member "report" result with
                    | Some (Json.Obj _) -> true
                    | _ -> false)
              | Ok { P.payload = P.Error { message; _ }; _ } ->
                  Alcotest.failf "lint replied error: %s" message
              | Error e -> Alcotest.failf "lint transport error: %s" e)
            [ (Some "pr", 2); (Some "fir8", 2); (None, 22) ]))

(* --- backpressure: a full queue refuses rather than hangs --- *)

let test_overloaded () =
  with_server ~workers:1 ~queue_capacity:1 (fun socket _server ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let ping i ms =
            Client.send c
              { P.id = Json.Int i; deadline_ms = None; op = P.Ping ms }
          in
          ping 1 800;
          Thread.delay 0.25 (* worker picks #1 up; queue empty again *);
          ping 2 800 (* fills the queue *);
          Thread.delay 0.1;
          ping 3 0 (* queue full -> refused immediately *);
          (* The refusal arrives first — #1 and #2 are still running. *)
          let r3 = Client.recv c in
          check "third request refused" true
            (error_code r3 = Some P.Overloaded);
          (match r3 with
          | Ok { P.reply_id; _ } ->
              check "refusal echoes its id" true (reply_id = Json.Int 3)
          | Error e -> Alcotest.fail e);
          (* The admitted requests still complete. *)
          check "first request ok" true (is_ok (Client.recv c));
          check "second request ok" true (is_ok (Client.recv c))))

(* --- deadlines: expiry replies deadline_exceeded and frees the slot --- *)

let test_deadline_exceeded () =
  with_server ~workers:1 (fun socket _server ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let r =
            Client.request c
              { P.id = Json.Int 1; deadline_ms = Some 50; op = P.Ping 5000 }
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          check "expired" true (error_code r = Some P.Deadline_exceeded);
          (* The 5 s ping was abandoned at a checkpoint, not run out. *)
          check
            (Printf.sprintf "slot freed early (%.2f s)" elapsed)
            true (elapsed < 2.0);
          (* The freed worker serves the next request promptly. *)
          let r2 =
            Client.request c
              { P.id = Json.Int 2; deadline_ms = None; op = P.Ping 0 }
          in
          check "next request succeeds" true (is_ok r2)))

let test_deadline_expired_in_queue () =
  (* A request whose deadline passes while it waits in the queue is
     rejected the moment a worker picks it up. *)
  with_server ~workers:1 (fun socket _server ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.send c
            { P.id = Json.Int 1; deadline_ms = None; op = P.Ping 500 };
          Thread.delay 0.1;
          Client.send c
            { P.id = Json.Int 2; deadline_ms = Some 50; op = P.Ping 0 };
          let r1 = Client.recv c in
          let r2 = Client.recv c in
          check "long ping ok" true (is_ok r1);
          check "queued request expired" true
            (error_code r2 = Some P.Deadline_exceeded)))

(* --- stats answers inline even when every worker is busy --- *)

let test_stats_inline () =
  with_server ~workers:1 (fun socket server ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.send c
            { P.id = Json.Int 1; deadline_ms = None; op = P.Ping 600 };
          Thread.delay 0.2 (* the only worker is now busy *);
          let c2 = Client.connect socket in
          Fun.protect
            ~finally:(fun () -> Client.close c2)
            (fun () ->
              let t0 = Unix.gettimeofday () in
              let r =
                Client.request c2
                  { P.id = Json.Int 2; deadline_ms = None; op = P.Stats }
              in
              let elapsed = Unix.gettimeofday () -. t0 in
              check "stats ok" true (is_ok r);
              check "stats served while worker busy" true (elapsed < 0.3));
          check "ping completes" true (is_ok (Client.recv c));
          ignore (Server.stats_json server)))

(* --- a client that leaves before its reply must not corrupt another
   client's stream --- *)

let test_disconnect_before_reply_isolated () =
  with_server ~workers:1 (fun socket _server ->
      (* The ghost parks a slow ping and vanishes.  Its fd number
         becomes the lowest free one — exactly what the next accept
         reuses if the server closes the fd at client EOF while the job
         still holds it, sending the ghost's reply into the newcomer's
         stream. *)
      let a = Client.connect socket in
      Client.send a
        { P.id = Json.String "ghost"; deadline_ms = None; op = P.Ping 400 };
      Client.close a;
      let b = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close b)
        (fun () ->
          (* One worker: these queue behind the ghost ping, so its
             orphaned reply is written while this stream is live. *)
          for i = 1 to 5 do
            match
              Client.request b
                { P.id = Json.Int i; deadline_ms = None; op = P.Ping 50 }
            with
            | Ok { P.reply_id; payload = P.Result _ } ->
                check (Printf.sprintf "reply %d carries its own id" i) true
                  (reply_id = Json.Int i)
            | Ok { P.payload = P.Error { message; _ }; _ } ->
                Alcotest.failf "request %d replied error: %s" i message
            | Error e -> Alcotest.failf "request %d transport error: %s" i e
          done))

(* --- hostile inline graphs over the wire: structured S-diagnostics,
   and the connection survives the rejection --- *)

let inline_diamond ~name =
  Hlp_cdfg.Cdfg.create ~name ~num_inputs:2
    ~ops:
      [
        { Hlp_cdfg.Cdfg.id = 0; kind = Hlp_cdfg.Cdfg.Add;
          left = Hlp_cdfg.Cdfg.Input 0; right = Hlp_cdfg.Cdfg.Input 1 };
        { Hlp_cdfg.Cdfg.id = 1; kind = Hlp_cdfg.Cdfg.Mult;
          left = Hlp_cdfg.Cdfg.Op 0; right = Hlp_cdfg.Cdfg.Input 0 };
      ]
    ~outputs:[ Hlp_cdfg.Cdfg.Op 1 ]

let inline_flow ?(name = "wire") () =
  P.Flow
    { P.default_bind_params with
      P.graph = Some (inline_diamond ~name); width = 4; vectors = 40 }

let test_hostile_graph_over_wire () =
  with_server ~workers:1 (fun socket _server ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* A cyclic "DAG" (op 0 reads op 1, op 1 reads op 0) cannot be
             built client-side, so it goes over the wire raw. *)
          Client.send_raw c
            "{\"id\": 1, \"op\": \"flow\", \"params\": {\"graph\": \
             {\"inputs\": 1, \"ops\": [{\"kind\": \"add\", \"left\": \
             {\"op\": 1}, \"right\": {\"input\": 0}}, {\"kind\": \"add\", \
             \"left\": {\"op\": 0}, \"right\": {\"input\": 0}}], \
             \"outputs\": [{\"op\": 1}]}}}";
          (match Client.recv c with
          | Ok { P.payload = P.Error { code; diagnostics; _ }; _ } ->
              check "cyclic graph -> bad_request" true
                (code = P.Bad_request);
              check "reply carries S008" true
                (List.exists
                   (fun d -> d.P.Diagnostic.code = "S008")
                   diagnostics)
          | Ok { P.payload = P.Result _; _ } ->
              Alcotest.fail "cyclic graph was accepted"
          | Error e -> Alcotest.failf "transport error: %s" e);
          (* Width beyond the cap is refused the same way. *)
          Client.send_raw c
            "{\"id\": 2, \"op\": \"flow\", \"params\": {\"bench\": \"pr\", \
             \"width\": 64}}";
          check "width 64 -> bad_request" true
            (error_code (Client.recv c) = Some P.Bad_request);
          (* The rejections did not poison the connection: a valid
             inline graph on the same stream completes. *)
          let r =
            Client.request c
              {
                P.id = Json.Int 3;
                deadline_ms = None;
                op = inline_flow ();
              }
          in
          check "valid inline graph ok after rejections" true (is_ok r)))

(* --- telemetry stays bounded under client-chosen design names --- *)

(* An inline graph's name comes from the client, so no telemetry may be
   keyed on it: once the pipeline's phase timers exist, flows under
   fresh design names must leave the process-global timer table as it
   was, or a long-running daemon grows it without bound. *)
let test_inline_flows_keep_timers_bounded () =
  let router = Hlp_server.Router.create () in
  let flow name =
    match
      Hlp_server.Router.handle router ~checkpoint:ignore
        (inline_flow ~name ())
    with
    | Ok j ->
        check ("report names " ^ name) true
          (contains (Json.to_string j)
             (Printf.sprintf "\"design\": \"%s-hlpower\"" name))
    | Error _ -> Alcotest.failf "inline flow %s failed" name
  in
  flow "warm-up";
  let timers () = List.length (Hlp_util.Telemetry.timers ()) in
  let before = timers () in
  for i = 1 to 20 do
    flow (Printf.sprintf "client-graph-%d" i)
  done;
  Alcotest.(check int) "timer count unchanged" before (timers ())

(* --- graceful drain: every accepted request gets its reply --- *)

(* Three clients each park a 600 ms ping; [stop] shuts the daemon down
   while they run and returns once its [run] has.  Every accepted
   request still gets its reply, and the socket is gone. *)
let check_drain_completes ~socket ~stop =
  let clients = Array.init 3 (fun _ -> Client.connect socket) in
  Fun.protect
    ~finally:(fun () -> Array.iter Client.close clients)
    (fun () ->
      Array.iteri
        (fun i c ->
          Client.send c
            { P.id = Json.Int i; deadline_ms = None; op = P.Ping 600 })
        clients;
      Thread.delay 0.2 (* all three accepted and running or queued *);
      stop ();
      Array.iteri
        (fun i c ->
          check (Printf.sprintf "request %d replied after SIGTERM" i) true
            (is_ok (Client.recv c)))
        clients);
  check "socket file removed" false (Sys.file_exists socket);
  match Client.connect socket with
  | c ->
      Client.close c;
      Alcotest.fail "connect after drain should fail"
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ()

(* The worker runs the pings on its scheduler; the head (over two
   workers) has them in flight as forwards. *)
let test_drain_completes_accepted () =
  let socket, _server, stop = start_server ~workers:2 () in
  Fun.protect ~finally:stop (fun () -> check_drain_completes ~socket ~stop);
  let c = Test_cluster.start_cluster ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Test_cluster.stop_cluster c)
    (fun () ->
      check_drain_completes ~socket:c.Test_cluster.head_socket
        ~stop:c.Test_cluster.stop_head)

(* --- a start that fails leaves nothing open --- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> assert false)

(* Both daemons bind through one front end.  [start socket port]
   creates one, raising when binding fails, and returns a function that
   runs it through its drain. *)
let daemons =
  let worker socket_path tcp_port =
    let config =
      { Server.default_config with
        Server.socket_path; tcp_port = Some tcp_port; workers = 1 }
    in
    let s = Server.create ~config () in
    fun () ->
      Server.shutdown s;
      Server.run s
  in
  let head socket_path tcp_port =
    let config =
      { Hlp_cluster.Head.default_config with
        Hlp_cluster.Head.socket_path;
        tcp_port = Some tcp_port;
        backends = [ ("w0", Client.Unix_path (fresh_socket ())) ] }
    in
    let h = Hlp_cluster.Head.create ~config () in
    fun () ->
      Hlp_cluster.Head.shutdown h;
      Hlp_cluster.Head.run h
  in
  [ ("worker", worker); ("head", head) ]

let test_failed_start_leaves_nothing_open () =
  List.iter
    (fun (name, start) ->
      let fails what socket port =
        let before = open_fds () in
        (match start socket port with
        | finish ->
            finish ();
            Alcotest.failf "%s: start %s should fail" name what
        | exception Unix.Unix_error _ -> ());
        Alcotest.(check int)
          (Printf.sprintf "%s: fds after start %s" name what)
          before (open_fds ());
        check
          (Printf.sprintf "%s: no socket file after start %s" name what)
          false (Sys.file_exists socket)
      in
      (* The Unix socket cannot bind; the TCP port could. *)
      let port = free_port () in
      fails "in a missing directory" "/nonexistent-hlp-dir/d.sock" port;
      (* ...and the retry on that port succeeds. *)
      let socket = fresh_socket () in
      (start socket port) ();
      check (name ^ ": drained start removes its socket") false
        (Sys.file_exists socket);
      (* The Unix socket binds; the TCP port is taken. *)
      let holder = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close holder)
        (fun () ->
          Unix.bind holder (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
          Unix.listen holder 1;
          match Unix.getsockname holder with
          | Unix.ADDR_INET (_, taken) ->
              fails "on a taken port" (fresh_socket ()) taken
          | Unix.ADDR_UNIX _ -> assert false))
    daemons

(* --- clients that vanish mid-request leave no fd open --- *)

(* Half the clients park a slow ping, half send a torn frame; all close
   without reading.  The server holds each parked ping's fd until its
   (unwritable) reply, so the count returns only once the jobs finish:
   a ping queued behind them on the one worker says when. *)
let test_abrupt_disconnects_release_fds () =
  with_server ~workers:1 (fun socket _server ->
      let before = open_fds () in
      for i = 1 to 6 do
        let frame =
          P.encode_request
            { P.id = Json.Int i; deadline_ms = None; op = P.Ping 100 }
        in
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        if i mod 2 = 0 then P.write_frame fd frame
        else ignore (Unix.write_substring fd frame 0 (String.length frame / 2));
        Unix.close fd
      done;
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          check "a ping behind the parked ones" true
            (is_ok
               (Client.request c
                  { P.id = Json.Int 0; deadline_ms = None; op = P.Ping 0 })));
      let rec settle tries =
        let n = open_fds () in
        if n = before || tries = 0 then n
        else begin
          Thread.delay 0.02;
          settle (tries - 1)
        end
      in
      Alcotest.(check int) "fds after the jobs finish" before (settle 100))

(* --- incremental sessions over the wire --- *)

let result_of = function
  | Ok { P.payload = P.Result { result; _ }; _ } -> result
  | Ok { P.payload = P.Error { message; _ }; _ } ->
      Alcotest.failf "error reply: %s" message
  | Error msg -> Alcotest.failf "transport: %s" msg

let reply_has_diag code = function
  | Ok { P.payload = P.Error { diagnostics; _ }; _ } ->
      List.exists (fun d -> d.Hlp_lint.Diagnostic.code = code) diagnostics
  | _ -> false

let test_sessions_over_the_wire () =
  with_server ~workers:2 (fun socket _server ->
      let a = Client.connect socket in
      let b = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close a; Client.close b)
        (fun () ->
          let rid = ref 0 in
          let req c op =
            incr rid;
            Client.request c { P.id = Json.Int !rid; deadline_ms = None; op }
          in
          let j =
            result_of
              (req a
                 (P.Session_open
                    { P.default_session_open_params with P.so_bench = "pr" }))
          in
          let sid =
            match Json.member "session" j with
            | Some (Json.String s) -> s
            | _ -> Alcotest.fail "open reply has no session id"
          in
          (* Sessions are daemon state, not connection state: another
             connection continues the same session. *)
          let e =
            result_of
              (req b
                 (P.Session_edit
                    { P.se_session = sid; se_delta = P.D_set_alpha 1.0 }))
          in
          check "edit from second connection" true
            (Json.member "bind" e <> None);
          (* The daemon's stats carry the session table. *)
          (match Json.member "sessions" (result_of (req a P.Stats)) with
          | Some (Json.Obj fields) ->
              check "stats count the open session" true
                (List.assoc_opt "open" fields = Some (Json.Int 1))
          | _ -> Alcotest.fail "stats reply has no sessions object");
          let c =
            result_of (req b (P.Session_close { P.sc_session = sid }))
          in
          check "close reports the edit" true
            (Json.member "edits" c = Some (Json.Int 1));
          check "edit after close -> S013 over the wire" true
            (reply_has_diag "S013"
               (req a
                  (P.Session_edit
                     { P.se_session = sid; se_delta = P.D_set_alpha 0.5 })))))

let test_drain_with_open_sessions () =
  (* SIGTERM (Server.shutdown) with sessions still open must drain
     cleanly: in-flight replies delivered, the listener closed, and the
     process not wedged on session state. *)
  with_server ~workers:2 (fun socket server ->
      let c = Client.connect socket in
      let opened =
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            List.map
              (fun (i, bench) ->
                match
                  Client.request c
                    { P.id = Json.Int i;
                      deadline_ms = None;
                      op =
                        P.Session_open
                          { P.default_session_open_params with
                            P.so_bench = bench } }
                with
                | Ok { P.payload = P.Result _; _ } -> true
                | _ -> false)
              [ (1, "pr"); (2, "wang") ])
      in
      check "both sessions opened" true (List.for_all Fun.id opened);
      Server.shutdown server;
      (* Drain finishes asynchronously; give the listener a bounded
         window to close, then new connections must be refused. *)
      let rec refused attempts =
        if attempts = 0 then
          Alcotest.fail "listener still accepting after drain"
        else
          match Client.connect socket with
          | c2 ->
              Client.close c2;
              Thread.delay 0.05;
              refused (attempts - 1)
          | exception
              Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
              ()
      in
      refused 100)

let test_draining_refuses_new_requests () =
  with_server ~workers:1 (fun socket server ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.send c
            { P.id = Json.Int 1; deadline_ms = None; op = P.Ping 600 };
          Thread.delay 0.15;
          Server.shutdown server;
          Thread.delay 0.05;
          (* The connection predates the drain, so this send still lands —
             but admission is closed. *)
          (match
             Client.request c
               { P.id = Json.Int 2; deadline_ms = None; op = P.Ping 0 }
           with
          | r ->
              check "late request refused as draining" true
                (error_code r = Some P.Draining)
          | exception (Unix.Unix_error _ | Sys_error _) ->
              (* The drain may win the race and close the connection
                 before the frame lands; that is also a refusal. *)
              ());
          check "accepted request still completes" true
            (is_ok (Client.recv c))))

(* --- deadlines live on the injectable monotonic timeline, not the
   wall clock --- *)

module Clock = Hlp_util.Clock

let with_fake_clock f =
  let fake = Atomic.make 1_000_000.0 in
  Clock.set_source (fun () -> Atomic.get fake);
  Fun.protect ~finally:Clock.use_monotonic (fun () -> f fake)

let test_wall_step_does_not_expire_deadlines () =
  (* With the injectable timeline frozen, 300 ms of real time pass
     while a 50 ms deadline is in flight.  On the old
     Unix.gettimeofday arithmetic the request would expire; on the
     monotonic timeline the deadline only moves when the timeline
     does, so the request completes.  This is exactly the "NTP stepped
     the wall clock backwards/forwards mid-request" scenario. *)
  with_fake_clock (fun _fake ->
      with_server ~workers:1 (fun socket _server ->
          let c = Client.connect socket in
          let r =
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                Client.request c
                  { P.id = Json.Int 1; deadline_ms = Some 50; op = P.Ping 300 })
          in
          check "frozen timeline: deadline does not expire" true (is_ok r)))

let test_timeline_step_expires_promptly () =
  (* The converse: stepping the injectable timeline an hour forward
     mid-flight must expire the request at the next checkpoint — and
     in real elapsed time, promptly (the worker does not serve out the
     remaining sleep). *)
  with_fake_clock (fun fake ->
      with_server ~workers:1 (fun socket _server ->
          let t0 = Unix.gettimeofday () in
          let c = Client.connect socket in
          let r =
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                Client.send c
                  {
                    P.id = Json.Int 1;
                    deadline_ms = Some 1000;
                    op = P.Ping 5000;
                  };
                Thread.delay 0.1;
                Atomic.set fake (Atomic.get fake +. 3600.);
                Client.recv c)
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          check "timeline step expires the request" true
            (error_code r = Some P.Deadline_exceeded);
          check
            (Printf.sprintf "expired promptly (%.2f s real)" elapsed)
            true (elapsed < 2.0)))

(* --- the overloaded reply reports the actual queue state --- *)

let test_overloaded_reports_real_depth () =
  with_server ~workers:1 ~queue_capacity:2 (fun socket _server ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let ping i ms =
            Client.send c
              { P.id = Json.Int i; deadline_ms = None; op = P.Ping ms }
          in
          ping 1 800;
          Thread.delay 0.25 (* #1 running, queue empty *);
          ping 2 800;
          ping 3 800;
          Thread.delay 0.1 (* queue now holds #2 and #3 *);
          ping 4 0 (* refused *);
          match Client.recv c with
          | Ok { P.payload = P.Error { code; message; _ }; _ } ->
              check "refused as overloaded" true (code = P.Overloaded);
              (* The old reply printed the configured capacity as "N
                 waiting" regardless of load; the message must now
                 carry the real depth. *)
              check
                (Printf.sprintf "message reports real depth: %s" message)
                true
                (contains message "2 queued, 1 running, capacity 2")
          | Ok { P.payload = P.Result _; _ } ->
              Alcotest.fail "fourth request was admitted past a full queue"
          | Error e -> Alcotest.failf "transport error: %s" e))

let suite =
  [
    Alcotest.test_case "4 concurrent clients == sequential" `Slow
      test_concurrent_matches_sequential;
    Alcotest.test_case "lint reply is one frame" `Quick
      test_lint_reply_single_frame;
    Alcotest.test_case "full queue -> overloaded" `Quick test_overloaded;
    Alcotest.test_case "deadline exceeded frees slot" `Quick
      test_deadline_exceeded;
    Alcotest.test_case "deadline expires in queue" `Quick
      test_deadline_expired_in_queue;
    Alcotest.test_case "stats inline under load" `Quick test_stats_inline;
    Alcotest.test_case "disconnect before reply stays isolated" `Quick
      test_disconnect_before_reply_isolated;
    Alcotest.test_case "hostile graph over the wire" `Quick
      test_hostile_graph_over_wire;
    Alcotest.test_case "inline flows keep timers bounded" `Quick
      test_inline_flows_keep_timers_bounded;
    Alcotest.test_case "sessions live on the daemon, not the socket" `Quick
      test_sessions_over_the_wire;
    Alcotest.test_case "drain with open sessions is clean" `Quick
      test_drain_with_open_sessions;
    Alcotest.test_case "drain completes accepted work" `Quick
      test_drain_completes_accepted;
    Alcotest.test_case "abrupt disconnects release their fds" `Quick
      test_abrupt_disconnects_release_fds;
    Alcotest.test_case "failed start leaves nothing open" `Quick
      test_failed_start_leaves_nothing_open;
    Alcotest.test_case "draining refuses new work" `Quick
      test_draining_refuses_new_requests;
    Alcotest.test_case "wall step does not expire deadlines" `Quick
      test_wall_step_does_not_expire_deadlines;
    Alcotest.test_case "timeline step expires promptly" `Quick
      test_timeline_step_expires_promptly;
    Alcotest.test_case "overloaded reports real depth" `Quick
      test_overloaded_reports_real_depth;
  ]
