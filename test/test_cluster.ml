(* Cluster semantics against an in-process head + worker fleet: relay
   byte-fidelity, the head's front-end replies byte-equal to a
   worker's, session stickiness through shard-prefixed ids,
   failover of idempotent requests when a shard dies, the S017/S018
   diagnostics, the aggregated cluster_stats op, the /metrics HTTP
   endpoint, and the client's bounded retry across a daemon restart.
   (CI's cluster-smoke job covers the same ground across real process
   boundaries with a real SIGKILL.) *)

module Json = Hlp_util.Json
module P = Hlp_server.Protocol
module Server = Hlp_server.Server
module Client = Hlp_server.Client
module Metrics = Hlp_server.Metrics
module Prometheus = Hlp_util.Prometheus
module Head = Hlp_cluster.Head

let check = Alcotest.(check bool)
let check_s = Alcotest.(check string)
let check_i = Alcotest.(check int)

let socket_counter = ref 0

let fresh_socket tag =
  incr socket_counter;
  Printf.sprintf "/tmp/hlp_cluster_%s_%d_%d.sock" tag (Unix.getpid ())
    !socket_counter

type worker = {
  w_name : string;
  w_socket : string;
  w_server : Server.t;
  w_runner : Thread.t;
  mutable w_down : bool;
}

let start_worker ?(max_frame = P.default_max_frame) name =
  let socket_path = fresh_socket name in
  let config =
    { Server.default_config with Server.socket_path; workers = 1; max_frame }
  in
  let server = Server.create ~config () in
  let runner = Thread.create (fun () -> Server.run server) () in
  {
    w_name = name;
    w_socket = socket_path;
    w_server = server;
    w_runner = runner;
    w_down = false;
  }

let stop_worker w =
  if not w.w_down then begin
    w.w_down <- true;
    Server.shutdown w.w_server;
    Thread.join w.w_runner;
    try Unix.unlink w.w_socket with Unix.Unix_error _ -> ()
  end

type cluster = {
  head_socket : string;
  head : Head.t;
  workers : worker list;
  stop_head : unit -> unit;
      (** shuts the head down and returns once [Head.run] has *)
}

(* Start [n] workers and a head over them, all at one [max_frame].
   fail_threshold 1 so a single forced health round (or one failed
   forward) marks a dead shard out. *)
let start_cluster ?(n = 2) ?metrics_port ?(max_frame = P.default_max_frame)
    () =
  let workers =
    List.init n (fun i -> start_worker ~max_frame (Printf.sprintf "w%d" i))
  in
  let head_socket = fresh_socket "head" in
  let config =
    {
      Head.default_config with
      Head.socket_path = head_socket;
      backends =
        List.map (fun w -> (w.w_name, Client.Unix_path w.w_socket)) workers;
      fail_threshold = 1;
      retry_backoff_ms = 5;
      forward_timeout_s = Some 10.;
      metrics_port;
      max_frame;
    }
  in
  let head = Head.create ~config () in
  let runner = Thread.create (fun () -> Head.run head) () in
  let stop_head () =
    Head.shutdown head;
    Thread.join runner
  in
  { head_socket; head; workers; stop_head }

let stop_cluster c =
  c.stop_head ();
  List.iter stop_worker c.workers;
  try Unix.unlink c.head_socket with Unix.Unix_error _ -> ()

(* Run [f] against a fresh cluster, then tear everything down. *)
let with_cluster ?n ?metrics_port ?max_frame f =
  let c = start_cluster ?n ?metrics_port ?max_frame () in
  Fun.protect
    ~finally:(fun () -> stop_cluster c)
    (fun () -> f ~head_socket:c.head_socket ~head:c.head ~workers:c.workers)

let req ?deadline_ms id op = { P.id = Json.Int id; deadline_ms; op }

let result_of = function
  | Ok { P.payload = P.Result { result; _ }; _ } -> result
  | Ok { P.payload = P.Error { message; _ }; _ } ->
      Alcotest.failf "error reply: %s" message
  | Error msg -> Alcotest.failf "transport: %s" msg

let error_of = function
  | Ok { P.payload = P.Error { code; diagnostics; _ }; _ } ->
      (code, List.map (fun d -> d.P.Diagnostic.code) diagnostics)
  | Ok { P.payload = P.Result _; _ } -> Alcotest.fail "expected error reply"
  | Error msg -> Alcotest.failf "transport: %s" msg

let bind_op ?(width = 8) () =
  P.Bind { P.default_bind_params with P.bench = "pr"; width; vectors = 20 }

(* Raw exchanges over one fresh connection: each frame in turn, and
   its reply line. *)
let raw_requests socket lines =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let reader = P.reader_of_fd fd in
      List.map
        (fun line ->
          P.write_frame fd line;
          match P.read_frame reader with
          | `Frame line -> line
          | `Too_large _ | `Eof -> Alcotest.fail "no reply frame")
        lines)

let raw_request socket line = List.hd (raw_requests socket [ line ])

(* --- relay byte-fidelity --- *)

let test_relay_bytes () =
  with_cluster ~n:1 (fun ~head_socket ~head:_ ~workers ->
      let w = List.hd workers in
      let frame = P.encode_request (req 42 (bind_op ())) in
      let direct = raw_request w.w_socket frame in
      let via_head = raw_request head_socket frame in
      (* Only elapsed_ms/telemetry may differ?  No — the head relays the
         worker's bytes untouched, so modulo the worker's own timing
         fields the frames are the same bytes.  Compare the result
         object literally. *)
      let result_bytes line =
        match P.decode_reply line with
        | Ok { P.payload = P.Result { result; _ }; _ } -> Json.to_string result
        | _ -> Alcotest.failf "bad reply: %s" line
      in
      check_s "bind result via head == direct" (result_bytes direct)
        (result_bytes via_head);
      (* and the id is echoed through *)
      match P.decode_reply via_head with
      | Ok { P.reply_id = Json.Int 42; _ } -> ()
      | _ -> Alcotest.fail "id not echoed through the head")

(* --- the head's front end is the worker's --- *)

(* Frames rejected before any routing: oversized (S012), not JSON, an
   unknown op, bad params.  The head and a worker at the same
   [max_frame] must answer each with the same bytes. *)
let test_front_end_parity () =
  let max_frame = 4096 in
  with_cluster ~n:1 ~max_frame (fun ~head_socket ~head:_ ~workers ->
      let frames =
        [
          String.make (max_frame + 100) 'x';
          "this is not json";
          "{\"id\": 7, \"op\": \"frobnicate\", \"params\": {}}";
          "{\"id\": 8, \"op\": \"bind\", \"params\": {\"bench\": \"pr\", \
           \"width\": 0, \"binder\": \"greedy\"}}";
        ]
      in
      let worker = raw_requests (List.hd workers).w_socket frames in
      let via_head = raw_requests head_socket frames in
      List.iter2 (check_s "head reply == worker reply") worker via_head;
      check "the oversized frame earned S012" true
        (snd (error_of (P.decode_reply (List.hd worker))) = [ "S012" ]))

(* --- session stickiness --- *)

let open_session socket ~width =
  let line =
    raw_request socket
      (P.encode_request
         (req 1
            (P.Session_open
               { P.default_session_open_params with P.so_bench = "pr";
                 so_width = width })))
  in
  match P.decode_reply line with
  | Ok { P.payload = P.Result { result; _ }; _ } -> (
      match Json.member "session" result with
      | Some (Json.String sid) -> sid
      | _ -> Alcotest.fail "no session id in session_open reply")
  | _ -> Alcotest.failf "session_open failed: %s" line

let test_session_stickiness () =
  with_cluster ~n:3 (fun ~head_socket ~head:_ ~workers ->
      let c = Client.connect head_socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* Sessions across widths spread over shards; every edit must
             land back on its owner (any other shard would S013). *)
          let sids = List.map (fun w -> open_session head_socket ~width:w)
              [ 2; 3; 4; 5; 6; 7 ] in
          List.iter
            (fun sid ->
              check "sid carries a shard prefix" true
                (String.contains sid '/');
              let shard = List.hd (String.split_on_char '/' sid) in
              check "prefix names a real worker" true
                (List.exists (fun w -> w.w_name = shard) workers);
              let r =
                Client.request c
                  (req 2
                     (P.Session_edit
                        {
                          P.se_session = sid;
                          se_delta = P.D_set_alpha 1.0;
                        }))
              in
              ignore (result_of r);
              ignore
                (result_of
                   (Client.request c
                      (req 3 (P.Session_close { P.sc_session = sid })))))
            sids))

(* --- failover and the S017/S018 diagnostics --- *)

let test_failover_idempotent () =
  with_cluster ~n:2 (fun ~head_socket ~head ~workers ->
      let c = Client.connect head_socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* Warm both shards, then kill one.  Every bind keeps
             succeeding: dead-shard keys fail over to the survivor. *)
          List.iter
            (fun w -> ignore (result_of (Client.request c (req 1 (bind_op ~width:w ())))))
            [ 2; 3; 4; 5 ];
          stop_worker (List.nth workers 1);
          Head.force_health_round head;
          List.iter
            (fun w -> ignore (result_of (Client.request c (req 2 (bind_op ~width:w ())))))
            [ 2; 3; 4; 5; 6; 7 ]))

let test_dead_shard_mid_session () =
  with_cluster ~n:2 (fun ~head_socket ~head ~workers ->
      let c = Client.connect head_socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let sid = open_session head_socket ~width:4 in
          let shard = List.hd (String.split_on_char '/' sid) in
          let victim = List.find (fun w -> w.w_name = shard) workers in
          stop_worker victim;
          Head.force_health_round head;
          let code, diags =
            error_of
              (Client.request c
                 (req 9
                    (P.Session_edit
                       { P.se_session = sid; se_delta = P.D_set_alpha 1.0 })))
          in
          check "dead shard mid-session is unavailable" true
            (code = P.Unavailable);
          check "diagnostic S017" true (List.mem "S017" diags)))

let test_bad_session_ids () =
  with_cluster ~n:1 (fun ~head_socket ~head:_ ~workers:_ ->
      let c = Client.connect head_socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let check_s018 sid =
            let code, diags =
              error_of
                (Client.request c
                   (req 4 (P.Session_close { P.sc_session = sid })))
            in
            check (sid ^ " rejected") true (code = P.Bad_request);
            check (sid ^ " diagnosed S018") true (List.mem "S018" diags)
          in
          check_s018 "no-prefix";
          check_s018 "ghost/s-1"))

(* --- cluster_stats aggregation --- *)

let test_cluster_stats () =
  with_cluster ~n:2 (fun ~head_socket ~head:_ ~workers:_ ->
      let c = Client.connect head_socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let r = result_of (Client.request c (req 5 P.Cluster_stats)) in
          (match Json.member "role" r with
          | Some (Json.String "head") -> ()
          | _ -> Alcotest.fail "cluster_stats role");
          match Json.member "shards" r with
          | Some (Json.Obj shards) ->
              check_i "one entry per live shard" 2 (List.length shards);
              List.iter
                (fun (_, v) ->
                  match Json.member "role" v with
                  | Some (Json.String "worker") -> ()
                  | _ -> Alcotest.fail "shard entry is a worker reply")
                shards
          | _ -> Alcotest.fail "cluster_stats shards"))

(* --- /metrics endpoint + Prometheus rendering --- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let q = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write fd (Bytes.of_string q) 0 (String.length q));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error _ -> ()
      in
      drain ();
      Buffer.contents buf)

let test_metrics_endpoint () =
  let m =
    Metrics.start ~port:0 (fun () ->
        Prometheus.render
          [
            Prometheus.counter ~help:"Requests." "test_requests" 17.;
            Prometheus.gauge
              ~labels:[ ("shard", "w\"0\n") ]
              ~help:"Depth." "test_depth" 3.;
          ])
  in
  Fun.protect
    ~finally:(fun () -> Metrics.stop m)
    (fun () ->
      let body = http_get (Metrics.port m) "/metrics" in
      check "200" true
        (String.length body > 12 && String.sub body 0 12 = "HTTP/1.0 200");
      let has needle =
        let n = String.length needle and h = String.length body in
        let rec go i = i + n <= h && (String.sub body i n = needle || go (i + 1)) in
        go 0
      in
      check "counter rendered with _total" true
        (has "test_requests_total 17");
      check "TYPE line" true (has "# TYPE test_requests_total counter");
      check "label escaped" true (has "{shard=\"w\\\"0\\n\"}");
      let nf = http_get (Metrics.port m) "/other" in
      check "404 elsewhere" true
        (String.length nf > 12 && String.sub nf 0 12 = "HTTP/1.0 404"))

let test_head_metrics () =
  (* Race-prone fixed port: derive from pid to keep parallel test
     runners apart. *)
  let port = 20000 + (Unix.getpid () mod 8000) in
  with_cluster ~n:2 ~metrics_port:port
    (fun ~head_socket ~head:_ ~workers:_ ->
      let c = Client.connect head_socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (result_of (Client.request c (req 1 (bind_op ()))));
          let body = http_get port "/metrics" in
          let has needle =
            let n = String.length needle and h = String.length body in
            let rec go i =
              i + n <= h && (String.sub body i n = needle || go (i + 1))
            in
            go 0
          in
          check "alive gauge per shard" true (has "hlp_shard_alive{shard=");
          check "ring gauge" true (has "hlp_ring_alive_shards 2");
          check "telemetry counters exported" true (has "hlp_cluster_")))

let test_prometheus_sanitize () =
  check_s "dots to underscores" "sim_vectors"
    (Prometheus.sanitize "sim.vectors");
  check_s "leading digit guarded" "_9lives" (Prometheus.sanitize "9lives");
  check_s "empty becomes underscore" "_" (Prometheus.sanitize "");
  let m = Prometheus.counter ~help:"h" "already_total" 1. in
  check_s "no duplicate _total" "already_total" m.Prometheus.m_name

(* --- client retry across a worker restart --- *)

let test_client_retry_restart () =
  let socket_path = fresh_socket "retry" in
  let start () =
    let config =
      { Server.default_config with Server.socket_path; workers = 1 }
    in
    let server = Server.create ~config () in
    let runner = Thread.create (fun () -> Server.run server) () in
    (server, runner)
  in
  let s1, r1 = start () in
  let c = Client.connect socket_path in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      ignore (result_of (Client.request c (req 1 (P.Ping 0))));
      (* Restart the daemon under the client's feet: the pooled
         connection is now dead, the first send/recv fails, and
         request_retry reconnects to the fresh instance. *)
      Server.shutdown s1;
      Thread.join r1;
      let s2, r2 = start () in
      Fun.protect
        ~finally:(fun () ->
          Server.shutdown s2;
          Thread.join r2;
          try Unix.unlink socket_path with Unix.Unix_error _ -> ())
        (fun () ->
          ignore
            (result_of (Client.request_retry ~attempts:6 ~backoff_ms:20 c
                          (req 2 (P.Ping 0))));
          (* plain request on the same (reconnected) client keeps
             working *)
          ignore (result_of (Client.request c (req 3 (P.Ping 0))))))

(* The harder half of the restart story: the daemon stays down while
   the client is already retrying, so reconnect itself fails a few
   times (leaving no usable fd) before the fresh instance comes up.
   The retry loop must keep backing off through that window instead of
   raising EBADF on the closed descriptor. *)
let test_client_retry_daemon_down () =
  let socket_path = fresh_socket "retry_down" in
  let start () =
    let config =
      { Server.default_config with Server.socket_path; workers = 1 }
    in
    let server = Server.create ~config () in
    let runner = Thread.create (fun () -> Server.run server) () in
    (server, runner)
  in
  let s1, r1 = start () in
  let c = Client.connect socket_path in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      ignore (result_of (Client.request c (req 1 (P.Ping 0))));
      Server.shutdown s1;
      Thread.join r1;
      (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
      (* Retry in the background while nothing is listening: with 30 ms
         initial backoff, several reconnect attempts fail before the
         restart below.  Plenty of attempts so the test can't flake on
         a slow machine. *)
      let outcome = ref (Error "not run") in
      let retrier =
        Thread.create
          (fun () ->
            outcome :=
              Client.request_retry ~attempts:20 ~backoff_ms:30 c
                (req 2 (P.Ping 0)))
          ()
      in
      Thread.delay 0.15;
      let s2, r2 = start () in
      Fun.protect
        ~finally:(fun () ->
          Server.shutdown s2;
          Thread.join r2;
          try Unix.unlink socket_path with Unix.Unix_error _ -> ())
        (fun () ->
          Thread.join retrier;
          ignore (result_of !outcome);
          (* plain request on the reconnected client keeps working *)
          ignore (result_of (Client.request c (req 3 (P.Ping 0))))))

(* The head holds no session state, so a drain never waits on one:
   with a session open, [Head.run] returns and the socket goes, while
   the session lives on at its shard. *)
let test_head_drain_with_open_session () =
  let c = start_cluster ~n:2 () in
  Fun.protect
    ~finally:(fun () -> stop_cluster c)
    (fun () ->
      let sid = open_session c.head_socket ~width:4 in
      c.stop_head ();
      check "head socket removed" false (Sys.file_exists c.head_socket);
      match String.split_on_char '/' sid with
      | [ shard; inner ] ->
          let w = List.find (fun w -> w.w_name = shard) c.workers in
          let reply =
            raw_request w.w_socket
              (P.encode_request
                 (req 2 (P.Session_close { P.sc_session = inner })))
          in
          ignore (result_of (P.decode_reply reply))
      | _ -> Alcotest.failf "session id %S names no shard" sid)

let suite =
  [
    Alcotest.test_case "relay is byte-faithful" `Quick test_relay_bytes;
    Alcotest.test_case "head front end answers like a worker" `Quick
      test_front_end_parity;
    Alcotest.test_case "sessions stick to their shard" `Quick
      test_session_stickiness;
    Alcotest.test_case "idempotent requests fail over" `Quick
      test_failover_idempotent;
    Alcotest.test_case "dead shard mid-session earns S017" `Quick
      test_dead_shard_mid_session;
    Alcotest.test_case "bad session ids earn S018" `Quick
      test_bad_session_ids;
    Alcotest.test_case "cluster_stats aggregates shards" `Quick
      test_cluster_stats;
    Alcotest.test_case "metrics endpoint serves Prometheus text" `Quick
      test_metrics_endpoint;
    Alcotest.test_case "head /metrics exports shard health" `Quick
      test_head_metrics;
    Alcotest.test_case "prometheus name hygiene" `Quick
      test_prometheus_sanitize;
    Alcotest.test_case "client retries across a restart" `Quick
      test_client_retry_restart;
    Alcotest.test_case "client survives reconnects into a down daemon"
      `Quick test_client_retry_daemon_down;
    Alcotest.test_case "head drains with an open session" `Quick
      test_head_drain_with_open_session;
  ]
