(* hlp_fuzz: structured fuzzer for the hlpowerd service boundary.

   Two phases, same invariant — hostile input NEVER crashes the
   pipeline, and every rejection carries a structured S-rule
   diagnostic:

   1. Decode phase: [Protocol.decode_request] is hammered with
      (a) valid requests of every op, drawn by
          [Protocol.random_request] (which must round-trip),
      (b) byte-level mutations of valid frames,
      (c) structurally hostile inline graphs (at/over the admission
          limits, near-cyclic reference patterns, width mismatches,
          duplicate ids),
      (d) hostile numerics and power-model overrides (infinities,
          subnormals, out-of-range constants, duplicate keys, deep
          nesting).
      The decoder must return [Ok] or a diagnosed [Error]; an
      exception, or an [Error] with no S-code, is a fuzz failure.

   2. Wire phase: the same hostility over real sockets against an
      in-process server with >= 2 worker domains and a 16-frame
      queue.  Every frame gets a decodable reply; [internal] errors
      are failures (hostile input must be *rejected*, not crash a
      worker); liveness pings interleave.  Between them:
      - clients vanish mid-request (a frame sent, its reply never
        read) or after a torn frame (a prefix with no newline);
      - bursts of cheap work (pings, bind and lint on pr at width 4,
        stats; a quarter with 1-25 ms deadlines) are in flight on two
        connections at once and overrun the queue; every reply is read
        back, each id answered once, and the run must see both
        [overloaded] and [deadline_exceeded].
      The cases run twice from one PRNG state.  After the clients
      close, the process's fd count must return to its value before
      they connected (within 10 s); RSS after the replay may exceed the
      peak RSS before it by at most 64 MiB; the drain must finish within
      20 s.

   Knobs (all environment):
     HLP_FUZZ_RUNS    decode-phase case count (default 10000); the
                      wire phase runs max(200, runs/5) cases, twice
     HLP_FUZZ_SEED    PRNG seed (default 1337) — a failure reproduces
                      by re-running with the printed seed
     HLP_FUZZ_CORPUS  directory for failing frames (default
                      _fuzz_corpus) *)

module Json = Hlp_util.Json
module P = Hlp_server.Protocol
module Server = Hlp_server.Server

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some i -> i | None -> default)
  | None -> default

let runs = max 1 (env_int "HLP_FUZZ_RUNS" 10_000)
let seed = env_int "HLP_FUZZ_SEED" 1337

let corpus_dir =
  Option.value ~default:"_fuzz_corpus" (Sys.getenv_opt "HLP_FUZZ_CORPUS")

(* A ref so that the wire phase can replay its cases from a copy. *)
let rand = ref (Random.State.make [| seed |])

(* --- failure accounting ----------------------------------------------- *)

let failures = ref 0

let excerpt s =
  if String.length s <= 200 then s else String.sub s 0 197 ^ "..."

let fail_case ~phase ~what frame =
  incr failures;
  (try
     if not (Sys.file_exists corpus_dir) then Unix.mkdir corpus_dir 0o755;
     let path =
       Filename.concat corpus_dir
         (Printf.sprintf "case_%s_%04d.txt" phase !failures)
     in
     let oc = open_out path in
     Printf.fprintf oc "seed: %d\nphase: %s\nwhat: %s\nframe:\n%s\n" seed
       phase what frame;
     close_out oc
   with Sys_error _ | Unix.Unix_error _ -> ());
  Printf.eprintf "FUZZ FAILURE [%s] %s\n  frame: %s\n%!" phase what
    (excerpt frame)

(* Every rejection must speak the rule catalog's language. *)
let is_s_code c =
  String.length c = 4
  && c.[0] = 'S'
  && c.[1] = '0'
  && c.[2] >= '0'
  && c.[2] <= '9'
  && c.[3] >= '0'
  && c.[3] <= '9'

let check_diagnosed ~phase ~frame (ds : P.Diagnostic.t list) =
  if ds = [] then fail_case ~phase ~what:"rejection carries no diagnostics" frame
  else
    List.iter
      (fun (d : P.Diagnostic.t) ->
        if not (is_s_code d.P.Diagnostic.code) then
          fail_case ~phase
            ~what:
              (Printf.sprintf "diagnostic code %S is not an S-rule"
                 d.P.Diagnostic.code)
            frame)
      ds

(* --- valid requests ---------------------------------------------------- *)

(* Every op the schema knows, counted as the decode phase draws it. *)
let drawn = Hashtbl.create 16

let valid_request () =
  let r = P.random_request !rand in
  let op = P.op_name r.P.op in
  let n = Option.value ~default:0 (Hashtbl.find_opt drawn op) in
  Hashtbl.replace drawn op (n + 1);
  r

(* --- hostile generators (raw frame text) ------------------------------ *)

let ri n = Random.State.int !rand n

let mutate_bytes s =
  let edits = 1 + ri 4 in
  let s = ref s in
  for _ = 1 to edits do
    let n = String.length !s in
    if n > 0 then
      match ri 4 with
      | 0 ->
          let i = ri n in
          let b = Bytes.of_string !s in
          Bytes.set b i (Char.chr (ri 256));
          s := Bytes.to_string b
      | 1 ->
          let i = ri (n + 1) in
          s :=
            String.sub !s 0 i
            ^ String.make 1 (Char.chr (ri 256))
            ^ String.sub !s i (n - i)
      | 2 ->
          let i = ri n in
          s := String.sub !s 0 i ^ String.sub !s (i + 1) (n - i - 1)
      | _ -> s := String.sub !s 0 (ri (n + 1))
  done;
  !s

let hostile_number () =
  List.nth
    [ "1e999"; "-1e999"; "5e-324"; "-5e-324"; "1e308"; "-0.0";
      "123456789123456789123456789"; "0.1e-999" ]
    (ri 8)

let graph_frame body =
  Printf.sprintf "{\"id\": 1, \"op\": \"bind\", \"params\": {\"graph\": %s}}"
    body

(* Structurally hostile inline graphs: reference patterns that are
   almost-but-not-quite DAGs, sizes hugging the admission limits, and
   ambiguous duplicate ids. *)
let hostile_graph_frame ~big_ok =
  match ri (if big_ok then 7 else 6) with
  | 0 ->
      (* self reference *)
      graph_frame
        "{\"inputs\": 1, \"ops\": [{\"kind\": \"add\", \"left\": {\"op\": 0}, \
         \"right\": {\"input\": 0}}], \"outputs\": [{\"op\": 0}]}"
  | 1 ->
      (* forward (cyclic) reference at a random distance *)
      let n = 2 + ri 6 in
      let i = ri (n - 1) in
      let ops =
        String.concat ","
          (List.init n (fun j ->
               let target = if j = i then j + 1 + ri (n - j - 1) else max 0 (j - 1) in
               if j = 0 && j <> i then
                 "{\"kind\": \"add\", \"left\": {\"input\": 0}, \"right\": \
                  {\"input\": 0}}"
               else
                 Printf.sprintf
                   "{\"kind\": \"add\", \"left\": {\"op\": %d}, \"right\": \
                    {\"input\": 0}}"
                   target))
      in
      graph_frame
        (Printf.sprintf
           "{\"inputs\": 1, \"ops\": [%s], \"outputs\": [{\"op\": %d}]}" ops
           (n - 1))
  | 2 ->
      (* out-of-range input / op indices, negative included *)
      graph_frame
        (Printf.sprintf
           "{\"inputs\": 2, \"ops\": [{\"kind\": \"mult\", \"left\": \
            {\"input\": %d}, \"right\": {\"op\": %d}}], \"outputs\": \
            [{\"op\": 0}]}"
           (2 + ri 1000) (-1 - ri 5))
  | 3 ->
      (* over the declared-inputs limit *)
      graph_frame
        (Printf.sprintf
           "{\"inputs\": %d, \"ops\": [{\"kind\": \"add\", \"left\": \
            {\"input\": 0}, \"right\": {\"input\": 0}}], \"outputs\": \
            [{\"op\": 0}]}"
           (P.max_graph_inputs + 1 + ri 3))
  | 4 ->
      (* width mismatch riding a valid graph *)
      Printf.sprintf
        "{\"id\": 1, \"op\": \"flow\", \"params\": {\"width\": %d, \
         \"graph\": {\"inputs\": 1, \"ops\": [{\"kind\": \"add\", \"left\": \
         {\"input\": 0}, \"right\": {\"input\": 0}}], \"outputs\": [{\"op\": \
         0}]}}}"
        (List.nth [ 0; -1; P.max_width + 1; 64; 1000 ] (ri 5))
  | 5 ->
      (* duplicate ids inside an op object *)
      graph_frame
        "{\"inputs\": 1, \"ops\": [{\"kind\": \"add\", \"kind\": \"mult\", \
         \"left\": {\"input\": 0}, \"right\": {\"input\": 0}}], \"outputs\": \
         [{\"op\": 0}]}"
  | _ ->
      (* one op over the admission cap (big: ~100 KB of JSON) *)
      let ops =
        String.concat ","
          (List.init (P.max_graph_ops + 1) (fun _ -> "{\"x\": 0}"))
      in
      graph_frame
        (Printf.sprintf
           "{\"inputs\": 1, \"ops\": [%s], \"outputs\": [{\"op\": 0}]}" ops)

let hostile_numeric_frame () =
  match ri 6 with
  | 0 ->
      Printf.sprintf
        "{\"id\": 1, \"op\": \"bind\", \"params\": {\"bench\": \"pr\", \
         \"alpha\": %s}}"
        (hostile_number ())
  | 1 ->
      Printf.sprintf
        "{\"id\": 1, \"op\": \"flow\", \"params\": {\"bench\": \"pr\", \
         \"model\": {\"%s\": %s}}}"
        (List.nth
           [ "vdd"; "c_base_f"; "c_fanout_f"; "t_lut_ns"; "t_route_ns";
             "t_seq_ns"; "bogus" ]
           (ri 7))
        (hostile_number ())
  | 2 ->
      Printf.sprintf
        "{\"id\": 1, \"op\": \"explore\", \"params\": {\"bench\": \"pr\", \
         \"alphas\": [0.5, %s]}}"
        (hostile_number ())
  | 3 ->
      (* duplicate keys at a random level *)
      List.nth
        [
          "{\"id\": 1, \"op\": \"stats\", \"op\": \"ping\"}";
          "{\"id\": 1, \"id\": 2, \"op\": \"stats\"}";
          "{\"id\": 1, \"op\": \"bind\", \"params\": {\"bench\": \"pr\", \
           \"bench\": \"wang\"}}";
        ]
        (ri 3)
  | 4 ->
      (* nesting bomb around the depth cap *)
      let d = Json.default_max_depth - 4 + ri 16 in
      "{\"id\": 1, \"op\": \"ping\", \"params\": "
      ^ String.concat "" (List.init d (fun _ -> "["))
      ^ "0"
      ^ String.concat "" (List.init d (fun _ -> "]"))
      ^ "}"
  | _ ->
      Printf.sprintf
        "{\"id\": 1, \"op\": \"ping\", \"deadline_ms\": %s}"
        (hostile_number ())

(* --- phase 1: decode fuzz --------------------------------------------- *)

let check_decode ~phase frame =
  match P.decode_request frame with
  | Ok _ -> ()
  | Error e -> check_diagnosed ~phase ~frame e.P.err_diagnostics
  | exception e ->
      fail_case ~phase
        ~what:("decode_request raised " ^ Printexc.to_string e)
        frame

let decode_phase () =
  Printf.eprintf "hlp_fuzz: decode phase, %d cases (seed %d)\n%!" runs seed;
  for case = 1 to runs do
    (match ri 10 with
    | 0 | 1 | 2 ->
        (* valid request: decodes, and round-trips exactly *)
        let req = valid_request () in
        let line = P.encode_request req in
        (match P.decode_request line with
        | Ok req' ->
            if req <> req' then
              fail_case ~phase:"decode" ~what:"round trip not identical" line
        | Error e ->
            fail_case ~phase:"decode"
              ~what:
                ("valid request rejected: "
                ^ String.concat "; "
                    (List.map
                       (fun (d : P.Diagnostic.t) -> d.P.Diagnostic.message)
                       e.P.err_diagnostics))
              line
        | exception e ->
            fail_case ~phase:"decode"
              ~what:("decode_request raised " ^ Printexc.to_string e)
              line)
    | 3 | 4 | 5 ->
        (* byte-level mutation of a valid frame *)
        check_decode ~phase:"decode"
          (mutate_bytes (P.encode_request (valid_request ())))
    | 6 | 7 ->
        check_decode ~phase:"decode"
          (hostile_graph_frame ~big_ok:(case mod 997 = 0))
    | _ -> check_decode ~phase:"decode" (hostile_numeric_frame ()));
    if case mod 2000 = 0 then
      Printf.eprintf "hlp_fuzz: decode %d/%d (%d failures)\n%!" case runs
        !failures
  done;
  Printf.eprintf "hlp_fuzz: valid requests per op:%s\n%!"
    (Hashtbl.fold (fun op n acc -> Printf.sprintf " %s=%d" op n :: acc) drawn []
    |> List.sort compare |> String.concat "")

(* --- phase 2: wire fuzz ----------------------------------------------- *)

(* A kB field of /proc/self/status ("VmRSS", "VmHWM"), in MiB. *)
let status_mib field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec find () =
        match String.split_on_char ':' (input_line ic) with
        | [ k; v ] when k = field ->
            Scanf.sscanf v " %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          try find () with End_of_file | Scanf.Scan_failure _ -> 0.)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let strip_newlines s = String.map (fun c -> if c = '\n' then ' ' else c) s

(* Replies seen on the wire, by outcome: "ok" or the error code. *)
let tallies = Hashtbl.create 16

let tally key =
  Hashtbl.replace tallies key
    (1 + Option.value ~default:0 (Hashtbl.find_opt tallies key))

(* Cheap real work: pings that hold a worker up to 29 ms, bind and lint
   on pr at width 4, and stats (answered inline); a quarter carry a
   1-25 ms deadline. *)
let work_frame ~id =
  let op =
    match ri 6 with
    | 0 | 1 -> P.Ping (ri 30)
    | 2 -> P.Bind { P.default_bind_params with P.bench = "pr"; width = 4 }
    | 3 -> P.Stats
    | 4 ->
        P.Lint
          { P.lint_bench = Some "pr"; lint_binder = "hlpower"; lint_width = 4 }
    | _ -> P.Ping 0
  in
  let deadline_ms = if ri 4 = 0 then Some (1 + ri 25) else None in
  P.encode_request { P.id = Json.Int id; deadline_ms; op }

let wire_phase () =
  let wire_runs = max 200 (runs / 5) in
  let socket_path =
    Printf.sprintf "/tmp/hlp_fuzz_%d.sock" (Unix.getpid ())
  in
  (* HLP_JOBS governs the worker count exactly as it does the daemon;
     the issue's contract is "S-coded rejections under HLP_JOBS>1", so
     never run with a single worker. *)
  let workers = max 2 (Hlp_util.Pool.jobs ()) in
  let queue_capacity = 16 in
  let config =
    {
      Server.default_config with
      Server.socket_path;
      workers;
      queue_capacity;
      max_frame = 4096;
    }
  in
  Printf.eprintf "hlp_fuzz: wire phase, %d cases, %d workers\n%!" wire_runs
    workers;
  let server = Server.create ~config () in
  let runner = Thread.create (fun () -> Server.run server) () in
  (* Client and server share this process, so once every client has
     closed, both ends of every connection must be gone again. *)
  let fds_before = open_fds () in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    (fd, P.reader_of_fd fd)
  in
  let nclients = 4 in
  let clients = Array.init nclients (fun _ -> connect ()) in
  let close_client i =
    let fd, _ = clients.(i) in
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let reconnect i =
    close_client i;
    clients.(i) <- connect ()
  in
  (* Send without reading, then vanish: a frame the server may be
     working on when the client leaves, or a torn frame. *)
  let abandon i text =
    let fd, _ = clients.(i) in
    (try ignore (Unix.write_substring fd text 0 (String.length text))
     with Unix.Unix_error _ -> ());
    reconnect i
  in
  (* Every reply must decode; a liveness ping must succeed; no frame
     may crash a worker, and a rejection must be diagnosed.  Returns the
     reply's id. *)
  let judge ~frame ~liveness reply =
    let fail what = fail_case ~phase:"wire" ~what (frame ^ "\n-> " ^ reply) in
    match P.decode_reply reply with
    | Error msg ->
        fail ("reply does not decode: " ^ msg);
        None
    | Ok { P.reply_id; payload } ->
        (match payload with
        | P.Result _ -> tally "ok"
        | P.Error { code; diagnostics; _ } -> (
            tally (P.error_code_to_string code);
            if liveness then fail "liveness ping rejected"
            else
              match code with
              | P.Internal -> fail "a frame crashed a worker (internal)"
              | P.Parse_error | P.Unknown_op | P.Bad_request
              | P.Frame_too_large ->
                  check_diagnosed ~phase:"wire" ~frame diagnostics
              | P.Overloaded | P.Deadline_exceeded | P.Draining
              | P.Unavailable ->
                  ()));
        Some reply_id
  in
  let exchange frame ~liveness =
    let i = ri nclients in
    let fd, reader = clients.(i) in
    match
      P.write_frame fd frame;
      P.read_frame reader
    with
    | exception (Unix.Unix_error _ | Sys_error _) ->
        (* The server may legitimately have dropped this connection
           (e.g. after an oversized flood); reconnect and carry on —
           but the *server* dying is caught by the liveness pings. *)
        reconnect i
    | `Eof | `Too_large _ -> reconnect i
    | `Frame reply -> ignore (judge ~frame ~liveness reply)
  in
  (* A burst puts two trains of work frames in flight on two
     connections before any reply is read.  The first train opens with a
     30 ms ping per worker, and the trains together hold more frames
     than the workers and the queue, so the tail is refused [overloaded]
     and a queued deadline (at most 25 ms) expires.  Then every reply is
     read back, and each id must be answered exactly once. *)
  let bursts = ref 0 in
  let read_back (i, n) =
    let _, reader = clients.(i) in
    let rec go k ids =
      if k = n then ids
      else
        match P.read_frame reader with
        | `Frame reply ->
            go (k + 1) (judge ~frame:"(burst)" ~liveness:false reply :: ids)
        | `Eof | `Too_large _ -> ids
    in
    let each_once = List.init n (fun k -> Some (Json.Int (k + 1))) in
    match List.sort compare (go 0 []) with
    | ids when ids = each_once -> ()
    | ids ->
        fail_case ~phase:"wire"
          ~what:
            (Printf.sprintf "%d replies to %d burst frames, not one per id"
               (List.length ids) n)
          "(burst)";
        reconnect i
    | exception (Unix.Unix_error _ | Sys_error _) ->
        fail_case ~phase:"wire" ~what:"burst connection failed" "(burst)";
        reconnect i
  in
  let burst () =
    incr bursts;
    let a = ri nclients in
    let b = (a + 1 + ri (nclients - 1)) mod nclients in
    let train i n ~hold =
      let fd, _ = clients.(i) in
      List.iter
        (fun k ->
          P.write_frame fd
            (if k <= hold then
               P.encode_request
                 { P.id = Json.Int k; deadline_ms = None; op = P.Ping 30 }
             else work_frame ~id:k))
        (List.init n succ);
      (i, n)
    in
    match
      [
        train a (workers + queue_capacity + ri 8) ~hold:workers;
        train b (queue_capacity + ri 8) ~hold:0;
      ]
    with
    | trains -> List.iter read_back trains
    | exception (Unix.Unix_error _ | Sys_error _) ->
        fail_case ~phase:"wire" ~what:"burst write failed" "(burst)";
        reconnect a;
        reconnect b
  in
  let ping_line =
    P.encode_request { P.id = Json.Int 0; deadline_ms = None; op = P.Ping 0 }
  in
  let pass name =
    for case = 1 to wire_runs do
      (match ri 20 with
      | 0 ->
          (* abrupt disconnect mid-request: send, never read, vanish *)
          abandon (ri nclients)
            ((if ri 2 = 0 then work_frame ~id:0
              else strip_newlines (hostile_numeric_frame ()))
            ^ "\n")
      | 1 ->
          (* torn frame: a prefix with no newline, then EOF *)
          let line = work_frame ~id:0 in
          abandon (ri nclients)
            (String.sub line 0 (1 + ri (String.length line - 1)))
      | 2 ->
          (* oversized frame: must come back frame_too_large, diagnosed *)
          exchange (String.make (4096 + ri 8192) 'a') ~liveness:false
      | 3 | 4 | 5 ->
          exchange
            (strip_newlines
               (mutate_bytes (P.encode_request (P.random_request !rand))))
            ~liveness:false
      | 6 | 7 | 8 ->
          exchange (strip_newlines (hostile_graph_frame ~big_ok:false))
            ~liveness:false
      | 9 | 10 | 11 ->
          exchange (strip_newlines (hostile_numeric_frame ())) ~liveness:false
      | 12 -> burst ()
      | _ ->
          (* cheap valid requests keep real work flowing through the
             worker domains between the hostile ones *)
          exchange ping_line ~liveness:true);
      if case mod 100 = 0 then exchange ping_line ~liveness:true;
      if case mod 1000 = 0 then
        Printf.eprintf "hlp_fuzz: wire %s %d/%d (%d failures)\n%!" name case
          wire_runs !failures
    done
  in
  (* The cases run twice from one state.  The runtime keeps most freed
     heap mapped, so RSS only ever rises to the largest need so far,
     and one valid request can need a lot (a lint of every design at
     width 26 takes ~60 MiB).  By the end of the first pass the peak
     includes that, and the caches; the replay sends the same frames,
     so RSS after it more than 64 MiB above the peak is memory the
     server kept. *)
  let started = Unix.gettimeofday () in
  let replay = Random.State.copy !rand in
  pass "first pass";
  let peak = status_mib "VmHWM" in
  rand := replay;
  pass "replay";
  let wire_s = Unix.gettimeofday () -. started in
  Gc.compact ();
  let rss_end = status_mib "VmRSS" in
  if rss_end -. peak > 64. then
    fail_case ~phase:"wire"
      ~what:
        (Printf.sprintf
           "RSS after the replay is %.0f MiB, %.0f MiB over the peak \
            before it"
           rss_end (rss_end -. peak))
      "(memory bound)";
  Array.iteri (fun i _ -> close_client i) clients;
  (* The server closes its end once the reader sees EOF and the last
     retained reply is written. *)
  let rec settle tries =
    let n = open_fds () in
    if n = fds_before || tries = 0 then n
    else begin
      Thread.delay 0.05;
      settle (tries - 1)
    end
  in
  let fds_after = settle 200 in
  if fds_after <> fds_before then
    fail_case ~phase:"wire"
      ~what:
        (Printf.sprintf "%d fds before the clients, %d 10 s after they closed"
           fds_before fds_after)
      "(fd count)";
  let t0 = Unix.gettimeofday () in
  Server.shutdown server;
  Thread.join runner;
  let drain_s = Unix.gettimeofday () -. t0 in
  if drain_s > 20. then
    fail_case ~phase:"wire"
      ~what:(Printf.sprintf "drain took %.1f s (limit 20 s)" drain_s)
      "(drain)";
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  Printf.eprintf
    "hlp_fuzz: wire replies:%s\n\
     hlp_fuzz: %.0f s, %d bursts; fds %d -> %d; RSS peak %.1f MiB \
     before the replay, %.1f MiB after it; drain %.2f s\n\
     %!"
    (Hashtbl.fold (fun k n acc -> Printf.sprintf " %s=%d" k n :: acc) tallies []
    |> List.sort compare |> String.concat "")
    wire_s !bursts fds_before fds_after peak rss_end drain_s;
  if !bursts > 0 then
    List.iter
      (fun code ->
        if not (Hashtbl.mem tallies code) then
          fail_case ~phase:"wire"
            ~what:(Printf.sprintf "%d bursts drew no %s reply" !bursts code)
            "(burst)")
      [ "overloaded"; "deadline_exceeded" ]

let () =
  decode_phase ();
  wire_phase ();
  if !failures > 0 then begin
    Printf.eprintf
      "hlp_fuzz: %d FAILURES (seed %d, corpus in %s)\n%!" !failures seed
      corpus_dir;
    exit 1
  end
  else Printf.eprintf "hlp_fuzz: all cases passed (seed %d)\n%!" seed
