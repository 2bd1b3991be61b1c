(* Wire-protocol tests: JSON parser units, request/reply round trips
   over every variant, malformed-frame diagnostics, and frame-size
   enforcement. *)

module Json = Hlp_util.Json
module P = Hlp_server.Protocol
module Diagnostic = Hlp_lint.Diagnostic

let check = Alcotest.(check bool)
let check_s = Alcotest.(check string)
let check_i = Alcotest.(check int)

(* --- JSON parser units --- *)

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Float 1.5;
      Json.String "";
      Json.String "a \"quoted\" \\ line\nwith\ttabs";
      Json.List [];
      Json.List [ Json.Int 1; Json.Null; Json.String "x" ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("l", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok parsed ->
          check
            (Printf.sprintf "round trip %s" (Json.to_string v))
            true (Json.equal v parsed)
      | Error (pos, msg) ->
          Alcotest.failf "%s failed to re-parse at %d: %s" (Json.to_string v)
            pos msg)
    cases

let test_json_float_precision () =
  (* %.17g must survive a round trip bit-exactly: the bench comparisons
     depend on it. *)
  List.iter
    (fun x ->
      match Json.parse (Json.to_string (Json.Float x)) with
      | Ok (Json.Float y) ->
          check (Printf.sprintf "%h survives" x) true (Float.equal x y)
      | Ok (Json.Int y) ->
          check
            (Printf.sprintf "%h survives as int" x)
            true
            (Float.equal x (float_of_int y))
      | Ok _ | Error _ -> Alcotest.failf "%h did not re-parse" x)
    [ 0.29486072093023219; 19.486989803006306; 1e-300; -0.0; 3.5 ]

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error (pos, _) ->
          check (Printf.sprintf "%S error position sane" s) true
            (pos >= 0 && pos <= String.length s))
    [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2"; "{]}" ]

let test_json_unicode_escapes () =
  let parse_string s =
    match Json.parse s with
    | Ok (Json.String v) -> v
    | Ok _ | Error _ -> Alcotest.failf "%S did not parse as a string" s
  in
  (* \uXXXX decodes to UTF-8, not a lossy placeholder. *)
  check_s "BMP escape" "\xc3\xa9" (parse_string "\"\\u00e9\"");
  check_s "ASCII escape" "A" (parse_string "\"\\u0041\"");
  (* A surrogate pair combines into one supplementary code point. *)
  check_s "surrogate pair" "\xf0\x9f\x98\x80"
    (parse_string "\"\\ud83d\\ude00\"");
  (* Lone surrogates are lexically valid JSON; they become U+FFFD. *)
  check_s "lone high surrogate" "\xef\xbf\xbd"
    (parse_string "\"\\ud800\"");
  check_s "high surrogate then ordinary escape" "\xef\xbf\xbdA"
    (parse_string "\"\\ud800\\u0041\"");
  (* Non-ASCII round-trips through the printer: a client using such a
     string as a request id gets the same id echoed back. *)
  let id = "caf\xc3\xa9-\xf0\x9f\x98\x80" in
  match Json.parse (Json.to_string (Json.String id)) with
  | Ok (Json.String v) -> check_s "non-ASCII id round trip" id v
  | Ok _ | Error _ -> Alcotest.fail "non-ASCII string did not re-parse"

let test_json_raw_splice () =
  let v = Json.Obj [ ("r", Json.Raw "{\"x\": 1}"); ("k", Json.Int 2) ] in
  check_s "raw spliced verbatim" "{\"r\": {\"x\": 1}, \"k\": 2}"
    (Json.to_string v)

(* --- request round trips: every op variant --- *)

let all_requests =
  [
    { P.id = Json.Int 1; deadline_ms = None; op = P.Ping 250 };
    {
      P.id = Json.String "bind-1";
      deadline_ms = Some 5000;
      op =
        P.Bind
          {
            P.default_bind_params with
            P.bench = "pr";
            binder = "lopass";
            alpha = 1.0;
            width = 16;
            vectors = 150;
            port_assign = true;
          };
    };
    {
      P.id = Json.Int 2;
      deadline_ms = None;
      op = P.Flow { P.default_bind_params with P.bench = "wang" };
    };
    {
      P.id = Json.Null;
      deadline_ms = Some 60000;
      op =
        P.Explore
          {
            P.ex_bench = "mcm";
            ex_width = 8;
            ex_vectors = 40;
            ex_adds = [ 1; 2 ];
            ex_mults = [ 2 ];
            ex_alphas = [ 1.0; 0.5; 0.25 ];
          };
    };
    {
      P.id = Json.Int 3;
      deadline_ms = None;
      op =
        P.Lint
          { P.lint_bench = Some "honda"; lint_binder = "both"; lint_width = 8 };
    };
    {
      P.id = Json.Int 4;
      deadline_ms = None;
      op = P.Lint { P.lint_bench = None; lint_binder = "hlpower"; lint_width = 8 };
    };
    { P.id = Json.Int 5; deadline_ms = None; op = P.Stats };
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let line = P.encode_request req in
      match P.decode_request line with
      | Ok req' ->
          check (Printf.sprintf "request %s round trips" line) true
            (req = req')
      | Error _ -> Alcotest.failf "%s failed to decode" line)
    all_requests;
  (* The schema's own generator reaches every op, and everything it
     draws decodes back to itself. *)
  let drawn = Hashtbl.create 16 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 16 |])
    (QCheck.Test.make ~name:"random_request round trips" ~count:2000
       (QCheck.make ~print:P.encode_request P.random_request)
       (fun r ->
         Hashtbl.replace drawn (P.op_name r.P.op) ();
         P.decode_request (P.encode_request r) = Ok r));
  Alcotest.(check (list string))
    "every op drawn"
    [ "bind"; "cluster_stats"; "explore"; "flow"; "lint"; "ping";
      "session_close"; "session_edit"; "session_open"; "stats" ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys drawn)))

(* --- reply round trips --- *)

let all_replies =
  [
    {
      P.reply_id = Json.Int 1;
      payload =
        P.Result
          {
            op = "bind";
            result = Json.Obj [ ("design", Json.String "pr-hlpower") ];
            telemetry = [ ("sa_table.hits", 412); ("sa_table.misses", 0) ];
            elapsed_ms = 93.25;
          };
    };
    {
      P.reply_id = Json.String "x";
      payload =
        P.Error { code = P.Overloaded; message = "queue full"; diagnostics = [] };
    };
    {
      P.reply_id = Json.Null;
      payload =
        P.Error
          {
            code = P.Bad_request;
            message = "bad parameter";
            diagnostics =
              [
                Diagnostic.error "S003" Design "width must be positive";
                Diagnostic.warning "S003" Design "vectors capped";
              ];
          };
    };
    {
      P.reply_id = Json.Int 9;
      payload =
        P.Error
          { code = P.Deadline_exceeded; message = "expired"; diagnostics = [] };
    };
  ]

let test_reply_roundtrip () =
  List.iter
    (fun reply ->
      let line = P.encode_reply reply in
      match P.decode_reply line with
      | Ok reply' ->
          check (Printf.sprintf "reply %s round trips" line) true
            (reply = reply')
      | Error msg -> Alcotest.failf "%s failed to decode: %s" line msg)
    all_replies

let test_error_code_roundtrip () =
  List.iter
    (fun (code, name) ->
      check_s "wire name" name (P.error_code_to_string code);
      check ("error code " ^ name) true
        (P.error_code_of_string (P.error_code_to_string code) = Some code))
    P.error_codes;
  check_i "nine codes" 9 (List.length P.error_codes)

(* --- malformed frames: structured replies, never exceptions --- *)

let decode_err line =
  match P.decode_request line with
  | Ok _ -> Alcotest.failf "%S should have been rejected" line
  | Error e -> e

let test_malformed_json () =
  let e = decode_err "{\"op\": \"ping\", " in
  check "parse error code" true (e.P.err_code = P.Parse_error);
  check_i "one diagnostic" 1 (List.length e.P.err_diagnostics);
  let d = List.hd e.P.err_diagnostics in
  check_s "S001" "S001" d.Diagnostic.code;
  (* The diagnostic must quote the offending line so a client operator
     can see what the daemon saw. *)
  check "offending frame quoted" true
    (let msg = d.Diagnostic.message in
     let sub = "{\\\"op\\\": \\\"ping\\\"" in
     let contains s sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     contains msg sub || contains msg "{\"op\": \"ping\"")

let test_unknown_op () =
  let e = decode_err "{\"id\": 7, \"op\": \"frobnicate\"}" in
  check "unknown op code" true (e.P.err_code = P.Unknown_op);
  check "id recovered" true (e.P.err_id = Json.Int 7);
  check "S002 present" true
    (List.exists
       (fun d -> d.Diagnostic.code = "S002")
       e.P.err_diagnostics)

let test_missing_op () =
  let e = decode_err "{\"id\": 1}" in
  check "missing op is unknown_op" true (e.P.err_code = P.Unknown_op)

let test_non_object_frame () =
  let e = decode_err "[1, 2, 3]" in
  check "array frame rejected" true (e.P.err_code = P.Parse_error)

let test_bad_params_collected () =
  (* ALL offenses come back, not just the first. *)
  let e =
    decode_err
      "{\"id\": 1, \"op\": \"bind\", \"params\": {\"bench\": \"pr\", \
       \"width\": -4, \"vectors\": 0, \"alpha\": 7.5}}"
  in
  check "bad params code" true (e.P.err_code = P.Bad_request);
  check "id recovered" true (e.P.err_id = Json.Int 1);
  check "collects every offense" true (List.length e.P.err_diagnostics >= 3);
  List.iter
    (fun d -> check_s "all are S003" "S003" d.Diagnostic.code)
    e.P.err_diagnostics

let test_bind_requires_bench () =
  let e = decode_err "{\"id\": 2, \"op\": \"flow\", \"params\": {}}" in
  check "missing bench rejected" true (e.P.err_code = P.Bad_request)

let test_bad_deadline () =
  let e = decode_err "{\"id\": 3, \"op\": \"stats\", \"deadline_ms\": -5}" in
  check "negative deadline rejected" true (e.P.err_code = P.Bad_request)

(* --- hostile inline graphs: structured S-diagnostics, never crashes --- *)

let has_code e code =
  List.exists (fun d -> d.Diagnostic.code = code) e.P.err_diagnostics

let graph_req body =
  Printf.sprintf "{\"id\": 1, \"op\": \"bind\", \"params\": {\"graph\": %s}}"
    body

let decode_ok line =
  match P.decode_request line with
  | Ok r -> r
  | Error e ->
      Alcotest.failf "%s rejected: %s" line
        (String.concat "; "
           (List.map (fun d -> d.Diagnostic.message) e.P.err_diagnostics))

(* A well-formed inline graph round-trips through the encoder and is
   accepted. *)
let test_graph_roundtrip () =
  let g =
    Hlp_cdfg.Cdfg.create ~name:"mine" ~num_inputs:3
      ~ops:
        [
          { Hlp_cdfg.Cdfg.id = 0; kind = Hlp_cdfg.Cdfg.Add;
            left = Hlp_cdfg.Cdfg.Input 0; right = Hlp_cdfg.Cdfg.Input 1 };
          { Hlp_cdfg.Cdfg.id = 1; kind = Hlp_cdfg.Cdfg.Mult;
            left = Hlp_cdfg.Cdfg.Op 0; right = Hlp_cdfg.Cdfg.Input 2 };
        ]
      ~outputs:[ Hlp_cdfg.Cdfg.Op 1 ]
  in
  let req =
    {
      P.id = Json.Int 11;
      deadline_ms = None;
      op =
        P.Flow
          { P.default_bind_params with P.graph = Some g; estimator = "both" };
    }
  in
  let line = P.encode_request req in
  match P.decode_request line with
  | Ok req' -> check "graph request round trips" true (req = req')
  | Error _ -> Alcotest.failf "%s failed to decode" line

(* A cycle cannot be expressed without a self or forward reference, and
   either earns an S008. *)
let test_graph_cyclic () =
  let e =
    decode_err
      (graph_req
         "{\"inputs\": 1, \"ops\": [{\"kind\": \"add\", \"left\": {\"op\": \
          1}, \"right\": {\"input\": 0}}, {\"kind\": \"add\", \"left\": \
          {\"op\": 0}, \"right\": {\"input\": 0}}], \"outputs\": [{\"op\": \
          1}]}")
  in
  check "cyclic graph is bad_request" true (e.P.err_code = P.Bad_request);
  check "cyclic graph -> S008" true (has_code e "S008")

let test_graph_self_reference () =
  let e =
    decode_err
      (graph_req
         "{\"inputs\": 1, \"ops\": [{\"kind\": \"add\", \"left\": {\"op\": \
          0}, \"right\": {\"input\": 0}}], \"outputs\": [{\"op\": 0}]}")
  in
  check "self reference -> S008" true (has_code e "S008")

let test_graph_bad_input_index () =
  let e =
    decode_err
      (graph_req
         "{\"inputs\": 2, \"ops\": [{\"kind\": \"mult\", \"left\": \
          {\"input\": 2}, \"right\": {\"input\": -1}}], \"outputs\": \
          [{\"op\": 0}]}")
  in
  check "bad input index -> S008" true (has_code e "S008");
  (* Both offenses are collected. *)
  check_i "one S008 per bad operand" 2
    (List.length
       (List.filter
          (fun d -> d.Diagnostic.code = "S008")
          e.P.err_diagnostics))

let test_graph_oversized () =
  (* One op over the admission limit: rejected with S007 before any
     per-op validation (the ops here are deliberately ill-formed — the
     size check must fire without ever looking at them). *)
  let ops =
    String.concat ","
      (List.init (P.max_graph_ops + 1) (fun _ -> "{\"bogus\": true}"))
  in
  let e =
    decode_err
      (graph_req
         (Printf.sprintf
            "{\"inputs\": 1, \"ops\": [%s], \"outputs\": [{\"op\": 0}]}" ops))
  in
  check "oversized graph is bad_request" true (e.P.err_code = P.Bad_request);
  check "oversized graph -> S007" true (has_code e "S007");
  check "size limit short-circuits per-op checks" true
    (not (has_code e "S003"));
  (* Too many declared inputs is the same class of rejection. *)
  let e =
    decode_err
      (graph_req
         (Printf.sprintf
            "{\"inputs\": %d, \"ops\": [{\"kind\": \"add\", \"left\": \
             {\"input\": 0}, \"right\": {\"input\": 1}}], \"outputs\": \
             [{\"op\": 0}]}"
            (P.max_graph_inputs + 1)))
  in
  check "too many inputs -> S007" true (has_code e "S007")

let test_graph_at_limit_accepted () =
  (* Exactly at the admission limits the request is valid: a chain of
     max_graph_ops adds over max_graph_inputs inputs. *)
  let n = P.max_graph_ops in
  let ops =
    String.concat ","
      (List.init n (fun i ->
           if i = 0 then
             "{\"kind\": \"add\", \"left\": {\"input\": 0}, \"right\": \
              {\"input\": 1}}"
           else
             Printf.sprintf
               "{\"kind\": \"add\", \"left\": {\"op\": %d}, \"right\": \
                {\"input\": %d}}"
               (i - 1)
               (i mod P.max_graph_inputs)))
  in
  let req =
    decode_ok
      (graph_req
         (Printf.sprintf
            "{\"inputs\": %d, \"ops\": [%s], \"outputs\": [{\"op\": %d}]}"
            P.max_graph_inputs ops (n - 1)))
  in
  match req.P.op with
  | P.Bind { P.graph = Some g; _ } ->
      check_i "all ops admitted" n (Hlp_cdfg.Cdfg.num_ops g)
  | _ -> Alcotest.fail "expected a bind op carrying the graph"

let test_graph_excludes_bench () =
  let e =
    decode_err
      "{\"id\": 1, \"op\": \"flow\", \"params\": {\"bench\": \"pr\", \
       \"graph\": {\"inputs\": 1, \"ops\": [{\"kind\": \"add\", \"left\": \
       {\"input\": 0}, \"right\": {\"input\": 0}}], \"outputs\": [{\"op\": \
       0}]}}}"
  in
  check "bench+graph rejected" true (e.P.err_code = P.Bad_request);
  check "mutual exclusion is S003" true (has_code e "S003")

let test_width_capped () =
  (* A 64-bit request would overflow the packed simulation words; the
     width cap rejects it up front with S003. *)
  let e =
    decode_err
      "{\"id\": 1, \"op\": \"flow\", \"params\": {\"bench\": \"pr\", \
       \"width\": 64}}"
  in
  check "width 64 rejected" true (e.P.err_code = P.Bad_request);
  check "width cap is S003" true (has_code e "S003");
  (* The cap holds for every op, as do the sweep grid's and ping's
     floors. *)
  List.iter
    (fun frame ->
      let e = decode_err frame in
      check (frame ^ " is bad_request") true (e.P.err_code = P.Bad_request);
      check (frame ^ " -> S003") true (has_code e "S003"))
    [ "{\"op\": \"explore\", \"params\": {\"bench\": \"pr\", \"width\": 31}}";
      "{\"op\": \"lint\", \"params\": {\"width\": 31}}";
      "{\"op\": \"lint\", \"params\": {\"width\": 40}}";
      "{\"op\": \"explore\", \"params\": {\"bench\": \"pr\", \"adds\": [0]}}";
      "{\"op\": \"explore\", \"params\": {\"bench\": \"pr\", \"adds\": [-1]}}";
      "{\"op\": \"explore\", \"params\": {\"bench\": \"pr\", \"mults\": [0]}}";
      "{\"op\": \"ping\", \"params\": {\"sleep_ms\": -1}}" ]

(* The simulator has one engine, so an [engine] parameter — valid
   engine name or not — is ignored like any other parameter the op
   does not recognise: the request decodes as if it were absent. *)
let flow_with_engine wire =
  let flow extra =
    decode_ok
      (Printf.sprintf
         "{\"id\": 1, \"op\": \"flow\", \"params\": {\"bench\": \"pr\"%s}}"
         extra)
  in
  (flow "", flow (Printf.sprintf ", \"engine\": %S" wire))

let test_engine_accepted () =
  List.iter
    (fun wire ->
      let plain, req = flow_with_engine wire in
      check ("engine " ^ wire ^ " ignored") true (req = plain))
    [ "auto"; "scalar"; "parallel"; "bit-parallel" ]

let test_bad_engine_ignored () =
  let plain, req = flow_with_engine "quantum" in
  check "unknown engine ignored" true (req = plain)

(* --- framing --- *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let test_frame_roundtrip () =
  with_pipe (fun r w ->
      let reader = P.reader_of_fd r in
      P.write_frame w "{\"a\": 1}";
      P.write_frame w "{\"b\": 2}";
      Unix.close w;
      (match P.read_frame reader with
      | `Frame l -> check_s "first frame" "{\"a\": 1}" l
      | _ -> Alcotest.fail "expected first frame");
      (match P.read_frame reader with
      | `Frame l -> check_s "second frame" "{\"b\": 2}" l
      | _ -> Alcotest.fail "expected second frame");
      check "eof" true (P.read_frame reader = `Eof))

let test_partial_frame_at_eof () =
  with_pipe (fun r w ->
      let reader = P.reader_of_fd r in
      ignore (Unix.write_substring w "no newline" 0 10);
      Unix.close w;
      (match P.read_frame reader with
      | `Frame l -> check_s "partial delivered" "no newline" l
      | _ -> Alcotest.fail "expected the partial frame");
      check "then eof" true (P.read_frame reader = `Eof))

let test_oversized_frame_rejected () =
  with_pipe (fun r w ->
      let max_frame = 1024 in
      let reader = P.reader_of_fd ~max_frame r in
      let big = String.make (8 * 1024) 'x' in
      let writer =
        Thread.create
          (fun () ->
            P.write_frame w big;
            P.write_frame w "{\"ok\": true}";
            Unix.close w)
          ()
      in
      (match P.read_frame reader with
      | `Too_large n ->
          check (Printf.sprintf "reported size %d > cap" n) true
            (n > max_frame)
      | _ -> Alcotest.fail "expected Too_large");
      (* The connection survives: the next frame arrives intact. *)
      (match P.read_frame reader with
      | `Frame l -> check_s "frame after oversize" "{\"ok\": true}" l
      | _ -> Alcotest.fail "expected the frame after the oversized one");
      Thread.join writer)

let test_oversized_frame_at_eof () =
  (* An oversized frame cut off by EOF must count its buffered prefix
     and must not leave that prefix behind to surface as a spurious
     frame on the next read. *)
  with_pipe (fun r w ->
      let max_frame = 1024 in
      let reader = P.reader_of_fd ~max_frame r in
      let total = 8 * 1024 in
      let big = String.make total 'x' in
      ignore (Unix.write_substring w big 0 total);
      Unix.close w;
      (match P.read_frame reader with
      | `Too_large n -> check_i "all bytes counted" total n
      | _ -> Alcotest.fail "expected Too_large");
      check "then eof, no garbage frame" true (P.read_frame reader = `Eof))

let test_oversized_frame_bounded_memory () =
  (* Discarding a huge frame must not buffer it: a 64 MiB frame against
     a 4 KiB cap keeps the reader's buffer under the cap at all times
     (we can't observe the buffer directly, but the live words delta
     after the read stays far below the frame size). *)
  with_pipe (fun r w ->
      let max_frame = 4096 in
      let reader = P.reader_of_fd ~max_frame r in
      let chunk = String.make 65536 'y' in
      let chunks = 64 (* 4 MiB total *) in
      let writer =
        Thread.create
          (fun () ->
            for _ = 1 to chunks do
              ignore (Unix.write_substring w chunk 0 (String.length chunk))
            done;
            ignore (Unix.write_substring w "\n{\"z\": 1}\n" 0 10);
            Unix.close w)
          ()
      in
      let before = Gc.quick_stat () in
      (match P.read_frame reader with
      | `Too_large n ->
          check_i "full oversize counted" ((chunks * 65536) + 0) n
      | _ -> Alcotest.fail "expected Too_large");
      let after = Gc.quick_stat () in
      let live_delta_bytes =
        8 * (after.Gc.heap_words - before.Gc.heap_words)
      in
      check
        (Printf.sprintf "heap grew %d bytes for a 4 MiB frame"
           live_delta_bytes)
        true
        (live_delta_bytes < 1_000_000);
      (match P.read_frame reader with
      | `Frame l -> check_s "next frame intact" "{\"z\": 1}" l
      | _ -> Alcotest.fail "expected trailing frame");
      Thread.join writer)

(* --- hostile numerics, duplicate keys, depth, model overrides --- *)

let test_nonfinite_alpha () =
  (* JSON cannot spell NaN, but 1e999 parses to infinity and 5e-324 to
     a subnormal; both must die at the boundary with S009. *)
  List.iter
    (fun lit ->
      let e =
        decode_err
          (Printf.sprintf
             "{\"id\": 1, \"op\": \"bind\", \"params\": {\"bench\": \"pr\", \
              \"alpha\": %s}}"
             lit)
      in
      check (lit ^ " is bad_request") true (e.P.err_code = P.Bad_request);
      check (lit ^ " -> S009") true (has_code e "S009"))
    [ "1e999"; "-1e999"; "5e-324" ];
  (* The explore alpha grid is guarded the same way. *)
  let e =
    decode_err
      "{\"id\": 1, \"op\": \"explore\", \"params\": {\"bench\": \"pr\", \
       \"alphas\": [0.5, 1e999]}}"
  in
  check "explore alphas -> S009" true (has_code e "S009");
  (* A usable alpha outside [0, 1] is a range offense, not S009. *)
  List.iter
    (fun alphas ->
      let e =
        decode_err
          (Printf.sprintf
             "{\"op\": \"explore\", \"params\": {\"bench\": \"pr\", \
              \"alphas\": %s}}"
             alphas)
      in
      check (alphas ^ " -> S003") true (has_code e "S003");
      check (alphas ^ " is not S009") false (has_code e "S009"))
    [ "[2.0]"; "[-3.0]" ]

let test_duplicate_keys () =
  let e = decode_err "{\"id\": 1, \"op\": \"stats\", \"id\": 2}" in
  check "duplicate id is bad_request" true (e.P.err_code = P.Bad_request);
  check "duplicate id -> S010" true (has_code e "S010");
  let e =
    decode_err
      "{\"id\": 1, \"op\": \"bind\", \"params\": {\"bench\": \"pr\", \
       \"alpha\": 0.1, \"alpha\": 99}}"
  in
  check "duplicate param -> S010" true (has_code e "S010");
  (* Nested objects are scanned too — a graph op with two "left"s is
     just as ambiguous as a duplicated top-level field. *)
  let e =
    decode_err
      (graph_req
         "{\"inputs\": 1, \"ops\": [{\"kind\": \"add\", \"left\": \
          {\"input\": 0}, \"left\": {\"input\": 0}, \"right\": {\"input\": \
          0}}], \"outputs\": [{\"op\": 0}]}")
  in
  check "duplicate op operand -> S010" true (has_code e "S010")

let test_nesting_depth_capped () =
  let depth = Json.default_max_depth + 8 in
  let line =
    "{\"id\": 1, \"op\": \"ping\", \"params\": "
    ^ String.concat "" (List.init depth (fun _ -> "["))
    ^ String.concat "" (List.init depth (fun _ -> "]"))
    ^ "}"
  in
  let e = decode_err line in
  check "over-deep frame is parse_error" true (e.P.err_code = P.Parse_error);
  check "over-deep frame -> S012" true (has_code e "S012");
  (* Sane nesting is untouched. *)
  match Json.parse "[[[[[[[[1]]]]]]]]" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "shallow nesting must still parse"

let test_model_override_roundtrip () =
  let m =
    {
      Hlp_rtl.Power.default_model with
      Hlp_rtl.Power.vdd = 1.1;
      c_fanout_f = 3.25e-15;
    }
  in
  let req =
    {
      P.id = Json.Int 21;
      deadline_ms = None;
      op = P.Flow { P.default_bind_params with P.bench = "pr"; model = Some m };
    }
  in
  let line = P.encode_request req in
  match P.decode_request line with
  | Ok req' -> check "model override round trips" true (req = req')
  | Error _ -> Alcotest.failf "%s failed to decode" line

let test_hostile_model_rejected () =
  let model_req body =
    Printf.sprintf
      "{\"id\": 1, \"op\": \"flow\", \"params\": {\"bench\": \"pr\", \
       \"model\": %s}}"
      body
  in
  (* Non-finite, subnormal, and out-of-physical-range values each earn
     an S011; an unknown field is an S003. *)
  List.iter
    (fun body ->
      let e = decode_err (model_req body) in
      check (body ^ " is bad_request") true (e.P.err_code = P.Bad_request);
      check (body ^ " -> S011") true (has_code e "S011"))
    [
      "{\"vdd\": 1e999}";
      "{\"c_base_f\": 5e-324}";
      "{\"c_base_f\": 0}";
      "{\"vdd\": -1.2}";
      "{\"t_lut_ns\": -0.5}";
      (* finite and normal, but far past physics: a 1e308 V supply
         overflows vdd^2 downstream into an inf the report printer
         cannot emit as JSON (regression found by hlp_fuzz). *)
      "{\"vdd\": 1e308}";
      "{\"t_route_ns\": 1e308}";
      "{\"c_fanout_f\": 1.0}";
    ];
  let e = decode_err (model_req "{\"frequency_ghz\": 3.2}") in
  check "unknown model field -> S003" true (has_code e "S003");
  let e = decode_err (model_req "[1.2]") in
  check "non-object model -> S003" true (has_code e "S003")

(* --- writer poisoning: a torn frame must never be spliced --- *)

let test_writer_poisons_on_torn_frame () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      (* A non-blocking sender with a bounded socket buffer: the first
         oversized frame writes a partial prefix, then fails with
         EAGAIN mid-frame — exactly the write-limited-fd shape of the
         real bug (a SIGTERM'd drain tearing a frame, then later
         replies splicing onto its tail). *)
      (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096
       with Unix.Unix_error _ -> ());
      Unix.set_nonblock a;
      let w = P.writer_of_fd a in
      let big = String.make (4 * 1024 * 1024) 'x' in
      (match P.write_framed w big with
      | `Poisoned -> ()
      | `Ok -> Alcotest.fail "4 MiB cannot fit a 4 KiB socket buffer"
      | `Error -> Alcotest.fail "a partial write must poison, not Error"
      | `Dropped -> Alcotest.fail "writer cannot be poisoned before use");
      check "writer reports poisoned" true (P.writer_poisoned w);
      (* Every later frame is dropped without touching the stream. *)
      (match P.write_framed w "{\"spliced\": true}" with
      | `Dropped -> ()
      | _ -> Alcotest.fail "poisoned writer must drop later frames");
      (* The peer sees only a strict prefix of the torn frame, then
         EOF — never bytes of a later frame. *)
      let buf = Bytes.create 65536 in
      let total = ref 0 in
      let clean = ref true in
      let rec drain_all () =
        let n = Unix.read b buf 0 (Bytes.length buf) in
        if n > 0 then begin
          for i = 0 to n - 1 do
            if Bytes.get buf i <> 'x' then clean := false
          done;
          total := !total + n;
          drain_all ()
        end
      in
      drain_all ();
      check "peer got a strict prefix" true
        (!total > 0 && !total < String.length big + 1);
      check "no later frame spliced onto the tear" true !clean)

let test_writer_clean_failure_is_error () =
  (* A failure with zero bytes written leaves the stream well-framed:
     the writer reports [`Error] and is NOT poisoned. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  Fun.protect
    ~finally:(fun () -> try Unix.close a with Unix.Unix_error _ -> ())
    (fun () ->
      (* Writing to a peer-closed socket raises EPIPE on the first
         byte (SIGPIPE is ignored under the test harness's server
         runs; ignore it here explicitly for isolation). *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let w = P.writer_of_fd a in
      match P.write_framed w "{\"a\": 1}" with
      | `Error -> check "not poisoned" false (P.writer_poisoned w)
      | `Ok -> Alcotest.fail "write to a closed peer cannot succeed"
      | `Poisoned -> Alcotest.fail "zero-byte failure must not poison"
      | `Dropped -> Alcotest.fail "fresh writer cannot drop")

(* --- session op codec --- *)

let session_requests =
  let graph =
    Hlp_cdfg.Cdfg.create ~name:"g" ~num_inputs:2
      ~ops:
        [ { Hlp_cdfg.Cdfg.id = 0; kind = Hlp_cdfg.Cdfg.Add;
            left = Hlp_cdfg.Cdfg.Input 0; right = Hlp_cdfg.Cdfg.Input 1 } ]
      ~outputs:[ Hlp_cdfg.Cdfg.Op 0 ]
  in
  let deltas =
    [
      P.D_add_op
        { d_kind = Hlp_cdfg.Cdfg.Mult;
          d_left = Hlp_cdfg.Cdfg.Input 1;
          d_right = Hlp_cdfg.Cdfg.Op 0;
          d_output = true };
      P.D_remove_op 3;
      P.D_set_resource (Hlp_cdfg.Cdfg.Add_sub, 2);
      P.D_set_resource (Hlp_cdfg.Cdfg.Multiplier, 1);
      P.D_set_alpha 0.75;
    ]
  in
  [
    { P.id = Json.Int 10;
      deadline_ms = None;
      op =
        P.Session_open
          { P.default_session_open_params with P.so_bench = "pr" } };
    { P.id = Json.Int 11;
      deadline_ms = Some 500;
      op =
        P.Session_open
          { P.so_bench = "";
            so_graph = Some graph;
            so_binder = "lopass";
            so_alpha = 1.0;
            so_width = 4;
            so_k = 3;
            so_res_add = Some 2;
            so_res_mult = Some 1 } };
    { P.id = Json.Int 12;
      deadline_ms = None;
      op = P.Session_close { P.sc_session = "s-9" } };
  ]
  @ List.mapi
      (fun i d ->
        { P.id = Json.Int (20 + i);
          deadline_ms = None;
          op = P.Session_edit { P.se_session = "s-1"; se_delta = d } })
      deltas

let test_session_roundtrip () =
  List.iter
    (fun req ->
      let line = P.encode_request req in
      match P.decode_request line with
      | Ok req' ->
          check (Printf.sprintf "session request %s round trips" line) true
            (req = req')
      | Error _ -> Alcotest.failf "%s failed to decode" line)
    session_requests

let test_session_decode_errors () =
  let bad line = ignore (decode_err line) in
  (* Missing or oversized session id. *)
  bad "{\"id\": 1, \"op\": \"session_edit\", \"params\": {\"delta\": \
       {\"kind\": \"set_alpha\", \"alpha\": 0.5}}}";
  bad
    (Printf.sprintf
       "{\"id\": 1, \"op\": \"session_close\", \"params\": {\"session\": \
        \"%s\"}}"
       (String.make (P.max_session_id_len + 1) 'x'));
  (* Open needs exactly one of bench/graph. *)
  bad "{\"id\": 1, \"op\": \"session_open\", \"params\": {}}";
  (* K is caller-visible but capped. *)
  bad
    (Printf.sprintf
       "{\"id\": 1, \"op\": \"session_open\", \"params\": {\"bench\": \
        \"pr\", \"k\": %d}}"
       (P.max_session_k + 1));
  bad
    "{\"id\": 1, \"op\": \"session_open\", \"params\": {\"bench\": \"pr\", \
     \"k\": 0}}";
  (* Unknown delta kind, bad alpha, bad resource count. *)
  bad
    "{\"id\": 1, \"op\": \"session_edit\", \"params\": {\"session\": \
     \"s-1\", \"delta\": {\"kind\": \"frobnicate\"}}}";
  let e =
    decode_err
      "{\"id\": 1, \"op\": \"session_edit\", \"params\": {\"session\": \
       \"s-1\", \"delta\": {\"kind\": \"set_alpha\", \"alpha\": 1e999}}}"
  in
  check "unusable alpha carries S009" true (has_code e "S009");
  bad
    "{\"id\": 1, \"op\": \"session_edit\", \"params\": {\"session\": \
     \"s-1\", \"delta\": {\"kind\": \"set_resource\", \"class\": \"mult\", \
     \"units\": 0}}}";
  bad
    "{\"id\": 1, \"op\": \"session_edit\", \"params\": {\"session\": \
     \"s-1\", \"delta\": {\"kind\": \"remove_op\", \"id\": -1}}}"

(* --- decode corpus: what the decoder answers, pinned per op --- *)

(* A deterministic corpus of request frames: every op name (plus an
   unknown and a missing one) crossed with every parameter name any op
   reads (plus [engine] and an unknown name) and a fixed value set, each
   probe both alone and over params that are otherwise valid; then
   seeded random frames that set several fields at once, with valid and
   invalid deadlines.  Each entry is (digest group, frame): the group
   is the frame's op name. *)
let corpus_ops =
  [ "ping"; "bind"; "flow"; "explore"; "lint"; "session_open";
    "session_edit"; "session_close"; "stats"; "cluster_stats";
    "frobnicate" ]

let corpus_names =
  [ "sleep_ms"; "bench"; "binder"; "alpha"; "width"; "vectors";
    "port_assign"; "estimator"; "graph"; "model"; "adds"; "mults";
    "alphas"; "k"; "resources"; "session"; "delta"; "engine"; "zzz" ]

let corpus_base = function
  | "bind" | "flow" | "session_open" | "explore" -> [ ("bench", "\"pr\"") ]
  | "session_edit" ->
      [ ("session", "\"s-1\"");
        ("delta", "{\"kind\": \"set_alpha\", \"alpha\": 0.5}") ]
  | "session_close" -> [ ("session", "\"s-1\"") ]
  | _ -> []

let corpus_graphs =
  let g ?(inputs = "2") ?(outputs = "[{\"op\": 0}]") ops =
    Printf.sprintf "{\"name\": \"c\", \"inputs\": %s, \"ops\": [%s], \
                    \"outputs\": %s}" inputs ops outputs
  in
  let add l r =
    Printf.sprintf "{\"kind\": \"add\", \"left\": %s, \"right\": %s}" l r
  in
  let i0 = "{\"input\": 0}" and i1 = "{\"input\": 1}" in
  [ g (add i0 i1);
    g (add i0 i1 ^ ", " ^ add "{\"op\": 0}" i1) ~outputs:"[{\"op\": 1}]";
    g (add "{\"op\": 0}" i1);
    g (add "{\"op\": 1}" i1 ^ ", " ^ add "{\"op\": 0}" i1);
    g (add "{\"input\": 2}" "{\"input\": -1}");
    g (add "{\"op\": 7}" i0);
    g (add "{\"input\": 0, \"op\": 0}" i0);
    g (add "{}" i0);
    g (add "{\"input\": \"x\"}" i0);
    g (add "{\"op\": 1.5}" i0);
    g (add i0 "5");
    g "{\"kind\": \"div\", \"left\": {\"input\": 0}, \
       \"right\": {\"input\": 0}}";
    g "{\"kind\": 5, \"left\": {\"input\": 0}, \"right\": {\"input\": 0}}";
    g "{\"left\": {\"input\": 0}, \"right\": {\"input\": 0}}";
    g "{\"kind\": \"mult\", \"right\": {\"input\": 0}}";
    g "";
    g (add i0 i1) ~outputs:"[]";
    g (add i0 i1) ~outputs:"[5]";
    g (add i0 i1) ~outputs:"[{\"op\": 1}]";
    g (add i0 i1) ~outputs:"[{\"input\": 1}]";
    g (add i0 i1) ~outputs:"\"x\"";
    g (add i0 i1) ~inputs:"257";
    g (add i0 i1) ~inputs:"256";
    g (add i0 i1) ~inputs:"-1";
    g (add i0 i1) ~inputs:"0";
    g (add i0 i1) ~inputs:"\"2\"";
    g (add i0 i1) ~inputs:"2.0";
    "{\"inputs\": 1, \"ops\": \"x\", \"outputs\": [{\"op\": 0}]}";
    "{\"inputs\": 1, \"ops\": [" ^ add i0 i0 ^ "]}";
    "{\"name\": 5, \"inputs\": 1, \"ops\": [" ^ add i0 i0
    ^ "], \"outputs\": [{\"op\": 0}]}";
    "{\"name\": \"\", \"inputs\": 1, \"ops\": [" ^ add i0 i0
    ^ "], \"outputs\": [{\"op\": 0}]}" ]

let corpus_models =
  [ "{\"vdd\": 1.1}"; "{\"vdd\": 0}"; "{\"vdd\": -1}"; "{\"vdd\": 100}";
    "{\"vdd\": 100.00000000000001}"; "{\"vdd\": 1e308}"; "{\"vdd\": \"x\"}";
    "{\"vdd\": null}"; "{\"bogus\": 1}"; "{\"t_lut_ns\": -0.0}";
    "{\"c_base_f\": 5e-324}"; "{\"c_base_f\": 1e-3}"; "{\"c_fanout_f\": 0}";
    "{\"c_fanout_f\": 0.0011}"; "{\"t_seq_ns\": 1e9}";
    "{\"t_route_ns\": 1.000001e9}"; "{\"t_lut_ns\": 1e999}";
    "{\"vdd\": 1.2, \"c_base_f\": 2e-15, \"c_fanout_f\": 1e-15, \
     \"t_lut_ns\": 0.5, \"t_route_ns\": 0.2, \"t_seq_ns\": 0.3}";
    "{\"vdd\": 0, \"bogus\": 1, \"t_seq_ns\": \"x\"}" ]

let corpus_resources =
  [ "{\"add\": 2, \"mult\": 1}"; "{\"add\": 0}"; "{\"add\": \"x\"}";
    "{\"add\": null}"; "{\"mult\": -1}"; "{\"mult\": 1.5}"; "{\"bogus\": 1}";
    "{\"add\": 3}"; "{\"add\": 0, \"mult\": 0, \"x\": 1}" ]

let corpus_deltas =
  let add_op ?(op_kind = "\"add\"") ?(left = "{\"input\": 0}")
      ?(right = "{\"op\": 1}") ?(output = "true") () =
    Printf.sprintf
      "{\"kind\": \"add_op\", \"op_kind\": %s, \"left\": %s, \"right\": %s, \
       \"output\": %s}"
      op_kind left right output
  in
  [ add_op (); add_op ~op_kind:"\"div\"" (); add_op ~op_kind:"5" ();
    add_op ~op_kind:"null" (); add_op ~left:"{\"input\": -1}" ();
    add_op ~left:"{\"input\": 0, \"op\": 1}" (); add_op ~left:"{}" ();
    add_op ~left:"5" (); add_op ~right:"{\"op\": \"x\"}" ();
    add_op ~right:"{\"op\": -2}" (); add_op ~output:"\"yes\"" ();
    add_op ~output:"null" (); add_op ~output:"false" ();
    add_op ~op_kind:"\"mult\"" ~left:"{}" ~right:"7" ~output:"1" ();
    "{\"kind\": \"add_op\"}";
    "{\"kind\": \"remove_op\", \"id\": 0}";
    "{\"kind\": \"remove_op\", \"id\": 3}";
    "{\"kind\": \"remove_op\", \"id\": -1}";
    "{\"kind\": \"remove_op\", \"id\": \"x\"}"; "{\"kind\": \"remove_op\"}";
    "{\"kind\": \"set_resource\", \"class\": \"add\", \"units\": 2}";
    "{\"kind\": \"set_resource\", \"class\": \"mult\", \"units\": 0}";
    "{\"kind\": \"set_resource\", \"class\": \"div\", \"units\": 0}";
    "{\"kind\": \"set_resource\", \"class\": \"add\", \"units\": \"x\"}";
    "{\"kind\": \"set_resource\", \"units\": 2}";
    "{\"kind\": \"set_alpha\", \"alpha\": 0.25}";
    "{\"kind\": \"set_alpha\", \"alpha\": 1e999}";
    "{\"kind\": \"set_alpha\", \"alpha\": 5e-324}";
    "{\"kind\": \"set_alpha\", \"alpha\": 2}";
    "{\"kind\": \"set_alpha\", \"alpha\": \"x\"}";
    "{\"kind\": \"set_alpha\"}"; "{\"kind\": \"frob\"}"; "{\"kind\": 5}";
    "{}" ]

let corpus_values =
  let q s = "\"" ^ s ^ "\"" in
  [ "null"; "true"; "false"; "0"; "1"; "-1"; "2"; "3"; "4"; "5"; "6"; "7";
    "8"; "9"; "16"; "29"; "30"; "31"; "32"; "40"; "63"; "64"; "65"; "1000";
    "60000"; "4611686018427387903"; "-4611686018427387904";
    "123456789123456789123456789"; "0.0"; "-0.0"; "0.5"; "1.0"; "1.5";
    "2.0"; "-3.0"; "0.9999999999999999"; "1.0000000000000002"; "-1e-9";
    "8.0"; "1e999"; "-1e999"; "5e-324"; "-5e-324"; "1e308"; "0.1e-999";
    q ""; q "x"; q "pr"; q "wang"; q "fir8"; q "nope"; q "hlpower";
    q "lopass"; q "both"; q "sim"; q "static"; q "BOTH"; q "8"; q "s-1";
    q (String.make 64 's'); q (String.make 65 's'); q (String.make 70 's');
    "[]"; "[1]"; "[0]"; "[-1]"; "[1, 2, 4]"; "[1, \"x\"]"; "[0.5, 1e999]";
    "[1e999, 1e999]"; "[1e999, \"x\"]"; "[2.0]"; "[-3.0]"; "[0.5, 1.0]";
    "[1, 0]"; "[[1]]"; "[null]"; "[1.5]"; "[0.5, 2, 5e-324]"; "{}";
    "{\"a\": 1}" ]
  @ corpus_graphs @ corpus_models @ corpus_resources @ corpus_deltas

let corpus_frame ?(id = "1") ?deadline ?op params =
  let kv (k, v) = Printf.sprintf "%S: %s" k v in
  String.concat ", "
    ((("\"id\": " ^ id)
     :: (match op with None -> [] | Some o -> [ kv ("op", "\"" ^ o ^ "\"") ]))
    @ (match deadline with None -> [] | Some d -> [ kv ("deadline_ms", d) ])
    @ [ "\"params\": {" ^ String.concat ", " (List.map kv params) ^ "}" ])
  |> Printf.sprintf "{%s}"

let decode_corpus () =
  let out = ref [] in
  let emit group frame = out := (group, frame) :: !out in
  let group = function None -> "<missing>" | Some o -> o in
  let ops = List.map Option.some corpus_ops @ [ None ] in
  let with_field base (k, v) = List.remove_assoc k base @ [ (k, v) ] in
  List.iter
    (fun op ->
      let base = corpus_base (group op) in
      emit (group op) (corpus_frame ?op base);
      emit (group op) (corpus_frame ?op []);
      List.iter
        (fun p ->
          emit (group op)
            (Printf.sprintf "{\"id\": 2, %s\"params\": %s}"
               (match op with None -> "" | Some o -> "\"op\": \"" ^ o ^ "\", ")
               p))
        [ "5"; "null"; "[]"; "\"x\"" ];
      List.iter
        (fun d -> emit (group op) (corpus_frame ?op ~deadline:d base))
        [ "null"; "0"; "1"; "30000"; "-1"; "-5"; "1.5"; "\"10\""; "1e999";
          "5e-324"; "-0.0"; "true"; "[]" ];
      List.iter
        (fun name ->
          List.iter
            (fun v ->
              emit (group op) (corpus_frame ?op (with_field base (name, v)));
              emit (group op) (corpus_frame ?op [ (name, v) ]))
            corpus_values)
        corpus_names)
    ops;
  (* One graph over the op cap per graph-reading op: S007 must arrive
     without per-op diagnostics. *)
  let big =
    Printf.sprintf "{\"inputs\": 1, \"ops\": [%s], \"outputs\": [{\"op\": 0}]}"
      (String.concat ","
         (List.init (P.max_graph_ops + 1) (fun _ -> "{\"bogus\": true}")))
  in
  List.iter
    (fun op -> emit op (corpus_frame ~op [ ("graph", big) ]))
    [ "bind"; "flow"; "session_open" ];
  let rand = Random.State.make [| 16 |] in
  let pick l = List.nth l (Random.State.int rand (List.length l)) in
  for i = 1 to 4000 do
    let op = pick ops in
    let params =
      List.fold_left
        (fun acc _ -> with_field acc (pick corpus_names, pick corpus_values))
        (if Random.State.bool rand then corpus_base (group op) else [])
        (List.init (2 + Random.State.int rand 5) Fun.id)
    in
    let deadline =
      pick [ None; Some "null"; Some "0"; Some "250"; Some "-1"; Some "\"x\"";
             Some "2.5"; Some "1e999" ]
    in
    let id = pick [ string_of_int i; "\"r\""; "null"; "[1]"; "{}" ] in
    emit (group op) (corpus_frame ~id ?deadline ?op params)
  done;
  (* The S001, S010 and S012 frames of the tests above. *)
  List.iter (emit "<frame>")
    [ "{\"op\": \"ping\", "; "[1, 2, 3]"; "{\"id\": 1}";
      "{\"id\": 7, \"op\": \"frobnicate\"}";
      "{\"id\": 1, \"op\": \"stats\", \"id\": 2}";
      "{\"id\": 1, \"op\": \"frobnicate\", \"id\": 2}";
      "{\"id\": 1, \"op\": \"bind\", \"params\": {\"bench\": \"pr\", \
       \"alpha\": 0.1, \"alpha\": 99}}";
      graph_req
        "{\"inputs\": 1, \"ops\": [{\"kind\": \"add\", \"left\": {\"input\": \
         0}, \"left\": {\"input\": 0}, \"right\": {\"input\": 0}}], \
         \"outputs\": [{\"op\": 0}]}";
      (let d = Json.default_max_depth + 8 in
       "{\"id\": 1, \"op\": \"ping\", \"params\": "
       ^ String.concat "" (List.init d (fun _ -> "["))
       ^ String.concat "" (List.init d (fun _ -> "]"))
       ^ "}");
      ""; "null"; "\"ping\""; "{}" ];
  List.rev !out

(* What a frame's decode means, as bytes: an accepted request exactly,
   a rejection by its code, echoed id and diagnostic (code, severity,
   location) multiset — not its message text or order. *)
let corpus_result frame =
  match P.decode_request frame with
  | Ok req -> "ok " ^ Marshal.to_string req [ Marshal.No_sharing ]
  | Error e ->
      let triples =
        List.sort compare
          (List.map
             (fun (d : Diagnostic.t) -> (d.code, d.severity, d.loc))
             e.P.err_diagnostics)
      in
      "error "
      ^ Marshal.to_string (e.P.err_code, e.P.err_id, triples)
          [ Marshal.No_sharing ]

let corpus_digests () =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (g, frame) ->
      let b =
        match Hashtbl.find_opt groups g with
        | Some b -> b
        | None ->
            let b = Buffer.create 4096 in
            Hashtbl.add groups g b;
            b
      in
      let r = corpus_result frame in
      Buffer.add_string b (string_of_int (String.length r));
      Buffer.add_char b ':';
      Buffer.add_string b r)
    (decode_corpus ());
  Hashtbl.fold
    (fun g b acc ->
      (g, Digest.to_hex (Digest.string (Buffer.contents b))) :: acc)
    groups []
  |> List.sort compare

(* One digest per op group: any decoder change that moves a frame's
   outcome, request, code, id or diagnostic multiset moves its op's. *)
let pinned_corpus_digests =
  [
    ("<frame>", "e16743047ae3a7b73732ab4f068e3484");
    ("<missing>", "f8186dfe4a3e3dd1e96f62ba1b656ad2");
    ("bind", "0deab0997fde2df9001c915db048af34");
    ("cluster_stats", "595fc9cc568c1d9124c14190ef7b3ef2");
    ("explore", "397e0265bac9d96fac3ebe4e49416c38");
    ("flow", "8385b04fc9752a1c093aaff01d9c8d2e");
    ("frobnicate", "7f16c0732006db552d17db5b3093d03b");
    ("lint", "a438d84a7ee055b2450bce5084f2c557");
    ("ping", "f3ee5b7da773ed7b1cc59b0a902acb06");
    ("session_close", "5315b51474a80321617805bfc1b475fa");
    ("session_edit", "3cafd9f3082f693768f864eda0806579");
    ("session_open", "c77acfab018e1bc276842492f7ea02ad");
    ("stats", "2078fb510aefb03aea01de3339b793c1");
  ]

let test_decode_corpus_pinned () =
  let got = corpus_digests () in
  if got <> pinned_corpus_digests then
    Alcotest.failf "decode corpus digests moved:\n%s"
      (String.concat "\n"
         (List.map (fun (g, d) -> Printf.sprintf "    (%S, %S);" g d) got))

(* DESIGN §11 embeds the schema's parameter table verbatim. *)
let test_design_table () =
  let path = List.find Sys.file_exists [ "../DESIGN.md"; "DESIGN.md" ] in
  let design = In_channel.with_open_bin path In_channel.input_all in
  let table = P.params_table () in
  let head = String.sub table 0 (String.index table '\n') in
  let rec at i =
    if i + String.length head > String.length design then None
    else if String.sub design i (String.length head) = head then Some i
    else at (i + 1)
  in
  match at 0 with
  | None -> Alcotest.fail "DESIGN.md has no parameter table"
  | Some i ->
      let n = min (String.length table) (String.length design - i) in
      check_s "DESIGN.md carries Protocol.params_table ()" table
        (String.sub design i n)

let suite =
  [
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json float precision" `Quick test_json_float_precision;
    Alcotest.test_case "json parse errors" `Quick test_json_errors;
    Alcotest.test_case "json unicode escapes" `Quick
      test_json_unicode_escapes;
    Alcotest.test_case "json raw splice" `Quick test_json_raw_splice;
    Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
    Alcotest.test_case "reply round trip" `Quick test_reply_roundtrip;
    Alcotest.test_case "error codes round trip" `Quick
      test_error_code_roundtrip;
    Alcotest.test_case "malformed json -> S001" `Quick test_malformed_json;
    Alcotest.test_case "unknown op -> S002" `Quick test_unknown_op;
    Alcotest.test_case "missing op -> S002" `Quick test_missing_op;
    Alcotest.test_case "non-object frame" `Quick test_non_object_frame;
    Alcotest.test_case "bad params all collected" `Quick
      test_bad_params_collected;
    Alcotest.test_case "bind requires bench" `Quick test_bind_requires_bench;
    Alcotest.test_case "bad deadline" `Quick test_bad_deadline;
    Alcotest.test_case "inline graph round trip" `Quick test_graph_roundtrip;
    Alcotest.test_case "cyclic graph -> S008" `Quick test_graph_cyclic;
    Alcotest.test_case "self reference -> S008" `Quick
      test_graph_self_reference;
    Alcotest.test_case "bad input index -> S008" `Quick
      test_graph_bad_input_index;
    Alcotest.test_case "oversized graph -> S007" `Quick test_graph_oversized;
    Alcotest.test_case "at-limit graph accepted" `Quick
      test_graph_at_limit_accepted;
    Alcotest.test_case "graph excludes bench" `Quick test_graph_excludes_bench;
    Alcotest.test_case "width capped" `Quick test_width_capped;
    Alcotest.test_case "engine names accepted" `Quick test_engine_accepted;
    Alcotest.test_case "bad engine ignored" `Quick test_bad_engine_ignored;
    Alcotest.test_case "frame round trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "partial frame at eof" `Quick test_partial_frame_at_eof;
    Alcotest.test_case "oversized frame rejected" `Quick
      test_oversized_frame_rejected;
    Alcotest.test_case "oversized frame at eof" `Quick
      test_oversized_frame_at_eof;
    Alcotest.test_case "oversized frame bounded memory" `Quick
      test_oversized_frame_bounded_memory;
    Alcotest.test_case "non-finite numerics -> S009" `Quick
      test_nonfinite_alpha;
    Alcotest.test_case "duplicate keys -> S010" `Quick test_duplicate_keys;
    Alcotest.test_case "nesting depth -> S012" `Quick
      test_nesting_depth_capped;
    Alcotest.test_case "model override round trip" `Quick
      test_model_override_roundtrip;
    Alcotest.test_case "hostile model -> S011" `Quick
      test_hostile_model_rejected;
    Alcotest.test_case "torn frame poisons writer" `Quick
      test_writer_poisons_on_torn_frame;
    Alcotest.test_case "clean write failure not poisoned" `Quick
      test_writer_clean_failure_is_error;
    Alcotest.test_case "session ops round trip" `Quick
      test_session_roundtrip;
    Alcotest.test_case "session decode errors" `Quick
      test_session_decode_errors;
    Alcotest.test_case "protocol decode corpus pinned" `Quick
      test_decode_corpus_pinned;
    Alcotest.test_case "DESIGN parameter table is the schema's" `Quick
      test_design_table;
  ]
