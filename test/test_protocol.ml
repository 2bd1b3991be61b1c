(* Wire-protocol tests: JSON parser units, request/reply round trips
   over every variant, malformed-frame diagnostics, and frame-size
   enforcement. *)

module Json = Hlp_server.Json
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
    all_requests

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
    (fun code ->
      check
        (Printf.sprintf "error code %s" (P.error_code_to_string code))
        true
        (P.error_code_of_string (P.error_code_to_string code) = Some code))
    [
      P.Parse_error;
      P.Unknown_op;
      P.Bad_request;
      P.Frame_too_large;
      P.Overloaded;
      P.Deadline_exceeded;
      P.Draining;
      P.Internal;
    ]

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
  check "width cap is S003" true (has_code e "S003")

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
  check "explore alphas -> S009" true (has_code e "S009")

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
  ]
