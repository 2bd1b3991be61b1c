(* Reply bytes pinned across changes to the JSON writers.  Each case
   goes through [Router.handle] (or builds the error reply the server
   or the front end would send) and [Protocol.encode_reply], and the
   MD5 of the line must equal the digest recorded for it.

   - Byte-pinned: flow replies (sim, estimator both, an inline graph
     whose name needs escaping), a bind reply, and error replies whose
     diagnostics carry every location kind.  A change to one field's
     number format, one separator or one escape fails here.
   - Tree-pinned: lint replies, whose report may change whitespace
     but not content.  Their digest is taken after a parse and a
     reprint. *)

(* The alias, not Hlp_util.Json: this file also builds against trees
   from before Json moved down to hlp_util, to record the digests. *)
module Json = Hlp_server.Json
module P = Hlp_server.Protocol
module Router = Hlp_server.Router
module Cdfg = Hlp_cdfg.Cdfg
module D = Hlp_lint.Diagnostic

let md5 s = Digest.to_hex (Digest.string s)

(* The envelope around a result: a fixed id, telemetry and elapsed
   time, so the line depends on the result alone. *)
let ok_line op result =
  P.encode_reply
    {
      P.reply_id = Json.Int 7;
      payload =
        P.Result
          {
            op;
            result;
            telemetry = [ ("pinned.count", 3) ];
            elapsed_ms = 12.5;
          };
    }

let error_line ?(id = Json.Int 7) code message diagnostics =
  P.encode_reply (P.error_reply ~diagnostics ~id code "%s" message)

let handle router op =
  match Router.handle router ~checkpoint:ignore op with
  | Ok result -> result
  | Error ds ->
      Alcotest.failf "%s failed: %s" (P.op_name op)
        (String.concat "; " (List.map D.to_string ds))

let flow_params bench =
  { P.default_bind_params with P.bench; width = 8; vectors = 20 }

(* Quote, backslash, a control byte and a two-byte UTF-8 sequence. *)
let awkward_name = "q\"b\\c\001d\xc3\xa9"

let inline_graph () =
  let op id kind left right = { Cdfg.id; kind; left; right } in
  Cdfg.create ~name:awkward_name ~num_inputs:2
    ~ops:
      [
        op 0 Cdfg.Add (Cdfg.Input 0) (Cdfg.Input 1);
        op 1 Cdfg.Mult (Cdfg.Op 0) (Cdfg.Input 1);
      ]
    ~outputs:[ Cdfg.Op 1 ]

(* A self reference, an input out of range and an unknown kind. *)
let bad_graph_frame =
  {|{"id": "g", "op": "bind", "params": {"graph": {"inputs": 1, "ops": [|}
  ^ {|{"kind": "add", "left": {"op": 0}, "right": {"input": 3}}, |}
  ^ {|{"kind": "div", "left": {"input": 0}, "right": {"input": 0}}], |}
  ^ {|"outputs": [{"op": 1}]}}}|}

(* (name, digest recorded before the writers moved to Json.t, line). *)
let byte_cases () =
  let router = Router.create () in
  let flow p = ok_line "flow" (handle router (P.Flow p)) in
  [
    ( "flow pr lopass w8",
      "228d028bb17012af1b2dfd8d293a3265",
      fun () -> flow { (flow_params "pr") with P.binder = "lopass" } );
    ( "flow pr hlpower a0.5 w8 estimator both",
      "b32c6ae0f4eeedeb1a35060112665783",
      fun () ->
        flow { (flow_params "pr") with P.alpha = 0.5; estimator = "both" } );
    ( "flow inline graph with an escaped name",
      "66363b120e106f5d3a8382afb2c9922f",
      fun () -> flow { (flow_params "") with P.graph = Some (inline_graph ()) }
    );
    ( "bind wang hlpower a0.5 w8",
      "49527cb3bdbd2b091d20906b597ba568",
      fun () ->
        ok_line "bind"
          (handle router (P.Bind { (flow_params "wang") with P.alpha = 0.5 }))
    );
    ( "error from the router (design loc)",
      "da3bea9c8dcc92598a41c490347b17e3",
      fun () ->
        match
          Router.handle router ~checkpoint:ignore (P.Bind (flow_params "nope"))
        with
        | Ok _ -> Alcotest.fail "unknown bench accepted"
        | Error ds ->
            error_line P.Bad_request "request failed validation or execution"
              ds );
    ( "error from the decoder (op locs)",
      "60f9efb2aa03decbbc19c730ae439b02",
      fun () ->
        match P.decode_request bad_graph_frame with
        | Ok _ -> Alcotest.fail "cyclic graph accepted"
        | Error e ->
            error_line ~id:e.P.err_id e.P.err_code "invalid request frame"
              e.P.err_diagnostics );
    ( "error with every location kind",
      "0bb279ac5cf2058848cf6907a8e993fd",
      fun () ->
        error_line ~id:(Json.String awkward_name) P.Bad_request
          "every loc \"kind\""
          [
            D.error "S012" (D.Line 1)
              "frame of %d bytes exceeds the %d-byte limit" 9 8;
            D.error "N001" (D.Net awkward_name) "net %S" awkward_name;
            D.warning "N005" (D.Node 4) "dead logic";
            D.error "B001" (D.Op 3) "op is not bound";
            D.error "B002" (D.Fu 2) "fu";
            D.error "B004" (D.Reg 1) "reg";
            D.warning "D001" (D.Step 0) "step\ttab";
            D.error "S004" D.Design "design";
          ] );
  ]

let test_reply_bytes_pinned () =
  List.iter
    (fun (name, digest, line) ->
      Alcotest.(check string) name digest (md5 (line ())))
    (byte_cases ())

(* A lint reply's digest after a parse and a reprint: the tree, not
   the whitespace. *)
let tree_digest line =
  match Json.parse line with
  | Ok v -> md5 (Json.to_string v)
  | Error (pos, msg) -> Alcotest.failf "byte %d: %s" pos msg

let lint_digests =
  [
    (Some "fir8", "331e1eb5080e10c09d027da466b45ca4");
    (None, "7dfdfbff44fc04eae5bc073c5a706665");
  ]

let test_lint_trees_pinned () =
  let router = Router.create () in
  List.iter
    (fun (lint_bench, digest) ->
      let line =
        ok_line "lint"
          (handle router
             (P.Lint { P.lint_bench; lint_binder = "both"; lint_width = 8 }))
      in
      Alcotest.(check string)
        (Printf.sprintf "lint %s w8" (Option.value ~default:"(all)" lint_bench))
        digest (tree_digest line))
    lint_digests

let suite =
  [
    Alcotest.test_case "flow, bind and error reply bytes pinned" `Quick
      test_reply_bytes_pinned;
    Alcotest.test_case "lint reply trees pinned" `Quick test_lint_trees_pinned;
  ]
