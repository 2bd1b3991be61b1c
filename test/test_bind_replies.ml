(* Every bind reply the benchmark's bind streams send, and seven of its
   flow replies, pinned.  The 42 bind kinds (7 benchmarks x {lopass,
   hlpower alpha 1.0, hlpower alpha 0.5} x widths 8 and 16) and the 7
   width-16 HLPower alpha 0.5 flow kinds go through [Router.handle] with
   the parameters perf/workload.ml gives them, and each result must
   digest, as perf/oracle.ml computes it, to the entry perf/expected.json
   records for its kind.  A matching change that moved one FU group,
   iteration count or mux statistic, or a mapper change that moved one
   LUT or SA estimate, fails here, not only in the benchmark's smoke
   run. *)

module Json = Hlp_util.Json
module P = Hlp_server.Protocol
module Router = Hlp_server.Router
module Benchmarks = Hlp_cdfg.Benchmarks

(* Declared as a dependency in test/dune, so it sits beside the test
   directory in the build tree; the second path serves runs from the
   repository root. *)
let expected_json () =
  let path =
    match
      List.find_opt Sys.file_exists
        [ "../perf/expected.json"; "perf/expected.json" ]
    with
    | Some path -> path
    | None -> Alcotest.fail "perf/expected.json not found"
  in
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok v -> v
  | Error (pos, msg) -> Alcotest.failf "%s: byte %d: %s" path pos msg

(* perf/oracle.ml's digest: MD5 of the printed result after a parse
   round trip, i.e. of the tree a wire client decodes. *)
let digest v =
  let decoded =
    match Json.parse (Json.to_string v) with Ok v -> v | Error _ -> v
  in
  Digest.to_hex (Digest.string (Json.to_string decoded))

let binders = [ ("lopass", 0.5); ("hlpower", 1.0); ("hlpower", 0.5) ]

(* perf/workload.ml's kind name, the key of each digest. *)
let kind_name ~op ~bench ~binder ~alpha ~width =
  let label =
    if binder = "lopass" then "lopass"
    else Printf.sprintf "hlpower-a%.1f" alpha
  in
  Printf.sprintf "%s/%s/%s/w%d" op bench label width

(* Sends every kind through one router; the names of the kinds whose
   result does not digest to their entry. *)
let mismatches kinds =
  let expected =
    match Json.member "kinds" (expected_json ()) with
    | Some (Json.Obj l) -> l
    | _ -> Alcotest.fail "expected.json has no kinds object"
  in
  let router = Router.create () in
  let check (op, bench, (binder, alpha), width) =
    let name = kind_name ~op ~bench ~binder ~alpha ~width in
    let params =
      {
        P.default_bind_params with
        bench;
        binder;
        alpha;
        width;
        vectors = 150;
        estimator = "sim";
      }
    in
    let request = if op = "flow" then P.Flow params else P.Bind params in
    match
      ( List.assoc_opt name expected,
        Router.handle router ~checkpoint:ignore request )
    with
    | None, _ -> Some (name ^ ": no expected digest")
    | Some _, Error _ -> Some (name ^ ": " ^ op ^ " failed")
    | Some (Json.String d), Ok result when d = digest result -> None
    | Some _, Ok _ -> Some (name ^ ": result digest differs")
  in
  List.filter_map check kinds

let benches = List.map (fun p -> p.Benchmarks.bench_name) Benchmarks.all

let test_bind_replies_match_oracle () =
  let kinds =
    List.concat_map
      (fun width ->
        List.concat_map
          (fun bench ->
            List.map (fun binder -> ("bind", bench, binder, width)) binders)
          benches)
      [ 8; 16 ]
  in
  Alcotest.(check int) "42 bind kinds" 42 (List.length kinds);
  Alcotest.(check (list string))
    "every reply matches its digest" [] (mismatches kinds)

(* The bind digests never reach the mapper; a flow's do, and they pin
   its estimated SA, LUT count, depth and power.  One flow kind per
   benchmark, HLPower at alpha 0.5. *)
let test_flow_replies_match_oracle () =
  let kinds =
    List.map (fun bench -> ("flow", bench, ("hlpower", 0.5), 16)) benches
  in
  Alcotest.(check int) "7 flow kinds" 7 (List.length kinds);
  Alcotest.(check (list string))
    "every reply matches its digest" [] (mismatches kinds)

let suite =
  [
    Alcotest.test_case "42 bind replies match perf/expected.json" `Quick
      test_bind_replies_match_oracle;
    Alcotest.test_case "7 flow replies match perf/expected.json" `Quick
      test_flow_replies_match_oracle;
  ]
