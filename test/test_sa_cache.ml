(* The persistent SA-table cache: load-on-create / write-on-exit, format
   versioning, and the failure modes — corrupt header, stale version,
   truncated file, hand-edited values, concurrent warm-up.  The
   invariant under test everywhere: the cache either serves the exact
   bits the writer computed or recomputes from scratch; it never yields
   a wrong value. *)

module Cdfg = Hlp_cdfg.Cdfg
module ST = Hlp_core.Sa_table
module Pool = Hlp_util.Pool
module Telemetry = Hlp_util.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let temp_dir prefix =
  let path = Filename.temp_file prefix ".dir" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let write_file path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let v2_header ~width ~k =
  Printf.sprintf "# sa_table v%d width=%d k=%d lib=%s" ST.format_version
    width k (ST.fingerprint ())

let recoveries = Telemetry.counter "sa_table.cache_recoveries"

let bits = Int64.bits_of_float

(* Cold fill -> persist -> warm process: same bits, zero recomputes. *)
let test_warm_start_is_all_disk_hits () =
  let dir = temp_dir "sa_cache_warm" in
  let cold = ST.create_persistent ~width:2 ~k:4 ~dir () in
  check_bool "cache file path known" true (ST.cache_file cold <> None);
  ST.precompute cold ~max_inputs:3;
  check_bool "cold run computed entries" true (ST.misses cold > 0);
  check_int "cold run loaded nothing" 0 (ST.disk_entries cold);
  ST.persist cold;
  check_bool "cache file written" true
    (Sys.file_exists (Option.get (ST.cache_file cold)));
  let warm = ST.create_persistent ~width:2 ~k:4 ~dir () in
  check_int "warm run starts fully loaded"
    (List.length (ST.entries cold))
    (ST.disk_entries warm);
  List.iter
    (fun (cls, l, r, sa) ->
      let sa' = ST.lookup warm cls ~left:l ~right:r in
      check_bool
        (Printf.sprintf "bit-equal %s (%d,%d)" (Cdfg.class_to_string cls) l r)
        true
        (Int64.equal (bits sa) (bits sa')))
    (ST.entries cold);
  check_int "warm sweep recomputed nothing" 0 (ST.misses warm);
  check_bool "every hit came from disk" true
    (ST.disk_hits warm = ST.hits warm && ST.disk_hits warm > 0)

(* A second persist with no new entries must not rewrite the file. *)
let test_persist_is_idempotent () =
  let dir = temp_dir "sa_cache_idem" in
  let t = ST.create_persistent ~width:2 ~k:4 ~dir () in
  ignore (ST.lookup t Cdfg.Add_sub ~left:2 ~right:2);
  ST.persist t;
  let path = Option.get (ST.cache_file t) in
  let mtime () = (Unix.stat path).Unix.st_mtime in
  let m0 = mtime () in
  ST.persist t;
  check_bool "clean table not rewritten" true (mtime () = m0)

let expect_recovery ~label dir make_content =
  let probe = ST.create_persistent ~width:2 ~k:4 ~dir () in
  let path = Option.get (ST.cache_file probe) in
  write_file path (make_content ());
  let before = Telemetry.value recoveries in
  let t = ST.create_persistent ~width:2 ~k:4 ~dir () in
  check_int (label ^ ": nothing loaded") 0 (ST.disk_entries t);
  check_bool (label ^ ": recovery counted") true
    (Telemetry.value recoveries > before);
  (* Recovery means recompute, not garbage: the value must match a
     fresh computation bit for bit. *)
  let fresh = ST.create ~width:2 ~k:4 () in
  check_bool (label ^ ": recomputed value correct") true
    (Int64.equal
       (bits (ST.lookup t Cdfg.Add_sub ~left:2 ~right:3))
       (bits (ST.lookup fresh Cdfg.Add_sub ~left:2 ~right:3)))

let test_corrupt_header_recovers () =
  expect_recovery ~label:"corrupt header"
    (temp_dir "sa_cache_corrupt")
    (fun () -> [ "not an sa_table at all"; "add 1 1 0x1p+0" ])

let test_stale_version_recovers () =
  expect_recovery ~label:"stale v1"
    (temp_dir "sa_cache_stale")
    (fun () -> [ "# sa_table width=2 k=4"; "add 1 1 0.693147182" ])

let test_truncated_file_recovers () =
  expect_recovery ~label:"truncated row"
    (temp_dir "sa_cache_trunc")
    (fun () -> [ v2_header ~width:2 ~k:4; "add 2 3 0x1.8p+1"; "mult 2" ])

let test_hand_edited_non_positive_sa_recovers () =
  expect_recovery ~label:"non-positive SA"
    (temp_dir "sa_cache_negsa")
    (fun () -> [ v2_header ~width:2 ~k:4; "add 1 1 -0x1p+0" ])

(* Explicit [load] fails loudly instead of recovering, and the
   structured error carries the 1-based line of the offending row. *)
let expect_parse_error ~line content =
  let path = Filename.temp_file "sa_load" ".table" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path content;
      match ST.load path with
      | _ -> Alcotest.fail "load accepted a malformed table"
      | exception ST.Parse_error (l, msg) ->
          check_int (Printf.sprintf "line number in %S" msg) line l)

let test_load_error_lines () =
  expect_parse_error ~line:1 [ "garbage" ];
  expect_parse_error ~line:1 [ "# sa_table width=2 k=4"; "add 1 1 0.5" ];
  expect_parse_error ~line:2 [ v2_header ~width:2 ~k:4; "add 2 1 0x1p+0" ];
  expect_parse_error ~line:3
    [ v2_header ~width:2 ~k:4; "add 1 2 0x1p+0"; "mult 1 2 0x0p+0" ];
  expect_parse_error ~line:4
    [
      v2_header ~width:2 ~k:4;
      "add 1 2 0x1p+0";
      "mult 1 2 0x1p+0";
      "add 1 2 0x1.8p+0";
    ]
  (* duplicate key *)

let test_load_rejects_wrong_fingerprint () =
  let path = Filename.temp_file "sa_fp" ".table" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path
        [
          Printf.sprintf "# sa_table v%d width=2 k=4 lib=%s" ST.format_version
            (String.make 32 '0');
          "add 1 1 0x1p+0";
        ];
      match ST.load_result path with
      | Ok _ -> Alcotest.fail "load accepted a foreign fingerprint"
      | Error (line, msg) ->
          check_int "error on header line" 1 line;
          check_bool "mentions the fingerprint" true
            (String.length msg > 0))

(* The fingerprint hashes mapper results, so a persisted table loads
   only while the mapper and activity estimator compute the same bits.
   Pinned so that a change which moves them (and so invalidates every
   cache on disk) cannot pass unnoticed. *)
let test_fingerprint_pinned () =
  Alcotest.(check string)
    "fingerprint" "c434a5de78559f20dbf72b99f378725c" (ST.fingerprint ())

(* Parallel warm-up: HLP_JOBS=4 precompute races domains on the shared
   table; the persisted file must hold exactly the bits a sequential
   fill produces. *)
let test_concurrent_warmup_matches_sequential () =
  let dir = temp_dir "sa_cache_jobs" in
  let t = ST.create_persistent ~width:2 ~k:4 ~dir () in
  let path = Option.get (ST.cache_file t) in
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs None)
    (fun () ->
      Pool.set_jobs (Some 4);
      ST.precompute t ~max_inputs:4;
      ST.persist t);
  let reloaded = ST.load path in
  let seq = ST.create ~width:2 ~k:4 () in
  Pool.set_jobs (Some 1);
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs None)
    (fun () -> ST.precompute seq ~max_inputs:4);
  let e = ST.entries seq and e' = ST.entries reloaded in
  check_int "same entry count" (List.length e) (List.length e');
  List.iter2
    (fun (cls, l, r, sa) (cls', l', r', sa') ->
      check_bool "same key" true (cls = cls' && l = l' && r = r');
      check_bool
        (Printf.sprintf "parallel warm-up bit-equal %s (%d,%d)"
           (Cdfg.class_to_string cls) l r)
        true
        (Int64.equal (bits sa) (bits sa')))
    e e'

let suite =
  [
    Alcotest.test_case "warm start serves every lookup from disk" `Quick
      test_warm_start_is_all_disk_hits;
    Alcotest.test_case "persist without new entries is a no-op" `Quick
      test_persist_is_idempotent;
    Alcotest.test_case "corrupt header recovers by recomputing" `Quick
      test_corrupt_header_recovers;
    Alcotest.test_case "stale v1 file recovers by recomputing" `Quick
      test_stale_version_recovers;
    Alcotest.test_case "truncated file recovers by recomputing" `Quick
      test_truncated_file_recovers;
    Alcotest.test_case "hand-edited non-positive SA recovers" `Quick
      test_hand_edited_non_positive_sa_recovers;
    Alcotest.test_case "load reports structured line errors" `Quick
      test_load_error_lines;
    Alcotest.test_case "load rejects a foreign fingerprint" `Quick
      test_load_rejects_wrong_fingerprint;
    Alcotest.test_case "HLP_JOBS=4 warm-up persists sequential bits" `Quick
      test_concurrent_warmup_matches_sequential;
    Alcotest.test_case "fingerprint pinned" `Quick test_fingerprint_pinned;
  ]
