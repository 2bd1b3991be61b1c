module T = Hlp_util.Telemetry
module Pool = Hlp_util.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The telemetry store is process-global and other suites bump their own
   counters while running; these tests therefore only assert on names they
   create themselves, and on deltas. *)

let test_counter_basics () =
  let c = T.counter "test.basics" in
  let before = T.value c in
  T.incr c;
  T.add c 41;
  check_int "incr + add" (before + 42) (T.value c);
  check_bool "same handle for same name" true (T.counter "test.basics" == c);
  T.count "test.basics" 8;
  check_int "count by name" (before + 50) (T.value c)

let test_counter_concurrent () =
  let c = T.counter "test.concurrent" in
  let before = T.value c in
  Pool.parallel_iter ~jobs:4 (fun _ -> T.incr c) (Array.make 1000 ());
  check_int "1000 atomic bumps" (before + 1000) (T.value c)

let test_timers_accumulate () =
  let x = T.time "test.timer" (fun () -> 42) in
  check_int "passes result through" 42 x;
  ignore (T.time "test.timer" (fun () -> ()));
  let _, calls, seconds =
    List.find (fun (n, _, _) -> n = "test.timer") (T.timers ())
  in
  check_bool "two calls recorded" true (calls >= 2);
  check_bool "nonnegative duration" true (seconds >= 0.)

let test_timer_records_on_exception () =
  let before =
    match List.find_opt (fun (n, _, _) -> n = "test.raises") (T.timers ()) with
    | Some (_, calls, _) -> calls
    | None -> 0
  in
  (try T.time "test.raises" (fun () -> failwith "boom") with Failure _ -> ());
  let _, calls, _ =
    List.find (fun (n, _, _) -> n = "test.raises") (T.timers ())
  in
  check_int "call recorded despite raise" (before + 1) calls

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_json_shape () =
  let module Json = Hlp_util.Json in
  T.count "test.json \"quoted\"" 3;
  ignore (T.time "test.json.timer" (fun () -> ()));
  let json = T.to_json () in
  let counter =
    Option.bind (Json.member "counters" json)
      (Json.member "test.json \"quoted\"")
  in
  check_bool "counters key" true
    (match counter with Some (Json.Int n) -> n >= 3 | _ -> false);
  let timers =
    Option.value ~default:[]
      (Option.bind (Json.member "timers" json) Json.to_list)
  in
  check_bool "timers key" true
    (List.exists
       (fun t -> Json.member "name" t = Some (Json.String "test.json.timer"))
       timers);
  (* The printed document escapes the quotes and parses back. *)
  let text = Json.to_string json in
  check_bool "escaped quotes" true
    (contains ~needle:"test.json \\\"quoted\\\"" text);
  check_bool "parses back" true
    (match Json.parse text with Ok v -> Json.equal v json | Error _ -> false)

let test_write_and_env_knob () =
  let path = Filename.temp_file "hlp_telemetry" ".json" in
  T.write path;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  check_bool "wrote something" true (len > 10);
  (* write_if_requested honours HLP_TELEMETRY, and is a no-op when unset. *)
  let path2 = Filename.temp_file "hlp_telemetry" ".json" in
  Sys.remove path2;
  Unix.putenv "HLP_TELEMETRY" path2;
  T.write_if_requested ();
  check_bool "env-requested dump exists" true (Sys.file_exists path2);
  Sys.remove path2;
  Unix.putenv "HLP_TELEMETRY" "";
  T.write_if_requested ();
  check_bool "empty env is a no-op" true (not (Sys.file_exists path2))

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "counters are atomic across domains" `Quick
      test_counter_concurrent;
    Alcotest.test_case "timers accumulate" `Quick test_timers_accumulate;
    Alcotest.test_case "timer records on exception" `Quick
      test_timer_records_on_exception;
    Alcotest.test_case "json shape" `Quick test_json_shape;
    Alcotest.test_case "write + HLP_TELEMETRY knob" `Quick
      test_write_and_env_knob;
  ]
