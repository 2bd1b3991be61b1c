(* perf.exe — the repository benchmark: closed-loop load on the real
   daemon, end-to-end metrics per workload, per-layer attribution from
   the reply fields, /proc and an in-process traced pass.  See
   README.md in this directory. *)

module Json = Hlp_server.Json
module Client = Hlp_server.Client
module Protocol = Hlp_server.Protocol
module Clock = Hlp_util.Clock

type config = { cli : string; expected : string; run_dir : string }
type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }

(* Nearest rank: the smallest sample with at least [q] of all samples at
   or below it. *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median = percentile 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum = List.fold_left ( +. ) 0.

(* [run_seconds] in BENCHMARK.json, the default [--seconds]. *)
let run_seconds = 15

(* The tail percentile is the highest one with at least ten samples
   beyond it at [run_seconds]: flow-mix completes 84 requests, bind-mix
   and bind-head 1008, session-edits 2772. *)
let tail_q = function
  | Workload.Flow_stream -> 0.88
  | Workload.Bind_stream -> 0.99
  | Workload.Session_stream -> 0.99

let tail_name s = Printf.sprintf "p%.0f" (100. *. tail_q s)

(* Jobs per client replayed by the traced pass, each request four
   times: a full round of binds or sessions, so every benchmark appears
   whatever the seed, but only three flows, since a round of flows run
   four times would take over two minutes. *)
let traced_jobs = function
  | Workload.Flow_stream -> 3
  | Workload.Bind_stream -> List.length Workload.bind_kinds
  | Workload.Session_stream -> List.length Workload.benches

type outcome = {
  e2e : metric list;
  per_layer : metric list;  (** empty unless traced *)
  attempted : int;
  failed : int;
  wrong : int;
  drain_errors : string list;
}

let telemetry_sum key samples =
  List.fold_left
    (fun acc (s : Loadgen.sample) ->
      acc + Option.value ~default:0 (List.assoc_opt key s.telemetry))
    0 samples

(* Per-layer numbers of the traced pass, all over the workload's own
   stream: shares, [unattributed_share] and the overhead against the
   untraced latencies of the same request ids.  A layer, benchmark or
   session number the stream never reaches reads 0. *)
let traced_metrics (loaded : Loadgen.result) (t : Trace.result) =
  let untraced = Hashtbl.create 256 in
  List.iter
    (fun (s : Loadgen.sample) -> Hashtbl.replace untraced (s.client, s.index) s)
    loaded.samples;
  let matched =
    List.filter_map
      (fun (r : Trace.req) ->
        Option.map (fun s -> (r, s)) (Hashtbl.find_opt untraced (r.client, r.index)))
      t.reqs
  in
  if matched = [] then failwith "no traced request matches the untraced run";
  let mean_of f = mean (List.map f matched) in
  let lat = mean_of (fun (_, (s : Loadgen.sample)) -> s.lat_ms) in
  let wire = mean_of (fun (_, (s : Loadgen.sample)) -> s.lat_ms -. s.service_ms) in
  let shares =
    List.map (fun l -> (l, mean_of (fun (r, _) -> Trace.self_ms r l) /. lat)) Trace.layers
  in
  let unattributed = 1. -. (wire /. lat) -. sum (List.map snd shares) in
  let overhead =
    let total f = sum (List.map f t.reqs) in
    let noop = total (fun (r : Trace.req) -> r.noop_ms) in
    100. *. (total (fun (r : Trace.req) -> r.rec_ms) -. noop) /. noop
  in
  let self_times ?bench l =
    List.filter_map
      (fun (r : Trace.req) ->
        if Trace.has_layer r l && Option.fold ~none:true ~some:(( = ) r.bench) bench then
          Some (Trace.self_ms r l)
        else None)
      t.reqs
  in
  let layer l =
    [
      m (Printf.sprintf "layer.%s.p50_ms" l) (percentile 0.5 (self_times l)) "ms";
      m (Printf.sprintf "layer.%s.p99_ms" l) (percentile 0.99 (self_times l)) "ms";
      m (Printf.sprintf "layer.%s.share" l) (List.assoc l shares) "share";
    ]
  in
  let edits = List.filter (fun (r : Trace.req) -> r.op = "session_edit") t.reqs in
  let hits, misses = List.partition (fun (r : Trace.req) -> r.cached) edits in
  let per_edit n = float_of_int n /. float_of_int (max 1 (List.length edits)) in
  let tel key reqs =
    List.fold_left
      (fun acc (r : Trace.req) -> acc + Option.value ~default:0 (List.assoc_opt key r.telemetry))
      0 reqs
  in
  List.concat_map layer Trace.layers
  @ [ m "layer.wire.share" (wire /. lat) "share" ]
  @ List.map
      (fun b -> m ("layer.bind.p50_ms." ^ b) (percentile 0.5 (self_times ~bench:b "bind")) "ms")
      Workload.benches
  @ [
      m "trace.overhead_pct" overhead "%";
      m "unattributed_share" unattributed "share";
      m "session.reply_hit_ratio" (per_edit (List.length hits)) "share";
      m "session.hit_p50_ms" (median (List.map (fun (r : Trace.req) -> r.noop_ms) hits)) "ms";
      m "session.miss_p50_ms" (median (List.map (fun (r : Trace.req) -> r.noop_ms) misses)) "ms";
      m "hlpower.memo_weight_hits_per_edit" (per_edit (tel "hlpower.memo_weight_hits" edits))
        "count/edit";
      m "hlpower.memo_class_hits" (float_of_int (tel "hlpower.memo_class_hits" t.reqs)) "count";
    ]

let take n l = List.filteri (fun i _ -> i < n) l

(* One measured run of [w]: a cold set-up, the closed loop on the same
   daemon, the drain, and with [trace] the in-process traced pass over
   [traced_jobs] jobs per client.  [limit n] caps each client's [n] jobs
   (the smoke run). *)
let run_workload cfg ~oracle ~seed ~seconds ~trace ~limit ~traced_jobs w =
  Daemon.arm_watchdog 170.;
  let stream = Workload.stream_of w in
  let mode = if w = Workload.Bind_head then Daemon.Head else Daemon.Single in
  let d, ready = Daemon.start ~cli:cfg.cli ~run_dir:cfg.run_dir mode in
  let warm =
    let t0 = Clock.monotonic () in
    match Loadgen.run ~socket:d.socket ~oracle (Loadgen.shared (Workload.warmup stream)) with
    | r when r.failed = 0 && r.wrong = 0 -> Clock.monotonic () -. t0
    | _ ->
        Daemon.kill d;
        failwith "warm-up failed"
    | exception e ->
        Daemon.kill d;
        raise e
  in
  let lists =
    Array.init Workload.clients (fun client ->
        let jobs = Workload.client_jobs stream ~seed ~seconds ~client in
        take (limit (List.length jobs)) jobs)
  in
  let loaded, cpu_s, loadgen_s, rss_mib =
    try
      let cpu0 = Daemon.tree_cpu_seconds d and lg0 = Unix.times () in
      let r = Loadgen.run ~socket:d.socket ~oracle (Loadgen.of_lists lists) in
      let lg1 = Unix.times () in
      let cpu1 = Daemon.tree_cpu_seconds d in
      ( r,
        cpu1 -. cpu0,
        lg1.Unix.tms_utime +. lg1.Unix.tms_stime -. lg0.Unix.tms_utime -. lg0.Unix.tms_stime,
        Daemon.tree_hwm_mib d )
    with e ->
      Daemon.kill d;
      raise e
  in
  let drain_errors = match Daemon.stop d with Ok () -> [] | Error e -> [ e ] in
  let completed = List.length loaded.samples in
  if completed = 0 then failwith "no request completed";
  let per_req x = x /. float_of_int completed in
  let lat = List.map (fun (s : Loadgen.sample) -> s.lat_ms) loaded.samples in
  let wire = List.map (fun (s : Loadgen.sample) -> s.lat_ms -. s.service_ms) loaded.samples in
  let service = List.map (fun (s : Loadgen.sample) -> s.service_ms) loaded.samples in
  let e2e =
    [
      m "throughput_rps" (float_of_int completed /. loaded.wall_s) "1/s";
      m "latency_p50_ms" (median lat) "ms";
      m "latency_tail_ms" (percentile (tail_q stream) lat) "ms";
      m "server_cpu_ms_per_req" (per_req (cpu_s *. 1000.)) "ms/req";
      m "rss_peak_mib" rss_mib "MiB";
      m "setup_s" (ready +. warm) "s";
    ]
  in
  let traced =
    if not trace then None
    else begin
      let t = Trace.run stream ~seed ~seconds ~oracle ~jobs:traced_jobs in
      Trace.write_spans
        (Filename.concat cfg.run_dir
           (Printf.sprintf "spans-%s-seed%d.jsonl" (Workload.to_string w) seed))
        stream t.reqs;
      Some t
    end
  in
  let per_layer =
    match traced with
    | None -> []
    | Some t ->
        [
          m "wire.p50_ms" (median wire) "ms";
          m "wire.p99_ms" (percentile 0.99 wire) "ms";
          m "service.p50_ms" (median service) "ms";
          m "service.p99_ms" (percentile 0.99 service) "ms";
          m "sa_table.hits_per_req"
            (per_req (float_of_int (telemetry_sum "sa_table.hits" loaded.samples)))
            "count/req";
          m "sa_table.misses" (float_of_int (telemetry_sum "sa_table.misses" loaded.samples)) "count";
          m "setup.ready_s" ready "s";
          m "setup.warmup_s" warm "s";
          m "loadgen.cpu_ms_per_req" (per_req (loadgen_s *. 1000.)) "ms/req";
        ]
        @ traced_metrics loaded t
  in
  let tw, tf = match traced with Some t -> (t.wrong, t.failed) | None -> (0, 0) in
  Daemon.arm_watchdog infinity;
  Printf.eprintf
    "perf: %s seed %d: %d attempted, %d failed, %d wrong, %.2f s window, tail = %s of %d\n%!"
    (Workload.to_string w) seed loaded.attempted loaded.failed loaded.wrong loaded.wall_s
    (tail_name stream) completed;
  {
    e2e;
    per_layer;
    attempted = loaded.attempted;
    failed = loaded.failed + tf;
    wrong = loaded.wrong + tw;
    drain_errors;
  }

let ok o = o.wrong = 0 && o.failed = 0 && o.drain_errors = []

let print_metrics ch metrics =
  List.iter (fun x -> Printf.fprintf ch "  %-36s %14.4f %s\n" x.name x.value x.unit) metrics

let result_json o metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (o.wrong = 0 && o.drain_errors = []));
         ("attempted", Json.Int o.attempted);
         ("failed", Json.Int o.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ]))
                metrics) );
       ])

(* --- command line --- *)

let usage =
  "usage: perf.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
  \       perf.exe trace [--seed N] [--seconds S]\n\
  \       perf.exe smoke --benchmark-json PATH\n\
  \       perf.exe record-expected --bench-json PATH [--out PATH]\n\
   common: [--cli PATH] [--expected PATH] [--run-dir DIR]\n\
   workloads: flow-mix bind-mix session-edits bind-head"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      exit 2)
    fmt

let parse_opts args =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | arg :: _ -> die "unexpected argument %S\n%s" arg usage
  in
  go [] args

let cmd_run cfg ~get ~int_opt =
  let w =
    match Workload.of_string (get "workload" "") with
    | Some w -> w
    | None -> die "--workload must be one of flow-mix bind-mix session-edits bind-head"
  in
  let trace =
    match get "trace" "0" with "0" -> false | "1" -> true | _ -> die "--trace takes 0 or 1"
  in
  let o =
    run_workload cfg ~oracle:(Oracle.load cfg.expected) ~seed:(int_opt "seed" 1)
      ~seconds:(float_of_int (int_opt "seconds" run_seconds)) ~trace ~limit:Fun.id
      ~traced_jobs:(traced_jobs (Workload.stream_of w)) w
  in
  let metrics = if trace then o.per_layer else o.e2e in
  print_metrics stderr metrics;
  Printf.eprintf "  %-36s %14d\n  %-36s %14.4f\n%!" "wrong_outputs" o.wrong "failed_frac"
    (float_of_int o.failed /. float_of_int (max 1 o.attempted));
  List.iter (fun e -> Printf.eprintf "perf: drain failed: %s\n%!" e) o.drain_errors;
  print_endline (result_json o metrics);
  if not (ok o) then exit 1

(* The traced run of every workload, as tables. *)
let cmd_trace cfg ~int_opt =
  let oracle = Oracle.load cfg.expected in
  let seed = int_opt "seed" 1 in
  let failed = ref false in
  List.iter
    (fun w ->
      let o =
        run_workload cfg ~oracle ~seed
          ~seconds:(float_of_int (int_opt "seconds" run_seconds))
          ~trace:true ~limit:Fun.id ~traced_jobs:(traced_jobs (Workload.stream_of w)) w
      in
      Printf.printf "== %s (seed %d)\n" (Workload.to_string w) seed;
      print_metrics stdout (o.e2e @ o.per_layer);
      flush stdout;
      if not (ok o) then failed := true)
    Workload.all;
  if !failed then exit 1

let benchmark_names path =
  let v = Oracle.parse_file path in
  let names key =
    match Json.member key v with
    | Some (Json.List l) ->
        List.filter_map
          (fun e ->
            match (Json.member "name" e, Json.member "unit" e) with
            | Some (Json.String n), Some (Json.String u) -> Some (n, u)
            | _ -> None)
          l
    | _ -> die "%s: no %s list" path key
  in
  (names "end_to_end", names "per_layer")

(* Every workload at about 2 % of its job count plus a short trace;
   fails unless every metric BENCHMARK.json names is printed with its
   unit, nothing failed or came back wrong, and no daemon or socket is
   left behind. *)
let cmd_smoke cfg ~get =
  let e2e_names, layer_names = benchmark_names (get "benchmark-json" "BENCHMARK.json") in
  let oracle = Oracle.load cfg.expected in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check w what want got =
    List.iter
      (fun (n, u) ->
        match List.find_opt (fun x -> x.name = n) got with
        | Some x when x.unit = u -> ()
        | Some x -> problem "%s: %s %s printed in %s, not %s" w what n x.unit u
        | None -> problem "%s: %s metric %s not printed" w what n)
      want
  in
  List.iter
    (fun w ->
      let name = Workload.to_string w in
      let o =
        run_workload cfg ~oracle ~seed:1 ~seconds:(float_of_int run_seconds) ~trace:true
          ~limit:(fun n -> max 1 (int_of_float (ceil (0.02 *. float_of_int n))))
          ~traced_jobs:(if Workload.stream_of w = Workload.Bind_stream then 4 else 1)
          w
      in
      print_metrics stdout (o.e2e @ o.per_layer);
      check name "end-to-end" e2e_names o.e2e;
      check name "per-layer" layer_names o.per_layer;
      if o.wrong > 0 then problem "%s: %d wrong outputs" name o.wrong;
      if o.failed > 0 then problem "%s: %d failed requests" name o.failed;
      List.iter (problem "%s: drain: %s" name) o.drain_errors)
    Workload.all;
  List.iter (problem "daemon process %d still running") (Daemon.leftovers ());
  List.iter (problem "socket %s left behind") (Daemon.sockets_under cfg.run_dir);
  match List.rev !problems with
  | [] -> print_endline "perf-smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("perf-smoke: " ^ p)) ps;
      exit 1

(* Record expected.json: one reply per kind from a fresh daemon, after
   checking the flow kinds BENCH_pr10.json reports against its rows. *)
let cmd_record cfg ~get =
  let sec6 = Oracle.sec6_of_bench_report (get "bench-json" "BENCH_pr10.json") in
  let d, _ = Daemon.start ~cli:cfg.cli ~run_dir:cfg.run_dir Daemon.Single in
  let digests =
    Fun.protect
      ~finally:(fun () -> ignore (Daemon.stop d))
      (fun () ->
        let c = Client.connect d.socket in
        Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
            List.map
              (fun k ->
                match
                  Client.request c
                    { Protocol.id = Json.Null; deadline_ms = None; op = Workload.op_of_kind k }
                with
                | Ok { Protocol.payload = Protocol.Result { result; _ }; _ } ->
                    let name = Workload.kind_name k in
                    Option.iter
                      (fun row -> Option.iter (die "%s") (Oracle.sec6_problem ~name row result))
                      (List.assoc_opt name sec6);
                    (name, Oracle.digest result)
                | _ -> die "%s: no result" (Workload.kind_name k))
              (Workload.flow_kinds @ Workload.bind_kinds)))
  in
  let out = get "out" cfg.expected in
  Oracle.write out ~digests ~sec6;
  Printf.printf "perf: wrote %d digests and %d Sec. 6 rows to %s\n" (List.length digests)
    (List.length sec6) out

let () =
  Daemon.scrub_self ();
  Daemon.install_guards ();
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
      let opts = parse_opts rest in
      let get key default = Option.value ~default (List.assoc_opt key opts) in
      let int_opt key default =
        match int_of_string_opt (get key (string_of_int default)) with
        | Some n when n > 0 -> n
        | _ -> die "--%s takes a positive integer" key
      in
      let cfg =
        {
          cli = get "cli" "_build/default/bin/hlpower_cli.exe";
          expected = get "expected" "perf/expected.json";
          run_dir = get "run-dir" "_build/perf-run";
        }
      in
      if not (Sys.file_exists cfg.cli) then die "daemon binary %s not found" cfg.cli;
      try
        match cmd with
        | "run" -> cmd_run cfg ~get ~int_opt
        | "trace" -> cmd_trace cfg ~int_opt
        | "smoke" -> cmd_smoke cfg ~get
        | "record-expected" -> cmd_record cfg ~get
        | _ -> die "unknown command %S\n%s" cmd usage
      with e ->
        Daemon.kill_all ();
        die "%s" (match e with Failure msg | Sys_error msg -> msg | e -> Printexc.to_string e))
  | _ -> die "%s" usage
