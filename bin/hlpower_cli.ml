(* Command-line driver: run any benchmark through either binder and the
   full evaluation flow, and dump the artifacts (VHDL, BLIF, SA table). *)

module Cdfg = Hlp_cdfg.Cdfg
module Benchmarks = Hlp_cdfg.Benchmarks
module Binding = Hlp_core.Binding
module Sa_table = Hlp_core.Sa_table
module Hlpower = Hlp_core.Hlpower
module Binder = Hlp_core.Binder
module Datapath = Hlp_rtl.Datapath
module Vhdl = Hlp_rtl.Vhdl
module Flow = Hlp_rtl.Flow
module Power = Hlp_rtl.Power
module Blif = Hlp_netlist.Blif
module Json = Hlp_util.Json
open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

(* --- list command --- *)

let list_cmd =
  let doc = "List the benchmark profiles (Table 1 / Table 2 of the paper)" in
  let run () =
    Printf.printf "%-8s %4s %4s %5s %6s %6s | %4s %5s %6s %4s\n" "bench"
      "PIs" "POs" "adds" "mults" "edges" "addU" "multU" "cycles" "regs";
    List.iter
      (fun p ->
        let g = Benchmarks.generate p in
        Printf.printf "%-8s %4d %4d %5d %6d %6d | %4d %5d %6d %4d\n"
          p.Benchmarks.bench_name p.Benchmarks.num_pis p.Benchmarks.num_pos
          p.Benchmarks.num_adds p.Benchmarks.num_mults (Cdfg.edge_count g)
          p.Benchmarks.add_units p.Benchmarks.mult_units
          p.Benchmarks.paper_cycles p.Benchmarks.paper_regs)
      Benchmarks.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- bind command --- *)

let bench_arg =
  let doc = "Benchmark name (chem, dir, honda, mcm, pr, steam, wang)." in
  Arg.(required & opt (some string) None & info [ "b"; "bench" ] ~doc)

let binder_arg =
  let doc = "Binding algorithm: hlpower or lopass." in
  Arg.(value & opt string "hlpower" & info [ "binder" ] ~doc)

let alpha_arg =
  let doc = "Eq. 4 weighting coefficient alpha (HLPower only)." in
  Arg.(value & opt float 0.5 & info [ "alpha" ] ~doc)

let width_arg =
  let doc = "Datapath word width in bits." in
  Arg.(value & opt int 8 & info [ "width" ] ~doc)

let vectors_arg =
  let doc = "Random simulation vectors." in
  Arg.(value & opt int 100 & info [ "vectors" ] ~doc)

let estimator_arg =
  let doc = "Power estimator: sim (bit-parallel gate-level simulation), \
             static (simulation-free activity analysis) or both (simulate \
             and report the static estimate alongside)." in
  Arg.(value & opt string "sim" & info [ "estimator" ] ~doc)

let parse_estimator s =
  match Power.estimator_of_string s with
  | Some e -> e
  | None -> failwith ("unknown estimator: " ^ s ^ " (expected sim, static or both)")

let vhdl_arg =
  let doc = "Write the bound design as VHDL to $(docv)." in
  Arg.(value & opt (some string) None & info [ "vhdl" ] ~docv:"FILE" ~doc)

let blif_arg =
  let doc = "Write the elaborated gate netlist as BLIF to $(docv)." in
  Arg.(value & opt (some string) None & info [ "blif" ] ~docv:"FILE" ~doc)

let sa_table_arg =
  let doc = "Persist the precalculated SA table to $(docv) (reused if it \
             exists)." in
  Arg.(value & opt (some string) None & info [ "sa-table" ] ~docv:"FILE" ~doc)

let testbench_arg =
  let doc = "Write a self-checking VHDL testbench to $(docv) (requires \
             --vhdl for the matching design)." in
  Arg.(value & opt (some string) None & info [ "testbench" ] ~docv:"FILE" ~doc)

let port_assign_arg =
  let doc = "Apply the commutative port-assignment post-pass [2] to the \
             binding before evaluation." in
  Arg.(value & flag & info [ "port-assign" ] ~doc)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let prepare bench = Binder.prepare (Binder.Bench (Benchmarks.find bench, 0))

(* An SA table file holds one (width, K) library; binding with another
   would price every merge at the wrong width. *)
let load_sa_table path ~width ~k =
  let table = Sa_table.load path in
  if Sa_table.width table <> width || Sa_table.k table <> k then
    failwith
      (Printf.sprintf "SA table %s: header says width=%d k=%d, expected \
                       width=%d k=%d"
         path (Sa_table.width table) (Sa_table.k table) width k);
  table

let run_bind bench binder alpha width vectors estimator vhdl_out blif_out
    sa_path port_assign testbench_out verbose =
  setup_logs verbose;
  try
    let prepared = prepare bench in
    let binder = Binder.of_name ~alpha binder in
    (* --sa-table names one explicit file (the paper's workflow);
       otherwise HLP_SA_CACHE selects the versioned cache directory, and
       without either the table stays in-memory.  Only HLPower forces
       it. *)
    let sa_table =
      lazy
        (match sa_path with
        | Some path when Sys.file_exists path ->
            load_sa_table path ~width ~k:4
        | _ -> Sa_table.create_default ~width ~k:4 ())
    in
    let r = Binder.run ~sa_table binder prepared in
    Option.iter
      (fun (h : Hlpower.result) ->
        let sa_table = Lazy.force sa_table in
        (match sa_path with
        | Some path -> Sa_table.save sa_table path
        | None -> Sa_table.persist sa_table);
        Logs.info (fun m ->
            m "hlpower: %d iterations, %d promotions (SA table: %d hits, \
               %d misses, %d from disk)"
              h.iterations h.promoted (Sa_table.hits sa_table)
              (Sa_table.misses sa_table) (Sa_table.disk_hits sa_table)))
      r.hlpower;
    let binding =
      if port_assign then Hlp_core.Port_assign.optimize r.binding
      else r.binding
    in
    Binding.validate binding;
    Format.printf "binding: %a@." Binding.pp_summary binding;
    let config =
      { Flow.default_config with
        Flow.width; vectors; estimator = parse_estimator estimator }
    in
    let report =
      Flow.run ~config ~design:(bench ^ "-" ^ Binder.name binder) binding
    in
    Format.printf "%a@." Flow.pp_report report;
    (match vhdl_out with
    | Some path ->
        let dp = Datapath.build ~width binding in
        Vhdl.write_file dp ~name:bench path;
        Format.printf "wrote VHDL to %s@." path
    | None -> ());
    (match testbench_out with
    | Some path ->
        let dp = Datapath.build ~width binding in
        Vhdl.write_testbench dp ~name:bench ~vectors:(min vectors 50)
          ~seed:"tb" path;
        Format.printf "wrote testbench to %s@." path
    | None -> ());
    (match blif_out with
    | Some path ->
        let dp = Datapath.build ~width binding in
        let elab = Hlp_rtl.Elaborate.elaborate dp in
        Blif.output_file elab.Hlp_rtl.Elaborate.netlist path;
        Format.printf "wrote BLIF to %s@." path
    | None -> ());
    0
  with
  | (Failure msg | Invalid_argument msg) ->
      Format.eprintf "error: %s@." msg;
      1
  | Sa_table.Parse_error (line, msg) ->
      Format.eprintf "error: SA table %s: line %d: %s@."
        (Option.value ~default:"?" sa_path)
        line msg;
      1
  | Not_found ->
      Format.eprintf "error: unknown benchmark %s@." bench;
      1

let bind_cmd =
  let doc = "Bind a benchmark and run the full evaluation flow" in
  Cmd.v
    (Cmd.info "bind" ~doc)
    Term.(
      const run_bind $ bench_arg $ binder_arg $ alpha_arg $ width_arg
      $ vectors_arg $ estimator_arg $ vhdl_arg $ blif_arg $ sa_table_arg
      $ port_assign_arg $ testbench_arg $ verbose_arg)

(* --- lint command --- *)

let lint_bench_arg =
  let doc = "Lint a single design: a benchmark (chem, dir, honda, mcm, pr, \
             steam, wang) or a kernel (fir8, dct4, biquad, fig1).  Default: \
             all of them." in
  Arg.(value & opt (some string) None & info [ "b"; "bench" ] ~doc)

let lint_binder_arg =
  let doc = "Binding algorithm to lint: hlpower, lopass, or both." in
  Arg.(value & opt string "both" & info [ "binder" ] ~doc)

let json_arg =
  let doc = "Also write the diagnostics as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let run_lint bench binder width json_out catalog verbose =
  setup_logs verbose;
  if catalog then begin
    Printf.printf "%-5s %-7s %-9s %s\n" "code" "sever." "family" "synopsis";
    List.iter
      (fun (r : Hlp_lint.Lint.rule) ->
        Printf.printf "%-5s %-7s %-9s %s\n" r.Hlp_lint.Lint.r_code
          (match r.Hlp_lint.Lint.r_severity with
          | Hlp_lint.Diagnostic.Error -> "error"
          | Hlp_lint.Diagnostic.Warning -> "warning")
          r.Hlp_lint.Lint.r_family r.Hlp_lint.Lint.r_synopsis)
      Hlp_lint.Lint.catalog;
    0
  end
  else
  try
    let sa_table = lazy (Sa_table.create_default ~width ~k:4 ()) in
    let config = { Flow.default_config with Flow.width } in
    let results =
      List.map
        (fun (design, binding) ->
          (design, Hlp_lint.Lint.run_all ~config ~design (binding ())))
        (Hlp_lint.Lint.designs ?bench ~binder ~sa_table ())
    in
    List.iter (fun r -> Format.printf "%a" Hlp_lint.Lint.pp_report r) results;
    (match json_out with
    | Some path ->
        Json.to_file path (Hlp_lint.Lint.json_report results);
        Format.printf "wrote JSON to %s@." path
    | None -> ());
    let count sel =
      List.fold_left (fun n (_, ds) -> n + List.length (sel ds)) 0 results
    in
    let errors = count Hlp_lint.Diagnostic.errors in
    let warnings = count (fun ds -> ds) - errors in
    Format.printf "lint: %d designs checked, %d errors, %d warnings@."
      (List.length results) errors warnings;
    if errors > 0 then 1 else 0
  with
  | (Failure msg | Invalid_argument msg) ->
      Format.eprintf "error: %s@." msg;
      1
  | Not_found ->
      Format.eprintf "error: unknown design %s@."
        (Option.value ~default:"?" bench);
      1

let catalog_arg =
  let doc = "Print the rule catalog (code, severity, family, synopsis) and \
             exit." in
  Arg.(value & flag & info [ "catalog" ] ~doc)

let lint_cmd =
  let doc = "Statically check the binding, datapath, netlist, LUT cover and \
             activity profile of every design; report all violations" in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const run_lint $ lint_bench_arg $ lint_binder_arg $ width_arg
      $ json_arg $ catalog_arg $ verbose_arg)

(* --- compare command --- *)

let run_compare bench width vectors estimator verbose =
  setup_logs verbose;
  try
    let prepared = prepare bench in
    let sa_table = lazy (Sa_table.create_default ~width ~k:4 ()) in
    let bind binder = (Binder.run ~sa_table binder prepared).binding in
    let config =
      { Flow.default_config with
        Flow.width; vectors; estimator = parse_estimator estimator }
    in
    let report name binding =
      let r = Flow.run ~config ~design:name binding in
      Format.printf "%a@." Flow.pp_report r;
      r
    in
    let rl = report (bench ^ "-lopass") (bind Binder.Lopass) in
    let r1 =
      report (bench ^ "-hlpower-a1.0") (bind (Binder.Hlpower { alpha = 1.0 }))
    in
    let r5 =
      report (bench ^ "-hlpower-a0.5") (bind (Binder.Hlpower { alpha = 0.5 }))
    in
    let pc a b = Hlp_util.Stats.percent_change ~from:a ~to_:b in
    Format.printf
      "change vs LOPASS: alpha=1.0 power %+.1f%%, alpha=0.5 power %+.1f%%, \
       alpha=0.5 toggle %+.1f%%, alpha=0.5 LUTs %+.1f%%@."
      (pc rl.Flow.dynamic_power_mw r1.Flow.dynamic_power_mw)
      (pc rl.Flow.dynamic_power_mw r5.Flow.dynamic_power_mw)
      (pc rl.Flow.toggle_rate_mhz r5.Flow.toggle_rate_mhz)
      (pc (float_of_int rl.Flow.luts) (float_of_int r5.Flow.luts));
    0
  with
  | (Failure msg | Invalid_argument msg) ->
      Format.eprintf "error: %s@." msg;
      1
  | Not_found ->
      Format.eprintf "error: unknown benchmark %s@." bench;
      1

(* --- explore command --- *)

let sa_cache_arg =
  let doc = "Persistent SA-table cache directory (overrides \
             $(b,HLP_SA_CACHE))." in
  Arg.(value & opt (some string) None & info [ "sa-cache" ] ~docv:"DIR" ~doc)

let alphas_arg =
  let doc = "Comma-separated Eq. 4 alpha values to sweep (default 1.0,0.5)." in
  Arg.(value & opt (some (list float)) None & info [ "alphas" ] ~doc)

let run_explore bench width vectors sa_cache alphas verbose =
  setup_logs verbose;
  try
    let p = Benchmarks.find bench in
    let cdfg = Benchmarks.generate p in
    (match alphas with
    | Some [] -> failwith "--alphas needs at least one value"
    | Some l when List.exists (fun a -> a < 0. || a > 1.) l ->
        failwith "--alphas values must lie in [0, 1]"
    | _ -> ());
    let config =
      { Hlp_hls.Explore.default_config with
        Hlp_hls.Explore.vectors;
        alphas =
          Option.value ~default:Hlp_hls.Explore.default_config.alphas alphas
      }
    in
    let sa_table =
      match sa_cache with
      | Some dir -> Sa_table.create_persistent ~width ~k:4 ~dir ()
      | None -> Sa_table.create_default ~width ~k:4 ()
    in
    let points = Hlp_hls.Explore.sweep ~config ~sa_table cdfg in
    let front = Hlp_hls.Explore.pareto points in
    Format.printf "%d design points, %d on the Pareto frontier:@."
      (List.length points) (List.length front);
    List.iter
      (fun pt ->
        let starred = List.memq pt front in
        Format.printf "%s %a@." (if starred then "*" else " ")
          Hlp_hls.Explore.pp_point pt)
      points;
    0
  with
  | (Failure msg | Invalid_argument msg) ->
      Format.eprintf "error: %s@." msg;
      1
  | Not_found ->
      Format.eprintf "error: unknown benchmark %s@." bench;
      1

let explore_cmd =
  let doc = "Sweep allocations and alpha; report the Pareto frontier \
             (latency, power, LUTs)" in
  Cmd.v
    (Cmd.info "explore" ~doc)
    Term.(const run_explore $ bench_arg $ width_arg $ vectors_arg
          $ sa_cache_arg $ alphas_arg $ verbose_arg)

let compare_cmd =
  let doc = "Compare LOPASS vs HLPower (alpha = 1.0 and 0.5) on a benchmark" in
  Cmd.v
    (Cmd.info "compare" ~doc)
    Term.(const run_compare $ bench_arg $ width_arg $ vectors_arg
          $ estimator_arg $ verbose_arg)

(* --- serve command --- *)

module Server = Hlp_server.Server
module Protocol = Hlp_server.Protocol
module Client = Hlp_server.Client

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(value & opt string Server.default_config.Server.socket_path
       & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Also listen on 127.0.0.1:$(docv)." in
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

let workers_arg =
  let doc = "Worker domains executing requests (default: $(b,HLP_JOBS) or \
             the core count)." in
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)

let queue_arg =
  let doc = "Bounded request-queue capacity; beyond it requests are \
             refused with $(b,overloaded)." in
  Arg.(value & opt int Server.default_config.Server.queue_capacity
       & info [ "queue" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc = "Default per-request deadline in milliseconds for requests \
             that carry none." in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let max_frame_arg =
  let doc = "Per-frame byte cap (default 1 MiB)." in
  Arg.(value & opt int Protocol.default_max_frame
       & info [ "max-frame" ] ~docv:"BYTES" ~doc)

let metrics_port_arg =
  let doc = "Serve a Prometheus-text /metrics endpoint on 127.0.0.1:$(docv)." in
  Arg.(value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT" ~doc)

(* --- cluster head options --- *)

module Cluster_head = Hlp_cluster.Head

let head_arg =
  let doc = "Run as a cluster head instead of a worker: fan requests \
             out over the backend workers through a consistent-hash \
             ring keyed (width, k, library fingerprint)." in
  Arg.(value & flag & info [ "head" ] ~doc)

let backends_arg =
  let doc = "Comma-separated backend workers as $(b,name=addr), where \
             addr is a Unix socket path or host:port (head mode)." in
  Arg.(value & opt (some string) None
       & info [ "backends" ] ~docv:"SPEC" ~doc)

let spawn_workers_arg =
  let doc = "Head mode: spawn $(docv) local workers itself (sockets \
             under a private temp dir), SIGTERM-drain them on exit." in
  Arg.(value & opt (some int) None & info [ "spawn-workers" ] ~docv:"N" ~doc)

let ping_interval_arg =
  let doc = "Head mode: health-check ping interval in milliseconds." in
  Arg.(value & opt int Cluster_head.default_config.Cluster_head.ping_interval_ms
       & info [ "ping-interval-ms" ] ~docv:"MS" ~doc)

let parse_backends spec =
  List.map
    (fun part ->
      match String.index_opt part '=' with
      | Some i ->
          ( String.sub part 0 i,
            Client.addr_of_string
              (String.sub part (i + 1) (String.length part - i - 1)) )
      | None -> failwith ("--backends entry has no name=: " ^ part))
    (List.filter
       (fun s -> s <> "")
       (String.split_on_char ',' (String.trim spec)))

(* Spawn [n] worker daemons under [dir]; wait for each socket to
   accept.  Returns (name, addr) pairs plus the child pids.  When the
   head serves /metrics on port P, worker [i] gets [--metrics-port
   (P + 1 + i)] so the whole fleet stays scrapeable. *)
let spawn_workers ~dir ~n ~workers ~queue ~sa_cache ~metrics_port =
  let children = ref [] in
  let backends =
    List.init n (fun i ->
        let name = Printf.sprintf "w%d" i in
        let sock = Filename.concat dir (name ^ ".sock") in
        let args =
          [ Sys.executable_name; "serve"; "--socket"; sock;
            "--queue"; string_of_int queue ]
          @ (match workers with
            | Some w -> [ "--workers"; string_of_int w ]
            | None -> [])
          @ (match metrics_port with
            | Some p -> [ "--metrics-port"; string_of_int (p + 1 + i) ]
            | None -> [])
          @
          match sa_cache with
          | Some d -> [ "--sa-cache"; d ]
          | None -> []
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args)
            Unix.stdin Unix.stdout Unix.stderr
        in
        children := pid :: !children;
        (name, Client.Unix_path sock))
  in
  (* Wait (bounded) for every worker to accept. *)
  List.iter
    (fun (_, addr) ->
      let deadline = Unix.gettimeofday () +. 30. in
      let rec wait () =
        match Client.dial addr with
        | fd -> Unix.close fd
        | exception Unix.Unix_error _ ->
            if Unix.gettimeofday () > deadline then
              failwith ("worker did not come up: " ^ Client.addr_to_string addr)
            else begin
              Unix.sleepf 0.05;
              wait ()
            end
      in
      wait ())
    backends;
  (backends, List.rev !children)

let run_head ~socket ~tcp ~backends ~spawn ~workers ~queue ~sa_cache
    ~ping_interval ~metrics_port ~max_frame =
  let tmpdir = ref None in
  let backends, children =
    match (backends, spawn) with
    | Some spec, _ -> (parse_backends spec, [])
    | None, Some n when n > 0 ->
        let dir =
          let d =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "hlp-cluster-%d" (Unix.getpid ()))
          in
          (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          d
        in
        tmpdir := Some dir;
        spawn_workers ~dir ~n ~workers ~queue ~sa_cache ~metrics_port
    | None, _ ->
        failwith "--head needs --backends or --spawn-workers"
  in
  let config =
    {
      Cluster_head.default_config with
      Cluster_head.socket_path = socket;
      tcp_port = tcp;
      backends;
      ping_interval_ms = ping_interval;
      metrics_port;
      max_frame;
    }
  in
  (* Workers are already spawned, so from here on every exit path —
     including create/run raising (say, head socket EADDRINUSE) — must
     drain them (SIGTERM, then reap) and remove the temp socket dir. *)
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun pid ->
          try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
        children;
      List.iter
        (fun pid ->
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        children;
      match !tmpdir with
      | Some d -> (
          try
            Array.iter
              (fun f ->
                try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
              (Sys.readdir d);
            Unix.rmdir d
          with Sys_error _ | Unix.Unix_error _ -> ())
      | None -> ())
    (fun () ->
      let head = Cluster_head.create ~config () in
      Cluster_head.install_signal_handlers head;
      Cluster_head.run head);
  0

let run_serve socket tcp workers queue deadline max_frame sa_cache
    metrics_port head backends spawn ping_interval verbose =
  setup_logs verbose;
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Info);
  try
    if head then
      run_head ~socket ~tcp ~backends ~spawn ~workers ~queue ~sa_cache
        ~ping_interval ~metrics_port ~max_frame
    else begin
      let config =
        {
          Server.socket_path = socket;
          tcp_port = tcp;
          workers =
            Option.value ~default:Server.default_config.Server.workers workers;
          queue_capacity = queue;
          default_deadline_ms = deadline;
          max_frame;
          sa_cache_dir = sa_cache;
          metrics_port;
        }
      in
      let server = Server.create ~config () in
      Server.install_signal_handlers server;
      Server.run server;
      0
    end
  with
  | Failure msg ->
      Format.eprintf "error: %s@." msg;
      1
  | Unix.Unix_error (err, _, arg) ->
      Format.eprintf "error: cannot start daemon on %s: %s@."
        (if arg = "" then socket else arg)
        (Unix.error_message err);
      1

let serve_cmd =
  let doc = "Run the binding-as-a-service daemon (hlpowerd): newline-\
             delimited JSON over a Unix socket, bounded queue, deadlines, \
             graceful drain on SIGTERM. With --head, run the cluster \
             head fanning out over backend workers instead." in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ socket_arg $ tcp_arg $ workers_arg $ queue_arg
      $ deadline_arg $ max_frame_arg $ sa_cache_arg $ metrics_port_arg
      $ head_arg $ backends_arg $ spawn_workers_arg $ ping_interval_arg
      $ verbose_arg)

(* --- client command --- *)

let op_arg =
  let doc = "Operation: ping, bind, flow, explore, lint, stats or \
             session (an incremental-session demo: open, stream \
             $(b,--edits) one-op edits, close, report latencies)." in
  Arg.(value & pos 0 string "stats" & info [] ~docv:"OP" ~doc)

let edits_arg =
  let doc = "One-op edits the session demo streams before closing." in
  Arg.(value & opt int 20 & info [ "edits" ] ~docv:"N" ~doc)

(* Without --binder each op sends its protocol default. *)
let client_binder_arg =
  let doc = "Binding algorithm: hlpower or lopass, or for lint also both \
             (default: hlpower, and both for lint)." in
  Arg.(value & opt (some string) None & info [ "binder" ] ~doc)

let client_bench_arg =
  let doc = "Benchmark name (required for bind/flow/explore)." in
  Arg.(value & opt (some string) None & info [ "b"; "bench" ] ~doc)

let client_deadline_arg =
  let doc = "Per-request deadline in milliseconds." in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let ping_ms_arg =
  let doc = "Milliseconds a ping holds its worker slot." in
  Arg.(value & opt int 0 & info [ "ping-ms" ] ~docv:"MS" ~doc)

let raw_arg =
  let doc = "Send $(docv) verbatim as the request frame instead of \
             building one from the other options." in
  Arg.(value & opt (some string) None & info [ "raw" ] ~docv:"JSON" ~doc)

(* Incremental-session demo: open a session on the benchmark, stream
   one-op edits (alternating add and remove of the same op, so the
   daemon's memo layers get exercised), close, and report wall-clock
   per phase.  Exit 0 only if every reply was a result. *)
let run_session_demo c ~bench ~binder ~alpha ~width ~edits ~deadline_ms =
  let now () = Unix.gettimeofday () in
  let rid = ref 0 in
  let request op =
    incr rid;
    match Client.request c { Protocol.id = Json.Int !rid; deadline_ms; op } with
    | Ok { Protocol.payload = Protocol.Result { result; _ }; _ } -> Ok result
    | Ok { Protocol.payload = Protocol.Error { message; _ }; _ } ->
        Error message
    | Error msg -> Error msg
  in
  let t0 = now () in
  match
    request
      (Protocol.Session_open
         { Protocol.default_session_open_params with
           Protocol.so_bench = bench;
           so_binder = binder;
           so_alpha = alpha;
           so_width = width })
  with
  | Error msg ->
      Format.eprintf "session_open: %s@." msg;
      1
  | Ok j -> (
      let open_ms = 1000. *. (now () -. t0) in
      match Json.member "session" j with
      | Some (Json.String sid) -> (
          Printf.printf "session %s opened in %.2f ms\n" sid open_ms;
          let added_id =
            Cdfg.num_ops (Benchmarks.generate (Benchmarks.find bench))
          in
          let lat = Array.make (max 1 edits) 0. in
          let failed = ref None in
          (try
             for i = 0 to edits - 1 do
               let delta =
                 if i land 1 = 0 then
                   Protocol.D_add_op
                     { d_kind = Cdfg.Add;
                       d_left = Cdfg.Input 0;
                       d_right = Cdfg.Input 0;
                       d_output = true }
                 else Protocol.D_remove_op added_id
               in
               let t0 = now () in
               match
                 request
                   (Protocol.Session_edit
                      { Protocol.se_session = sid; se_delta = delta })
               with
               | Ok _ -> lat.(i) <- now () -. t0
               | Error msg ->
                   failed := Some msg;
                   raise Exit
             done
           with Exit -> ());
          match !failed with
          | Some msg ->
              Format.eprintf "session_edit: %s@." msg;
              1
          | None -> (
              Array.sort compare lat;
              let pct q =
                let n = Array.length lat in
                lat.(min (n - 1)
                       (int_of_float (ceil (q *. float_of_int n)) - 1))
              in
              if edits > 0 then
                Printf.printf
                  "%d one-op edits: p50 %.1f us, p99 %.1f us, max %.1f us\n"
                  edits
                  (1e6 *. pct 0.50)
                  (1e6 *. pct 0.99)
                  (1e6 *. lat.(Array.length lat - 1));
              match
                request (Protocol.Session_close { Protocol.sc_session = sid })
              with
              | Ok j ->
                  let int_of name =
                    match Json.member name j with
                    | Some (Json.Int n) -> n
                    | _ -> 0
                  in
                  Printf.printf
                    "closed: %d edits served, %d reply cache hits\n"
                    (int_of "edits") (int_of "reply_cache_hits");
                  0
              | Error msg ->
                  Format.eprintf "session_close: %s@." msg;
                  1))
      | _ ->
          Format.eprintf "session_open: reply has no session id@.";
          1)

let run_client socket tcp op bench binder alpha width vectors port_assign
    estimator alphas deadline_ms ping_ms raw edits verbose =
  setup_logs verbose;
  let need_bench () =
    match bench with
    | Some b -> b
    | None -> failwith (op ^ " needs --bench")
  in
  let binder default = Option.value binder ~default in
  try
    let c =
      match tcp with
      | Some port -> Client.connect_tcp ~host:"127.0.0.1" ~port ()
      | None -> Client.connect socket
    in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        if op = "session" && raw = None then
          run_session_demo c ~bench:(need_bench ())
            ~binder:(binder Protocol.default_session_open_params.so_binder)
            ~alpha ~width ~edits ~deadline_ms
        else
        let reply =
          match raw with
          | Some line ->
              Client.send_raw c line;
              Client.recv c
          | None ->
              let bind_params () =
                ignore (parse_estimator estimator);
                { Protocol.default_bind_params with
                  Protocol.bench = need_bench ();
                  binder = binder Protocol.default_bind_params.binder;
                  alpha; width; vectors; port_assign; estimator }
              in
              let op =
                match op with
                | "ping" -> Protocol.Ping ping_ms
                | "bind" -> Protocol.Bind (bind_params ())
                | "flow" -> Protocol.Flow (bind_params ())
                | "explore" ->
                    Protocol.Explore
                      { Protocol.default_explore_params with
                        Protocol.ex_bench = need_bench ();
                        ex_width = width;
                        ex_vectors = vectors;
                        ex_alphas =
                          Option.value
                            ~default:
                              Protocol.default_explore_params.Protocol.ex_alphas
                            alphas }
                | "lint" ->
                    Protocol.Lint
                      { Protocol.lint_bench = bench;
                        lint_binder =
                          binder Protocol.default_lint_params.lint_binder;
                        lint_width = width }
                | "stats" -> Protocol.Stats
                | "cluster_stats" -> Protocol.Cluster_stats
                | other -> failwith ("unknown op: " ^ other)
              in
              (* Every op built here is an idempotent query, so the
                 client survives a daemon restart mid-conversation;
                 the session demo above sticks to plain [request]. *)
              Client.request_retry c
                { Protocol.id = Json.Int 1; deadline_ms; op }
        in
        match reply with
        | Ok r ->
            print_endline (Protocol.encode_reply r);
            (match r.Protocol.payload with
            | Protocol.Result _ -> 0
            | Protocol.Error _ -> 1)
        | Error msg ->
            Format.eprintf "error: %s@." msg;
            2)
  with
  | Failure msg | Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      2
  | Unix.Unix_error (err, _, _) ->
      Format.eprintf "error: cannot reach daemon at %s: %s@."
        (match tcp with
        | Some port -> Printf.sprintf "127.0.0.1:%d" port
        | None -> socket)
        (Unix.error_message err);
      2

let client_cmd =
  let doc = "Send one request to a running hlpowerd and print the reply \
             frame (exit 0 on ok, 1 on an error reply, 2 on transport \
             failure)" in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(
      const run_client $ socket_arg $ tcp_arg $ op_arg $ client_bench_arg
      $ client_binder_arg $ alpha_arg $ width_arg $ vectors_arg
      $ port_assign_arg $ estimator_arg $ alphas_arg $ client_deadline_arg
      $ ping_ms_arg $ raw_arg $ edits_arg $ verbose_arg)

let main_cmd =
  let doc = "FPGA-targeted glitch-aware high-level binding (HLPower)" in
  Cmd.group
    (Cmd.info "hlpower" ~version:"1.0.0" ~doc)
    [ list_cmd; bind_cmd; lint_cmd; compare_cmd; explore_cmd; serve_cmd;
      client_cmd ]

let () =
  let code = Cmd.eval' main_cmd in
  (* Honour HLP_TELEMETRY=path.json for every subcommand. *)
  Hlp_util.Telemetry.write_if_requested ();
  exit code
