(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (§6), plus the ablations called out in DESIGN.md,
   and gates the static estimator: the run exits 1 if a static row's
   toggle error leaves its bound or the static sweep is under its
   speedup floor over the simulated one.

   Environment knobs:
     HLP_VECTORS  random simulation vectors per design (default 150;
                  the paper uses 1000 — set HLP_VECTORS=1000 to match)
     HLP_WIDTH    datapath word width in bits (default 16)
     HLP_VARIANTS generated instances per benchmark profile, averaged
                  in Table 3 and Figure 3 (default 2)
     HLP_FAST     if set, restrict the flow tables to the four smaller
                  benchmarks (pr, wang, honda, mcm)
     HLP_JOBS     worker domains for the per-design loops (default:
                  all cores; 1 = sequential).  Every metric printed is
                  bit-identical whatever the value — only wall-clock
                  columns vary.
     HLP_STABLE   if set, zero the non-deterministic output (wall clock
                  columns) so two runs can be diffed byte-for-byte
     HLP_SA_CACHE=dir  persistent SA-table cache directory: the table is
                  loaded from dir on startup (validated, falling back to
                  recompute) and written back atomically on exit, so a
                  warm run performs zero mapper invocations for table
                  fill
     HLP_BENCH_JSON=path.json  write the machine-readable benchmark
                  report (per-design Sec. 6 metrics, bind times,
                  SA-table hit rates, phase timings) on exit
     HLP_TELEMETRY=path.json  dump counters/timers on exit

   Load on a running daemon comes from elsewhere: perf/ is the measured
   benchmark, `hlpower_cli client` sends binds and session edit streams,
   and fuzz/hlp_fuzz.exe is the fault soak. *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module B = Hlp_cdfg.Benchmarks
module RB = Hlp_core.Reg_binding
module Bind = Hlp_core.Binding
module H = Hlp_core.Hlpower
module L = Hlp_core.Lopass
module ST = Hlp_core.Sa_table
module Flow = Hlp_rtl.Flow
module Stats = Hlp_util.Stats
module Pool = Hlp_util.Pool
module Telemetry = Hlp_util.Telemetry
module Json = Hlp_util.Json

let vectors =
  match Sys.getenv_opt "HLP_VECTORS" with
  | Some s -> int_of_string s
  | None -> 150

let width =
  match Sys.getenv_opt "HLP_WIDTH" with
  | Some s -> int_of_string s
  | None -> 16

let fast = Sys.getenv_opt "HLP_FAST" <> None
let stable = Sys.getenv_opt "HLP_STABLE" <> None

let variants =
  match Sys.getenv_opt "HLP_VARIANTS" with
  | Some s -> max 1 (int_of_string s)
  | None -> 2

let flow_profiles =
  if fast then List.map B.find [ "pr"; "wang"; "honda"; "mcm" ] else B.all

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Shared per-benchmark preparation, with wall-clock binding times. *)
type prepared = {
  profile : B.profile;
  schedule : Schedule.t;
  regs : RB.t;
  lopass : Bind.t;
  hlp_a1 : Bind.t;
  hlp_a05 : Bind.t;
  hlp_seconds : float;
  iterations : int;
}

(* Honours HLP_SA_CACHE: entries are pure functions of (width, k, key),
   so a warm cache directory lets every run after the first skip the
   table-fill mapper invocations entirely. *)
let sa_table = ST.create_default ~width ~k:4 ()

let now () = Unix.gettimeofday ()

(* Wall-clock columns are real measurements unless HLP_STABLE asks for
   byte-stable output (e.g. the CI determinism diff). *)
let shown_seconds s = if stable then 0. else s

let prepare ?(variant = 0) profile =
  let cdfg = B.generate ~variant profile in
  let resources = B.resources profile in
  let schedule = Schedule.list_schedule cdfg ~resources in
  let regs = RB.bind (Lifetime.analyze schedule) in
  let min_res cls = max 1 (Schedule.max_density schedule cls) in
  let lopass = L.bind ~regs ~resources schedule in
  let run_hlp alpha =
    let params = H.calibrate ~alpha sa_table in
    H.bind ~params ~sa_table ~regs ~resources:min_res schedule
  in
  let t0 = now () in
  let r05 = run_hlp 0.5 in
  let hlp_seconds = now () -. t0 in
  let r1 = run_hlp 1.0 in
  {
    profile;
    schedule;
    regs;
    lopass;
    hlp_a1 = r1.H.binding;
    hlp_a05 = r05.H.binding;
    hlp_seconds;
    iterations = r05.H.iterations;
  }

let prepared = lazy (Pool.parallel_map_list prepare B.all)

let find_prepared name =
  List.find (fun p -> p.profile.B.bench_name = name) (Lazy.force prepared)

(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: Benchmark Profiles";
  Printf.printf "%-8s %5s %5s %6s %6s %11s %12s\n" "bench" "PIs" "POs"
    "adds" "mults" "edges(ours)" "edges(paper)";
  List.iter
    (fun p ->
      let g = B.generate p in
      Printf.printf "%-8s %5d %5d %6d %6d %11d %12d\n" p.B.bench_name
        (Cdfg.num_inputs g)
        (List.length (Cdfg.outputs g))
        (Cdfg.num_ops_of_class g Cdfg.Add_sub)
        (Cdfg.num_ops_of_class g Cdfg.Multiplier)
        (Cdfg.edge_count g) p.B.paper_edges)
    B.all

let table2 () =
  section "Table 2: Resource Constraints, Schedule Length, Registers, Runtime";
  Printf.printf "%-8s %4s %5s | %11s %12s | %10s %11s | %12s %6s\n" "bench"
    "Add" "Mult" "cycle(ours)" "cycle(paper)" "reg(ours)" "reg(paper)"
    "bind(s,ours)" "iters";
  List.iter
    (fun pr ->
      let p = pr.profile in
      Printf.printf "%-8s %4d %5d | %11d %12d | %10d %11d | %12.3f %6d\n"
        p.B.bench_name p.B.add_units p.B.mult_units
        pr.schedule.Schedule.num_csteps p.B.paper_cycles
        (RB.num_regs pr.regs) p.B.paper_regs
        (shown_seconds pr.hlp_seconds)
        pr.iterations)
    (Lazy.force prepared)

(* Full-flow reports, shared by Table 3 and Figure 3.  Each benchmark is
   evaluated on [variants] generated instances of its profile and the
   reports are averaged: individual instances carry a few percent of
   structural noise, the trends do not. *)
type avg_report = {
  power_mw : float;
  clk_ns : float;
  luts : float;
  largest : float;
  mux_len : float;
  toggle : float;
}

type flow_row = { bench : string; lop : avg_report; a1 : avg_report;
                  a05 : avg_report }

let average reports =
  let n = float_of_int (List.length reports) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. reports /. n in
  {
    power_mw = sum (fun r -> r.Flow.dynamic_power_mw);
    clk_ns = sum (fun r -> r.Flow.clock_period_ns);
    luts = sum (fun r -> float_of_int r.Flow.luts);
    largest = sum (fun r -> float_of_int r.Flow.largest_mux);
    mux_len = sum (fun r -> float_of_int r.Flow.mux_length);
    toggle = sum (fun r -> r.Flow.toggle_rate_mhz);
  }

let flow_rows =
  lazy
    (let config = { Flow.default_config with Flow.vectors; width } in
     (* Flatten the (benchmark x variant) grid so the pool keeps every
        worker busy even when benchmark sizes are uneven; regroup by
        benchmark afterwards.  parallel_map returns results in task
        order, so the averages see the variants in the same order as the
        old sequential loop. *)
     let tasks =
       List.concat_map
         (fun (p : B.profile) ->
           List.init variants (fun variant -> (p, variant)))
         flow_profiles
     in
     let runs =
       Pool.parallel_map_list
         (fun ((p : B.profile), variant) ->
           Printf.eprintf "[flow] %s variant %d...\n%!" p.B.bench_name
             variant;
           let pr = prepare ~variant p in
           let run tag b = Flow.run ~config ~design:(p.B.bench_name ^ tag) b in
           ( p.B.bench_name,
             ( run "-lopass" pr.lopass,
               run "-hlp-a1" pr.hlp_a1,
               run "-hlp-a05" pr.hlp_a05 ) ))
         tasks
     in
     List.map
       (fun (p : B.profile) ->
         let mine =
           List.filter_map
             (fun (name, r) -> if name = p.B.bench_name then Some r else None)
             runs
         in
         {
           bench = p.B.bench_name;
           lop = average (List.map (fun (a, _, _) -> a) mine);
           a1 = average (List.map (fun (_, b, _) -> b) mine);
           a05 = average (List.map (fun (_, _, c) -> c) mine);
         })
       flow_profiles)

let pc a b = Stats.percent_change ~from:a ~to_:b

let table3 () =
  section
    (Printf.sprintf
       "Table 3: Power, Clock Period, LUTs and Multiplexers (LOPASS vs \
        HLPower alpha=0.5; %d-bit, %d vectors, %d instances/benchmark)"
       width vectors variants);
  Printf.printf "%-8s | %17s | %13s | %13s | %9s | %11s | %7s %7s %7s\n"
    "bench" "dyn power (mW)" "clk (ns)" "LUTs" "lrgstMUX" "MUX length"
    "dPow%" "dClk%" "dLUT%";
  let dps = ref [] and dclks = ref [] and dluts = ref [] in
  let dmux = ref [] and dlen = ref [] in
  List.iter
    (fun r ->
      let l = r.lop and h = r.a05 in
      let dp = pc l.power_mw h.power_mw in
      let dc = pc l.clk_ns h.clk_ns in
      let dl = pc l.luts h.luts in
      dps := dp :: !dps;
      dclks := dc :: !dclks;
      dluts := dl :: !dluts;
      dmux := (h.largest -. l.largest) :: !dmux;
      dlen := pc l.mux_len h.mux_len :: !dlen;
      Printf.printf
        "%-8s | %8.2f/%8.2f | %6.2f/%6.2f | %6.0f/%6.0f | %4.1f/%4.1f | \
         %5.0f/%5.0f | %+7.2f %+7.2f %+7.2f\n"
        r.bench l.power_mw h.power_mw l.clk_ns h.clk_ns l.luts h.luts
        l.largest h.largest l.mux_len h.mux_len dp dc dl)
    (Lazy.force flow_rows);
  Printf.printf
    "Average change: power %+.2f%%, clock %+.2f%%, LUTs %+.2f%%, largest \
     mux %+.1f, mux length %+.1f%%\n"
    (Stats.mean !dps) (Stats.mean !dclks) (Stats.mean !dluts)
    (Stats.mean !dmux) (Stats.mean !dlen);
  Printf.printf
    "Paper reports (avg): power -19.28%%, clock +0.58%%, LUTs -9.11%%, \
     largest mux -2.6, mux length -7.2%%\n"

let table4 () =
  section "Table 4: muxDiff mean/variance across allocated resources";
  Printf.printf "%-8s | %-13s | %-13s | %-13s | %7s\n" "bench" "LOPASS"
    "HLP alpha=1" "HLP alpha=0.5" "# muxes";
  let ml = ref [] and m1 = ref [] and m05 = ref [] in
  let vl = ref [] and v1 = ref [] and v05 = ref [] in
  List.iter
    (fun pr ->
      let st b = Bind.mux_stats b in
      let sl = st pr.lopass and s1 = st pr.hlp_a1 and s5 = st pr.hlp_a05 in
      ml := sl.Bind.fu_mux_diff_mean :: !ml;
      m1 := s1.Bind.fu_mux_diff_mean :: !m1;
      m05 := s5.Bind.fu_mux_diff_mean :: !m05;
      vl := sl.Bind.fu_mux_diff_var :: !vl;
      v1 := s1.Bind.fu_mux_diff_var :: !v1;
      v05 := s5.Bind.fu_mux_diff_var :: !v05;
      Printf.printf
        "%-8s | %5.2f / %5.2f | %5.2f / %5.2f | %5.2f / %5.2f | %7d\n"
        pr.profile.B.bench_name sl.Bind.fu_mux_diff_mean
        sl.Bind.fu_mux_diff_var s1.Bind.fu_mux_diff_mean
        s1.Bind.fu_mux_diff_var s5.Bind.fu_mux_diff_mean
        s5.Bind.fu_mux_diff_var s5.Bind.num_fu)
    (Lazy.force prepared);
  Printf.printf "%-8s | %5.2f / %5.2f | %5.2f / %5.2f | %5.2f / %5.2f |\n"
    "average" (Stats.mean !ml) (Stats.mean !vl) (Stats.mean !m1)
    (Stats.mean !v1) (Stats.mean !m05) (Stats.mean !v05);
  Printf.printf
    "Paper reports (avg): LOPASS 3.9/13.8, alpha=1 3.2/8.3, alpha=0.5 \
     2.6/6.2\n"

let figure3 () =
  section "Figure 3: Average Toggle Rate (millions of transitions / sec)";
  Printf.printf "%-8s %10s %12s %14s %9s\n" "bench" "LOPASS" "HLP a=1.0"
    "HLP a=0.5" "d(a=0.5)";
  let bar v = String.make (max 1 (int_of_float (Float.min 40. (v *. 2.)))) '#' in
  let deltas1 = ref [] and deltas05 = ref [] in
  List.iter
    (fun r ->
      let tl = r.lop.toggle in
      let t1 = r.a1.toggle in
      let t05 = r.a05.toggle in
      deltas1 := pc tl t1 :: !deltas1;
      deltas05 := pc tl t05 :: !deltas05;
      Printf.printf "%-8s %10.2f %12.2f %14.2f %+8.2f%%\n" r.bench tl t1 t05
        (pc tl t05);
      Printf.printf "  LOPASS  %s\n  a=1.0   %s\n  a=0.5   %s\n" (bar tl)
        (bar t1) (bar t05))
    (Lazy.force flow_rows);
  Printf.printf
    "Average toggle-rate change vs LOPASS: alpha=1.0 %+.2f%%, alpha=0.5 \
     %+.2f%%\n"
    (Stats.mean !deltas1) (Stats.mean !deltas05);
  Printf.printf "Paper reports (avg): alpha=1.0 -8.4%%, alpha=0.5 -21.9%%\n"

let alpha_sweep () =
  section "Alpha sweep (sec. 6.2 discussion): wang, alpha in {1 .. 0}";
  let pr = find_prepared "wang" in
  let min_res cls = max 1 (Schedule.max_density pr.schedule cls) in
  Printf.printf "%-6s %12s %10s %8s %10s %12s\n" "alpha" "muxDiff" "muxLen"
    "LUTs" "toggleM/s" "power(mW)";
  List.iter
    (fun alpha ->
      let params = H.calibrate ~alpha sa_table in
      let b =
        (H.bind ~params ~sa_table ~regs:pr.regs ~resources:min_res
           pr.schedule)
          .H.binding
      in
      let s = Bind.mux_stats b in
      let config =
        { Flow.default_config with Flow.vectors = min vectors 100; width }
      in
      let r = Flow.run ~config ~design:"wang-sweep" b in
      Printf.printf "%-6.2f %12.2f %10d %8d %10.2f %12.2f\n" alpha
        s.Bind.fu_mux_diff_mean s.Bind.mux_length r.Flow.luts
        r.Flow.toggle_rate_mhz r.Flow.dynamic_power_mw)
    [ 1.0; 0.75; 0.5; 0.25; 0.0 ]

let ablation_k () =
  section "Ablation: LUT size K (mapper substrate, partial datapath cells)";
  Printf.printf "%-18s %6s %8s %8s %8s\n" "cell" "K" "LUTs" "depth" "est SA";
  List.iter
    (fun (cls, l, r) ->
      List.iter
        (fun k ->
          let net =
            Hlp_netlist.Cell_library.partial_datapath
              ~fu:
                (match cls with
                | Cdfg.Add_sub -> Hlp_netlist.Cell_library.Adder
                | Cdfg.Multiplier -> Hlp_netlist.Cell_library.Multiplier)
              ~width ~left_inputs:l ~right_inputs:r ()
          in
          let m = Hlp_mapper.Mapper.map net ~k in
          Printf.printf "%-18s %6d %8d %8d %8.1f\n"
            (Printf.sprintf "%s(%d,%d)" (Cdfg.class_to_string cls) l r)
            k m.Hlp_mapper.Mapper.lut_count m.Hlp_mapper.Mapper.depth
            m.Hlp_mapper.Mapper.total_sa)
        [ 4; 6 ])
    [ (Cdfg.Add_sub, 4, 4); (Cdfg.Multiplier, 3, 2) ]

let ablation_table_vs_dynamic () =
  section "Ablation: precalculated SA table vs dynamic estimation (sec 5.2.2)";
  (* The paper notes table-driven lookup gives the same bindings as dynamic
     estimation, only faster.  Our Sa_table computes lazily with
     memoization, so "dynamic" = a fresh, cold table; bindings must
     coincide and the warm run must be faster. *)
  let pr = find_prepared "pr" in
  let min_res cls = max 1 (Schedule.max_density pr.schedule cls) in
  let bind_with table =
    let params = H.calibrate ~alpha:0.5 table in
    (H.bind ~params ~sa_table:table ~regs:pr.regs ~resources:min_res
       pr.schedule)
      .H.binding
  in
  let fresh = ST.create ~width ~k:4 () in
  let t0 = now () in
  let b_dynamic = bind_with fresh in
  let t_dynamic = now () -. t0 in
  let t1 = now () in
  let b_cached = bind_with sa_table (* warm *) in
  let t_cached = now () -. t1 in
  let groups b =
    List.map (fun f -> (f.Bind.fu_class, f.Bind.fu_ops)) b.Bind.fus
  in
  Printf.printf "identical bindings: %b\n"
    (List.sort compare (groups b_dynamic)
    = List.sort compare (groups b_cached));
  Printf.printf "cold (dynamic) %.3f s vs warm (table) %.3f s\n"
    (shown_seconds t_dynamic) (shown_seconds t_cached)

let ablation_objective () =
  section "Ablation: glitch-aware (Min_sa) vs conventional (Min_depth) \
           mapping";
  let pr = find_prepared "pr" in
  let base =
    { Flow.default_config with Flow.vectors = min vectors 100; width }
  in
  List.iter
    (fun (label, objective) ->
      let config = { base with Flow.objective } in
      let r = Flow.run ~config ~design:("pr-" ^ label) pr.hlp_a05 in
      Printf.printf
        "%-10s LUTs %5d depth %3d est SA %9.1f toggle %.2f M/s power %.2f \
         mW\n"
        label r.Flow.luts r.Flow.depth r.Flow.est_total_sa
        r.Flow.toggle_rate_mhz r.Flow.dynamic_power_mw)
    [
      ("min-sa", Hlp_mapper.Mapper.Min_sa);
      ("min-depth", Hlp_mapper.Mapper.Min_depth);
    ]

let ablation_multicycle () =
  section
    "Ablation: multi-cycle multiplier (sec 5.2.1, no Theorem-1 guarantee)";
  let latency = function Cdfg.Mult -> 2 | Cdfg.Add | Cdfg.Sub -> 1 in
  let p = B.find "pr" in
  let g = B.generate p in
  let resources = B.resources p in
  let schedule = Schedule.list_schedule ~latency g ~resources in
  let regs = RB.bind (Lifetime.analyze schedule) in
  match
    H.bind
      ~params:(H.calibrate ~alpha:0.5 sa_table)
      ~sa_table ~regs ~resources schedule
  with
  | r ->
      Printf.printf
        "pr with 2-cycle multiplier: schedule %d steps (vs %d \
         single-cycle), %d add-FU + %d mult-FU, %d promotions, valid: %b\n"
        schedule.Schedule.num_csteps
        (find_prepared "pr").schedule.Schedule.num_csteps
        (Bind.num_fus r.H.binding Cdfg.Add_sub)
        (Bind.num_fus r.H.binding Cdfg.Multiplier)
        r.H.promoted
        (try
           Bind.validate r.H.binding;
           true
         with Failure _ -> false)
  | exception Failure msg ->
      (* The paper makes no guarantee here (sec 5.2.1); report and move
         on. *)
      Printf.printf "pr with 2-cycle multiplier: binding failed (%s)\n" msg

let ablation_module_select () =
  section
    "Ablation: module selection (sec 7 future work): ripple vs \
     carry-select adders";
  (* Flow always elaborates ripple adders; here the datapath is built with
     the selected implementations and pushed through mapping + simulation
     directly. *)
  let pr = find_prepared "pr" in
  let evaluate tag impls =
    let dp = Hlp_rtl.Datapath.build ?adder_impls:impls ~width pr.hlp_a05 in
    let elab = Hlp_rtl.Elaborate.elaborate dp in
    let mapping = Hlp_mapper.Mapper.map elab.Hlp_rtl.Elaborate.netlist ~k:4 in
    let sim_config =
      { Hlp_rtl.Sim.default_config with Hlp_rtl.Sim.vectors = min vectors 100; seed = "ms" }
    in
    let sim =
      Hlp_rtl.Sim.run ~config:sim_config elab
        ~network:mapping.Hlp_mapper.Mapper.lut_network
    in
    let power =
      Hlp_rtl.Power.analyze Hlp_rtl.Power.default_model
        ~network:mapping.Hlp_mapper.Mapper.lut_network ~sim
    in
    Printf.printf
      "%-22s LUTs %5d, depth %3d, clk %6.2f ns, power %6.3f mW\n" tag
      mapping.Hlp_mapper.Mapper.lut_count mapping.Hlp_mapper.Mapper.depth
      power.Hlp_rtl.Power.clock_period_ns power.Hlp_rtl.Power.dynamic_power_mw
  in
  evaluate "pr all-ripple" None;
  let impls =
    Hlp_core.Module_select.choose ~width ~k:4
      ~objective:Hlp_core.Module_select.Min_delay pr.hlp_a05
  in
  evaluate "pr min-delay selection" (Some impls)

let ablation_port_assign () =
  section
    "Ablation: commutative port assignment [2] post-pass (both binders)";
  let config =
    { Flow.default_config with Flow.vectors = min vectors 100; width }
  in
  List.iter
    (fun name ->
      let pr = find_prepared name in
      List.iter
        (fun (tag, b) ->
          let show label b =
            let s = Bind.mux_stats b in
            let r = Flow.run ~config ~design:(name ^ "-" ^ label) b in
            Printf.printf
              "%-6s %-18s mux length %4d, muxDiff %.2f, toggle %6.2f \
               M/s, power %.3f mW\n"
              name label s.Bind.mux_length s.Bind.fu_mux_diff_mean
              r.Flow.toggle_rate_mhz r.Flow.dynamic_power_mw
          in
          show tag b;
          show (tag ^ "+portassign")
            (Hlp_core.Port_assign.optimize
               ~objective:Hlp_core.Port_assign.Min_inputs b))
        [ ("lopass", pr.lopass); ("hlpower", pr.hlp_a05) ])
    [ "pr"; "mcm" ]

(* ------------------------------------------------------------------ *)
(* Static estimator vs bit-parallel simulation: the analyzer visits each
   LUT once, the simulator executes the schedule per vector, so the
   analyzer's accuracy has to be bought at a fraction of the cost to be
   worth anything.  Per Sec. 6 benchmark (hlpower alpha=0.5 binding),
   both estimators run on the same mapped network against the flow's
   own baseline — [Sim.run] at the paper's 1000-vector count, the sweep
   a `Sim bind actually pays for — and the rows are self-checking: the
   relative toggle error must stay inside [static_error_bound] on every
   benchmark, and the whole static sweep must be at least
   [static_speedup_floor]x faster than the whole simulated sweep.  (The
   speedup floor is asserted on the aggregate sweep, not per row: the
   smallest benchmarks finish in a couple of milliseconds, where timer
   noise swamps a per-row ratio; per-row speedups are still reported.) *)

let static_error_bound = 0.15
let static_speedup_floor = 100.

type static_row = {
  st_bench : string;
  st_cycles : int;
  st_sim_toggles : int;
  st_static_toggles : float;
  st_rel_error : float;
  st_sim_s : float;
  st_static_s : float;
}

(* Sequential on purpose: these rows are wall-clock measurements, and
   [Pool]'s threads would interleave under the runtime lock and charge
   one row's sim time to another row's clock. *)
let static_estimator_rows =
  lazy
    (List.map
       (fun pr ->
         let dp = Hlp_rtl.Datapath.build ~width pr.hlp_a05 in
         let elab = Hlp_rtl.Elaborate.elaborate dp in
         let mapping =
           Hlp_mapper.Mapper.map elab.Hlp_rtl.Elaborate.netlist ~k:4
         in
         let network = mapping.Hlp_mapper.Mapper.lut_network in
         let config =
           { Hlp_rtl.Sim.default_config with Hlp_rtl.Sim.check = false }
         in
         let t0 = now () in
         let sim = Hlp_rtl.Sim.run ~config elab ~network in
         let sim_s = now () -. t0 in
         (* The static pass is milliseconds; average a burst of reps so
            the row isn't one timer sample. *)
         let reps = 20 in
         ignore (Hlp_rtl.Static_model.analyze elab ~network);
         let t1 = now () in
         for _ = 2 to reps do
           ignore (Hlp_rtl.Static_model.analyze elab ~network)
         done;
         let an = Hlp_rtl.Static_model.analyze elab ~network in
         let static_s = (now () -. t1) /. float_of_int reps in
         let cycles = sim.Hlp_rtl.Sim.cycles in
         let static_toggles =
           Hlp_static.Analysis.total_toggles an *. float_of_int cycles
         in
         let sim_toggles = sim.Hlp_rtl.Sim.total_toggles in
         {
           st_bench = pr.profile.B.bench_name;
           st_cycles = cycles;
           st_sim_toggles = sim_toggles;
           st_static_toggles = static_toggles;
           st_rel_error =
             (static_toggles -. float_of_int sim_toggles)
             /. float_of_int sim_toggles;
           st_sim_s = sim_s;
           st_static_s = static_s;
         })
       (Lazy.force prepared))

let static_speedup r =
  if stable || r.st_static_s <= 0. then 0. else r.st_sim_s /. r.st_static_s

let static_sweep_speedup rows =
  let sim = List.fold_left (fun a r -> a +. r.st_sim_s) 0. rows in
  let st = List.fold_left (fun a r -> a +. r.st_static_s) 0. rows in
  if stable || st <= 0. then 0. else sim /. st

let static_estimator () =
  section
    (Printf.sprintf
       "Static estimator: simulation-free toggle estimate vs bit-parallel \
        sweep (%d vectors, gain %.3f)"
       Hlp_rtl.Sim.default_config.Hlp_rtl.Sim.vectors
       Hlp_static.Analysis.default_glitch_gain);
  Printf.printf "%-8s %10s %12s %12s %8s %10s %10s %8s\n" "bench" "cycles"
    "sim toggles" "static est" "err%" "sim (s)" "static (s)" "speedup";
  let failed = ref false in
  let rows = Lazy.force static_estimator_rows in
  List.iter
    (fun r ->
      Printf.printf "%-8s %10d %12d %12.0f %+7.2f %10.4f %10.6f %7.0fx\n"
        r.st_bench r.st_cycles r.st_sim_toggles r.st_static_toggles
        (100. *. r.st_rel_error) (shown_seconds r.st_sim_s)
        (shown_seconds r.st_static_s) (static_speedup r);
      if Float.abs r.st_rel_error > static_error_bound then begin
        Printf.eprintf "[static] %s: |%.1f%%| error exceeds the %.0f%% bound\n%!"
          r.st_bench (100. *. r.st_rel_error) (100. *. static_error_bound);
        failed := true
      end)
    rows;
  let sweep = static_sweep_speedup rows in
  Printf.printf "%-8s %66s %7.0fx\n" "sweep" "" sweep;
  if (not stable) && sweep < static_speedup_floor then begin
    Printf.eprintf "[static] sweep: %.0fx speedup under the %.0fx floor\n%!"
      sweep static_speedup_floor;
    failed := true
  end;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Machine-readable benchmark report (HLP_BENCH_JSON=path).  Json prints
   floats with %.17g, so a warm-cache run prints equal to a cold one iff
   its Sec. 6 metrics are bit-identical; wall-clock fields go through
   shown_seconds, so HLP_STABLE zeroes them. *)

let bench_json ~total_seconds : Json.t =
  let f x = Json.Float x and i n = Json.Int n and s x = Json.String x in
  let t x = Json.Float (shown_seconds x) in
  let list g l = Json.List (List.map g l) in
  let rows = Lazy.force flow_rows in
  let mean g = f (Stats.mean (List.map g rows)) in
  let static_rows = Lazy.force static_estimator_rows in
  (* The first fingerprint maps two netlists: take it before the phase
     timers, which then count those map calls too. *)
  let fingerprint = ST.fingerprint () in
  let phases = Telemetry.timers () in
  Json.Obj
    [
      ("schema", s "hlp-bench-v1");
      ( "meta",
        Json.Obj
          [ ("width", i width); ("vectors", i vectors);
            ("variants", i variants); ("fast", Json.Bool fast);
            ("stable", Json.Bool stable); ("jobs", i (Pool.jobs ()));
            ( "sa_cache",
              Option.fold ~none:Json.Null ~some:s (ST.cache_file sa_table) );
            ("lib_fingerprint", s fingerprint) ] );
      (* Sec. 6 metrics: one entry per (benchmark, binder), averaged
         over the generated variants exactly as Tables 3 / Figure 3
         print them. *)
      ( "designs",
        Json.List
          (List.concat_map
             (fun r ->
               List.map
                 (fun (binder, (a : avg_report)) ->
                   Json.Obj
                     [ ("bench", s r.bench); ("binder", s binder);
                       ("power_mw", f a.power_mw); ("clock_ns", f a.clk_ns);
                       ("luts", f a.luts); ("largest_mux", f a.largest);
                       ("mux_length", f a.mux_len);
                       ("toggle_mhz", f a.toggle) ])
                 [ ("lopass", r.lop); ("hlp-a1.0", r.a1); ("hlp-a0.5", r.a05) ])
             rows) );
      (* Binder work per benchmark: wall clock (zeroed under
         HLP_STABLE) and the deterministic iteration count. *)
      ( "bind",
        list
          (fun pr ->
            Json.Obj
              [ ("bench", s pr.profile.B.bench_name);
                ("hlp_seconds", t pr.hlp_seconds);
                ("iterations", i pr.iterations) ])
          (Lazy.force prepared) );
      (* Paper Sec. 6 averages (the Table 3 / Figure 3 bottom lines). *)
      ( "summary",
        Json.Obj
          [ ("avg_power_change_pct",
             mean (fun r -> pc r.lop.power_mw r.a05.power_mw));
            ("avg_clock_change_pct",
             mean (fun r -> pc r.lop.clk_ns r.a05.clk_ns));
            ("avg_lut_change_pct", mean (fun r -> pc r.lop.luts r.a05.luts));
            ("avg_largest_mux_delta",
             mean (fun r -> r.a05.largest -. r.lop.largest));
            ("avg_mux_length_change_pct",
             mean (fun r -> pc r.lop.mux_len r.a05.mux_len));
            ("avg_toggle_change_a1_pct",
             mean (fun r -> pc r.lop.toggle r.a1.toggle));
            ("avg_toggle_change_a05_pct",
             mean (fun r -> pc r.lop.toggle r.a05.toggle)) ] );
      (* Hit rates of the shared SA table only: the table-vs-dynamic
         ablation deliberately runs a cold private table, which must not
         pollute the "warm run recomputed nothing" check. *)
      ( "sa_table",
        Json.Obj
          [ ("entries", i (List.length (ST.entries sa_table)));
            ("hits", i (ST.hits sa_table)); ("misses", i (ST.misses sa_table));
            ("disk_hits", i (ST.disk_hits sa_table));
            ("disk_entries", i (ST.disk_entries sa_table)) ] );
      (* Static estimator differential: relative errors are
         deterministic (both estimators are seeded) and stay real under
         HLP_STABLE; only the timing-derived fields are zeroed. *)
      ( "static_estimator",
        Json.Obj
          [ ("glitch_gain", f Hlp_static.Analysis.default_glitch_gain);
            ("error_bound", f static_error_bound);
            ("speedup_floor", f static_speedup_floor);
            ("sweep_speedup", t (static_sweep_speedup static_rows));
            ( "rows",
              list
                (fun r ->
                  Json.Obj
                    [ ("bench", s r.st_bench); ("cycles", i r.st_cycles);
                      ("sim_toggles", i r.st_sim_toggles);
                      ("static_toggles", f r.st_static_toggles);
                      ("rel_error", f r.st_rel_error);
                      ("sim_seconds", t r.st_sim_s);
                      ("static_seconds", t r.st_static_s);
                      ("speedup", f (static_speedup r)) ])
                static_rows ) ] );
      (* Phase wall clock (elaborate / map / sim / power / bind).  Call
         counts stay real in stable mode; only the seconds are zeroed. *)
      ( "phases",
        list
          (fun (name, calls, seconds) ->
            Json.Obj
              [ ("name", s name); ("calls", i calls); ("seconds", t seconds) ])
          phases );
      ("total_seconds", t total_seconds);
    ]

let bench_json_if_requested ~total_seconds =
  match Sys.getenv_opt "HLP_BENCH_JSON" with
  | Some path when String.trim path <> "" -> (
      try
        Json.to_file path (bench_json ~total_seconds);
        Printf.eprintf "[bench] wrote %s\n%!" path
      with Sys_error msg ->
        Printf.eprintf "[bench] cannot write %s: %s\n%!" path msg)
  | _ -> ()

let () =
  Printf.printf "HLPower evaluation harness (width=%d bits, vectors=%d%s)\n"
    width vectors
    (if fast then ", fast subset" else "");
  Printf.eprintf "[pool] %d worker(s)\n%!" (Pool.jobs ());
  let t0 = now () in
  table1 ();
  table2 ();
  table4 ();
  table3 ();
  figure3 ();
  alpha_sweep ();
  ablation_k ();
  ablation_table_vs_dynamic ();
  ablation_objective ();
  ablation_multicycle ();
  ablation_port_assign ();
  ablation_module_select ();
  static_estimator ();
  let total_seconds = now () -. t0 in
  Printf.eprintf "[bench] total wall clock %.1f s\n%!" total_seconds;
  bench_json_if_requested ~total_seconds;
  (* Flush the SA table to the cache directory now rather than at_exit,
     so the hit-rate section above and the persisted file agree. *)
  ST.persist sa_table;
  Telemetry.write_if_requested ();
  Printf.printf "\ndone.\n"
