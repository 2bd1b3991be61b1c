(* The determinism guarantee of the parallel flow engine: everything the
   evaluation loop reports must be bit-identical whether it runs on one
   domain or many (HLP_JOBS).  These tests run the same workloads under
   Pool.set_jobs 1 and 4 and compare results structurally — floats
   included, so any divergence in evaluation order that leaks into an
   accumulated value fails the suite. *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module B = Hlp_cdfg.Benchmarks
module RB = Hlp_core.Reg_binding
module H = Hlp_core.Hlpower
module ST = Hlp_core.Sa_table
module Bind = Hlp_core.Binding
module Flow = Hlp_rtl.Flow
module Explore = Hlp_hls.Explore
module Pool = Hlp_util.Pool

let check_bool = Alcotest.(check bool)

let with_jobs n f =
  Pool.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Pool.set_jobs None) f

let test_sweep_jobs_invariant () =
  let config =
    {
      Explore.vectors = 5;
      add_range = [ 1; 2 ];
      mult_range = [ 1; 2 ];
      alphas = [ 1.0; 0.5 ];
    }
  in
  let run jobs =
    with_jobs jobs (fun () ->
        Explore.sweep ~config
          ~sa_table:(Hlp_core.Sa_table.create ~width:4 ~k:4 ())
          (B.generate (B.find "pr")))
  in
  let seq = run 1 and par = run 4 in
  check_bool "some points" true (List.length seq > 0);
  check_bool "sweep bit-identical at jobs=1 vs jobs=4" true (seq = par)

let test_precompute_jobs_invariant () =
  let fill jobs =
    with_jobs jobs (fun () ->
        let t = ST.create ~width:3 ~k:4 () in
        ST.precompute t ~max_inputs:4;
        ST.entries t)
  in
  let seq = fill 1 and par = fill 4 in
  check_bool "non-empty" true (List.length seq > 0);
  check_bool "entries bit-identical" true (seq = par)

(* A miniature of the bench harness's per-design loop: prepare + full flow
   for several designs through parallel_map, at both worker counts. *)
let test_flow_reports_jobs_invariant () =
  let sa_table = ST.create ~width:4 ~k:4 () in
  let profiles = [ B.find "pr"; B.find "wang" ] in
  let evaluate (p : B.profile) =
    let cdfg = B.generate p in
    let resources = B.resources p in
    let schedule = Schedule.list_schedule cdfg ~resources in
    let regs = RB.bind (Lifetime.analyze schedule) in
    let min_res cls = max 1 (Schedule.max_density schedule cls) in
    let r =
      H.bind
        ~params:(H.calibrate ~alpha:0.5 sa_table)
        ~sa_table ~regs ~resources:min_res schedule
    in
    let config = { Flow.default_config with Flow.vectors = 10; width = 4 } in
    let report = Flow.run ~config ~design:p.B.bench_name r.H.binding in
    (r.H.iterations, r.H.promoted, report)
  in
  let run jobs =
    with_jobs jobs (fun () -> Pool.parallel_map_list evaluate profiles)
  in
  let seq = run 1 and par = run 4 in
  check_bool "flow reports bit-identical at jobs=1 vs jobs=4" true (seq = par)

let test_shared_sa_table_concurrent_lookups () =
  (* Many domains hammering one table must agree with a cold sequential
     table on every value. *)
  let shared = ST.create ~width:3 ~k:4 () in
  let keys =
    Array.init 64 (fun i ->
        let cls = if i mod 2 = 0 then Cdfg.Add_sub else Cdfg.Multiplier in
        (cls, 1 + (i mod 5), 1 + (i * 7 mod 5)))
  in
  let par =
    Pool.parallel_map ~jobs:4
      (fun (cls, l, r) -> ST.lookup shared cls ~left:l ~right:r)
      keys
  in
  let cold = ST.create ~width:3 ~k:4 () in
  let seq =
    Array.map (fun (cls, l, r) -> ST.lookup cold cls ~left:l ~right:r) keys
  in
  check_bool "concurrent lookups agree with sequential" true (par = seq)

let suite =
  [
    Alcotest.test_case "explore sweep invariant under HLP_JOBS" `Slow
      test_sweep_jobs_invariant;
    Alcotest.test_case "sa-table precompute invariant under HLP_JOBS" `Slow
      test_precompute_jobs_invariant;
    Alcotest.test_case "flow reports invariant under HLP_JOBS" `Slow
      test_flow_reports_jobs_invariant;
    Alcotest.test_case "shared sa-table under concurrent lookups" `Quick
      test_shared_sa_table_concurrent_lookups;
  ]
