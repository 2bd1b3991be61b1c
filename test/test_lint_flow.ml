(* End-to-end lint: the driver over the whole chain, its catalog, and
   the qcheck property that bindings produced by HLPower on random CDFGs
   lint clean through the flow. *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Benchmarks = Hlp_cdfg.Benchmarks
module Reg_binding = Hlp_core.Reg_binding
module Binding = Hlp_core.Binding
module Sa_table = Hlp_core.Sa_table
module Hlpower = Hlp_core.Hlpower
module Flow = Hlp_rtl.Flow
module D = Hlp_lint.Diagnostic
module Lint = Hlp_lint.Lint

let check_bool = Alcotest.(check bool)
let sa_table = Sa_table.create ~width:4 ~k:4 ()

let bind_random g =
  let resources cls = max 1 (Schedule.max_density (Schedule.asap g) cls) in
  let schedule = Schedule.list_schedule g ~resources in
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  let r =
    Hlpower.bind ~sa_table ~regs
      ~resources:(fun cls -> max 1 (Schedule.max_density schedule cls))
      schedule
  in
  (schedule, r.Hlpower.binding)

let test_catalog_sane () =
  let codes = List.map (fun r -> r.Lint.r_code) Lint.catalog in
  Alcotest.(check int)
    "codes unique"
    (List.length codes)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun fam ->
      check_bool (fam ^ " family present") true
        (List.exists (fun r -> r.Lint.r_family = fam) Lint.catalog))
    [ "binding"; "datapath"; "netlist"; "mapped"; "driver" ]

let test_run_all_clean_on_fig1 () =
  let schedule = Benchmarks.fig1 () in
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  let r =
    Hlpower.bind ~sa_table ~regs
      ~resources:(fun cls -> max 1 (Schedule.max_density schedule cls))
      schedule
  in
  let ds = Lint.run_all ~design:"fig1" r.Hlpower.binding in
  Alcotest.(check (list string)) "no errors" [] (D.codes (D.errors ds));
  (* Every emitted code must be a cataloged one. *)
  let known = List.map (fun r -> r.Lint.r_code) Lint.catalog in
  List.iter
    (fun d -> check_bool ("known code " ^ d.D.code) true (List.mem d.D.code known))
    ds

(* run_all must never raise, even when the binding is too corrupt to
   build a datapath from: the crash surfaces as an L001 diagnostic or
   as upstream binding errors, not an exception. *)
let test_run_all_never_raises () =
  let schedule = Benchmarks.fig1 () in
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  let r =
    Hlpower.bind ~sa_table ~regs
      ~resources:(fun cls -> max 1 (Schedule.max_density schedule cls))
      schedule
  in
  let b = r.Hlpower.binding in
  let corrupt = { b with Binding.fu_of_op = [||] } in
  let ds = Lint.run_all ~design:"corrupt" corrupt in
  check_bool "errors reported" true (D.errors ds <> [])

let test_reports_render () =
  let ds =
    [
      D.error "B001" (D.Op 3) "op is not bound";
      D.warning "N005" (D.Node 7) "dead logic";
    ]
  in
  let text = Format.asprintf "%a" Lint.pp_report ("demo", ds) in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "text mentions the code" true (contains "B001" text);
  check_bool "summary counts" true (contains "1 error, 1 warning" text);
  let module Json = Hlp_util.Json in
  match Json.member "lint" (Lint.json_report [ ("demo", ds) ]) with
  | Some (Json.List [ design ]) ->
      check_bool "json counts" true
        (Json.member "design" design = Some (Json.String "demo")
        && Json.member "errors" design = Some (Json.Int 1)
        && Json.member "warnings" design = Some (Json.Int 1));
      let diagnostics =
        Option.value ~default:[]
          (Option.bind (Json.member "diagnostics" design) Json.to_list)
      in
      check_bool "json diagnostics decode back" true
        (List.filter_map D.of_json diagnostics = ds)
  | _ -> Alcotest.fail "json report has no one-design lint list"

let prop_hlpower_lints_clean =
  QCheck.Test.make ~name:"hlpower bindings lint clean through the flow"
    ~count:10
    QCheck.(pair (int_range 2 8) (int_range 0 3))
    (fun (taps, pick) ->
      let g =
        match pick with
        | 0 -> Benchmarks.fir ~taps
        | 1 -> Benchmarks.dct4 ()
        | 2 -> Benchmarks.biquad ()
        | _ -> Benchmarks.generate ~variant:taps (Benchmarks.find "wang")
      in
      let _, binding = bind_random g in
      let ds = Lint.run_all ~design:"prop" binding in
      (* No Error-severity diagnostics anywhere in the chain... *)
      D.errors ds = []
      (* ...and the checked flow itself accepts the binding. *)
      &&
      let config = { Flow.default_config with Flow.width = 4; vectors = 20 } in
      let report = Flow.run ~config ~design:"prop" binding in
      report.Flow.luts > 0)

let suite =
  [
    Alcotest.test_case "catalog sane" `Quick test_catalog_sane;
    Alcotest.test_case "run_all clean on fig1" `Quick
      test_run_all_clean_on_fig1;
    Alcotest.test_case "run_all never raises" `Quick
      test_run_all_never_raises;
    Alcotest.test_case "reports render" `Quick test_reports_render;
    QCheck_alcotest.to_alcotest prop_hlpower_lints_clean;
  ]
