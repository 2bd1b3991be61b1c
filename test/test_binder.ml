(* What routing every caller through [Binder] must keep: LOPASS binds a
   list-scheduled benchmark the same under the density bound as under
   its Table 2 bound, a LOPASS request never builds an SA table, and a
   lint of an unknown design is answered with the names lint accepts. *)

module Json = Hlp_util.Json
module P = Hlp_server.Protocol
module Router = Hlp_server.Router
module Diagnostic = Hlp_lint.Diagnostic
module Benchmarks = Hlp_cdfg.Benchmarks
module Binder = Hlp_core.Binder
module Binding = Hlp_core.Binding
module Lopass = Hlp_core.Lopass

let handle t op = Router.handle t ~checkpoint:ignore op

let ok what = function
  | Ok _ -> ()
  | Error ds ->
      Alcotest.failf "%s failed: %s" what
        (String.concat "; " (List.map Diagnostic.to_string ds))

let groups (b : Binding.t) =
  List.sort compare (List.map (fun f -> (f.Binding.fu_class, f.fu_ops)) b.fus)

let test_lopass_density_bound () =
  let no_table = lazy (Alcotest.fail "LOPASS forced the SA table") in
  List.iter
    (fun (p : Benchmarks.profile) ->
      for variant = 0 to 3 do
        let design = Binder.prepare (Binder.Bench (p, variant)) in
        let density = Binder.run ~sa_table:no_table Binder.Lopass design in
        let table2 =
          Lopass.bind ~regs:design.regs ~resources:(Benchmarks.resources p)
            design.schedule
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s variant %d" p.bench_name variant)
          true
          (groups density.binding = groups table2)
      done)
    Benchmarks.all

let test_lopass_builds_no_table () =
  let t = Router.create () in
  let lopass =
    { P.default_bind_params with
      P.bench = "pr"; binder = "lopass"; width = 8; vectors = 10 }
  in
  ok "lopass bind" (handle t (P.Bind lopass));
  ok "lopass flow" (handle t (P.Flow lopass));
  ok "lopass session_open"
    (handle t
       (P.Session_open
          { P.default_session_open_params with
            P.so_bench = "pr"; so_binder = "lopass"; so_width = 8 }));
  Alcotest.(check string)
    "no SA table after LOPASS requests" "[]"
    (Json.to_string (Router.sa_stats_json t));
  ok "hlpower bind" (handle t (P.Bind { lopass with P.binder = "hlpower" }));
  match Router.sa_stats_json t with
  | Json.List [ table ] ->
      Alcotest.(check (list (option string)))
        "one (8, 4) table"
        [ Some "8"; Some "4" ]
        (List.map
           (fun f -> Option.map Json.to_string (Json.member f table))
           [ "width"; "k" ])
  | j -> Alcotest.failf "expected one SA table, got %s" (Json.to_string j)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let test_lint_unknown_design () =
  let t = Router.create () in
  match
    handle t
      (P.Lint { P.default_lint_params with P.lint_bench = Some "nope" })
  with
  | Ok _ -> Alcotest.fail "lint accepted an unknown design"
  | Error ds ->
      Alcotest.(check (list string))
        "one S004" [ "S004" ]
        (List.map (fun d -> d.Diagnostic.code) ds);
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (name ^ " is listed") true
            (contains (List.hd ds).Diagnostic.message name))
        [ "pr"; "fir8"; "fig1" ]

let suite =
  [
    Alcotest.test_case "lopass binds the same under the density bound"
      `Quick test_lopass_density_bound;
    Alcotest.test_case "lopass requests build no SA table" `Quick
      test_lopass_builds_no_table;
    Alcotest.test_case "lint of an unknown design lists lint's designs"
      `Quick test_lint_unknown_design;
  ]
