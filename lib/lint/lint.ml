module D = Diagnostic
module Binding = Hlp_core.Binding
module Datapath = Hlp_rtl.Datapath
module Elaborate = Hlp_rtl.Elaborate
module Flow = Hlp_rtl.Flow
module Static_model = Hlp_rtl.Static_model
module Mapper = Hlp_mapper.Mapper
module Benchmarks = Hlp_cdfg.Benchmarks
module Schedule = Hlp_cdfg.Schedule
module Hlpower = Hlp_core.Hlpower
module Json = Hlp_util.Json

type rule = {
  r_code : string;
  r_severity : D.severity;
  r_family : string;
  r_synopsis : string;
}

let rule family (r_code, r_severity, r_synopsis) =
  { r_code; r_severity; r_family = family; r_synopsis }

let catalog =
  List.map (rule "activity")
    [
      ("A001", D.Warning, "glitch-hot net (wide, exercised arrival window)");
      ("A002", D.Warning, "near-constant net (probability pinned to a rail)");
      ("A003", D.Warning, "transition-density envelope over the budget");
      ("A004", D.Warning, "reconvergent-fanout zones dominate the design");
    ]
  @ List.map (rule "binding")
    [
      ("B001", D.Error, "op not bound to any functional unit");
      ("B002", D.Error, "op bound to more than one functional unit");
      ("B003", D.Error, "op class differs from its unit's class");
      ("B004", D.Error, "functional unit with no ops");
      ("B005", D.Error, "two ops on one unit with overlapping steps");
      ("B006", D.Error, "swap flag set on a non-commutative op");
      ("B007", D.Error, "overlapping lifetimes share a register");
      ("B008", D.Error, "live variable with no register assigned");
      ("B009", D.Error, "fu_of_op disagrees with the unit op lists");
    ]
  @ List.map (rule "datapath")
      [
        ("D001", D.Error, "mux select out of range");
        ("D002", D.Error, "unit activity disagrees with the schedule slot");
        ("D003", D.Error, "op issued more or fewer times than once");
        ("D004", D.Error, "result register load missing at the finish step");
        ("D005", D.Error, "register load selects the wrong writer");
        ("D006", D.Error, "subtract flag disagrees with the op kind");
        ("D007", D.Error, "register consumed before any load");
        ("D008", D.Error, "control tables sized differently from the binding");
      ]
  @ [ rule "driver" ("L001", D.Error, "pipeline stage raised an exception") ]
  @ List.map (rule "mapped")
      [
        ("M001", D.Error, "LUT with more than k inputs");
        ("M002", D.Error, "cone coverage broken (leaf or output unmapped)");
        ("M003", D.Error, "LUT network disagrees with the source netlist");
        ("M004", D.Error, "LUT network deeper than the gate netlist");
        ("M005", D.Error, "LUT function arity differs from its leaf count");
      ]
  @ List.map (rule "netlist")
      [
        ("N001", D.Error, "node id does not match its array index");
        ("N002", D.Error, "truth-table arity differs from the fanin count");
        ("N003", D.Error, "fanin out of range or not topologically ordered");
        ("N004", D.Error, "output refers to a node outside the netlist");
        ("N005", D.Warning, "logic node unreachable from every output");
        ("N006", D.Error, "two outputs with the same name");
        ("N007", D.Warning, "constant-foldable logic node");
        ("N008", D.Warning, "primary input never read and not an output");
        ("N009", D.Error, "BLIF round trip not semantically equivalent");
        ("N010", D.Error, "BLIF round trip fails to parse");
      ]
  @ List.map (rule "server")
      [
        ("S001", D.Error, "request frame is not valid JSON");
        ("S002", D.Error, "unknown or missing request op");
        ("S003", D.Error, "bad request parameter");
        ("S004", D.Error, "unknown benchmark name");
        ("S005", D.Error, "binder or pipeline failure on a valid request");
        ("S006", D.Error, "op not served by this endpoint");
        ("S007", D.Error, "inline graph exceeds an admission size limit");
        ("S008", D.Error, "inline graph reference invalid (self, forward \
                           or out of range)");
        ("S009", D.Error, "numeric parameter is not a usable number \
                           (infinite, NaN or subnormal)");
        ("S010", D.Error, "duplicate key in a request object");
        ("S011", D.Error, "power-model override field hostile (non-finite, \
                           subnormal or out of physical range)");
        ("S012", D.Error, "frame exceeds a structural resource limit \
                           (byte cap or nesting depth)");
      ]

(* --- driver ----------------------------------------------------------- *)

let crash stage exn =
  D.error "L001" D.Design "%s raised: %s" stage (Printexc.to_string exn)

(* Build one artifact, funneling any exception into an L001 diagnostic
   instead of propagating it: run_all must never raise. *)
let stage name f = try Ok (f ()) with exn -> Error (crash name exn)

let run_all ?(config = Flow.default_config) ~design:_ binding =
  let acc = ref (Rules_binding.check binding) in
  let ok () = D.errors !acc = [] in
  let artifact name f =
    if not (ok ()) then None
    else
      match stage name f with
      | Ok v -> Some v
      | Error d ->
          acc := d :: !acc;
          None
  in
  let dp =
    artifact "Datapath.build" (fun () ->
        Datapath.build ~width:config.Flow.width binding)
  in
  Option.iter (fun dp -> acc := Rules_datapath.check dp @ !acc) dp;
  let elab =
    match dp with
    | None -> None
    | Some dp -> artifact "Elaborate.elaborate" (fun () -> Elaborate.elaborate dp)
  in
  Option.iter
    (fun elab ->
      let nl = elab.Elaborate.netlist in
      acc := Rules_netlist.check nl @ !acc;
      if ok () then acc := Rules_netlist.check_blif_roundtrip nl @ !acc)
    elab;
  let mapping =
    match elab with
    | None -> None
    | Some elab ->
        artifact "Mapper.map" (fun () ->
            Mapper.map ~objective:config.Flow.objective
              elab.Elaborate.netlist ~k:config.Flow.k)
  in
  Option.iter
    (fun m -> acc := Rules_mapped.check ~k:config.Flow.k m @ !acc)
    mapping;
  (match (elab, mapping) with
  | Some elab, Some m when ok () -> (
      match
        stage "Static_model.analyze" (fun () ->
            Static_model.analyze elab ~network:m.Mapper.lut_network)
      with
      | Ok an -> acc := Rules_activity.check an @ !acc
      | Error d -> acc := d :: !acc)
  | _ -> ());
  List.sort D.compare !acc

(* --- the designs to lint ---------------------------------------------- *)

(* The seven benchmarks keep their Table 2 resource profile for
   LOPASS; the kernels, which have none, schedule with two units per
   class.  HLPower always binds against the schedule's own density. *)
let designs ?bench ~binder ~sa_table () =
  let binders =
    match binder with
    | "both" -> [ "hlpower"; "lopass" ]
    | ("hlpower" | "lopass") as b -> [ b ]
    | other -> failwith ("unknown binder: " ^ other)
  in
  let min_res schedule cls = max 1 (Schedule.max_density schedule cls) in
  let prepared schedule resources =
    let lifetimes = Hlp_cdfg.Lifetime.analyze schedule in
    (schedule, Hlp_core.Reg_binding.bind lifetimes, resources)
  in
  let kernel cdfg () =
    let schedule = Schedule.list_schedule cdfg ~resources:(fun _ -> 2) in
    prepared schedule (min_res schedule)
  in
  let benchmark p () =
    let resources = Benchmarks.resources p in
    let cdfg = Benchmarks.generate p in
    prepared (Schedule.list_schedule cdfg ~resources) resources
  in
  let targets =
    List.map (fun p -> (p.Benchmarks.bench_name, benchmark p)) Benchmarks.all
    @ [ ("fir8", kernel (Benchmarks.fir ~taps:8));
        ("dct4", kernel (Benchmarks.dct4 ()));
        ("biquad", kernel (Benchmarks.biquad ()));
        ("fig1", fun () ->
           let s = Benchmarks.fig1 () in
           prepared s (min_res s)) ]
  in
  let targets =
    match bench with
    | None -> targets
    | Some b -> (
        match List.filter (fun (name, _) -> name = b) targets with
        | [] -> raise Not_found
        | l -> l)
  in
  let bind binder (schedule, regs, resources) =
    match binder with
    | "lopass" -> Hlp_core.Lopass.bind ~regs ~resources schedule
    | _ ->
        let sa_table = Lazy.force sa_table in
        let params = Hlpower.calibrate ~alpha:0.5 sa_table in
        (Hlpower.bind ~params ~sa_table ~regs ~resources:(min_res schedule)
           schedule)
          .Hlpower.binding
  in
  List.concat_map
    (fun (name, prepare) ->
      let target = lazy (prepare ()) in
      List.map
        (fun b -> (name ^ "-" ^ b, fun () -> bind b (Lazy.force target)))
        binders)
    targets

(* --- reporting -------------------------------------------------------- *)

let summary ds =
  let e = List.length (D.errors ds) in
  let w = List.length ds - e in
  let plural n = if n = 1 then "" else "s" in
  if e = 0 && w = 0 then "clean"
  else if w = 0 then Printf.sprintf "%d error%s" e (plural e)
  else if e = 0 then Printf.sprintf "%d warning%s" w (plural w)
  else
    Printf.sprintf "%d error%s, %d warning%s" e (plural e) w (plural w)

let pp_report ppf (design, ds) =
  List.iter (fun d -> Format.fprintf ppf "%s: %a@." design D.pp d) ds;
  Format.fprintf ppf "%s: %s@." design (summary ds)

let json_report results =
  let design (name, ds) =
    let errors = List.length (D.errors ds) in
    Json.Obj
      [
        ("design", Json.String name);
        ("errors", Json.Int errors);
        ("warnings", Json.Int (List.length ds - errors));
        ("diagnostics", Json.List (List.map D.to_json ds));
      ]
  in
  Json.Obj [ ("lint", Json.List (List.map design results)) ]

(* --- hook installation ------------------------------------------------ *)

(* Arm the legacy validators and the flow checker.  The library is built
   with -linkall, so any executable that lists hlp_lint as a dependency
   runs this initializer. *)
let messages check x = List.map D.to_string (D.errors (check x))

let () =
  Binding.set_lint_hook (messages Rules_binding.check);
  Datapath.set_lint_hook (messages Rules_datapath.check);
  Flow.set_checker (fun a ->
      let nl = a.Flow.a_elab.Elaborate.netlist in
      let ds = Rules_netlist.check nl in
      let ds =
        if D.errors ds = [] then ds @ Rules_netlist.check_blif_roundtrip nl
        else ds
      in
      let ds =
        ds @ Rules_mapped.check ~k:a.Flow.a_config.Flow.k a.Flow.a_mapping
      in
      match D.errors ds with
      | [] -> ()
      | errs ->
          failwith
            (Printf.sprintf "Flow lint (%s): %s" a.Flow.a_design
               (String.concat "\n" (List.map D.to_string errs))))
