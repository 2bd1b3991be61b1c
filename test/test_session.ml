(* Incremental-session semantics at the router boundary: the central
   property is that an edited session's reply is byte-identical to a
   from-scratch bind of the edited graph — the memo layers may only
   change how fast the answer arrives, never the answer.  Plus the
   session lifecycle S-codes (S013..S016), TTL eviction on the
   injectable clock, drain, and the PR's binder determinism
   regressions (first-fit tie-break, fallback pair tie-break,
   structured calibration failure). *)

module Json = Hlp_util.Json
module P = Hlp_server.Protocol
module Router = Hlp_server.Router
module Diagnostic = Hlp_lint.Diagnostic
module Clock = Hlp_util.Clock
module Telemetry = Hlp_util.Telemetry
module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Delta = Hlp_cdfg.Delta
module Benchmarks = Hlp_cdfg.Benchmarks
module RB = Hlp_core.Reg_binding
module H = Hlp_core.Hlpower
module ST = Hlp_core.Sa_table
module Bind = Hlp_core.Binding

let check = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let ck _ = ()
let handle t op = Router.handle t ~checkpoint:ck op

let ok_exn what = function
  | Ok j -> j
  | Error ds ->
      Alcotest.failf "%s failed: %s" what
        (String.concat "; "
           (List.map (fun d -> d.Diagnostic.code ^ " " ^ d.Diagnostic.message) ds))

let has_code code = function
  | Ok _ -> false
  | Error ds -> List.exists (fun d -> d.Diagnostic.code = code) ds

let sid_of j =
  match Json.member "session" j with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail "reply has no session id"

let bind_of j =
  match Json.member "bind" j with
  | Some b -> Json.to_string b
  | None -> Alcotest.fail "reply has no bind object"

let int_of name j =
  match Json.member name j with Some (Json.Int n) -> n | _ -> -1

let open_bench ?(binder = "hlpower") ?(k = 4) t bench =
  ok_exn "session_open"
    (handle t
       (P.Session_open
          { P.default_session_open_params with
            P.so_bench = bench; so_binder = binder; so_k = k }))

let edit t sid delta =
  handle t (P.Session_edit { P.se_session = sid; se_delta = delta })

let close t sid = handle t (P.Session_close { P.sc_session = sid })

let add_delta =
  P.D_add_op
    { d_kind = Cdfg.Add;
      d_left = Cdfg.Input 0;
      d_right = Cdfg.Input 0;
      d_output = true }

(* --- lifecycle --- *)

let test_open_edit_close () =
  let t = Router.create () in
  let j = open_bench t "pr" in
  let sid = sid_of j in
  check "open binds" true (String.length (bind_of j) > 0);
  let base = Cdfg.num_ops (Benchmarks.generate (Benchmarks.find "pr")) in
  let e1 = ok_exn "add edit" (edit t sid add_delta) in
  check "add not cached" false
    (match Json.member "cached" e1 with Some (Json.Bool b) -> b | _ -> true);
  let e2 = ok_exn "remove edit" (edit t sid (P.D_remove_op base)) in
  (* Removing the op we just added returns to the opening state, whose
     reply was cached at open: byte-identical, served from the cache. *)
  check_s "round-trip reply identical to open" (bind_of j) (bind_of e2);
  check "round trip was a cache hit" true
    (match Json.member "cached" e2 with Some (Json.Bool b) -> b | _ -> false);
  let c = ok_exn "close" (close t sid) in
  check_i "close reports edits" 2 (int_of "edits" c);
  check "close after close -> S013" true (has_code "S013" (close t sid));
  check "edit after close -> S013" true
    (has_code "S013" (edit t sid (P.D_set_alpha 0.5)));
  check "unknown id -> S013" true
    (has_code "S013" (close t "s-no-such"))

let test_invalid_deltas_s014 () =
  let t = Router.create () in
  let sid = sid_of (open_bench t "pr") in
  let n = Cdfg.num_ops (Benchmarks.generate (Benchmarks.find "pr")) in
  check "remove out of range -> S014" true
    (has_code "S014" (edit t sid (P.D_remove_op n)));
  check "remove consumed op -> S014" true
    (has_code "S014" (edit t sid (P.D_remove_op 0)));
  check "bound below density -> S014" true
    (has_code "S014" (edit t sid (P.D_set_resource (Cdfg.Multiplier, 1))));
  (* The session survives rejected deltas untouched. *)
  let j = ok_exn "still editable" (edit t sid (P.D_set_alpha 0.5)) in
  check_i "rejected deltas not counted" 1 (int_of "edit" j);
  ignore (ok_exn "close" (close t sid))

let test_capacity_s015 () =
  let t = Router.create ~max_sessions:1 () in
  let sid = sid_of (open_bench t "pr") in
  check "table full -> S015" true
    (has_code "S015"
       (handle t
          (P.Session_open
             { P.default_session_open_params with P.so_bench = "pr" })));
  ignore (ok_exn "close" (close t sid));
  ignore (open_bench t "pr")

let test_calibration_s016 () =
  (* K=1 makes the (2,2) SA entry unobtainable (Cut.enumerate needs
     K>=2): the daemon boundary must answer with a structured S016, not
     an escaped exception — and no session may be left behind. *)
  let t = Router.create () in
  let r =
    handle t
      (P.Session_open
         { P.default_session_open_params with P.so_bench = "pr"; so_k = 1 })
  in
  check "k=1 open -> S016" true (has_code "S016" r);
  check_i "failed open leaves no session" 0 (Router.open_sessions t)

let test_calibration_error_is_typed () =
  let sa_table = ST.create ~width:4 ~k:1 () in
  check "calibrate raises Calibration_error" true
    (try
       ignore (H.calibrate sa_table);
       false
     with
    | H.Calibration_error msg ->
        (* A diagnosable message, not a bare lookup failure. *)
        String.length msg > 20
    | Failure _ | Invalid_argument _ | Not_found -> false)

let test_ttl_eviction () =
  let now = ref 1000.0 in
  Clock.set_source (fun () -> !now);
  Fun.protect ~finally:Clock.use_monotonic (fun () ->
      let t = Router.create ~session_ttl_ms:1000 () in
      let sid = sid_of (open_bench t "pr") in
      (* Activity within the TTL keeps the session alive... *)
      now := !now +. 0.9;
      ignore (ok_exn "edit inside ttl" (edit t sid (P.D_set_alpha 0.25)));
      now := !now +. 0.9;
      ignore (ok_exn "touch resets ttl" (edit t sid (P.D_set_alpha 0.5)));
      (* ...idling past it evicts lazily on the next session op. *)
      now := !now +. 1.1;
      check "expired -> S013" true
        (has_code "S013" (edit t sid (P.D_set_alpha 1.0)));
      check_i "no sessions left" 0 (Router.open_sessions t);
      match Router.session_stats_json t with
      | Json.Obj fields ->
          check "stats count the eviction" true
            (List.assoc "evicted" fields = Json.Int 1)
      | _ -> Alcotest.fail "session_stats_json not an object")

let test_drain_closes_sessions () =
  let t = Router.create () in
  let a = sid_of (open_bench t "pr") in
  let b = sid_of (open_bench t "wang") in
  check_i "two open" 2 (Router.open_sessions t);
  check_i "drain reports both" 2 (Router.drain_sessions t);
  check_i "none left" 0 (Router.open_sessions t);
  check "drained ids answer S013" true
    (has_code "S013" (edit t a (P.D_set_alpha 0.5)));
  check "drained ids answer S013 (b)" true (has_code "S013" (close t b))

(* --- memo telemetry --- *)

let test_memo_telemetry () =
  let t = Router.create () in
  let sid = sid_of (open_bench t "pr") in
  let base = Cdfg.num_ops (Benchmarks.generate (Benchmarks.find "pr")) in
  let g = Benchmarks.generate (Benchmarks.find "pr") in
  let mult_density =
    max 1 (Schedule.max_density (Schedule.asap g) Cdfg.Multiplier)
  in
  let (), scoped =
    Telemetry.with_scope (fun () ->
        (* add / remove / add / remove: the first add misses, everything
           after revisits a cached state. *)
        for _ = 1 to 2 do
          ignore (ok_exn "add" (edit t sid add_delta));
          ignore (ok_exn "remove" (edit t sid (P.D_remove_op base)))
        done;
        (* Relaxing only the multiplier bound invalidates the whole-reply
           key but leaves the adder class's inputs untouched: that bind
           must come from the per-class memo for Add_sub. *)
        ignore
          (ok_exn "relax mult bound"
             (edit t sid (P.D_set_resource (Cdfg.Multiplier, mult_density + 1)))))
  in
  let v name = Option.value ~default:0 (List.assoc_opt name scoped) in
  check "reply cache hit at least 3 of 4" true
    (v "router.session_reply_hits" >= 3);
  check "class memo reused for the untouched class" true
    (v "hlpower.memo_class_hits" > 0);
  check_i "edits counted" 5 (v "router.session_edits");
  ignore (ok_exn "close" (close t sid))

(* --- the equivalence property --- *)

(* Abstract delta specs are generated up front and concretized against
   the evolving shadow graph at run time, so the generator needs no
   knowledge of how the graph grows. *)
type spec = int * int * int * int

let alphas = [| 0.0; 0.25; 0.5; 0.75; 1.0 |]

let concretize (choice, a, b, c) g =
  let n = Cdfg.num_ops g in
  let operand x =
    if x mod 2 = 0 then Cdfg.Input (x / 2 mod Cdfg.num_inputs g)
    else Cdfg.Op (x / 2 mod n)
  in
  match choice mod 4 with
  | 0 ->
      P.D_add_op
        { d_kind = [| Cdfg.Add; Cdfg.Sub; Cdfg.Mult |].(a mod 3);
          d_left = operand b;
          d_right = operand c;
          d_output = a mod 2 = 0 }
  | 1 -> P.D_remove_op (a mod n)
  | 2 -> P.D_set_alpha alphas.(a mod Array.length alphas)
  | _ ->
      let cls = if a mod 2 = 0 then Cdfg.Add_sub else Cdfg.Multiplier in
      let density = max 1 (Schedule.max_density (Schedule.asap g) cls) in
      P.D_set_resource (cls, density + (b mod 3))

let feasible g ra rm =
  (match ra with None -> true | Some n -> n >= Schedule.max_density (Schedule.asap g) Cdfg.Add_sub)
  && match rm with None -> true | Some n -> n >= Schedule.max_density (Schedule.asap g) Cdfg.Multiplier

(* Replays [specs] against one long-lived session and, in parallel, a
   shadow copy of the intended state; every accepted edit's bind object
   must be byte-identical to a fresh session opened directly on the
   shadow state.  Rejected deltas must answer S014 and leave the
   session on the shadow state. *)
let run_equivalence binder (taps, specs) =
  let t = Router.create () in
  let g0 = Benchmarks.fir ~taps in
  let shadow = ref g0 in
  let alpha = ref P.default_session_open_params.P.so_alpha in
  let ra = ref None and rm = ref None in
  let open_shadow () =
    ok_exn "shadow open"
      (handle t
         (P.Session_open
            { P.default_session_open_params with
              P.so_graph = Some !shadow;
              so_binder = binder;
              so_alpha = !alpha;
              so_res_add = !ra;
              so_res_mult = !rm }))
  in
  let j0 =
    ok_exn "open"
      (handle t
         (P.Session_open
            { P.default_session_open_params with
              P.so_graph = Some g0; so_binder = binder }))
  in
  let sid = sid_of j0 in
  List.iter
    (fun spec ->
      let delta = concretize spec !shadow in
      let expect =
        match delta with
        | P.D_add_op { d_kind; d_left; d_right; d_output } -> (
            let d =
              Delta.Add_op
                { kind = d_kind; left = d_left; right = d_right;
                  output = d_output }
            in
            match Delta.apply !shadow d with
            | Error _ -> Error ()
            | Ok g' -> if feasible g' !ra !rm then Ok (g', !alpha, !ra, !rm) else Error ())
        | P.D_remove_op id -> (
            match Delta.apply !shadow (Delta.Remove_op id) with
            | Error _ -> Error ()
            | Ok g' -> if feasible g' !ra !rm then Ok (g', !alpha, !ra, !rm) else Error ())
        | P.D_set_alpha a -> Ok (!shadow, a, !ra, !rm)
        | P.D_set_resource (cls, n) ->
            let ra', rm' =
              match cls with
              | Cdfg.Add_sub -> (Some n, !rm)
              | Cdfg.Multiplier -> (!ra, Some n)
            in
            if feasible !shadow ra' rm' then Ok (!shadow, !alpha, ra', rm')
            else Error ()
      in
      match expect with
      | Error () ->
          if not (has_code "S014" (edit t sid delta)) then
            Alcotest.fail "infeasible delta should be rejected with S014"
      | Ok (g', a', ra', rm') ->
          let reply = ok_exn "accepted edit" (edit t sid delta) in
          shadow := g';
          alpha := a';
          ra := ra';
          rm := rm';
          let fresh = open_shadow () in
          let fresh_sid = sid_of fresh in
          if bind_of reply <> bind_of fresh then
            Alcotest.failf
              "incremental reply diverged from from-scratch bind\n\
               incremental: %s\nfrom scratch: %s"
              (bind_of reply) (bind_of fresh);
          ignore (ok_exn "close shadow" (close t fresh_sid)))
    specs;
  ignore (ok_exn "close" (close t sid));
  true

let spec_gen =
  QCheck.(
    pair (int_range 1 5)
      (list_of_size Gen.(int_range 1 8)
         (quad (int_range 0 40) (int_range 0 40) (int_range 0 40)
            (int_range 0 40))))

let prop_incremental_equals_scratch_hlpower =
  QCheck.Test.make ~count:12
    ~name:"session edits == from-scratch bind (hlpower)" spec_gen
    (run_equivalence "hlpower")

let prop_incremental_equals_scratch_lopass =
  QCheck.Test.make ~count:12
    ~name:"session edits == from-scratch bind (lopass)" spec_gen
    (run_equivalence "lopass")

(* --- the reply-cache key --- *)

(* The encoder [Router.graph_key] replaced, kept as the reference: the
   same layout, with one [string_of_int] string per number. *)
let graph_key_reference (g : Cdfg.t) =
  let b = Buffer.create 512 in
  Buffer.add_string b (Cdfg.name g);
  Buffer.add_char b '\x00';
  Buffer.add_string b (string_of_int (Cdfg.num_inputs g));
  let operand = function
    | Cdfg.Input k ->
        Buffer.add_char b 'i';
        Buffer.add_string b (string_of_int k)
    | Cdfg.Op j ->
        Buffer.add_char b 'o';
        Buffer.add_string b (string_of_int j)
  in
  for i = 0 to Cdfg.num_ops g - 1 do
    let op = Cdfg.op g i in
    Buffer.add_char b
      (match op.Cdfg.kind with Cdfg.Add -> '+' | Cdfg.Sub -> '-'
      | Cdfg.Mult -> '*');
    operand op.Cdfg.left;
    operand op.Cdfg.right
  done;
  Buffer.add_char b '>';
  List.iter operand (Cdfg.outputs g);
  Buffer.contents b

(* A chain of 1,100 ops over 1,200 inputs reads ops and inputs 0, 9, 10,
   1000 and beyond; the Sec. 6 benchmarks cover the usual sizes. *)
let test_graph_key_indices () =
  let num_inputs = 1200 in
  let ops =
    List.init 1100 (fun i ->
        { Cdfg.id = i;
          kind = [| Cdfg.Add; Cdfg.Sub; Cdfg.Mult |].(i mod 3);
          left = (if i = 0 then Cdfg.Input 0 else Cdfg.Op (i - 1));
          right = Cdfg.Input (((i * 7) + 9) mod num_inputs) })
  in
  let wide =
    Cdfg.create ~name:"wide" ~num_inputs ~ops
      ~outputs:
        [ Cdfg.Op 0; Cdfg.Op 9; Cdfg.Op 10; Cdfg.Op 1000; Cdfg.Op 1099;
          Cdfg.Input 10; Cdfg.Input 1199 ]
  in
  List.iter
    (fun g ->
      check_s (Cdfg.name g) (graph_key_reference g) (Router.graph_key g))
    (wide :: List.map (fun p -> Benchmarks.generate p) Benchmarks.all)

(* Session graphs as edits leave them: the key's bytes after every
   accepted [add_op] or [remove_op]. *)
let prop_graph_key_same_bytes =
  QCheck.Test.make ~count:300 ~name:"reply key = string_of_int encoder"
    spec_gen (fun (taps, specs) ->
      let same g = Router.graph_key g = graph_key_reference g in
      let g = ref (Benchmarks.fir ~taps) in
      let apply d =
        match Delta.apply !g d with Ok g' -> g := g' | Error _ -> ()
      in
      same !g
      && List.for_all
           (fun spec ->
             (match concretize spec !g with
             | P.D_add_op { d_kind; d_left; d_right; d_output } ->
                 apply
                   (Delta.Add_op
                      { kind = d_kind; left = d_left; right = d_right;
                        output = d_output })
             | P.D_remove_op id -> apply (Delta.Remove_op id)
             | P.D_set_alpha _ | P.D_set_resource _ -> ());
             same !g)
           specs)

(* --- binder determinism regressions --- *)

(* First-fit fallback (the Theorem-1-less last resort) must pack ops in
   (cstep, id) order: the adversarial 5-op multi-cycle motif has two ops
   tied at cstep 1, and the canonical packing is {0,1,2} / {3,4}.  An
   unstable sort on cstep alone can swap the tied ops and flip the
   groups. *)
let fallback_motif dup =
  let n = 5 * dup in
  let base = [| 1; 5; 3; 4; 1 |] in
  let latency = function Cdfg.Mult -> 2 | _ -> 1 in
  let ops =
    List.init n (fun i ->
        { Cdfg.id = i; kind = Cdfg.Mult; left = Cdfg.Input 0;
          right = Cdfg.Input 1 })
  in
  let g =
    Cdfg.create ~name:"ffit" ~num_inputs:2 ~ops
      ~outputs:(List.init n (fun i -> Cdfg.Op i))
  in
  let cstep = Array.init n (fun i -> base.(i mod 5)) in
  let schedule = Schedule.of_csteps ~latency g ~cstep in
  let regs = RB.bind (Lifetime.analyze schedule) in
  (g, schedule, regs, latency)

let mult_groups binding =
  List.filter_map
    (fun f ->
      if f.Bind.fu_class = Cdfg.Multiplier then Some f.Bind.fu_ops else None)
    binding.Bind.fus
  |> List.sort compare

let test_first_fit_cstep_id_order () =
  let g, schedule, regs, _ = fallback_motif 1 in
  let resources = function Cdfg.Add_sub -> 1 | Cdfg.Multiplier -> 2 in
  let sa_table = ST.create ~width:2 ~k:4 () in
  let r = H.bind ~sa_table ~regs ~resources schedule in
  Bind.validate r.H.binding;
  ignore g;
  check "canonical (cstep, id) packing" true
    (mult_groups r.H.binding = [ [ 0; 1; 2 ]; [ 3; 4 ] ])

(* At scale, with 2*dup ops tied on every peak step, the packing must
   equal a reference first-fit computed over the explicit (cstep, id)
   order — any other tie-break diverges. *)
let test_first_fit_matches_reference () =
  let dup = 6 in
  let g, schedule, regs, latency = fallback_motif dup in
  let bound = Schedule.max_density schedule Cdfg.Multiplier in
  let resources = function Cdfg.Add_sub -> 1 | Cdfg.Multiplier -> bound in
  let sa_table = ST.create ~width:2 ~k:4 () in
  let r = H.bind ~sa_table ~regs ~resources schedule in
  Bind.validate r.H.binding;
  (* Reference: first fit over ops sorted by (cstep, id). *)
  let n = Cdfg.num_ops g in
  let interval i =
    let s = schedule.Schedule.cstep.(i) in
    (s, s + latency Cdfg.Mult - 1)
  in
  let order =
    List.sort
      (fun a b -> compare (schedule.Schedule.cstep.(a), a) (schedule.Schedule.cstep.(b), b))
      (List.init n (fun i -> i))
  in
  let units : (int * int list) list ref = ref [] in
  List.iter
    (fun i ->
      let s, f = interval i in
      let rec place acc = function
        | [] -> List.rev ((f, [ i ]) :: acc)
        | (busy_until, ops) :: rest when s > busy_until ->
            List.rev_append acc ((f, i :: ops) :: rest)
        | u :: rest -> place (u :: acc) rest
      in
      units := place [] !units)
    order;
  let reference =
    List.map (fun (_, ops) -> List.sort compare ops) !units
    |> List.sort compare
  in
  check "packing equals (cstep, id) reference" true
    (mult_groups r.H.binding = reference)

let suite =
  [
    Alcotest.test_case "open, edit, close round trip" `Quick
      test_open_edit_close;
    Alcotest.test_case "invalid deltas -> S014, session intact" `Quick
      test_invalid_deltas_s014;
    Alcotest.test_case "session table capacity -> S015" `Quick
      test_capacity_s015;
    Alcotest.test_case "unusable library -> S016 at open" `Quick
      test_calibration_s016;
    Alcotest.test_case "calibrate raises typed error" `Quick
      test_calibration_error_is_typed;
    Alcotest.test_case "ttl eviction on the fake clock" `Quick
      test_ttl_eviction;
    Alcotest.test_case "drain closes every session" `Quick
      test_drain_closes_sessions;
    Alcotest.test_case "memo telemetry rides the reply" `Quick
      test_memo_telemetry;
    QCheck_alcotest.to_alcotest prop_incremental_equals_scratch_hlpower;
    QCheck_alcotest.to_alcotest prop_incremental_equals_scratch_lopass;
    Alcotest.test_case "reply key bytes at wide indices" `Quick
      test_graph_key_indices;
    QCheck_alcotest.to_alcotest prop_graph_key_same_bytes;
    Alcotest.test_case "first-fit packs in (cstep, id) order" `Quick
      test_first_fit_cstep_id_order;
    Alcotest.test_case "first-fit equals explicit reference" `Quick
      test_first_fit_matches_reference;
  ]
