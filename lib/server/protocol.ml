module Json = Hlp_util.Json
module Diagnostic = Hlp_lint.Diagnostic
module Cdfg = Hlp_cdfg.Cdfg
module Power = Hlp_rtl.Power

type bind_params = {
  bench : string;
  binder : string;
  alpha : float;
  width : int;
  vectors : int;
  port_assign : bool;
  estimator : string;
  graph : Cdfg.t option;
  model : Power.model option;
}

(* Defaults mirror the CLI bind command's option defaults. *)
let default_bind_params =
  {
    bench = "";
    binder = "hlpower";
    alpha = 0.5;
    width = 8;
    vectors = 100;
    port_assign = false;
    estimator = "sim";
    graph = None;
    model = None;
  }

(* A float parameter the pipeline can actually compute with.  JSON
   cannot spell NaN, but it can spell [1e999] (parses to infinity) and
   [5e-324] (a subnormal whose reciprocal overflows) — both poison any
   downstream 1/x or accumulation, so they are rejected at the parse
   boundary rather than deep in the estimator. *)
let usable_number f =
  Float.is_finite f && Float.classify_float f <> Float.FP_subnormal

(* Inline-graph admission limits, enforced before any per-element
   validation so an oversized request costs O(1) work past the size
   check itself.  The caps are far above every committed benchmark
   (honda, the largest, has 105 ops) yet small enough that the worst
   admitted graph schedules and binds in well under a deadline. *)
let max_graph_ops = 4096
let max_graph_inputs = 256
let max_graph_outputs = 256
let max_width = 30

type explore_params = {
  ex_bench : string;
  ex_width : int;
  ex_vectors : int;
  ex_adds : int list;
  ex_mults : int list;
  ex_alphas : float list;
}

(* Grid defaults mirror Hlp_hls.Explore.default_config; width/vectors
   mirror the CLI explore command. *)
let default_explore_params =
  {
    ex_bench = "";
    ex_width = 8;
    ex_vectors = 100;
    ex_adds = [ 1; 2; 4 ];
    ex_mults = [ 1; 2; 4 ];
    ex_alphas = [ 1.0; 0.5 ];
  }

type lint_params = {
  lint_bench : string option;
  lint_binder : string;
  lint_width : int;
}

let default_lint_params =
  { lint_bench = None; lint_binder = "both"; lint_width = 8 }

(* Session ids are short server-generated tokens; the length cap keeps a
   hostile client from using the echo as a storage amplifier. *)
let max_session_id_len = 64

(* The SA table's LUT arity is caller-visible for sessions (K<2 cannot
   map the calibration datapath — the reachable S016 case); the ceiling
   matches the largest LUT any supported device family offers. *)
let max_session_k = 8

type session_delta =
  | D_add_op of {
      d_kind : Cdfg.op_kind;
      d_left : Cdfg.operand;
      d_right : Cdfg.operand;
      d_output : bool;
    }
  | D_remove_op of int
  | D_set_resource of Cdfg.fu_class * int
  | D_set_alpha of float

type session_open_params = {
  so_bench : string;
  so_graph : Cdfg.t option;
  so_binder : string;
  so_alpha : float;
  so_width : int;
  so_k : int;
  so_res_add : int option;
  so_res_mult : int option;
}

let default_session_open_params =
  {
    so_bench = "";
    so_graph = None;
    so_binder = "hlpower";
    so_alpha = 0.5;
    so_width = 8;
    so_k = 4;
    so_res_add = None;
    so_res_mult = None;
  }

type session_edit_params = { se_session : string; se_delta : session_delta }
type session_close_params = { sc_session : string }

type op =
  | Ping of int
  | Bind of bind_params
  | Flow of bind_params
  | Explore of explore_params
  | Lint of lint_params
  | Session_open of session_open_params
  | Session_edit of session_edit_params
  | Session_close of session_close_params
  | Stats
  | Cluster_stats

type request = { id : Json.t; deadline_ms : int option; op : op }

type error_code =
  | Parse_error
  | Unknown_op
  | Bad_request
  | Frame_too_large
  | Overloaded
  | Deadline_exceeded
  | Draining
  | Unavailable
  | Internal

let error_codes =
  [ (Parse_error, "parse_error"); (Unknown_op, "unknown_op");
    (Bad_request, "bad_request"); (Frame_too_large, "frame_too_large");
    (Overloaded, "overloaded"); (Deadline_exceeded, "deadline_exceeded");
    (Draining, "draining"); (Unavailable, "unavailable");
    (Internal, "internal") ]

let error_code_to_string code = List.assoc code error_codes

let error_code_of_string s =
  List.find_map (fun (code, name) -> if name = s then Some code else None)
    error_codes

type payload =
  | Result of {
      op : string;
      result : Json.t;
      telemetry : (string * int) list;
      elapsed_ms : float;
    }
  | Error of {
      code : error_code;
      message : string;
      diagnostics : Diagnostic.t list;
    }

type reply = { reply_id : Json.t; payload : payload }

let error_reply ?(diagnostics = []) ~id code fmt =
  Printf.ksprintf
    (fun message ->
      { reply_id = id; payload = Error { code; message; diagnostics } })
    fmt

(* --- encoding --- *)

let json_of_operand : Cdfg.operand -> Json.t = function
  | Cdfg.Input k -> Obj [ ("input", Int k) ]
  | Cdfg.Op j -> Obj [ ("op", Int j) ]

let json_of_graph (g : Cdfg.t) : Json.t =
  Obj
    [
      ("name", String (Cdfg.name g));
      ("inputs", Int (Cdfg.num_inputs g));
      ( "ops",
        List
          (Array.to_list
             (Array.map
                (fun (o : Cdfg.op) ->
                  Json.Obj
                    [
                      ("kind", Json.String (Cdfg.kind_to_string o.kind));
                      ("left", json_of_operand o.left);
                      ("right", json_of_operand o.right);
                    ])
                (Cdfg.ops g))) );
      ("outputs", List (List.map json_of_operand (Cdfg.outputs g)));
    ]

let json_of_delta : session_delta -> Json.t = function
  | D_add_op { d_kind; d_left; d_right; d_output } ->
      Obj
        [
          ("kind", String "add_op");
          ("op_kind", String (Cdfg.kind_to_string d_kind));
          ("left", json_of_operand d_left);
          ("right", json_of_operand d_right);
          ("output", Bool d_output);
        ]
  | D_remove_op id -> Obj [ ("kind", String "remove_op"); ("id", Int id) ]
  | D_set_resource (cls, n) ->
      Obj
        [
          ("kind", String "set_resource");
          ("class", String (Cdfg.class_to_string cls));
          ("units", Int n);
        ]
  | D_set_alpha a -> Obj [ ("kind", String "set_alpha"); ("alpha", Float a) ]

let encode_reply r =
  let fields =
    match r.payload with
    | Result { op; result; telemetry; elapsed_ms } ->
        [
          ("status", Json.String "ok");
          ("op", Json.String op);
          ("result", result);
          ( "telemetry",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) telemetry) );
          ("elapsed_ms", Json.Float elapsed_ms);
        ]
    | Error { code; message; diagnostics } ->
        [
          ("status", Json.String "error");
          ( "error",
            Json.Obj
              [
                ("code", Json.String (error_code_to_string code));
                ("message", Json.String message);
                ( "diagnostics",
                  Json.List (List.map Diagnostic.to_json diagnostics) );
              ] );
        ]
  in
  Json.to_string
    (Obj
       ((match r.reply_id with Json.Null -> [] | id -> [ ("id", id) ])
       @ fields))

(* --- decoding --- *)

(* Request validation collects one S00x diagnostic per offense instead
   of dying on the first, mirroring how the lint subsystem reports. *)

let excerpt line =
  if String.length line <= 120 then line else String.sub line 0 117 ^ "..."

type decode_error = {
  err_code : error_code;
  err_id : Json.t;
  err_diagnostics : Diagnostic.t list;
}

(* Report a diagnostic; [bad] is an S003, and [none] also yields [None]. *)
let report ~add code fmt =
  Printf.ksprintf (fun m -> add (Diagnostic.error code Design "%s" m)) fmt

let bad ~add fmt = report ~add "S003" fmt

let none ~add fmt = Printf.ksprintf (fun m -> bad ~add "%s" m; None) fmt

(* Inline-graph admission.  An untrusted graph is validated in three
   strictly ordered stages so that hostile input never reaches CDFG
   construction: (1) size limits against the raw JSON (S007) — an
   over-limit graph is rejected before any per-element work; (2)
   per-element shape and reference checks (S003 for malformed elements,
   S008 for self/forward/cyclic references and out-of-range indices,
   each located at the offending op); (3) [Cdfg.create], whose
   [Invalid_argument] is caught as a final S008 backstop.  Cycles are
   detected for free: ops are identified by list position and an operand
   may only name a {e smaller} op id, so any cycle necessarily contains
   a forward or self reference. *)
let decode_graph ~add v =
  let ok = ref true in
  let bad code loc fmt =
    Printf.ksprintf
      (fun m ->
        ok := false;
        add (Diagnostic.error code loc "%s" m))
      fmt
  in
  match v with
  | Json.Obj _ -> (
      let name =
        match Option.bind (Json.member "name" v) Json.to_string_opt with
        | Some n when n <> "" -> n
        | _ -> "inline"
      in
      let num_inputs =
        match Option.bind (Json.member "inputs" v) Json.to_int with
        | Some n when n >= 0 && n <= max_graph_inputs -> n
        | Some n when n > max_graph_inputs ->
            bad "S007" Design
              "inline graph declares %d inputs; the limit is %d" n
              max_graph_inputs;
            0
        | Some _ ->
            bad "S003" Design "graph field \"inputs\" must be non-negative";
            0
        | None ->
            bad "S003" Design
              "graph field \"inputs\" must be a non-negative integer";
            0
      in
      let ops_json =
        match Option.bind (Json.member "ops" v) Json.to_list with
        | Some l -> l
        | None ->
            bad "S003" Design "graph field \"ops\" must be a list";
            []
      in
      let outs_json =
        match Option.bind (Json.member "outputs" v) Json.to_list with
        | Some l -> l
        | None ->
            bad "S003" Design "graph field \"outputs\" must be a list";
            []
      in
      let num_ops = List.length ops_json in
      if num_ops > max_graph_ops then
        bad "S007" Design "inline graph has %d ops; the limit is %d" num_ops
          max_graph_ops;
      if List.length outs_json > max_graph_outputs then
        bad "S007" Design "inline graph has %d outputs; the limit is %d"
          (List.length outs_json) max_graph_outputs;
      if !ok && num_ops = 0 then
        bad "S003" Design "inline graph must contain at least one op";
      if !ok && outs_json = [] then
        bad "S003" Design "inline graph must name at least one output";
      if not !ok then None
      else begin
        (* [bound] is the number of ops an operand may reference: the
           op's own index while decoding ops (no self/forward edges),
           [num_ops] for primary outputs. *)
        let operand ~loc ~bound ov =
          match (Json.member "input" ov, Json.member "op" ov) with
          | Some iv, None -> (
              match Json.to_int iv with
              | Some k when k >= 0 && k < num_inputs -> Some (Cdfg.Input k)
              | Some k ->
                  bad "S008" loc
                    "operand reads input %d, but the graph declares %d \
                     inputs"
                    k num_inputs;
                  None
              | None ->
                  bad "S003" loc "operand field \"input\" must be an integer";
                  None)
          | None, Some jv -> (
              match Json.to_int jv with
              | Some j when j >= 0 && j < bound -> Some (Cdfg.Op j)
              | Some j when j >= bound && j < num_ops ->
                  bad "S008" loc
                    "operand reads op %d before it is defined — ops must \
                     be in dependency order, so cyclic graphs are \
                     rejected here"
                    j;
                  None
              | Some j ->
                  bad "S008" loc
                    "operand reads op %d, but the graph has %d ops" j
                    num_ops;
                  None
              | None ->
                  bad "S003" loc "operand field \"op\" must be an integer";
                  None)
          | _ ->
              bad "S003" loc
                "operand must be exactly one of {\"input\": k} or {\"op\": \
                 j}";
              None
        in
        let ops =
          List.mapi
            (fun i ov ->
              let loc = Diagnostic.Op i in
              let kind =
                match
                  Option.bind (Json.member "kind" ov) Json.to_string_opt
                with
                | Some "add" -> Some Cdfg.Add
                | Some "sub" -> Some Cdfg.Sub
                | Some "mult" -> Some Cdfg.Mult
                | Some other ->
                    bad "S003" loc
                      "op kind %S is not \"add\", \"sub\" or \"mult\"" other;
                    None
                | None ->
                    bad "S003" loc "op is missing a string \"kind\" field";
                    None
              in
              let field name =
                match Json.member name ov with
                | Some (Json.Obj _ as o) -> operand ~loc ~bound:i o
                | _ ->
                    bad "S003" loc "op is missing operand object %S" name;
                    None
              in
              match (kind, field "left", field "right") with
              | Some kind, Some left, Some right ->
                  Some { Cdfg.id = i; kind; left; right }
              | _ -> None)
            ops_json
        in
        let outputs =
          List.map
            (fun ov ->
              match ov with
              | Json.Obj _ -> operand ~loc:Design ~bound:num_ops ov
              | _ ->
                  bad "S003" Design
                    "graph output must be an operand object";
                  None)
            outs_json
        in
        if not !ok then None
        else
          let ops = List.filter_map Fun.id ops in
          let outputs = List.filter_map Fun.id outputs in
          match Cdfg.create ~name ~num_inputs ~ops ~outputs with
          | cdfg -> Some cdfg
          | exception Invalid_argument msg ->
              bad "S008" Design "%s" msg;
              None
      end)
  | _ ->
      bad "S003" Design "parameter \"graph\" must be an object";
      None

(* [Json.member] silently returns the first binding of a duplicated
   key, so {"alpha":0.1,"alpha":99} would validate one value and — were
   a different reader to pick the last binding — execute another.
   Reject the ambiguity outright, everywhere in the frame. *)
let rec check_duplicate_keys ~add path (v : Json.t) =
  match v with
  | Json.Obj kvs ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (k, v') ->
          if Hashtbl.mem seen k then
            add
              (Diagnostic.error "S010" Diagnostic.Design
                 "duplicate key %S in %s" k path)
          else Hashtbl.add seen k ();
          check_duplicate_keys ~add (path ^ "." ^ k) v')
        kvs
  | Json.List vs ->
      List.iteri
        (fun i v' ->
          check_duplicate_keys ~add (Printf.sprintf "%s[%d]" path i) v')
        vs
  | _ -> ()

(* --- the request schema ---

   Each op's parameters are listed once, as typed field descriptors
   over the params record the op already has.  The decoder, the
   encoder, the random request generator and the DESIGN §11 table all
   read these lists, so a parameter cannot be checked one way, fuzzed
   another and documented a third. *)

type _ ty =
  | Int : { min : int; max : int; gen_max : int } -> int ty
      (* [max = max_int]: no ceiling.  Random requests draw from
         [min..gen_max], so a drawn ping or flow is cheap to execute. *)
  | Alpha : float ty (* Eq. 4's weight: usable (S009), then in [0, 1] *)
  | Phys : { positive : bool; ceiling : float } -> float ty (* S011 *)
  | Bool : bool ty
  | Str : { max_len : int; samples : string list } -> string ty
  | Enum : string list -> string ty
  | List : 'a ty -> 'a list ty (* non-empty *)
  | Option : 'a ty -> 'a option ty
  | Obj : { fields : 'a field list; default : 'a } -> 'a ty
      (* a nested object; unlike params, it rejects unknown keys *)
  | Graph : Cdfg.t ty
  | Delta : session_delta ty

and 'r field =
  | Field : { name : string; ty : 'a ty; get : 'r -> 'a; set : 'r -> 'a -> 'r }
      -> 'r field

(* The rules no single field can state.  A field is {e given} when the
   frame carries a non-null value for it — for a string field, a
   non-empty string — whether or not that value then decodes. *)
type rule = Required of string | One_of of string * string

(* An op's parameters; [inject] and [project] map its record into and
   out of [op]. *)
type spec =
  | Op : { name : string; fields : 'r field list; rules : rule list;
           default : 'r; inject : 'r -> op; project : op -> 'r option }
      -> spec

let field name ty get set = Field { name; ty; get; set }
let range min max = Int { min; max; gen_max = max }
let at_least min ~gen_max = Int { min; max = max_int; gen_max }
let width = range 1 max_width
let vectors = at_least 1 ~gen_max:64
let binder = Enum [ "hlpower"; "lopass" ]
let session = Str { max_len = max_session_id_len; samples = [ "s-1"; "s-2" ] }
let bench_xor_graph = [ One_of ("bench", "graph") ]

let bench =
  Str { max_len = max_int; samples = [ "pr"; "wang"; "honda"; "mcm"; "nope" ] }

(* Power-model override admission.  Every field is a physical constant
   the estimator divides by or accumulates over millions of events, so
   a hostile value (NaN via 1e999-0-style tricks is unspellable in
   JSON, but infinity, subnormals and non-positive capacitances are
   not) must die here, not as a NaN power figure three layers down.
   [vdd] and [c_base_f] must be strictly positive (both are divisors /
   sole factors); per-unit adders may be zero but not negative.

   Each field also has a generous physical ceiling: a *finite* 1e308
   volt supply passes every NaN/infinity test yet overflows vdd^2
   downstream into an [inf] that the report printer would emit as
   unparseable JSON (found by hlp_fuzz).  The caps are orders of
   magnitude above any real silicon (100 V supply, 1 mF per net, 1 s
   per LUT level), so they bound every downstream product without
   constraining legitimate calibration. *)
let model =
  let phys name positive ceiling = field name (Phys { positive; ceiling }) in
  let open Power in
  Obj
    { default = default_model;
      fields =
        [ phys "vdd" true 100. (fun m -> m.vdd) (fun m vdd -> { m with vdd });
          phys "c_base_f" true 1e-3 (fun m -> m.c_base_f) (fun m c_base_f ->
              { m with c_base_f });
          phys "c_fanout_f" false 1e-3 (fun m -> m.c_fanout_f) (fun m c ->
              { m with c_fanout_f = c });
          phys "t_lut_ns" false 1e9 (fun m -> m.t_lut_ns) (fun m t_lut_ns ->
              { m with t_lut_ns });
          phys "t_route_ns" false 1e9 (fun m -> m.t_route_ns) (fun m t ->
              { m with t_route_ns = t });
          phys "t_seq_ns" false 1e9 (fun m -> m.t_seq_ns) (fun m t_seq_ns ->
              { m with t_seq_ns }) ] }

let bind_fields =
  [ field "bench" bench (fun p -> p.bench) (fun p bench -> { p with bench });
    field "binder" binder (fun p -> p.binder) (fun p binder ->
        { p with binder });
    field "alpha" Alpha (fun p -> p.alpha) (fun p alpha -> { p with alpha });
    field "width" width (fun p -> p.width) (fun p width -> { p with width });
    field "vectors" vectors (fun p -> p.vectors) (fun p vectors ->
        { p with vectors });
    field "port_assign" Bool (fun p -> p.port_assign) (fun p port_assign ->
        { p with port_assign });
    field "estimator" (Enum [ "sim"; "static"; "both" ]) (fun p -> p.estimator)
      (fun p estimator -> { p with estimator });
    field "graph" (Option Graph) (fun p -> p.graph) (fun p graph ->
        { p with graph });
    field "model" (Option model) (fun p -> p.model) (fun p model ->
        { p with model }) ]

let specs =
  let op name ?(rules = []) fields default inject project =
    Op { name; fields; rules; default; inject; project }
  in
  [ op "ping"
      [ field "sleep_ms" (at_least 0 ~gen_max:5) Fun.id (fun _ ms -> ms) ]
      0 (fun ms -> Ping ms) (function Ping ms -> Some ms | _ -> None);
    op "bind" ~rules:bench_xor_graph bind_fields default_bind_params
      (fun p -> Bind p) (function Bind p -> Some p | _ -> None);
    op "flow" ~rules:bench_xor_graph bind_fields default_bind_params
      (fun p -> Flow p) (function Flow p -> Some p | _ -> None);
    op "explore" ~rules:[ Required "bench" ]
      [ field "bench" bench (fun p -> p.ex_bench) (fun p ex_bench ->
            { p with ex_bench });
        field "width" width (fun p -> p.ex_width) (fun p ex_width ->
            { p with ex_width });
        field "vectors" vectors (fun p -> p.ex_vectors) (fun p ex_vectors ->
            { p with ex_vectors });
        field "adds" (List (at_least 1 ~gen_max:4)) (fun p -> p.ex_adds)
          (fun p ex_adds -> { p with ex_adds });
        field "mults" (List (at_least 1 ~gen_max:4)) (fun p -> p.ex_mults)
          (fun p ex_mults -> { p with ex_mults });
        field "alphas" (List Alpha) (fun p -> p.ex_alphas) (fun p ex_alphas ->
            { p with ex_alphas }) ]
      default_explore_params
      (fun p -> Explore p) (function Explore p -> Some p | _ -> None);
    op "lint"
      [ field "bench"
          (Option (Str { max_len = max_int; samples = [ "pr"; "fir8"; "x" ] }))
          (fun p -> p.lint_bench) (fun p lint_bench -> { p with lint_bench });
        field "binder" (Enum [ "hlpower"; "lopass"; "both" ])
          (fun p -> p.lint_binder) (fun p b -> { p with lint_binder = b });
        field "width" width (fun p -> p.lint_width) (fun p lint_width ->
            { p with lint_width }) ]
      default_lint_params
      (fun p -> Lint p) (function Lint p -> Some p | _ -> None);
    op "session_open" ~rules:bench_xor_graph
      [ field "bench" bench (fun p -> p.so_bench) (fun p so_bench ->
            { p with so_bench });
        field "binder" binder (fun p -> p.so_binder) (fun p so_binder ->
            { p with so_binder });
        field "alpha" Alpha (fun p -> p.so_alpha) (fun p so_alpha ->
            { p with so_alpha });
        field "width" width (fun p -> p.so_width) (fun p so_width ->
            { p with so_width });
        field "k" (range 1 max_session_k) (fun p -> p.so_k) (fun p so_k ->
            { p with so_k });
        field "graph" (Option Graph) (fun p -> p.so_graph) (fun p so_graph ->
            { p with so_graph });
        field "resources"
          (let units = Option (at_least 1 ~gen_max:4) in
           Obj
             { default = (None, None);
               fields = [ field "add" units fst (fun (_, m) a -> (a, m));
                          field "mult" units snd (fun (a, _) m -> (a, m)) ] })
          (fun p -> (p.so_res_add, p.so_res_mult))
          (fun p (a, m) -> { p with so_res_add = a; so_res_mult = m }) ]
      default_session_open_params
      (fun p -> Session_open p) (function Session_open p -> Some p | _ -> None);
    (* The placeholder delta never executes: a frame without a given
       delta breaks the [Required] rule. *)
    op "session_edit" ~rules:[ Required "session"; Required "delta" ]
      [ field "session" session (fun p -> p.se_session) (fun p se_session ->
            { p with se_session });
        field "delta" Delta (fun p -> p.se_delta) (fun p se_delta ->
            { p with se_delta }) ]
      { se_session = ""; se_delta = D_remove_op 0 }
      (fun p -> Session_edit p) (function Session_edit p -> Some p | _ -> None);
    op "session_close" ~rules:[ Required "session" ]
      [ field "session" session (fun p -> p.sc_session) (fun _ s ->
            { sc_session = s }) ]
      { sc_session = "" }
      (fun p -> Session_close p)
      (function Session_close p -> Some p | _ -> None);
    op "stats" [] () (fun () -> Stats) (function Stats -> Some () | _ -> None);
    op "cluster_stats" [] () (fun () -> Cluster_stats)
      (function Cluster_stats -> Some () | _ -> None) ]

(* The one envelope field beside [id] and [op]. *)
let deadline =
  let ms = Option (at_least 0 ~gen_max:60_000) in
  field "deadline_ms" ms Fun.id (fun _ d -> d)

let op_name op =
  let (Op s) = List.find (fun (Op s) -> Option.is_some (s.project op)) specs in
  s.name

(* --- decode, encode and draw, by type --- *)

(* [shape ty v] converts a JSON value of the right type; structured
   types are decoded by [decode] and never reach it. *)
let rec shape : type a. a ty -> Json.t -> a option =
 fun ty v ->
  match ty with
  | Int _ -> Json.to_int v
  | Alpha -> Json.to_float v
  | Phys _ -> Json.to_float v
  | Bool -> Json.to_bool v
  | Str _ -> Json.to_string_opt v
  | Enum _ -> Json.to_string_opt v
  | List t -> (
      match Option.map (List.map (shape t)) (Json.to_list v) with
      | Some (_ :: _ as xs) when List.for_all Option.is_some xs ->
          Some (List.map Option.get xs)
      | _ -> None)
  | Option _ | Obj _ | Graph | Delta -> None

(* [check ty x] reports every range offense of a converted value.  A
   list converts all its items before any is checked, so a list with
   one ill-typed item earns a single S003, not per-item checks. *)
let rec check : type a.
    add:(Diagnostic.t -> unit) -> label:(unit -> string) -> a ty -> a -> unit
    =
 fun ~add ~label ty x ->
  let diag code = report ~add code in
  let unusable = "is not a usable number (infinite, NaN or subnormal)" in
  match ty with
  | Int { min; max; _ } when x < min || x > max ->
      if max = max_int then
        bad ~add "%t must be at least %d (got %d)" label min x
      else bad ~add "%t must be within %d..%d (got %d)" label min max x
  | Alpha when not (usable_number x) -> diag "S009" "%t %s" label unusable
  | Alpha when not (x >= 0. && x <= 1.) ->
      bad ~add "%t must be within [0, 1]" label
  | Phys _ when not (usable_number x) ->
      diag "S011" "%t %s: %s" label unusable (Json.to_string (Json.Float x))
  | Phys { positive = true; _ } when x <= 0. ->
      diag "S011" "%t must be strictly positive" label
  | Phys _ when x < 0. -> diag "S011" "%t must be non-negative" label
  | Phys { ceiling; _ } when x > ceiling ->
      diag "S011" "%t is out of physical range (max %g)" label ceiling
  | Str { max_len; _ } when String.length x > max_len ->
      bad ~add "%t exceeds %d characters" label max_len
  | Enum names when not (List.mem x names) ->
      bad ~add "%t must be one of %s" label
        (String.concat ", " (List.map (Printf.sprintf "%S") names))
  | List t ->
      List.iteri
        (fun i ->
          check ~add ~label:(fun () -> Printf.sprintf "%t item %d" label i) t)
        x
  | _ -> ()

(* Delta shapes are validated here; references are checked against the
   session's current graph by the router (S014), which this decoder
   cannot see. *)
let decode_delta ~add ~label dv =
  let none fmt = none ~add fmt in
  let member k conv = Option.bind (Json.member k dv) conv in
  let operand name =
    match Json.member name dv with
    | Some (Json.Obj _ as ov) -> (
        let index k make =
          match Option.bind (Json.member k ov) Json.to_int with
          | Some i when i >= 0 -> Some (make i)
          | _ -> none "delta operand field %S must be a non-negative integer" k
        in
        match (Json.member "input" ov, Json.member "op" ov) with
        | Some _, None -> index "input" (fun k -> Cdfg.Input k)
        | None, Some _ -> index "op" (fun j -> Cdfg.Op j)
        | _ ->
            none
              "delta operand must be exactly one of {\"input\": k} or \
               {\"op\": j}")
    | _ -> none "add_op delta is missing operand object %S" name
  in
  match dv with
  | Json.Obj _ -> (
      match member "kind" Json.to_string_opt with
      | Some "add_op" -> (
          let kind =
            match member "op_kind" Json.to_string_opt with
            | Some "add" -> Some Cdfg.Add
            | Some "sub" -> Some Cdfg.Sub
            | Some "mult" -> Some Cdfg.Mult
            | Some k ->
                none "delta op_kind %S is not \"add\", \"sub\" or \"mult\"" k
            | None -> none "add_op delta is missing a string \"op_kind\" field"
          in
          let output =
            match Json.member "output" dv with
            | None | Some Json.Null -> Some false
            | Some (Json.Bool b) -> Some b
            | Some _ -> none "delta field \"output\" must be a boolean"
          in
          match (kind, operand "left", operand "right", output) with
          | Some d_kind, Some d_left, Some d_right, Some d_output ->
              Some (D_add_op { d_kind; d_left; d_right; d_output })
          | _ -> None)
      | Some "remove_op" -> (
          match member "id" Json.to_int with
          | Some id when id >= 0 -> Some (D_remove_op id)
          | _ -> none "remove_op delta requires a non-negative integer \"id\"")
      | Some "set_resource" -> (
          let cls = function "add" -> Cdfg.Add_sub | _ -> Cdfg.Multiplier in
          let units = member "units" Json.to_int in
          match (member "class" Json.to_string_opt, units) with
          | Some (("add" | "mult") as c), Some n when n >= 1 ->
              Some (D_set_resource (cls c, n))
          | Some ("add" | "mult"), _ ->
              none "set_resource delta requires a positive integer \"units\""
          | _ ->
              none
                "set_resource delta requires \"class\" of \"add\" or \
                 \"mult\"")
      | Some "set_alpha" -> (
          match member "alpha" Json.to_float with
          | Some a when not (usable_number a) ->
              check ~add ~label:(fun () -> "delta field \"alpha\"") Alpha a;
              None
          | Some a when a >= 0. && a <= 1. -> Some (D_set_alpha a)
          | _ -> none "set_alpha delta requires \"alpha\" within [0, 1]")
      | Some k -> none "unknown delta kind %S" k
      | None -> none "delta is missing a string \"kind\" field")
  | _ -> none "%t must be an object" label

(* [decode ty v] is [None] when [v] has the wrong shape (reported); a
   value that only fails its range checks is reported and returned. *)
let rec decode : type a. add:(Diagnostic.t -> unit) -> name:string ->
    label:(unit -> string) -> a ty -> Json.t -> a option =
 fun ~add ~name ~label ty v ->
  match (ty, v) with
  | Option t, _ -> Option.map Option.some (decode ~add ~name ~label t v)
  | Obj o, Json.Obj kvs ->
      let known k = List.exists (fun (Field f) -> f.name = k) o.fields in
      kvs |> List.iter (fun (k, _) ->
          if not (known k) then bad ~add "unknown %s field %S" name k);
      let label = Printf.sprintf "%s field %S" name in
      Some (decode_fields ~add ~label o.fields o.default v)
  | Obj _, _ -> none ~add "%t must be an object" label
  | Graph, _ -> decode_graph ~add v
  | Delta, _ -> decode_delta ~add ~label v
  | _ -> (
      match shape ty v with
      | Some x ->
          check ~add ~label ty x;
          Some x
      | None ->
          none ~add "%t has an invalid value: %s" label (Json.to_string v))

(* Absent and null fields keep [init]'s value. *)
and decode_fields : type r. add:(Diagnostic.t -> unit) ->
    label:(string -> string) -> r field list -> r -> Json.t -> r =
 fun ~add ~label fields init obj ->
  List.fold_left
    (fun r (Field f) ->
      match Json.member f.name obj with
      | None | Some Json.Null -> r
      | Some v -> (
          let label () = label f.name in
          match decode ~add ~name:f.name ~label f.ty v with
          | Some x -> f.set r x
          | None -> r))
    init fields

let find_field fields name = List.find (fun (Field f) -> f.name = name) fields

let given fields params name =
  let (Field f) = find_field fields name in
  match (Json.member name params, f.ty) with
  | (None | Some Json.Null), _ -> false
  | Some (Json.String s), Str _ -> s <> ""
  | Some _, Str _ -> false
  | Some _, _ -> true

let check_rule ~add fields params rule =
  let given = given fields params in
  match rule with
  | Required n when not (given n) -> bad ~add "parameter %S is required" n
  | One_of (a, b) when given a && given b ->
      bad ~add "parameters %S and %S are mutually exclusive" a b
  | One_of (a, b) when not (given a || given b) ->
      bad ~add "parameter %S or %S is required" a b
  | _ -> ()

(* [None] omits the field: an absent option, or an object with nothing
   left to say. *)
let rec encode : type a. a ty -> a -> Json.t option =
 fun ty x ->
  match ty with
  | Int _ -> Some (Json.Int x)
  | Alpha -> Some (Json.Float x)
  | Phys _ -> Some (Json.Float x)
  | Bool -> Some (Json.Bool x)
  | Str _ -> Some (Json.String x)
  | Enum _ -> Some (Json.String x)
  | List t -> Some (Json.List (List.filter_map (encode t) x))
  | Option t -> Option.bind x (encode t)
  | Obj o ->
      let kvs = encode_fields o.fields x in
      if kvs = [] then None else Some (Json.Obj kvs)
  | Graph -> Some (json_of_graph x)
  | Delta -> Some (json_of_delta x)

and encode_fields : type r. r field list -> r -> (string * Json.t) list =
 fun fields r ->
  List.filter_map
    (fun (Field f) -> Option.map (fun v -> (f.name, v)) (encode f.ty (f.get r)))
    fields

let pick rand l = List.nth l (Random.State.int rand (List.length l))

(* A CDFG the decoder admits: 1-4 inputs, 1-12 ops, 1-3 outputs. *)
let random_graph rand =
  let num_inputs = 1 + Random.State.int rand 4 in
  let num_ops = 1 + Random.State.int rand 12 in
  let operand bound =
    if bound = 0 || Random.State.bool rand then
      Cdfg.Input (Random.State.int rand num_inputs)
    else Cdfg.Op (Random.State.int rand bound)
  in
  let op id =
    let kind = pick rand [ Cdfg.Add; Cdfg.Sub; Cdfg.Mult ] in
    let left = operand id in
    { Cdfg.id; kind; left; right = operand id }
  in
  let ops = List.init num_ops op in
  let num_outputs = 1 + Random.State.int rand 3 in
  let outputs = List.init num_outputs (fun _ -> operand num_ops) in
  Cdfg.create ~name:"g" ~num_inputs ~ops ~outputs

let random_delta rand =
  let small () = Random.State.int rand 8 in
  let operand () =
    if Random.State.bool rand then Cdfg.Input (small ()) else Cdfg.Op (small ())
  in
  match Random.State.int rand 4 with
  | 0 ->
      let d_kind = pick rand [ Cdfg.Add; Cdfg.Sub; Cdfg.Mult ] in
      let d_left = operand () in
      let d_right = operand () in
      D_add_op { d_kind; d_left; d_right; d_output = Random.State.bool rand }
  | 1 -> D_remove_op (small ())
  | 2 ->
      let cls = pick rand [ Cdfg.Add_sub; Cdfg.Multiplier ] in
      D_set_resource (cls, 1 + Random.State.int rand 4)
  | _ -> D_set_alpha (Random.State.float rand 1.)

(* [gen ~given:true] draws an option present. *)
let rec gen : type a. ?given:bool -> Random.State.t -> a ty -> a =
 fun ?(given = false) rand ty ->
  match ty with
  | Int { min; gen_max; _ } -> min + Random.State.int rand (gen_max - min + 1)
  | Alpha -> Random.State.float rand 1.
  | Phys { ceiling; _ } -> ceiling -. Random.State.float rand ceiling
  | Bool -> Random.State.bool rand
  | Str { samples; _ } -> pick rand samples
  | Enum names -> pick rand names
  | List t -> List.init (1 + Random.State.int rand 3) (fun _ -> gen rand t)
  | Option t when given || Random.State.bool rand -> Some (gen rand t)
  | Option _ -> None
  | Obj o -> gen_fields rand o.fields o.default
  | Graph -> random_graph rand
  | Delta -> random_delta rand

and gen_fields : type r. Random.State.t -> r field list -> r -> r =
 fun rand fields init ->
  List.fold_left (fun r (Field f) -> f.set r (gen rand f.ty)) init fields

(* --- requests --- *)

let decode_request line =
  let reject code =
    Printf.ksprintf (fun m ->
        let err_diagnostics = [ Diagnostic.error code (Line 1) "%s" m ] in
        Stdlib.Error { err_code = Parse_error; err_id = Null; err_diagnostics })
  in
  match Json.parse line with
  | Error (pos, msg) ->
      (* Exhausting the parser's nesting budget is a resource-limit
         rejection (S012), not a syntax error: the frame may be
         perfectly well-formed JSON, just hostile to a recursive
         reader. *)
      let code = if Json.is_depth_error msg then "S012" else "S001" in
      reject code "malformed frame (byte %d: %s): %s" pos msg (excerpt line)
  | Ok (Json.Obj _ as json) -> (
      let problems = ref [] in
      let add diag = problems := diag :: !problems in
      check_duplicate_keys ~add "request" json;
      let id = Option.value ~default:Json.Null (Json.member "id" json) in
      let params =
        Option.value ~default:(Json.Obj []) (Json.member "params" json)
      in
      (* An unknown op's S002 replaces every other diagnostic so far. *)
      let unknown fmt =
        problems := [];
        Printf.ksprintf (fun m -> report ~add "S002" "%s" m; None) fmt
      in
      let op =
        match Json.member "op" json with
        | Some (Json.String name) -> (
            match List.find_opt (fun (Op s) -> s.name = name) specs with
            | Some (Op s) ->
                let label = Printf.sprintf "parameter %S" in
                let p = decode_fields ~add ~label s.fields s.default params in
                List.iter (check_rule ~add s.fields params) s.rules;
                Some (s.inject p)
            | None -> unknown "unknown op %S" name)
        | Some _ | None -> unknown "missing or non-string \"op\" field"
      in
      let label = Printf.sprintf "field %S" in
      let deadline_ms = decode_fields ~add ~label [ deadline ] None json in
      match (op, List.rev !problems) with
      | Some op, [] -> Ok { id; deadline_ms; op }
      | op, err_diagnostics ->
          let err_code = if op = None then Unknown_op else Bad_request in
          Stdlib.Error { err_code; err_id = id; err_diagnostics })
  | Ok json ->
      reject "S001" "frame is not a JSON object: %s"
        (excerpt (Json.to_string json))

let encode_request r =
  let params (Op s) =
    Option.map (fun p -> (s.name, encode_fields s.fields p)) (s.project r.op)
  in
  let name, kvs = Option.get (List.find_map params specs) in
  Json.to_string
    (Json.Obj
       ((match r.id with Json.Null -> [] | id -> [ ("id", id) ])
       @ encode_fields [ deadline ] r.deadline_ms
       @ [ ("op", Json.String name) ]
       @ match kvs with [] -> [] | kvs -> [ ("params", Json.Obj kvs) ]))

let random_request rand =
  let (Op s) = pick rand specs in
  let set ~to_default p n =
    let (Field f) = find_field s.fields n in
    f.set p (if to_default then f.get s.default else gen ~given:true rand f.ty)
  in
  let obey p = function
    | Required n -> set ~to_default:false p n
    | One_of (a, b) ->
        let a, b = if Random.State.bool rand then (a, b) else (b, a) in
        set ~to_default:true (set ~to_default:false p a) b
  in
  let p = List.fold_left obey (gen_fields rand s.fields s.default) s.rules in
  let printable _ = Char.chr (32 + Random.State.int rand 95) in
  let id =
    match Random.State.int rand 3 with
    | 0 -> Json.Int (Random.State.int rand 1_000_000)
    | 1 -> Json.String (String.init (Random.State.int rand 13) printable)
    | _ -> Json.Null
  in
  { id; deadline_ms = gen_fields rand [ deadline ] None; op = s.inject p }

(* --- the DESIGN §11 parameter table --- *)

(* [describe ty] is its type, range or allowed values, and S-codes. *)
let rec describe : type a. a ty -> string * string * string = function
  | Int { min; max; _ } when max = max_int ->
      ("int", Printf.sprintf "≥ %d" min, "S003")
  | Int { min; max; _ } -> ("int", Printf.sprintf "%d‥%d" min max, "S003")
  | Alpha -> ("float", "[0, 1]", "S003, S009")
  | Phys { positive; ceiling } ->
      let lo = if positive then "(0" else "[0" in
      ("float", Printf.sprintf "%s, %g]" lo ceiling, "S003, S011")
  | Bool -> ("bool", "`true`, `false`", "S003")
  | Str { max_len; _ } when max_len = max_int -> ("string", "any", "S003")
  | Str { max_len; _ } ->
      ("string", Printf.sprintf "≤ %d bytes" max_len, "S003")
  | Enum names ->
      let quote = List.map (Printf.sprintf "`%s`") names in
      ("string", String.concat ", " quote, "S003")
  | List t ->
      let ty, range, codes = describe t in
      ("list of " ^ ty, "non-empty; each " ^ range, codes)
  | Option t -> describe t
  | Obj _ -> ("object", "the fields below; no others", "S003")
  | Graph ->
      ( "graph",
        Printf.sprintf "≤ %d ops, ≤ %d inputs, ≤ %d outputs" max_graph_ops
          max_graph_inputs max_graph_outputs,
        "S003, S007, S008" )
  | Delta ->
      let kinds = "`add_op`, `remove_op`, `set_resource`, `set_alpha`" in
      ("delta", kinds, "S003, S009")

let params_table () =
  let rec rows : type r.
      string -> (string -> string option) -> r field list -> r -> string list =
   fun prefix note fields r ->
    List.concat_map
      (fun (Field f) ->
        let name = prefix ^ f.name in
        let x = f.get r in
        let default =
          match (note f.name, f.ty, encode f.ty x) with
          | Some n, _, _ -> n
          | None, _, None -> "absent"
          | None, Phys _, _ -> Printf.sprintf "`%g`" x
          | None, _, Some v -> "`" ^ Json.to_string v ^ "`"
        in
        let ty, range, codes = describe f.ty in
        Printf.sprintf "`%s` | %s | %s | %s | %s" name ty range default codes
        ::
        (match f.ty with
        | Obj o -> rows (name ^ ".") (fun _ -> None) o.fields o.default
        | Option (Obj o) -> rows (name ^ ".") (fun _ -> None) o.fields o.default
        | _ -> []))
      fields
  in
  let body (Op s) =
    let note n =
      List.find_map
        (function
          | Required r when r = n -> Some "required"
          | One_of (a, b) when n = a || n = b ->
              Some (Printf.sprintf "`%s` xor `%s` required" a b)
          | _ -> None)
        s.rules
    in
    match s.fields with
    | [] -> [ "— | — | — | — | —" ]
    | fields -> rows "" note fields s.default
  in
  (* Ops with the same parameters (bind and flow) share their rows. *)
  let rec lines = function
    | [] -> []
    | spec :: rest ->
        let rows = body spec in
        let same, rest = List.partition (fun s -> body s = rows) rest in
        let name (Op s) = s.name in
        let ops = String.concat ", " (List.map name (spec :: same)) in
        List.map (Printf.sprintf "| %s | %s |" ops) rows @ lines rest
  in
  "| op | field | type | range or values | default | S-code |\n\
   |---|---|---|---|---|---|\n"
  ^ String.concat "\n"
      (List.map (Printf.sprintf "| any | %s |")
         (rows "" (fun _ -> None) [ deadline ] None)
      @ lines specs)
  ^ "\n"

let decode_reply line =
  match Json.parse line with
  | Error (pos, msg) -> Stdlib.Error (Printf.sprintf "byte %d: %s" pos msg)
  | Ok json -> (
      let reply_id = Option.value ~default:Json.Null (Json.member "id" json) in
      match Option.bind (Json.member "status" json) Json.to_string_opt with
      | Some "ok" -> (
          match
            ( Option.bind (Json.member "op" json) Json.to_string_opt,
              Json.member "result" json )
          with
          | Some op, Some result ->
              let telemetry =
                match Json.member "telemetry" json with
                | Some (Json.Obj kvs) ->
                    List.filter_map
                      (fun (k, v) ->
                        Option.map (fun i -> (k, i)) (Json.to_int v))
                      kvs
                | _ -> []
              in
              let elapsed_ms =
                Option.value ~default:0.
                  (Option.bind (Json.member "elapsed_ms" json) Json.to_float)
              in
              Ok
                {
                  reply_id;
                  payload = Result { op; result; telemetry; elapsed_ms };
                }
          | _ -> Stdlib.Error "ok reply missing \"op\" or \"result\"")
      | Some "error" -> (
          match Json.member "error" json with
          | Some err -> (
              let str name =
                Option.bind (Json.member name err) Json.to_string_opt
              in
              match Option.bind (str "code") error_code_of_string with
              | Some code ->
                  let diagnostics =
                    match Json.member "diagnostics" err with
                    | Some (Json.List ds) ->
                        List.filter_map Diagnostic.of_json ds
                    | _ -> []
                  in
                  Ok
                    {
                      reply_id;
                      payload =
                        Error
                          {
                            code;
                            message = Option.value ~default:"" (str "message");
                            diagnostics;
                          };
                    }
              | None ->
                  Stdlib.Error "error reply carries an unknown \"code\"")
          | None -> Stdlib.Error "error reply missing \"error\" object")
      | _ -> Stdlib.Error "reply missing \"status\"")

(* --- framing --- *)

let default_max_frame = 1 lsl 20

type reader = {
  fd : Unix.file_descr;
  max_frame : int;
  chunk : Bytes.t;
  mutable chunk_len : int;  (* valid bytes in [chunk] *)
  mutable chunk_pos : int;  (* consumed bytes in [chunk] *)
  buf : Buffer.t;  (* current partial frame, capped at [max_frame] *)
  mutable overflow : int;  (* bytes discarded of an oversized frame *)
}

let reader_of_fd ?(max_frame = default_max_frame) fd =
  {
    fd;
    max_frame;
    chunk = Bytes.create 65536;
    chunk_len = 0;
    chunk_pos = 0;
    buf = Buffer.create 512;
    overflow = 0;
  }

let refill r =
  r.chunk_pos <- 0;
  r.chunk_len <-
    (try Unix.read r.fd r.chunk 0 (Bytes.length r.chunk)
     with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0);
  r.chunk_len > 0

let read_frame r =
  let rec loop () =
    if r.chunk_pos >= r.chunk_len then
      if refill r then loop ()
      else if r.overflow > 0 then (
        (* Oversized frame truncated by EOF.  Count and discard the
           buffered prefix too, as the newline path does — otherwise the
           next call would hand that prefix back as a spurious frame. *)
        let n = r.overflow + Buffer.length r.buf in
        r.overflow <- 0;
        Buffer.clear r.buf;
        `Too_large n)
      else if Buffer.length r.buf > 0 then (
        let line = Buffer.contents r.buf in
        Buffer.clear r.buf;
        `Frame line)
      else `Eof
    else
      let c = Bytes.get r.chunk r.chunk_pos in
      r.chunk_pos <- r.chunk_pos + 1;
      if c = '\n' then
        if r.overflow > 0 then (
          let n = r.overflow + Buffer.length r.buf in
          r.overflow <- 0;
          Buffer.clear r.buf;
          `Too_large n)
        else (
          let line = Buffer.contents r.buf in
          Buffer.clear r.buf;
          `Frame line)
      else (
        if r.overflow > 0 then r.overflow <- r.overflow + 1
        else if Buffer.length r.buf >= r.max_frame then (
          (* Stop buffering: from here on the frame is only counted, so
             an arbitrarily long line costs O(max_frame) memory. *)
          r.overflow <- 1)
        else Buffer.add_char r.buf c;
        loop ())
  in
  loop ()

(* [Unix.write] raises EINTR instead of retrying; a SIGTERM landing
   mid-drain used to abort a frame halfway through the loop.  Retrying
   EINTR here means a signal can no longer tear a frame on its own —
   only a real write error can. *)
let rec write_chunk fd data off len =
  match Unix.write fd data off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_chunk fd data off len

let write_frame fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let written = ref 0 in
  while !written < len do
    written := !written + write_chunk fd data !written (len - !written)
  done

type writer = {
  wfd : Unix.file_descr;
  wmu : Mutex.t;
  mutable poisoned : bool;
}

let writer_of_fd fd = { wfd = fd; wmu = Mutex.create (); poisoned = false }
let writer_poisoned w = w.poisoned

(* A newline-delimited stream has no frame boundaries other than the
   bytes themselves, so a frame that fails after a partial write leaves
   the peer mid-line: every subsequent frame would be parsed as the
   tail of the torn one.  Once that happens the only sound move is to
   poison the connection — shut down the write side so the peer sees
   EOF at the tear — and drop all later frames.  A failure with zero
   bytes written leaves the stream intact and is reported as [`Error]:
   the caller may drop that one reply without corrupting the next. *)
let write_framed w line =
  Mutex.lock w.wmu;
  let result =
    if w.poisoned then `Dropped
    else begin
      let data = Bytes.of_string (line ^ "\n") in
      let len = Bytes.length data in
      let written = ref 0 in
      match
        while !written < len do
          written := !written + write_chunk w.wfd data !written (len - !written)
        done
      with
      | () -> `Ok
      | exception Unix.Unix_error _ ->
          if !written = 0 then `Error
          else begin
            w.poisoned <- true;
            (try Unix.shutdown w.wfd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            `Poisoned
          end
    end
  in
  Mutex.unlock w.wmu;
  result
