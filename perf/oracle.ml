(* Correctness oracle for [wrong_outputs].

   - Every [bind] and [flow] result must match the digest recorded for
     its kind in expected.json (21 flow kinds, 42 bind kinds, so the
     check does not depend on the seed).
   - Flow results of the kinds BENCH_pr10.json reports must equal its
     [designs] row bit for bit on the six Sec. 6 metrics; the rows are
     copied into expected.json when it is recorded.
   - A session that returns to a graph state it has already bound must
     answer with the same [bind] object (see {!Loadgen}). *)

module Json = Hlp_server.Json

type t = {
  digests : (string, string) Hashtbl.t;
  sec6 : (string, (string * Json.t) list) Hashtbl.t;
}

let schema = "hlp-perf-expected-v1"

(* BENCH_pr10.json [designs] field, and the flow report field it pins. *)
let sec6_fields =
  [
    ("power_mw", "dynamic_power_mw");
    ("clock_ns", "clock_period_ns");
    ("luts", "luts");
    ("largest_mux", "largest_mux");
    ("mux_length", "mux_length");
    ("toggle_mhz", "toggle_rate_mhz");
  ]

(* In-process results splice the flow report in as [Json.Raw]; parsing
   the printed value gives the same tree a wire client decodes,
   whichever side produced it. *)
let decoded v = match Json.parse (Json.to_string v) with Ok v -> v | Error _ -> v
let digest v = Digest.to_hex (Digest.string (Json.to_string (decoded v)))

let same_number a b =
  match (Json.to_float a, Json.to_float b) with
  | Some x, Some y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let parse_file path =
  match Proc.read_file path with
  | None -> failwith (path ^ ": cannot read")
  | Some s -> (
      match Json.parse s with
      | Ok v -> v
      | Error (pos, msg) -> failwith (Printf.sprintf "%s: byte %d: %s" path pos msg))

let obj_fields = function Some (Json.Obj l) -> l | _ -> []

let load path =
  let v = parse_file path in
  if Option.bind (Json.member "schema" v) Json.to_string_opt <> Some schema then
    failwith (path ^ ": not an " ^ schema ^ " file");
  let digests = Hashtbl.create 64 and sec6 = Hashtbl.create 16 in
  List.iter
    (fun (k, d) ->
      match Json.to_string_opt d with
      | Some d -> Hashtbl.replace digests k d
      | None -> failwith (path ^ ": digest of " ^ k ^ " is not a string"))
    (obj_fields (Json.member "kinds" v));
  List.iter
    (fun (k, row) -> Hashtbl.replace sec6 k (obj_fields (Some row)))
    (obj_fields (Json.member "sec6" v));
  { digests; sec6 }

(* The first Sec. 6 field of flow [result] that differs from [row]. *)
let sec6_problem ~name row result =
  let result = decoded result in
  List.find_map
    (fun (bench_field, report_field) ->
      match (List.assoc_opt bench_field row, Json.member report_field result) with
      | Some want, Some got when same_number want got -> None
      | _ -> Some (Printf.sprintf "%s: %s differs from BENCH_pr10.json" name report_field))
    sec6_fields

(* [None] when [result] is right for [kind], else the first problem. *)
let check t (kind : Workload.kind) result =
  let name = Workload.kind_name kind in
  match Hashtbl.find_opt t.digests name with
  | None -> Some (name ^ ": no expected digest")
  | Some d when d <> digest result -> Some (name ^ ": result digest differs")
  | Some _ -> Option.bind (Hashtbl.find_opt t.sec6 name) (fun row -> sec6_problem ~name row result)

(* The Sec. 6 rows of a bench report, keyed by the flow kind that
   reproduces each. *)
let sec6_of_bench_report path =
  let v = parse_file path in
  let meta = Json.member "meta" v in
  let int_meta key = Option.bind (Option.bind meta (Json.member key)) Json.to_int in
  let width =
    match (int_meta "width", int_meta "vectors") with
    | Some w, Some 150 -> w
    | _ -> failwith (path ^ ": expected a width-N, 150-vector bench report")
  in
  List.map
    (fun row ->
      let str key = Option.bind (Json.member key row) Json.to_string_opt in
      let binder, alpha =
        match str "binder" with
        | Some "lopass" -> ("lopass", 0.5)
        | Some "hlp-a1.0" -> ("hlpower", 1.0)
        | Some "hlp-a0.5" -> ("hlpower", 0.5)
        | _ -> failwith (path ^ ": unknown binder in designs")
      in
      let kind =
        { Workload.op = `Flow; bench = Option.get (str "bench"); binder; alpha; width }
      in
      ( Workload.kind_name kind,
        List.filter_map
          (fun (f, _) -> Option.map (fun x -> (f, x)) (Json.member f row))
          sec6_fields ))
    (match Json.member "designs" v with
    | Some (Json.List rows) -> rows
    | _ -> failwith (path ^ ": no designs"))

(* One entry per line, so a re-recording diffs readably. *)
let write path ~digests ~sec6 =
  let entries l render =
    String.concat ",\n"
      (List.map (fun (k, v) -> Printf.sprintf "    %s: %s" (Json.to_string (Json.String k)) (render v)) l)
  in
  let body =
    Printf.sprintf "{\n  \"schema\": %S,\n  \"kinds\": {\n%s\n  },\n  \"sec6\": {\n%s\n  }\n}\n"
      schema
      (entries digests (fun d -> Json.to_string (Json.String d)))
      (entries sec6 (fun row -> Json.to_string (Json.Obj row)))
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc body)
