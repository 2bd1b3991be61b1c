(* The traced pass: the first jobs of one workload's stream, replayed
   in this process through [Router.handle ~checkpoint] on a fresh
   router, with the same warm-up as the daemon.  Each request runs four
   times, twice with a no-op checkpoint and twice with a recording one,
   alternating the kinds and which goes first; the faster run of each
   kind is kept, and their difference is the tracing overhead.  The
   checkpoint names split a request into layers: [prepare] runs from
   [handle] entry to the first checkpoint, each named layer from its
   checkpoint to the next, and the last ends when [handle] returns. *)

module Router = Hlp_server.Router
module Protocol = Hlp_server.Protocol
module Json = Hlp_server.Json
module Clock = Hlp_util.Clock
module Telemetry = Hlp_util.Telemetry

let layers = [ "prepare"; "session"; "bind"; "elaborate"; "map"; "lint"; "sim"; "power" ]

type req = {
  client : int;
  index : int;
  op : string;
  bench : string;
  noop_ms : float;
  rec_ms : float;
  spans : (string * float * float) list;
      (** layer, start and end in ms after [handle] entry, in order *)
  cached : bool;
  telemetry : (string * int) list;
}

type result = { reqs : req list; failed : int; wrong : int }

let self_ms r layer =
  List.fold_left (fun acc (l, s, e) -> if l = layer then acc +. (e -. s) else acc) 0. r.spans

let has_layer r layer = List.exists (fun (l, _, _) -> l = layer) r.spans

(* One run of [op]: result, scoped telemetry, milliseconds, and the
   spans when [record]. *)
let exec router ~record op =
  let marks = ref [] in
  let checkpoint =
    if record then fun name -> marks := (name, Clock.monotonic ()) :: !marks else ignore
  in
  let t0 = Clock.monotonic () in
  let r, telemetry = Telemetry.with_scope (fun () -> Router.handle router ~checkpoint op) in
  let t1 = Clock.monotonic () in
  let ms t = (t -. t0) *. 1000. in
  let rec spans name start = function
    | [] -> [ (name, ms start, ms t1) ]
    | (next, t) :: rest -> (name, ms start, ms t) :: spans next t rest
  in
  (r, telemetry, ms t1, if record then spans "prepare" t0 (List.rev !marks) else [])

(* Copies of every request: even ones untraced, odd ones recorded. *)
let copies = 4

(* The first [jobs] jobs of each client's [stream], interleaved client
   by client as the closed loop dispatches them. *)
let run stream ~seed ~seconds ~oracle ~jobs =
  let router = Router.create () in
  let failed = ref 0 and wrong = ref 0 and reqs = ref [] and parity = ref false in
  let fail what =
    incr failed;
    Loadgen.report "traced %s failed" what
  in
  let session_id r = Option.bind (Json.member "session" r) Json.to_string_opt in
  let warm = function
    | Workload.Single k -> (
        match exec router ~record:false (Workload.op_of_kind k) with
        | Ok _, _, _, _ -> ()
        | Error _, _, _, _ -> fail ("warm-up " ^ Workload.kind_name k))
    | Workload.Session s -> (
        match exec router ~record:false (Workload.session_open_op s) with
        | Ok r, _, _, _ when session_id r <> None ->
            ignore
              (exec router ~record:false
                 (Workload.close_op ~session:(Option.get (session_id r))))
        | _ -> fail ("warm-up session_open " ^ s.bench_s))
  in
  List.iter warm (Workload.warmup stream);
  let lists =
    Array.init Workload.clients (fun client ->
        Array.of_list (Workload.client_jobs stream ~seed ~seconds ~client))
  in
  let index = Array.make Workload.clients 0 in
  (* Run request copy [c] as [ops.(c)] (copies differ only for
     sessions, each copy being its own session); the results, or [None]
     if any copy failed. *)
  let request ~client ~bench ops =
    let i = index.(client) in
    index.(client) <- i + 1;
    parity := not !parity;
    let order = if !parity then [ 0; 1; 2; 3 ] else [ 1; 0; 3; 2 ] in
    let runs = Array.make copies None in
    List.iter
      (fun c ->
        runs.(c) <-
          (match exec router ~record:(c mod 2 = 1) ops.(c) with
          | Ok v, tel, ms, spans -> Some (v, tel, ms, spans)
          | Error _, _, _, _ -> None))
      order;
    if Array.exists Option.is_none runs then begin
      fail (Printf.sprintf "c%d-%d %s" client i (Protocol.op_name ops.(0)));
      None
    end
    else begin
      let runs = Array.map Option.get runs in
      let fastest record =
        let best = ref None in
        Array.iteri
          (fun c ((_, _, ms, _) as run) ->
            match !best with
            | _ when c mod 2 <> Bool.to_int record -> ()
            | Some (_, _, b, _) when b <= ms -> ()
            | _ -> best := Some run)
          runs;
        Option.get !best
      in
      let res, tel, noop_ms, _ = fastest false and _, _, rec_ms, spans = fastest true in
      reqs :=
        {
          client;
          index = i;
          op = Protocol.op_name ops.(0);
          bench;
          noop_ms;
          rec_ms;
          spans;
          cached = Json.member "cached" res = Some (Json.Bool true);
          telemetry = tel;
        }
        :: !reqs;
      Some (Array.map (fun (r, _, _, _) -> r) runs)
    end
  in
  let run_job client = function
    | Workload.Single k -> (
        match request ~client ~bench:k.bench (Array.make copies (Workload.op_of_kind k)) with
        | Some results ->
            Array.iter
              (fun r ->
                match Oracle.check oracle k r with
                | Some msg ->
                    incr wrong;
                    Loadgen.report "traced wrong output: %s" msg
                | None -> ())
              results
        | None -> ())
    | Workload.Session s -> (
        let bench = s.bench_s in
        match request ~client ~bench (Array.make copies (Workload.session_open_op s)) with
        | None -> ()
        | Some opened -> (
            match Array.map session_id opened with
            | ids when Array.for_all Option.is_some ids ->
                let ids = Array.map Option.get ids in
                let edit f = Option.is_some (request ~client ~bench (Array.map f ids)) in
                let add session = Workload.add_op_op ~session in
                let remove session = Workload.remove_op_op ~session s in
                let rec cycles = function
                  | [] -> ()
                  | e :: rest ->
                      if
                        edit (fun id -> add id e)
                        && edit remove
                        && edit (fun id -> add id e)
                        && edit remove
                      then cycles rest
                in
                cycles s.cycles;
                ignore (edit (fun session -> Workload.close_op ~session))
            | _ -> fail (bench ^ " session_open without id")))
  in
  for j = 0 to jobs - 1 do
    Array.iteri
      (fun client l -> if j < Array.length l then run_job client l.(j))
      lists
  done;
  { reqs = List.rev !reqs; failed = !failed; wrong = !wrong }

(* Spans stay in memory until the run ends; then one line per span. *)
let write_spans path stream reqs =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun r ->
          let id = Printf.sprintf "%s/c%d-%d" (Workload.stream_name stream) r.client r.index in
          let line name start end_ parent =
            output_string oc
              (Json.to_string
                 (Json.Obj
                    [
                      ("req", Json.String id);
                      ("op", Json.String r.op);
                      ("bench", Json.String r.bench);
                      ("name", Json.String name);
                      ("start_ms", Json.Float start);
                      ("end_ms", Json.Float end_);
                      ("parent", parent);
                    ]));
            output_char oc '\n'
          in
          line "handle" 0. r.rec_ms Json.Null;
          List.iter (fun (l, s, e) -> line l s e (Json.String "handle")) r.spans)
        reqs)
