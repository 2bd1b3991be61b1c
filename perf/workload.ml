(* The four workloads: their request kinds, the seeded per-client
   request streams, and the warm-up pass that precedes every measured
   window. *)

module Protocol = Hlp_server.Protocol
module Benchmarks = Hlp_cdfg.Benchmarks
module Cdfg = Hlp_cdfg.Cdfg
module Rng = Hlp_util.Rng

type t = Flow_mix | Bind_mix | Session_edits | Bind_head

let all = [ Flow_mix; Bind_mix; Session_edits; Bind_head ]

let to_string = function
  | Flow_mix -> "flow-mix"
  | Bind_mix -> "bind-mix"
  | Session_edits -> "session-edits"
  | Bind_head -> "bind-head"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* [bind-head] replays the [bind-mix] stream byte for byte: its
   difference from [bind-mix] is the relay layer and nothing else. *)
type stream = Flow_stream | Bind_stream | Session_stream

let stream_of = function
  | Flow_mix -> Flow_stream
  | Bind_mix | Bind_head -> Bind_stream
  | Session_edits -> Session_stream

let stream_name = function
  | Flow_stream -> "flow"
  | Bind_stream -> "bind"
  | Session_stream -> "session"

let clients = 2

(* A stateless request: one [bind] or [flow] of a named benchmark. *)
type kind = {
  op : [ `Bind | `Flow ];
  bench : string;
  binder : string;
  alpha : float;
  width : int;
}

let binder_label k =
  if k.binder = "lopass" then "lopass" else Printf.sprintf "hlpower-a%.1f" k.alpha

let kind_name k =
  Printf.sprintf "%s/%s/%s/w%d"
    (match k.op with `Bind -> "bind" | `Flow -> "flow")
    k.bench (binder_label k) k.width

let benches = List.map (fun p -> p.Benchmarks.bench_name) Benchmarks.all
let binders = [ ("lopass", 0.5); ("hlpower", 1.0); ("hlpower", 0.5) ]

let kinds op widths =
  List.concat_map
    (fun width ->
      List.concat_map
        (fun bench ->
          List.map
            (fun (binder, alpha) -> { op; bench; binder; alpha; width })
            binders)
        benches)
    widths

(* The Sec. 6 evaluation setting: width 16, 150 vectors, simulation. *)
let flow_kinds = kinds `Flow [ 16 ]
let bind_kinds = kinds `Bind [ 8; 16 ]

let op_of_kind k : Protocol.op =
  let p =
    {
      Protocol.default_bind_params with
      bench = k.bench;
      binder = k.binder;
      alpha = k.alpha;
      width = k.width;
      vectors = 150;
      estimator = "sim";
    }
  in
  match k.op with `Bind -> Protocol.Bind p | `Flow -> Protocol.Flow p

(* One incremental session: open [bench], then for each planned op run
   the cycle add, remove, add again, remove — so three of every four
   edits revisit a graph state the session has already bound — then
   close. *)
type edit = { e_kind : Cdfg.op_kind; e_left : Cdfg.operand; e_right : Cdfg.operand }

type session = { bench_s : string; base_ops : int; cycles : edit list }

let session_width = 16
let cycles_per_session = 5

let edit_name e =
  let operand = function
    | Cdfg.Input k -> Printf.sprintf "i%d" k
    | Cdfg.Op j -> Printf.sprintf "o%d" j
  in
  Printf.sprintf "%s(%s,%s)" (Cdfg.kind_to_string e.e_kind) (operand e.e_left)
    (operand e.e_right)

let base_graph bench = Benchmarks.generate (Benchmarks.find bench)

let plan_session rng bench ~cycles =
  let g = base_graph bench in
  let operand () =
    if Rng.bool rng then Cdfg.Input (Rng.int rng (Cdfg.num_inputs g))
    else Cdfg.Op (Rng.int rng (Cdfg.num_ops g))
  in
  let edit () =
    let e_kind = Rng.pick rng [| Cdfg.Add; Cdfg.Sub; Cdfg.Mult |] in
    let e_left = operand () in
    let e_right = operand () in
    { e_kind; e_left; e_right }
  in
  { bench_s = bench; base_ops = Cdfg.num_ops g; cycles = List.init cycles (fun _ -> edit ()) }

let session_open_op s : Protocol.op =
  Protocol.Session_open
    {
      Protocol.default_session_open_params with
      so_bench = s.bench_s;
      so_width = session_width;
    }

let add_op_op ~session e : Protocol.op =
  Protocol.Session_edit
    {
      se_session = session;
      se_delta =
        Protocol.D_add_op
          { d_kind = e.e_kind; d_left = e.e_left; d_right = e.e_right; d_output = true };
    }

let remove_op_op ~session s : Protocol.op =
  (* The added op is appended, so its id is the base graph's op count. *)
  Protocol.Session_edit { se_session = session; se_delta = Protocol.D_remove_op s.base_ops }

let close_op ~session : Protocol.op =
  Protocol.Session_close { sc_session = session }

(* A job is what one client runs start to finish before taking the next
   one: a single request, or a whole session. *)
type job = Single of kind | Session of session

(* Per-client round length measured at this commit on a 2-core host,
   with both clients loading the daemon.  Frozen: the fewest whole
   rounds that last at least [--seconds] fix each workload's request
   count, so two commits always measure the same work — at --seconds
   15, two flow rounds, twelve bind rounds and nine session rounds per
   client. *)
let round_seconds = function
  | Flow_stream -> 13.6
  | Bind_stream -> 1.27
  | Session_stream -> 1.69

(* One round is a seeded permutation of every kind (every benchmark for
   sessions), so the seed changes the order in which the daemon sees the
   kinds but never the mix — which keeps throughput comparable across
   seeds. *)
let round rng stream =
  let jobs =
    match stream with
    | Flow_stream -> Array.of_list (List.map (fun k -> Single k) flow_kinds)
    | Bind_stream -> Array.of_list (List.map (fun k -> Single k) bind_kinds)
    | Session_stream ->
        Array.of_list
          (List.map
             (fun b -> Session (plan_session rng b ~cycles:cycles_per_session))
             benches)
  in
  Rng.shuffle rng jobs;
  Array.to_list jobs

let rounds_for stream ~seconds =
  max 1 (int_of_float (Float.ceil (seconds /. round_seconds stream)))

let client_jobs stream ~seed ~seconds ~client =
  List.concat
    (List.init (rounds_for stream ~seconds) (fun r ->
         let rng =
           Rng.create
             (Printf.sprintf "perf/%s/seed%d/c%d/r%d" (stream_name stream) seed
                client r)
         in
         round rng stream))

(* Untimed warm-up: one hlpower bind per (benchmark, width, alpha) at
   the stream's widths.  Alpha 1.0 merges differently from 0.5 and asks
   the SA tables for entries 0.5 never touches, so warming one alpha
   would leave table misses inside the measured window.  Sessions add an
   open/close per benchmark, since their ASAP schedules bind different
   partial datapaths than the Table 2 schedules; they keep the binds
   too, because the edits' added ops reach entries only the binds fill. *)
let warmup stream =
  let hlp widths =
    List.concat_map
      (fun width ->
        List.concat_map
          (fun bench ->
            List.map
              (fun alpha ->
                Single { op = `Bind; bench; binder = "hlpower"; alpha; width })
              [ 1.0; 0.5 ])
          benches)
      widths
  in
  match stream with
  | Flow_stream -> hlp [ 16 ]
  | Bind_stream -> hlp [ 16; 8 ]
  | Session_stream ->
      hlp [ session_width ]
      @ List.map
          (fun b -> Session { bench_s = b; base_ops = Cdfg.num_ops (base_graph b); cycles = [] })
          benches
