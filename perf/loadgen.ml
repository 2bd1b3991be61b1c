(* Closed-loop load from one process: one thread and one connection per
   client, each sending its next request only once the previous reply
   is decoded.  No retries: a transport failure or an error reply is a
   failed request.  Every reply is checked against the oracle as it
   arrives. *)

module Client = Hlp_server.Client
module Protocol = Hlp_server.Protocol
module Json = Hlp_server.Json
module Clock = Hlp_util.Clock

type sample = {
  client : int;
  index : int;  (** position in the client's request stream *)
  lat_ms : float;  (** from send until the reply is decoded *)
  service_ms : float;  (** the reply's [elapsed_ms] *)
  telemetry : (string * int) list;
}

type result = {
  samples : sample list;
  attempted : int;
  failed : int;
  wrong : int;
  wall_s : float;  (** first send to last reply *)
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable samples : sample list;
  mutable last_reply : float;
}

let reported = Atomic.make 0

let report fmt =
  Printf.ksprintf
    (fun msg ->
      if Atomic.fetch_and_add reported 1 < 10 then prerr_endline ("perf: " ^ msg))
    fmt

let run_client ~socket ~oracle ~client ~next conn tally =
  let conn = ref conn in
  let index = ref 0 in
  let wrong msg =
    tally.wrong <- tally.wrong + 1;
    report "wrong output: %s" msg
  in
  let request op =
    let i = !index in
    incr index;
    tally.attempted <- tally.attempted + 1;
    let id = Json.String (Printf.sprintf "c%d-%d" client i) in
    let t0 = Clock.monotonic () in
    match
      try Client.request !conn { Protocol.id; deadline_ms = None; op }
      with Unix.Unix_error (e, fn, _) -> Error (fn ^ ": " ^ Unix.error_message e)
    with
    | Error msg ->
        tally.failed <- tally.failed + 1;
        report "c%d-%d %s: transport failure: %s" client i (Protocol.op_name op) msg;
        Client.close !conn;
        conn := Client.connect socket;
        None
    | Ok { Protocol.payload = Protocol.Error { code; message; _ }; _ } ->
        tally.failed <- tally.failed + 1;
        report "c%d-%d %s: %s: %s" client i (Protocol.op_name op)
          (Protocol.error_code_to_string code) message;
        None
    | Ok { Protocol.payload = Protocol.Result { result; telemetry; elapsed_ms; _ }; _ } ->
        let t1 = Clock.monotonic () in
        tally.last_reply <- t1;
        tally.samples <-
          {
            client;
            index = i;
            lat_ms = (t1 -. t0) *. 1000.;
            service_ms = elapsed_ms;
            telemetry;
          }
          :: tally.samples;
        Some result
  in
  let session (s : Workload.session) =
    let bench = s.bench_s in
    match request (Workload.session_open_op s) with
    | None -> ()
    | Some r -> (
        match (Option.bind (Json.member "session" r) Json.to_string_opt, Json.member "bind" r) with
        | Some id, Some base ->
            (* Graph state (the op currently added, or none) -> the first
               bind object seen for it. *)
            let seen = Hashtbl.create 8 in
            Hashtbl.replace seen "" (Json.to_string base);
            let edit ~state op =
              match request op with
              | None -> false
              | Some r -> (
                  match Json.member "bind" r with
                  | None ->
                      wrong (bench ^ ": session_edit reply without bind");
                      true
                  | Some b -> (
                      let b = Json.to_string b in
                      match Hashtbl.find_opt seen state with
                      | None ->
                          Hashtbl.replace seen state b;
                          true
                      | Some first ->
                          if first <> b then
                            wrong
                              (Printf.sprintf "%s: state [%s] re-bound to a different result"
                                 bench state);
                          true))
            in
            let rec cycles = function
              | [] -> ()
              | e :: rest ->
                  let x = Workload.edit_name e in
                  let add () = edit ~state:x (Workload.add_op_op ~session:id e) in
                  let remove () = edit ~state:"" (Workload.remove_op_op ~session:id s) in
                  if add () && remove () && add () && remove () then cycles rest
            in
            cycles s.cycles;
            ignore (request (Workload.close_op ~session:id))
        | _ -> wrong (bench ^ ": session_open reply without session and bind"))
  in
  let rec loop () =
    match next client with
    | None -> ()
    | Some (Workload.Single k) ->
        (match request (Workload.op_of_kind k) with
        | Some result -> Option.iter wrong (Oracle.check oracle k result)
        | None -> ());
        loop ()
    | Some (Workload.Session s) ->
        session s;
        loop ()
  in
  Fun.protect ~finally:(fun () -> Client.close !conn) loop

(* Run [next] to exhaustion on [Workload.clients] connections.
   [next client] hands that client its next job. *)
let run ~socket ~oracle next =
  let conns = Array.init Workload.clients (fun _ -> Client.connect socket) in
  let tallies =
    Array.init Workload.clients (fun _ ->
        { attempted = 0; failed = 0; wrong = 0; samples = []; last_reply = 0. })
  in
  let t_start = Clock.monotonic () in
  let threads =
    List.init Workload.clients (fun client ->
        Thread.create
          (fun () ->
            let tally = tallies.(client) in
            try run_client ~socket ~oracle ~client ~next conns.(client) tally
            with e ->
              tally.failed <- tally.failed + 1;
              report "client %d aborted: %s" client (Printexc.to_string e))
          ())
  in
  List.iter Thread.join threads;
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let t_end = Array.fold_left (fun acc t -> Float.max acc t.last_reply) t_start tallies in
  {
    samples = Array.fold_left (fun acc t -> List.rev_append t.samples acc) [] tallies;
    attempted = sum (fun t -> t.attempted);
    failed = sum (fun t -> t.failed);
    wrong = sum (fun t -> t.wrong);
    wall_s = t_end -. t_start;
  }

(* Each client works through its own list. *)
let of_lists lists =
  let queues = Array.map ref lists in
  fun client ->
    match !(queues.(client)) with
    | [] -> None
    | j :: rest ->
        queues.(client) := rest;
        Some j

(* All clients share one list (the warm-up). *)
let shared jobs =
  let jobs = Array.of_list jobs and cursor = Atomic.make 0 in
  fun _ ->
    let i = Atomic.fetch_and_add cursor 1 in
    if i < Array.length jobs then Some jobs.(i) else None
