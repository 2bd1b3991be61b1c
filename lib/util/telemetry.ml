(* The name rides along with the atomic so a bump can be mirrored into
   the active per-request scope without any registry lookup. *)
type counter = { c_name : string; c_val : int Atomic.t }

(* One mutex guards the counter registry and the timer store.  Counter
   bumps themselves are lock-free; the lock is only taken to create a
   name, to record a (cold) timer, and to snapshot. *)
let mu = Mutex.create ()
let locked f = Mutex.lock mu; Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64

type timer = { mutable calls : int; mutable seconds : float }

let timers_tbl : (string, timer) Hashtbl.t = Hashtbl.create 64

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_val = Atomic.make 0 } in
          Hashtbl.replace counters_tbl name c;
          c)

(* Per-request scopes.  A scope is a domain-local table of deltas: while
   one is active in the current domain every [add] lands both in the
   process-wide counter and in the scope, so a server worker running one
   request end-to-end can report exactly the counters that request moved
   without disturbing (or re-deriving them from) the global totals.
   Scopes never cross domains — work a request hands to other domains
   (e.g. an explore sweep's grid cells) is only visible in the
   process-wide counters. *)
type scope = (string, int ref) Hashtbl.t

let scope_key : scope option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let add c n =
  ignore (Atomic.fetch_and_add c.c_val n);
  match !(Domain.DLS.get scope_key) with
  | None -> ()
  | Some tbl -> (
      match Hashtbl.find_opt tbl c.c_name with
      | Some r -> r := !r + n
      | None -> Hashtbl.replace tbl c.c_name (ref n))

let incr c = add c 1
let count name n = add (counter name) n
let value c = Atomic.get c.c_val

let with_scope f =
  let cell = Domain.DLS.get scope_key in
  let saved = !cell in
  let tbl : scope = Hashtbl.create 16 in
  cell := Some tbl;
  let restore () = cell := saved in
  let result = try f () with e -> restore (); raise e in
  restore ();
  let deltas =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [] |> List.sort compare
  in
  (result, deltas)

let record_timer name dt =
  locked (fun () ->
      let t =
        match Hashtbl.find_opt timers_tbl name with
        | Some t -> t
        | None ->
            let t = { calls = 0; seconds = 0. } in
            Hashtbl.replace timers_tbl name t;
            t
      in
      t.calls <- t.calls + 1;
      t.seconds <- t.seconds +. dt)

let time name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> record_timer name (Unix.gettimeofday () -. t0)) f

let counters () =
  locked (fun () ->
      Hashtbl.fold (fun k c acc -> (k, Atomic.get c.c_val) :: acc) counters_tbl [])
  |> List.sort compare

let timers () =
  locked (fun () ->
      Hashtbl.fold (fun k t acc -> (k, t.calls, t.seconds) :: acc) timers_tbl [])
  |> List.sort compare

let reset () =
  locked (fun () ->
      Hashtbl.reset counters_tbl;
      Hashtbl.reset timers_tbl)

let to_json () =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters ())) );
      ( "timers",
        Json.List
          (List.map
             (fun (k, calls, seconds) ->
               Json.Obj
                 [
                   ("name", Json.String k);
                   ("calls", Json.Int calls);
                   ("seconds", Json.Float seconds);
                 ])
             (timers ())) );
    ]

let write path = Json.to_file path (to_json ())

let write_if_requested () =
  match Sys.getenv_opt "HLP_TELEMETRY" with
  | Some path when String.trim path <> "" -> (
      (* A bad diagnostics path must not turn a successful run into a
         failure. *)
      try write path
      with Sys_error msg ->
        Printf.eprintf "[telemetry] cannot write %s: %s\n%!" path msg)
  | _ -> ()
