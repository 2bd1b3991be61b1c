(* Lifecycle of the daemon under test: spawn with a scrubbed
   environment into a fresh socket directory, wait for the first ping
   reply, SIGTERM-drain and reap.  Every live daemon is registered so
   that a watchdog, a signal or an exception can kill it on any exit
   path. *)

module Client = Hlp_server.Client
module Protocol = Hlp_server.Protocol
module Clock = Hlp_util.Clock

type mode = Single | Head

type t = {
  pid : int;
  mode : mode;
  dir : string;
  socket : string;
  log : string;
}

(* Variables that change what the daemon does: a warm SA cache on disk,
   telemetry dumps, worker counts, a metrics port, session limits, the
   simulation engine, GC settings.  Setup must be cold and identical on
   every run, so none of them reach a daemon (or the traced pass, which
   runs in this process: [scrub_self] re-executes without them). *)
let scrubbed name =
  (String.length name >= 4 && String.sub name 0 4 = "HLP_")
  || name = "OCAMLRUNPARAM" || name = "CAMLRUNPARAM"

let var_name kv =
  match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv

let scrub_self () =
  let env = Array.to_list (Unix.environment ()) in
  if List.exists (fun kv -> scrubbed (var_name kv)) env then
    Unix.execve Sys.executable_name Sys.argv
      (Array.of_list (List.filter (fun kv -> not (scrubbed (var_name kv))) env))

(* Lock-free, so the signal handler and the watchdog thread can read it
   without risking a self-deadlock on a mutex the main thread holds. *)
let live : t list Atomic.t = Atomic.make []

let rec update f =
  let old = Atomic.get live in
  if not (Atomic.compare_and_set live old (f old)) then update f

let register t = update (fun l -> t :: l)
let unregister t = update (List.filter (fun d -> d.pid <> t.pid))

let wait_gone pids ~timeout =
  let deadline = Clock.monotonic () +. timeout in
  let rec loop () =
    match List.filter Proc.alive pids with
    | [] -> true
    | _ when Clock.monotonic () > deadline -> false
    | _ ->
        Unix.sleepf 0.01;
        loop ()
  in
  loop ()

(* [Some status] once [pid] has exited (and is reaped), [None] at the
   timeout. *)
let wait_exit pid ~timeout =
  let deadline = Clock.monotonic () +. timeout in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Clock.monotonic () > deadline -> None
    | 0, _ ->
        Unix.sleepf 0.01;
        loop ()
    | _, status -> Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 0)
  in
  loop ()

let kill t =
  let pids = Proc.tree t.pid in
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) pids;
  ignore (wait_exit t.pid ~timeout:10.);
  ignore (wait_gone pids ~timeout:10.);
  Proc.rm_rf t.dir;
  unregister t

let kill_all () = List.iter kill (Atomic.get live)

let log_tail t =
  match Proc.read_file t.log with
  | None -> ""
  | Some s ->
      let n = String.length s in
      if n <= 2000 then s else String.sub s (n - 2000) 2000

let seq = ref 0

(* One worker domain per client connection, in every daemon a head
   spawns too: with one per shard, the two clients' same-width binds
   queue behind each other on one shard, and bind-head's tail swings by a
   quarter from run to run on where that queueing falls.  With two,
   bind-head differs from bind-mix by the relay alone. *)
let worker_domains = 2
let head_workers = 2

(* Every pid this process started, directly or through a head, so a
   smoke run can prove that none outlived it. *)
let started = ref []
let leftovers () = List.filter Proc.alive !started

let rec sockets_under dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      List.concat_map
        (fun n ->
          let p = Filename.concat dir n in
          match (Unix.lstat p).Unix.st_kind with
          | Unix.S_SOCK -> [ p ]
          | Unix.S_DIR -> sockets_under p
          | _ -> []
          | exception Unix.Unix_error _ -> [])
        (Array.to_list names)

let spawn ~cli ~run_dir mode =
  incr seq;
  let dir = Filename.concat run_dir (Printf.sprintf "%d-%d" (Unix.getpid ()) !seq) in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  (* Relative paths keep the socket under the 108-byte sun_path limit
     wherever the checkout lives; the daemon inherits our working
     directory, and a head puts its workers' sockets under TMPDIR. *)
  let socket = Filename.concat dir "d.sock" in
  let log = Filename.concat dir "daemon.log" in
  let args =
    match mode with
    | Single -> [ cli; "serve"; "--socket"; socket; "--workers"; string_of_int worker_domains ]
    | Head ->
        [ cli; "serve"; "--head"; "--spawn-workers"; string_of_int head_workers;
          "--workers"; string_of_int worker_domains; "--socket"; socket ]
  in
  let env =
    Array.of_list
      (("TMPDIR=" ^ dir)
      :: List.filter
           (fun kv -> var_name kv <> "TMPDIR")
           (Array.to_list (Unix.environment ())))
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () -> Unix.create_process_env cli (Array.of_list args) env null out out)
  in
  let t = { pid; mode; dir; socket; log } in
  started := pid :: !started;
  register t;
  t

(* Spawn, then poll until a [ping] round-trips.  Returns the daemon and
   the seconds from spawn to that first reply. *)
let start ~cli ~run_dir mode =
  let t0 = Clock.monotonic () in
  let t = spawn ~cli ~run_dir mode in
  let deadline = t0 +. 60. in
  let rec ready () =
    (match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ -> ()
    | _ ->
        unregister t;
        failwith ("daemon exited during startup:\n" ^ log_tail t));
    if Clock.monotonic () > deadline then failwith "daemon not ready after 60 s";
    match Client.connect t.socket with
    | exception Unix.Unix_error _ ->
        Unix.sleepf 0.005;
        ready ()
    | c -> (
        let ping = { Protocol.id = Hlp_server.Json.Int 0; deadline_ms = None; op = Protocol.Ping 0 } in
        let reply = try Client.request c ping with Unix.Unix_error _ -> Error "" in
        Client.close c;
        match reply with
        | Ok { Protocol.payload = Protocol.Result _; _ } -> ()
        | Ok _ | Error _ ->
            Unix.sleepf 0.005;
            ready ())
  in
  (try ready ()
   with e ->
     kill t;
     raise e);
  let ready_s = Clock.monotonic () -. t0 in
  started := Proc.descendants t.pid @ !started;
  (t, ready_s)

let count_sub s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* SIGTERM, wait for exit 0, and check the log for every "drained,
   exiting" line the process tree owes: one for a single daemon; the
   head's plus one per spawned worker for a cluster. *)
let stop t =
  let workers = Proc.descendants t.pid in
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let verdict =
    match wait_exit t.pid ~timeout:30. with
    | None -> Error "did not exit within 30 s of SIGTERM"
    | Some (Unix.WEXITED 0) -> (
        let log = Option.value ~default:"" (Proc.read_file t.log) in
        let owed =
          match t.mode with
          | Single -> [ ("hlpowerd: drained, exiting", 1) ]
          | Head ->
              [ ("hlpowerd head: drained, exiting", 1);
                ("hlpowerd: drained, exiting", head_workers) ]
        in
        match List.find_opt (fun (line, n) -> count_sub log line < n) owed with
        | Some (line, n) ->
            Error (Printf.sprintf "exited 0 but logged %S fewer than %d times" line n)
        | None ->
            if wait_gone workers ~timeout:10. then Ok ()
            else Error "a spawned worker outlived the head")
    | Some (Unix.WEXITED n) -> Error (Printf.sprintf "exited with code %d" n)
    | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
        Error (Printf.sprintf "killed by signal %d" n)
  in
  (match verdict with
  | Ok () ->
      Proc.rm_rf t.dir;
      unregister t
  | Error msg ->
      Printf.eprintf "perf: daemon %d drain failed: %s\n%s\n%!" t.pid msg (log_tail t);
      kill t);
  verdict

let tree_cpu_seconds t = Proc.cpu_seconds (Proc.tree t.pid)

let tree_hwm_mib t =
  float_of_int
    (List.fold_left (fun acc p -> acc + Proc.vm_hwm_kib p) 0 (Proc.tree t.pid))
  /. 1024.

(* Hard stop for a hung run: kill every daemon and exit non-zero. *)
let watchdog_deadline = Atomic.make infinity

let arm_watchdog seconds =
  Atomic.set watchdog_deadline (Clock.monotonic () +. seconds)

let install_guards () =
  let bail code =
    kill_all ();
    Unix._exit code
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> bail 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> bail 130));
  at_exit kill_all;
  ignore
    (Thread.create
       (fun () ->
         while true do
           Unix.sleepf 0.25;
           if Clock.monotonic () > Atomic.get watchdog_deadline then begin
             prerr_endline "perf: watchdog expired; killing every daemon";
             bail 3
           end
         done)
       ())
