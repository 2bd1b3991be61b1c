module Cdfg = Hlp_cdfg.Cdfg
module Cl = Hlp_netlist.Cell_library
module Blif = Hlp_netlist.Blif
module Mapper = Hlp_mapper.Mapper
module Pool = Hlp_util.Pool
module Telemetry = Hlp_util.Telemetry

exception Parse_error of int * string

(* Bump whenever the on-disk representation changes shape.  v1 (no
   version tag in the header, %.9g floats) is explicitly rejected: its
   rows do not round-trip bit-exactly, so a reloaded v1 table could bind
   differently from the run that wrote it. *)
let format_version = 2

type key = Cdfg.fu_class * int * int

type t = {
  width : int;
  k : int;
  cache : (key, float) Hashtbl.t;
  disk : (key, unit) Hashtbl.t; (* provenance: keys loaded from disk *)
  mu : Mutex.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  disk_hits : int Atomic.t;
  persist_path : string option;
  mutable dirty : bool; (* under [mu]: entries not yet on disk *)
}

let c_hits = Telemetry.counter "sa_table.hits"
let c_misses = Telemetry.counter "sa_table.misses"
let c_disk_hits = Telemetry.counter "sa_table.disk_hits"
let c_disk_entries = Telemetry.counter "sa_table.disk_entries"
let c_cache_loads = Telemetry.counter "sa_table.cache_loads"
let c_cache_writes = Telemetry.counter "sa_table.cache_writes"
let c_cache_recoveries = Telemetry.counter "sa_table.cache_recoveries"

let make ~width ~k ~persist_path () =
  if width < 1 then invalid_arg "Sa_table.create: bad width";
  {
    width;
    k;
    cache = Hashtbl.create 256;
    disk = Hashtbl.create 256;
    mu = Mutex.create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    disk_hits = Atomic.make 0;
    persist_path;
    dirty = false;
  }

let create ?(width = 8) ?(k = 4) () = make ~width ~k ~persist_path:None ()
let width t = t.width
let k t = t.k
let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let disk_hits t = Atomic.get t.disk_hits

let disk_entries t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.disk in
  Mutex.unlock t.mu;
  n

let cache_file t = t.persist_path

let fu_of_class = function
  | Cdfg.Add_sub -> Cl.Adder
  | Cdfg.Multiplier -> Cl.Multiplier

(* Entries are pure functions of (width, k, key) *given* the cell
   library and the glitch-aware mapper.  The fingerprint captures both:
   the BLIF text of two tiny partial datapaths pins the library's gate
   structure, and their mapped LUT/depth/SA results pin the mapper and
   the activity estimator.  Any change to either produces a different
   hex digest, so stale persisted tables are never consulted. *)
let fingerprint_lazy =
  lazy
    (let buf = Buffer.create 4096 in
     List.iter
       (fun (fu, l, r) ->
         let net =
           Cl.partial_datapath ~fu ~width:2 ~left_inputs:l ~right_inputs:r ()
         in
         Buffer.add_string buf (Blif.to_string net);
         let m = Mapper.map net ~k:3 in
         Buffer.add_string buf
           (Printf.sprintf "%d %d %h %h\n" m.Mapper.lut_count m.Mapper.depth
              m.Mapper.total_sa m.Mapper.glitch_sa))
       [ (Cl.Adder, 2, 2); (Cl.Multiplier, 2, 1) ];
     Digest.to_hex (Digest.string (Buffer.contents buf)))

let fingerprint () = Lazy.force fingerprint_lazy

let compute t cls ~left ~right =
  let netlist =
    Cl.partial_datapath ~fu:(fu_of_class cls) ~width:t.width
      ~left_inputs:left ~right_inputs:right ()
  in
  let mapping = Mapper.map netlist ~k:t.k in
  mapping.Mapper.total_sa

let all_keys ~max_inputs =
  let keys = ref [] in
  List.iter
    (fun cls ->
      for left = 1 to max_inputs do
        for right = left to max_inputs do
          keys := (cls, left, right) :: !keys
        done
      done)
    Cdfg.all_classes;
  List.rev !keys

let find_cached t key =
  Mutex.lock t.mu;
  let r = Hashtbl.find_opt t.cache key in
  let from_disk = r <> None && Hashtbl.mem t.disk key in
  Mutex.unlock t.mu;
  (r, from_disk)

(* Every value crossing the cache boundary must be a usable Eq. 4
   denominator: finite, strictly positive and not subnormal.  A zero or
   negative entry (only reachable via a hand-edited cache file) would
   yield an infinite edge weight that silently dominates the matching;
   a subnormal like 5e-324 passes a positivity test yet overflows the
   very first 1/sa it feeds. *)
let check_sa ~what sa =
  if
    (not (Float.is_finite sa))
    || sa <= 0.
    || Float.classify_float sa = Float.FP_subnormal
  then
    failwith (Printf.sprintf "Sa_table: unusable SA %g from %s" sa what)

let lookup t cls ~left ~right =
  if left < 1 || right < 1 then invalid_arg "Sa_table.lookup: bad mux size";
  (* The cell is symmetric in its ports; cache under the sorted key. *)
  let lo = min left right and hi = max left right in
  let key = (cls, lo, hi) in
  match find_cached t key with
  | Some sa, from_disk ->
      Atomic.incr t.hits;
      Telemetry.incr c_hits;
      if from_disk then begin
        Atomic.incr t.disk_hits;
        Telemetry.incr c_disk_hits
      end;
      check_sa ~what:"cache" sa;
      sa
  | None, _ ->
      (* Compute outside the lock: entries are pure functions of the key,
         so two domains racing on the same key waste one computation but
         store the same value. *)
      Atomic.incr t.misses;
      Telemetry.incr c_misses;
      let sa = compute t cls ~left:lo ~right:hi in
      check_sa ~what:"mapper" sa;
      Mutex.lock t.mu;
      Hashtbl.replace t.cache key sa;
      t.dirty <- true;
      Mutex.unlock t.mu;
      sa

let precompute t ~max_inputs =
  (* Enumerate the full symmetric square (left <= right, both up to
     [max_inputs]) first, then fill in parallel: each entry is an
     independent elaborate-and-map job.  The square — rather than the
     triangle left + right <= max_inputs + 2 — is what the binder can
     actually request: merging promotes both ports independently, so
     keys like (max_inputs, max_inputs) occur and must be warm. *)
  Pool.parallel_iter
    (fun (cls, left, right) -> ignore (lookup t cls ~left ~right))
    (Array.of_list (all_keys ~max_inputs))

let entries t =
  Mutex.lock t.mu;
  let rows =
    Hashtbl.fold (fun (cls, l, r) sa acc -> (cls, l, r, sa) :: acc) t.cache []
  in
  Mutex.unlock t.mu;
  List.sort compare rows

let class_name = Cdfg.class_to_string

let class_of_name = function
  | "add" -> Some Cdfg.Add_sub
  | "mult" -> Some Cdfg.Multiplier
  | _ -> None

(* --- on-disk format -------------------------------------------------

   Line 1   # sa_table v<version> width=<w> k=<k> lib=<hex digest>
   Line 2+  <class> <left> <right> <sa>     (left <= right, sa in %h)

   Floats are written as C99 hex literals (%h), which round-trip
   bit-exactly through [float_of_string]; %.9g did not, so a reloaded
   table could produce different Eq. 4 weights than the run that wrote
   it. *)

let write_table t oc =
  Printf.fprintf oc "# sa_table v%d width=%d k=%d lib=%s\n" format_version
    t.width t.k (fingerprint ());
  List.iter
    (fun (cls, l, r, sa) ->
      Printf.fprintf oc "%s %d %d %h\n" (class_name cls) l r sa)
    (entries t)

let save t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_table t oc)

let fail_line lineno fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (lineno, msg))) fmt

let parse_header line =
  try
    Scanf.sscanf line "# sa_table v%d width=%d k=%d lib=%s"
      (fun v w k fp -> (v, w, k, fp))
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    (* Recognize the un-versioned v1 header for a sharper diagnostic. *)
    (try
       Scanf.sscanf line "# sa_table width=%d k=%d" (fun w k ->
           ignore w;
           ignore k;
           fail_line 1 "stale format v1 (floats not bit-exact); recompute")
     with Scanf.Scan_failure _ | End_of_file ->
       fail_line 1 "bad header (expected `# sa_table v%d width=.. k=.. lib=..`)"
         format_version)

let parse_row lineno line =
  let fields =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  match fields with
  | [ cls_s; l_s; r_s; sa_s ] ->
      let cls =
        match class_of_name cls_s with
        | Some c -> c
        | None -> fail_line lineno "unknown class %s" cls_s
      in
      let int_field s =
        match int_of_string_opt s with
        | Some i -> i
        | None -> fail_line lineno "bad integer %s" s
      in
      let l = int_field l_s and r = int_field r_s in
      if l < 1 || r < 1 then fail_line lineno "non-positive mux size";
      if l > r then fail_line lineno "key not sorted (%d > %d)" l r;
      let sa =
        match float_of_string_opt sa_s with
        | Some f -> f
        | None -> fail_line lineno "bad float %s" sa_s
      in
      if
        (not (Float.is_finite sa))
        || sa <= 0.
        || Float.classify_float sa = Float.FP_subnormal
      then fail_line lineno "unusable SA %s for %s (%d,%d)" sa_s cls_s l r;
      ((cls, l, r), sa)
  | _ -> fail_line lineno "expected `class left right sa` (%d fields)"
           (List.length fields)

(* [parse_channel] reads the whole table; the caller decides what a
   fingerprint mismatch means (explicit [load] rejects it, the
   persistent cache never sees one because the digest is in the file
   name). *)
let parse_channel ic =
  let header =
    try input_line ic with End_of_file -> fail_line 1 "empty file"
  in
  let version, width, k, fp = parse_header header in
  if version <> format_version then
    fail_line 1 "unsupported format v%d (this build reads v%d)" version
      format_version;
  if fp <> fingerprint () then
    fail_line 1 "cell-library fingerprint %s does not match this build (%s)"
      fp (fingerprint ());
  let rows = ref [] in
  let seen = Hashtbl.create 256 in
  let lineno = ref 1 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         let key, sa = parse_row !lineno line in
         if Hashtbl.mem seen key then begin
           let cls, l, r = key in
           fail_line !lineno "duplicate key %s %d %d" (class_name cls) l r
         end;
         Hashtbl.replace seen key ();
         rows := (key, sa) :: !rows
       end
     done
   with End_of_file -> ());
  (width, k, List.rev !rows)

let table_of_rows ~width ~k ~persist_path rows =
  let t = make ~width ~k ~persist_path () in
  List.iter
    (fun (key, sa) ->
      Hashtbl.replace t.cache key sa;
      Hashtbl.replace t.disk key ())
    rows;
  t

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let width, k, rows = parse_channel ic in
      let t = table_of_rows ~width ~k ~persist_path:None rows in
      Telemetry.add c_disk_entries (List.length rows);
      Telemetry.incr c_cache_loads;
      t)

let load_result path =
  match load path with
  | t -> Ok t
  | exception Parse_error (line, msg) -> Error (line, msg)

(* --- persistent cache directory ------------------------------------- *)

let cache_env = "HLP_SA_CACHE"

let cache_basename ~width ~k =
  Printf.sprintf "sa-v%d-w%d-k%d-%s.table" format_version width k
    (fingerprint ())

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755
      with Sys_error _ when Sys.file_exists d -> () (* raced another proc *)
    end
  in
  go dir

let persist t =
  match t.persist_path with
  | None -> ()
  | Some path -> (
      Mutex.lock t.mu;
      let dirty = t.dirty in
      t.dirty <- false;
      Mutex.unlock t.mu;
      if dirty then
        (* Atomic publish: never expose a half-written table to a
           concurrent reader — write a fresh temp file in the same
           directory (same filesystem) and rename over the target. *)
        try
          let dir = Filename.dirname path in
          mkdir_p dir;
          let tmp, oc =
            Filename.open_temp_file ~temp_dir:dir ~perms:0o644
              (Filename.basename path ^ ".") ".tmp"
          in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
              write_table t oc);
          Sys.rename tmp path;
          Telemetry.incr c_cache_writes
        with Sys_error msg ->
          (* The cache is an accelerator, never a correctness dependency:
             an unwritable directory must not fail the run. *)
          Printf.eprintf "[sa_table] cannot persist %s: %s\n%!" path msg)

let create_persistent ?(width = 8) ?(k = 4) ~dir () =
  if width < 1 then invalid_arg "Sa_table.create: bad width";
  let path = Filename.concat dir (cache_basename ~width ~k) in
  let t =
    if Sys.file_exists path then
      match
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> parse_channel ic)
      with
      | w, k', rows when w = width && k' = k ->
          Telemetry.add c_disk_entries (List.length rows);
          Telemetry.incr c_cache_loads;
          table_of_rows ~width ~k ~persist_path:(Some path) rows
      | w, k', _ ->
          (* The file name encodes width/k, so this only happens when a
             file was renamed by hand; treat it like corruption. *)
          Printf.eprintf
            "[sa_table] %s: header says width=%d k=%d, expected width=%d \
             k=%d; recomputing\n%!"
            path w k' width k;
          Telemetry.incr c_cache_recoveries;
          make ~width ~k ~persist_path:(Some path) ()
      | exception Parse_error (line, msg) ->
          Printf.eprintf "[sa_table] %s: line %d: %s; recomputing\n%!" path
            line msg;
          Telemetry.incr c_cache_recoveries;
          make ~width ~k ~persist_path:(Some path) ()
      | exception Sys_error msg ->
          Printf.eprintf "[sa_table] cannot read %s: %s; recomputing\n%!"
            path msg;
          Telemetry.incr c_cache_recoveries;
          make ~width ~k ~persist_path:(Some path) ()
    else make ~width ~k ~persist_path:(Some path) ()
  in
  at_exit (fun () -> persist t);
  t

let create_default ?(width = 8) ?(k = 4) () =
  match Sys.getenv_opt cache_env with
  | Some dir when String.trim dir <> "" -> create_persistent ~width ~k ~dir ()
  | _ -> create ~width ~k ()
