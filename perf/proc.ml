(* Linux /proc readers for the daemon process tree: CPU time, peak
   resident set, and the descendants a cluster head spawns. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* Fields of /proc/<pid>/stat after the parenthesised command name
   (which may itself contain spaces): index 0 is field 3, the state. *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
      match String.rindex_opt s ')' with
      | Some i when i + 2 < String.length s ->
          Some
            (Array.of_list
               (String.split_on_char ' '
                  (String.trim (String.sub s (i + 2) (String.length s - i - 2)))))
      | _ -> None)

let alive pid =
  match stat_fields pid with Some f -> f.(0) <> "Z" | None -> false

let descendants root =
  let parent_of =
    List.filter_map
      (fun name ->
        match int_of_string_opt name with
        | None -> None
        | Some pid -> (
            match stat_fields pid with
            | Some f when Array.length f > 1 ->
                Option.map (fun pp -> (pid, pp)) (int_of_string_opt f.(1))
            | _ -> None))
      (Array.to_list (try Sys.readdir "/proc" with Sys_error _ -> [||]))
  in
  let rec grow acc frontier =
    match List.filter (fun (_, pp) -> List.mem pp frontier) parent_of with
    | [] -> acc
    | next ->
        let pids = List.map fst next in
        grow (acc @ pids) pids
  in
  grow [] [ root ]

let tree pid = pid :: descendants pid

(* utime and stime are in USER_HZ ticks, which the Linux ABI fixes at
   100 per second. *)
let cpu_seconds pids =
  List.fold_left
    (fun acc pid ->
      match stat_fields pid with
      | Some f when Array.length f > 12 ->
          acc
          +. (float_of_string f.(11) +. float_of_string f.(12)) /. 100.
      | _ -> acc)
    0. pids

let vm_hwm_kib pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kib :: _ -> Option.value ~default:acc (int_of_string_opt kib)
              | [] -> acc)
          | _ -> acc)
        0 (String.split_on_char '\n' s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
