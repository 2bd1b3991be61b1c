(* Net naming: inputs keep their declared names (sanitized), logic nodes get
   "n<id>", and declared outputs are emitted as single-input buffer covers so
   their user-facing names survive a round trip.  An output whose name is
   already an input's would redefine that input, so it becomes
   "<name>_<k>" for the least k that no input, output or earlier renamed
   output uses.  A node whose "n<id>" is taken becomes "n<id>_<k>" in the
   same way.  No other node can have that name: "n<id>" names have no
   underscore, and the digits before the underscore are the node's own
   id. *)

let sanitize s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '_' || c = '[' || c = ']' || c = '.'
  in
  let s = String.map (fun c -> if ok c then c else '_') s in
  if s = "" then "_" else s

(* Node names by id, and the outputs as (BLIF name, driver id). *)
let net_names t =
  let input_name id = sanitize (Netlist.node t id).Netlist.name in
  let taken = Hashtbl.create 64 in
  let take name = Hashtbl.replace taken name () in
  let free base =
    let rec go k =
      let name = Printf.sprintf "%s_%d" base k in
      if Hashtbl.mem taken name then go (k + 1) else name
    in
    go 1
  in
  Array.iter (fun id -> take (input_name id)) (Netlist.inputs t);
  let inputs = Hashtbl.copy taken in
  List.iter (fun (name, _) -> take (sanitize name)) (Netlist.outputs t);
  let outputs =
    List.map
      (fun (name, id) ->
        let name = sanitize name in
        if Hashtbl.mem inputs name then (
          let name = free name in
          take name;
          (name, id))
        else (name, id))
      (Netlist.outputs t)
  in
  let nodes =
    Array.init (Netlist.num_nodes t) (fun id ->
        if Netlist.is_input t id then input_name id
        else
          let base = Printf.sprintf "n%d" id in
          if Hashtbl.mem taken base then free base else base)
  in
  (nodes, outputs)

let to_string t =
  let names, outputs = net_names t in
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr ".model %s\n" (sanitize (Netlist.name t));
  let input_names =
    Array.to_list (Array.map (Array.get names) (Netlist.inputs t))
  in
  pr ".inputs %s\n" (String.concat " " input_names);
  pr ".outputs %s\n" (String.concat " " (List.map fst outputs));
  Array.iter
    (fun id ->
      let n = Netlist.node t id in
      if not (Netlist.is_input t id) then begin
        let fanin_names =
          Array.to_list (Array.map (Array.get names) n.Netlist.fanins)
        in
        pr ".names %s\n"
          (String.concat " " (fanin_names @ [ names.(id) ]));
        let arity = Truth_table.arity n.Netlist.func in
        if arity = 0 then begin
          (* Constant: const1 gets the single cover line "1"; const0 gets an
             empty cover. *)
          if Truth_table.eval n.Netlist.func 0 then pr "1\n"
        end
        else
          for m = 0 to (1 lsl arity) - 1 do
            if Truth_table.eval n.Netlist.func m then begin
              for i = 0 to arity - 1 do
                Buffer.add_char buf
                  (if m land (1 lsl i) <> 0 then '1' else '0')
              done;
              pr " 1\n"
            end
          done
      end)
    (Netlist.topo_order t);
  List.iter
    (fun (name, id) -> pr ".names %s %s\n1 1\n" names.(id) name)
    outputs;
  pr ".end\n";
  Buffer.contents buf

let output_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

(* ------------------------------------------------------------------ *)
(* Parsing *)

type raw_names = {
  rn_nets : string list; (* fanins then output net *)
  rn_cover : (string * char) list; (* (input cube, output value) *)
}

(* Internal, structured parse failure: every branch carries the line the
   offending construct came from, so callers (the lint subsystem in
   particular) can point at the exact source line. *)
exception Parse_error of int * string

let fail_line lineno msg = raise (Parse_error (lineno, msg))

(* Join continuation lines ending in '\'; strip comments starting with '#'. *)
let logical_lines s =
  let physical = String.split_on_char '\n' s in
  let strip_comment l =
    match String.index_opt l '#' with
    | Some i -> String.sub l 0 i
    | None -> l
  in
  let rec join acc pending lineno = function
    | [] ->
        let acc =
          match pending with
          | Some (start, text) -> (start, text) :: acc
          | None -> acc
        in
        List.rev acc
    | l :: rest ->
        let l = strip_comment l in
        let continued = String.length l > 0 && l.[String.length l - 1] = '\\' in
        let body = if continued then String.sub l 0 (String.length l - 1) else l in
        let start, text =
          match pending with
          | Some (start, prev) -> (start, prev ^ " " ^ body)
          | None -> (lineno, body)
        in
        if continued then join acc (Some (start, text)) (lineno + 1) rest
        else join ((start, text) :: acc) None (lineno + 1) rest
  in
  join [] None 1 physical

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let cover_to_table ~arity ~lineno cover =
  if arity > Truth_table.max_vars then
    fail_line lineno
      (Printf.sprintf "function of %d inputs exceeds %d-input limit" arity
         Truth_table.max_vars);
  let on_set = ref 0L in
  let polarity = ref None in
  List.iter
    (fun (cube, out) ->
      (match !polarity with
      | None -> polarity := Some out
      | Some p ->
          if p <> out then fail_line lineno "mixed output polarities in cover");
      if String.length cube <> arity then
        fail_line lineno "cube width does not match fanin count";
      (* Expand '-' don't-cares into all matching minterms. *)
      let rec expand i m =
        if i = arity then on_set := Int64.logor !on_set (Int64.shift_left 1L m)
        else
          match cube.[i] with
          | '0' -> expand (i + 1) m
          | '1' -> expand (i + 1) (m lor (1 lsl i))
          | '-' ->
              expand (i + 1) m;
              expand (i + 1) (m lor (1 lsl i))
          | c -> fail_line lineno (Printf.sprintf "bad cube character %c" c)
      in
      expand 0 0)
    cover;
  let table = Truth_table.create arity !on_set in
  match !polarity with
  | Some '0' -> Truth_table.not_ table
  | Some '1' | None -> table
  | Some c -> fail_line lineno (Printf.sprintf "bad output value %c" c)

let parse s =
  try
  let lines = logical_lines s in
  let model = ref "blif" in
  let inputs = ref [] in
  let outputs = ref [] in
  let names = ref [] in (* (lineno, raw_names), reversed *)
  let current = ref None in
  let flush_current () =
    match !current with
    | Some entry -> names := entry :: !names; current := None
    | None -> ()
  in
  List.iter
    (fun (lineno, line) ->
      match tokens line with
      | [] -> ()
      | ".model" :: rest ->
          flush_current ();
          (match rest with m :: _ -> model := m | [] -> ())
      | ".inputs" :: rest ->
          flush_current ();
          inputs := !inputs @ List.map (fun n -> (lineno, n)) rest
      | ".outputs" :: rest ->
          flush_current ();
          outputs := !outputs @ List.map (fun n -> (lineno, n)) rest
      | ".names" :: nets ->
          flush_current ();
          if nets = [] then fail_line lineno ".names without nets";
          current := Some (lineno, { rn_nets = nets; rn_cover = [] })
      | ".end" :: _ -> flush_current ()
      | ".latch" :: _ | ".subckt" :: _ | ".search" :: _ ->
          fail_line lineno "only combinational single-model BLIF is supported"
      | tok :: rest -> (
          match !current with
          | None -> fail_line lineno ("unexpected token " ^ tok)
          | Some (start, entry) ->
              let cube, out =
                match rest with
                | [] ->
                    if List.length entry.rn_nets = 1 then ("", tok.[0])
                    else fail_line lineno "cover row missing output value"
                | [ o ] when String.length o = 1 -> (tok, o.[0])
                | _ -> fail_line lineno "malformed cover row"
              in
              current :=
                Some (start, { entry with rn_cover = (cube, out) :: entry.rn_cover })))
    lines;
  flush_current ();
  let names = List.rev !names in
  (* Map output net -> (lineno, fanin nets, cover). *)
  let defs = Hashtbl.create 64 in
  List.iter
    (fun (lineno, entry) ->
      match List.rev entry.rn_nets with
      | out :: rev_fanins ->
          if Hashtbl.mem defs out then
            fail_line lineno ("net defined twice: " ^ out);
          Hashtbl.replace defs out
            (lineno, Array.of_list (List.rev rev_fanins),
             List.rev entry.rn_cover)
      | [] -> assert false)
    names;
  let b = Netlist.create_builder ~name:!model in
  let ids = Hashtbl.create 64 in
  List.iter
    (fun (lineno, net) ->
      if Hashtbl.mem ids net then fail_line lineno ("duplicate input " ^ net);
      Hashtbl.replace ids net (Netlist.add_input b net))
    !inputs;
  (* Depth-first insertion in dependency order, detecting cycles.
     [ref_line] is the line of the construct that demanded the net (a
     [.names] fanin list or the [.outputs] directive), so undefined-net
     and cycle errors point at real source lines. *)
  let visiting = Hashtbl.create 64 in
  let rec resolve ~ref_line net =
    match Hashtbl.find_opt ids net with
    | Some id -> id
    | None -> (
        match Hashtbl.find_opt defs net with
        | None -> fail_line ref_line ("undefined net " ^ net)
        | Some (lineno, fanin_nets, cover) ->
            if Hashtbl.mem visiting net then
              fail_line lineno ("combinational cycle through " ^ net);
            Hashtbl.replace visiting net ();
            let fanins = Array.map (resolve ~ref_line:lineno) fanin_nets in
            let func =
              cover_to_table ~arity:(Array.length fanins) ~lineno cover
            in
            let id = Netlist.add_node b ~name:net ~func ~fanins in
            Hashtbl.remove visiting net;
            Hashtbl.replace ids net id;
            id)
  in
  List.iter
    (fun (lineno, out) ->
      Netlist.mark_output b out (resolve ~ref_line:lineno out))
    !outputs;
  Ok (Netlist.freeze b)
  with Parse_error (lineno, msg) -> Error (lineno, msg)

let of_string s =
  match parse s with
  | Ok t -> t
  | Error (lineno, msg) ->
      failwith (Printf.sprintf "Blif.of_string: line %d: %s" lineno msg)

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
