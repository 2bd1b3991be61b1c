(* Differential test of the BLIF code: [Blif.parse] and [Blif.to_string]
   against the list-based parser and the Printf writer kept here as the
   reference.  The reference splits the text into a list of logical
   lines, each line into a token list, and looks every net up in a
   string Hashtbl.  On random netlists (unsafe and clashing names,
   constants, 0-6-input nodes) and on random mutations of their text,
   the parser must return a structurally equal netlist or the same
   (line, message); the writer must print the same bytes whenever
   sanitizing merges no two names. *)

module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Blif = Hlp_netlist.Blif
module Rng = Hlp_util.Rng

module Reference = struct
  let sanitize s =
    let ok c =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
      || (c >= '0' && c <= '9') || c = '_' || c = '[' || c = ']' || c = '.'
    in
    let s = String.map (fun c -> if ok c then c else '_') s in
    if s = "" then "_" else s

  (* Node names by id, and the outputs as (BLIF name, driver id). *)
  let net_names t =
    let input_name id = sanitize (Nl.node t id).Nl.name in
    let taken = Hashtbl.create 64 in
    let take name = Hashtbl.replace taken name () in
    let free base =
      let rec go k =
        let name = Printf.sprintf "%s_%d" base k in
        if Hashtbl.mem taken name then go (k + 1) else name
      in
      go 1
    in
    Array.iter (fun id -> take (input_name id)) (Nl.inputs t);
    let inputs = Hashtbl.copy taken in
    List.iter (fun (name, _) -> take (sanitize name)) (Nl.outputs t);
    let outputs =
      List.map
        (fun (name, id) ->
          let name = sanitize name in
          if Hashtbl.mem inputs name then (
            let name = free name in
            take name;
            (name, id))
          else (name, id))
        (Nl.outputs t)
    in
    let nodes =
      Array.init (Nl.num_nodes t) (fun id ->
          if Nl.is_input t id then input_name id
          else
            let base = Printf.sprintf "n%d" id in
            if Hashtbl.mem taken base then free base else base)
    in
    (nodes, outputs)

  let to_string t =
    let names, outputs = net_names t in
    let buf = Buffer.create 4096 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    pr ".model %s\n" (sanitize (Nl.name t));
    let input_names =
      Array.to_list (Array.map (Array.get names) (Nl.inputs t))
    in
    pr ".inputs %s\n" (String.concat " " input_names);
    pr ".outputs %s\n" (String.concat " " (List.map fst outputs));
    Array.iter
      (fun id ->
        let n = Nl.node t id in
        if not (Nl.is_input t id) then begin
          let fanin_names =
            Array.to_list (Array.map (Array.get names) n.Nl.fanins)
          in
          pr ".names %s\n" (String.concat " " (fanin_names @ [ names.(id) ]));
          let arity = Tt.arity n.Nl.func in
          if arity = 0 then begin
            if Tt.eval n.Nl.func 0 then pr "1\n"
          end
          else
            for m = 0 to (1 lsl arity) - 1 do
              if Tt.eval n.Nl.func m then begin
                for i = 0 to arity - 1 do
                  Buffer.add_char buf
                    (if m land (1 lsl i) <> 0 then '1' else '0')
                done;
                pr " 1\n"
              end
            done
        end)
      (Nl.topo_order t);
    List.iter
      (fun (name, id) -> pr ".names %s %s\n1 1\n" names.(id) name)
      outputs;
    pr ".end\n";
    Buffer.contents buf

  type raw_names = {
    rn_nets : string list; (* fanins then output net *)
    rn_cover : (string * char) list; (* (input cube, output value) *)
  }

  exception Parse_error of int * string

  let fail_line lineno msg = raise (Parse_error (lineno, msg))

  (* Join continuation lines ending in '\'; strip comments starting
     with '#'. *)
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
          let continued =
            String.length l > 0 && l.[String.length l - 1] = '\\'
          in
          let body =
            if continued then String.sub l 0 (String.length l - 1) else l
          in
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
    if arity > Tt.max_vars then
      fail_line lineno
        (Printf.sprintf "function of %d inputs exceeds %d-input limit" arity
           Tt.max_vars);
    let on_set = ref 0L in
    let polarity = ref None in
    List.iter
      (fun (cube, out) ->
        (match !polarity with
        | None -> polarity := Some out
        | Some p ->
            if p <> out then
              fail_line lineno "mixed output polarities in cover");
        if String.length cube <> arity then
          fail_line lineno "cube width does not match fanin count";
        let rec expand i m =
          if i = arity then
            on_set := Int64.logor !on_set (Int64.shift_left 1L m)
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
    let table = Tt.create arity !on_set in
    match !polarity with
    | Some '0' -> Tt.not_ table
    | Some '1' | None -> table
    | Some c -> fail_line lineno (Printf.sprintf "bad output value %c" c)

  (* Raises [Invalid_argument] from [Netlist.freeze] on a model without
     outputs. *)
  let parse s =
    try
      let lines = logical_lines s in
      let model = ref "blif" in
      let inputs = ref [] in
      let outputs = ref [] in
      let names = ref [] in
      let current = ref None in
      let flush_current () =
        match !current with
        | Some entry ->
            names := entry :: !names;
            current := None
        | None -> ()
      in
      List.iter
        (fun (lineno, line) ->
          match tokens line with
          | [] -> ()
          | ".model" :: rest -> (
              flush_current ();
              match rest with m :: _ -> model := m | [] -> ())
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
              fail_line lineno
                "only combinational single-model BLIF is supported"
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
                    Some
                      ( start,
                        { entry with rn_cover = (cube, out) :: entry.rn_cover }
                      )))
        lines;
      flush_current ();
      let names = List.rev !names in
      let defs = Hashtbl.create 64 in
      List.iter
        (fun (lineno, entry) ->
          match List.rev entry.rn_nets with
          | out :: rev_fanins ->
              if Hashtbl.mem defs out then
                fail_line lineno ("net defined twice: " ^ out);
              Hashtbl.replace defs out
                ( lineno,
                  Array.of_list (List.rev rev_fanins),
                  List.rev entry.rn_cover )
          | [] -> assert false)
        names;
      let b = Nl.create_builder ~name:!model in
      let ids = Hashtbl.create 64 in
      List.iter
        (fun (lineno, net) ->
          if Hashtbl.mem ids net then
            fail_line lineno ("duplicate input " ^ net);
          Hashtbl.replace ids net (Nl.add_input b net))
        !inputs;
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
                let id = Nl.add_node b ~name:net ~func ~fanins in
                Hashtbl.remove visiting net;
                Hashtbl.replace ids net id;
                id)
      in
      List.iter
        (fun (lineno, out) ->
          Nl.mark_output b out (resolve ~ref_line:lineno out))
        !outputs;
      Ok (Nl.freeze b)
    with Parse_error (lineno, msg) -> Error (lineno, msg)
end

(* --- random netlists --- *)

(* Input and output names: some sanitize to one another ("a-b", "a b",
   "a_b"), some are the writer's own node or renamed nets ("n3",
   "n3_1"), some are empty or hold BLIF's comment and continuation
   characters. *)
let tricky_names =
  [| "a"; "b"; "a-b"; "a_b"; "a b"; "n1"; "n2"; "n3"; "n3_1"; ""; "_";
     "#"; "x\\"; "c[0]"; "c.1"; "o"; "o-1"; "o_1"; "y"; "a_b_1" |]

(* Up to 5 inputs, up to 2 constants, up to 12 nodes of arity 0-6 over
   everything built so far, and 1-4 outputs; each name is tricky or
   fresh with even odds. *)
let random_netlist rng =
  let fresh = ref 0 in
  let name prefix =
    if Rng.bool rng then Rng.pick rng tricky_names
    else (
      incr fresh;
      Printf.sprintf "%s%d" prefix !fresh)
  in
  let b = Nl.create_builder ~name:(name "m") in
  let pool = ref [] in
  for _ = 1 to Rng.int rng 6 do
    pool := Nl.add_input b (name "i") :: !pool
  done;
  for _ = 1 to Rng.int rng 3 do
    pool := Nl.add_const b (Rng.bool rng) :: !pool
  done;
  for g = 1 to Rng.int rng 13 do
    let arity = if !pool = [] then 0 else Rng.int rng 7 in
    let arr = Array.of_list !pool in
    let fanins = Array.init arity (fun _ -> Rng.pick rng arr) in
    let func = Tt.create arity (Rng.bits64 rng) in
    pool := Nl.add_node b ~name:(Printf.sprintf "g%d" g) ~func ~fanins :: !pool
  done;
  if !pool = [] then pool := [ Nl.add_const b true ];
  let arr = Array.of_list !pool in
  Nl.mark_output b (name "y") (List.hd !pool);
  for _ = 1 to Rng.int rng 4 do
    Nl.mark_output b (name "y") (Rng.pick rng arr)
  done;
  Nl.freeze b

(* Sanitizing merges no two input names and no two output names. *)
let clash_free t =
  let distinct names =
    List.length (List.sort_uniq compare names) = List.length names
  in
  let input_name id = Reference.sanitize (Nl.node t id).Nl.name in
  distinct (List.map input_name (Array.to_list (Nl.inputs t)))
  && distinct
       (List.map (fun (name, _) -> Reference.sanitize name) (Nl.outputs t))

(* --- mutations of the writer's text --- *)

let words l = List.filter (( <> ) "") (String.split_on_char ' ' l)
let directive d l = match words l with w :: _ -> w = d | [] -> false
let is_names l = String.starts_with ~prefix:".names" l
let is_row l = l <> "" && (l.[0] = '0' || l.[0] = '1' || l.[0] = '-')

(* Index of a random line satisfying [p], if any. *)
let pick_line rng p lines =
  let all = List.init (Array.length lines) Fun.id in
  match List.filter (fun i -> p lines.(i)) all with
  | [] -> None
  | idx -> Some (Rng.pick rng (Array.of_list idx))

(* [lines] with [lines.(i) .. lines.(j - 1)] replaced by [new_lines]. *)
let splice lines i j new_lines =
  Array.concat
    [ Array.sub lines 0 i; Array.of_list new_lines;
      Array.sub lines j (Array.length lines - j) ]

let insert_at lines i new_lines = splice lines i i new_lines
let update lines i f = splice lines i (i + 1) [ f lines.(i) ]

(* [choices] inserted as one line anywhere. *)
let insert_any choices rng lines =
  let i = Rng.int rng (Array.length lines + 1) in
  insert_at lines i [ Rng.pick rng choices ]

(* One character of a row's cube, or its output value, replaced. *)
let set_row_char rng ~cube c lines =
  match pick_line rng is_row lines with
  | None -> lines
  | Some i ->
      update lines i (fun l ->
          let sp = try String.rindex l ' ' with Not_found -> -1 in
          let k =
            if cube then if sp <= 0 then 0 else Rng.int rng sp
            else String.length l - 1
          in
          String.mapi (fun j x -> if j = k then c else x) l)

(* The end of the .names block starting at [i]. *)
let block_end lines i =
  let j = ref (i + 1) in
  while !j < Array.length lines && is_row lines.(!j) do incr j done;
  !j

(* A random .names block: its first line and its end. *)
let pick_block rng lines =
  Option.map (fun i -> (i, block_end lines i)) (pick_line rng is_names lines)

let net_of rng lines =
  match pick_line rng is_names lines with
  | None -> "a"
  | Some i -> (
      match List.tl (words lines.(i)) with
      | [] -> "a"
      | nets -> Rng.pick rng (Array.of_list nets))

(* A random net of a random .names line replaced by [pick ws]. *)
let replace_net rng pick lines =
  match pick_line rng is_names lines with
  | None -> lines
  | Some i ->
      update lines i (fun l ->
          let ws = Array.of_list (words l) in
          match pick ws with
          | None -> l
          | Some (k, net) ->
              ws.(k) <- net;
              String.concat " " (Array.to_list ws))

let mutations : (Rng.t -> string array -> string array) array =
  [|
    (* comments: a comment line, a trailing comment, a '\' before or
       inside one *)
    insert_any [| "# c"; "#"; " # \\"; "#.names x" |];
    (fun rng lines ->
      update lines (Rng.int rng (Array.length lines)) (fun l ->
          l ^ Rng.pick rng [| " # c"; "# c \\"; " \\ # c"; "\\# c"; "#" |]));
    (* '\' continuations, also on the last line *)
    (fun rng lines ->
      let i = Rng.int rng (Array.length lines) in
      let l = lines.(i) in
      match String.index_opt l ' ' with
      | None -> update lines i (fun l -> l ^ "\\")
      | Some k ->
          let head = String.sub l 0 k ^ Rng.pick rng [| " \\"; "\\" |] in
          splice lines i (i + 1)
            [ head; String.sub l (k + 1) (String.length l - k - 1) ]);
    (fun _ lines -> update lines (Array.length lines - 1) (fun l -> l ^ "\\"));
    (* tabs, runs of blanks, blank lines *)
    (fun rng lines ->
      update lines (Rng.int rng (Array.length lines)) (fun l ->
          String.concat (Rng.pick rng [| "\t"; "  "; " \t "; "\t\t" |])
            (String.split_on_char ' ' l)));
    (fun rng lines ->
      update lines (Rng.int rng (Array.length lines)) (fun l ->
          Rng.pick rng [| "\t"; " "; "\t " |] ^ l ^ " "));
    insert_any [| ""; " "; "\t" |];
    (* '-' cubes, off-set rows and covers, bad cube and output
       characters *)
    (fun rng lines -> set_row_char rng ~cube:true '-' lines);
    (fun rng lines -> set_row_char rng ~cube:false '0' lines);
    (fun rng lines ->
      match pick_block rng lines with
      | None -> lines
      | Some (i, j) ->
          let off_set l =
            String.mapi
              (fun p c -> if p = String.length l - 1 then '0' else c)
              l
          in
          let rows = Array.to_list (Array.sub lines (i + 1) (j - i - 1)) in
          splice lines (i + 1) j (List.map off_set rows));
    (fun rng lines ->
      let c = Rng.pick rng [| 'x'; '2'; '0'; '1' |] in
      set_row_char rng ~cube:true c lines);
    (fun rng lines ->
      set_row_char rng ~cube:false (Rng.pick rng [| 'x'; '2'; '-' |]) lines);
    (* one-token constant rows, empty covers *)
    (fun rng lines ->
      match pick_line rng is_names lines with
      | None -> lines
      | Some i ->
          insert_at lines (i + 1)
            [ Rng.pick rng [| "1"; "0"; "10"; "x"; "-" |] ]);
    (fun rng lines ->
      match pick_block rng lines with
      | None -> lines
      | Some (i, j) -> splice lines (i + 1) j []);
    (* definitions out of order, a net defined twice *)
    (fun rng lines ->
      match pick_block rng lines with
      | None -> lines
      | Some (i, j) ->
          let block = Array.to_list (Array.sub lines i (j - i)) in
          let rest = splice lines i j [] in
          let k = Option.value ~default:0 (pick_line rng is_names rest) in
          insert_at rest k block);
    (fun rng lines ->
      match pick_block rng lines with
      | None -> lines
      | Some (i, j) ->
          insert_at lines (Rng.int rng (Array.length lines + 1))
            (Array.to_list (Array.sub lines i (j - i))));
    (* unknown directives, rows before any .names, .names without nets,
       sequential and hierarchical directives *)
    insert_any [| ".default_input_arrival 0 0"; ".area 3"; ".exdc"; ".x" |];
    (fun rng lines ->
      insert_at lines (min 1 (Array.length lines))
        [ Rng.pick rng [| "1 1"; "11 1"; "1" |] ]);
    insert_any [| ".names" |];
    insert_any [| ".latch a b 0"; ".subckt f x=a"; ".search lib.blif" |];
    (* duplicate inputs, undefined nets, cycles *)
    (fun rng lines ->
      match pick_line rng (directive ".inputs") lines with
      | None -> lines
      | Some i when Rng.bool rng ->
          update lines i (fun l ->
              match List.tl (words l) with
              | [] -> l ^ " a a"
              | nets -> l ^ " " ^ Rng.pick rng (Array.of_list nets))
      | Some i -> insert_at lines (i + 1) [ ".inputs " ^ net_of rng lines ]);
    (fun rng lines ->
      replace_net rng
        (fun ws ->
          let n = Array.length ws in
          if n < 2 then None
          else
            Some (1 + Rng.int rng (n - 1), Rng.pick rng [| "ghost"; "n99" |]))
        lines);
    (fun rng lines ->
      (* a fanin becomes this net or some other .names' net *)
      let other = net_of rng lines in
      replace_net rng
        (fun ws ->
          let n = Array.length ws in
          if n < 3 then None
          else
            let net = if Rng.bool rng then ws.(n - 1) else other in
            Some (1 + Rng.int rng (n - 2), net))
        lines);
    (* a 7-input cover, reached or not *)
    (fun rng lines ->
      let nets = List.init 7 (fun _ -> net_of rng lines) in
      let lines =
        if Rng.bool rng then
          Array.map
            (fun l -> if directive ".outputs" l then l ^ " w7" else l)
            lines
        else lines
      in
      insert_at lines (Rng.int rng (Array.length lines + 1))
        [ ".names " ^ String.concat " " nets ^ " w7";
          Rng.pick rng [| "1111111 1"; "1-1-1-1 1"; "11 1" |] ]);
    (* mixed polarity within one cover *)
    (fun rng lines ->
      match pick_line rng is_names lines with
      | None -> lines
      | Some i ->
          let arity = max 0 (List.length (words lines.(i)) - 2) in
          let row c out =
            if arity = 0 then out else String.make arity c ^ " " ^ out
          in
          insert_at lines (i + 1) [ row '1' "1"; row '0' "0" ]);
    (* text after .end, no .end, no outputs *)
    (fun rng lines ->
      let after = [| ".names a z"; "1 1"; "junk"; ".model again"; ".end" |] in
      Array.append lines [| Rng.pick rng after |]);
    (fun rng lines ->
      match pick_line rng (fun l -> words l = [ ".end" ]) lines with
      | None -> lines
      | Some i -> splice lines i (i + 1) []);
    (fun rng lines ->
      match pick_line rng (directive ".outputs") lines with
      | None -> lines
      | Some i ->
          splice lines i (i + 1) (if Rng.bool rng then [] else [ ".outputs" ]));
  |]

(* The writer's text for a random netlist, after 0-3 mutations; the
   lines are joined by LF, sometimes by CRLF. *)
let mutated_text rng t =
  let text = Reference.to_string t in
  let lines = ref (Array.of_list (String.split_on_char '\n' text)) in
  for _ = 1 to Rng.int rng 4 do
    lines := (Rng.pick rng mutations) rng !lines
  done;
  let eol = if Rng.int rng 8 = 0 then "\r\n" else "\n" in
  String.concat eol (Array.to_list !lines)

(* The line [Blif.parse] cites for a model without outputs: its first
   .model directive, or line 1. *)
let model_line s =
  let rec first = function
    | [] -> 1
    | (lineno, line) :: rest -> (
        match Reference.tokens line with
        | ".model" :: _ -> lineno
        | _ -> first rest)
  in
  first (Reference.logical_lines s)

(* [Blif.parse] agrees with the reference on [s]: an equal netlist or an
   equal error, or, where the reference raises on a model without
   outputs, an error at [model_line s]. *)
let parse_agrees s =
  match (Reference.parse s, Blif.parse s) with
  | Ok a, Ok b -> a = b
  | Error e, Error e' -> e = e'
  | exception Invalid_argument _ -> (
      match Blif.parse s with
      | Error (line, _) -> line = model_line s
      | Ok _ -> false)
  | _ -> false

(* One text per scanning and resolution rule the random cases may take
   a while to hit. *)
let edge_cases =
  [
    (* tabs separate tokens *)
    ".model m\n.inputs\ta\tb\n.outputs y\n.names a\tb y\n11\t1\n.end\n";
    (* a continued line is numbered by its first physical line *)
    ".model m\n.inputs a\n.outputs y\n.names a \\\nghost y\n11 1\n.end\n";
    (* a '\\' inside a comment continues nothing; one before it does *)
    ".model m\n.inputs a b\n.outputs y # note \\\n.names a b y\n11 1\n";
    ".model m\n.inputs a\\# note\nb\n.outputs y\n.names a b y\n11 1\n";
    (* fanins resolve left to right *)
    ".model m\n.inputs a\n.outputs y\n.names p q y\n11 1\n.names a p\n1 1\n\
     .names a q\n0 1\n.end\n";
    (* a fanin error comes before its cover's *)
    ".model m\n.inputs a\n.outputs y\n.names a ghost y\nx1 1\n.end\n";
    ".model m\n.inputs a b c d e f g\n.outputs y\n.names a b c d e f g h y\n\
     11111111 1\n.end\n";
    (* a last line ending in '\\' *)
    ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end \\";
  ]

let test_edge_cases () =
  List.iter
    (fun s -> Alcotest.(check bool) (String.escaped s) true (parse_agrees s))
    edge_cases

let print_case seed =
  let rng = Rng.create (Printf.sprintf "blif-diff-%d" seed) in
  let t = random_netlist rng in
  let s = mutated_text rng t in
  Printf.sprintf "seed %d\n%s--- mutated ---\n%s" seed (Reference.to_string t) s

let prop_parse_matches_reference =
  QCheck.Test.make ~count:3000
    ~name:"Blif.parse = list-based reference on mutated writer text"
    QCheck.(make ~print:print_case Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create (Printf.sprintf "blif-diff-%d" seed) in
      let t = random_netlist rng in
      parse_agrees (Reference.to_string t) && parse_agrees (mutated_text rng t))

(* Every netlist's text parses back to an equivalent one (N009 and N010
   clean), and a clash-free netlist's text is the reference's. *)
let prop_writer_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"Blif.to_string round-trips; = Printf reference when clash-free"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create (Printf.sprintf "blif-diff-%d" seed) in
      let t = random_netlist rng in
      Hlp_lint.Rules_netlist.check_blif_roundtrip t = []
      && ((not (clash_free t)) || Blif.to_string t = Reference.to_string t))

(* The writer's bytes on the netlists the flow checker writes for N009:
   the elaborated datapaths of the 21 flow-mix designs (7 benchmarks x
   {lopass, hlpower alpha 1.0, hlpower alpha 0.5}, width 16), one MD5
   per design. *)
let flow_mix_pinned =
  [
    ("chem/lopass", "f7d222066408f8039cb43e26d7feb1e4");
    ("chem/hlpower-a1.0", "44e17ea9f382331951d8e14c48d7cf7b");
    ("chem/hlpower-a0.5", "f14d689436e8f3130cc07ceea4027ae4");
    ("dir/lopass", "67ac95ad25984e5ad4aa6e9d52a4fa8b");
    ("dir/hlpower-a1.0", "542099341d3b944450f405468d0b82ba");
    ("dir/hlpower-a0.5", "abe28b6028acde39fbb90eacdac19ce1");
    ("honda/lopass", "75da17b76dbac12ea2c01e35405a4d3a");
    ("honda/hlpower-a1.0", "9d5318ba042206af7cd1474b922c86b3");
    ("honda/hlpower-a0.5", "22c7c214e16c83507aae5b4e091ce0a4");
    ("mcm/lopass", "fc3ccd7235398e942f6c61e72300a822");
    ("mcm/hlpower-a1.0", "bdadb819854bad739deb421fff76f921");
    ("mcm/hlpower-a0.5", "58e32f6efed8c5bc61969dea814e7798");
    ("pr/lopass", "466729fe7740e764d43b432b2e70cbb2");
    ("pr/hlpower-a1.0", "b2cd51fe6fb5773007614b930c635f78");
    ("pr/hlpower-a0.5", "cf13c270d49f336a66b36a82054af724");
    ("steam/lopass", "e6c925b97dbe06892e71fc9921d41be9");
    ("steam/hlpower-a1.0", "1371382e3b6a53ee0c9773092fdbc062");
    ("steam/hlpower-a0.5", "6f2f2b33ce55aabcd7dd1a3e65b67fd4");
    ("wang/lopass", "757cd53bdf2fb747381afcb3990c067c");
    ("wang/hlpower-a1.0", "711176e9a044938a2359a076b06b433c");
    ("wang/hlpower-a0.5", "c792a6a4d7be9b4a6f0b255c48e71a96");
  ]

let test_flow_mix_pinned () =
  let got =
    List.map
      (fun (name, netlist) ->
        (name, Digest.to_hex (Digest.string (Blif.to_string netlist))))
      (Lazy.force Test_mapper.flow_mix_netlists)
  in
  Alcotest.(check (list (pair string string)))
    "21 flow-mix netlists" flow_mix_pinned got

let suite =
  [
    QCheck_alcotest.to_alcotest prop_parse_matches_reference;
    QCheck_alcotest.to_alcotest prop_writer_matches_reference;
    Alcotest.test_case "edge cases agree with the reference" `Quick
      test_edge_cases;
    Alcotest.test_case "writer bytes pinned on the 21 flow-mix netlists"
      `Quick test_flow_mix_pinned;
  ]
