(* Net naming: inputs keep their declared names (sanitized), logic nodes get
   "n<id>", and declared outputs are emitted as single-input buffer covers so
   their user-facing names survive a round trip.  An input or output whose
   sanitized name an earlier input or output already has (two names that
   sanitize alike, or an output named like an input) would redefine that
   net, so it becomes "<name>_<k>" for the least k that no input, output or
   earlier renamed net uses.  A node whose "n<id>" is taken becomes
   "n<id>_<k>" in the same way.  No other node can have that name: "n<id>"
   names have no underscore, and the digits before the underscore are the
   node's own id. *)

let sanitize s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '_' || c = '[' || c = ']' || c = '.'
  in
  let s = String.map (fun c -> if ok c then c else '_') s in
  if s = "" then "_" else s

(* [Some k] when [name] is "n<k>" as the writer prints node k. *)
let node_number name =
  if String.length name < 2 || name.[0] <> 'n' then None
  else
    match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
    | Some k when k >= 0 && "n" ^ string_of_int k = name -> Some k
    | _ -> None

(* BLIF names by node id, "" for a logic node printed as "n<id>", and
   the outputs as (BLIF name, driver id). *)
let net_names t =
  let taken = Hashtbl.create 64 in
  let take name = Hashtbl.replace taken name () in
  let free base =
    let rec go k =
      let name = base ^ "_" ^ string_of_int k in
      if Hashtbl.mem taken name then go (k + 1) else name
    in
    go 1
  in
  let inputs = Netlist.inputs t in
  let input_names =
    Array.map (fun id -> sanitize (Netlist.node t id).Netlist.name) inputs
  in
  let outputs =
    List.map (fun (name, id) -> (sanitize name, id)) (Netlist.outputs t)
  in
  Array.iter take input_names;
  List.iter (fun (name, _) -> take name) outputs;
  let seen = Hashtbl.create 64 in
  let unique name =
    if Hashtbl.mem seen name then (
      let name = free name in
      take name;
      name)
    else (
      Hashtbl.replace seen name ();
      name)
  in
  let names = Array.make (Netlist.num_nodes t) "" in
  Array.iteri (fun k id -> names.(id) <- unique input_names.(k)) inputs;
  let outputs = List.map (fun (name, id) -> (unique name, id)) outputs in
  Hashtbl.iter
    (fun name () ->
      match node_number name with
      | Some id when id < Array.length names && not (Netlist.is_input t id) ->
          names.(id) <- free name
      | _ -> ())
    taken;
  (names, outputs)

let rec add_int buf n =
  if n >= 10 then add_int buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_net buf names id =
  match names.(id) with
  | "" ->
      Buffer.add_char buf 'n';
      add_int buf id
  | name -> Buffer.add_string buf name

let to_string t =
  let names, outputs = net_names t in
  let n = Netlist.num_nodes t in
  let buf = Buffer.create (256 + (32 * n)) in
  let add = Buffer.add_string buf and add_char = Buffer.add_char buf in
  add ".model ";
  add (sanitize (Netlist.name t));
  add "\n.inputs ";
  Array.iteri
    (fun k id ->
      if k > 0 then add_char ' ';
      add_net buf names id)
    (Netlist.inputs t);
  add "\n.outputs ";
  List.iteri
    (fun k (name, _) ->
      if k > 0 then add_char ' ';
      add name)
    outputs;
  add_char '\n';
  for id = 0 to n - 1 do
    if not (Netlist.is_input t id) then begin
      let node = Netlist.node t id in
      add ".names";
      Array.iter
        (fun f ->
          add_char ' ';
          add_net buf names f)
        node.Netlist.fanins;
      add_char ' ';
      add_net buf names id;
      add_char '\n';
      let func = node.Netlist.func in
      let arity = Truth_table.arity func in
      if arity = 0 then begin
        (* Constant: const1 gets the single cover line "1"; const0 gets an
           empty cover. *)
        if Truth_table.eval func 0 then add "1\n"
      end
      else
        for m = 0 to (1 lsl arity) - 1 do
          if Truth_table.eval func m then begin
            for i = 0 to arity - 1 do
              add_char (if m land (1 lsl i) <> 0 then '1' else '0')
            done;
            add " 1\n"
          end
        done
    end
  done;
  List.iter
    (fun (name, id) ->
      add ".names ";
      add_net buf names id;
      add_char ' ';
      add name;
      add "\n1 1\n")
    outputs;
  add ".end\n";
  Buffer.contents buf

let output_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

(* ------------------------------------------------------------------ *)
(* Parsing

   One pass over the text splits it into logical lines (comments cut at
   '#', a physical line ending in '\' joined to the next, each logical
   line numbered by its first physical line) and each line into tokens
   held as (offset, length) pairs.  Every net is interned to an int when
   first seen; a [.names] entry keeps its nets as ints and its cover
   rows as offsets.  Then each net may be defined once, the inputs are
   added in order, and a depth-first walk from the [.outputs], fanins
   left to right, adds each node it reaches after its fanins, turning
   the node's cover into a table only then.  All working state belongs
   to one call. *)

(* Internal, structured parse failure: every branch carries the line the
   offending construct came from, so callers (the lint subsystem in
   particular) can point at the exact source line. *)
exception Parse_error of int * string

let fail_line lineno msg = raise (Parse_error (lineno, msg))

(* A growable int array. *)
type ints = { mutable a : int array; mutable n : int }

let ints () = { a = Array.make 64 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  Array.unsafe_set v.a v.n x;
  v.n <- v.n + 1

(* Whether the [len] bytes of [s] at [off] equal [d]'s [len] bytes at
   [d_off]. *)
let same s off len d d_off =
  let i = ref 0 in
  while
    !i < len
    && String.unsafe_get s (off + !i) = String.unsafe_get d (d_off + !i)
  do
    incr i
  done;
  !i = len

let hash s off len =
  let h = ref 0 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

(* The text, what the scan has read so far, and its working buffers. *)
type state = {
  s : string;
  (* Nets: net [k] is the text at [net_off.(k)], [net_len.(k)] long;
     [slots] is an open-addressing index (net + 1, 0 when free) whose
     size is a power of two at least twice the net count. *)
  net_off : ints;
  net_len : ints;
  mutable slots : int array;
  (* The logical line's tokens. *)
  tok_off : ints;
  tok_len : ints;
  (* [.names] entries: line, first net, first row.  Entry [j]'s nets
     (its fanins, then the net it defines) run up to entry [j + 1]'s
     first net, its rows up to entry [j + 1]'s first row. *)
  e_line : ints;
  e_net : ints;
  e_row : ints;
  entry_nets : ints;
  (* Cover rows: the cube's offset and length, and the output
     character. *)
  r_off : ints;
  r_len : ints;
  r_out : ints;
  in_line : ints;
  in_net : ints;
  out_line : ints;
  out_net : ints;
  mutable model : string;
  mutable model_line : int; (* of the first [.model]; 0 if none *)
  mutable open_nets : int; (* the open entry's net count; 0 if none *)
}

(* The net named by the [len] bytes at [off], interned if new. *)
let intern st off len =
  let s = st.s and slots = st.slots in
  let mask = Array.length slots - 1 in
  let i = ref (hash s off len land mask) in
  while
    let k = Array.unsafe_get slots !i - 1 in
    k >= 0
    && not
         (st.net_len.a.(k) = len && same s off len s st.net_off.a.(k))
  do
    i := (!i + 1) land mask
  done;
  let k = slots.(!i) - 1 in
  if k >= 0 then k
  else begin
    let k = st.net_off.n in
    push st.net_off off;
    push st.net_len len;
    slots.(!i) <- k + 1;
    if 2 * (k + 1) > Array.length slots then begin
      let slots = Array.make (2 * Array.length slots) 0 in
      let mask = Array.length slots - 1 in
      for j = 0 to k do
        let i = ref (hash s st.net_off.a.(j) st.net_len.a.(j) land mask) in
        while slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- j + 1
      done;
      st.slots <- slots
    end;
    k
  end

let net_name st k = String.sub st.s st.net_off.a.(k) st.net_len.a.(k)

(* Whether the line's first token is the directive [d]. *)
let is st d =
  st.tok_len.a.(0) = String.length d
  && same st.s st.tok_off.a.(0) (String.length d) d 0

let add_row st cube_len out =
  push st.r_off st.tok_off.a.(0);
  push st.r_len cube_len;
  push st.r_out (Char.code (String.unsafe_get st.s out))

(* A cover row of the open entry; an unknown directive reads as one
   too. *)
let row st lineno =
  let k = st.tok_off.n in
  if st.open_nets = 0 then
    fail_line lineno
      ("unexpected token "
      ^ String.sub st.s st.tok_off.a.(0) st.tok_len.a.(0))
  else if k = 1 then
    if st.open_nets = 1 then add_row st 0 st.tok_off.a.(0)
    else fail_line lineno "cover row missing output value"
  else if k = 2 && st.tok_len.a.(1) = 1 then
    add_row st st.tok_len.a.(0) st.tok_off.a.(1)
  else fail_line lineno "malformed cover row"

(* The nets after the directive, each with the line, onto [lines] and
   [nets]. *)
let declare st lineno lines nets =
  st.open_nets <- 0;
  for i = 1 to st.tok_off.n - 1 do
    push lines lineno;
    push nets (intern st st.tok_off.a.(i) st.tok_len.a.(i))
  done

let line st lineno =
  let k = st.tok_off.n in
  if String.unsafe_get st.s st.tok_off.a.(0) <> '.' then row st lineno
  else if is st ".names" then begin
    if k = 1 then fail_line lineno ".names without nets";
    push st.e_line lineno;
    push st.e_net st.entry_nets.n;
    push st.e_row st.r_off.n;
    for i = 1 to k - 1 do
      push st.entry_nets (intern st st.tok_off.a.(i) st.tok_len.a.(i))
    done;
    st.open_nets <- k - 1
  end
  else if is st ".inputs" then declare st lineno st.in_line st.in_net
  else if is st ".outputs" then declare st lineno st.out_line st.out_net
  else if is st ".model" then begin
    st.open_nets <- 0;
    if st.model_line = 0 then st.model_line <- lineno;
    if k > 1 then st.model <- String.sub st.s st.tok_off.a.(1) st.tok_len.a.(1)
  end
  else if is st ".end" then st.open_nets <- 0
  else if is st ".latch" || is st ".subckt" || is st ".search" then
    fail_line lineno "only combinational single-model BLIF is supported"
  else row st lineno

let end_token st tok stop =
  if stop > tok then begin
    push st.tok_off tok;
    push st.tok_len (stop - tok)
  end

(* Reads every line of [st.s]. *)
let scan st =
  let s = st.s in
  let n = String.length s in
  (* [start] numbers the logical line, [tok] is where the token being
     read starts, or -1. *)
  let i = ref 0 and phys = ref 1 and start = ref 1 and tok = ref (-1) in
  let continued = ref false in
  while !i <= n do
    let c = if !i < n then String.unsafe_get s !i else '\n' in
    if c = ' ' || c = '\t' then begin
      if !tok >= 0 then end_token st !tok !i;
      tok := -1
    end
    else if c = '\n' || c = '#' then begin
      (* The text of the physical line ends here, before any comment. *)
      continued := !i > 0 && String.unsafe_get s (!i - 1) = '\\';
      if !tok >= 0 then end_token st !tok (if !continued then !i - 1 else !i);
      tok := -1;
      while !i < n && String.unsafe_get s !i <> '\n' do
        incr i
      done;
      if not !continued then begin
        if st.tok_off.n > 0 then line st !start;
        st.tok_off.n <- 0;
        st.tok_len.n <- 0;
        start := !phys + 1
      end;
      incr phys
    end
    else if !tok < 0 then tok := !i;
    incr i
  done;
  (* A last line ending in '\' ends the text. *)
  if !continued && st.tok_off.n > 0 then line st !start

(* Entry [j]'s cover as a table of [arity] inputs. *)
let table st j ~arity lineno =
  if arity > Truth_table.max_vars then
    fail_line lineno
      (Printf.sprintf "function of %d inputs exceeds %d-input limit" arity
         Truth_table.max_vars);
  let first = st.e_row.a.(j) and last = st.e_row.a.(j + 1) - 1 in
  let full = (1 lsl arity) - 1 in
  (* Minterms 0-31 and 32-63. *)
  let lo = ref 0 and hi = ref 0 in
  for r = first to last do
    if r > first && st.r_out.a.(r) <> st.r_out.a.(first) then
      fail_line lineno "mixed output polarities in cover";
    if st.r_len.a.(r) <> arity then
      fail_line lineno "cube width does not match fanin count";
    let off = st.r_off.a.(r) in
    let care = ref 0 and value = ref 0 in
    for i = 0 to arity - 1 do
      match String.unsafe_get st.s (off + i) with
      | '0' -> care := !care lor (1 lsl i)
      | '1' ->
          care := !care lor (1 lsl i);
          value := !value lor (1 lsl i)
      | '-' -> ()
      | c -> fail_line lineno (Printf.sprintf "bad cube character %c" c)
    done;
    (* Every minterm the cube covers: [value] with each subset of the
       don't-care positions. *)
    let dc = full land lnot !care in
    let sub = ref dc and more = ref true in
    while !more do
      let m = !value lor !sub in
      if m < 32 then lo := !lo lor (1 lsl m)
      else hi := !hi lor (1 lsl (m - 32));
      more := !sub <> 0;
      sub := (!sub - 1) land dc
    done
  done;
  let table =
    Truth_table.create arity
      (Int64.logor (Int64.of_int !lo) (Int64.shift_left (Int64.of_int !hi) 32))
  in
  if last < first then table
  else
    match Char.chr st.r_out.a.(first) with
    | '1' -> table
    | '0' -> Truth_table.not_ table
    | c -> fail_line lineno (Printf.sprintf "bad output value %c" c)

(* The netlist [st] describes, once the scan has read it all. *)
let build st =
  let n_nets = st.net_off.n in
  push st.e_net st.entry_nets.n;
  push st.e_row st.r_off.n;
  let def = Array.make n_nets (-1) in
  for j = 0 to st.e_line.n - 1 do
    let net = st.entry_nets.a.(st.e_net.a.(j + 1) - 1) in
    if def.(net) >= 0 then
      fail_line st.e_line.a.(j) ("net defined twice: " ^ net_name st net);
    def.(net) <- j
  done;
  let b = Netlist.create_builder ~name:st.model in
  let node = Array.make n_nets (-1) in
  for k = 0 to st.in_net.n - 1 do
    let net = st.in_net.a.(k) in
    if node.(net) >= 0 then
      fail_line st.in_line.a.(k) ("duplicate input " ^ net_name st net);
    node.(net) <- Netlist.add_input b (net_name st net)
  done;
  let visiting = Bytes.make n_nets '\000' in
  (* Depth-first insertion in dependency order, detecting cycles.
     [ref_line] is the line of the construct that demanded the net (a
     [.names] fanin list or the [.outputs] directive), so undefined-net
     and cycle errors point at real source lines. *)
  let rec resolve ref_line net =
    if node.(net) >= 0 then node.(net)
    else begin
      let j = def.(net) in
      if j < 0 then fail_line ref_line ("undefined net " ^ net_name st net);
      let lineno = st.e_line.a.(j) in
      if Bytes.get visiting net <> '\000' then
        fail_line lineno ("combinational cycle through " ^ net_name st net);
      Bytes.set visiting net '\001';
      let first = st.e_net.a.(j) in
      let arity = st.e_net.a.(j + 1) - 1 - first in
      let fanins = Array.make arity 0 in
      for i = 0 to arity - 1 do
        fanins.(i) <- resolve lineno st.entry_nets.a.(first + i)
      done;
      let func = table st j ~arity lineno in
      let id = Netlist.add_node b ~name:(net_name st net) ~func ~fanins in
      Bytes.set visiting net '\000';
      node.(net) <- id;
      id
    end
  in
  for k = 0 to st.out_net.n - 1 do
    let net = st.out_net.a.(k) in
    Netlist.mark_output b (net_name st net) (resolve st.out_line.a.(k) net)
  done;
  if st.out_net.n = 0 then
    fail_line (max 1 st.model_line) "no outputs declared";
  Netlist.freeze b

let parse s =
  let st =
    {
      s; net_off = ints (); net_len = ints (); slots = Array.make 256 0;
      tok_off = ints (); tok_len = ints (); e_line = ints ();
      e_net = ints (); e_row = ints (); entry_nets = ints ();
      r_off = ints (); r_len = ints (); r_out = ints (); in_line = ints ();
      in_net = ints (); out_line = ints (); out_net = ints ();
      model = "blif"; model_line = 0; open_nets = 0;
    }
  in
  match
    scan st;
    build st
  with
  | t -> Ok t
  | exception Parse_error (lineno, msg) -> Error (lineno, msg)

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
