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
  if s = "" then "_"
  else if String.for_all ok s then s
  else String.map (fun c -> if ok c then c else '_') s

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

(* The text goes into one string of the length [length] computes, so
   the writer allocates it once and copies nothing. *)
let digits n =
  let rec go n d = if n < 10 then d else go (n / 10) (d + 1) in
  go n 1

let net_length names id =
  match names.(id) with "" -> 1 + digits id | name -> String.length name

(* Cover rows of a node computing [func]: one per minterm in the
   on-set, or the single row "1" of a constant 1. *)
let rows func =
  if Truth_table.arity func = 0 then
    if Truth_table.eval func 0 then 1 else 0
  else Truth_table.count_ones func

let length t names outputs =
  let len = ref (String.length ".model \n.inputs \n.outputs \n.end\n") in
  let add n = len := !len + n in
  add (String.length (sanitize (Netlist.name t)));
  Array.iteri
    (fun k id -> add (Bool.to_int (k > 0) + net_length names id))
    (Netlist.inputs t);
  List.iteri
    (fun k (name, _) -> add (Bool.to_int (k > 0) + String.length name))
    outputs;
  for id = 0 to Netlist.num_nodes t - 1 do
    if not (Netlist.is_input t id) then begin
      let node = Netlist.node t id in
      let fanins = node.Netlist.fanins in
      (* ".names", a space and a net per fanin and the node, "\n" *)
      add (8 + Array.length fanins + net_length names id);
      for i = 0 to Array.length fanins - 1 do
        add (net_length names fanins.(i))
      done;
      let arity = Truth_table.arity node.Netlist.func in
      (* a row is the cube, " 1\n"; a constant's is "1\n" *)
      add (rows node.Netlist.func * (if arity = 0 then 2 else arity + 3))
    end
  done;
  (* ".names ", the driving net, a space, the name and "\n1 1\n" *)
  List.iter
    (fun (name, id) -> add (13 + net_length names id + String.length name))
    outputs;
  !len

type out = { text : Bytes.t; mutable pos : int }

let add_char o c =
  Bytes.unsafe_set o.text o.pos c;
  o.pos <- o.pos + 1

let add o str =
  Bytes.blit_string str 0 o.text o.pos (String.length str);
  o.pos <- o.pos + String.length str

let rec add_int o n =
  if n >= 10 then add_int o (n / 10);
  add_char o (Char.unsafe_chr (48 + (n mod 10)))

let add_net o names id =
  match names.(id) with
  | "" ->
      add_char o 'n';
      add_int o id
  | name -> add o name

let to_string t =
  let names, outputs = net_names t in
  let o = { text = Bytes.create (length t names outputs); pos = 0 } in
  let add_char = add_char o and add = add o in
  add ".model ";
  add (sanitize (Netlist.name t));
  add "\n.inputs ";
  Array.iteri
    (fun k id ->
      if k > 0 then add_char ' ';
      add_net o names id)
    (Netlist.inputs t);
  add "\n.outputs ";
  List.iteri
    (fun k (name, _) ->
      if k > 0 then add_char ' ';
      add name)
    outputs;
  add_char '\n';
  for id = 0 to Netlist.num_nodes t - 1 do
    if not (Netlist.is_input t id) then begin
      let node = Netlist.node t id in
      add ".names";
      let fanins = node.Netlist.fanins in
      for i = 0 to Array.length fanins - 1 do
        add_char ' ';
        add_net o names fanins.(i)
      done;
      add_char ' ';
      add_net o names id;
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
      add_net o names id;
      add_char ' ';
      add name;
      add "\n1 1\n")
    outputs;
  add ".end\n";
  assert (o.pos = Bytes.length o.text);
  Bytes.unsafe_to_string o.text

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
   first seen; a [.names] entry keeps its nets as ints, and its cover
   rows are folded into the entry's table as they are read: its two
   32-bit halves, or the first fault a row showed, reported only if the
   entry is built.  Then each net may be defined once, the inputs are
   added in order, and a depth-first walk from the [.outputs], fanins
   left to right, adds each node it reaches after its fanins.

   The working arrays are sized before the scan from a count of the
   text: an entry per line that starts with ".n", an entry net per blank
   on such a line, an input or output per blank on a line that starts
   with ".i" or ".o".  For the text [to_string] writes the counts are
   exact; for other text an array grows when its count is too small.
   All working state belongs to one call. *)

(* Internal, structured parse failure: every branch carries the line the
   offending construct came from, so callers (the lint subsystem in
   particular) can point at the exact source line. *)
exception Parse_error of int * string

let fail_line lineno msg = raise (Parse_error (lineno, msg))

(* 32-bit ints: every offset, length, count and id the parse holds is
   below the text's length, which [parse] bounds. *)
let[@inline] get32 b i = Int32.to_int (Bytes.get_int32_le b (4 * i))
let[@inline] set32 b i v = Bytes.set_int32_le b (4 * i) (Int32.of_int v)

(* A growable vector of them. *)
type ints = { mutable a : Bytes.t; mutable n : int }

let ints size = { a = Bytes.create (4 * max size 16); n = 0 }
let[@inline] get v i = get32 v.a i

let push v x =
  if 4 * v.n = Bytes.length v.a then begin
    let a = Bytes.create (8 * v.n) in
    Bytes.blit v.a 0 a 0 (4 * v.n);
    v.a <- a
  end;
  set32 v.a v.n x;
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

(* The built entries' tables, one per entry. *)
type tables = { mutable t : Truth_table.t array; mutable count : int }

(* An entry that is too wide or whose cover faulted, its fault kept
   apart. *)
let faulty = Truth_table.const0 0

let push_table v x =
  if v.count = Array.length v.t then begin
    let t = Array.make (2 * v.count) faulty in
    Array.blit v.t 0 t 0 v.count;
    v.t <- t
  end;
  v.t.(v.count) <- x;
  v.count <- v.count + 1

(* A cover's first fault, as [kind lor (char lsl 3)]; 0 for none. *)
let mixed_polarities = 1
let bad_width = 2
let bad_cube = 3
let bad_output = 4

(* The text, what the scan has read so far, and its working buffers. *)
type state = {
  s : string;
  (* Nets: net [k] is the text at [net_off.(k)], [net_len.(k)] long;
     [slots] is an open-addressing index (net + 1, 0 when free) whose
     size is a power of two at least twice the net count. *)
  net_off : ints;
  net_len : ints;
  mutable slots : Bytes.t;
  (* The logical line's tokens. *)
  tok_off : ints;
  tok_len : ints;
  (* [.names] entries: line, first net, and the cover's table, or
     [faulty] and the fault in [faults] by entry.  Entry [j]'s nets (its
     fanins, then the net it defines) run up to entry [j + 1]'s first
     net. *)
  e_line : ints;
  e_net : ints;
  e_table : tables;
  mutable faults : (int * int) list;
  cache : Truth_table.cache;
  entry_nets : ints;
  in_line : ints;
  in_net : ints;
  out_line : ints;
  out_net : ints;
  mutable model : string;
  mutable model_line : int; (* of the first [.model]; 0 if none *)
  mutable open_nets : int; (* the open entry's net count; 0 if none *)
  (* The last entry's cover so far: rows read, the first row's output
     character, the minterms (0-31 and 32-63) and the fault. *)
  mutable rows : int;
  mutable first_out : char;
  mutable lo : int;
  mutable hi : int;
  mutable fault : int;
}

(* The net named by the [len] bytes at [off], interned if new. *)
let intern st off len =
  let s = st.s and slots = st.slots in
  let mask = (Bytes.length slots / 4) - 1 in
  let i = ref (hash s off len land mask) in
  while
    let k = get32 slots !i - 1 in
    k >= 0
    && not
         (get st.net_len k = len && same s off len s (get st.net_off k))
  do
    i := (!i + 1) land mask
  done;
  let k = get32 slots !i - 1 in
  if k >= 0 then k
  else begin
    let k = st.net_off.n in
    push st.net_off off;
    push st.net_len len;
    set32 slots !i (k + 1);
    if 8 * (k + 1) > Bytes.length slots then begin
      let slots = Bytes.make (2 * Bytes.length slots) '\000' in
      let mask = (Bytes.length slots / 4) - 1 in
      for j = 0 to k do
        let i = ref (hash s (get st.net_off j) (get st.net_len j) land mask) in
        while get32 slots !i <> 0 do
          i := (!i + 1) land mask
        done;
        set32 slots !i (j + 1)
      done;
      st.slots <- slots
    end;
    k
  end

let net_name st k = String.sub st.s (get st.net_off k) (get st.net_len k)

(* Whether the line's first token is the directive [d]. *)
let is st d =
  get st.tok_len 0 = String.length d
  && same st.s (get st.tok_off 0) (String.length d) d 0

(* Folds a row of the open entry (the cube at the line's first token,
   [cube_len] long, and the output character at [out]) into its
   table, unless an earlier row has faulted.  An entry wider than
   {!Truth_table.max_vars} fails on its width alone, so its rows are
   not read. *)
let add_row st cube_len out =
  let out = String.unsafe_get st.s out in
  let arity = st.open_nets - 1 in
  if st.fault = 0 && arity <= Truth_table.max_vars then
    if st.rows > 0 && out <> st.first_out then st.fault <- mixed_polarities
    else if cube_len <> arity then st.fault <- bad_width
    else begin
      let off = get st.tok_off 0 in
      let care = ref 0 and value = ref 0 and i = ref 0 in
      while !i < arity do
        (match String.unsafe_get st.s (off + !i) with
        | '0' -> care := !care lor (1 lsl !i)
        | '1' ->
            care := !care lor (1 lsl !i);
            value := !value lor (1 lsl !i)
        | '-' -> ()
        | c ->
            st.fault <- bad_cube lor (Char.code c lsl 3);
            i := arity);
        incr i
      done;
      if st.fault = 0 then begin
        (* Every minterm the cube covers: [value] with each subset of
           the don't-care positions. *)
        let dc = ((1 lsl arity) - 1) land lnot !care in
        let sub = ref dc and more = ref true in
        while !more do
          let m = !value lor !sub in
          if m < 32 then st.lo <- st.lo lor (1 lsl m)
          else st.hi <- st.hi lor (1 lsl (m - 32));
          more := !sub <> 0;
          sub := (!sub - 1) land dc
        done
      end
    end;
  if st.rows = 0 then st.first_out <- out;
  st.rows <- st.rows + 1

(* Ends the last entry's cover: its table, complemented for output
   value 0, or its fault. *)
let close_entry st =
  if st.e_table.count < st.e_line.n then begin
    let arity = st.entry_nets.n - get st.e_net (st.e_line.n - 1) - 1 in
    if st.fault = 0 && st.rows > 0 && st.first_out <> '1' then
      if st.first_out = '0' && arity <= Truth_table.max_vars then begin
        st.lo <- lnot st.lo land Truth_table.low_mask arity;
        st.hi <- lnot st.hi land Truth_table.high_mask arity
      end
      else if st.first_out <> '0' then
        st.fault <- bad_output lor (Char.code st.first_out lsl 3);
    if st.fault <> 0 then
      st.faults <- (st.e_table.count, st.fault) :: st.faults;
    push_table st.e_table
      (if st.fault <> 0 || arity > Truth_table.max_vars then faulty
       else Truth_table.cached st.cache arity ~lo:st.lo ~hi:st.hi);
    st.rows <- 0;
    st.lo <- 0;
    st.hi <- 0;
    st.fault <- 0
  end

(* A cover row of the open entry; an unknown directive reads as one
   too. *)
let row st lineno =
  let k = st.tok_off.n in
  if st.open_nets = 0 then
    fail_line lineno
      ("unexpected token "
      ^ String.sub st.s (get st.tok_off 0) (get st.tok_len 0))
  else if k = 1 then
    if st.open_nets = 1 then add_row st 0 (get st.tok_off 0)
    else fail_line lineno "cover row missing output value"
  else if k = 2 && get st.tok_len 1 = 1 then
    add_row st (get st.tok_len 0) (get st.tok_off 1)
  else fail_line lineno "malformed cover row"

(* The nets after the directive, each with the line, onto [lines] and
   [nets]. *)
let declare st lineno lines nets =
  st.open_nets <- 0;
  for i = 1 to st.tok_off.n - 1 do
    push lines lineno;
    push nets (intern st (get st.tok_off i) (get st.tok_len i))
  done

let line st lineno =
  let k = st.tok_off.n in
  if String.unsafe_get st.s (get st.tok_off 0) <> '.' then row st lineno
  else if is st ".names" then begin
    if k = 1 then fail_line lineno ".names without nets";
    close_entry st;
    push st.e_line lineno;
    push st.e_net st.entry_nets.n;
    for i = 1 to k - 1 do
      push st.entry_nets (intern st (get st.tok_off i) (get st.tok_len i))
    done;
    st.open_nets <- k - 1
  end
  else if is st ".inputs" then declare st lineno st.in_line st.in_net
  else if is st ".outputs" then declare st lineno st.out_line st.out_net
  else if is st ".model" then begin
    st.open_nets <- 0;
    if st.model_line = 0 then st.model_line <- lineno;
    if k > 1 then
      st.model <- String.sub st.s (get st.tok_off 1) (get st.tok_len 1)
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
  if !continued && st.tok_off.n > 0 then line st !start;
  close_entry st

(* Entry [j]'s table of [arity] inputs. *)
let table st j ~arity lineno =
  if arity > Truth_table.max_vars then
    fail_line lineno
      (Printf.sprintf "function of %d inputs exceeds %d-input limit" arity
         Truth_table.max_vars);
  let table = st.e_table.t.(j) in
  if table != faulty then table
  else begin
    let fault = List.assoc j st.faults in
    let kind = fault land 7 and c = Char.chr (fault lsr 3) in
    if kind = mixed_polarities then
      fail_line lineno "mixed output polarities in cover"
    else if kind = bad_width then
      fail_line lineno "cube width does not match fanin count"
    else if kind = bad_cube then
      fail_line lineno (Printf.sprintf "bad cube character %c" c)
    else fail_line lineno (Printf.sprintf "bad output value %c" c)
  end

(* The netlist [st] describes, once the scan has read it all. *)
let build st =
  let n_nets = st.net_off.n in
  push st.e_net st.entry_nets.n;
  (* Per net: its node id once added (>= 0), the entry [j] defining it
     as [-2 - j] until then, or -1. *)
  let node = Bytes.make (4 * n_nets) '\255' in
  for j = 0 to st.e_line.n - 1 do
    let net = get st.entry_nets (get st.e_net (j + 1) - 1) in
    if get32 node net <> -1 then
      fail_line (get st.e_line j) ("net defined twice: " ^ net_name st net);
    set32 node net (-2 - j)
  done;
  let b =
    Netlist.create_builder_sized ~name:st.model
      ~nodes:(st.in_net.n + st.e_line.n)
  in
  for k = 0 to st.in_net.n - 1 do
    let net = get st.in_net k in
    if get32 node net >= 0 then
      fail_line (get st.in_line k) ("duplicate input " ^ net_name st net);
    set32 node net (Netlist.add_input b (net_name st net))
  done;
  let visiting = Bytes.make n_nets '\000' in
  (* Depth-first insertion in dependency order, detecting cycles.
     [ref_line] is the line of the construct that demanded the net (a
     [.names] fanin list or the [.outputs] directive), so undefined-net
     and cycle errors point at real source lines. *)
  let rec resolve ref_line net =
    let id = get32 node net in
    if id >= 0 then id
    else begin
      let j = -2 - id in
      if j < 0 then fail_line ref_line ("undefined net " ^ net_name st net);
      let lineno = get st.e_line j in
      if Bytes.get visiting net <> '\000' then
        fail_line lineno ("combinational cycle through " ^ net_name st net);
      Bytes.set visiting net '\001';
      let first = get st.e_net j in
      let arity = get st.e_net (j + 1) - 1 - first in
      let fanins = Array.make arity 0 in
      for i = 0 to arity - 1 do
        fanins.(i) <- resolve lineno (get st.entry_nets (first + i))
      done;
      let func = table st j ~arity lineno in
      let id = Netlist.add_node b ~name:(net_name st net) ~func ~fanins in
      Bytes.set visiting net '\000';
      set32 node net id;
      id
    end
  in
  for k = 0 to st.out_net.n - 1 do
    let net = get st.out_net k in
    Netlist.mark_output b (net_name st net) (resolve (get st.out_line k) net)
  done;
  if st.out_net.n = 0 then
    fail_line (max 1 st.model_line) "no outputs declared";
  Netlist.freeze b

(* What the scan pushes, counted for text as [to_string] writes it
   (see above). *)
let state s =
  let n = String.length s in
  let entries = ref 0 and entry_nets = ref 0 and inputs = ref 0 in
  let outputs = ref 0 and i = ref 0 in
  while !i < n do
    if String.unsafe_get s !i = '.' && !i + 1 < n then begin
      let kind = String.unsafe_get s (!i + 1) and blanks = ref 0 in
      while !i < n && String.unsafe_get s !i <> '\n' do
        (match String.unsafe_get s !i with
        | ' ' | '\t' -> incr blanks
        | _ -> ());
        incr i
      done;
      match kind with
      | 'n' ->
          incr entries;
          entry_nets := !entry_nets + !blanks
      | 'i' -> inputs := !inputs + !blanks
      | 'o' -> outputs := !outputs + !blanks
      | _ -> ()
    end
    else
      while !i < n && String.unsafe_get s !i <> '\n' do
        incr i
      done;
    incr i
  done;
  let nets = !entries + !inputs in
  let slots = ref 256 in
  while !slots < 2 * nets do
    slots := 2 * !slots
  done;
  {
    s; net_off = ints nets; net_len = ints nets;
    slots = Bytes.make (4 * !slots) '\000';
    tok_off = ints 16; tok_len = ints 16; e_line = ints !entries;
    e_net = ints (!entries + 1);
    e_table = { t = Array.make (max !entries 16) faulty; count = 0 };
    faults = []; cache = Truth_table.cache (); entry_nets = ints !entry_nets;
    in_line = ints !inputs; in_net = ints !inputs; out_line = ints !outputs;
    out_net = ints !outputs; model = "blif"; model_line = 0; open_nets = 0;
    rows = 0; first_out = '1'; lo = 0; hi = 0; fault = 0;
  }

let parse s =
  if String.length s > 0x7FFFFF00 then
    invalid_arg "Blif.parse: text of 2 GiB or more";
  let st = state s in
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
