module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Sw = Hlp_activity.Switching
module Timed = Hlp_activity.Timed
module Telemetry = Hlp_util.Telemetry

let c_maps = Telemetry.counter "mapper.maps"
let c_luts = Telemetry.counter "mapper.luts"

type objective = Min_sa | Min_depth

type lut = {
  root : Nl.node_id;
  leaves : Nl.node_id array;
  func : Tt.t;
}

type t = {
  source : Nl.t;
  luts : lut array;
  lut_network : Nl.t;
  total_sa : float;
  functional_sa : float;
  glitch_sa : float;
  depth : int;
  lut_count : int;
}

(* Cuts kept per node, a common mapper setting. *)
let max_cuts = 8

let is_terminal t id =
  Nl.is_input t id || Array.length (Nl.node t id).Nl.fanins = 0

(* A priced cut's waveform depends only on its cone table and its
   leaves' waveforms, so [map] prices each distinct pair once.  The key
   is the table's two 32-bit halves followed by the leaves' waveform
   ids; its length gives the arity. *)
module Memo = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = Hashtbl.hash
end)

(* Whether a cut whose waveform has effective SA [sa1] and arrival
   [arr1] over [size1] leaves is no worse than the other: the
   objective's (SA, arrival, size) key compared lexicographically, as
   polymorphic [<=] orders it (false at a NaN). *)
let[@inline] no_worse objective sa1 arr1 size1 sa2 arr2 size2 =
  match objective with
  | Min_sa ->
      sa1 < sa2
      || (sa1 = sa2 && (arr1 < arr2 || (arr1 = arr2 && size1 <= size2)))
  | Min_depth ->
      arr1 < arr2
      || (arr1 = arr2 && (sa1 < sa2 || (sa1 = sa2 && size1 <= size2)))

(* Inputs and constants by their exact bits: equal ones share an id. *)
module Interned = Hashtbl.Make (struct
  type t = Timed.waveform

  let equal = Timed.same_bits
  let hash = Timed.hash_bits
end)

(* "lut<root>", built in place. *)
let lut_name root =
  let rec digits n d = if n < 10 then d else digits (n / 10) (d + 1) in
  let len = 3 + digits root 1 in
  let b = Bytes.create len in
  Bytes.blit_string "lut" 0 b 0 3;
  let r = ref root in
  for i = len - 1 downto 3 do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!r mod 10)));
    r := !r / 10
  done;
  Bytes.unsafe_to_string b

let map ?(objective = Min_sa) ?(input = fun _ -> Sw.default_input) t ~k =
  Telemetry.time "mapper.map" @@ fun () ->
  let cuts = Cut.enumerate t ~k ~max_cuts in
  let n = Nl.num_nodes t in
  let inputs = Nl.inputs t in
  (* Every waveform this call computes or interns, by id, with its
     effective SA: at most one per input, one per constant value and one
     per cut of a logic node.  On the datapaths this program elaborates
     the memo prices about one cut in four afresh, so the arrays start
     there and double when full. *)
  let cuts_priced = ref 0 in
  for id = 0 to n - 1 do
    if not (is_terminal t id) then
      cuts_priced := !cuts_priced + Cut.stop cuts id - Cut.first cuts id
  done;
  let capacity = Array.length inputs + 2 + (!cuts_priced / 4) in
  let waves = ref (Array.make capacity (Timed.make ~prob:0. ~steps:[])) in
  let wave_sa = ref (Array.make capacity 0.) in
  let count = ref 0 in
  let add w =
    let id = !count in
    if id = Array.length !waves then begin
      let grow a = Array.append a a in
      waves := grow !waves;
      wave_sa := grow !wave_sa
    end;
    !waves.(id) <- w;
    !wave_sa.(id) <- Timed.total_activity w;
    incr count;
    id
  in
  let interned = Interned.create 8 in
  let intern w =
    match Interned.find interned w with
    | id -> id
    | exception Not_found ->
        let id = add w in
        Interned.replace interned w id;
        id
  in
  (* The waveform id each node presents as a LUT leaf. *)
  let leaf_wave = Array.make n (-1) in
  Array.iteri
    (fun pos id -> leaf_wave.(id) <- intern (Timed.input_waveform (input pos)))
    inputs;
  let memo = Memo.create 4096 and entries = Memo.create 64 in
  let scratch = Timed.scratch () in
  (* Key and fanin buffers by leaf count, reused by every lookup; a key
     is copied only when it is added. *)
  let keys = Array.init (k + 1) (fun m -> Array.make (m + 2) 0) in
  let fkey = Array.make 3 0 in
  let fanins = Array.init (k + 1) (fun m -> Array.make m !waves.(0)) in
  (* A cut's waveform, its cone's table being [Cut.table_lo cuts] and
     [Cut.table_hi cuts]. *)
  let price c =
    let m = Cut.size cuts c in
    let key = keys.(m) in
    key.(0) <- Cut.table_lo cuts;
    key.(1) <- Cut.table_hi cuts;
    for i = 0 to m - 1 do
      key.(i + 2) <- leaf_wave.(Cut.leaf cuts c i)
    done;
    match Memo.find memo key with
    | w -> w
    | exception Not_found ->
        (* The function's entry, under the table's halves and arity. *)
        fkey.(0) <- key.(0);
        fkey.(1) <- key.(1);
        fkey.(2) <- m;
        let entry =
          match Memo.find entries fkey with
          | e -> e
          | exception Not_found ->
              let e =
                Sw.entry (Tt.of_halves m ~lo:fkey.(0) ~hi:fkey.(1))
              in
              Memo.add entries (Array.copy fkey) e;
              e
        in
        let fanins = fanins.(m) in
        for i = 0 to m - 1 do
          fanins.(i) <- !waves.(key.(i + 2))
        done;
        let w = add (Timed.node_waveform_in scratch entry ~fanins ~delay:1) in
        Memo.add memo (Array.copy key) w;
        w
  in
  (* The chosen cut per logic node and its table's halves (the high one
     is 0 below six leaves). *)
  let best_cut = Array.make n (-1) in
  let best_lo = Array.make n 0 in
  let best_hi = Array.make (if k = 6 then n else 0) 0 in
  let arrival w = Timed.arrival !waves.(w) in
  for id = 0 to n - 1 do
    if not (is_terminal t id) then begin
      let first = Cut.first cuts id and stop = Cut.stop cuts id in
      if first = stop then failwith "Mapper.map: logic node without cuts";
      (* Ties go to the earlier cut. *)
      let best = ref (-1) in
      for c = first to stop - 1 do
        Cut.cone_table cuts t id c;
        let w = price c in
        let b = !best in
        if
          b < 0
          || not
               (no_worse objective !wave_sa.(b) (arrival b)
                  (Cut.size cuts best_cut.(id))
                  !wave_sa.(w) (arrival w) (Cut.size cuts c))
        then begin
          best_cut.(id) <- c;
          best_lo.(id) <- Cut.table_lo cuts;
          if k = 6 then best_hi.(id) <- Cut.table_hi cuts;
          best := w
        end
      done;
      leaf_wave.(id) <- !best
    end
    else if not (Nl.is_input t id) then
      (* Constant: static waveform with its constant probability. *)
      leaf_wave.(id) <-
        intern
          (Timed.make
             ~prob:(if Tt.eval (Nl.node t id).Nl.func 0 then 1. else 0.)
             ~steps:[])
  done;
  (* Cover extraction: walk backwards from outputs, counting the LUTs and
     the constants the cover reads. *)
  let needed = Bytes.make n '\000' in
  List.iter (fun (_, id) -> Bytes.set needed id '\001') (Nl.outputs t);
  let lut_count = ref 0 and consts = ref 0 in
  for id = n - 1 downto 0 do
    if Bytes.get needed id <> '\000' && not (Nl.is_input t id) then
      if is_terminal t id then incr consts
      else begin
        incr lut_count;
        let c = best_cut.(id) in
        for j = 0 to Cut.size cuts c - 1 do
          Bytes.set needed (Cut.leaf cuts c j) '\001'
        done
      end
  done;
  let lut_count = !lut_count in
  (* The cover in topological order, Eq. 3 summed in that order from the
     waveforms chosen above: each is what a unit-delay propagation over
     the LUT network would compute for that LUT (same function, same
     leaf waveforms, delay 1), and the network's constants add nothing.
     The LUT network over the same primary inputs is built alongside,
     each constant the cover reads becoming a constant node. *)
  let builder =
    Nl.create_builder_sized ~name:(Nl.name t ^ "_mapped")
      ~nodes:(Array.length inputs + lut_count + !consts)
  in
  let remap = Array.make n (-1) in
  Array.iter
    (fun id -> remap.(id) <- Nl.add_input builder (Nl.node t id).Nl.name)
    inputs;
  let map_leaf id =
    if remap.(id) < 0 then begin
      let node = Nl.node t id in
      if Array.length node.Nl.fanins <> 0 then
        failwith "Mapper.map: leaf mapped before its LUT";
      remap.(id) <- Nl.add_const builder (Tt.eval node.Nl.func 0)
    end;
    remap.(id)
  in
  let luts =
    Array.make lut_count { root = -1; leaves = [||]; func = Tt.const0 0 }
  in
  let tables = Tt.cache () in
  let l = ref 0 and total = ref 0. and functional = ref 0. in
  for id = 0 to n - 1 do
    if Bytes.get needed id <> '\000' && not (is_terminal t id) then begin
      let c = best_cut.(id) in
      let m = Cut.size cuts c in
      let leaves = Cut.leaves cuts c in
      let hi = if k = 6 then best_hi.(id) else 0 in
      let func = Tt.cached tables m ~lo:best_lo.(id) ~hi in
      luts.(!l) <- { root = id; leaves; func };
      incr l;
      let w = leaf_wave.(id) in
      total := !total +. !wave_sa.(w);
      functional := !functional +. Timed.functional_activity !waves.(w);
      let fanins = Array.make m 0 in
      for i = 0 to m - 1 do
        fanins.(i) <- map_leaf leaves.(i)
      done;
      remap.(id) <- Nl.add_node builder ~name:(lut_name id) ~func ~fanins
    end
  done;
  List.iter
    (fun (name, id) -> Nl.mark_output builder name (map_leaf id))
    (Nl.outputs t);
  let lut_network = Nl.freeze builder in
  Telemetry.incr c_maps;
  Telemetry.add c_luts lut_count;
  {
    source = t;
    luts;
    lut_network;
    total_sa = !total;
    functional_sa = !functional;
    glitch_sa = !total -. !functional;
    depth = Nl.max_depth lut_network;
    lut_count;
  }

let check_cover m =
  let t = m.source in
  Nl.validate m.lut_network;
  (* Every LUT leaf is terminal or another LUT root. *)
  let roots = Hashtbl.create 64 in
  Array.iter (fun l -> Hashtbl.replace roots l.root ()) m.luts;
  Array.iter
    (fun l ->
      Array.iter
        (fun leaf ->
          if not (is_terminal t leaf || Hashtbl.mem roots leaf) then
            failwith
              (Printf.sprintf "Mapper.check_cover: leaf %d is uncovered" leaf))
        l.leaves)
    m.luts;
  List.iter
    (fun (name, id) ->
      if not (is_terminal t id || Hashtbl.mem roots id) then
        failwith ("Mapper.check_cover: output not implemented: " ^ name))
    (Nl.outputs t);
  (* Functional equivalence on 64 random vectors, evaluated
     word-parallel: each input draws one word of lane-packed values per
     batch, and every output of the cover must match the source
     lane-for-lane on the active lanes. *)
  let module Bits = Hlp_util.Bits in
  let not_equivalent () =
    failwith "Mapper.check_cover: LUT network is not equivalent to source"
  in
  let src_outs = List.sort compare (Nl.outputs t) in
  let map_outs = List.sort compare (Nl.outputs m.lut_network) in
  if List.map fst src_outs <> List.map fst map_outs then not_equivalent ();
  let rng = Hlp_util.Rng.create "mapper-check" in
  let n_inputs = Array.length (Nl.inputs t) in
  let inw = Array.make n_inputs 0 in
  let total = 64 in
  let base = ref 0 in
  while !base < total do
    let active = min Bits.lanes (total - !base) in
    let amask = Bits.mask_lanes active in
    for k = 0 to n_inputs - 1 do
      inw.(k) <- Int64.to_int (Hlp_util.Rng.bits64 rng) land amask
    done;
    let expect = Nl.eval_words t inw in
    let got = Nl.eval_words m.lut_network inw in
    List.iter2
      (fun (_, src_id) (_, map_id) ->
        if (expect.(src_id) lxor got.(map_id)) land amask <> 0 then
          not_equivalent ())
      src_outs map_outs;
    base := !base + active
  done
