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
  luts : lut list;
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

let map ?(objective = Min_sa) ?(input = fun _ -> Sw.default_input) t ~k =
  Telemetry.time "mapper.map" @@ fun () ->
  let cuts = Cut.enumerate t ~k ~max_cuts in
  let n = Nl.num_nodes t in
  (* Every waveform this call computes or interns, by id, with its
     effective SA and arrival. *)
  let waves = ref (Array.make 256 (Timed.make ~prob:0. ~steps:[])) in
  let wave_sa = ref (Array.make 256 0.) in
  let wave_arrival = ref (Array.make 256 0) in
  let count = ref 0 in
  let add w =
    if !count = Array.length !waves then begin
      (* Double the capacity; the copied second half is overwritten. *)
      waves := Array.append !waves !waves;
      wave_sa := Array.append !wave_sa !wave_sa;
      wave_arrival := Array.append !wave_arrival !wave_arrival
    end;
    let id = !count in
    !waves.(id) <- w;
    !wave_sa.(id) <- Timed.total_activity w;
    !wave_arrival.(id) <- Timed.arrival w;
    incr count;
    id
  in
  (* Inputs and constants by their exact bits: equal ones share an id. *)
  let interned = Hashtbl.create 8 in
  let intern w =
    let key =
      ( Int64.bits_of_float (Timed.prob w),
        List.map (fun (t, a) -> (t, Int64.bits_of_float a)) (Timed.steps w) )
    in
    match Hashtbl.find_opt interned key with
    | Some id -> id
    | None ->
        let id = add w in
        Hashtbl.replace interned key id;
        id
  in
  (* The waveform id each node presents as a LUT leaf. *)
  let leaf_wave = Array.make n (-1) in
  Array.iteri
    (fun pos id -> leaf_wave.(id) <- intern (Timed.input_waveform (input pos)))
    (Nl.inputs t);
  let memo = Memo.create 4096 and entries = Hashtbl.create 64 in
  let scratch = Timed.scratch () in
  (* Key and fanin buffers by leaf count, reused by every lookup; a key
     is copied only when it is added. *)
  let keys = Array.init (k + 1) (fun m -> Array.make (m + 2) 0) in
  let fanins = Array.init (k + 1) (fun m -> Array.make m !waves.(0)) in
  let price c func =
    let m = Cut.size cuts c in
    let key = keys.(m) in
    key.(0) <- Tt.low_half func;
    key.(1) <- Tt.high_half func;
    for i = 0 to m - 1 do
      key.(i + 2) <- leaf_wave.(Cut.leaf cuts c i)
    done;
    match Memo.find memo key with
    | w -> w
    | exception Not_found ->
        let entry =
          match Hashtbl.find entries func with
          | e -> e
          | exception Not_found ->
              let e = Sw.entry func in
              Hashtbl.add entries func e;
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
  let best_cut = Array.make n (-1) in
  let best_func = Array.make n (Tt.const0 0) in
  let order = Nl.topo_order t in
  Array.iter
    (fun id ->
      if not (is_terminal t id) then begin
        let first = Cut.first cuts id and stop = Cut.stop cuts id in
        if first = stop then failwith "Mapper.map: logic node without cuts";
        (* Ties go to the earlier cut. *)
        let best = ref (-1) in
        for c = first to stop - 1 do
          let func = Cut.cone_function cuts t id c in
          let w = price c func in
          let b = !best in
          if
            b < 0
            || not
                 (no_worse objective !wave_sa.(b) !wave_arrival.(b)
                    (Cut.size cuts best_cut.(id))
                    !wave_sa.(w) !wave_arrival.(w) (Cut.size cuts c))
          then begin
            best_cut.(id) <- c;
            best_func.(id) <- func;
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
               ~steps:[]))
    order;
  (* Cover extraction: walk backwards from outputs. *)
  let needed = Array.make n false in
  List.iter (fun (_, id) -> needed.(id) <- true) (Nl.outputs t);
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    if needed.(id) && not (is_terminal t id) then begin
      let c = best_cut.(id) in
      for j = 0 to Cut.size cuts c - 1 do
        needed.(Cut.leaf cuts c j) <- true
      done
    end
  done;
  (* Eq. 3 over the cover, summed in [luts] order from the waveforms
     chosen above: each is what a unit-delay propagation over the LUT
     network would compute for that LUT (same function, same leaf
     waveforms, delay 1), and the network's constants add nothing. *)
  let luts = ref [] and total = ref 0. and functional = ref 0. in
  Array.iter
    (fun id ->
      if needed.(id) && not (is_terminal t id) then begin
        let leaves = Cut.leaves cuts best_cut.(id) in
        luts := { root = id; leaves; func = best_func.(id) } :: !luts;
        let w = leaf_wave.(id) in
        total := !total +. !wave_sa.(w);
        functional := !functional +. Timed.functional_activity !waves.(w)
      end)
    order;
  let luts = List.rev !luts in
  (* Rebuild the cover as a netlist over the same primary inputs. *)
  let builder = Nl.create_builder ~name:(Nl.name t ^ "_mapped") in
  let remap = Array.make n (-1) in
  Array.iter
    (fun id -> remap.(id) <- Nl.add_input builder (Nl.node t id).Nl.name)
    (Nl.inputs t);
  (* Constants needed as leaves or outputs become constant nodes. *)
  let map_leaf id =
    if remap.(id) < 0 then begin
      let node = Nl.node t id in
      if Array.length node.Nl.fanins <> 0 then
        failwith "Mapper.map: leaf mapped before its LUT";
      remap.(id) <- Nl.add_const builder (Tt.eval node.Nl.func 0)
    end;
    remap.(id)
  in
  List.iter
    (fun l ->
      let fanins = Array.map map_leaf l.leaves in
      remap.(l.root) <-
        Nl.add_node builder ~name:("lut" ^ string_of_int l.root) ~func:l.func
          ~fanins)
    luts;
  List.iter
    (fun (name, id) -> Nl.mark_output builder name (map_leaf id))
    (Nl.outputs t);
  let lut_network = Nl.freeze builder in
  let lut_count = List.length luts in
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
  List.iter (fun l -> Hashtbl.replace roots l.root ()) m.luts;
  List.iter
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
