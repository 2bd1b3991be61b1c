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

let default_max_cuts = 8

type best = {
  b_cut : Cut.t;
  b_func : Tt.t;
  b_wave : Timed.waveform;
  b_sa : float;
  b_arrival : int;
}

let is_terminal t id =
  Nl.is_input t id || Array.length (Nl.node t id).Nl.fanins = 0

let map ?(objective = Min_sa) ?(max_cuts = default_max_cuts)
    ?(input = fun _ -> Sw.default_input) t ~k =
  Telemetry.time "mapper.map" @@ fun () ->
  let cuts = Cut.enumerate t ~k ~max_cuts in
  let n = Nl.num_nodes t in
  let best = Array.make n None in
  (* Waveform each node would present if used as a LUT leaf. *)
  let leaf_wave = Array.make n (Timed.make ~prob:0.5 ~steps:[]) in
  Array.iteri
    (fun pos id -> leaf_wave.(id) <- Timed.input_waveform (input pos))
    (Nl.inputs t);
  Array.iter
    (fun id ->
      if not (is_terminal t id) then begin
        let candidates =
          List.map
            (fun cut ->
              let func = Cut.cone_function t id cut in
              let fanins =
                Array.map (fun l -> leaf_wave.(l)) cut.Cut.leaves
              in
              let wave = Timed.node_waveform func ~fanins ~delay:1 in
              { b_cut = cut; b_func = func; b_wave = wave;
                b_sa = Timed.total_activity wave;
                b_arrival = Timed.arrival wave })
            cuts.(id)
        in
        let better a b =
          let key c =
            match objective with
            | Min_sa ->
                (c.b_sa, float_of_int c.b_arrival,
                 float_of_int (Array.length c.b_cut.Cut.leaves))
            | Min_depth ->
                (float_of_int c.b_arrival, c.b_sa,
                 float_of_int (Array.length c.b_cut.Cut.leaves))
          in
          if key a <= key b then a else b
        in
        match candidates with
        | [] -> failwith "Mapper.map: logic node without cuts"
        | first :: rest ->
            let chosen = List.fold_left better first rest in
            best.(id) <- Some chosen;
            leaf_wave.(id) <- chosen.b_wave
      end
      else if Array.length (Nl.node t id).Nl.fanins = 0
              && not (Nl.is_input t id) then
        (* Constant: static waveform with its constant probability. *)
        leaf_wave.(id) <-
          Timed.make
            ~prob:(if Tt.eval (Nl.node t id).Nl.func 0 then 1. else 0.)
            ~steps:[])
    (Nl.topo_order t);
  (* Cover extraction: walk backwards from outputs. *)
  let needed = Array.make n false in
  List.iter (fun (_, id) -> needed.(id) <- true) (Nl.outputs t);
  let order = Nl.topo_order t in
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    if needed.(id) && not (is_terminal t id) then
      match best.(id) with
      | Some b -> Array.iter (fun l -> needed.(l) <- true) b.b_cut.Cut.leaves
      | None -> assert false
  done;
  (* Eq. 3 over the cover, summed in [luts] order from the waveforms
     chosen above: each is what a unit-delay propagation over the LUT
     network would compute for that LUT (same function, same leaf
     waveforms, delay 1), and the network's constants add nothing. *)
  let luts = ref [] and total = ref 0. and functional = ref 0. in
  Array.iter
    (fun id ->
      if needed.(id) && not (is_terminal t id) then
        match best.(id) with
        | Some b ->
            luts :=
              { root = id; leaves = b.b_cut.Cut.leaves; func = b.b_func }
              :: !luts;
            total := !total +. Timed.total_activity b.b_wave;
            functional := !functional +. Timed.functional_activity b.b_wave
        | None -> assert false)
    order;
  let luts = List.rev !luts in
  (* Rebuild the cover as a netlist over the same primary inputs. *)
  let builder = Nl.create_builder ~name:(Nl.name t ^ "_mapped") in
  let remap = Hashtbl.create 64 in
  Array.iter
    (fun id ->
      let name = (Nl.node t id).Nl.name in
      Hashtbl.replace remap id (Nl.add_input builder name))
    (Nl.inputs t);
  (* Constants needed as leaves or outputs become constant nodes. *)
  let map_leaf id =
    match Hashtbl.find_opt remap id with
    | Some nid -> nid
    | None ->
        let node = Nl.node t id in
        if Array.length node.Nl.fanins = 0 && not (Nl.is_input t id) then begin
          let nid = Nl.add_const builder (Tt.eval node.Nl.func 0) in
          Hashtbl.replace remap id nid;
          nid
        end
        else
          failwith "Mapper.map: leaf mapped before its LUT"
  in
  List.iter
    (fun l ->
      let fanins = Array.map map_leaf l.leaves in
      let nid =
        Nl.add_node builder
          ~name:(Printf.sprintf "lut%d" l.root)
          ~func:l.func ~fanins
      in
      Hashtbl.replace remap l.root nid)
    luts;
  List.iter
    (fun (name, id) -> Nl.mark_output builder name (map_leaf id))
    (Nl.outputs t);
  let lut_network = Nl.freeze builder in
  Telemetry.incr c_maps;
  Telemetry.add c_luts (List.length luts);
  {
    source = t;
    luts;
    lut_network;
    total_sa = !total;
    functional_sa = !functional;
    glitch_sa = !total -. !functional;
    depth = Nl.max_depth lut_network;
    lut_count = List.length luts;
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
