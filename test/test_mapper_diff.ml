(* Differential test of the glitch-aware mapper: [Mapper.map] against
   the list-based mapper kept here as the reference.  The reference
   enumerates cuts with the list-based [Cut_reference], holds waveforms
   as (time, activity) lists, collapses each cone by a Hashtbl walk and
   [Truth_table.compose], and prices every cut afresh; [Mapper.map]
   reads [Cut]'s flat store and prices each distinct (table, leaf
   waveforms) pair once on flat waveforms.  On random netlists with
   constants, K = 2-6, both objectives and a per-position input signal,
   the two must agree bit for bit on the three SA totals and on the LUT
   list. *)

module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Sw = Hlp_activity.Switching
module Prob = Hlp_activity.Prob
module Mapper = Hlp_mapper.Mapper
module Rng = Hlp_util.Rng

module Reference = struct
  (* Increasing time, strictly positive activity. *)
  type waveform = { prob : float; steps : (int * float) list }

  let normalize steps =
    List.filter (fun (_, a) -> a > 0.) steps
    |> List.sort (fun (t1, _) (t2, _) -> compare t1 t2)

  let total_activity w = List.fold_left (fun acc (_, a) -> acc +. a) 0. w.steps
  let arrival w = List.fold_left (fun acc (t, _) -> max acc t) 0 w.steps

  let functional_activity w =
    match List.rev w.steps with [] -> 0. | (_, a) :: _ -> a

  (* The unit-delay waveform of a LUT computing [func] over [fanins]:
     per output time, one Eq. 2 evaluation fed the activity each fanin
     shows one step earlier. *)
  let node_waveform func fanins =
    let times =
      Array.fold_left
        (fun acc w -> List.rev_map (fun (t, _) -> t + 1) w.steps @ acc)
        [] fanins
      |> List.sort_uniq Int.compare
    in
    let p = Prob.of_table func (Array.map (fun w -> w.prob) fanins) in
    let activity_at w t =
      match List.find_opt (fun (t', _) -> t' = t) w.steps with
      | Some (_, a) -> a
      | None -> 0.
    in
    let step_activity t_out =
      let inputs =
        Array.map
          (fun w ->
            Sw.signal ~prob:w.prob ~activity:(activity_at w (t_out - 1)))
          fanins
      in
      (Sw.of_table func inputs).Sw.activity
    in
    let steps = List.map (fun t -> (t, step_activity t)) times in
    { prob = p; steps = normalize steps }

  let is_terminal t id =
    Nl.is_input t id || Array.length (Nl.node t id).Nl.fanins = 0

  let is_const t id =
    (not (Nl.is_input t id)) && Array.length (Nl.node t id).Nl.fanins = 0

  (* Logic nodes strictly inside the cone, fanins first. *)
  let cone_nodes t root leaves =
    let acc = ref [] in
    let seen = Hashtbl.create 16 in
    let rec visit id =
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.replace seen id ();
        if not (Array.mem id leaves) then begin
          if is_terminal t id && not (is_const t id) then
            invalid_arg "Reference.cone_nodes: cut does not cover node";
          Array.iter visit (Nl.node t id).Nl.fanins;
          acc := id :: !acc
        end
      end
    in
    visit root;
    List.rev !acc

  let cone_function t root leaves =
    let m = Array.length leaves in
    let arity = max m 1 in
    let tts = Hashtbl.create 16 in
    Array.iteri
      (fun i leaf -> Hashtbl.replace tts leaf (Tt.var i arity))
      leaves;
    List.iter
      (fun id ->
        let node = Nl.node t id in
        if Array.length node.Nl.fanins = 0 then
          Hashtbl.replace tts id
            (if Tt.eval node.Nl.func 0 then Tt.const1 arity
             else Tt.const0 arity)
        else
          Hashtbl.replace tts id
            (Tt.compose node.Nl.func
               (Array.map (fun f -> Hashtbl.find tts f) node.Nl.fanins)))
      (cone_nodes t root leaves);
    Tt.create m (Tt.bits (Hashtbl.find tts root))

  type candidate = {
    leaves : Nl.node_id array;
    func : Tt.t;
    wave : waveform;
  }

  (* The three totals and the LUT list (root, leaves, table) in
     topological order. *)
  let map ~objective ~input t ~k =
    let cuts = Cut_reference.enumerate t ~k ~max_cuts:8 in
    let n = Nl.num_nodes t in
    let best = Array.make n None in
    let leaf_wave = Array.make n { prob = 0.5; steps = [] } in
    Array.iteri
      (fun pos id ->
        let s = input pos in
        leaf_wave.(id) <-
          { prob = s.Sw.prob; steps = normalize [ (0, s.Sw.activity) ] })
      (Nl.inputs t);
    let key c =
      let sa = total_activity c.wave
      and arr = float_of_int (arrival c.wave)
      and size = float_of_int (Array.length c.leaves) in
      match objective with
      | Mapper.Min_sa -> (sa, arr, size)
      | Mapper.Min_depth -> (arr, sa, size)
    in
    Array.iter
      (fun id ->
        if not (is_terminal t id) then begin
          let candidates =
            List.map
              (fun cut ->
                let leaves = cut.Cut_reference.leaves in
                let func = cone_function t id leaves in
                let wave =
                  node_waveform func (Array.map (fun l -> leaf_wave.(l)) leaves)
                in
                { leaves; func; wave })
              cuts.(id)
          in
          let better a b = if key a <= key b then a else b in
          let chosen =
            List.fold_left better (List.hd candidates) (List.tl candidates)
          in
          best.(id) <- Some chosen;
          leaf_wave.(id) <- chosen.wave
        end
        else if is_const t id then
          leaf_wave.(id) <-
            { prob = (if Tt.eval (Nl.node t id).Nl.func 0 then 1. else 0.);
              steps = [] })
      (Nl.topo_order t);
    let needed = Array.make n false in
    List.iter (fun (_, id) -> needed.(id) <- true) (Nl.outputs t);
    for id = n - 1 downto 0 do
      if needed.(id) && not (is_terminal t id) then
        Array.iter (fun l -> needed.(l) <- true) (Option.get best.(id)).leaves
    done;
    let luts = ref [] and total = ref 0. and functional = ref 0. in
    for id = 0 to n - 1 do
      if needed.(id) && not (is_terminal t id) then begin
        let b = Option.get best.(id) in
        luts := (id, b.leaves, Tt.arity b.func, Tt.bits b.func) :: !luts;
        total := !total +. total_activity b.wave;
        functional := !functional +. functional_activity b.wave
      end
    done;
    (!total, !functional, !total -. !functional, List.rev !luts)
end

(* A random netlist of up to 6 inputs and a few constants, gates of
   arity 1 to min 3 k (a wider gate has no k-feasible cut) over
   everything built so far, and outputs on the last gate, every fifth
   gate and sometimes a constant or an input. *)
let random_netlist rng ~k =
  let b = Nl.create_builder ~name:"diff" in
  let pool = ref [] in
  for i = 0 to Rng.int rng 6 do
    pool := Nl.add_input b (Printf.sprintf "i%d" i) :: !pool
  done;
  for _ = 1 to Rng.int rng 3 do
    pool := Nl.add_const b (Rng.bool rng) :: !pool
  done;
  let outs = ref [] in
  for g = 1 to 5 + Rng.int rng 35 do
    let arr = Array.of_list !pool in
    let arity = 1 + Rng.int rng (min 3 k) in
    let fanins = Array.init arity (fun _ -> Rng.pick rng arr) in
    let func = Tt.create arity (Rng.bits64 rng) in
    let id = Nl.add_node b ~name:(Printf.sprintf "g%d" g) ~func ~fanins in
    pool := id :: !pool;
    if g mod 5 = 0 then outs := id :: !outs
  done;
  Nl.mark_output b "y" (List.hd !pool);
  List.iteri (fun i id -> Nl.mark_output b (Printf.sprintf "o%d" i) id) !outs;
  if Rng.int rng 3 = 0 then
    Nl.mark_output b "z" (Rng.pick rng (Array.of_list !pool));
  Nl.freeze b

(* Three signals per case, default among them, drawn per input
   position: positions share a waveform or differ, so the mapper's leaf
   ids must tell them apart exactly.  Probabilities and activities come
   partly from small sets, so signals of one probability and different
   activities occur; rails (P = 0 or 1) and zero activity give inputs
   whose waveform equals a constant's. *)
let random_input rng =
  let draw () =
    let prob =
      match Rng.int rng 5 with
      | 0 -> 0.
      | 1 -> 1.
      | 2 -> 0.5
      | 3 -> 0.25
      | _ -> Rng.float rng 1.
    in
    let activity =
      match Rng.int rng 3 with 0 -> 0. | 1 -> 0.5 | _ -> Rng.float rng 1.
    in
    Sw.signal ~prob ~activity
  in
  let signals = [| Sw.default_input; draw (); draw () |] in
  let choice = Array.init 8 (fun _ -> Rng.int rng 3) in
  fun pos -> signals.(choice.(pos))

(* Equal bits on the three totals and an equal LUT list. *)
let agrees ~objective ~input t ~k =
  let m = Mapper.map ~objective ~input t ~k in
  let total, functional, glitch, luts = Reference.map ~objective ~input t ~k in
  let bits = Int64.bits_of_float in
  bits m.Mapper.total_sa = bits total
  && bits m.Mapper.functional_sa = bits functional
  && bits m.Mapper.glitch_sa = bits glitch
  && List.map
       (fun l ->
         ( l.Mapper.root, l.Mapper.leaves, Tt.arity l.Mapper.func,
           Tt.bits l.Mapper.func ))
       (Array.to_list m.Mapper.luts)
     = luts

let prop_mapper_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"Mapper.map = list-based reference, bit for bit"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create (Printf.sprintf "mapper-diff-%d" seed) in
      let k = 2 + Rng.int rng 5 in
      let t = random_netlist rng ~k in
      let objective =
        if Rng.bool rng then Mapper.Min_sa else Mapper.Min_depth
      in
      agrees ~objective ~input:(random_input rng) t ~k)

(* Two 6-input gates over the same inputs whose tables share the low 32
   minterms (x5 = 0) and differ above: a 6-leaf table does not fit one
   native int, and the two must not be priced as one. *)
let test_six_leaf_halves () =
  let b = Nl.create_builder ~name:"halves" in
  let xs = Array.init 6 (fun i -> Nl.add_input b (Printf.sprintf "x%d" i)) in
  let low = 0xFFFFFFFEL (* x5 = 0: or of x0-x4 *) in
  let gate name high =
    let func = Tt.create 6 (Int64.logor low (Int64.shift_left high 32)) in
    Nl.mark_output b name (Nl.add_node b ~name ~func ~fanins:xs)
  in
  gate "and" 0x80000000L;
  gate "xor" 0x96696996L;
  let t = Nl.freeze b in
  List.iter
    (fun objective ->
      Alcotest.(check bool)
        "agrees" true
        (agrees ~objective ~input:(fun _ -> Sw.default_input) t ~k:6))
    [ Mapper.Min_sa; Mapper.Min_depth ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_mapper_matches_reference;
    Alcotest.test_case "six-leaf tables differing in their high half" `Quick
      test_six_leaf_halves;
  ]
