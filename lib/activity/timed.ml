module Tt = Hlp_netlist.Truth_table
module Nl = Hlp_netlist.Netlist

type waveform = {
  w_prob : float;
  w_steps : (int * float) list; (* increasing time, strictly positive act *)
}

let prob w = w.w_prob
let steps w = w.w_steps

let total_activity w =
  List.fold_left (fun acc (_, a) -> acc +. a) 0. w.w_steps

let arrival w =
  List.fold_left (fun acc (t, _) -> max acc t) 0 w.w_steps

let functional_activity w =
  match List.rev w.w_steps with [] -> 0. | (_, a) :: _ -> a

let glitch_activity w = total_activity w -. functional_activity w

let normalize steps =
  List.filter (fun (_, a) -> a > 0.) steps
  |> List.sort (fun (t1, _) (t2, _) -> compare t1 t2)

let make ~prob ~steps = { w_prob = prob; w_steps = normalize steps }

let input_waveform (s : Switching.signal) =
  make ~prob:s.Switching.prob ~steps:[ (0, s.Switching.activity) ]

let node_waveform func ~fanins ~delay =
  if delay < 1 then invalid_arg "Timed.node_waveform: delay must be >= 1";
  let n = Tt.arity func in
  if Array.length fanins <> n then
    invalid_arg "Timed.node_waveform: fanin count mismatch";
  (* Candidate switch times for the output: every fanin switch time plus
     the node delay. *)
  let times =
    Array.fold_left
      (fun acc w -> List.rev_map (fun (t, _) -> t + delay) w.w_steps @ acc)
      [] fanins
    |> List.sort_uniq Int.compare
  in
  let p, step =
    Switching.of_table_staged func (Array.map (fun w -> w.w_prob) fanins)
  in
  (* Per fanin, the steps not yet passed.  Steps are sorted by time and
     [times] increases, so the activity at [t_in] is that of the first
     remaining entry at [t_in], or 0; of several entries at one time
     ([make] keeps them all), the first counts. *)
  let rest = Array.map (fun w -> w.w_steps) fanins in
  let rec skip t_in = function
    | (t, _) :: tl when t < t_in -> skip t_in tl
    | l -> l
  in
  let step_activity t_out =
    let t_in = t_out - delay in
    let activities =
      Array.mapi
        (fun i w ->
          rest.(i) <- skip t_in rest.(i);
          let a =
            match rest.(i) with (t, a) :: _ when t = t_in -> a | _ -> 0.
          in
          (Switching.signal ~prob:w.w_prob ~activity:a).Switching.activity)
        fanins
    in
    (step activities).Switching.activity
  in
  let steps =
    List.fold_left (fun acc t -> (t, step_activity t) :: acc) [] times
  in
  { w_prob = p; w_steps = normalize steps }

let propagate t ~delay ~input =
  let waves =
    Array.make (Nl.num_nodes t) { w_prob = 0.; w_steps = [] }
  in
  Array.iteri (fun k id -> waves.(id) <- input_waveform (input k)) (Nl.inputs t);
  Array.iter
    (fun id ->
      if not (Nl.is_input t id) then begin
        let n = Nl.node t id in
        if Array.length n.Nl.fanins = 0 then
          (* Constant node: probability from its 0-ary table, no switching. *)
          waves.(id) <-
            { w_prob = (if Tt.eval n.Nl.func 0 then 1. else 0.); w_steps = [] }
        else
          let fanins = Array.map (fun f -> waves.(f)) n.Nl.fanins in
          waves.(id) <- node_waveform n.Nl.func ~fanins ~delay:(delay id)
      end)
    (Nl.topo_order t);
  waves

type summary = {
  total_sa : float;
  functional_sa : float;
  glitch_sa : float;
}

let summarize t waveforms =
  let total = ref 0. and func = ref 0. in
  Array.iter
    (fun id ->
      if not (Nl.is_input t id) then begin
        total := !total +. total_activity waveforms.(id);
        func := !func +. functional_activity waveforms.(id)
      end)
    (Nl.topo_order t);
  { total_sa = !total; functional_sa = !func; glitch_sa = !total -. !func }

let estimate t =
  summarize t
    (propagate t ~delay:(fun _ -> 1) ~input:(fun _ -> Switching.default_input))
