module Tt = Hlp_netlist.Truth_table
module Nl = Hlp_netlist.Netlist

(* [times] strictly increasing, [acts.(i)] > 0 the activity at
   [times.(i)]: a waveform is two flat arrays, the floats unboxed. *)
type waveform = { prob : float; times : int array; acts : float array }

let prob w = w.prob
let steps w =
  List.init (Array.length w.times) (fun i -> (w.times.(i), w.acts.(i)))

let total_activity w =
  let total = ref 0. in
  for i = 0 to Array.length w.acts - 1 do
    total := !total +. w.acts.(i)
  done;
  !total

let arrival w =
  let n = Array.length w.times in
  if n = 0 then 0 else max 0 w.times.(n - 1)

let functional_activity w =
  let n = Array.length w.acts in
  if n = 0 then 0. else w.acts.(n - 1)

let glitch_activity w = total_activity w -. functional_activity w

(* Positive entries in time order; of several at one time, the first
   counts. *)
let make ~prob ~steps =
  let rec first_per_time = function
    | ((t, _) as s) :: (t', _) :: rest when t = t' ->
        first_per_time (s :: rest)
    | s :: rest -> s :: first_per_time rest
    | [] -> []
  in
  let steps =
    List.filter (fun (_, a) -> a > 0.) steps
    |> List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
    |> first_per_time |> Array.of_list
  in
  { prob; times = Array.map fst steps; acts = Array.map snd steps }

let static prob = { prob; times = [||]; acts = [||] }

let input_waveform (s : Switching.signal) =
  make ~prob:s.Switching.prob ~steps:[ (0, s.Switching.activity) ]

(* The output may switch one delay after any fanin step.  One cursor per
   fanin walks the fanin times in increasing order; at each distinct
   time [t_in], a fanin's activity is that of its step at [t_in], or 0,
   clamped by [Switching.signal] as a signal of the fanin's probability,
   and the staged Chou-Roy step prices the output at [t_in + delay]. *)
let node_waveform func ~fanins ~delay =
  if delay < 1 then invalid_arg "Timed.node_waveform: delay must be >= 1";
  let n = Tt.arity func in
  if Array.length fanins <> n then
    invalid_arg "Timed.node_waveform: fanin count mismatch";
  let p, step =
    Switching.of_table_staged func (Array.map (fun w -> w.prob) fanins)
  in
  let cap =
    Array.fold_left (fun acc w -> acc + Array.length w.times) 0 fanins
  in
  let times = Array.make cap 0 and acts = Array.make cap 0. in
  let cursor = Array.make n 0 and activities = Array.make n 0. in
  let count = ref 0 and more = ref true in
  while !more do
    let t_in = ref 0 in
    more := false;
    for i = 0 to n - 1 do
      let w = fanins.(i) and c = cursor.(i) in
      if c < Array.length w.times && ((not !more) || w.times.(c) < !t_in)
      then begin
        t_in := w.times.(c);
        more := true
      end
    done;
    if !more then begin
      for i = 0 to n - 1 do
        let w = fanins.(i) and c = cursor.(i) in
        let a =
          if c < Array.length w.times && w.times.(c) = !t_in then begin
            cursor.(i) <- c + 1;
            w.acts.(c)
          end
          else 0.
        in
        activities.(i) <-
          (Switching.signal ~prob:w.prob ~activity:a).Switching.activity
      done;
      let a = step activities in
      if a > 0. then begin
        times.(!count) <- !t_in + delay;
        acts.(!count) <- a;
        incr count
      end
    end
  done;
  {
    prob = p;
    times = Array.sub times 0 !count;
    acts = Array.sub acts 0 !count;
  }

let propagate t ~delay ~input =
  let waves = Array.make (Nl.num_nodes t) (static 0.) in
  Array.iteri (fun k id -> waves.(id) <- input_waveform (input k)) (Nl.inputs t);
  Array.iter
    (fun id ->
      if not (Nl.is_input t id) then begin
        let n = Nl.node t id in
        if Array.length n.Nl.fanins = 0 then
          (* Constant node: probability from its 0-ary table, no switching. *)
          waves.(id) <- static (if Tt.eval n.Nl.func 0 then 1. else 0.)
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
