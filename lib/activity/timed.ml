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

(* Buffers for [node_waveform_in]: fanin probabilities by arity (a
   probability array must have the function's arity), the per-step
   cursors and clamped activities, and the output steps before they are
   copied out at their final count. *)
type scratch = {
  probs : float array array;
  cursor : int array;
  activities : float array;
  mutable times : int array;
  mutable acts : float array;
}

let scratch () =
  {
    probs = Array.init (Tt.max_vars + 1) (fun n -> Array.make n 0.);
    cursor = Array.make Tt.max_vars 0;
    activities = Array.make Tt.max_vars 0.;
    times = Array.make 16 0;
    acts = Array.make 16 0.;
  }

(* The output may switch one delay after any fanin step.  One cursor per
   fanin walks the fanin times in increasing order; at each distinct
   time [t_in], a fanin's activity is that of its step at [t_in], or 0,
   clamped as [Switching.signal] clamps it for a signal of the fanin's
   probability, and one Chou-Roy step of the entry prices the output at
   [t_in + delay]. *)
let node_waveform_in sc entry ~fanins ~delay =
  if delay < 1 then invalid_arg "Timed.node_waveform: delay must be >= 1";
  let n = Switching.arity entry in
  if Array.length fanins <> n then
    invalid_arg "Timed.node_waveform: fanin count mismatch";
  let probs = sc.probs.(n) and cursor = sc.cursor in
  let activities = sc.activities in
  let cap = ref 0 in
  for i = 0 to n - 1 do
    probs.(i) <- fanins.(i).prob;
    cursor.(i) <- 0;
    cap := !cap + Array.length fanins.(i).times
  done;
  if Array.length sc.times < !cap then begin
    sc.times <- Array.make (2 * !cap) 0;
    sc.acts <- Array.make (2 * !cap) 0.
  end;
  let times = sc.times and acts = sc.acts in
  let p = Switching.prob entry probs in
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
        activities.(i) <-
          (if c < Array.length w.times && w.times.(c) = !t_in then begin
             cursor.(i) <- c + 1;
             w.acts.(c)
           end
           else 0.)
      done;
      Switching.clamp_activities probs activities n;
      Switching.step entry ~p probs activities acts !count;
      if acts.(!count) > 0. then begin
        times.(!count) <- !t_in + delay;
        incr count
      end
    end
  done;
  {
    prob = p;
    times = Array.sub times 0 !count;
    acts = Array.sub acts 0 !count;
  }

let node_waveform func ~fanins ~delay =
  node_waveform_in (scratch ()) (Switching.entry func) ~fanins ~delay

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
