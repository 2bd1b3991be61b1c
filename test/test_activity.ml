module Tt = Hlp_netlist.Truth_table
module Nl = Hlp_netlist.Netlist
module Cl = Hlp_netlist.Cell_library
module Prob = Hlp_activity.Prob
module Sw = Hlp_activity.Switching
module Timed = Hlp_activity.Timed

let check_float msg = Alcotest.(check (float 1e-9)) msg
let check_close msg = Alcotest.(check (float 1e-6)) msg

let tt_and = Tt.and_ (Tt.var 0 2) (Tt.var 1 2)
let tt_or = Tt.or_ (Tt.var 0 2) (Tt.var 1 2)
let tt_xor = Tt.xor (Tt.var 0 2) (Tt.var 1 2)

let sig_ p s = Sw.signal ~prob:p ~activity:s

(* --- signal probability --- *)

let test_prob_basic_gates () =
  check_float "and" 0.25 (Prob.of_table tt_and [| 0.5; 0.5 |]);
  check_float "or" 0.75 (Prob.of_table tt_or [| 0.5; 0.5 |]);
  check_float "xor" 0.5 (Prob.of_table tt_xor [| 0.5; 0.5 |]);
  check_float "and skewed" 0.06 (Prob.of_table tt_and [| 0.2; 0.3 |])

let test_prob_const () =
  check_float "const1" 1.0 (Prob.of_table (Tt.const1 0) [||]);
  check_float "const0" 0.0 (Prob.of_table (Tt.const0 3) [| 0.1; 0.2; 0.3 |])

let test_prob_netlist () =
  (* y = (a and b) or c with p=0.5: P = 1 - (1-0.25)(1-0.5) = 0.625 *)
  let b = Nl.create_builder ~name:"p" in
  let a = Nl.add_input b "a" in
  let bb = Nl.add_input b "b" in
  let c = Nl.add_input b "c" in
  let ab = Cl.and2 b a bb in
  let y = Cl.or2 b ab c in
  Nl.mark_output b "y" y;
  let t = Nl.freeze b in
  let probs = Prob.node_probabilities t ~input_prob:Prob.uniform in
  check_float "or of and" 0.625 probs.(y)

(* --- Eq. 2 switching --- *)

let test_switching_inverter () =
  (* An inverter switches exactly as often as its input. *)
  let inv = Tt.not_ (Tt.var 0 1) in
  let out = Sw.of_table inv [| sig_ 0.3 0.4 |] in
  check_close "prob" 0.7 out.Sw.prob;
  check_close "activity" 0.4 out.Sw.activity

let test_switching_and_uncorrelated () =
  (* AND of independent P=0.5, s=0.5 inputs.  Joint per input:
     p00=p11=0.25, p01=p10=0.25.  P(y)=0.25.
     P(y(t)y(t+T)) = P(both inputs 1 at t and t+T) = (0.25)*(0.25)... per
     input P(1,1)=0.25, so joint = 0.0625.  s = 2*(0.25-0.0625) = 0.375. *)
  let out = Sw.of_table tt_and [| Sw.default_input; Sw.default_input |] in
  check_close "and prob" 0.25 out.Sw.prob;
  check_close "and activity" 0.375 out.Sw.activity

let test_switching_xor_full_activity () =
  (* XOR with both inputs always switching (s=1, P=0.5): the two flips
     cancel, so the output never switches — this is exactly the
     simultaneous-switching effect Eq. 1 misses. *)
  let hot = sig_ 0.5 1.0 in
  let out = Sw.of_table tt_xor [| hot; hot |] in
  check_close "xor cancels" 0. out.Sw.activity;
  (* Najm's Eq. 1 predicts 2.0 here: boolean difference is 1 for both. *)
  check_close "najm over-counts" 2.0 (Sw.najm_density tt_xor [| hot; hot |])

let test_switching_static_inputs () =
  let still = sig_ 0.5 0.0 in
  let out = Sw.of_table tt_xor [| still; still |] in
  check_close "no input activity, no output activity" 0. out.Sw.activity

let test_najm_single_input_agreement () =
  (* With exactly one switching input, Eq. 1 and Eq. 2 agree:
     s(y) = P(dy/dx) * s(x). *)
  let f = tt_and in
  let a = sig_ 0.5 0.3 and b = sig_ 0.8 0.0 in
  let eq2 = (Sw.of_table f [| a; b |]).Sw.activity in
  let eq1 = Sw.najm_density f [| a; b |] in
  check_close "eq1 = eq2 for single switching input" eq1 eq2;
  check_close "analytic P(b)*s(a)" (0.8 *. 0.3) eq2

let test_signal_clamps_inconsistent () =
  (* P=0.9 allows at most s = 0.2. *)
  let s = Sw.signal ~prob:0.9 ~activity:0.8 in
  check_close "clamped" 0.2 s.Sw.activity

let test_signal_rejects_bad_ranges () =
  Alcotest.check_raises "prob > 1"
    (Invalid_argument "Switching.signal: prob range") (fun () ->
      ignore (Sw.signal ~prob:1.5 ~activity:0.1))

(* Property: activity respects the consistency bound and [0,1]. *)
let arb_signals_and_table =
  let open QCheck in
  let gen =
    Gen.(
      int_range 1 4 >>= fun n ->
      map2
        (fun bits params -> (n, bits, params))
        ui64
        (list_size (return n)
           (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.))))
  in
  make
    ~print:(fun (n, bits, _) -> Printf.sprintf "n=%d bits=%Ld" n bits)
    gen

let prop_eq2_bounds =
  QCheck.Test.make ~name:"eq2 activity in [0, 2*min(P,1-P)]" ~count:300
    arb_signals_and_table (fun (n, bits, params) ->
      let f = Tt.create n bits in
      let inputs =
        Array.of_list
          (List.map (fun (p, s) -> Sw.signal ~prob:p ~activity:s) params)
      in
      let out = Sw.of_table f inputs in
      let bound = 2. *. Float.min out.Sw.prob (1. -. out.Sw.prob) in
      out.Sw.activity >= -1e-9 && out.Sw.activity <= bound +. 1e-9)

let prop_eq1_dominates_eq2 =
  (* Najm's density ignores cancellation, so it upper-bounds Eq. 2. *)
  QCheck.Test.make ~name:"eq1 >= eq2" ~count:300 arb_signals_and_table
    (fun (n, bits, params) ->
      let f = Tt.create n bits in
      let inputs =
        Array.of_list
          (List.map (fun (p, s) -> Sw.signal ~prob:p ~activity:s) params)
      in
      let eq2 = (Sw.of_table f inputs).Sw.activity in
      let eq1 = Sw.najm_density f inputs in
      eq1 >= eq2 -. 1e-9)

(* --- timed / glitch model --- *)

(* Balanced XOR tree: both inputs arrive at time 0 -> single functional
   transition, no glitches. *)
let test_timed_balanced_xor () =
  let b = Nl.create_builder ~name:"balxor" in
  let a = Nl.add_input b "a" in
  let c = Nl.add_input b "c" in
  let y = Cl.xor2 b a c in
  Nl.mark_output b "y" y;
  let t = Nl.freeze b in
  let waves =
    Timed.propagate t ~delay:(fun _ -> 1) ~input:(fun _ -> Sw.default_input)
  in
  let w = waves.(y) in
  Alcotest.(check int) "single step" 1 (List.length (Timed.steps w));
  Alcotest.(check int) "arrival 1" 1 (Timed.arrival w);
  check_close "no glitches" 0. (Timed.glitch_activity w)

(* Unbalanced chain: y = xor(xor(a, b), c): the outer xor sees inputs
   arriving at times 1 and 0 -> it can switch at both times 1 and 2, so it
   has glitch activity. *)
let test_timed_unbalanced_chain_glitches () =
  let b = Nl.create_builder ~name:"chain" in
  let a = Nl.add_input b "a" in
  let bb = Nl.add_input b "b" in
  let c = Nl.add_input b "c" in
  let inner = Cl.xor2 b a bb in
  let outer = Cl.xor2 b inner c in
  Nl.mark_output b "y" outer;
  let t = Nl.freeze b in
  let waves =
    Timed.propagate t ~delay:(fun _ -> 1) ~input:(fun _ -> Sw.default_input)
  in
  let w = waves.(outer) in
  Alcotest.(check int) "two steps" 2 (List.length (Timed.steps w));
  Alcotest.(check int) "arrival 2" 2 (Timed.arrival w);
  Alcotest.(check bool) "glitches present" true
    (Timed.glitch_activity w > 0.01)

let test_timed_summary_decomposition () =
  let t =
    Cl.partial_datapath ~fu:Cl.Adder ~width:4 ~left_inputs:3 ~right_inputs:1 ()
  in
  let s = Timed.estimate t in
  check_close "total = functional + glitch" s.Timed.total_sa
    (s.Timed.functional_sa +. s.Timed.glitch_sa);
  Alcotest.(check bool) "glitch >= 0" true (s.Timed.glitch_sa >= -1e-9);
  Alcotest.(check bool) "ripple adder glitches" true (s.Timed.glitch_sa > 0.)

let test_timed_port_skew_increases_sa () =
  (* The paper's core mechanism: unbalanced arrival times at the two input
     ports of a functional unit create glitches along its carry chain.
     Skew one operand of an adder through buffer chains and compare. *)
  let adder_sa skew =
    let b = Nl.create_builder ~name:"skewed" in
    let a_raw = Cl.input_word b ~prefix:"a" ~width:8 in
    let b_raw = Cl.input_word b ~prefix:"b" ~width:8 in
    let buffer id = Nl.add_node b ~name:"buf" ~func:(Tt.var 0 1)
        ~fanins:[| id |] in
    let rec delay n id = if n = 0 then id else delay (n - 1) (buffer id) in
    let a = Array.map (delay skew) a_raw in
    let cin = Nl.add_const b false in
    let sum, _ = Cl.ripple_adder b ~a ~b_in:b_raw ~cin in
    Array.iteri (fun i id -> Nl.mark_output b (Printf.sprintf "s%d" i) id) sum;
    let t = Nl.freeze b in
    let waves =
      Timed.propagate t ~delay:(fun _ -> 1) ~input:(fun _ -> Sw.default_input)
    in
    (* Count only the adder's own nodes (exclude the buffers, which add a
       fixed amount of activity of their own). *)
    let buffer_count = 8 * skew in
    let s = Timed.summarize t waves in
    s.Timed.total_sa -. (0.5 *. float_of_int buffer_count)
  in
  let balanced = adder_sa 0 and skewed = adder_sa 3 in
  Alcotest.(check bool)
    (Printf.sprintf "skewed ports (%.2f) > balanced (%.2f)" skewed balanced)
    true (skewed > balanced)

let test_timed_const_node () =
  let b = Nl.create_builder ~name:"k" in
  let _ = Nl.add_input b "a" in
  let c = Nl.add_const b true in
  Nl.mark_output b "y" c;
  let t = Nl.freeze b in
  let waves =
    Timed.propagate t ~delay:(fun _ -> 1) ~input:(fun _ -> Sw.default_input)
  in
  check_close "const prob 1" 1. (Timed.prob waves.(c));
  check_close "const never switches" 0. (Timed.total_activity waves.(c))

let test_node_waveform_rejects_zero_delay () =
  Alcotest.check_raises "delay 0"
    (Invalid_argument "Timed.node_waveform: delay must be >= 1") (fun () ->
      ignore
        (Timed.node_waveform (Tt.var 0 1)
           ~fanins:[| Timed.input_waveform Sw.default_input |]
           ~delay:0))

(* Two steps at one time: the first positive one counts, for the
   totals as for [node_waveform], which reads only the first. *)
let test_make_keeps_first_step_per_time () =
  let w = Timed.make ~prob:0.5 ~steps:[ (2, 0.1); (2, 0.3) ] in
  Alcotest.(check (list (pair int (float 0.)))) "steps" [ (2, 0.1) ]
    (Timed.steps w);
  Alcotest.(check (float 0.)) "total" 0.1 (Timed.total_activity w);
  Alcotest.(check (float 0.)) "functional" 0.1 (Timed.functional_activity w)

let prop_timed_total_at_least_zero_delay_functional =
  (* The functional component at the arrival time is <= the zero-delay
     estimate of the same node; totals exceed it when glitches occur. *)
  QCheck.Test.make ~name:"glitch component is nonnegative" ~count:50
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Hlp_util.Rng.create (string_of_int seed) in
      let b = Nl.create_builder ~name:"r" in
      let pool = ref [] in
      for i = 0 to 3 do
        pool := Nl.add_input b (Printf.sprintf "i%d" i) :: !pool
      done;
      let last = ref (List.hd !pool) in
      for _ = 1 to 12 do
        let arr = Array.of_list !pool in
        let x = Hlp_util.Rng.pick rng arr and y = Hlp_util.Rng.pick rng arr in
        let f = Tt.create 2 (Int64.of_int (Hlp_util.Rng.int rng 16)) in
        let id = Nl.add_node b ~name:"g" ~func:f ~fanins:[| x; y |] in
        pool := id :: !pool;
        last := id
      done;
      Nl.mark_output b "y" !last;
      let t = Nl.freeze b in
      let s = Timed.estimate t in
      s.Timed.glitch_sa >= -1e-9
      && s.Timed.total_sa >= s.Timed.functional_sa -. 1e-9)

(* --- waveform-level properties of the Timed model --- *)

(* Random waveform: a handful of (time, activity) steps plus a prob;
   Timed.make normalizes (sorts, drops zero-activity steps). *)
let random_waveform rng =
  let n_steps = Hlp_util.Rng.int rng 4 in
  let steps =
    List.init n_steps (fun _ ->
        (Hlp_util.Rng.int rng 5, Hlp_util.Rng.float rng 0.4))
  in
  let prob = Hlp_util.Rng.float rng 1. in
  Timed.make ~prob ~steps

let random_composition seed =
  let rng = Hlp_util.Rng.create (Printf.sprintf "timed-%d" seed) in
  let arity = 1 + Hlp_util.Rng.int rng 3 in
  let f = Tt.create arity (Hlp_util.Rng.bits64 rng) in
  let fanins = Array.init arity (fun _ -> random_waveform rng) in
  let delay = 1 + Hlp_util.Rng.int rng 3 in
  (f, fanins, delay)

let arb_seed = QCheck.(int_range 0 1_000_000)

let prop_waveform_glitch_nonnegative =
  QCheck.Test.make ~name:"waveform glitch_activity >= 0" ~count:300 arb_seed
    (fun seed ->
      let f, fanins, delay = random_composition seed in
      let w = Timed.node_waveform f ~fanins ~delay in
      Timed.glitch_activity w >= 0.
      && Array.for_all (fun fw -> Timed.glitch_activity fw >= 0.) fanins)

let prop_waveform_decomposition =
  QCheck.Test.make
    ~name:"total_activity = functional + glitch (waveform level)" ~count:300
    arb_seed (fun seed ->
      let f, fanins, delay = random_composition seed in
      let w = Timed.node_waveform f ~fanins ~delay in
      abs_float
        (Timed.total_activity w
        -. (Timed.functional_activity w +. Timed.glitch_activity w))
      < 1e-9)

let prop_arrival_monotone_in_composition =
  (* Composition never invents transitions later than its inputs allow
     (arrival <= max fanin arrival + delay), and a slower node can only
     move the arrival later, never earlier. *)
  QCheck.Test.make ~name:"arrival monotone under node_waveform" ~count:300
    arb_seed (fun seed ->
      let f, fanins, delay = random_composition seed in
      let w = Timed.node_waveform f ~fanins ~delay in
      let max_in =
        Array.fold_left (fun acc fw -> max acc (Timed.arrival fw)) 0 fanins
      in
      let slower = Timed.node_waveform f ~fanins ~delay:(delay + 1) in
      Timed.arrival w >= 0
      && Timed.arrival w <= max_in + delay
      && Timed.arrival slower >= Timed.arrival w)

(* --- the staged kernel against the unstaged one --- *)

(* [Switching.of_table] and [Timed.node_waveform] as they were before
   the Chou-Roy kernel was staged: a full [of_table] per time step, over
   every pair of on-set minterms.  Copied verbatim, except that waveforms
   are read through [Timed.prob]/[Timed.steps] and the result is the
   (probability, steps) pair. *)
module Reference = struct
  let joint { Sw.prob = p; activity = s } =
    let h = s /. 2. in
    let p11 = Float.max 0. (p -. h) in
    let p00 = Float.max 0. (1. -. p -. h) in
    (* [| p(0,0); p(1,0); p(0,1); p(1,1) |], indexed by bit0 = x(t),
       bit1 = x(t+T). *)
    [| p00; h; h; p11 |]

  let of_table f inputs =
    let n = Tt.arity f in
    if Array.length inputs <> n then
      invalid_arg "Switching.of_table: wrong number of inputs";
    let probs = Array.map (fun s -> s.Sw.prob) inputs in
    let p = Prob.of_table f probs in
    let joints = Array.map joint inputs in
    (* Ones of f, enumerated once. *)
    let ones = ref [] in
    for m = (1 lsl n) - 1 downto 0 do
      if Tt.eval f m then ones := m :: !ones
    done;
    let ones = Array.of_list !ones in
    (* P(y(t) = 1 and y(t+T) = 1) = sum over pairs of satisfying minterms of
       the product of per-input joint probabilities. *)
    let p_joint = ref 0. in
    Array.iter
      (fun m ->
        Array.iter
          (fun m' ->
            let acc = ref 1. in
            (try
               for i = 0 to n - 1 do
                 let b = (m lsr i) land 1 and b' = (m' lsr i) land 1 in
                 acc := !acc *. joints.(i).(b lor (b' lsl 1));
                 if !acc = 0. then raise Exit
               done
             with Exit -> ());
            p_joint := !p_joint +. !acc)
          ones)
      ones;
    let s = 2. *. (p -. !p_joint) in
    Sw.signal ~prob:p ~activity:(Hlp_util.Stats.clamp ~lo:0. ~hi:1. s)

  let normalize steps =
    List.filter (fun (_, a) -> a > 0.) steps
    |> List.sort (fun (t1, _) (t2, _) -> compare t1 t2)

  let node_waveform func ~fanins ~delay =
    if delay < 1 then invalid_arg "Timed.node_waveform: delay must be >= 1";
    let n = Tt.arity func in
    if Array.length fanins <> n then
      invalid_arg "Timed.node_waveform: fanin count mismatch";
    (* Candidate switch times for the output: every fanin switch time plus
       the node delay. *)
    let module IS = Set.Make (Int) in
    let times =
      Array.fold_left
        (fun acc w ->
          List.fold_left
            (fun acc (t, _) -> IS.add (t + delay) acc)
            acc (Timed.steps w))
        IS.empty fanins
    in
    let probs = Array.map (fun w -> Timed.prob w) fanins in
    let p = Prob.of_table func probs in
    let activity_at w t =
      match List.assoc_opt t (Timed.steps w) with Some a -> a | None -> 0.
    in
    let step_activity t_out =
      let t_in = t_out - delay in
      let inputs =
        Array.map
          (fun w ->
            Sw.signal ~prob:(Timed.prob w) ~activity:(activity_at w t_in))
          fanins
      in
      (of_table func inputs).Sw.activity
    in
    let steps =
      IS.fold (fun t acc -> (t, step_activity t) :: acc) times []
    in
    (p, normalize steps)
end

let bits = Int64.bits_of_float

(* Probabilities 0, 1 and in between; activities 0, 1 and in between,
   so many exceed the 2 * min(P, 1 - P) clamp; up to five steps per
   fanin over times 0-4, so times repeat and arrive unsorted. *)
let gen_node =
  let open QCheck.Gen in
  let unit_or_rail =
    frequency [ (1, return 0.); (1, return 1.); (4, float_range 0. 1.) ]
  in
  let wave =
    pair unit_or_rail
      (list_size (int_range 0 5) (pair (int_range 0 4) unit_or_rail))
  in
  int_range 0 6 >>= fun n ->
  map3 (fun table waves delay -> (n, table, waves, delay))
    ui64 (list_repeat n wave) (int_range 1 3)

let print_node (n, table, waves, delay) =
  let step (t, a) = Printf.sprintf "(%d, %h)" t a in
  let wave (p, steps) =
    Printf.sprintf "{p=%h; [%s]}" p (String.concat "; " (List.map step steps))
  in
  Printf.sprintf "arity %d table %Lx delay %d fanins [%s]" n table delay
    (String.concat "; " (List.map wave waves))

let prop_staged_waveform_matches_reference =
  QCheck.Test.make ~count:2000
    ~name:"node_waveform = unstaged reference, bit for bit"
    (QCheck.make ~print:print_node gen_node)
    (fun (n, table, waves, delay) ->
      let f = Tt.create n table in
      let fanins =
        Array.of_list
          (List.map (fun (prob, steps) -> Timed.make ~prob ~steps) waves)
      in
      let w = Timed.node_waveform f ~fanins ~delay in
      let p, steps = Reference.node_waveform f ~fanins ~delay in
      bits (Timed.prob w) = bits p
      && List.map (fun (t, a) -> (t, bits a)) (Timed.steps w)
         = List.map (fun (t, a) -> (t, bits a)) steps)

(* Raw signal records, not built with [Switching.signal]: out-of-range,
   infinite and NaN fields take the staged kernel's unbounded path.  Any
   two NaNs count as equal: which NaN an operation on two of them returns
   depends on the order the compiler gives the operands. *)
let prop_of_table_matches_reference =
  let open QCheck.Gen in
  let field =
    frequency
      [ (1, return 0.); (1, return 1.); (4, float_range 0. 1.);
        (2, float_range (-1.) 3.); (1, return nan); (1, return infinity) ]
  in
  let gen =
    int_range 0 6 >>= fun n ->
    pair ui64 (list_repeat n (pair field field)) >|= fun (table, inputs) ->
    (n, table, inputs)
  in
  let print (n, table, inputs) =
    Printf.sprintf "arity %d table %Lx inputs [%s]" n table
      (String.concat "; "
         (List.map (fun (p, s) -> Printf.sprintf "(%h, %h)" p s) inputs))
  in
  QCheck.Test.make ~count:1000
    ~name:"of_table = unstaged reference, bit for bit"
    (QCheck.make ~print gen) (fun (n, table, inputs) ->
      let f = Tt.create n table in
      let inputs =
        Array.of_list
          (List.map (fun (prob, activity) -> { Sw.prob; activity }) inputs)
      in
      let got = Sw.of_table f inputs and want = Reference.of_table f inputs in
      let same a b = bits a = bits b || (Float.is_nan a && Float.is_nan b) in
      same got.Sw.prob want.Sw.prob && same got.Sw.activity want.Sw.activity)

(* A stream of nodes priced the way [Mapper.map] prices cuts: one
   [Timed.scratch] and one [Switching.entry] per distinct table for the
   whole stream, so later nodes step entries whose pair tables earlier
   ones built.  Tables come from a pool of four per stream, so they
   repeat; probabilities and activities include 0, 1 and NaN (a NaN
   probability takes the unbounded path; a NaN activity step is dropped
   by [Timed.make]).  Each node must equal the unstaged reference, and
   so must one raw step of the cached entry on unclamped signals; any
   two NaNs count as equal. *)
let prop_entry_cache_matches_reference =
  let open QCheck.Gen in
  let field =
    frequency
      [ (1, return 0.); (1, return 1.); (1, return nan);
        (4, float_range 0. 1.) ]
  in
  let wave =
    pair field (list_size (int_range 0 4) (pair (int_range 0 4) field))
  in
  let node pool =
    int_range 0 (Array.length pool - 1) >>= fun i ->
    let n, _ = pool.(i) in
    map3 (fun waves raw delay -> (i, waves, raw, delay))
      (list_repeat n wave) (list_repeat n (pair field field)) (int_range 1 3)
  in
  let gen =
    array_repeat 4 (pair (int_range 0 6) ui64) >>= fun pool ->
    list_size (int_range 1 30) (node pool) >|= fun nodes -> (pool, nodes)
  in
  let print (pool, nodes) =
    Printf.sprintf "pool [%s], %d nodes: %s"
      (String.concat "; "
         (Array.to_list
            (Array.map (fun (n, t) -> Printf.sprintf "%d:%Lx" n t) pool)))
      (List.length nodes)
      (String.concat " | "
         (List.map
            (fun (i, waves, _, delay) ->
              print_node (fst pool.(i), snd pool.(i), waves, delay))
            nodes))
  in
  QCheck.Test.make ~count:500
    ~name:"entry cache = unstaged reference, bit for bit"
    (QCheck.make ~print gen) (fun (pool, nodes) ->
      let same a b = bits a = bits b || (Float.is_nan a && Float.is_nan b) in
      let scratch = Timed.scratch () in
      let entries = Hashtbl.create 4 in
      let entry f =
        match Hashtbl.find_opt entries (Tt.arity f, Tt.bits f) with
        | Some e -> e
        | None ->
            let e = Sw.entry f in
            Hashtbl.replace entries (Tt.arity f, Tt.bits f) e;
            e
      in
      List.for_all
        (fun (i, waves, raw, delay) ->
          let n, table = pool.(i) in
          let f = Tt.create n table in
          let fanins =
            Array.of_list
              (List.map (fun (prob, steps) -> Timed.make ~prob ~steps) waves)
          in
          let w = Timed.node_waveform_in scratch (entry f) ~fanins ~delay in
          let p, steps = Reference.node_waveform f ~fanins ~delay in
          let inputs =
            Array.of_list
              (List.map (fun (prob, activity) -> { Sw.prob; activity }) raw)
          in
          let probs = Array.map (fun s -> s.Sw.prob) inputs in
          let out = [| 0. |] in
          let e = entry f in
          Sw.step e ~p:(Sw.prob e probs) probs
            (Array.map (fun s -> s.Sw.activity) inputs)
            out 0;
          let want = Reference.of_table f inputs in
          same (Timed.prob w) p
          && List.length (Timed.steps w) = List.length steps
          && List.for_all2
               (fun (t, a) (t', a') -> t = t' && same a a')
               (Timed.steps w) steps
          && same (Sw.prob e probs) want.Sw.prob
          && same out.(0) want.Sw.activity)
        nodes)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_eq2_bounds; prop_eq1_dominates_eq2;
      prop_timed_total_at_least_zero_delay_functional;
      prop_waveform_glitch_nonnegative; prop_waveform_decomposition;
      prop_arrival_monotone_in_composition;
      prop_staged_waveform_matches_reference; prop_of_table_matches_reference;
      prop_entry_cache_matches_reference ]

let suite =
  [
    Alcotest.test_case "prob of basic gates" `Quick test_prob_basic_gates;
    Alcotest.test_case "prob of constants" `Quick test_prob_const;
    Alcotest.test_case "prob over netlist" `Quick test_prob_netlist;
    Alcotest.test_case "inverter passes activity" `Quick
      test_switching_inverter;
    Alcotest.test_case "and activity (analytic)" `Quick
      test_switching_and_uncorrelated;
    Alcotest.test_case "xor simultaneous switching cancels" `Quick
      test_switching_xor_full_activity;
    Alcotest.test_case "static inputs, static output" `Quick
      test_switching_static_inputs;
    Alcotest.test_case "eq1 = eq2 for single switching input" `Quick
      test_najm_single_input_agreement;
    Alcotest.test_case "signal clamps inconsistent activity" `Quick
      test_signal_clamps_inconsistent;
    Alcotest.test_case "signal rejects bad ranges" `Quick
      test_signal_rejects_bad_ranges;
    Alcotest.test_case "balanced xor has no glitch" `Quick
      test_timed_balanced_xor;
    Alcotest.test_case "unbalanced chain glitches" `Quick
      test_timed_unbalanced_chain_glitches;
    Alcotest.test_case "summary decomposition" `Quick
      test_timed_summary_decomposition;
    Alcotest.test_case "port arrival skew increases SA" `Quick
      test_timed_port_skew_increases_sa;
    Alcotest.test_case "constant nodes in timed model" `Quick
      test_timed_const_node;
    Alcotest.test_case "reject zero delay" `Quick
      test_node_waveform_rejects_zero_delay;
    Alcotest.test_case "make keeps the first step per time" `Quick
      test_make_keeps_first_step_per_time;
  ]
  @ props
