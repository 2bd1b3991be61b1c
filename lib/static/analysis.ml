module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Switching = Hlp_activity.Switching
module Timed = Hlp_activity.Timed

type input = { signal : Switching.signal; density : float }

let default_input = { signal = Switching.default_input; density = 0.5 }

let input ~prob ~activity ~density =
  if density < 0. || density > 1. then
    invalid_arg "Analysis.input: density range";
  let signal = Switching.signal ~prob ~activity in
  (* An input changes at most once per cycle, so its density cannot be
     below its zero-delay activity; take the larger of the two. *)
  { signal; density = Float.max signal.Switching.activity density }

type node_info = {
  prob : float;
  functional : float;
  density : float;
  toggles : float;
  min_arrival : int;
  max_arrival : int;
}

let spread i = i.max_arrival - i.min_arrival
let glitch i = i.toggles -. i.functional

(* The sweep's results live in flat per-node arrays (floats unboxed);
   [info] boxes them into records on demand. *)
type t = {
  net : Nl.t;
  prob : float array;
  functional : float array;
  density : float array;
  toggles : float array;
  min_arrival : int array;
  max_arrival : int array;
  glitch_gain : float;
}

let net t = t.net
let glitch_gain t = t.glitch_gain

let info t =
  Array.init (Array.length t.prob) (fun id ->
      {
        prob = t.prob.(id);
        functional = t.functional.(id);
        density = t.density.(id);
        toggles = t.toggles.(id);
        min_arrival = t.min_arrival.(id);
        max_arrival = t.max_arrival.(id);
      })

let default_glitch_gain = 0.945

(* The propagation below is the waveform model of {!Timed} (§4 /
   GlitchMap) re-implemented on flat arrays: every node's waveform is a
   slice of one float array holding, per discrete arrival time inside
   the node's structural window [min_arrival, max_arrival], its
   activity at that time.  Semantics are identical — per output time, a
   Chou-Roy evaluation fed only the activity each fanin exhibits one
   delay earlier — but the analyzer has to sweep mapped netlists orders
   of magnitude faster than the simulator to be worth having, so the
   shared-list representation is replaced by flat arrays and two
   per-node strength reductions:

   - everything time-invariant (the signal probability, the ones of the
     local function, the boolean-difference probabilities) is hoisted
     out of the per-time-step loop;
   - at a time step where exactly one fanin is active — the common case
     once arrivals stagger — the Chou-Roy minterm-pair sum collapses to
     [P(df/dx_i) * a_i], the fanin activity gated by the boolean
     difference, which needs one multiply instead of |ones|^2 products.

   The two paths agree mathematically (with one switching input,
   P(y flips) = P(df/dx_i) * P(x_i flips) under the same independence
   assumption); only float rounding differs.  Every float sum below
   runs in a fixed order, so the results are a pure function of the
   netlist and the inputs, bit for bit. *)

(* Local float helpers: the propagation calls these per window step,
   and without cross-module inlining the stdlib's NaN-aware versions
   cost a function call each.  Probabilities and activities are never
   NaN here. *)
let[@inline] fmin (a : float) (b : float) = if a <= b then a else b
let[@inline] fmax (a : float) (b : float) = if a >= b then a else b
let[@inline] clamp01 (x : float) =
  if x <= 0. then 0. else if x >= 1. then 1. else x

(* The Chou-Roy joint term at one time step, [Switching.of_table] with
   the ones of the function precomputed: P(y(t)=1, y(t+T)=1) summed
   over satisfying minterm pairs of the per-input joint distributions,
   written to [dst.(at)]; the caller turns it into the activity
   2 (p - P).  [joints] is the flat caller-owned buffer holding, at
   [4i + (b lor b' lsl 1)], input [i]'s joint probability of
   (x_i(t) = b, x_i(t+T) = b') implied by (prob, activity at this
   step).  The joint is time-symmetric (both off-diagonal entries are
   activity/2), so each unordered off-diagonal minterm pair is summed
   once and doubled.  Results go to an array slot because a float
   returned from a call that is not inlined would be boxed, once per
   time step. *)
let chou_roy ~ones ~k ~joints (dst : float array) at =
  let np = Array.length ones in
  let p_joint = ref 0. in
  for a = 0 to np - 1 do
    let m = Array.unsafe_get ones a in
    let acc = ref 1. in
    let i = ref 0 in
    while !i < k && !acc <> 0. do
      let b = (m lsr !i) land 1 in
      acc := !acc *. Array.unsafe_get joints ((!i lsl 2) lor (b * 3));
      incr i
    done;
    p_joint := !p_joint +. !acc;
    for a' = a + 1 to np - 1 do
      let m' = Array.unsafe_get ones a' in
      let acc = ref 1. in
      let i = ref 0 in
      while !i < k && !acc <> 0. do
        let b = (m lsr !i) land 1 and b' = (m' lsr !i) land 1 in
        acc := !acc *. Array.unsafe_get joints ((!i lsl 2) lor b lor (b' lsl 1));
        incr i
      done;
      p_joint := !p_joint +. (2. *. !acc)
    done
  done;
  Array.unsafe_set dst at !p_joint

(* The same joint term for LUTs of arity <= 4, with the minterm-pair
   structure precomputed: each cached pair packs, four bits per input,
   the [joints] index of the cell (x_i(t), x_i(t+T)) it selects, so a
   pair costs k - 1 multiplies and no bit extraction.  Products
   associate as (J0 J1) J2 and (J0 J1)(J2 J3), each sum runs from the
   last pair down, and the off-diagonal sum is doubled once at the
   end. *)
let chou_roy4 ~k (joints : float array) diag off (dst : float array) at =
  let pd = ref 0. and po = ref 0. in
  (match k with
  | 1 ->
      for t = Array.length diag - 1 downto 0 do
        let ix = Array.unsafe_get diag t in
        pd := !pd +. Array.unsafe_get joints (ix land 15)
      done;
      for t = Array.length off - 1 downto 0 do
        let ix = Array.unsafe_get off t in
        po := !po +. Array.unsafe_get joints (ix land 15)
      done
  | 2 ->
      for t = Array.length diag - 1 downto 0 do
        let ix = Array.unsafe_get diag t in
        pd :=
          !pd
          +. Array.unsafe_get joints (ix land 15)
             *. Array.unsafe_get joints ((ix lsr 4) land 15)
      done;
      for t = Array.length off - 1 downto 0 do
        let ix = Array.unsafe_get off t in
        po :=
          !po
          +. Array.unsafe_get joints (ix land 15)
             *. Array.unsafe_get joints ((ix lsr 4) land 15)
      done
  | 3 ->
      for t = Array.length diag - 1 downto 0 do
        let ix = Array.unsafe_get diag t in
        pd :=
          !pd
          +. Array.unsafe_get joints (ix land 15)
             *. Array.unsafe_get joints ((ix lsr 4) land 15)
             *. Array.unsafe_get joints ((ix lsr 8) land 15)
      done;
      for t = Array.length off - 1 downto 0 do
        let ix = Array.unsafe_get off t in
        po :=
          !po
          +. Array.unsafe_get joints (ix land 15)
             *. Array.unsafe_get joints ((ix lsr 4) land 15)
             *. Array.unsafe_get joints ((ix lsr 8) land 15)
      done
  | _ ->
      for t = Array.length diag - 1 downto 0 do
        let ix = Array.unsafe_get diag t in
        pd :=
          !pd
          +. Array.unsafe_get joints (ix land 15)
             *. Array.unsafe_get joints ((ix lsr 4) land 15)
             *. (Array.unsafe_get joints ((ix lsr 8) land 15)
                *. Array.unsafe_get joints (ix lsr 12))
      done;
      for t = Array.length off - 1 downto 0 do
        let ix = Array.unsafe_get off t in
        po :=
          !po
          +. Array.unsafe_get joints (ix land 15)
             *. Array.unsafe_get joints ((ix lsr 4) land 15)
             *. (Array.unsafe_get joints ((ix lsr 8) land 15)
                *. Array.unsafe_get joints (ix lsr 12))
      done);
  Array.unsafe_set dst at (!pd +. (2. *. !po))

(* Everything purely functional about a LUT table, cached by table
   identity (functions repeat heavily across a mapped netlist): the
   ones of the function and of each boolean difference df/dx_i, and
   the packed Chou-Roy pair indices for the arity <= 4 path. *)
type func_entry = {
  f_ones : int array;
  bd_ones : int array array;
  pair_diag : int array;
  pair_off : int array;
}

(* [dst.(at)] <- sum of minterm [weights] over a ones list, clamped to
   a probability. *)
let masked_sum (weights : float array) ones (dst : float array) at =
  let acc = ref 0. in
  for idx = Array.length ones - 1 downto 0 do
    acc := !acc +. Array.unsafe_get weights (Array.unsafe_get ones idx)
  done;
  Array.unsafe_set dst at (clamp01 !acc)

let func_entry func =
  let k = Tt.arity func in
  let ones_of t =
    let l = ref [] in
    for m = (1 lsl k) - 1 downto 0 do
      if Tt.eval t m then l := m :: !l
    done;
    Array.of_list !l
  in
  let f_ones = ones_of func in
  let pack m m' =
    let ix = ref 0 in
    for i = 0 to 3 do
      let cell = ((m lsr i) land 1) lor (((m' lsr i) land 1) lsl 1) in
      ix := !ix lor (((i lsl 2) lor cell) lsl (4 * i))
    done;
    !ix
  in
  let np = Array.length f_ones in
  let pair_diag, pair_off =
    if k > 4 then ([||], [||])
    else begin
      let off = Array.make (np * (np - 1) / 2) 0 in
      let t = ref 0 in
      for a = 0 to np - 1 do
        for a' = a + 1 to np - 1 do
          off.(!t) <- pack f_ones.(a) f_ones.(a');
          incr t
        done
      done;
      (Array.map (fun m -> pack m m) f_ones, off)
    end
  in
  {
    f_ones;
    bd_ones = Array.init k (fun i -> ones_of (Tt.boolean_difference func i));
    pair_diag;
    pair_off;
  }

let analyze ?(glitch_gain = default_glitch_gain) net ~input =
  if glitch_gain < 0. then invalid_arg "Analysis.analyze: glitch_gain < 0";
  let n = Nl.num_nodes net in
  (* Structural pass: arrival windows, and the slice of [wave] each
     node's waveform occupies.  Node [id]'s activity at time
     [min_arrival + j] is [wave.(wofs.(id) + j)]; inputs hold one step
     (t = 0), constants none, logic nodes one per level of their
     window.  Ids are topologically ordered, so fanins come first. *)
  let min_arrival = Array.make n 0 and max_arrival = Array.make n 0 in
  let wofs = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    let len =
      if Nl.is_input net id then 1
      else begin
        let fanins = (Nl.node net id).Nl.fanins in
        if Array.length fanins = 0 then 0
        else begin
          let mn = ref max_int and mx = ref 0 in
          for i = 0 to Array.length fanins - 1 do
            let f = fanins.(i) in
            if min_arrival.(f) < !mn then mn := min_arrival.(f);
            if max_arrival.(f) > !mx then mx := max_arrival.(f)
          done;
          min_arrival.(id) <- !mn + 1;
          max_arrival.(id) <- !mx + 1;
          !mx - !mn + 1
        end
      end
    in
    wofs.(id + 1) <- wofs.(id) + len
  done;
  let wave = Array.make wofs.(n) 0. in
  let prob = Array.make n 0. in
  let functional = Array.make n 0. in
  let density = Array.make n 0. in
  let toggles = Array.make n 0. in
  (* Tables of arity <= 3 (most of a 4-LUT cover) index a direct-mapped
     cache by their 8 content bits and arity; wider ones take a hash
     table keyed by the raw column. *)
  let no_entry =
    { f_ones = [||]; bd_ones = [||]; pair_diag = [||]; pair_off = [||] }
  in
  let small_cache = Array.make 1024 no_entry in
  let wide_cache = Hashtbl.create 16 in
  let func_info func =
    let arity = Tt.arity func in
    if arity <= 3 then begin
      let key = (Int64.to_int (Tt.bits func) lsl 2) lor arity in
      let fe = small_cache.(key) in
      if fe != no_entry then fe
      else begin
        let fe = func_entry func in
        small_cache.(key) <- fe;
        fe
      end
    end
    else
      let key = (arity, Tt.bits func) in
      match Hashtbl.find_opt wide_cache key with
      | Some fe -> fe
      | None ->
          let fe = func_entry func in
          Hashtbl.add wide_cache key fe;
          fe
  in
  (* Scratch buffers reused across nodes.  Truth tables are
     Int64-backed, so LUT arity is at most 6 and the arity-indexed
     buffers are sized statically; the window-indexed marks grow on
     demand. *)
  let probs = Array.make 6 0. in
  let qs = Array.make 6 0. in
  let caps = Array.make 6 0. in
  let bd = Array.make 6 0. in
  let fofs = Array.make 6 0 in
  let flen = Array.make 6 0 in
  let frel = Array.make 6 0 in
  let joints = Array.make 24 0. in
  let weights = Array.make 64 0. in
  let acts = Array.make 6 0. in
  let damp = glitch_gain < 1. in
  Array.iteri
    (fun k id ->
      let { signal; density = d } = input k in
      (* The simulator changes inputs only at cycle start: one waveform
         step at t = 0 carrying the full per-cycle density.  Inputs
         cannot glitch, so toggles = density. *)
      wave.(wofs.(id)) <- d;
      prob.(id) <- signal.Switching.prob;
      functional.(id) <- signal.Switching.activity;
      density.(id) <- d;
      toggles.(id) <- d)
    (Nl.inputs net);
  for id = 0 to n - 1 do
    if not (Nl.is_input net id) then begin
      let node = Nl.node net id in
      let fanins = node.Nl.fanins in
      let k = Array.length fanins in
      if k = 0 then
        (* Constant node: probability is the table value, never
           switches. *)
        prob.(id) <- (if Tt.eval node.Nl.func 0 then 1. else 0.)
      else begin
        let t_lo = min_arrival.(id) - 1 in
        let wo = wofs.(id) in
        let len = wofs.(id + 1) - wo in
        for i = 0 to k - 1 do
          let f = fanins.(i) in
          let pi = prob.(f) in
          probs.(i) <- pi;
          qs.(i) <- 1. -. pi;
          caps.(i) <- 2. *. (if pi <= 1. -. pi then pi else 1. -. pi);
          fofs.(i) <- wofs.(f);
          flen.(i) <- wofs.(f + 1) - wofs.(f);
          frel.(i) <- min_arrival.(f) - t_lo
        done;
        let fe = func_info node.Nl.func in
        (* Minterm weights by tensor-product doubling: after folding
           in input [i], [weights.(m)] for m < 2^(i+1) is the joint
           probability of fanin assignment [m] under independence.
           One build (2(2^k - 1) multiplies) then serves the signal
           probability and every boolean-difference probability as
           masked sums, replacing k + 1 Shannon recursions over the
           tables per node. *)
        weights.(0) <- 1.;
        for i = 0 to k - 1 do
          let pi = probs.(i) and qi = qs.(i) in
          let span = 1 lsl i in
          for m = span - 1 downto 0 do
            let w = Array.unsafe_get weights m in
            Array.unsafe_set weights (m + span) (w *. pi);
            Array.unsafe_set weights m (w *. qi)
          done
        done;
        masked_sum weights fe.f_ones prob id;
        let p = prob.(id) in
        (* Boolean-difference probabilities: the single-active fast
           path below and Najm's Eq. 1 density envelope (what the
           A-rule density budget checks) both gate fanin activity by
           them. *)
        let dsum = ref 0. in
        for i = 0 to k - 1 do
          masked_sum weights fe.bd_ones.(i) bd i;
          dsum := !dsum +. (bd.(i) *. density.(fanins.(i)))
        done;
        (* Per output step, gather each fanin's activity one delay
           earlier and count the active ones: a step with a single
           active fanin takes the boolean-difference shortcut, a step
           with several takes the full Chou-Roy sum. *)
        let bound = 2. *. fmin p (1. -. p) in
        let last = ref (-1) in
        for rel = 0 to len - 1 do
          let active = ref 0 and one = ref 0 in
          for i = 0 to k - 1 do
            let j = rel - Array.unsafe_get frel i in
            let a =
              if j >= 0 && j < Array.unsafe_get flen i then
                Array.unsafe_get wave (Array.unsafe_get fofs i + j)
              else 0.
            in
            Array.unsafe_set acts i a;
            if a > 0. then begin
              incr active;
              one := i
            end
          done;
          if !active = 1 then begin
            let v = fmin bound (clamp01 (bd.(!one) *. acts.(!one))) in
            wave.(wo + rel) <- v;
            if v > 0. then last := rel
          end
          else if !active > 1 then begin
            for i = 0 to k - 1 do
              let cap = Array.unsafe_get caps i in
              let a = Array.unsafe_get acts i in
              let a = if a <= cap then a else cap in
              let h = a *. 0.5 in
              let b = i lsl 2 in
              Array.unsafe_set joints b
                (fmax 0. (Array.unsafe_get qs i -. h));
              Array.unsafe_set joints (b + 1) h;
              Array.unsafe_set joints (b + 2) h;
              Array.unsafe_set joints (b + 3)
                (fmax 0. (Array.unsafe_get probs i -. h))
            done;
            if k > 4 then chou_roy ~ones:fe.f_ones ~k ~joints wave (wo + rel)
            else chou_roy4 ~k joints fe.pair_diag fe.pair_off wave (wo + rel);
            let v =
              fmin bound (clamp01 (2. *. (p -. wave.(wo + rel))))
            in
            wave.(wo + rel) <- v;
            if v > 0. then last := rel
          end
        done;
        (* The last switching step is the functional transition,
           everything earlier is glitch.  The raw model compounds its
           independence error with depth (every level re-estimates
           glitches from already over-estimated fanin glitches), so the
           glitch steps are damped by [glitch_gain] per level before
           the waveform feeds the fanouts — the spatial-correlation
           attenuation the calibration constant stands for.  Steps
           after [last] are zero and add nothing. *)
        let total = ref 0. in
        for rel = 0 to !last do
          let v = Array.unsafe_get wave (wo + rel) in
          let v = if damp && rel <> !last then glitch_gain *. v else v in
          Array.unsafe_set wave (wo + rel) v;
          total := !total +. v
        done;
        functional.(id) <- (if !last >= 0 then wave.(wo + !last) else 0.);
        density.(id) <- !dsum;
        toggles.(id) <- !total
      end
    end
  done;
  { net; prob; functional; density; toggles; min_arrival; max_arrival;
    glitch_gain }

let total_toggles t = Array.fold_left ( +. ) 0. t.toggles

let glitch_toggles t =
  let acc = ref 0. in
  Array.iteri (fun id v -> acc := !acc +. (v -. t.functional.(id))) t.toggles;
  !acc

let node_toggles t = Array.copy t.toggles

(* --- reconvergent fanout -------------------------------------------- *)

(* Per-node primary-input support as a bitset (one bit per input index),
   unioned bottom-up.  A node is a reconvergence point when two of its
   fanin cones share a primary input: there the independence assumption
   behind both propagations degrades.  Fanins the local function does
   not depend on are skipped — they cannot correlate the output. *)
let reconvergent net =
  let n = Nl.num_nodes net in
  let num_inputs = Array.length (Nl.inputs net) in
  let words = (num_inputs + 62) / 63 in
  let support = Array.make_matrix n (max words 1) 0 in
  Array.iteri
    (fun k id -> support.(id).(k / 63) <- support.(id).(k / 63) lor (1 lsl (k mod 63)))
    (Nl.inputs net);
  let reconv = Array.make n false in
  Array.iter
    (fun id ->
      if not (Nl.is_input net id) then begin
        let node = Nl.node net id in
        let fanins = node.Nl.fanins in
        let live =
          Array.of_list
            (List.filter_map
               (fun i ->
                 if Tt.depends_on node.Nl.func i then Some fanins.(i) else None)
               (List.init (Array.length fanins) Fun.id))
        in
        let out = support.(id) in
        Array.iter
          (fun f ->
            let sf = support.(f) in
            for w = 0 to words - 1 do
              if out.(w) land sf.(w) <> 0 then reconv.(id) <- true;
              out.(w) <- out.(w) lor sf.(w)
            done)
          live
      end)
    (Nl.topo_order net);
  reconv
