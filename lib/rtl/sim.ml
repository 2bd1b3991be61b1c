module Nl = Hlp_netlist.Netlist
module Tt = Hlp_netlist.Truth_table
module Cdfg = Hlp_cdfg.Cdfg
module Rng = Hlp_util.Rng
module Bits = Hlp_util.Bits
module Telemetry = Hlp_util.Telemetry

let c_runs = Telemetry.counter "sim.runs"
let c_cycles = Telemetry.counter "sim.cycles"
let c_toggles = Telemetry.counter "sim.toggles"
let c_glitches = Telemetry.counter "sim.glitch_toggles"
let c_vectors = Telemetry.counter "sim.vectors"

type config = {
  vectors : int;
  seed : string;
  check : bool;
}

let default_config = { vectors = 1000; seed = "sim"; check = true }

type result = {
  node_toggles : int array;
  total_toggles : int;
  glitch_toggles : int;
  cycles : int;
  num_signals : int;
}

(* The vector stream both engines consume.  The contract (documented in
   sim.mli and pinned by a regression test) is: one generator seeded
   with [seed]; draws are vector-major, input-minor; each draw is
   [Rng.int rng (mask + 1)].  Materializing the whole stream up front
   makes "both engines see identical vectors" true by construction; it
   is one flat array, vector [v]'s input [k] at [v * num_inputs + k]. *)
let flat_stream ~seed ~vectors ~num_inputs ~mask =
  let rng = Rng.create seed in
  let vs = Array.make (vectors * num_inputs) 0 in
  for i = 0 to Array.length vs - 1 do
    vs.(i) <- Rng.int rng (mask + 1)
  done;
  vs

let vector_stream ~seed ~vectors ~num_inputs ~mask =
  let vs = flat_stream ~seed ~vectors ~num_inputs ~mask in
  Array.init vectors (fun v -> Array.sub vs (v * num_inputs) num_inputs)

(* --- shared harness ------------------------------------------------ *)

(* Everything the schedule walk needs, independent of the value
   representation (bool per signal vs word per signal). *)
type 'a harness = {
  dp : Datapath.t;
  n_steps : int;
  n_regs : int;
  width : int;
  n_inputs : int;  (* CDFG inputs per vector *)
  streams : int array;  (* the shared stream, vector-major *)
  out_ids : int array array;  (* per written reg, per bit: output node id *)
  assignment : 'a array;  (* one slot per network primary input *)
  (* the golden check's working arrays: per CDFG op, per output *)
  golden_values : int array;
  golden_outputs : int array;
}

let make_harness (elab : Elaborate.t) ~network ~config ~fill =
  let dp = elab.Elaborate.datapath in
  let binding = dp.Datapath.binding in
  let schedule = binding.Hlp_core.Binding.schedule in
  let cdfg = schedule.Hlp_cdfg.Schedule.cdfg in
  let width = dp.Datapath.width in
  let mask = (1 lsl width) - 1 in
  let n_regs = Datapath.num_regs dp in
  let out_node = Hashtbl.create 64 in
  List.iter
    (fun (name, id) -> Hashtbl.replace out_node name id)
    (Nl.outputs network);
  let out_ids =
    Array.init n_regs (fun reg ->
        if Array.length dp.Datapath.reg_writers.(reg) = 0 then [||]
        else
          Array.init width (fun bit ->
              Hashtbl.find out_node (Elaborate.output_name ~reg ~bit)))
  in
  let n_inputs = Cdfg.num_inputs cdfg in
  {
    dp;
    n_steps = Array.length dp.Datapath.ctrl;
    n_regs;
    width;
    n_inputs;
    streams =
      flat_stream ~seed:config.seed ~vectors:config.vectors
        ~num_inputs:n_inputs ~mask;
    out_ids;
    assignment = Array.make (Array.length (Nl.inputs network)) fill;
    golden_values = Array.make (Cdfg.num_ops cdfg) 0;
    golden_outputs = Array.make (List.length dp.Datapath.output_regs) 0;
  }

(* Checks vector [vec]'s output registers, [got r] reading register [r],
   against the golden model. *)
let check_vector h ~vec got =
  Datapath.golden_outputs h.dp h.streams ~ofs:(vec * h.n_inputs)
    ~values:h.golden_values ~outputs:h.golden_outputs;
  List.iteri
    (fun i (name, r) ->
      let want = h.golden_outputs.(i) and got = got r in
      if got <> want then
        failwith
          (Printf.sprintf
             "Sim.run: output %s = %d, golden model says %d (vector %d)" name
             got want (vec + 1)))
    h.dp.Datapath.output_regs

(* --- scalar oracle engine ------------------------------------------ *)

(* Event-driven unit-delay engine over one combinational network.  Each
   clock cycle applies an input vector at t = 0; value changes propagate
   one level per time step; every change is a counted transition.  Each
   time bucket commits in two phases (evaluate everything against the
   pre-bucket values, then commit all changes at once), so the result is
   independent of intra-bucket processing order — the same dense
   synchronous-relaxation semantics the bit-parallel engine computes
   lane-wise. *)
type scalar_state = {
  net : Nl.t;
  values : bool array;
  canonical : bool array;  (* settled response to the all-false inputs *)
  fanouts : int array array;
  toggles : int array;
  (* toggles per node in the *current cycle*, to split out glitches *)
  cycle_toggles : int array;
  touched : int list ref;
  buckets : int array array;  (* per time step, node ids (deduplicated) *)
  bucket_fill : int array;
  stamped : int array;  (* last stamp a node was enqueued with, per node *)
  changed : int array;  (* scratch: ids changing in the current bucket *)
  max_time : int;
}

let create_scalar net =
  let n = Nl.num_nodes net in
  let max_time = Nl.max_depth net + 1 in
  (* Establish a consistent steady state for the all-false input vector
     before any event processing: without this, constant nodes (which
     receive no fanin events) would be stuck at false. *)
  let values = Array.make n false in
  Array.iter
    (fun id ->
      if not (Nl.is_input net id) then begin
        let node = Nl.node net id in
        let m = ref 0 in
        Array.iteri
          (fun i f -> if values.(f) then m := !m lor (1 lsl i))
          node.Nl.fanins;
        values.(id) <- Tt.eval node.Nl.func !m
      end)
    (Nl.topo_order net);
  {
    net;
    values;
    canonical = Array.copy values;
    fanouts = Nl.fanouts net;
    toggles = Array.make n 0;
    cycle_toggles = Array.make n 0;
    touched = ref [];
    buckets = Array.init (max_time + 2) (fun _ -> Array.make 16 0);
    bucket_fill = Array.make (max_time + 2) 0;
    stamped = Array.make n (-1);
    changed = Array.make (max n 1) 0;
    max_time;
  }

let enqueue buckets bucket_fill t id =
  let fill = bucket_fill.(t) in
  let bucket = buckets.(t) in
  let bucket =
    if fill >= Array.length bucket then begin
      let bigger = Array.make (2 * Array.length bucket) 0 in
      Array.blit bucket 0 bigger 0 fill;
      buckets.(t) <- bigger;
      bigger
    end
    else bucket
  in
  bucket.(fill) <- id;
  bucket_fill.(t) <- fill + 1

let eval_node e id =
  let node = Nl.node e.net id in
  let fanins = node.Nl.fanins in
  let m = ref 0 in
  for i = 0 to Array.length fanins - 1 do
    if e.values.(fanins.(i)) then m := !m lor (1 lsl i)
  done;
  Tt.eval node.Nl.func !m

let record_toggle e id =
  e.toggles.(id) <- e.toggles.(id) + 1;
  if e.cycle_toggles.(id) = 0 then e.touched := id :: !(e.touched);
  e.cycle_toggles.(id) <- e.cycle_toggles.(id) + 1

(* Apply new input values at t=0 and settle the network; returns glitch
   transitions observed this cycle.  [epoch] must strictly increase across
   calls: per-bucket dedup stamps are [epoch * (max_time + 2) + t], so they
   never collide between cycles and the stamp array needs no clearing. *)
let settle e ~epoch (assignment : bool array) =
  let inputs = Nl.inputs e.net in
  let stamp_base = epoch * (e.max_time + 2) in
  Array.fill e.bucket_fill 0 (Array.length e.bucket_fill) 0;
  Array.iteri
    (fun k id ->
      if e.values.(id) <> assignment.(k) then begin
        e.values.(id) <- assignment.(k);
        record_toggle e id;
        Array.iter
          (fun fo ->
            if e.stamped.(fo) <> stamp_base + 1 then begin
              e.stamped.(fo) <- stamp_base + 1;
              enqueue e.buckets e.bucket_fill 1 fo
            end)
          e.fanouts.(id)
      end)
    inputs;
  let t = ref 1 in
  while !t <= e.max_time + 1 do
    let fill = e.bucket_fill.(!t) in
    if fill > 0 then begin
      let bucket = e.buckets.(!t) in
      (* Phase 1: evaluate every queued node against the values as they
         stood when the bucket opened. *)
      let n_changed = ref 0 in
      for i = 0 to fill - 1 do
        let id = bucket.(i) in
        if eval_node e id <> e.values.(id) then begin
          e.changed.(!n_changed) <- id;
          incr n_changed
        end
      done;
      (* Phase 2: commit all changes, count them, wake the fanouts. *)
      let next = min (!t + 1) (e.max_time + 1) in
      for i = 0 to !n_changed - 1 do
        let id = e.changed.(i) in
        e.values.(id) <- not e.values.(id);
        record_toggle e id;
        Array.iter
          (fun fo ->
            if e.stamped.(fo) <> stamp_base + next then begin
              e.stamped.(fo) <- stamp_base + next;
              enqueue e.buckets e.bucket_fill next fo
            end)
          e.fanouts.(id)
      done;
      e.bucket_fill.(!t) <- 0
    end;
    incr t
  done;
  (* Glitches this cycle: transitions beyond one per touched node. *)
  let glitches =
    List.fold_left
      (fun acc id -> acc + max 0 (e.cycle_toggles.(id) - 1))
      0 !(e.touched)
  in
  List.iter (fun id -> e.cycle_toggles.(id) <- 0) !(e.touched);
  e.touched := [];
  glitches

let run_scalar ?(config = default_config) (elab : Elaborate.t) ~network =
  Telemetry.time "sim.run" @@ fun () ->
  let h = make_harness elab ~network ~config ~fill:false in
  let e = create_scalar network in
  let n = Nl.num_nodes network in
  let reg_values = Array.make (max h.n_regs 1) 0 in
  let glitches = ref 0 in
  let cycles = ref 0 in
  for vec = 0 to config.vectors - 1 do
    (* Per-vector independence: every vector starts from the canonical
       state (registers 0, network settled for all-false inputs).  The
       reset itself is not a counted transition. *)
    Array.blit e.canonical 0 e.values 0 n;
    Array.fill reg_values 0 (Array.length reg_values) 0;
    List.iter
      (fun (k, r) -> reg_values.(r) <- h.streams.((vec * h.n_inputs) + k))
      h.dp.Datapath.input_regs;
    for step = 0 to h.n_steps - 1 do
      for r = 0 to h.n_regs - 1 do
        Elaborate.set_reg_bits elab h.assignment ~reg:r ~value:reg_values.(r)
      done;
      Elaborate.set_controls elab h.assignment ~step;
      glitches := !glitches + settle e ~epoch:!cycles h.assignment;
      incr cycles;
      (* Clock edge: capture next values where a load is scheduled. *)
      let loads = h.dp.Datapath.ctrl.(step).Datapath.reg_load in
      Array.iteri
        (fun r load ->
          match load with
          | Some _ ->
              let ids = h.out_ids.(r) in
              if Array.length ids = 0 then
                failwith "Sim.run: load from unwritten register"
              else begin
                let v = ref 0 in
                for bit = 0 to h.width - 1 do
                  if e.values.(ids.(bit)) then v := !v lor (1 lsl bit)
                done;
                reg_values.(r) <- !v
              end
          | None -> ())
        loads
    done;
    if config.check then check_vector h ~vec (Array.get reg_values)
  done;
  let total_toggles = Array.fold_left ( + ) 0 e.toggles in
  Telemetry.incr c_runs;
  Telemetry.add c_vectors config.vectors;
  Telemetry.add c_cycles !cycles;
  Telemetry.add c_toggles total_toggles;
  Telemetry.add c_glitches !glitches;
  {
    node_toggles = e.toggles;
    total_toggles;
    glitch_toggles = !glitches;
    cycles = !cycles;
    num_signals = Nl.num_nodes network;
  }

(* --- bit-parallel engine ------------------------------------------- *)

(* The same event-driven algorithm, lifted to machine words: one word per
   signal, lane [l] carrying vector [batch * Bits.lanes + l].  Because
   every per-lane decision in the scalar engine is a pure function of the
   values at the previous time step (the two-phase commit), lane-wise
   word evaluation computes the identical trajectory for every lane at
   once: a diff word's popcount is the number of lanes toggling, and the
   OR of a cycle's diff words identifies the lanes that toggled at all,
   so a cycle's glitches are its transitions minus the popcounts of
   those ORs — the scalar engine's [max 0 (cycle_toggles - 1)] summed
   over nodes and lanes.

   Inactive lanes (the tail batch) idle at the canonical state: the
   canonical values are a fixpoint of the network, inputs are masked to
   the active lanes, so inactive lanes never produce a diff.

   The network is flattened once per run: fanins and fanouts in CSR
   form (node [id]'s fanins are [fi.(fi_ofs.(id)) ..
   fi.(fi_ofs.(id + 1) - 1)]), LUT columns as native ints.  Events only
   ever move from step t to t + 1, so two buffers alternate: the
   changes of step t, committed into the queue of step t + 1, evaluated
   into the changes of step t + 1.  A node is queued at most once per
   step, deduplicated by the step's generation number. *)
type engine = {
  inputs : int array;  (* network input ids, in assignment order *)
  arity : int array;
  lo : int array;  (* column bits 0-31, per node *)
  hi : int array;  (* column bits 32-63 (arity 6 only) *)
  fi_ofs : int array;
  fi : int array;
  fo_ofs : int array;
  fo : int array;
  canonical : int array;  (* settled all-false response, -1 / 0 per node *)
  values : int array;
  toggles : int array;
  cyc_or : int array;  (* OR of this cycle's diff words, per node *)
  touched : int array;  (* stack: the nodes with a nonzero [cyc_or] *)
  queued : int array;  (* generation a node was last queued in *)
  queue : int array;  (* the nodes to evaluate at the next step *)
  changed : int array;  (* the nodes changing at this step *)
  new_vals : int array;  (* their new words, same index *)
}

let flatten net =
  let n = Nl.num_nodes net in
  let arity = Array.make n 0 and lo = Array.make n 0 and hi = Array.make n 0 in
  let fi_ofs = Array.make (n + 1) 0 and fo_ofs = Array.make (n + 1) 0 in
  (* [fo_ofs.(f)] first counts [f]'s fanouts, then, summed, is the end
     of its slice; filling the slices back to front from the last node
     leaves it at the slice's start, the fanouts in increasing order. *)
  for id = 0 to n - 1 do
    let node = Nl.node net id in
    if not (Nl.is_input net id) then begin
      let k = Array.length node.Nl.fanins in
      arity.(id) <- k;
      lo.(id) <- Tt.low_half node.Nl.func;
      hi.(id) <- Tt.high_half node.Nl.func;
      for i = 0 to k - 1 do
        let f = node.Nl.fanins.(i) in
        fo_ofs.(f) <- fo_ofs.(f) + 1
      done
    end;
    fi_ofs.(id + 1) <- fi_ofs.(id) + arity.(id)
  done;
  for id = 1 to n do
    fo_ofs.(id) <- fo_ofs.(id) + fo_ofs.(id - 1)
  done;
  let fi = Array.make fi_ofs.(n) 0 and fo = Array.make fo_ofs.(n) 0 in
  for id = n - 1 downto 0 do
    let fanins = (Nl.node net id).Nl.fanins in
    for i = arity.(id) - 1 downto 0 do
      let f = fanins.(i) in
      fi.(fi_ofs.(id) + i) <- f;
      fo_ofs.(f) <- fo_ofs.(f) - 1;
      fo.(fo_ofs.(f)) <- id
    done
  done;
  (* The settled response to all-false inputs, each node evaluated as
     [Netlist.eval_words] evaluates it; a constant, never queued, keeps
     its column for this. *)
  let canonical = Array.make n 0 in
  for id = 0 to n - 1 do
    if not (Nl.is_input net id) then
      canonical.(id) <-
        Tt.eval_column_words ~arity:arity.(id) ~lo:lo.(id) ~hi:hi.(id)
          canonical fi fi_ofs.(id)
  done;
  {
    inputs = Nl.inputs net;
    arity;
    lo;
    hi;
    fi_ofs;
    fi;
    fo_ofs;
    fo;
    canonical;
    values = Array.make n 0;
    toggles = Array.make n 0;
    cyc_or = Array.make n 0;
    touched = Array.make n 0;
    queued = Array.make n (-1);
    queue = Array.make n 0;
    changed = Array.make n 0;
    new_vals = Array.make n 0;
  }

(* Apply the input words at t = 0 and settle the network; returns the
   glitch transitions of this cycle.  [gen] is the last generation
   number used (strictly increasing across calls, so [queued] never
   needs clearing); the new last one is stored back.  The inner loops
   skip bounds checks: every id comes from the network (< n), and the
   queue and the change list hold each node at most once per step. *)
let settle e ~gen (assignment : int array) =
  let values = e.values and queued = e.queued and queue = e.queue in
  let changed = e.changed and new_vals = e.new_vals in
  let toggles = e.toggles and cyc_or = e.cyc_or in
  let fo_ofs = e.fo_ofs and fo = e.fo in
  let n_changed = ref 0 in
  for k = 0 to Array.length e.inputs - 1 do
    let id = e.inputs.(k) in
    if assignment.(k) <> values.(id) then begin
      changed.(!n_changed) <- id;
      new_vals.(!n_changed) <- assignment.(k);
      incr n_changed
    end
  done;
  let trans = ref 0 and n_touched = ref 0 and g = ref !gen in
  while !n_changed > 0 do
    (* Phase 2 of step t (the inputs at t = 0): commit all changes,
       count them, queue the fanouts for step t + 1. *)
    incr g;
    let n_queued = ref 0 in
    for i = 0 to !n_changed - 1 do
      let id = Array.unsafe_get changed i in
      let nv = Array.unsafe_get new_vals i in
      let diff = nv lxor Array.unsafe_get values id in
      Array.unsafe_set values id nv;
      let count = Bits.popcount diff in
      Array.unsafe_set toggles id (Array.unsafe_get toggles id + count);
      trans := !trans + count;
      let seen = Array.unsafe_get cyc_or id in
      if seen = 0 then begin
        Array.unsafe_set e.touched !n_touched id;
        incr n_touched
      end;
      Array.unsafe_set cyc_or id (seen lor diff);
      let last_fo = Array.unsafe_get fo_ofs (id + 1) - 1 in
      for j = Array.unsafe_get fo_ofs id to last_fo do
        let f = Array.unsafe_get fo j in
        if Array.unsafe_get queued f <> !g then begin
          Array.unsafe_set queued f !g;
          Array.unsafe_set queue !n_queued f;
          incr n_queued
        end
      done
    done;
    (* Phase 1 of step t + 1: evaluate every queued node against the
       values as they stood when the step opened. *)
    n_changed := 0;
    for i = 0 to !n_queued - 1 do
      let id = Array.unsafe_get queue i in
      let nv =
        Tt.eval_column_words ~arity:(Array.unsafe_get e.arity id)
          ~lo:(Array.unsafe_get e.lo id) ~hi:(Array.unsafe_get e.hi id)
          values e.fi (Array.unsafe_get e.fi_ofs id)
      in
      if nv <> Array.unsafe_get values id then begin
        Array.unsafe_set changed !n_changed id;
        Array.unsafe_set new_vals !n_changed nv;
        incr n_changed
      end
    done
  done;
  gen := !g;
  let glitches = ref !trans in
  for i = 0 to !n_touched - 1 do
    let id = e.touched.(i) in
    glitches := !glitches - Bits.popcount cyc_or.(id);
    cyc_or.(id) <- 0
  done;
  !glitches

let run ?(config = default_config) (elab : Elaborate.t) ~network =
  Telemetry.time "sim.run" @@ fun () ->
  let h = make_harness elab ~network ~config ~fill:0 in
  let e = flatten network in
  let n = Nl.num_nodes network in
  let lanes = Bits.lanes in
  let regs_w =
    Array.init (max h.n_regs 1) (fun _ -> Array.make (max h.width 1) 0)
  in
  let glitches = ref 0 in
  let cycles = ref 0 in
  let gen = ref 0 in
  let batches = (config.vectors + lanes - 1) / lanes in
  for batch = 0 to batches - 1 do
    let base = batch * lanes in
    let active = min lanes (config.vectors - base) in
    let active_mask = Bits.mask_lanes active in
    (* Per-vector independence, word form: every lane starts from the
       canonical state, registers all zero. *)
    Array.blit e.canonical 0 e.values 0 n;
    Array.iter (fun w -> Array.fill w 0 (Array.length w) 0) regs_w;
    List.iter
      (fun (k, r) ->
        let w = regs_w.(r) in
        for bit = 0 to h.width - 1 do
          let packed = ref 0 in
          for l = 0 to active - 1 do
            if h.streams.(((base + l) * h.n_inputs) + k) land (1 lsl bit) <> 0
            then
              packed := !packed lor (1 lsl l)
          done;
          w.(bit) <- !packed
        done)
      h.dp.Datapath.input_regs;
    for step = 0 to h.n_steps - 1 do
      for r = 0 to h.n_regs - 1 do
        Elaborate.set_reg_words elab h.assignment ~reg:r ~words:regs_w.(r)
      done;
      Elaborate.set_controls_words elab h.assignment ~step ~mask:active_mask;
      glitches := !glitches + settle e ~gen h.assignment;
      cycles := !cycles + active;
      let loads = h.dp.Datapath.ctrl.(step).Datapath.reg_load in
      Array.iteri
        (fun r load ->
          match load with
          | Some _ ->
              let ids = h.out_ids.(r) in
              if Array.length ids = 0 then
                failwith "Sim.run: load from unwritten register"
              else begin
                let w = regs_w.(r) in
                for bit = 0 to h.width - 1 do
                  w.(bit) <- e.values.(ids.(bit)) land active_mask
                done
              end
          | None -> ())
        loads
    done;
    if config.check then
      for l = 0 to active - 1 do
        check_vector h ~vec:(base + l) (fun r ->
            let got = ref 0 in
            let w = regs_w.(r) in
            for bit = 0 to h.width - 1 do
              if (w.(bit) lsr l) land 1 = 1 then got := !got lor (1 lsl bit)
            done;
            !got)
      done
  done;
  let total_toggles = Array.fold_left ( + ) 0 e.toggles in
  Telemetry.incr c_runs;
  Telemetry.add c_vectors config.vectors;
  Telemetry.add c_cycles !cycles;
  Telemetry.add c_toggles total_toggles;
  Telemetry.add c_glitches !glitches;
  {
    node_toggles = e.toggles;
    total_toggles;
    glitch_toggles = !glitches;
    cycles = !cycles;
    num_signals = Nl.num_nodes network;
  }
