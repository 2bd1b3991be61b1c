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
   makes "both engines see identical vectors" true by construction. *)
let vector_stream ~seed ~vectors ~num_inputs ~mask =
  let rng = Rng.create seed in
  let vs = Array.make_matrix vectors num_inputs 0 in
  for v = 0 to vectors - 1 do
    for k = 0 to num_inputs - 1 do
      vs.(v).(k) <- Rng.int rng (mask + 1)
    done
  done;
  vs

(* --- shared harness ------------------------------------------------ *)

(* Everything the schedule walk needs, independent of the value
   representation (bool per signal vs word per signal). *)
type 'a harness = {
  dp : Datapath.t;
  n_steps : int;
  n_regs : int;
  width : int;
  streams : int array array;  (* [vector].[input]: the shared stream *)
  out_ids : int array array;  (* per written reg, per bit: output node id *)
  assignment : 'a array;  (* one slot per network primary input *)
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
  {
    dp;
    n_steps = Array.length dp.Datapath.ctrl;
    n_regs;
    width;
    streams =
      vector_stream ~seed:config.seed ~vectors:config.vectors
        ~num_inputs:(Cdfg.num_inputs cdfg) ~mask;
    out_ids;
    assignment = Array.make (Array.length (Nl.inputs network)) fill;
  }

let check_output h ~vec name got want =
  if got <> want then
    failwith
      (Printf.sprintf "Sim.run: output %s = %d, golden model says %d (vector %d)"
         name got want vec);
  ignore h

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
    let pis = h.streams.(vec) in
    List.iter (fun (k, r) -> reg_values.(r) <- pis.(k)) h.dp.Datapath.input_regs;
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
    if config.check then begin
      let expect = Datapath.golden_eval h.dp pis in
      List.iter2
        (fun (name, want) (name', r) ->
          assert (name = name');
          check_output h ~vec:(vec + 1) name reg_values.(r) want)
        expect h.dp.Datapath.output_regs
    end
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
   OR of a cycle's diff words identifies the lanes that toggled at all —
   [transitions - popcount(or)] is exactly the scalar engine's
   [max 0 (cycle_toggles - 1)] summed over lanes.

   Inactive lanes (the tail batch) idle at the canonical state: the
   canonical values are a fixpoint of the network, inputs are masked to
   the active lanes, so inactive lanes never produce a diff. *)
type word_state = {
  wnet : Nl.t;
  wvalues : int array;
  wcanonical : int array;  (* canonical value broadcast: -1 / 0 per node *)
  wfanouts : int array array;
  wtoggles : int array;
  cyc_trans : int array;  (* transitions this cycle, summed over lanes *)
  cyc_or : int array;  (* OR of this cycle's diff words *)
  wtouched : int list ref;
  wbuckets : int array array;
  wbucket_fill : int array;
  wstamped : int array;
  wchanged : int array;  (* scratch: ids changing in the current bucket *)
  wnew_vals : int array;  (* scratch: their new words, same index *)
  wmax_time : int;
}

let create_word net canonical =
  let n = Nl.num_nodes net in
  let max_time = Nl.max_depth net + 1 in
  {
    wnet = net;
    wvalues = Array.make n 0;
    wcanonical = Array.init n (fun id -> if canonical.(id) then -1 else 0);
    wfanouts = Nl.fanouts net;
    wtoggles = Array.make n 0;
    cyc_trans = Array.make n 0;
    cyc_or = Array.make n 0;
    wtouched = ref [];
    wbuckets = Array.init (max_time + 2) (fun _ -> Array.make 16 0);
    wbucket_fill = Array.make (max_time + 2) 0;
    wstamped = Array.make n (-1);
    wchanged = Array.make (max n 1) 0;
    wnew_vals = Array.make (max n 1) 0;
    wmax_time = max_time;
  }

let eval_node_words e id =
  let node = Nl.node e.wnet id in
  Tt.eval_words_at node.Nl.func e.wvalues node.Nl.fanins

let record_toggle_words e id diff =
  let count = Bits.popcount diff in
  e.wtoggles.(id) <- e.wtoggles.(id) + count;
  if e.cyc_trans.(id) = 0 then e.wtouched := id :: !(e.wtouched);
  e.cyc_trans.(id) <- e.cyc_trans.(id) + count;
  e.cyc_or.(id) <- e.cyc_or.(id) lor diff

let settle_words e ~epoch (assignment : int array) =
  let inputs = Nl.inputs e.wnet in
  let stamp_base = epoch * (e.wmax_time + 2) in
  Array.fill e.wbucket_fill 0 (Array.length e.wbucket_fill) 0;
  Array.iteri
    (fun k id ->
      let nw = assignment.(k) in
      let diff = nw lxor e.wvalues.(id) in
      if diff <> 0 then begin
        e.wvalues.(id) <- nw;
        record_toggle_words e id diff;
        Array.iter
          (fun fo ->
            if e.wstamped.(fo) <> stamp_base + 1 then begin
              e.wstamped.(fo) <- stamp_base + 1;
              enqueue e.wbuckets e.wbucket_fill 1 fo
            end)
          e.wfanouts.(id)
      end)
    inputs;
  let t = ref 1 in
  while !t <= e.wmax_time + 1 do
    let fill = e.wbucket_fill.(!t) in
    if fill > 0 then begin
      let bucket = e.wbuckets.(!t) in
      let n_changed = ref 0 in
      for i = 0 to fill - 1 do
        let id = bucket.(i) in
        let nv = eval_node_words e id in
        if nv <> e.wvalues.(id) then begin
          e.wchanged.(!n_changed) <- id;
          e.wnew_vals.(!n_changed) <- nv;
          incr n_changed
        end
      done;
      let next = min (!t + 1) (e.wmax_time + 1) in
      for i = 0 to !n_changed - 1 do
        let id = e.wchanged.(i) in
        let nv = e.wnew_vals.(i) in
        let diff = nv lxor e.wvalues.(id) in
        e.wvalues.(id) <- nv;
        record_toggle_words e id diff;
        Array.iter
          (fun fo ->
            if e.wstamped.(fo) <> stamp_base + next then begin
              e.wstamped.(fo) <- stamp_base + next;
              enqueue e.wbuckets e.wbucket_fill next fo
            end)
          e.wfanouts.(id)
      done;
      e.wbucket_fill.(!t) <- 0
    end;
    incr t
  done;
  let glitches =
    List.fold_left
      (fun acc id -> acc + (e.cyc_trans.(id) - Bits.popcount e.cyc_or.(id)))
      0 !(e.wtouched)
  in
  List.iter
    (fun id ->
      e.cyc_trans.(id) <- 0;
      e.cyc_or.(id) <- 0)
    !(e.wtouched);
  e.wtouched := [];
  glitches

let run ?(config = default_config) (elab : Elaborate.t) ~network =
  Telemetry.time "sim.run" @@ fun () ->
  let h = make_harness elab ~network ~config ~fill:0 in
  (* The canonical all-false steady state, shared with the oracle. *)
  let canonical = (create_scalar network).values in
  let e = create_word network canonical in
  let n = Nl.num_nodes network in
  let lanes = Bits.lanes in
  let regs_w =
    Array.init (max h.n_regs 1) (fun _ -> Array.make (max h.width 1) 0)
  in
  let glitches = ref 0 in
  let cycles = ref 0 in
  let epoch = ref 0 in
  let batches = (config.vectors + lanes - 1) / lanes in
  for batch = 0 to batches - 1 do
    let base = batch * lanes in
    let active = min lanes (config.vectors - base) in
    let active_mask = Bits.mask_lanes active in
    (* Per-vector independence, word form: every lane starts from the
       canonical state, registers all zero. *)
    Array.blit e.wcanonical 0 e.wvalues 0 n;
    Array.iter (fun w -> Array.fill w 0 (Array.length w) 0) regs_w;
    List.iter
      (fun (k, r) ->
        let w = regs_w.(r) in
        for bit = 0 to h.width - 1 do
          let packed = ref 0 in
          for l = 0 to active - 1 do
            if h.streams.(base + l).(k) land (1 lsl bit) <> 0 then
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
      glitches := !glitches + settle_words e ~epoch:!epoch h.assignment;
      incr epoch;
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
                  w.(bit) <- e.wvalues.(ids.(bit)) land active_mask
                done
              end
          | None -> ())
        loads
    done;
    if config.check then
      for l = 0 to active - 1 do
        let pis = h.streams.(base + l) in
        let expect = Datapath.golden_eval h.dp pis in
        List.iter2
          (fun (name, want) (name', r) ->
            assert (name = name');
            let got = ref 0 in
            let w = regs_w.(r) in
            for bit = 0 to h.width - 1 do
              if (w.(bit) lsr l) land 1 = 1 then got := !got lor (1 lsl bit)
            done;
            check_output h ~vec:(base + l + 1) name !got want)
          expect h.dp.Datapath.output_regs
      done
  done;
  let total_toggles = Array.fold_left ( + ) 0 e.wtoggles in
  Telemetry.incr c_runs;
  Telemetry.add c_vectors config.vectors;
  Telemetry.add c_cycles !cycles;
  Telemetry.add c_toggles total_toggles;
  Telemetry.add c_glitches !glitches;
  {
    node_toggles = e.wtoggles;
    total_toggles;
    glitch_toggles = !glitches;
    cycles = !cycles;
    num_signals = Nl.num_nodes network;
  }
