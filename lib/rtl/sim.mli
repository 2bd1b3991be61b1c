(** Cycle-accurate, glitch-accurate simulation of a bound datapath.

    The substitute for Quartus II's simulator (and the source of the
    toggle data the paper feeds to PowerPlay): random input vectors drive
    the design through its full schedule; within each clock cycle, events
    propagate through the combinational network under a unit delay per
    node (LUT), with {e no glitch filtering} — matching the paper's
    "glitch filtering = never" setting — so unequal path delays produce
    counted spurious transitions.  Every signal transition, functional or
    glitch, increments that signal's toggle counter.

    {2 Engines}

    {!run} is the bit-parallel engine: one machine word per signal,
    packing [Sys.int_size] vectors into the lanes of each word.  It
    flattens the network once per run — fanins and fanouts as flat
    (CSR) arrays, LUT columns as native ints — and evaluates each
    node lane-wise with {!Hlp_netlist.Truth_table.eval_column_words}
    (per-arity multiplexer trees; Shannon recursion for 5 and 6
    inputs).  Events only move from one unit-delay step to the next,
    so two buffers alternate between the changes of step [t] and the
    queue of step [t + 1].  Per-node toggle counts are popcounts of
    the XOR between successive word values; the tail batch masks its
    unused lanes, which idle at the network's canonical
    (all-false-input) state.

    {!run_scalar} is the reference oracle the test suite holds {!run}
    to: one boolean per signal, one vector at a time, and no other
    caller.  The two are
    {e bit-identical} — same [node_toggles], [glitch_toggles],
    [total_toggles] and [cycles] for every configuration.  This holds
    because simulation is per-vector independent and each unit-delay
    time step commits in two phases, so a node's value at time [t] is a
    pure function of the network values at [t - 1] — exactly what
    lane-wise word evaluation computes.

    {2 Semantics}

    Vectors are independent: every vector starts from the canonical
    state — all registers 0, the network settled for the all-false input
    assignment — and runs the full schedule.  The reset between vectors
    is not a counted transition.  Within a cycle, a time bucket is
    evaluated against the values as they stood when the bucket opened
    and committed atomically (order-free two-phase semantics).

    {2 Vector stream contract}

    Both engines consume the same pseudo-random vector stream, generated
    once per run by {!vector_stream}: a single {!Hlp_util.Rng} generator
    created from [config.seed]; draws ordered vector-major, input-minor
    (vector 0 input 0, vector 0 input 1, ..., vector 1 input 0, ...);
    each draw [Rng.int rng (2^width)].  The stream is a pure function of
    [(seed, vectors, num_inputs, width)].

    The simulated network may be the raw gate netlist or (normally) the
    technology-mapped LUT network: both expose the same primary inputs
    and next-value outputs, and the simulator checks its end-of-schedule
    results against {!Datapath.golden_eval} to guard the whole
    HLS-to-netlist pipeline. *)

module Nl = Hlp_netlist.Netlist

type config = {
  vectors : int;  (** random input vectors (schedule executions) *)
  seed : string;  (** PRNG seed for the vector stream *)
  check : bool;  (** verify outputs against the golden CDFG evaluation *)
}

(** 1000 vectors (the paper's count), checked, fixed seed. *)
val default_config : config

type result = {
  node_toggles : int array;  (** per network node id *)
  total_toggles : int;
  glitch_toggles : int;
      (** transitions beyond the first per node per cycle — the measured
          glitch component *)
  cycles : int;  (** clock cycles simulated *)
  num_signals : int;  (** all nets: inputs + logic nodes *)
}

(** [vector_stream ~seed ~vectors ~num_inputs ~mask] materializes the
    shared input stream: [result.(v).(k)] is the value of primary input
    [k] in vector [v], drawn vector-major, input-minor as
    [Rng.int rng (mask + 1)] from one generator created with [seed].
    Both engines consume exactly this stream. *)
val vector_stream :
  seed:string -> vectors:int -> num_inputs:int -> mask:int ->
  int array array

(** [run ~config elab ~network] simulates with the bit-parallel engine.
    [network] must have the same primary-input order and output names as
    [elab]'s netlist (the raw netlist itself, or its mapped LUT network).
    @raise Failure if [config.check] is set and outputs diverge from the
    golden model. *)
val run : ?config:config -> Elaborate.t -> network:Nl.t -> result

(** [run_scalar] is the scalar oracle: same contract and same result as
    {!run}, one vector at a time. *)
val run_scalar : ?config:config -> Elaborate.t -> network:Nl.t -> result
