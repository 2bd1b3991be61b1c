(** HLPower functional-unit binding (Algorithm 1 and §5.2 of the paper).

    Functional-unit binding proceeds iteratively.  Before the first
    iteration, for every operation class the control step with the most
    active operations of that class is found; those operations seed the
    vertex set [U] — one (eventual) functional unit each — which is the
    provable lower bound on the allocation (Theorem 1 for single-cycle
    resources).  All remaining operations form [V].  Each iteration builds
    a weighted bipartite graph between [U] and [V] with an edge wherever a
    [V]-node's operations could share a functional unit with a [U]-node's
    (same class, no temporal overlap), weighs every edge with Eq. 4:

    {[ w = alpha * 1/SA + (1 - alpha) * 1/((muxDiff + 1) * beta) ]}

    — [SA] being the glitch-aware switching activity of the merged partial
    datapath ({!Sa_table}) and [muxDiff] the imbalance of the merged input
    multiplexers — solves it for a maximum-weight matching, and merges
    matched pairs.  Iteration stops once every class meets its resource
    constraint.

    {2 Representation}

    A node is a {!Fu_node.t}: its busy control steps and its two
    source-register sets are fixed-width int bitsets, so compatibility
    is a word-wise AND and a merge's mux sizes are popcounts.  Each
    class prices its merges from a grid indexed by (left, right) mux
    size, at most the class's distinct source registers per port; a cell
    is filled from {!Sa_table.lookup} on first use, by the same
    expression as {!edge_weight}, so a bind looks each distinct key up
    once and the matching sees the same weights, bit for bit, as when
    every edge is priced afresh.  Each round writes those weights into
    a dense {!Bipartite.workspace} (an incompatible pair is a zero
    cell), created once per bind and reused by every round of every
    class.

    For multi-cycle libraries Theorem 1 gives no guarantee; when an
    iteration cannot merge anything but the constraint is still unmet, a
    [V]-node is promoted into [U] (allocating one more unit, mirroring the
    paper's observation that the algorithm "is nonetheless effective in
    most cases").  If promotion exhausts [V] while the class is still
    over its bound, its ops are packed first fit in start order, which
    needs exactly the schedule's density.  No merge of two units of
    [U] is tried before that, because none can exist: the seeds share
    the peak step; a node is promoted only when the matching returned no
    pair, which with every weight positive means no edge, so it is
    incompatible with every unit of [U]; and merges only grow busy
    sets.  The units of [U] therefore stay pairwise incompatible.

    {2 Binder state}

    {!bind} accepts an optional {!state}: a binder-lifetime memo of whole
    per-class results, keyed by everything a class run consumes (op
    intervals, operand registers, alpha, beta, the SA-table identity and
    the resource bound).  Reuse happens only on exact key equality, so a
    bind from a warm state is bit-identical to a from-scratch bind of the
    same inputs — the property the incremental session layer of the
    daemon builds on.

    It holds no memo of single Eq. 4 weights: with every merge priced
    from the per-bind grid above, such a memo only added a hash lookup
    per edge and a heap that lived as long as the session. *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule

type params = {
  alpha : float;  (** Eq. 4 weighting; the paper evaluates 1.0 and 0.5 *)
  beta : Cdfg.fu_class -> float;
      (** Eq. 4 scale of the muxDiff term relative to 1/SA *)
}

(** alpha = 0.5; beta = 30 for adders, 1000 for multipliers (§5.2.2). *)
val default_params : params

(** [paper_beta] is the published beta schedule alone. *)
val paper_beta : Cdfg.fu_class -> float

(** Raised by {!calibrate} when the SA table cannot produce the (2,2)
    calibration entry (width-1 or K<2 libraries make the partial datapath
    unusable or unmappable).  Carries a human-readable description; the
    daemon maps it to the structured [S016] diagnostic instead of an
    internal-error reply. *)
exception Calibration_error of string

(** [calibrate ?alpha sa_table] rescales beta to this table's SA magnitudes
    (beta of a class = SA of its (2,2)-mux partial datapath), preserving
    the relative weighting the paper tuned empirically at its own datapath
    width.  [alpha] defaults to 0.5.
    @raise Calibration_error if the table cannot evaluate the (2,2)
    partial datapath. *)
val calibrate : ?alpha:float -> Sa_table.t -> params

type result = {
  binding : Binding.t;
  iterations : int;  (** number of bipartite graphs solved *)
  promoted : int;  (** extra units allocated beyond the lower bound *)
}

(** Persistent binder state: memoized whole per-class results.  Hits
    and misses are counted process-wide, in the
    [hlpower.memo_class_hits] and [hlpower.memo_class_misses] telemetry
    counters.  Not thread-safe — guard with a mutex when shared (the
    router holds one per session). *)
type state

val create_state : unit -> state

(** [bind ?state ~params ~sa_table ~regs ~resources schedule] runs
    Algorithm 1.  With [?state], whole per-class runs are memoized in
    (and replayed from) the given binder state; the result is
    bit-identical to a stateless bind of the same inputs.
    @raise Failure if some class has a bound below its schedule
    density. *)
val bind :
  ?state:state ->
  ?params:params ->
  sa_table:Sa_table.t ->
  regs:Reg_binding.t ->
  resources:(Cdfg.fu_class -> int) ->
  Schedule.t ->
  result

(** [edge_weight ~params ~sa_table ~binding-independent inputs] — exposed
    for tests: the Eq. 4 weight for a hypothetical merge with the given
    mux sizes. *)
val edge_weight :
  params:params ->
  sa_table:Sa_table.t ->
  cls:Cdfg.fu_class ->
  left:int ->
  right:int ->
  float
