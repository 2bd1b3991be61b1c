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

    A node's busy control steps and its two source-register sets are
    fixed-width int bitsets, sized once per bind from
    [Schedule.num_csteps] and {!Reg_binding.num_regs}.  Two nodes are
    compatible when their busy words AND to zero, and a merge's mux
    sizes are the popcounts of the ORed register words.  Each class
    prices its merges from a grid indexed by (left, right) mux size, at
    most the class's distinct source registers per port; a cell is
    filled from {!Sa_table.lookup} on first use, by the same expression
    as {!edge_weight}, so a bind looks each distinct key up once and the
    matching sees the same weights, bit for bit, as when every edge is
    priced afresh.

    For multi-cycle libraries Theorem 1 gives no guarantee; when an
    iteration cannot merge anything but the constraint is still unmet, a
    [V]-node is promoted into [U] (allocating one more unit, mirroring the
    paper's observation that the algorithm "is nonetheless effective in
    most cases"), and binding fails only if promotion exhausts [V] while
    exceeding the constraint.

    {2 Resumable rounds and binder state}

    The iteration is exposed as explicit rounds over persistent
    {!Rounds.class_state} values (seed, matching round, fallback round),
    and {!bind} accepts an optional {!state} — a binder-lifetime memo of
    Eq. 4 evaluations (keyed by class and the exact merged source-register
    sets) and of whole per-class results (keyed by everything a class run
    consumes: op intervals, operand registers, alpha, beta, the SA-table
    identity and the resource bound).  Reuse happens only on exact key
    equality, so a bind resumed from a warm state is bit-identical to a
    from-scratch bind of the same inputs — the property the incremental
    session layer of the daemon builds on. *)

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

(** Persistent binder state: memoized Eq. 4 evaluations keyed by
    (class, merged left-source set, merged right-source set, alpha, beta,
    SA-table identity) plus memoized whole per-class results.  A set is
    keyed by its bitset words without trailing zero words, so a state
    carried across binds with different register counts still hits on
    equal sets.  Hits and
    misses of both memos are counted process-wide, in the
    [hlpower.memo_weight_hits], [_weight_misses], [_class_hits] and
    [_class_misses] telemetry counters.  Not thread-safe — guard with a
    mutex when shared (the router holds one per session). *)
type state

val create_state : unit -> state

(** [bind ?state ~params ~sa_table ~regs ~resources schedule] runs
    Algorithm 1.  With [?state], Eq. 4 evaluations and whole per-class
    runs are memoized in (and replayed from) the given binder state; the
    result is bit-identical to a stateless bind of the same inputs.
    @raise Failure if the constraint is unreachable (multi-cycle only) or
    some class has a bound below its schedule density. *)
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

(** The iterated matching as explicit resumable rounds.  {!bind} is
    exactly: seed each class, apply {!Rounds.matching_round} while the
    unit count exceeds the bound and ops are pending, then
    {!Rounds.fallback_round} while over the bound, then first-fit
    packing.  Exposed so tests and interactive tooling can run, pause and
    inspect the iteration.  {!bind} prices all of a class's rounds from
    one weight grid; each round called here fills a grid of its own,
    with the same weights. *)
module Rounds : sig
  (** In-flight binding of one class; values are persistent, each round
      returns a fresh state. *)
  type class_state

  (** [seed ~schedule ~regs cls] partitions the class's ops into the
      peak-step seeds (U) and the pending set (V); [None] if the class
      has no ops. *)
  val seed :
    schedule:Schedule.t -> regs:Reg_binding.t -> Cdfg.fu_class ->
    class_state option

  (** Prospective unit count, |U| + |V|. *)
  val units : class_state -> int

  (** Pending (not yet absorbed) ops, |V|. *)
  val pending : class_state -> int

  val iterations : class_state -> int
  val promoted : class_state -> int

  (** One iterated-matching round: solve the U-V bipartite graph and
      merge every matched pair, or promote the earliest V node when
      nothing can merge (multi-cycle case).
      @raise Invalid_argument if no ops are pending. *)
  val matching_round :
    ?state:state ->
    params:params ->
    sa_table:Sa_table.t ->
    class_state ->
    class_state

  (** One fallback round: merge the best compatible pair of allocated
      units (Eq. 4-priced, tie-broken on the canonical op-id pair so the
      choice is independent of U's assembly order), or [None] when no
      compatible pair remains. *)
  val fallback_round :
    ?state:state ->
    params:params ->
    sa_table:Sa_table.t ->
    class_state ->
    class_state option

  (** The functional-unit groups of the current state (remaining V nodes
      become their own units). *)
  val groups : class_state -> (Cdfg.fu_class * int list) list
end
