(** Switching-activity models of §4 of the paper.

    Two estimators are provided:

    - {!najm_density} — Najm's transition-density propagation (Eq. 1):
      [s(y) = sum_i P(dy/dx_i) * s(x_i)].  Simple, but blind to
      simultaneous switching, so it over-counts when correlated inputs
      toggle in the same cycle.

    - {!of_table} — the Chou-Roy model (Eq. 2) used by GlitchMap and by
      this paper: [s(y) = 2 * (P(y) - P(y(t) * y(t+T)))], where the joint
      two-time term is computed from a per-input joint distribution over
      [(x(t), x(t+T))] derived from each input's probability and
      normalized activity.  Split into a per-function {!entry} and a
      {!step}, it is the kernel the glitch-aware {!Timed} estimator
      invokes once per discrete time step.

    A signal's [activity] is its normalized switching activity: the
    probability of a transition across one unit time period (so values lie
    in [0, 1]; a free-running clock-like input would be 1). *)

type signal = {
  prob : float;  (** signal probability P, in [0, 1] *)
  activity : float;  (** normalized switching activity s, in [0, 1] *)
}

(** The paper's primary-input assumption: P = 0.5, s = 0.5. *)
val default_input : signal

(** [signal ~prob ~activity] checks ranges and the consistency constraint
    [s <= 2 * min(P, 1-P)] (clamping [activity] down when violated by
    rounding) and builds a signal.
    @raise Invalid_argument if [prob] or [activity] is outside [0, 1]. *)
val signal : prob:float -> activity:float -> signal

(** [clamp_activities probs activities n] replaces each of the first [n]
    [activities.(i)] with the activity of [signal ~prob:probs.(i)
    ~activity:activities.(i)], in place and in index order, so a caller
    clamps a step's inputs without building records.
    @raise Invalid_argument as {!signal} does, at the first bad input. *)
val clamp_activities : float array -> float array -> int -> unit

(** [of_table f inputs] is the Eq. 2 switching activity and probability of
    node [y = f(inputs)] under simultaneous-switching-aware propagation:
    one {!step} of a fresh {!entry} of [f], with probability
    [prob (entry f) probs].
    @raise Invalid_argument if [Array.length inputs <> arity f]. *)
val of_table : Hlp_netlist.Truth_table.t -> signal array -> signal

(** The Eq. 2 kernel's tables for one function, for repeated use, as
    the timed model evaluates a node once per time step and the mapper
    prices many cuts of one cone function: the on-set, the ones, and
    per mask of moving inputs the pairs of ones a step visits, in
    visiting order, each table built on first use.  An entry carries
    scratch buffers, so one entry is used by one domain at a time. *)
type entry

(** [entry f] is [f]'s entry, with no pair table built yet. *)
val entry : Hlp_netlist.Truth_table.t -> entry

(** [arity e] is the arity of [e]'s function. *)
val arity : entry -> int

(** [prob e probs] is [Prob.of_table f probs] for [e]'s function [f],
    bit for bit, computed in [e]'s buffer: it allocates only the
    returned float.
    @raise Invalid_argument if [Array.length probs <> arity e]. *)
val prob : entry -> float array -> float

(** [step e ~p probs activities out at] writes to [out.(at)] the
    activity {!of_table} returns for inputs with probabilities [probs]
    and activities [activities] (the first [arity e] entries of each),
    [p] being [prob e] of those probabilities.  The pair sum is one pass
    over the pair table of the moving inputs (or of all inputs when a
    joint probability is out of range or NaN), with the full double
    loop's float operations in the same order: each product stops at
    its first zero factor, and the only products left out are exactly
    zero because the two minterms differ on an input with zero
    activity.  Writing the result to an array slot keeps it unboxed
    across the call; once its pair table is built, a step allocates
    nothing. *)
val step :
  entry -> p:float -> float array -> float array -> float array -> int ->
  unit

(** [najm_density f inputs] is the Eq. 1 transition density of [y]. *)
val najm_density : Hlp_netlist.Truth_table.t -> signal array -> float

(** [propagate t ~input] runs {!of_table} over a whole netlist in
    topological order ("zero-delay" model: every node switches once per
    cycle, no glitches).  [input k] is the signal of the [k]-th primary
    input. *)
val propagate :
  Hlp_netlist.Netlist.t -> input:(int -> signal) -> signal array

(** [total t signals] sums activity over logic nodes (inputs excluded) —
    the zero-delay analog of Eq. 3. *)
val total : Hlp_netlist.Netlist.t -> signal array -> float
