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
      normalized activity.  Staged as {!of_table_staged}, it is the
      kernel the glitch-aware {!Timed} estimator invokes once per
      discrete time step.

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

(** [of_table f inputs] is the Eq. 2 switching activity and probability of
    node [y = f(inputs)] under simultaneous-switching-aware propagation.
    It is the one-step case of {!of_table_staged}: probability [p] and
    activity [step activities] of [of_table_staged f probs], with the
    inputs' [prob] and [activity] fields.
    @raise Invalid_argument if [Array.length inputs <> arity f]. *)
val of_table : Hlp_netlist.Truth_table.t -> signal array -> signal

(** [of_table_staged f probs] is the Eq. 2 kernel split for repeated
    use on one function with fixed input probabilities, as the timed
    model evaluates a node once per time step.  The first stage computes
    P(f) and the on-set of [f] once and returns [(p, step)];
    [step activities] is the activity [of_table] returns for inputs with
    probabilities [probs] and activities [activities], bit for bit: a
    step does the float operations of the full pair sum in the same
    order, leaving out only products that are exactly zero because the
    two minterms differ on an input with zero activity.  [step] reads
    [activities] and allocates no record, so a caller can step through
    time with one buffer; it writes a scratch buffer of the stage, so
    one stage is stepped by one domain at a time.
    @raise Invalid_argument if [probs] or [activities] has a length
    other than [arity f]. *)
val of_table_staged :
  Hlp_netlist.Truth_table.t -> float array -> float * (float array -> float)

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
