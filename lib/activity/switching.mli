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
      normalized activity.  This is the kernel invoked once per discrete
      time step by the glitch-aware {!Timed} estimator.

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
    @raise Invalid_argument if [Array.length inputs <> arity f]. *)
val of_table : Hlp_netlist.Truth_table.t -> signal array -> signal

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
