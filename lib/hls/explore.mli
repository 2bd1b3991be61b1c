(** Design-space exploration on top of the binding flow.

    The paper's §7 envisions HLPower inside a complete HLS system that
    also chooses schedules and modules.  This module provides that outer
    loop: sweep the resource constraints (allocation), the Eq. 4 [alpha],
    and optionally module selection; run the full evaluation flow at each
    point; and report the Pareto frontier over (latency, dynamic power,
    LUTs).  Deterministic like everything else, so sweeps are
    reproducible. *)

module Cdfg = Hlp_cdfg.Cdfg

(** One evaluated design point. *)
type point = {
  add_units : int;
  mult_units : int;
  alpha : float;
  csteps : int;  (** schedule length *)
  latency_ns : float;  (** csteps x clock period *)
  clock_ns : float;
  regs : int;
  luts : int;
  power_mw : float;
  toggle_mhz : float;
}

val pp_point : Format.formatter -> point -> unit

(** Sweep configuration. *)
type config = {
  vectors : int;  (** simulation vectors per point (default 60) *)
  add_range : int list;  (** adder-class allocations to try *)
  mult_range : int list;  (** multiplier allocations to try *)
  alphas : float list;  (** Eq. 4 weightings to try *)
}

(** Allocations 1/2/4 on both classes, alpha in {1.0, 0.5}. *)
val default_config : config

(** [sweep ?config ~sa_table cdfg] evaluates every combination
    (infeasible points — e.g. an allocation below a forced density — are
    skipped) at the datapath width and LUT size of [sa_table].  Every
    HLPower bind reads [sa_table], so a caller that keeps one warm table
    per width (the daemon's router does) pays its fill once, not once
    per sweep.  Grid cells are evaluated in parallel
    across the {!Hlp_util.Pool} worker count ([HLP_JOBS]); every point
    derives from its own per-design RNG seed, so the returned list is
    bit-identical whatever the worker count, in the (add, mult, alpha)
    order of the sequential loops. *)
val sweep :
  ?config:config -> sa_table:Hlp_core.Sa_table.t -> Cdfg.t -> point list

(** [pareto points] keeps the points not dominated on
    (latency_ns, power_mw, luts) — all minimized.  Order follows the
    input. *)
val pareto : point list -> point list
