(** Simulation-free activity and glitch analysis of a LUT netlist.

    One topological sweep propagates, per net:

    - signal probability [P] ({!Hlp_activity.Prob}, §4 of the paper);
    - a glitch-aware toggle estimate from the unit-delay waveform model
      ({!Hlp_activity.Timed}, the GlitchMap kernel): per discrete
      arrival time a Chou-Roy evaluation (Eq. 2) fed only the activity
      each fanin exhibits at that time, so simultaneous arrivals cancel
      and staggered arrivals glitch; the last waveform step is the
      functional transition, earlier ones are glitches, and the glitch
      component is scaled by a calibration gain before entering the
      toggle total;
    - transition density via Najm's Boolean-difference propagation
      ({!Hlp_activity.Switching.najm_density}, Eq. 1) with per-cycle
      input densities — the simultaneity-blind upper envelope the
      A-rule density budget checks against;
    - a structural arrival-level window [[min_arrival, max_arrival]]
      (unit-delay levels: inputs arrive at 0, a node one level after
      its fanins).  The spread [max_arrival - min_arrival] bounds the
      glitches a node can emit per cycle (it changes at most once per
      time bucket, only inside its window); a spread of zero means all
      paths are balanced and no glitch is possible — the paper's
      unequal-arrival glitch mechanism.

    Everything is per clock cycle; multiply by simulated cycles to
    compare against {!Hlp_rtl.Sim} toggle counts.  All estimates assume
    spatial independence of fanins — {!reconvergent} marks the nets
    where that assumption degrades. *)

(** Statistics of one primary input: its Chou-Roy signal (probability +
    zero-delay activity) and its transition density per cycle.  Inputs
    change at most once per cycle, so [density] is in [0, 1] and equals
    [signal.activity] unless the caller models input glitching. *)
type input = {
  signal : Hlp_activity.Switching.signal;
  density : float;
}

(** The paper's default assumption: P = 0.5, s = 0.5, density 0.5. *)
val default_input : input

(** [input ~prob ~activity ~density] range-checks and builds an input
    (via {!Hlp_activity.Switching.signal}, which clamps [activity] to
    the [s <= 2 min(P, 1-P)] consistency bound; [density] is raised to
    the clamped activity if below it).
    @raise Invalid_argument on out-of-range values. *)
val input : prob:float -> activity:float -> density:float -> input

type node_info = {
  prob : float;  (** signal probability *)
  functional : float;  (** functional (last-arrival) transitions/cycle *)
  density : float;  (** Najm transition density per cycle (Eq. 1) *)
  toggles : float;
      (** glitch-aware toggle estimate per cycle:
          [functional + glitch_gain * waveform glitch activity]; with
          the default gain,
          [functional <= toggles <= functional + spread] *)
  min_arrival : int;  (** earliest unit-delay level the net can change *)
  max_arrival : int;  (** latest unit-delay level the net can change *)
}

(** [spread i] is [i.max_arrival - i.min_arrival] — the glitch capacity
    of the net in transitions per cycle. *)
val spread : node_info -> int

(** [glitch i] is [i.toggles -. i.functional] — the estimated glitch
    transitions per cycle. *)
val glitch : node_info -> float

type t

val default_glitch_gain : float

(** [analyze ?glitch_gain net ~input] runs the sweep; [input k]
    describes the [k]-th primary input (index into [Netlist.inputs]).
    [glitch_gain] (default {!default_glitch_gain}) scales the glitch
    term before it is added to the functional activity.
    @raise Invalid_argument if [glitch_gain < 0]. *)
val analyze :
  ?glitch_gain:float -> Hlp_netlist.Netlist.t -> input:(int -> input) -> t

val net : t -> Hlp_netlist.Netlist.t
val glitch_gain : t -> float

(** [info t] is the per-node-id analysis result.  The sweep keeps its
    results in flat arrays, so each call boxes a fresh array of
    [num_nodes] records: call it once per analysis, not per node. *)
val info : t -> node_info array

(** [node_toggles t] is the per-node-id toggle estimate per cycle —
    the static analog of [Sim.result.node_toggles / cycles]. *)
val node_toggles : t -> float array

(** [total_toggles t] sums {!node_toggles} over every node, primary
    inputs included — the static analog of
    [Sim.result.total_toggles / cycles]. *)
val total_toggles : t -> float

(** [glitch_toggles t] sums the glitch estimate over every node — the
    static analog of [Sim.result.glitch_toggles / cycles]. *)
val glitch_toggles : t -> float

(** [reconvergent net] marks, per node id, the reconvergence points:
    nodes two of whose (function-supported) fanin cones share a primary
    input.  On a tree netlist the result is all-[false] and the
    probability propagation is exact; at and downstream of [true] nodes
    the independence assumption degrades. *)
val reconvergent : Hlp_netlist.Netlist.t -> bool array
