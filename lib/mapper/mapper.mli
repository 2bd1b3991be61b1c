(** Glitch-aware FPGA technology mapping (GlitchMap [6], §4 of the paper).

    Maps a gate-level netlist onto K-input LUTs.  For every logic node the
    enumerated K-feasible cuts are priced by the {e effective switching
    activity} the LUT output would exhibit under the unit-delay timed model
    — the sum over discrete time steps of the Eq. 2 activity, which counts
    both the functional transition and the glitches caused by unequal leaf
    arrival times.  The best (lowest-SA, then lowest-depth, then smallest)
    cut is selected per node, and a cover is extracted backwards from the
    primary outputs.  The total estimated switching activity of the mapping
    is Eq. 3: the sum of effective SA over the selected LUTs.

    The mapping objective can be flipped to depth-first ({!Min_depth}) for
    the ablation comparing a conventional performance-driven mapper with
    the glitch-aware one. *)

module Nl = Hlp_netlist.Netlist

type objective =
  | Min_sa  (** lowest effective SA, depth as tie-break (GlitchMap) *)
  | Min_depth  (** lowest depth, SA as tie-break (conventional) *)

(** One selected LUT: [root] is implemented as a K-input LUT reading the
    (mapped) [leaves], computing [func] (arity = number of leaves). *)
type lut = {
  root : Nl.node_id;
  leaves : Nl.node_id array;
  func : Hlp_netlist.Truth_table.t;
}

type t = {
  source : Nl.t;  (** the netlist that was mapped *)
  luts : lut array;  (** selected cover, topological order *)
  lut_network : Nl.t;  (** the LUT-level netlist (inputs = source inputs) *)
  total_sa : float;
      (** Eq. 3: the effective SA of the selected LUTs' waveforms, summed
          in [luts] order.  Bit-identical to [Timed.summarize] of a
          unit-delay [Timed.propagate] over [lut_network] with the same
          [input], which the mapper does not run. *)
  functional_sa : float;  (** non-glitch component of [total_sa] *)
  glitch_sa : float;  (** [total_sa -. functional_sa] *)
  depth : int;  (** LUT levels on the critical path *)
  lut_count : int;  (** number of LUTs in the cover *)
}

(** [map t ~k] maps [t] onto [k]-input LUTs, keeping 8 cuts per node in
    one {!Cut.store}, which the selection reads in place.  A cut's
    waveform is a function of its cone's table and its leaves'
    waveforms, so each distinct (table, leaf waveforms) pair is priced
    once per call, by one [Switching.entry] per distinct cone function
    and one [Timed.scratch]; all of that state lives in the call, so
    calls on several domains at once share nothing.

    @param objective selection policy; default {!Min_sa}.
    @param input per-primary-input signal statistics; defaults to the
    paper's P = 0.5, s = 0.5.
    @raise Invalid_argument on bad [k] (see {!Cut.enumerate}). *)
val map :
  ?objective:objective ->
  ?input:(int -> Hlp_activity.Switching.signal) ->
  Nl.t -> k:int -> t

(** [check_cover m] validates structural soundness of the cover: every
    primary output is implemented, every LUT leaf is a primary input, a
    constant, or another LUT root, and LUT functions match the source
    semantics on random vectors.  @raise Failure on violation (tests). *)
val check_cover : t -> unit
