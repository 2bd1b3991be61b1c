(** Glitch-aware switching-activity estimation under the unit delay model
    (§4, following GlitchMap [6]).

    Each node is assigned an integer delay (1 for every gate or LUT by
    default).  Signal transitions happen only at discrete time steps: a
    node whose fanin switches at time [tau] may switch at time
    [tau + delay].  A node's {e waveform} records an estimated switching
    activity per discrete time step; the transition at the node's arrival
    time (the last step, [D(C)] in the paper) is the {e functional}
    transition and every earlier one is a {e glitch}.

    Per time step the activity is computed with the Chou-Roy Eq. 2 kernel
    ({!Switching.step}, the step of {!Switching.of_table}), feeding it
    only the activity that each fanin exhibits at the relevant step — so
    simultaneous arrivals cancel correctly and staggered arrivals
    generate glitches, which is exactly the effect multiplexer balancing
    exploits.

    The {e effective switching activity} of a node is the sum of its
    waveform (the per-cut summation of [6]); summing over all nodes gives
    the netlist SA of Eq. 3. *)

type waveform

(** [prob w] is the (time-independent) signal probability. *)
val prob : waveform -> float

(** [steps w] is the (time, activity) list in strictly increasing time
    order; entries with zero activity are dropped.  A waveform holds
    them as two flat arrays, the activities unboxed. *)
val steps : waveform -> (int * float) list

(** [total_activity w] is the effective switching activity: the sum of the
    waveform over all time steps. *)
val total_activity : waveform -> float

(** [arrival w] is the functional transition time (the largest step), or 0
    for a never-switching signal. *)
val arrival : waveform -> int

(** [functional_activity w] is the activity of the transition at
    [arrival w]. *)
val functional_activity : waveform -> float

(** [glitch_activity w] is [total_activity w -. functional_activity w]. *)
val glitch_activity : waveform -> float

(** [input_waveform signal] is a primary-input waveform: one transition
    opportunity at time 0 with the signal's activity. *)
val input_waveform : Switching.signal -> waveform

(** [make ~prob ~steps] builds a waveform directly: the steps with
    positive activity, in time order; of several at one time, the first
    counts (the one {!node_waveform} reads). *)
val make : prob:float -> steps:(int * float) list -> waveform

(** [node_waveform func ~fanins] derives the waveform of a node computing
    [func] whose fanins have the given waveforms, with the node's own
    delay [delay] (>= 1).  It is {!node_waveform_in} on a fresh scratch
    and a fresh [Switching.entry func]. *)
val node_waveform :
  Hlp_netlist.Truth_table.t -> fanins:waveform array -> delay:int -> waveform

(** Buffers that {!node_waveform_in} reuses from call to call; one
    scratch serves one domain at a time. *)
type scratch

val scratch : unit -> scratch

(** [node_waveform_in sc e ~fanins ~delay] is [node_waveform f ~fanins
    ~delay] for [e]'s function [f], bit for bit, one [Switching.step]
    of [e] per distinct fanin step time.  Its temporaries live in [sc]
    and [e] (whose pair tables it may build), so once those are built
    it allocates only the waveform it returns: a caller pricing many
    nodes of few functions keeps one entry per function and one
    scratch. *)
val node_waveform_in :
  scratch -> Switching.entry -> fanins:waveform array -> delay:int ->
  waveform

(** [propagate t ~delay ~input] computes every node's waveform.  [delay id]
    is the node's propagation delay (ignored for inputs); [input k] is the
    signal of the [k]-th primary input. *)
val propagate :
  Hlp_netlist.Netlist.t -> delay:(Hlp_netlist.Netlist.node_id -> int) ->
  input:(int -> Switching.signal) -> waveform array

(** Aggregate report over a netlist's logic nodes. *)
type summary = {
  total_sa : float;  (** Eq. 3: sum of effective SA over logic nodes *)
  functional_sa : float;  (** functional transitions only *)
  glitch_sa : float;  (** glitch component: [total_sa - functional_sa] *)
}

(** [summarize t waveforms] folds per-node waveforms into a {!summary}
    (primary inputs excluded, as their toggles are not produced by logic). *)
val summarize : Hlp_netlist.Netlist.t -> waveform array -> summary

(** [estimate t] is [summarize t (propagate t ~delay:(fun _ -> 1)
    ~input:(fun _ -> Switching.default_input))] — the paper's default
    configuration. *)
val estimate : Hlp_netlist.Netlist.t -> summary
