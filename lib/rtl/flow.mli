(** The full evaluation pipeline — the substitute for the paper's Quartus
    II flow (§6.1): binding -> datapath -> gate-level elaboration -> 4-LUT
    technology mapping -> random-vector glitch-accurate simulation ->
    power/timing analysis.  One call produces every column the paper
    reports per benchmark in Table 3 and the toggle rates of Figure 3. *)

module Binding = Hlp_core.Binding

type config = {
  width : int;  (** datapath word width (default 16, typical DSP data) *)
  k : int;  (** LUT input count (default 4 — Cyclone II) *)
  vectors : int;  (** random simulation vectors (default 1000) *)
  seed : string;  (** vector PRNG seed *)
  check : bool;  (** verify against the golden CDFG evaluation *)
  model : Power.model;  (** power/timing constants *)
  objective : Hlp_mapper.Mapper.objective;  (** mapping objective *)
  estimator : Power.estimator;
      (** toggle-count source (default [`Sim]).  [`Static] skips
          simulation entirely — the power fields carry the static
          estimate and no golden functional check runs; [`Both]
          simulates as usual and adds the static estimate to the
          report's [static] field. *)
}

val default_config : config

(** The static analyzer's summary, mirroring the simulation-derived
    power fields; present in a report iff the config's estimator was
    [`Static] or [`Both]. *)
type static_summary = {
  static_power_mw : float;
  static_toggle_rate_mhz : float;
  static_total_toggles : int;
  static_glitch_fraction : float;
}

type report = {
  design : string;
  dynamic_power_mw : float;  (** Table 3: dynamic power *)
  clock_period_ns : float;  (** Table 3: clock period *)
  luts : int;  (** Table 3: LUT count *)
  largest_mux : int;  (** Table 3: largest mux *)
  mux_length : int;  (** Table 3: mux length *)
  toggle_rate_mhz : float;  (** Figure 3: average toggle rate *)
  mux : Binding.mux_stats;  (** Table 4 inputs *)
  est_total_sa : float;  (** estimator's Eq. 3 SA on the LUT network *)
  est_glitch_sa : float;  (** estimator's glitch component *)
  sim_glitch_fraction : float;  (** measured glitch share *)
  cycles : int;
  depth : int;
  static : static_summary option;
      (** the simulation-free estimate, when one was computed *)
}

(** Every intermediate artifact of one pipeline run, handed to the
    registered {!set_checker} checker when [config.check] is set. *)
type artifacts = {
  a_design : string;
  a_config : config;
  a_binding : Binding.t;
  a_datapath : Datapath.t;
  a_elab : Elaborate.t;
  a_mapping : Hlp_mapper.Mapper.t;
}

(** [set_checker f] installs a pipeline-wide structural checker, invoked
    after technology mapping (before simulation) whenever
    [config.check] is set.  [Hlp_lint] registers its netlist and mapped
    rule families here at link time; the checker raises [Failure]
    listing every Error-severity diagnostic.  Not intended for end
    users. *)
val set_checker : (artifacts -> unit) -> unit

(** The phase names passed to a {!run} [checkpoint], in pipeline
    order. *)
val phases : string list

(** [run config ~design binding] executes the pipeline.

    [checkpoint] (default: a no-op) is called with the phase name
    immediately {e before} each pipeline phase ({!phases} lists them in
    order).  It is the cancellation hook for long-running callers such
    as the serving daemon: raising from a checkpoint aborts the run
    between phases — no partial artifact escapes, because nothing after
    the raise is constructed.  The callback must be cheap; it runs on
    the hot path.

    @raise Failure if the functional check or a lint check fails. *)
val run :
  ?checkpoint:(string -> unit) ->
  ?config:config ->
  design:string ->
  Binding.t ->
  report

(** [pp_report] prints a compact human-readable report. *)
val pp_report : Format.formatter -> report -> unit

(** [json_of_report r] renders [r] as one JSON object.  Floats use
    [%.17g], so two rendered reports are textually equal iff their
    metrics are bit-identical (the property the bench harness's
    warm-vs-cold cache diff checks).  The [static_*] fields are
    rendered only when [r.static] is present, so [`Sim]-mode output is
    byte-identical to the historical format. *)
val json_of_report : report -> string
