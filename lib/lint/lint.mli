(** Static-analysis driver over the binding -> datapath -> netlist ->
    LUT chain.

    [Hlp_lint] checks every intermediate artifact the flow produces and
    reports {e all} violations as structured {!Diagnostic.t} values
    rather than dying on the first.  Five rule families cover the
    artifact kinds:

    - {!Rules_binding} ([B001]-[B009]) — the binding solution
    - {!Rules_datapath} ([D001]-[D008]) — the FSM/datapath control tables
    - {!Rules_netlist} ([N001]-[N010]) — the gate netlist and its BLIF
      round trip
    - {!Rules_mapped} ([M001]-[M005]) — the k-LUT cover
    - {!Rules_activity} ([A001]-[A004]) — advisory power findings from
      the static activity analysis of the LUT cover

    Linking this library (all executables in this tree do) also arms the
    legacy validators: {!Hlp_core.Binding.validate} and
    {!Hlp_rtl.Datapath.validate} delegate to the rule families via the
    hook installed by this module's initializer, and {!Hlp_rtl.Flow.run}
    lints the netlist and the LUT cover behind [config.check].  The
    library is built with [-linkall] so merely listing it as a
    dependency is enough. *)

(** {1 Rule catalog} *)

type rule = {
  r_code : string;  (** stable identifier, e.g. ["B002"] *)
  r_severity : Diagnostic.severity;
  r_family : string;
      (** ["activity"], ["binding"], ["datapath"], ["driver"],
          ["mapped"], ["netlist"] or ["server"] *)
  r_synopsis : string;
}

(** Every rule the tree can emit — one catalog across the lint families,
    the driver and the daemon's request validator ([S001]-[S008], defined
    in [Hlp_server] but cataloged here so one list covers every code a
    diagnostic can carry).  Codes are unique and sorted.  [L001] is the
    driver's own code for a pipeline stage that raised instead of
    producing an artifact to lint. *)
val catalog : rule list

(** {1 Running the analysis} *)

(** [run_all ?config ~design binding] drives the whole pipeline —
    binding rules, then {!Hlp_rtl.Datapath.build}, datapath rules,
    elaboration, netlist rules and the BLIF round trip, technology
    mapping at [config.k], mapped rules — and returns every diagnostic
    found, sorted errors-first.  Construction of a downstream artifact
    is skipped once an upstream family reports errors (its input cannot
    be trusted); a stage that raises anyway is reported as an [L001]
    diagnostic carrying the exception text.  Never raises. *)
val run_all :
  ?config:Hlp_rtl.Flow.config -> design:string -> Hlp_core.Binding.t ->
  Diagnostic.t list

(** The designs [hlpower lint] and the daemon's [lint] op check, in
    order: the seven Table 1 benchmarks, then the fir8, dct4, biquad and
    fig1 kernels. *)
val design_names : string list

(** [designs ?bench ~binder ~sa_table ()] is every design of
    {!design_names}, each with a thunk that binds it, named
    ["<design>-<binder>"], under [binder] (["hlpower"], ["lopass"] or
    ["both"], see {!Hlp_core.Binder.select}).  HLPower calibrates at
    alpha 0.5 on [sa_table], forced only if an HLPower binding is.
    [bench] keeps one design.
    @raise Not_found if [bench] names no design.
    @raise Failure on any other [binder]. *)
val designs :
  ?bench:string ->
  binder:string ->
  sa_table:Hlp_core.Sa_table.t Lazy.t ->
  unit ->
  (string * (unit -> Hlp_core.Binding.t)) list

(** {1 Reporting} *)

(** [summary ds] is e.g. ["2 errors, 1 warning"] (or ["clean"]). *)
val summary : Diagnostic.t list -> string

(** [pp_report ppf (design, ds)] prints one line per diagnostic followed
    by a summary line. *)
val pp_report : Format.formatter -> string * Diagnostic.t list -> unit

(** [json_report results] is [(design, diagnostics)] pairs as one JSON
    document: [{"lint": [{"design", "errors", "warnings",
    "diagnostics"}, ...]}], each diagnostic as {!Diagnostic.to_json}.
    [hlpower lint --json] writes it, and the daemon's [lint] reply
    carries it as [report]. *)
val json_report : (string * Diagnostic.t list) list -> Hlp_util.Json.t
