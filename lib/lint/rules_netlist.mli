(** Netlist rule family (codes [N001]-[N010]).

    Structural invariants of a gate-level {!Hlp_netlist.Netlist.t} plus
    the BLIF round trip the flow depends on for artifact interchange.

    - [N001] node id does not match its array index
    - [N002] truth-table arity differs from the fanin count
    - [N003] fanin id out of range or not topologically ordered
      (subsumes acyclicity: forward references are impossible)
    - [N004] output refers to a node outside the netlist
    - [N005] logic node unreachable from every output (warning)
    - [N006] two outputs with the same name (duplicate drivers)
    - [N007] constant-foldable logic node: the function ignores a fanin
      or is constant (warning)
    - [N008] dangling node: logic node with no fanins and no constant
      function semantics is reported via [N002]; an input never read and
      not an output is reported here (warning)
    - [N009] BLIF round trip is not semantically equivalent
    - [N010] BLIF round trip fails to parse (location = source line) *)

val check : Hlp_netlist.Netlist.t -> Diagnostic.t list

(** [check_blif_roundtrip t] prints [t] as BLIF, parses it back, and
    compares structure, then behavior on random vectors output by output
    in declaration order ([N009]/[N010]). *)
val check_blif_roundtrip : Hlp_netlist.Netlist.t -> Diagnostic.t list

(** [equivalent_on_random_vectors ~seed a b] holds iff [a] and [b] have
    as many outputs and, on [2 * Bits.lanes] (126) random input vectors,
    every output of [a] equals the output of [b] at the same position.
    The vectors come from [Rng.create seed], one [Rng.bool] per input,
    vector after vector, and fill two words, each evaluated in one
    [Netlist.eval_words] pass per netlist.  Shared by [N009] and
    [M003].
    @raise Invalid_argument if the input counts differ. *)
val equivalent_on_random_vectors :
  seed:string -> Hlp_netlist.Netlist.t -> Hlp_netlist.Netlist.t -> bool

(** [parse_blif s] parses BLIF source, mapping parse failures to an
    [N010] diagnostic whose location is the offending source line. *)
val parse_blif : string -> (Hlp_netlist.Netlist.t, Diagnostic.t) result
