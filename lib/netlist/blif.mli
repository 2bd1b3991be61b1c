(** BLIF (Berkeley Logic Interchange Format) serialization.

    The paper's edge-weight procedure generates the partial datapath "in
    .blif format" [SIS, ref 19] before handing it to the switching-activity
    estimator; this module provides the equivalent printer plus a parser so
    precomputed netlists and external circuits can be read back.  The
    supported subset is single-model, combinational BLIF: [.model],
    [.inputs], [.outputs], [.names] with cube covers (including ['-']
    don't-cares and both output polarities), and [.end].  [.subckt] is not
    emitted — cells are flattened at construction time, mirroring step (3)
    of Fig. 2 of the paper. *)

(** [to_string t] renders the netlist as BLIF.  Net names are made unique
    and safe: characters outside [[A-Za-z0-9_.\[\]]] become ['_'], and an
    input or output whose sanitized name an earlier one already has
    becomes ["<name>_<k>"] for the least free [k].  Logic nodes are
    ["n<id>"] (or ["n<id>_<k>"] when an input or output has that name);
    declared outputs keep their names via buffer covers. *)
val to_string : Netlist.t -> string

(** [output_file t path] writes [to_string t] to [path]. *)
val output_file : Netlist.t -> string -> unit

(** [parse s] parses a BLIF model back into a netlist.  Logic may be
    declared in any order; the result is topologically sorted, nodes
    numbered in the order a depth-first walk from the [.outputs] (fanins
    left to right) reaches them.  Malformed input (bad covers, duplicate
    inputs or net definitions, undefined nets, combinational cycles,
    functions wider than {!Truth_table.max_vars}, a model without
    outputs) yields [Error (lineno, message)] where [lineno] is the
    1-based source line of the offending construct (for a model without
    outputs, its first [.model] line, or 1).
    @raise Invalid_argument on a text of 2 GiB or more: the parse holds
    its offsets as 32-bit ints. *)
val parse : string -> (Netlist.t, int * string) result

(** [of_string s] is [parse s], raising on malformed input.
    @raise Failure with ["Blif.of_string: line N: ..."] diagnostics. *)
val of_string : string -> Netlist.t

(** [parse_file path] reads and parses [path]. *)
val parse_file : string -> Netlist.t
