(** K-feasible cut enumeration (Cong-Wu-Ding [8], as used by GlitchMap).

    A {e cut} of node [n] is a set of nodes (the {e leaves}) such that every
    path from a primary input to [n] passes through a leaf, and the logic
    between the leaves and [n] (the {e cone}) can be collapsed into a single
    K-input LUT when the cut has at most K leaves.

    Enumeration is bottom-up: the cut set of a terminal node (primary input)
    is its singleton trivial cut; the cut set of a logic node is every
    K-feasible union of one cut per fanin, plus the trivial cut.  Constant
    (0-fanin logic) nodes contribute the {e empty} cut, so constants fold
    into cones instead of wasting LUT inputs.  Dominated cuts (supersets of
    another cut) are pruned, and at most [max_cuts] non-trivial cuts are
    kept per node, preferring fewer leaves. *)

type t = private {
  leaves : Hlp_netlist.Netlist.node_id array;  (** sorted, distinct *)
}

(** [pp] prints a cut as [{a,b,c}]. *)
val pp : Format.formatter -> t -> unit

(** [trivial id] is the singleton cut [{id}]. *)
val trivial : Hlp_netlist.Netlist.node_id -> t

(** [enumerate t ~k ~max_cuts] computes, for each node id, its retained
    cuts.  For logic nodes the trivial cut is {e not} included in the
    returned list (it cannot implement the node); terminal nodes get
    exactly their trivial (or empty, for constants) cut.
    @raise Invalid_argument if [k < 2] or [k > Truth_table.max_vars], or
    [max_cuts < 1]. *)
val enumerate :
  Hlp_netlist.Netlist.t -> k:int -> max_cuts:int -> t list array

(** [cone_function t node cut] collapses the logic cone between
    [cut.leaves] and [node] into a single truth table over the leaves (in
    [cut.leaves] order).  Constants inside the cone are folded.  The cone
    is evaluated bit-parallel, one lane per leaf minterm, with
    {!Hlp_netlist.Truth_table.eval_column_words}.
    @raise Invalid_argument if [cut] is not a valid cut of [node] (some
    cone path reaches a primary input that is not a leaf). *)
val cone_function :
  Hlp_netlist.Netlist.t -> Hlp_netlist.Netlist.node_id -> t ->
  Hlp_netlist.Truth_table.t
