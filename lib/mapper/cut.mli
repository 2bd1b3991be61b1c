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
    kept per node, preferring fewer leaves, then the smaller leaf array.

    The cuts of a whole netlist live in one flat {!store}, sized by the
    cuts kept: each kept cut is a sorted slice of one vector of 32-bit
    ints, read in place through its index. *)

(** Every node's kept cuts, numbered by int indices. *)
type store

(** [enumerate t ~k ~max_cuts] computes, for each node id, its retained
    cuts.  For logic nodes the trivial cut is {e not} among them (it
    cannot implement the node); terminal nodes get exactly their trivial
    (or empty, for constants) cut.  A node's cuts come in (size, leaves)
    order.  A merge whose leaf signature (one bit per leaf, modulo 64)
    already has more than [k] bits is rejected before it is built.
    @raise Invalid_argument if [k < 2] or [k > Truth_table.max_vars], or
    [max_cuts < 1]. *)
val enumerate : Hlp_netlist.Netlist.t -> k:int -> max_cuts:int -> store

(** [first s id] and [stop s id] delimit node [id]'s cuts: indices
    [first s id] to [stop s id - 1]. *)
val first : store -> Hlp_netlist.Netlist.node_id -> int

val stop : store -> Hlp_netlist.Netlist.node_id -> int

(** [size s c] is the number of leaves of cut [c]. *)
val size : store -> int -> int

(** [leaf s c i] is leaf [i] of cut [c], [0 <= i < size s c], in
    increasing node-id order. *)
val leaf : store -> int -> int -> Hlp_netlist.Netlist.node_id

(** [leaves s c] is a fresh array of cut [c]'s leaves. *)
val leaves : store -> int -> Hlp_netlist.Netlist.node_id array

(** [cone_function s t node c] collapses the logic cone between cut [c]'s
    leaves and [node] into a single truth table over the leaves (in leaf
    order).  Constants inside the cone are folded.  The cone is evaluated
    bit-parallel, one lane per leaf minterm, with
    {!Hlp_netlist.Truth_table.eval_column_words}, in buffers of [s] (so
    one store serves one domain at a time).
    @raise Invalid_argument if [c] is not a valid cut of [node] (some
    cone path reaches a primary input that is not a leaf). *)
val cone_function :
  store -> Hlp_netlist.Netlist.t -> Hlp_netlist.Netlist.node_id -> int ->
  Hlp_netlist.Truth_table.t

(** [cone_table s t node c] computes [cone_function s t node c] without
    building it: afterwards {!table_lo} and {!table_hi} read its
    [Truth_table.low_half] and [high_half] until the next call. *)
val cone_table :
  store -> Hlp_netlist.Netlist.t -> Hlp_netlist.Netlist.node_id -> int ->
  unit

val table_lo : store -> int
val table_hi : store -> int
