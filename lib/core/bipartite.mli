(** Maximum-weight bipartite matching.

    Both the register binding of [11] and each iteration of the HLPower
    functional-unit binding (Algorithm 1, line 14) solve a weighted
    bipartite graph for a maximum-weight matching, and so does the LOPASS
    baseline, once per control step.  The implementation is the Hungarian
    algorithm with potentials, with the left side as rows: columns are
    padded with zero-weight dummy edges only when left > right, so a
    solve costs O(n_left^2 * max(n_left, n_right)).  The graph may be
    unbalanced and sparse; only pairs connected by a real (strictly
    positive weight) edge are reported.

    The caller fills the graph as a dense float matrix in a {!workspace},
    which holds it and every array the solver needs and only grows: a
    binder creates one per bind and solves every round on it.  It is
    private to its creator, never a shared or domain-local buffer that
    two binds on one domain (systhreads) could both use. *)

type workspace

(** [workspace ()] is an empty workspace; it grows on first use. *)
val workspace : unit -> workspace

(** [weights ws ~n_left ~n_right] sets the shape of the next solve and
    returns its row-major matrix, the first [n_left * n_right] cells
    zeroed (the array may be longer): the caller writes the weight of
    edge [(i, j)] to cell [i * n_right + j], and a cell [<= 0] is a
    non-edge.
    @raise Invalid_argument on negative sizes. *)
val weights : workspace -> n_left:int -> n_right:int -> float array

(** [max_weight_matching ws] solves the last {!weights} matrix: the
    matching [(left, right)] pairs maximizing total weight, in increasing
    [left] order; unmatched vertices are absent.  Deterministic, and
    equal, tie-breaks included, to the option-callback solver the tests
    keep as the reference. *)
val max_weight_matching : workspace -> (int * int) list
