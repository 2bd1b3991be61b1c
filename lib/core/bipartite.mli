(** Maximum-weight bipartite matching.

    Both the register binding of [11] and each iteration of the HLPower
    functional-unit binding (Algorithm 1, line 14) solve a weighted
    bipartite graph for a maximum-weight matching.  The implementation is
    the Hungarian algorithm with potentials, with the left side as rows:
    columns are padded with zero-weight dummy edges only when left >
    right, so a solve costs O(n_left^2 * max(n_left, n_right)).  The graph
    may be unbalanced and sparse; only pairs connected by a real (strictly
    positive weight) edge are reported. *)

(** [max_weight_matching ~n_left ~n_right ~weight] returns the matching
    [(left, right)] pairs maximizing total weight, where [weight i j] is
    [Some w] ([w > 0]) for an edge and [None] for a non-edge.  Unmatched
    vertices are simply absent.  The result is deterministic.
    @raise Invalid_argument on negative sizes or non-positive edge
    weights. *)
val max_weight_matching :
  n_left:int -> n_right:int -> weight:(int -> int -> float option) ->
  (int * int) list

(** [total_weight ~weight pairs] sums edge weights over matched pairs
    (0 for pairs without an edge — useful for test assertions). *)
val total_weight :
  weight:(int -> int -> float option) -> (int * int) list -> float
