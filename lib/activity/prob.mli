(** Signal-probability propagation (Najm [17], §4 of the paper).

    The signal probability of a net is the fraction of time it is logic 1.
    Probabilities are propagated from primary inputs to outputs node by
    node, assuming fanins are statistically independent, by summing minterm
    probabilities of each node's local truth table — exact per node under
    the independence assumption (reconvergent fanout introduces the usual
    correlation error, which the paper inherits from [12]/[6] as well). *)

(** [of_table f probs] is the probability that [f] evaluates to 1 given
    independent input-1 probabilities [probs] (one per table input).
    Computed by Shannon expansion on the table column ([O(2^n)] float
    operations, the float twin of the recursion
    [Truth_table.eval_column_words] uses for 5- and 6-input tables).
    @raise Invalid_argument if [Array.length probs <> arity f]. *)
val of_table : Hlp_netlist.Truth_table.t -> float array -> float

(** [scratch ()] is a buffer for {!of_table_in}. *)
val scratch : unit -> float array

(** [of_table_in s f probs] is [of_table f probs], bit for bit, computed
    in the buffer [s] from {!scratch}: it allocates nothing but the
    returned float. *)
val of_table_in :
  float array -> Hlp_netlist.Truth_table.t -> float array -> float

(** [of_table_minterms f probs] is the original [O(n * 2^n)] minterm sum
    — kept as the differential test oracle for {!of_table}.  Both are
    exact (and bit-equal) under the paper's uniform 0.5 assignment,
    where every intermediate value is a small dyadic; on arbitrary
    floats they may differ by rounding.
    @raise Invalid_argument if [Array.length probs <> arity f]. *)
val of_table_minterms : Hlp_netlist.Truth_table.t -> float array -> float

(** [node_probabilities t ~input_prob] is the per-node-id signal
    probability of every net in [t]; [input_prob k] gives the probability
    of the [k]-th primary input (index into [Netlist.inputs], the paper's
    default is 0.5 everywhere). *)
val node_probabilities :
  Hlp_netlist.Netlist.t -> input_prob:(int -> float) -> float array

(** [uniform _] is the 0.5 input-probability assignment of the paper. *)
val uniform : int -> float
