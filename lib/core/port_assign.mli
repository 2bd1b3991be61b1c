(** Commutative port assignment (after Chen-Cong [2]).

    LOPASS enhances its binding with a network-flow port-assignment step
    that re-orients commutative operations across a functional unit's two
    input ports to minimize multiplexer cost; HLPower leaves ports as the
    register binding fixed them (§5.1, "randomly bound").  This module
    provides that optimization as a post-pass applicable to {e any}
    binding, used by the ablation benches to quantify how much of the
    multiplexer story port assignment explains.

    Semantics are preserved: only additions and multiplications (not
    subtractions) may swap, and the datapath router honors the resulting
    orientation, so simulation against the golden model still passes. *)

(** Objective for a functional unit's orientation choice. *)
type objective =
  | Min_inputs  (** minimize total distinct sources (mux length) *)
  | Min_diff  (** minimize port imbalance (muxDiff), inputs tie-break *)

(** [optimize ?objective binding] greedily re-orients each FU's commutative
    ops (several passes to a fixpoint).  The result never has more total
    FU mux inputs than the input under [Min_inputs].  Each port counts
    its unit's reads per register, so a candidate flip updates the two
    ports' counts in constant time. *)
val optimize : ?objective:objective -> Binding.t -> Binding.t
