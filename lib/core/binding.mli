(** Complete binding solutions and their multiplexer statistics.

    A binding assigns every operation to a functional-unit instance (on
    top of a schedule and a register binding).  This module is the shared
    output format of {!Hlpower} and {!Lopass}, the input of the RTL
    datapath builder, and the source of the multiplexer metrics the paper
    reports: per-FU input multiplexer sizes, [muxDiff] (Table 4), largest
    mux and total mux length (Table 3). *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime

(** One allocated functional unit and the operations bound to it. *)
type fu = {
  fu_id : int;  (** dense, per binding *)
  fu_class : Cdfg.fu_class;
  fu_ops : int list;  (** op ids, ascending *)
}

type t = {
  schedule : Schedule.t;
  regs : Reg_binding.t;
  fus : fu list;
  fu_of_op : int array;  (** op id -> fu_id *)
  swapped : bool array;
      (** per op: operands routed to the opposite FU ports.  Only legal
          for commutative ops (add, mult) — see {!set_swaps} — and
          exploited by {!Port_assign} to shrink and balance the input
          multiplexers the way LOPASS's network-flow port assignment [2]
          does. *)
}

(** [make ~schedule ~regs ~groups] builds a binding from op groups (one
    list per FU, each non-empty and single-class).
    @raise Invalid_argument if groups are malformed. *)
val make :
  schedule:Schedule.t -> regs:Reg_binding.t -> groups:(Cdfg.fu_class * int list) list -> t

(** [validate t] checks: every op bound exactly once, class agreement, and
    no two ops on one FU active in the same control step; plus register
    binding validity.  When the [Hlp_lint] library is linked, this
    delegates to its binding rule family ([B001]-[B009]) and the raised
    message lists {e every} violation; otherwise a minimal fail-fast
    fallback runs.  @raise Failure on violation. *)
val validate : t -> unit

(** [set_lint_hook rules] installs the comprehensive validator behind
    {!validate}: [rules t] must return one human-readable message per
    violation (empty = valid).  Called by [Hlp_lint] at link time; not
    intended for end users. *)
val set_lint_hook : (t -> string list) -> unit

(** [num_fus t cls] counts allocated FUs of class [cls]. *)
val num_fus : t -> Cdfg.fu_class -> int

(** {1 Multiplexer structure} *)

(** [effective_operands t op_id] is the (port A, port B) operand pair
    after applying the op's swap flag. *)
val effective_operands : t -> int -> Cdfg.operand * Cdfg.operand

(** [set_swaps t swapped] replaces the port orientation.
    @raise Invalid_argument if a subtraction (non-commutative) would be
    swapped or the array length is wrong. *)
val set_swaps : t -> bool array -> t

(** [port_sources t fu] is the pair (left, right) of distinct source
    register lists (sorted) feeding the FU's two input ports. *)
val port_sources : t -> fu -> int list * int list

(** [mux_diff t fu] is the absolute size difference of the two input
    multiplexers of [fu] (Eq. 4's [muxDiff]). *)
val mux_diff : t -> fu -> int

(** [reg_writers t] is, per register, the distinct writers: [`Fu id] for
    each FU whose result is stored there, [`Env] if a primary input is
    loaded there. *)
val reg_writers : t -> [ `Fu of int | `Env ] list array

(** Multiplexer metrics of Table 3 (FU input muxes and register input
    muxes both count; single-source ports need no mux and count as size
    1 toward nothing). *)
type mux_stats = {
  largest_mux : int;  (** biggest mux in the datapath; 0 if none *)
  mux_length : int;  (** sum of sizes of all muxes with >= 2 inputs *)
  mux_count : int;  (** number of muxes with >= 2 inputs *)
  fu_mux_diff_mean : float;  (** Table 4: mean muxDiff over FUs *)
  fu_mux_diff_var : float;  (** Table 4: population variance of muxDiff *)
  num_fu : int;  (** Table 4's "# muxes" column: allocated FUs *)
}

val mux_stats : t -> mux_stats

(** [pp_summary] prints a one-line description (FU counts, mux stats). *)
val pp_summary : Format.formatter -> t -> unit
