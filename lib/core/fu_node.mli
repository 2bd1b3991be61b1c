(** A functional unit in the making, the node both binders build their
    units from ({!Hlpower} merges nodes, {!Lopass} fills units op by op).

    A node's busy control steps and its two source-register sets are
    fixed-width int bitsets: bit [i] is bit [i mod Sys.int_size] of word
    [i / Sys.int_size].  {!of_op} sizes them from [Schedule.num_csteps]
    and {!Reg_binding.num_regs}, so every node of one bind has the same
    word counts.  Two nodes are compatible when their busy words AND to
    zero, and a merge's mux sizes are the popcounts of the ORed register
    words. *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule

type t = {
  cls : Cdfg.fu_class;
  ops : int list;  (** bound op ids, in merge order *)
  busy : int array;  (** occupied control steps *)
  left_srcs : int array;  (** distinct source registers, port A *)
  right_srcs : int array;  (** distinct source registers, port B *)
}

(** [of_op schedule regs op] is the unit holding [op] alone. *)
val of_op : Schedule.t -> Reg_binding.t -> Cdfg.op -> t

(** Same class and no common busy step. *)
val compatible : t -> t -> bool

(** [merge u v] holds the ops of [u], then those of [v]. *)
val merge : t -> t -> t

(** [mux_left u v] and [mux_right u v] are the input-mux sizes of
    [merge u v], counted without building it. *)
val mux_left : t -> t -> int

val mux_right : t -> t -> int

(** [disjoint a b]: no bit is set in both bitsets. *)
val disjoint : int array -> int array -> bool
