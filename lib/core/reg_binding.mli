(** Register allocation and binding (§5.1, after Huang et al. [11]).

    The register count is the maximum number of variables with overlapping
    lifetimes in any control step (the provable minimum for an interval
    conflict graph).  Variables are then bound in birth-time order: each
    cluster of variables born at the same step is assigned to currently
    free registers by maximum-weight bipartite matching, with weights
    favoring data locality (a register that held an operand of the
    variable's producer op is preferred, shortening register-FU-register
    loops and, downstream, multiplexer sizes).  Each variable's row of
    weights is computed once, from its producer op's class and operand
    registers, into one dense {!Bipartite.workspace} per bind.

    Operator ports keep the CDFG's left/right operand order — the paper
    binds ports "randomly" at this stage; ours is the deterministic order
    the (seeded) benchmark generator produced. *)

module Lifetime = Hlp_cdfg.Lifetime

type t

(** [bind lifetime] allocates and binds registers for all variables.
    Deterministic. *)
val bind : Lifetime.t -> t

val lifetime : t -> Lifetime.t

(** [num_regs t] is the allocated register count ([Lifetime.max_live]). *)
val num_regs : t -> int

(** [reg_of_var t v] is the register holding variable [v].
    @raise Not_found for unknown variables. *)
val reg_of_var : t -> Lifetime.var -> int

(** [reg_of_operand t operand] is the register an operand is read from:
    its input's or its producing op's.
    @raise Not_found for unknown operands. *)
val reg_of_operand : t -> Hlp_cdfg.Cdfg.operand -> int

(** [vars_of_reg t r] is the variables assigned to register [r], in birth
    order. *)
val vars_of_reg : t -> int -> Lifetime.var list

(** [validate t] checks that no two overlapping variables share a register
    and every variable is bound; @raise Failure on violation. *)
val validate : t -> unit
