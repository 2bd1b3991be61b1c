(** The binder spec and the one path from a design to a binding: every
    caller outside the tests names its binder with [t], schedules and
    binds registers with {!prepare}, and binds units with {!run}.

    Both binders bind against the schedule's own density unless the
    caller passes a bound.  LOPASS allocates exactly the density and
    reads its bound only to fail when the density exceeds it, and a list
    schedule never exceeds the bound it was scheduled under, so on a
    list-scheduled design LOPASS binds the same under either bound. *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule

(** LOPASS, or HLPower with Eq. 4's alpha (beta is calibrated). *)
type t = Lopass | Hlpower of { alpha : float }

(** The binder names in table order: ["hlpower"; "lopass"]. *)
val names : string list

val name : t -> string

(** [of_name ~alpha name] is the binder called [name]; only HLPower
    reads [alpha].  @raise Failure ["unknown binder: NAME"] otherwise. *)
val of_name : alpha:float -> string -> t

(** [select ~alpha name] is [[of_name ~alpha name]], or every binder in
    table order for ["both"]. *)
val select : alpha:float -> string -> t list

type design =
  | Bench of Hlp_cdfg.Benchmarks.profile * int
      (** a benchmark variant, under its Table 2 bound *)
  | Graph of Cdfg.t  (** an inline graph, one unit per op: unconstrained *)
  | Bounded of Cdfg.t * (Cdfg.fu_class -> int)  (** a graph under a bound *)
  | Scheduled of Schedule.t  (** a design with its own schedule *)

type prepared = { schedule : Schedule.t; regs : Reg_binding.t }

(** [prepare ?latency design] list-schedules [design] ([Scheduled] keeps
    its schedule and ignores [latency]), then binds its registers.
    @raise Invalid_argument on a bound below 1. *)
val prepare : ?latency:Schedule.latency -> design -> prepared

(** [max 1 (Schedule.max_density schedule cls)]: the paper's lower
    bound on the allocation. *)
val density_bound : Schedule.t -> Cdfg.fu_class -> int

(** [hlpower] holds HLPower's iterations and promotions; [None] for
    LOPASS. *)
type result = { binding : Binding.t; hlpower : Hlpower.result option }

(** [run ?state ?resources ~sa_table binder prepared] binds against
    [resources], by default {!density_bound}.  HLPower calibrates beta
    at its alpha on [sa_table], which LOPASS never forces, and memoizes
    in [state].
    @raise Failure if a class cannot meet its bound.
    @raise Hlpower.Calibration_error if [sa_table] cannot calibrate. *)
val run :
  ?state:Hlpower.state ->
  ?resources:(Cdfg.fu_class -> int) ->
  sa_table:Sa_table.t Lazy.t ->
  t ->
  prepared ->
  result
