(** Structural datapath synthesized from a binding.

    Converts a complete binding into the register-transfer structure the
    paper's CDFG-to-VHDL tool produces: one [width]-bit register per
    allocated register, one functional unit per allocated FU with a
    multiplexer on each input port (sized by the distinct source
    registers), a write multiplexer in front of every register with more
    than one producing FU, and an FSM control table giving, per control
    step, every mux select, the adder add/sub flags, and the register load
    enables.

    This structure is shared by the VHDL emitter, the gate-level
    elaboration, and the cycle-accurate simulator, so what is printed,
    what is measured, and what is reported are the same design. *)

module Cdfg = Hlp_cdfg.Cdfg
module Binding = Hlp_core.Binding

type fu_inst = {
  fu : Binding.fu;
  left_sources : int array;  (** register ids feeding port A, mux order *)
  right_sources : int array;  (** register ids feeding port B, mux order *)
}

(** Per-FU activity in one control step. *)
type fu_ctrl = {
  op_id : int;
  left_sel : int;  (** index into [left_sources] *)
  right_sel : int;  (** index into [right_sources] *)
  subtract : bool;  (** adder FUs only *)
}

type step_ctrl = {
  fu_ctrl : fu_ctrl option array;  (** per fu_id; [None] = idle *)
  reg_load : int option array;
      (** per register: index into its writer list if the register captures
          at the end of this step *)
}

type t = {
  binding : Binding.t;
  width : int;
  adder_impls : Hlp_netlist.Cell_library.adder_impl array;
      (** per fu_id; selected by {!Hlp_core.Module_select} (default all
          ripple); ignored for multiplier FUs *)
  fus : fu_inst array;  (** indexed by [fu_id] *)
  reg_writers : int array array;
      (** per register: producing FU ids, write-mux order (registers
          holding only primary inputs have an empty array) *)
  input_regs : (int * int) list;  (** (primary input, register) pairs *)
  output_regs : (string * int) list;  (** (output name, register) pairs *)
  ctrl : step_ctrl array;  (** indexed by control step *)
}

(** [build ~width binding] elaborates the control and interconnect
    structure.  [adder_impls] selects each adder FU's implementation
    (defaults to ripple everywhere).
    @raise Invalid_argument if [width < 1] or [adder_impls] has the wrong
    length. *)
val build :
  ?adder_impls:Hlp_netlist.Cell_library.adder_impl array -> width:int ->
  Binding.t -> t

val num_regs : t -> int

(** [golden_eval t inputs] executes the CDFG directly (integer arithmetic
    modulo [2^width]) and returns the expected output words — the
    reference the RTL simulation is checked against. *)
val golden_eval : t -> int array -> (string * int) list

(** [golden_outputs t stream ~ofs ~values ~outputs] is {!golden_eval}
    of the inputs [stream.(ofs)], [stream.(ofs + 1)], ... written into
    [outputs] in output order, with [values] (one slot per CDFG op) as
    its working array: it allocates nothing.  The input count is not
    checked. *)
val golden_outputs :
  t -> int array -> ofs:int -> values:int array -> outputs:int array -> unit

(** [validate t] cross-checks the control tables against the schedule
    (every op issued exactly once and only inside its slot, selects in
    range, loads matching variable births, registers defined before
    use).  The implementation is [Hlp_lint]'s datapath rule family
    ([D001]-[D008]), installed when that library is linked; the raised
    message lists every violation.  Without [Hlp_lint] linked this is a
    no-op.  @raise Failure on violation. *)
val validate : t -> unit

(** [set_lint_hook rules] installs the checker behind {!validate}:
    [rules t] returns one message per violation (empty = valid).  Called
    by [Hlp_lint] at link time; not intended for end users. *)
val set_lint_hook : (t -> string list) -> unit
