module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule

type t = {
  cls : Cdfg.fu_class;
  ops : int list;
  busy : int array;
  left_srcs : int array;
  right_srcs : int array;
}

let words n = (max n 1 + Sys.int_size - 1) / Sys.int_size

let singleton ~words i =
  let a = Array.make words 0 in
  a.(i / Sys.int_size) <- 1 lsl (i mod Sys.int_size);
  a

let interval ~words s f =
  let a = Array.make words 0 in
  for x = s to f do
    a.(x / Sys.int_size) <- a.(x / Sys.int_size) lor (1 lsl (x mod Sys.int_size))
  done;
  a

let disjoint a b =
  let n = Array.length a in
  let i = ref 0 in
  while !i < n && a.(!i) land b.(!i) = 0 do
    incr i
  done;
  !i = n

let union a b = Array.map2 ( lor ) a b

(* |a ∪ b| without building it. *)
let union_cardinal a b =
  let n = ref 0 in
  for i = 0 to Array.length a - 1 do
    n := !n + Hlp_util.Bits.popcount (a.(i) lor b.(i))
  done;
  !n

let of_op schedule regs op =
  let s, f = Schedule.active_steps schedule op.Cdfg.id in
  let step_words = words schedule.Schedule.num_csteps in
  let reg_words = words (Reg_binding.num_regs regs) in
  let src operand =
    singleton ~words:reg_words (Reg_binding.reg_of_operand regs operand)
  in
  {
    cls = Cdfg.class_of op.Cdfg.kind;
    ops = [ op.Cdfg.id ];
    busy = interval ~words:step_words s f;
    left_srcs = src op.Cdfg.left;
    right_srcs = src op.Cdfg.right;
  }

let compatible u v = u.cls = v.cls && disjoint u.busy v.busy

let merge u v =
  {
    cls = u.cls;
    ops = u.ops @ v.ops;
    busy = union u.busy v.busy;
    left_srcs = union u.left_srcs v.left_srcs;
    right_srcs = union u.right_srcs v.right_srcs;
  }

let mux_left u v = union_cardinal u.left_srcs v.left_srcs
let mux_right u v = union_cardinal u.right_srcs v.right_srcs
