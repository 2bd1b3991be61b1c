module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule

type objective = Min_inputs | Min_diff

(* Whether one FU's orientation with [l1] and [r1] distinct sources on
   its ports costs less than one with [l0] and [r0], under the
   objective: (mux length, imbalance) or (imbalance, mux length),
   compared lexicographically. *)
let improves objective l1 r1 l0 r0 =
  let s1 = l1 + r1 and s0 = l0 + r0 in
  let d1 = abs (l1 - r1) and d0 = abs (l0 - r0) in
  match objective with
  | Min_inputs -> s1 < s0 || (s1 = s0 && d1 < d0)
  | Min_diff -> d1 < d0 || (d1 = d0 && s1 < s0)

(* Per port, how many of the current unit's ops read each register, and
   how many registers are read at all (the port's mux size).  Only the
   current unit's registers are ever nonzero. *)
type port = { reads : int array; mutable sources : int }

let read p r =
  if p.reads.(r) = 0 then p.sources <- p.sources + 1;
  p.reads.(r) <- p.reads.(r) + 1

let unread p r =
  p.reads.(r) <- p.reads.(r) - 1;
  if p.reads.(r) = 0 then p.sources <- p.sources - 1

let optimize ?(objective = Min_inputs) binding =
  let cdfg = binding.Binding.schedule.Schedule.cdfg in
  let swapped = Array.copy binding.Binding.swapped in
  let reg = Reg_binding.reg_of_operand binding.Binding.regs in
  let n_regs = Reg_binding.num_regs binding.Binding.regs in
  let left = { reads = Array.make n_regs 0; sources = 0 }
  and right = { reads = Array.make n_regs 0; sources = 0 } in
  List.iter
    (fun fu ->
      let ops = Array.of_list fu.Binding.fu_ops in
      let regs_l = Array.map (fun id -> reg (Cdfg.op cdfg id).Cdfg.left) ops
      and regs_r =
        Array.map (fun id -> reg (Cdfg.op cdfg id).Cdfg.right) ops
      in
      (* The registers op [i] reads on the left and right port under its
         current orientation. *)
      let on_left i = if swapped.(ops.(i)) then regs_r.(i) else regs_l.(i)
      and on_right i = if swapped.(ops.(i)) then regs_l.(i) else regs_r.(i) in
      let flip i =
        unread left (on_left i);
        unread right (on_right i);
        swapped.(ops.(i)) <- not swapped.(ops.(i));
        read left (on_left i);
        read right (on_right i)
      in
      Array.iteri
        (fun i _ ->
          read left (on_left i);
          read right (on_right i))
        ops;
      (* Greedy coordinate descent over the ops' swap flags: a flip stays
         when it lowers the unit's cost. *)
      let improved = ref true in
      let rounds = ref 0 in
      while !improved && !rounds < 8 do
        improved := false;
        incr rounds;
        Array.iteri
          (fun i id ->
            if (Cdfg.op cdfg id).Cdfg.kind <> Cdfg.Sub then begin
              let l0 = left.sources and r0 = right.sources in
              flip i;
              if improves objective left.sources right.sources l0 r0 then
                improved := true
              else flip i
            end)
          ops
      done;
      Array.iteri
        (fun i _ ->
          unread left (on_left i);
          unread right (on_right i))
        ops)
    binding.Binding.fus;
  Binding.set_swaps binding swapped
