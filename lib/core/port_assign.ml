module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module IS = Set.Make (Int)

type objective = Min_inputs | Min_diff

(* Cost of one FU's orientation state under the objective: sources are the
   per-port distinct register sets. *)
let cost objective left right =
  let l = IS.cardinal left and r = IS.cardinal right in
  match objective with
  | Min_inputs -> (l + r, abs (l - r))
  | Min_diff -> (abs (l - r), l + r)

let optimize ?(objective = Min_inputs) binding =
  let cdfg = binding.Binding.schedule.Schedule.cdfg in
  let swapped = Array.copy binding.Binding.swapped in
  let reg = Reg_binding.reg_of_operand binding.Binding.regs in
  let op_regs id =
    let o = Cdfg.op cdfg id in
    (reg o.Cdfg.left, reg o.Cdfg.right)
  in
  let commutative id = (Cdfg.op cdfg id).Cdfg.kind <> Cdfg.Sub in
  List.iter
    (fun fu ->
      let ops = Array.of_list fu.Binding.fu_ops in
      (* Port source sets as a function of the current orientation. *)
      let sets () =
        Array.fold_left
          (fun (l, r) id ->
            let rl, rr = op_regs id in
            let a, b = if swapped.(id) then (rr, rl) else (rl, rr) in
            (IS.add a l, IS.add b r))
          (IS.empty, IS.empty) ops
      in
      (* Greedy coordinate descent over the ops' swap flags. *)
      let improved = ref true in
      let rounds = ref 0 in
      while !improved && !rounds < 8 do
        improved := false;
        incr rounds;
        Array.iter
          (fun id ->
            if commutative id then begin
              let l0, r0 = sets () in
              let before = cost objective l0 r0 in
              swapped.(id) <- not swapped.(id);
              let l1, r1 = sets () in
              let after = cost objective l1 r1 in
              if after < before then improved := true
              else swapped.(id) <- not swapped.(id)
            end)
          ops
      done)
    binding.Binding.fus;
  Binding.set_swaps binding swapped
