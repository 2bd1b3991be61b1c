module Nl = Hlp_netlist.Netlist
module Analysis = Hlp_static.Analysis
module Binding = Hlp_core.Binding
module Cdfg = Hlp_cdfg.Cdfg
module Rng = Hlp_util.Rng

(* The network's primary inputs are register bits plus FSM control
   lines (see Elaborate); a simulation cycle is one (vector, step)
   pair, every vector starting from the settled all-false canonical
   state with all registers zero.  Both input classes therefore have
   derivable per-cycle statistics, no gate-level simulation needed:

   - Control lines are deterministic per step: replaying the control
     table from the all-false start yields their exact duty cycle and
     exact transitions per vector.

   - Register bits follow the schedule's word-level dataflow: zero
     until first defined, then the input word (input registers, step 0)
     or the written FU word one step after each [reg_load].  Their
     statistics come from replaying that dataflow at the word level —
     integer adds, subtracts and multiplies over the control table,
     the same semantics as [Datapath.golden_eval] — over a few hundred
     random input samples.  This captures the value correlations a
     closed-form per-bit model misses (a product's low bits are biased
     toward 0; an accumulator's next word is correlated with its
     current one) and costs microseconds: the replay touches
     registers-times-steps words, not the netlist. *)

let seed = "static-model"
let default_samples = 128

let inputs ?(samples = default_samples) (elab : Elaborate.t) =
  if samples < 1 then invalid_arg "Static_model.inputs: samples < 1";
  let dp = elab.Elaborate.datapath in
  let layout = elab.Elaborate.layout in
  let n_inputs = Elaborate.num_inputs elab in
  let n_steps = Array.length dp.Datapath.ctrl in
  let fsteps = float_of_int n_steps in
  let res = Array.make n_inputs Analysis.default_input in
  (* Control lines: exact replay.  Only their positions are counted;
     every register bit is filled in by the replay below. *)
  let ctrl =
    Array.concat
      (Array.to_list layout.Elaborate.fu_left_sel
      @ Array.to_list layout.Elaborate.fu_right_sel
      @ Array.to_list layout.Elaborate.reg_wsel
      @ List.map
          (fun pos -> [| pos |])
          (List.filter_map Fun.id (Array.to_list layout.Elaborate.fu_sub)))
  in
  let ones = Array.make n_inputs 0 in
  let trans = Array.make n_inputs 0 in
  let cur = Array.make n_inputs false in
  let prev = Array.make n_inputs false in
  for step = 0 to n_steps - 1 do
    Elaborate.set_controls elab cur ~step;
    Array.iter
      (fun pos ->
        if cur.(pos) then ones.(pos) <- ones.(pos) + 1;
        if cur.(pos) <> prev.(pos) then trans.(pos) <- trans.(pos) + 1;
        prev.(pos) <- cur.(pos))
      ctrl
  done;
  Array.iter
    (fun pos ->
      let prob = float_of_int ones.(pos) /. fsteps in
      let density = float_of_int trans.(pos) /. fsteps in
      res.(pos) <- Analysis.input ~prob ~activity:density ~density)
    ctrl;
  (* Register bits: word-level Monte-Carlo replay of the schedule. *)
  let n_regs = Datapath.num_regs dp in
  let width = dp.Datapath.width in
  let mask = (1 lsl width) - 1 in
  let rng = Rng.create seed in
  let regs = Array.make n_regs 0 in
  let bit_ones = Array.make_matrix n_regs width 0 in
  let bit_trans = Array.make_matrix n_regs width 0 in
  (* Which register loads what from where is sample-invariant, so the
     control decode (reg_load index -> writer FU -> operand registers
     and operation) is done once per step here, not once per (sample,
     step) in the replay loop below. *)
  let step_loads =
    Array.map
      (fun ctrl ->
        let loads = ref [] in
        Array.iteri
          (fun r widx ->
            match widx with
            | None -> ()
            | Some widx -> (
                let fu = dp.Datapath.reg_writers.(r).(widx) in
                match ctrl.Datapath.fu_ctrl.(fu) with
                | None -> ()
                | Some fc ->
                    let inst = dp.Datapath.fus.(fu) in
                    let lsrc =
                      inst.Datapath.left_sources.(fc.Datapath.left_sel)
                    in
                    let rsrc =
                      inst.Datapath.right_sources.(fc.Datapath.right_sel)
                    in
                    let op =
                      match inst.Datapath.fu.Binding.fu_class with
                      | Cdfg.Add_sub when fc.Datapath.subtract -> 1
                      | Cdfg.Add_sub -> 0
                      | Cdfg.Multiplier -> 2
                    in
                    loads := (r, op, lsrc, rsrc) :: !loads))
          ctrl.Datapath.reg_load;
        Array.of_list !loads)
      dp.Datapath.ctrl
  in
  let max_loads =
    Array.fold_left (fun m l -> max m (Array.length l)) 0 step_loads
  in
  let load_vals = Array.make (max max_loads 1) 0 in
  (* A register's value changes only at loads, so its per-bit
     statistics are accounted per run of constant value rather than per
     step: a value visible for [len] consecutive steps adds [len] to
     every set bit's ones count, and each actual change adds one
     transition per differing bit.  The replay then scales with loads,
     not samples x steps x regs x width.  Each event is accounted
     SWAR-style to keep it branchless: the word is split into 7-bit
     chunks and each chunk mapped, via a 128-entry spread table, onto a
     native int holding seven byte-wide lane counters, scaled by the
     run length.  Lanes hold at most [n_steps + 1] counted steps per
     sample, so accumulators are flushed into [bit_ones]/[bit_trans]
     before a sample could overflow a byte lane; schedules too deep for
     a byte lane (over 254 steps) take a scalar per-bit path instead. *)
  let chunks = (width + 6) / 7 in
  let spread =
    Array.init 128 (fun v ->
        let w = ref 0 in
        for j = 0 to 6 do
          if (v lsr j) land 1 = 1 then w := !w lor (1 lsl (8 * j))
        done;
        !w)
  in
  let swar = n_steps + 1 <= 254 in
  let acc_ones = Array.make_matrix n_regs chunks 0 in
  let acc_trans = Array.make_matrix n_regs chunks 0 in
  let pending = ref 0 in
  let flush () =
    for r = 0 to n_regs - 1 do
      let o = bit_ones.(r) and t = bit_trans.(r) in
      let ao = acc_ones.(r) and at = acc_trans.(r) in
      for c = 0 to chunks - 1 do
        let base = 7 * c in
        let top = min 6 (width - 1 - base) in
        for j = 0 to top do
          let bit = base + j in
          o.(bit) <- o.(bit) + ((ao.(c) lsr (8 * j)) land 0xff);
          t.(bit) <- t.(bit) + ((at.(c) lsr (8 * j)) land 0xff)
        done;
        ao.(c) <- 0;
        at.(c) <- 0
      done
    done;
    pending := 0
  in
  let account_ones r v len =
    if v <> 0 && len > 0 then
      if swar then begin
        let ao = acc_ones.(r) in
        for c = 0 to chunks - 1 do
          ao.(c) <-
            ao.(c) + (spread.((v lsr (7 * c)) land 0x7f) * len)
        done
      end
      else begin
        let o = bit_ones.(r) in
        for j = 0 to width - 1 do
          o.(j) <- o.(j) + (((v lsr j) land 1) * len)
        done
      end
  in
  let account_trans r dv =
    if dv <> 0 then
      if swar then begin
        let at = acc_trans.(r) in
        for c = 0 to chunks - 1 do
          at.(c) <- at.(c) + spread.((dv lsr (7 * c)) land 0x7f)
        done
      end
      else begin
        let t = bit_trans.(r) in
        for j = 0 to width - 1 do
          t.(j) <- t.(j) + ((dv lsr j) land 1)
        done
      end
  in
  let run_start = Array.make n_regs 0 in
  for _sample = 1 to samples do
    if swar then begin
      if !pending + n_steps + 1 > 255 then flush ();
      pending := !pending + n_steps + 1
    end;
    Array.fill regs 0 n_regs 0;
    Array.fill run_start 0 n_regs 0;
    List.iter
      (fun (_, r) ->
        let v = Rng.int rng (mask + 1) in
        regs.(r) <- v;
        (* The transition from the all-false reset word into step 0 is
           a real settle the simulator counts too. *)
        account_trans r v)
      dp.Datapath.input_regs;
    for s = 0 to n_steps - 1 do
      (* Clock edge: capture next values where a load is scheduled.
         All FUs read the pre-load register values, so commits happen
         only after every operand of the step is read. *)
      let loads = step_loads.(s) in
      let nl = Array.length loads in
      for i = 0 to nl - 1 do
        let _, op, lsrc, rsrc = loads.(i) in
        let l = regs.(lsrc) and r' = regs.(rsrc) in
        load_vals.(i) <-
          (match op with
          | 0 -> (l + r') land mask
          | 1 -> (l - r') land mask
          | _ -> (l * r') land mask)
      done;
      for i = 0 to nl - 1 do
        let r, _, _, _ = loads.(i) in
        let v = load_vals.(i) in
        if v <> regs.(r) then begin
          (* The old value stays visible through step [s]; the loaded
             one lands at [s + 1] and is observed (and its settle
             counted) only if that step exists. *)
          account_ones r regs.(r) (s + 1 - run_start.(r));
          if s + 1 < n_steps then account_trans r (regs.(r) lxor v);
          regs.(r) <- v;
          run_start.(r) <- s + 1
        end
      done
    done;
    for r = 0 to n_regs - 1 do
      account_ones r regs.(r) (n_steps - run_start.(r))
    done
  done;
  if swar then flush ();
  let total = float_of_int (samples * n_steps) in
  Array.iteri
    (fun r bits ->
      Array.iteri
        (fun bit pos ->
          let prob = float_of_int bit_ones.(r).(bit) /. total in
          let density = float_of_int bit_trans.(r).(bit) /. total in
          res.(pos) <- Analysis.input ~prob ~activity:density ~density)
        bits)
    layout.Elaborate.reg_bits;
  res

let analyze ?glitch_gain ?samples (elab : Elaborate.t) ~network =
  if Array.length (Nl.inputs network) <> Elaborate.num_inputs elab then
    invalid_arg "Static_model.analyze: network does not match the datapath";
  let ins = inputs ?samples elab in
  Analysis.analyze ?glitch_gain network ~input:(fun k -> ins.(k))

let cycles (elab : Elaborate.t) ~vectors =
  vectors * Array.length elab.Elaborate.datapath.Datapath.ctrl
