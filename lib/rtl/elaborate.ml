module Nl = Hlp_netlist.Netlist
module Cl = Hlp_netlist.Cell_library
module Cdfg = Hlp_cdfg.Cdfg
module Binding = Hlp_core.Binding

type layout = {
  reg_bits : int array array;
  fu_left_sel : int array array;
  fu_right_sel : int array array;
  fu_sub : int option array;
  reg_wsel : int array array;
  written_regs : int list;
}

type t = {
  datapath : Datapath.t;
  netlist : Nl.t;
  layout : layout;
}

let output_name ~reg ~bit = Printf.sprintf "r%d_next%d" reg bit

let elaborate (dp : Datapath.t) =
  let width = dp.Datapath.width in
  let n_regs = Datapath.num_regs dp in
  let b = Nl.create_builder ~name:"datapath" in
  (* Inputs: register words first, then per-FU control lines.  Input
     positions (indices into the input vector) are recorded in the
     layout. *)
  let input_pos = ref 0 in
  let fresh name =
    let id = Nl.add_input b name in
    let pos = !input_pos in
    incr input_pos;
    (id, pos)
  in
  let reg_ids = Array.make n_regs [||] in
  let reg_bits = Array.make n_regs [||] in
  for r = 0 to n_regs - 1 do
    let pairs =
      Array.init width (fun bit -> fresh (Printf.sprintf "r%d_%d" r bit))
    in
    reg_ids.(r) <- Array.map fst pairs;
    reg_bits.(r) <- Array.map snd pairs
  done;
  let n_fus = Array.length dp.Datapath.fus in
  let fu_left_sel = Array.make n_fus [||] in
  let fu_right_sel = Array.make n_fus [||] in
  let fu_sub = Array.make n_fus None in
  let fu_left_sel_ids = Array.make n_fus [||] in
  let fu_right_sel_ids = Array.make n_fus [||] in
  let fu_sub_ids = Array.make n_fus None in
  Array.iteri
    (fun f inst ->
      let mk tag n =
        let pairs =
          Array.init (Cl.sel_bits n) (fun i ->
              fresh (Printf.sprintf "fu%d_%s%d" f tag i))
        in
        (Array.map fst pairs, Array.map snd pairs)
      in
      let lids, lpos = mk "lsel" (Array.length inst.Datapath.left_sources) in
      let rids, rpos = mk "rsel" (Array.length inst.Datapath.right_sources) in
      fu_left_sel_ids.(f) <- lids;
      fu_left_sel.(f) <- lpos;
      fu_right_sel_ids.(f) <- rids;
      fu_right_sel.(f) <- rpos;
      if inst.Datapath.fu.Binding.fu_class = Cdfg.Add_sub then begin
        let id, pos = fresh (Printf.sprintf "fu%d_sub" f) in
        fu_sub_ids.(f) <- Some id;
        fu_sub.(f) <- Some pos
      end)
    dp.Datapath.fus;
  (* FU cells. *)
  let fu_out = Array.make n_fus [||] in
  Array.iteri
    (fun f inst ->
      let side sources sel_ids =
        let data = Array.map (fun r -> reg_ids.(r)) sources in
        Cl.mux_tree b ~sel:sel_ids ~data
      in
      let left = side inst.Datapath.left_sources fu_left_sel_ids.(f) in
      let right = side inst.Datapath.right_sources fu_right_sel_ids.(f) in
      fu_out.(f) <-
        (match inst.Datapath.fu.Binding.fu_class with
        | Cdfg.Add_sub ->
            let sub =
              match fu_sub_ids.(f) with Some id -> id | None -> assert false
            in
            Cl.add_sub_impl b ~impl:dp.Datapath.adder_impls.(f) ~a:left
              ~b_in:right ~sub
        | Cdfg.Multiplier ->
            Cl.array_multiplier b ~a:left ~b_in:right ~truncate:true))
    dp.Datapath.fus;
  (* Register write muxes.  The write-mux select is derived from the same
     FSM state as everything else; since at most one writer loads a given
     register per step, selects are the writer index from the control
     table.  They are control inputs as well. *)
  let written_regs = ref [] in
  let reg_wsel = Array.make (max n_regs 1) [||] in
  for r = n_regs - 1 downto 0 do
    let writers = dp.Datapath.reg_writers.(r) in
    if Array.length writers > 0 then begin
      written_regs := r :: !written_regs;
      let next =
        if Array.length writers = 1 then fu_out.(writers.(0))
        else begin
          let pairs =
            Array.init
              (Cl.sel_bits (Array.length writers))
              (fun i -> fresh (Printf.sprintf "r%d_wsel%d" r i))
          in
          reg_wsel.(r) <- Array.map snd pairs;
          let data = Array.map (fun f -> fu_out.(f)) writers in
          Cl.mux_tree b ~sel:(Array.map fst pairs) ~data
        end
      in
      Array.iteri
        (fun bit id -> Nl.mark_output b (output_name ~reg:r ~bit) id)
        next
    end
  done;
  let netlist = Nl.freeze b in
  {
    datapath = dp;
    netlist;
    layout =
      {
        reg_bits;
        fu_left_sel;
        fu_right_sel;
        fu_sub;
        reg_wsel;
        written_regs = !written_regs;
      };
  }

let num_inputs t = Array.length (Nl.inputs t.netlist)

let set_reg_bits t buffer ~reg ~value =
  Array.iteri
    (fun bit pos -> buffer.(pos) <- value land (1 lsl bit) <> 0)
    t.layout.reg_bits.(reg)

(* Control lines: per FU its left and right selects and subtract line,
   per written register its write select, each given by [set pos v]
   (with [pos] a buffer position) from the step's control table, 0 for
   an idle FU or a register not loaded.  Plain loops around the one
   [set] closure, since the simulator sets them at every step. *)
let[@inline] set_bits set positions value =
  for i = 0 to Array.length positions - 1 do
    set positions.(i) (value land (1 lsl i) <> 0)
  done

let set_control_lines t ~step set =
  let ctrl = t.datapath.Datapath.ctrl.(step) in
  let fu_ctrl = ctrl.Datapath.fu_ctrl in
  for f = 0 to Array.length fu_ctrl - 1 do
    (match fu_ctrl.(f) with
    | Some fc ->
        set_bits set t.layout.fu_left_sel.(f) fc.Datapath.left_sel;
        set_bits set t.layout.fu_right_sel.(f) fc.Datapath.right_sel
    | None ->
        set_bits set t.layout.fu_left_sel.(f) 0;
        set_bits set t.layout.fu_right_sel.(f) 0);
    match t.layout.fu_sub.(f) with
    | Some pos ->
        set pos
          (match fu_ctrl.(f) with Some fc -> fc.Datapath.subtract | None -> false)
    | None -> ()
  done;
  (* Write-mux selects: pick the loading writer if any; hold 0 otherwise. *)
  List.iter
    (fun r ->
      let value = Option.value ~default:0 ctrl.Datapath.reg_load.(r) in
      set_bits set t.layout.reg_wsel.(r) value)
    t.layout.written_regs

let set_controls t buffer ~step =
  set_control_lines t ~step (fun pos v -> buffer.(pos) <- v)

(* Word-level variants for the bit-parallel simulator: the buffer holds
   one machine word per netlist input, each lane a separate simulation
   vector.  Control lines are FSM state, identical across lanes, so they
   broadcast over [mask] (inactive lanes stay 0 — the canonical all-false
   assignment). *)

let set_reg_words t buffer ~reg ~words =
  Array.iteri
    (fun bit pos -> buffer.(pos) <- words.(bit))
    t.layout.reg_bits.(reg)

let set_controls_words t buffer ~step ~mask =
  set_control_lines t ~step (fun pos v ->
      buffer.(pos) <- (if v then mask else 0))

let read_outputs t outputs ~reg =
  if Array.length t.datapath.Datapath.reg_writers.(reg) = 0 then None
  else begin
    let value = ref 0 in
    for bit = 0 to t.datapath.Datapath.width - 1 do
      match List.assoc_opt (output_name ~reg ~bit) outputs with
      | Some true -> value := !value lor (1 lsl bit)
      | Some false -> ()
      | None -> failwith "Elaborate.read_outputs: missing output bit"
    done;
    Some !value
  end
