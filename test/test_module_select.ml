module Nl = Hlp_netlist.Netlist
module Cl = Hlp_netlist.Cell_library
module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Benchmarks = Hlp_cdfg.Benchmarks
module Reg_binding = Hlp_core.Reg_binding
module Binding = Hlp_core.Binding
module Lopass = Hlp_core.Lopass
module Module_select = Hlp_core.Module_select
module Mapper = Hlp_mapper.Mapper
module Datapath = Hlp_rtl.Datapath
module Elaborate = Hlp_rtl.Elaborate
module Sim = Hlp_rtl.Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let bits_of_int v width = Array.init width (fun i -> v land (1 lsl i) <> 0)

let int_of_values values word =
  Array.to_list word
  |> List.mapi (fun i id -> if values.(id) then 1 lsl i else 0)
  |> List.fold_left ( lor ) 0

(* --- carry-select adder --- *)

let make_csa width block =
  let b = Nl.create_builder ~name:"csa" in
  let a = Cl.input_word b ~prefix:"a" ~width in
  let bw = Cl.input_word b ~prefix:"b" ~width in
  let cin = Nl.add_const b false in
  let sum, cout = Cl.carry_select_adder b ~a ~b_in:bw ~cin ~block in
  Array.iteri (fun i id -> Nl.mark_output b (Printf.sprintf "s%d" i) id) sum;
  Nl.mark_output b "cout" cout;
  let t = Nl.freeze b in
  ( (fun x y ->
      let assignment =
        Array.append (bits_of_int x width) (bits_of_int y width)
      in
      int_of_values (Nl.eval t assignment) sum),
    t )

let test_carry_select_exhaustive () =
  List.iter
    (fun block ->
      let add, _ = make_csa 6 block in
      for x = 0 to 63 do
        for y = 0 to 63 do
          check_int
            (Printf.sprintf "%d+%d (block %d)" x y block)
            ((x + y) land 63) (add x y)
        done
      done)
    [ 1; 2; 3; 4; 7 ]

let test_carry_select_shallower () =
  (* At 16 bits, the carry-select adder should map to fewer LUT levels
     than the ripple adder (that is its purpose), at more LUTs. *)
  let depth_of make =
    let b = Nl.create_builder ~name:"a" in
    let a = Cl.input_word b ~prefix:"a" ~width:16 in
    let bw = Cl.input_word b ~prefix:"b" ~width:16 in
    let cin = Nl.add_const b false in
    let sum, _ = make b a bw cin in
    Array.iteri (fun i id -> Nl.mark_output b (Printf.sprintf "s%d" i) id) sum;
    let t = Nl.freeze b in
    let m = Mapper.map t ~k:4 in
    (m.Mapper.depth, m.Mapper.lut_count)
  in
  let ripple_depth, ripple_luts =
    depth_of (fun b a bw cin -> Cl.ripple_adder b ~a ~b_in:bw ~cin)
  in
  let csel_depth, csel_luts =
    depth_of (fun b a bw cin ->
        Cl.carry_select_adder b ~a ~b_in:bw ~cin ~block:4)
  in
  check_bool
    (Printf.sprintf "depth %d < %d" csel_depth ripple_depth)
    true (csel_depth < ripple_depth);
  check_bool "area cost" true (csel_luts > ripple_luts)

let test_add_sub_impl_subtracts () =
  let b = Nl.create_builder ~name:"csub" in
  let a = Cl.input_word b ~prefix:"a" ~width:5 in
  let bw = Cl.input_word b ~prefix:"b" ~width:5 in
  let sub = Nl.add_const b true in
  let diff = Cl.add_sub_impl b ~impl:Cl.Carry_select ~a ~b_in:bw ~sub in
  Array.iteri (fun i id -> Nl.mark_output b (Printf.sprintf "d%d" i) id) diff;
  let t = Nl.freeze b in
  for x = 0 to 31 do
    for y = 0 to 31 do
      let assignment = Array.append (bits_of_int x 5) (bits_of_int y 5) in
      check_int
        (Printf.sprintf "%d-%d" x y)
        ((x - y) land 31)
        (int_of_values (Nl.eval t assignment) diff)
    done
  done

(* --- module selection --- *)

let bind_bench name =
  let p = Benchmarks.find name in
  let g = Benchmarks.generate p in
  let schedule = Schedule.list_schedule g ~resources:(Benchmarks.resources p) in
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  Lopass.bind ~regs ~resources:(Benchmarks.resources p) schedule

let test_module_select_shapes () =
  let b = bind_bench "pr" in
  let impls =
    Module_select.choose ~width:8 ~k:4
      ~objective:Module_select.Min_delay b
  in
  check_int "one impl per fu" (List.length b.Binding.fus)
    (Array.length impls);
  (* Min_delay prefers carry-select for adder FUs at width 8+. *)
  List.iter
    (fun fu ->
      if fu.Binding.fu_class = Cdfg.Add_sub then
        check_bool "delay objective picks carry-select" true
          (impls.(fu.Binding.fu_id) = Cl.Carry_select))
    b.Binding.fus

let test_module_select_min_sa_prefers_ripple () =
  (* The ripple adder has less logic, hence lower estimated SA. *)
  let b = bind_bench "pr" in
  let impls =
    Module_select.choose ~width:8 ~k:4 ~objective:Module_select.Min_sa b
  in
  List.iter
    (fun fu ->
      if fu.Binding.fu_class = Cdfg.Add_sub then
        check_bool "sa objective picks ripple" true
          (impls.(fu.Binding.fu_id) = Cl.Ripple))
    b.Binding.fus

let test_module_select_end_to_end () =
  (* Datapath with carry-select adders still matches the golden model. *)
  let b = bind_bench "wang" in
  let impls =
    Module_select.choose ~width:5 ~k:4 ~objective:Module_select.Min_delay b
  in
  let dp = Datapath.build ~adder_impls:impls ~width:5 b in
  Datapath.validate dp;
  let elab = Elaborate.elaborate dp in
  let config = { Sim.default_config with Sim.vectors = 8; seed = "ms" } in
  let r = Sim.run ~config elab ~network:elab.Elaborate.netlist in
  check_bool "simulated with checks" true (r.Sim.total_toggles > 0)

let test_estimates_both_impls () =
  let b = bind_bench "pr" in
  let adder_fu =
    List.find (fun f -> f.Binding.fu_class = Cdfg.Add_sub) b.Binding.fus
  in
  let es = Module_select.estimates ~width:8 ~k:4 b adder_fu in
  check_int "two options" 2 (List.length es);
  List.iter
    (fun e ->
      check_bool "positive estimates" true
        Module_select.(e.est_sa > 0. && e.est_depth > 0 && e.est_luts > 0))
    es

let suite =
  [
    Alcotest.test_case "carry-select exhaustive 6-bit" `Quick
      test_carry_select_exhaustive;
    Alcotest.test_case "carry-select is shallower" `Quick
      test_carry_select_shallower;
    Alcotest.test_case "carry-select subtractor" `Quick
      test_add_sub_impl_subtracts;
    Alcotest.test_case "module select shapes" `Quick test_module_select_shapes;
    Alcotest.test_case "min-sa prefers ripple" `Quick
      test_module_select_min_sa_prefers_ripple;
    Alcotest.test_case "module select end-to-end (checked)" `Quick
      test_module_select_end_to_end;
    Alcotest.test_case "estimates cover both impls" `Quick
      test_estimates_both_impls;
  ]
