(* Where a flow request's heap words go.  One pass is one [Flow.run] of
   each of the 21 flow-mix designs (7 benchmarks x {LOPASS, HLPower
   alpha 1.0, HLPower alpha 0.5}, width 16, 150 vectors) on this domain;
   the table gives, per pass and in millions of words, the minor words,
   the words promoted from the minor heap, the words allocated straight
   into the major heap, and major = promoted + direct.

   The component rows replay [Flow.run]'s phases one at a time, in its
   order: datapath and elaboration, mapping, the flow checker's lint
   rules (netlist rules, BLIF writer, BLIF parser, round-trip
   evaluation, mapped-cover rules), simulation, then power and mux
   statistics.  A word promoted in one phase may have been allocated
   in an earlier one.  The last row times the flows themselves, each
   from an empty minor heap.

     dune exec bench/alloc.exe [-- PASSES]

   Minor words come from [Gc.minor_words] (OCaml 5.1's [Gc.counters]
   leaves out most of the minor heap's current fill), promoted and
   major words from [Gc.counters]; both count this domain only. *)

module Binder = Hlp_core.Binder
module Benchmarks = Hlp_cdfg.Benchmarks
module Flow = Hlp_rtl.Flow
module D = Hlp_lint.Diagnostic

let counters () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), promoted, major)

(* Words per component, in first-measured order. *)
let rows : (string * (float * float * float) ref) list ref = ref []

let measure name f =
  let mi0, pr0, ma0 = counters () in
  let r = f () in
  let mi1, pr1, ma1 = counters () in
  let acc =
    match List.assoc_opt name !rows with
    | Some acc -> acc
    | None ->
        let acc = ref (0., 0., 0.) in
        rows := !rows @ [ (name, acc) ];
        acc
  in
  let mi, pr, ma = !acc in
  acc := (mi +. mi1 -. mi0, pr +. pr1 -. pr0, ma +. ma1 -. ma0);
  r

let check ds = if D.errors ds <> [] then failwith "alloc: lint errors"

(* [Flow.run]'s phases under the default configuration at 150
   vectors. *)
let components binding =
  let dp, elab =
    measure "elaborate" (fun () ->
        let dp = Hlp_rtl.Datapath.build ~width:16 binding in
        Hlp_rtl.Datapath.validate dp;
        (dp, Hlp_rtl.Elaborate.elaborate dp))
  in
  ignore dp;
  let nl = elab.Hlp_rtl.Elaborate.netlist in
  let m = measure "map" (fun () -> Hlp_mapper.Mapper.map nl ~k:4) in
  check (measure "lint.netlist" (fun () -> Hlp_lint.Rules_netlist.check nl));
  let text = measure "lint.blif_write" (fun () -> Hlp_netlist.Blif.to_string nl) in
  let parsed =
    measure "lint.blif_parse" (fun () -> Hlp_netlist.Blif.of_string text)
  in
  if
    not
      (measure "lint.roundtrip_eval" (fun () ->
           Hlp_lint.Rules_netlist.equivalent_on_random_vectors
             ~seed:"lint-blif-roundtrip" nl parsed))
  then failwith "alloc: round trip differs";
  check (measure "lint.mapped" (fun () -> Hlp_lint.Rules_mapped.check ~k:4 m));
  let network = m.Hlp_mapper.Mapper.lut_network in
  let sim =
    measure "sim" (fun () ->
        Hlp_rtl.Sim.run
          ~config:{ Hlp_rtl.Sim.vectors = 150; seed = "flow"; check = true }
          elab ~network)
  in
  ignore
    (measure "power+mux" (fun () ->
         ( Hlp_rtl.Power.analyze Hlp_rtl.Power.default_model ~network ~sim,
           Hlp_core.Binding.mux_stats binding )))

let () =
  let passes = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1 in
  let sa_table = lazy (Hlp_core.Sa_table.create ~width:16 ~k:4 ()) in
  let designs =
    List.concat_map
      (fun (profile : Benchmarks.profile) ->
        List.map
          (fun binder ->
            let prepared = Binder.prepare (Binder.Bench (profile, 0)) in
            ( profile.Benchmarks.bench_name,
              (Binder.run ~sa_table binder prepared).Binder.binding ))
          [ Binder.Lopass; Binder.Hlpower { alpha = 1.0 };
            Binder.Hlpower { alpha = 0.5 } ])
      Benchmarks.all
  in
  let config = { Flow.default_config with Flow.vectors = 150 } in
  let flows = ref (0., 0., 0.) in
  for _ = 1 to passes do
    List.iter
      (fun (design, binding) ->
        Gc.minor ();
        let mi0, pr0, ma0 = counters () in
        ignore (Flow.run ~config ~design binding);
        let mi1, pr1, ma1 = counters () in
        let mi, pr, ma = !flows in
        flows := (mi +. mi1 -. mi0, pr +. pr1 -. pr0, ma +. ma1 -. ma0))
      designs
  done;
  for _ = 1 to passes do
    List.iter
      (fun (_, binding) ->
        Gc.minor ();
        components binding)
      designs
  done;
  let per_pass = float_of_int passes *. 1e6 in
  Printf.printf "%-20s %9s %9s %9s %9s\n" "M words per pass" "minor"
    "promoted" "direct" "major";
  let row name (mi, pr, ma) =
    Printf.printf "%-20s %9.2f %9.2f %9.2f %9.2f\n" name (mi /. per_pass)
      (pr /. per_pass) ((ma -. pr) /. per_pass) (ma /. per_pass)
  in
  List.iter (fun (name, acc) -> row name !acc) !rows;
  row "Flow.run" !flows
