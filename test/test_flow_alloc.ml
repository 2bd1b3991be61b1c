(* What one flow request allocates in the major heap.  In the daemon the
   two worker domains share every major collection, so a flow's
   major-heap words cost throughput beyond their own CPU time.  Two
   width-16 flows, pr and wang bound by HLPower at alpha 0.5 and
   simulated for 150 vectors (flow-mix's setting), run on this domain
   from an empty minor heap; their major words (promoted and allocated
   there directly, [Gc.counters], which counts the calling domain) must
   stay within [budget].

   The direct words repeat exactly (149,417 for pr, 152,481 for wang);
   the promoted ones depend on whether a major slice forces a minor
   collection while a flow's mapping is live, which varies with the
   heap's history.  Repeated in one process, pr took 212,508 to 272,484
   words and wang 228,243 to 296,300; before the flow's working arrays
   were sized and its garbage cut they took 543,780 to 545,802 and
   604,722 to 607,261.  The budget is about 10 % above the two highest
   together. *)

module Binder = Hlp_core.Binder
module Benchmarks = Hlp_cdfg.Benchmarks
module Flow = Hlp_rtl.Flow

let budget = 625_000.

let major_words f =
  Gc.minor ();
  let _, _, before = Gc.counters () in
  f ();
  let _, _, after = Gc.counters () in
  after -. before

let test_flow_budget () =
  let sa_table = lazy (Hlp_core.Sa_table.create ~width:16 ~k:4 ()) in
  let config = { Flow.default_config with Flow.vectors = 150 } in
  let words =
    List.map
      (fun bench ->
        let prepared = Binder.prepare (Binder.Bench (Benchmarks.find bench, 0)) in
        let binding =
          (Binder.run ~sa_table (Binder.Hlpower { alpha = 0.5 }) prepared)
            .Binder.binding
        in
        major_words (fun () -> ignore (Flow.run ~config ~design:bench binding)))
      [ "pr"; "wang" ]
  in
  let total = List.fold_left ( +. ) 0. words in
  if total > budget then
    Alcotest.failf "pr and wang flows allocated %.0f major words (%s), over %.0f"
      total
      (String.concat " + " (List.map (Printf.sprintf "%.0f") words))
      budget

let suite =
  [
    Alcotest.test_case "pr and wang flows within the major-heap budget" `Quick
      test_flow_budget;
  ]
