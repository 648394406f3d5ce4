(* Observability tests: the Span API's edge cases, Histogram.merge and
   Registry ordering laws, and the determinism of the span-trace /
   per-subsystem metric collectors. *)

module Sim = Pico_engine.Sim
module Span = Pico_engine.Span
module Stats = Pico_engine.Stats
module H = Pico_harness
module Cluster = H.Cluster
module Experiment = H.Experiment
module Tracefile = H.Tracefile
module Subsys_obs = H.Subsys_obs
module Report = H.Report
module Collectives = Pico_mpi.Collectives
module Costs = Pico_costs.Costs

let () = Costs.reset ()

(* --- Span API ----------------------------------------------------------- *)

let with_spans on f =
  Span.set_on on;
  Fun.protect ~finally:(fun () -> Span.set_on false) f

let test_span_disabled_is_null () =
  with_spans false @@ fun () ->
  let sim = Sim.create () in
  let evaluated = ref false in
  Sim.spawn sim (fun () ->
      let h = Span.begin_ sim ~cat:"test" ~name:"t" in
      Sim.delay sim 10.;
      (* arg thunks must not run while tracing is off *)
      Span.end_with sim h (fun () -> evaluated := true; []);
      Span.end_ sim Span.null);
  ignore (Sim.run sim);
  Alcotest.(check bool) "argf not evaluated" false !evaluated;
  Alcotest.(check int) "no spans recorded" 0 (List.length (Span.drain sim))

let test_span_nested () =
  with_spans true @@ fun () ->
  let sim = Sim.create () in
  Sim.spawn sim ~name:"p" (fun () ->
      let outer = Span.begin_ sim ~cat:"a" ~name:"outer" in
      Sim.delay sim 5.;
      let inner = Span.begin_ sim ~cat:"b" ~name:"inner" in
      Sim.delay sim 7.;
      Span.end_ sim ~args:[ ("k", "v") ] inner;
      Sim.delay sim 3.;
      Span.end_ sim outer);
  ignore (Sim.run sim);
  match Span.drain sim with
  | [ o; i ] ->
    Alcotest.(check string) "begin order" "outer" o.Sim.sp_name;
    Alcotest.(check (float 1e-9)) "outer begin" 0. o.Sim.sp_begin;
    Alcotest.(check (float 1e-9)) "outer end" 15. o.Sim.sp_end;
    Alcotest.(check (float 1e-9)) "inner begin" 5. i.Sim.sp_begin;
    Alcotest.(check (float 1e-9)) "inner end" 12. i.Sim.sp_end;
    Alcotest.(check string) "track is process name" "p" i.Sim.sp_track;
    Alcotest.(check bool) "args kept" true (i.Sim.sp_args = [ ("k", "v") ])
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_end_edge_cases () =
  with_spans true @@ fun () ->
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      (* end-without-begin is a no-op *)
      Span.end_ sim Span.null;
      let h = Span.begin_ sim ~cat:"c" ~name:"once" in
      Sim.delay sim 4.;
      Span.end_ sim h;
      Sim.delay sim 4.;
      (* double-end keeps the first end time *)
      Span.end_ sim h;
      (* never ended: dropped by drain *)
      ignore (Span.begin_ sim ~cat:"c" ~name:"open"));
  ignore (Sim.run sim);
  (match Span.drain sim with
   | [ sp ] ->
     Alcotest.(check string) "only the closed span" "once" sp.Sim.sp_name;
     Alcotest.(check (float 1e-9)) "first end wins" 4. sp.Sim.sp_end
   | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  Alcotest.(check int) "drain clears" 0 (List.length (Span.drain sim))

let test_span_to_json_off () =
  (* Rendering works with tracing off / nothing recorded. *)
  let sim = Sim.create () in
  let json = Span.to_json ~label:"empty" (Span.drain sim) in
  Alcotest.(check bool) "valid object" true
    (String.length json > 0 && json.[0] = '{');
  Alcotest.(check bool) "has traceEvents" true
    (String.length json >= 14 && String.sub json 1 13 = "\"traceEvents\"")

let test_span_json_escapes () =
  with_spans true @@ fun () ->
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      let h = Span.begin_ sim ~cat:"c" ~name:"quote\"and\\slash" in
      Sim.delay sim 1.;
      Span.end_ sim ~args:[ ("key\n", "tab\t") ] h);
  ignore (Sim.run sim);
  let json = Span.to_json (Span.drain sim) in
  let contains needle =
    let n = String.length needle and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped quote" true (contains "quote\\\"and\\\\slash");
  Alcotest.(check bool) "escaped newline" true (contains "key\\n");
  Alcotest.(check bool) "escaped tab" true (contains "tab\\t")

let contains_in haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i =
    i + n <= m && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let test_span_json_control_chars () =
  (* Control characters below 0x20 (other than \n and \t) must come out
     as \u escapes — in span names, categories, arg keys AND values. *)
  with_spans true @@ fun () ->
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      let h = Span.begin_ sim ~cat:"c\x01at" ~name:"bell\x07name" in
      Sim.delay sim 1.;
      Span.end_ sim ~args:[ ("k\x02ey", "va\x1flue\\\"q") ] h);
  ignore (Sim.run sim);
  let json = Span.to_json (Span.drain sim) in
  List.iter
    (fun (what, needle) ->
      Alcotest.(check bool) what true (contains_in json needle))
    [ ("name control", "bell\\u0007name"); ("cat control", "c\\u0001at");
      ("arg key control", "k\\u0002ey");
      ("arg value control + escapes", "va\\u001flue\\\\\\\"q") ];
  (* nothing un-escaped slipped through *)
  String.iter
    (fun c -> Alcotest.(check bool) "no raw control chars" false
        (Char.code c < 0x20 && c <> '\n'))
    json

let test_tracefile_escapes () =
  (* Same nasty strings through the multi-simulation collector: the
     process label comes from the sim label, the track from the process
     name — both rendered into metadata events. *)
  with_spans true @@ fun () ->
  Tracefile.clear ();
  let sim = Sim.create () in
  Sim.set_label sim "lab\"el\\one";
  Sim.spawn sim ~name:"proc\x03\"q" (fun () ->
      let h = Span.begin_ sim ~cat:"c" ~name:"n\x1bame" in
      Sim.delay sim 2.;
      Span.end_ sim ~args:[ ("a", "v\x00al") ] h);
  ignore (Sim.run sim);
  Tracefile.note_sim sim;
  let json = Tracefile.to_json () in
  Tracefile.clear ();
  List.iter
    (fun (what, needle) ->
      Alcotest.(check bool) what true (contains_in json needle))
    [ ("label escaped", "lab\\\"el\\\\one");
      ("track escaped", "proc\\u0003\\\"q");
      ("name escaped", "n\\u001bame"); ("arg value escaped", "v\\u0000al") ];
  String.iter
    (fun c -> Alcotest.(check bool) "no raw control chars" false
        (Char.code c < 0x20 && c <> '\n'))
    json

let test_dropped_open_spans () =
  (* Span.drain discards still-open spans; the count must surface
     through Sim.take_dropped_spans instead of vanishing. *)
  with_spans true @@ fun () ->
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      let h = Span.begin_ sim ~cat:"c" ~name:"closed" in
      Sim.delay sim 1.;
      Span.end_ sim h;
      ignore (Span.begin_ sim ~cat:"c" ~name:"left open");
      ignore (Span.begin_ sim ~cat:"c" ~name:"also open"));
  ignore (Sim.run sim);
  Alcotest.(check int) "nothing dropped before drain" 0
    (Sim.take_dropped_spans sim);
  Alcotest.(check int) "only the closed span survives" 1
    (List.length (Span.drain sim));
  Alcotest.(check int) "both open spans counted" 2
    (Sim.take_dropped_spans sim);
  Alcotest.(check int) "take clears the count" 0
    (Sim.take_dropped_spans sim)

(* --- Stats laws --------------------------------------------------------- *)

let prop_histogram_merge =
  QCheck2.Test.make ~name:"histogram merge is bucket-wise sum" ~count:200
    QCheck2.Gen.(
      pair
        (list (float_bound_inclusive 1e9))
        (list (float_bound_inclusive 1e9)))
    (fun (xs, ys) ->
      let mk vs =
        let h = Stats.Histogram.create () in
        List.iter (Stats.Histogram.add h) vs;
        h
      in
      let a = mk xs and b = mk ys in
      let m = Stats.Histogram.merge a b in
      let sum_assoc l1 l2 =
        List.fold_left
          (fun acc (k, v) ->
            let prev = try List.assoc k acc with Not_found -> 0 in
            (k, prev + v) :: List.remove_assoc k acc)
          l1 l2
        |> List.sort compare
      in
      let all = mk (xs @ ys) in
      Stats.Histogram.buckets m
      = sum_assoc (Stats.Histogram.buckets a) (Stats.Histogram.buckets b)
      && Stats.Histogram.count m
         = Stats.Histogram.count a + Stats.Histogram.count b
      (* quantiles are pure functions of the bucket counts, so they
         commute with merge: p50/p99/p999 of the merged histogram equal
         those of a from-scratch histogram over the concatenation *)
      && List.for_all
           (fun q ->
             Stats.Histogram.quantile m q = Stats.Histogram.quantile all q)
           [ 0.5; 0.99; 0.999; 1.0 ]
      && Stats.Histogram.p999 m = Stats.Histogram.percentile m 99.9
      && Stats.Histogram.quantile m 0.5 <= Stats.Histogram.quantile m 0.99
      && Stats.Histogram.quantile m 0.99 <= Stats.Histogram.p999 m)

let test_registry_tie_break () =
  let r = Stats.Registry.create () in
  (* Insert in an order that would betray hash-table iteration. *)
  List.iter
    (fun k -> Stats.Registry.add r k 10.)
    [ "zeta"; "alpha"; "mu" ];
  Stats.Registry.add r "big" 50.;
  Alcotest.(check (list string)) "desc time, then key"
    [ "big"; "alpha"; "mu"; "zeta" ]
    (List.map (fun (k, _, _) -> k) (Stats.Registry.entries r));
  Alcotest.(check (list string)) "top respects the same order"
    [ "big"; "alpha" ]
    (List.map (fun (k, _, _) -> k) (Stats.Registry.top 2 r))

(* --- Collector determinism ---------------------------------------------- *)

(* One small McKernel+HFI1 experiment with a large message: exercises
   offload, pio, sdma, lock and syscall spans plus the subsystem
   counters. *)
let run_world () =
  let cl = Cluster.build Cluster.Mckernel_hfi ~n_nodes:2 () in
  ignore
    (Experiment.run cl ~ranks_per_node:1 (fun comm ->
         let os = Pico_psm.Endpoint.os comm.Pico_mpi.Comm.ep in
         let len = 1 lsl 20 in
         let buf = os.Pico_psm.Endpoint.mmap_anon len in
         if comm.Pico_mpi.Comm.rank = 0 then
           Pico_mpi.Mpi.send comm ~dst:1 ~tag:1 ~va:buf ~len
         else Pico_mpi.Mpi.recv comm ~src:(Some 0) ~tag:1 ~va:buf ~len;
         Collectives.barrier comm;
         0.));
  cl

let test_tracefile_deterministic () =
  with_spans true @@ fun () ->
  let shot () =
    Tracefile.clear ();
    ignore (run_world ());
    let s = Tracefile.to_json () in
    Tracefile.clear ();
    s
  in
  let a = shot () in
  let b = shot () in
  Alcotest.(check bool) "spans were recorded" true (String.length a > 100);
  Alcotest.(check string) "byte-identical across runs" a b

let test_subsys_metrics_deterministic () =
  let shot figure =
    Subsys_obs.reset ();
    ignore (run_world ());
    Subsys_obs.flush ~figure;
    let prefix = figure ^ "/" in
    let n = String.length prefix in
    List.filter_map
      (fun (k, v) ->
        if String.length k > n && String.sub k 0 n = prefix then
          Some (String.sub k n (String.length k - n), v)
        else None)
      (Report.dump ())
  in
  let a = shot "obs_t1" in
  let b = shot "obs_t2" in
  Alcotest.(check bool) "metrics recorded" true (List.length a > 10);
  Alcotest.(check bool) "offload calls present" true
    (List.mem_assoc "offload/calls" a);
  Alcotest.(check bool) "sdma occupancy present" true
    (List.mem_assoc "sdma/occupancy" a);
  Alcotest.(check bool) "identical across runs" true (a = b)

let test_subsys_ratios_finite () =
  let finite_dump figure =
    Subsys_obs.flush ~figure;
    let prefix = figure ^ "/" in
    let n = String.length prefix in
    List.iter
      (fun (k, v) ->
        if String.length k > n && String.sub k 0 n = prefix then
          Alcotest.(check bool) (k ^ " finite") true (Float.is_finite v))
      (Report.dump ())
  in
  (* Degenerate window: a built-but-never-run cluster has wall_ns = 0 and
     zero traffic, so every ratio denominator (available engine time,
     total bytes, call counts) is zero.  Flushing it must emit only
     finite values — 0, never NaN/inf — and must not raise. *)
  Subsys_obs.reset ();
  Subsys_obs.note_cluster (Cluster.build Cluster.Mckernel_hfi ~n_nodes:2 ());
  finite_dump "obs_degenerate";
  (* Mixed window: the degenerate cluster's zero-duration sample merges
     with a real run without poisoning any ratio. *)
  Subsys_obs.reset ();
  Subsys_obs.note_cluster (Cluster.build Cluster.Mckernel_hfi ~n_nodes:2 ());
  ignore (run_world ());
  finite_dump "obs_mixed"

(* The exported NaN-safe ratio is what every figure-level retention and
   inflation metric goes through: degenerate windows (zero or negative
   denominator, non-finite numerator) must yield 0, never NaN/inf. *)
let test_ratio_degenerate () =
  let ck name want got = Alcotest.(check (float 0.)) name want got in
  ck "0/0" 0. (Subsys_obs.ratio 0. 0.);
  ck "n/0" 0. (Subsys_obs.ratio 5. 0.);
  ck "negative denominator" 0. (Subsys_obs.ratio 5. (-1.));
  ck "nan numerator" 0. (Subsys_obs.ratio Float.nan 2.);
  ck "inf numerator" 0. (Subsys_obs.ratio Float.infinity 2.);
  ck "ordinary quotient" 0.5 (Subsys_obs.ratio 1. 2.)

(* The serve figure's ratio-style report keys on a real degenerate
   window: at the zero-knob defaults every plan is empty, so the world
   runs zero requests over a zero serve horizon.  Offered load divides
   by that zero horizon and goodput_ratio divides by zero arrivals —
   both must come out 0 through Subsys_obs.ratio, never NaN/inf. *)
let test_serve_ratios_degenerate () =
  let open H.Figures in
  let res, out =
    serve_world (Cluster.build Cluster.Mckernel_hfi ~n_nodes:2 ())
  in
  let sv = serve_aggregate res out in
  let ck name v =
    Alcotest.(check bool) (name ^ " finite") true (Float.is_finite v);
    Alcotest.(check (float 0.)) name 0. v
  in
  Alcotest.(check int) "zero arrivals" 0 sv.sv_arrivals;
  ck "offered_rps" sv.sv_offered_rps;
  ck "goodput_rps" sv.sv_goodput_rps;
  ck "goodput_ratio" sv.sv_goodput_ratio;
  ck "occupancy" sv.sv_occupancy;
  ck "p99" sv.sv_p99

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [ ("span",
       [ Alcotest.test_case "disabled is null" `Quick test_span_disabled_is_null;
         Alcotest.test_case "nested" `Quick test_span_nested;
         Alcotest.test_case "end edge cases" `Quick test_span_end_edge_cases;
         Alcotest.test_case "to_json off" `Quick test_span_to_json_off;
         Alcotest.test_case "json escapes" `Quick test_span_json_escapes;
         Alcotest.test_case "json control chars" `Quick
           test_span_json_control_chars;
         Alcotest.test_case "dropped open spans" `Quick
           test_dropped_open_spans ]);
      ("stats",
       [ qc prop_histogram_merge;
         Alcotest.test_case "registry tie-break" `Quick test_registry_tie_break ]);
      ("collectors",
       [ Alcotest.test_case "tracefile deterministic" `Quick
           test_tracefile_deterministic;
         Alcotest.test_case "tracefile escapes" `Quick test_tracefile_escapes;
         Alcotest.test_case "subsys metrics deterministic" `Quick
           test_subsys_metrics_deterministic;
         Alcotest.test_case "subsys ratios finite" `Quick
           test_subsys_ratios_finite;
         Alcotest.test_case "ratio degenerate windows" `Quick
           test_ratio_degenerate;
         Alcotest.test_case "serve ratios on a zero-request window" `Quick
           test_serve_ratios_degenerate ]) ]
