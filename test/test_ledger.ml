(* Latency-ledger tests: the cursor/segment semantics of the Ledger API,
   the phases-sum-exactly invariant over real simulated worlds, the
   ledgers-off no-op guarantee, shard-on/off and repeat-run determinism
   of the recorded content, and the exact quantiles backing the
   breakdown statistics. *)

module Sim = Pico_engine.Sim
module Ledger = Pico_engine.Ledger
module Stats = Pico_engine.Stats
module H = Pico_harness
module Cluster = H.Cluster
module Experiment = H.Experiment
module Breakdown = H.Breakdown
module Costs = Pico_costs.Costs

let () = Costs.reset ()

let with_ledgers on f =
  Ledger.set_on on;
  Fun.protect ~finally:(fun () -> Ledger.set_on false) f

(* --- Ledger API semantics ----------------------------------------------- *)

let test_disabled_is_null () =
  with_ledgers false @@ fun () ->
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      let lg = Ledger.begin_ sim ~op:"test/op" in
      Alcotest.(check bool) "off handle is null" true (lg = Ledger.null);
      Sim.delay sim 10.;
      Ledger.mark sim lg ~phase:"a";
      Ledger.close sim lg ~phase:"b";
      Ledger.step sim ~series:"s" 1);
  ignore (Sim.run sim);
  Alcotest.(check int) "no ledgers recorded" 0
    (List.length (Ledger.drain sim));
  Alcotest.(check int) "no steps recorded" 0
    (List.length (Ledger.drain_steps sim))

let test_phases_partition () =
  with_ledgers true @@ fun () ->
  let sim = Sim.create () in
  Sim.spawn sim ~name:"p" (fun () ->
      let lg = Ledger.begin_ sim ~op:"test/op" in
      Sim.delay sim 5.;
      Ledger.mark sim lg ~phase:"a";
      Sim.delay sim 7.;
      Ledger.mark sim lg ~phase:"b";
      (* no time passed: the zero-length segment is skipped *)
      Ledger.mark sim lg ~phase:"zero";
      Sim.delay sim 3.;
      Ledger.close sim lg ~phase:"c");
  ignore (Sim.run sim);
  match Ledger.drain sim with
  | [ ld ] ->
    Alcotest.(check string) "op" "test/op" ld.Sim.ld_op;
    Alcotest.(check string) "track" "p" ld.Sim.ld_track;
    Alcotest.(check (float 0.)) "begin" 0. ld.Sim.ld_begin;
    Alcotest.(check (float 0.)) "end" 15. ld.Sim.ld_end;
    (match List.rev ld.Sim.ld_phases with
     | [ (pa, a0, a1); (pb, b0, b1); (pc, c0, c1) ] ->
       Alcotest.(check (list string)) "phase names" [ "a"; "b"; "c" ]
         [ pa; pb; pc ];
       Alcotest.(check (float 0.)) "a start" 0. a0;
       Alcotest.(check (float 0.)) "a end" 5. a1;
       Alcotest.(check (float 0.)) "b start" 5. b0;
       Alcotest.(check (float 0.)) "b end" 12. b1;
       Alcotest.(check (float 0.)) "c start" 12. c0;
       Alcotest.(check (float 0.)) "c end" 15. c1
     | l -> Alcotest.failf "expected 3 phases, got %d" (List.length l));
    Alcotest.(check (float 0.)) "total is the segment fold" 15.
      ld.Sim.ld_total
  | l -> Alcotest.failf "expected 1 ledger, got %d" (List.length l)

let test_close_idempotent () =
  with_ledgers true @@ fun () ->
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      let lg = Ledger.begin_ sim ~op:"test/op" in
      Sim.delay sim 4.;
      Ledger.close sim lg ~phase:"first";
      Sim.delay sim 4.;
      (* double-close and post-close marks are no-ops *)
      Ledger.mark sim lg ~phase:"late";
      Ledger.close sim lg ~phase:"second";
      (* never closed: not recorded *)
      ignore (Ledger.begin_ sim ~op:"test/open"));
  ignore (Sim.run sim);
  match Ledger.drain sim with
  | [ ld ] ->
    Alcotest.(check (float 0.)) "first close wins" 4. ld.Sim.ld_end;
    Alcotest.(check int) "one phase" 1 (List.length ld.Sim.ld_phases)
  | l -> Alcotest.failf "expected 1 ledger, got %d" (List.length l)

(* --- The invariant over a real world ------------------------------------ *)

(* One small McKernel+HFI1 experiment with a large message: offloaded
   syscalls, PIO and SDMA sends, PSM rendezvous and MPI calls all leave
   ledgers.  [Experiment.run] drains them into [Breakdown]. *)
let world ?(sharding = false) ?(ordered_arrivals = false) () =
  let cl =
    Cluster.build Cluster.Mckernel_hfi ~n_nodes:2 ~sharding ~ordered_arrivals ()
  in
  let res =
    Experiment.run cl ~ranks_per_node:1 (fun comm ->
        let os = Pico_psm.Endpoint.os comm.Pico_mpi.Comm.ep in
        let len = 1 lsl 20 in
        let buf = os.Pico_psm.Endpoint.mmap_anon len in
        if comm.Pico_mpi.Comm.rank = 0 then
          Pico_mpi.Mpi.send comm ~dst:1 ~tag:1 ~va:buf ~len
        else Pico_mpi.Mpi.recv comm ~src:(Some 0) ~tag:1 ~va:buf ~len;
        Pico_mpi.Collectives.barrier comm;
        0.)
  in
  (cl, res.Experiment.fom_ns)

let run_world ?sharding ?ordered_arrivals () =
  snd (world ?sharding ?ordered_arrivals ())

let bits = Int64.bits_of_float

let test_phases_sum_exactly () =
  with_ledgers true @@ fun () ->
  ignore (Breakdown.take_ledgers ());
  ignore (run_world ());
  let lgs = Breakdown.take_ledgers () in
  Alcotest.(check bool) "a real population" true (List.length lgs > 30);
  let ops = List.sort_uniq compare (List.map (fun (_, ld) -> ld.Sim.ld_op) lgs) in
  List.iter
    (fun op ->
      Alcotest.(check bool) (op ^ " recorded") true (List.mem op ops))
    [ "offload/mmap"; "mpi/MPI_Send"; "psm/send"; "sdma/tx"; "pio/send";
      "syscall/writev"; "translate/pt_walk" ];
  let nonzero = ref 0 in
  List.iter
    (fun (_, ld) ->
      let phases = List.rev ld.Sim.ld_phases in
      (match phases with
       | [] ->
         (* an op that took zero simulated time: the interval is a
            point, the partition is empty *)
         Alcotest.(check bool) "zero-time op starts = ends" true
           (bits ld.Sim.ld_begin = bits ld.Sim.ld_end);
         Alcotest.(check (float 0.)) "zero-time op total" 0. ld.Sim.ld_total
       | (_, first_start, _) :: _ ->
         incr nonzero;
         (* contiguity: segments share boundary timestamps exactly and
            cover [ld_begin, ld_end] with no gap or overlap *)
         Alcotest.(check bool) "first starts at begin" true
           (bits first_start = bits ld.Sim.ld_begin);
         let last_end =
           List.fold_left
             (fun prev (_, s, e) ->
               Alcotest.(check bool) "contiguous" true (bits s = bits prev);
               Alcotest.(check bool) "non-empty segment" true (e > s);
               e)
             first_start phases
         in
         Alcotest.(check bool) "last ends at end" true
           (bits last_end = bits ld.Sim.ld_end));
      (* the invariant: re-summing the stored segments in record order
         reproduces the stored end-to-end total bit for bit *)
      let refold =
        List.fold_left (fun acc (_, s, e) -> acc +. (e -. s)) 0. phases
      in
      Alcotest.(check bool) "phases sum exactly to end-to-end" true
        (bits refold = bits ld.Sim.ld_total))
    lgs;
  Alcotest.(check bool) "most ledgers have phases" true
    (!nonzero * 2 > List.length lgs)

let test_off_is_noop () =
  (* Arming ledgers is host-side recording only: simulation results are
     bit-identical with the recorder on or off, and an unarmed run
     records nothing. *)
  let off = with_ledgers false (fun () -> run_world ()) in
  Alcotest.(check int) "off records nothing" 0
    (List.length (Breakdown.take_ledgers ()));
  let on = with_ledgers true (fun () -> run_world ()) in
  Alcotest.(check bool) "ledgers recorded when on" true
    (List.length (Breakdown.take_ledgers ()) > 0);
  Alcotest.(check bool) "results bit-identical" true (bits off = bits on)

let test_repeat_deterministic () =
  with_ledgers true @@ fun () ->
  let shot () =
    ignore (Breakdown.take_ledgers ());
    ignore (run_world ());
    Breakdown.take_fingerprint ()
  in
  Alcotest.(check string) "byte-identical across runs" (shot ()) (shot ())

let test_shard_identity () =
  (* The ledger content a sharded run records is identical to the
     unsharded run's (under the shared ordered arrival tie-break);
     test_scale's `umt wavefront identity` checks it on a denser world. *)
  with_ledgers true @@ fun () ->
  let shot sharding =
    ignore (Breakdown.take_ledgers ());
    let fom = run_world ~sharding ~ordered_arrivals:true () in
    (Breakdown.take_fingerprint (), fom)
  in
  let lg_off, fom_off = shot false in
  let lg_on, fom_on = shot true in
  Alcotest.(check bool) "results bit-identical" true
    (bits fom_off = bits fom_on);
  Alcotest.(check string) "ledger content identical" lg_off lg_on

(* --- Breakdown flush ----------------------------------------------------- *)

let has_prefix p k =
  String.length k >= String.length p && String.sub k 0 (String.length p) = p

(* The laws every flushed timeline obeys: levels are never negative, the
   mean is the mean of the buckets, and the peak bounds every bucket. *)
let check_timelines ~figure m =
  let pre = figure ^ "/timeline/" in
  let series =
    List.filter_map
      (fun (k, _) ->
        if has_prefix pre k && Filename.basename k = "mean" then
          Some (Filename.dirname k)
        else None)
      m
  in
  Alcotest.(check bool) "timelines recorded" true (series <> []);
  List.iter
    (fun (k, v) ->
      if has_prefix pre k then
        Alcotest.(check bool) (k ^ " >= 0") true (v >= 0.))
    m;
  List.iter
    (fun sr ->
      let get k = List.assoc (sr ^ "/" ^ k) m in
      let buckets =
        List.init 16 (fun i -> get (Printf.sprintf "bucket%02d" i))
      in
      let mean = get "mean" and peak = get "peak" in
      let bucket_mean = List.fold_left ( +. ) 0. buckets /. 16. in
      Alcotest.(check bool) (sr ^ " mean = mean of buckets") true
        (Float.abs (mean -. bucket_mean) <= 1e-9 *. Float.max 1. mean);
      List.iter
        (fun v ->
          Alcotest.(check bool) (sr ^ " peak >= bucket") true (peak >= v))
        buckets)
    series

let test_flush_keys () =
  with_ledgers true @@ fun () ->
  Breakdown.clear ();
  let cl, _ = world () in
  Breakdown.flush ~figure:"lgt";
  let m = Breakdown.dump () in
  Alcotest.(check bool) "keys recorded" true (List.length m > 20);
  let get k =
    match List.assoc_opt k m with
    | Some v -> v
    | None -> Alcotest.failf "missing key %s" k
  in
  let n_engines =
    Array.fold_left
      (fun n env ->
        n + Pico_nic.Sdma.n_engines (Pico_nic.Hfi.sdma env.Cluster.hfi))
      0 cl.Cluster.nodes
  in
  (* every op has the reserved end_to_end pseudo-phase *)
  let e2e = get "lgt/lat/sdma/tx/end_to_end/total_ns" in
  Alcotest.(check bool) "sdma end-to-end positive" true (e2e > 0.);
  (* quantiles are monotone *)
  let p50 = get "lgt/lat/sdma/tx/end_to_end/p50_ns"
  and p99 = get "lgt/lat/sdma/tx/end_to_end/p99_ns"
  and p999 = get "lgt/lat/sdma/tx/end_to_end/p999_ns" in
  Alcotest.(check bool) "p50 <= p99 <= p999" true (p50 <= p99 && p99 <= p999);
  (* per-phase totals partition the end-to-end total (same segments,
     grouped differently — equal up to float reassociation) *)
  let phase_sum =
    List.fold_left
      (fun acc (k, v) ->
        let is_phase_total =
          String.length k > 13
          && String.sub k 0 13 = "lgt/lat/sdma/"
          && String.length k > 9
          && String.sub k (String.length k - 9) 9 = "/total_ns"
          && not
               (String.length k > 22
               && String.sub k 13 10 = "tx/end_to_")
        in
        if is_phase_total then acc +. v else acc)
      0. m
  in
  Alcotest.(check bool) "phase totals partition end-to-end" true
    (Float.abs (phase_sum -. e2e) <= 1e-6 *. Float.max 1. e2e);
  (* critical-path shares are well-formed fractions *)
  List.iter
    (fun (k, v) ->
      if has_prefix "lgt/critpath/" k then
        Alcotest.(check bool) (k ^ " in [0,1]") true (v >= 0. && v <= 1.);
      if has_prefix "lgt/" k then
        Alcotest.(check bool) (k ^ " finite") true (Float.is_finite v))
    m;
  (* timeline series from the SDMA step instrumentation *)
  Alcotest.(check bool) "sdma timeline present" true
    (List.mem_assoc "lgt/timeline/sdma/busy_engines/mean" m);
  Alcotest.(check bool) "timeline peak >= 1" true
    (get "lgt/timeline/sdma/inflight/peak" >= 1.);
  check_timelines ~figure:"lgt" m;
  Alcotest.(check bool) "busy engines peak <= SDMA engines" true
    (get "lgt/timeline/sdma/busy_engines/peak" <= float_of_int n_engines);
  Breakdown.clear ()

(* Two hand-built worlds whose steps straddle a hex-float inversion:
   [%h] renders 5000 as 0x1.388p+12, which sorts before 1280's
   0x1.4p+10.  Levels must sum over worlds on one merged time axis, and
   at 5000 world w0's +1 and world w1's -1 land together: the peak is
   the level after both, not the transient in between. *)
let test_timeline_merge () =
  with_ledgers true @@ fun () ->
  Breakdown.clear ();
  let stepped label steps =
    let sim = Sim.create () in
    Sim.set_label sim label;
    Sim.spawn sim (fun () ->
        List.iter
          (fun (t, d) ->
            Sim.delay_until sim t;
            Ledger.step sim ~series:"test/level" d)
          steps;
        Sim.delay_until sim 8000.);
    ignore (Sim.run sim);
    Breakdown.note_sim sim
  in
  stepped "w1" [ (1280., 1); (5000., -1) ];
  stepped "w0" [ (3000., 1); (5000., 1); (6000., -1); (7000., -1) ];
  Breakdown.flush ~figure:"tm";
  let m = Breakdown.dump () in
  let get k = List.assoc ("tm/timeline/test/level/" ^ k) m in
  (* width 500: level 1 on [1280, 3000), 2 on [3000, 6000), 1 on
     [6000, 7000), 0 after *)
  let expected =
    [ 0.; 0.; 0.44; 1.; 1.; 1.; 2.; 2.; 2.; 2.; 2.; 2.; 1.; 1.; 0.; 0. ]
  in
  List.iteri
    (fun i v ->
      Alcotest.(check (float 0.)) (Printf.sprintf "bucket%02d" i) v
        (get (Printf.sprintf "bucket%02d" i)))
    expected;
  Alcotest.(check (float 0.)) "mean" 1.09 (get "mean");
  Alcotest.(check (float 0.)) "peak" 2. (get "peak");
  check_timelines ~figure:"tm" m;
  Breakdown.clear ()

let test_flush_empty_records_nothing () =
  Breakdown.clear ();
  with_ledgers false (fun () -> ignore (run_world ()));
  Breakdown.flush ~figure:"lg_empty";
  Alcotest.(check int) "empty window records nothing" 0
    (List.length (Breakdown.dump ()));
  Breakdown.clear ()

(* --- Histogram quantiles -------------------------------------------------- *)

let test_histogram_quantile () =
  let h = Stats.Histogram.create () in
  Alcotest.(check (float 0.)) "empty quantile" 0.
    (Stats.Histogram.quantile h 0.5);
  for i = 1 to 1000 do
    Stats.Histogram.add h (float_of_int i)
  done;
  let q50 = Stats.Histogram.quantile h 0.5
  and q99 = Stats.Histogram.quantile h 0.99
  and q999 = Stats.Histogram.quantile h 0.999 in
  Alcotest.(check bool) "monotone" true (q50 <= q99 && q99 <= q999);
  Alcotest.(check (float 0.)) "p999 = quantile 0.999" q999
    (Stats.Histogram.p999 h);
  Alcotest.(check (float 0.)) "percentile 50 = quantile 0.5" q50
    (Stats.Histogram.percentile h 50.);
  (* log-scale buckets: the p50 of 1..1000 lands in [512, 1024) *)
  Alcotest.(check (float 0.)) "p50 bucket" 256. q50;
  Alcotest.(check (float 0.)) "p999 bucket" 512. q999

let () =
  Alcotest.run "ledger"
    [ ("api",
       [ Alcotest.test_case "disabled is null" `Quick test_disabled_is_null;
         Alcotest.test_case "phases partition" `Quick test_phases_partition;
         Alcotest.test_case "close idempotent" `Quick test_close_idempotent ]);
      ("invariant",
       [ Alcotest.test_case "phases sum exactly" `Quick
           test_phases_sum_exactly;
         Alcotest.test_case "off is a no-op" `Quick test_off_is_noop;
         Alcotest.test_case "repeat-run deterministic" `Quick
           test_repeat_deterministic;
         Alcotest.test_case "shard on/off identical" `Quick
           test_shard_identity ]);
      ("breakdown",
       [ Alcotest.test_case "flush keys" `Quick test_flush_keys;
         Alcotest.test_case "timeline merges worlds by time" `Quick
           test_timeline_merge;
         Alcotest.test_case "empty flush records nothing" `Quick
           test_flush_empty_records_nothing ]);
      ("stats",
       [ Alcotest.test_case "histogram quantile" `Quick
           test_histogram_quantile ]) ]
