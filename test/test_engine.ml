(* Unit and property tests for the discrete-event engine. *)

open Pico_engine

let check_float = Alcotest.(check (float 1e-9))

(* --- Heap ---------------------------------------------------------------- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iteri
    (fun i k -> Heap.push h ~key:k ~seq:i i)
    [ 5.; 1.; 3.; 2.; 4. ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (k, _, _) -> order := k :: !order; drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.)))
    "sorted" [ 1.; 2.; 3.; 4.; 5. ] (List.rev !order)

let test_heap_ties_fifo () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~key:1.0 ~seq:i i
  done;
  let out = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (_, _, v) -> out := v :: !out; drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "fifo on equal keys"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !out)

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option (float 0.))) "peek none" None (Heap.peek_key h);
  Alcotest.(check bool) "pop none" true (Heap.pop_min h = None)

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h ~key:2. ~seq:0 "b";
  Heap.push h ~key:1. ~seq:1 "a";
  (match Heap.pop_min h with
   | Some (_, _, v) -> Alcotest.(check string) "first" "a" v
   | None -> Alcotest.fail "empty");
  Heap.push h ~key:0.5 ~seq:2 "c";
  (match Heap.pop_min h with
   | Some (_, _, v) -> Alcotest.(check string) "second" "c" v
   | None -> Alcotest.fail "empty");
  Alcotest.(check int) "length" 1 (Heap.length h)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~key:1. ~seq:0 0;
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap returns keys in sorted order" ~count:200
    QCheck2.Gen.(list (float_bound_inclusive 1000.))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i k) keys;
      let rec drain acc =
        match Heap.pop_min h with
        | Some (k, _, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare keys)

(* Pit the parallel-array heap against a trivial reference model (a list
   drained in (key, seq) order) under arbitrary push/pop interleavings:
   [Some key] pushes, [None] pops from both and compares. *)
let prop_heap_model =
  QCheck2.Test.make
    ~name:"heap matches reference model under push/pop interleavings"
    ~count:300
    QCheck2.Gen.(list (option (float_bound_inclusive 1000.)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      let model_pop () =
        match !model with
        | [] -> None
        | hd :: tl ->
          let mn = List.fold_left min hd tl in
          model := List.filter (fun e -> e <> mn) !model;
          Some mn
      in
      let pop_both () =
        match (Heap.pop_min h, model_pop ()) with
        | None, None -> ()
        | Some got, Some want -> if got <> want then ok := false
        | _ -> ok := false
      in
      List.iter
        (function
          | Some key ->
            Heap.push h ~key ~seq:!seq !seq;
            model := (key, !seq, !seq) :: !model;
            incr seq
          | None -> pop_both ())
        ops;
      while !ok && not (Heap.is_empty h && !model = []) do
        pop_both ()
      done;
      !ok)

let test_heap_grow () =
  let h = Heap.create () in
  for i = 0 to 9999 do
    Heap.push h ~key:(float_of_int (9999 - i)) ~seq:i i
  done;
  Alcotest.(check int) "length" 10000 (Heap.length h);
  let prev = ref neg_infinity in
  for _ = 1 to 10000 do
    let k = Heap.top_key h in
    Alcotest.(check bool) "ascending" true (k >= !prev);
    prev := k;
    ignore (Heap.pop h)
  done;
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_heap_raises_empty () =
  let h : int Heap.t = Heap.create () in
  (try
     ignore (Heap.top_key h);
     Alcotest.fail "top_key on empty must raise"
   with Invalid_argument _ -> ());
  try
    ignore (Heap.pop h);
    Alcotest.fail "pop on empty must raise"
  with Invalid_argument _ -> ()

(* --- Sim ----------------------------------------------------------------- *)

let test_sim_delay_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay sim 10.;
      log := "a" :: !log);
  Sim.spawn sim (fun () ->
      Sim.delay sim 5.;
      log := "b" :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "order" [ "b"; "a" ] (List.rev !log);
  check_float "final time" 10. (Sim.now sim)

let test_sim_after_at () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.at sim 7. (fun () -> fired := 7 :: !fired);
  Sim.after sim 3. (fun () -> fired := 3 :: !fired);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "callback order" [ 3; 7 ] (List.rev !fired)

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.spawn sim (fun () ->
      for _ = 1 to 10 do
        Sim.delay sim 10.;
        incr count
      done);
  ignore (Sim.run ~until:35. sim);
  Alcotest.(check int) "events until 35" 3 !count;
  check_float "time clamped" 35. (Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "resumes" 10 !count

let test_sim_not_in_process () =
  let sim = Sim.create () in
  Alcotest.check_raises "delay outside" Sim.Not_in_process (fun () ->
      Sim.delay sim 1.)

let test_sim_negative_delay () =
  let sim = Sim.create () in
  let raised = ref false in
  Sim.spawn sim (fun () ->
      try Sim.delay sim (-1.) with Invalid_argument _ -> raised := true);
  ignore (Sim.run sim);
  Alcotest.(check bool) "negative delay rejected" true !raised

let test_sim_nested_spawn () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.;
      Sim.spawn sim (fun () ->
          Sim.delay sim 1.;
          log := 2 :: !log);
      log := 1 :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "nested" [ 1; 2 ] (List.rev !log);
  check_float "time" 2. (Sim.now sim)

let test_sim_yield () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      log := "a1" :: !log;
      Sim.yield sim;
      log := "a2" :: !log);
  Sim.spawn sim (fun () -> log := "b" :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "yield lets b run" [ "a1"; "b"; "a2" ]
    (List.rev !log)

let test_sim_suspend_resume () =
  let sim = Sim.create () in
  let wake = ref (fun () -> ()) in
  let done_ = ref false in
  Sim.spawn sim (fun () ->
      Sim.suspend sim (fun resume -> wake := resume);
      done_ := true);
  ignore (Sim.run sim);
  Alcotest.(check bool) "still suspended" false !done_;
  Sim.after sim 5. (fun () -> !wake ());
  ignore (Sim.run sim);
  Alcotest.(check bool) "resumed" true !done_;
  check_float "woke at 5" 5. (Sim.now sim)

let test_sim_double_resume_rejected () =
  let sim = Sim.create () in
  let wake = ref (fun () -> ()) in
  Sim.spawn sim (fun () -> Sim.suspend sim (fun resume -> wake := resume));
  ignore (Sim.run sim);
  !wake ();
  Alcotest.check_raises "double resume"
    (Invalid_argument "Sim.suspend: resume called twice") (fun () -> !wake ());
  ignore (Sim.run sim)

let test_sim_determinism () =
  let trace () =
    let sim = Sim.create () in
    let log = ref [] in
    for i = 0 to 9 do
      Sim.spawn sim (fun () ->
          Sim.delay sim (float_of_int (i mod 3));
          log := (i, Sim.now sim) :: !log)
    done;
    ignore (Sim.run sim);
    !log
  in
  Alcotest.(check bool) "same trace" true (trace () = trace ())

let test_sim_units () =
  check_float "us" 1e3 (Sim.us 1.);
  check_float "ms" 1e6 (Sim.ms 1.);
  check_float "s" 1e9 (Sim.s 1.)

let test_sim_delay_until () =
  let sim = Sim.create () in
  let t = ref 0. in
  Sim.spawn sim (fun () ->
      Sim.delay sim 3.;
      Sim.delay_until sim 10.;
      (* A target already in the past clamps to the current time. *)
      Sim.delay_until sim 5.;
      t := Sim.now sim);
  ignore (Sim.run sim);
  check_float "landed at target" 10. !t

let test_sim_obs_counters () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 100 do
        Sim.delay sim 1.
      done);
  ignore (Sim.run sim);
  (* The first delay allocates a resume cell; the remaining 99 reuse it. *)
  Alcotest.(check int) "cells reused" 99 (Sim.cells_reused sim);
  Alcotest.(check bool) "peak depth" true (Sim.peak_heap_depth sim >= 1);
  Alcotest.(check bool) "events counted" true (Sim.events_processed sim >= 100);
  Sim.note_elided sim 5;
  Sim.note_elided sim (-3);
  Sim.note_elided sim 0;
  Alcotest.(check int) "elided (negatives ignored)" 5 (Sim.events_elided sim)

(* --- Mailbox ------------------------------------------------------------- *)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.get mb :: !got
      done);
  Sim.spawn sim (fun () ->
      Mailbox.put mb 1;
      Mailbox.put mb 2;
      Mailbox.put mb 3);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocking_wakeup () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let got_at = ref 0. in
  Sim.spawn sim (fun () ->
      ignore (Mailbox.get mb);
      got_at := Sim.now sim);
  Sim.after sim 42. (fun () -> Mailbox.put mb ());
  ignore (Sim.run sim);
  check_float "woken when put" 42. !got_at

let test_mailbox_multiple_waiters_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let winners = ref [] in
  for i = 0 to 2 do
    Sim.spawn sim (fun () ->
        Sim.delay sim (float_of_int i) (* stagger arrival *);
        let v = Mailbox.get mb in
        winners := (i, v) :: !winners)
  done;
  Sim.after sim 10. (fun () ->
      Mailbox.put mb "x";
      Mailbox.put mb "y";
      Mailbox.put mb "z");
  ignore (Sim.run sim);
  Alcotest.(check (list (pair int string)))
    "waiters served in arrival order"
    [ (0, "x"); (1, "y"); (2, "z") ]
    (List.rev !winners)

let test_mailbox_get_opt () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  Alcotest.(check (option int)) "empty" None (Mailbox.get_opt mb);
  Mailbox.put mb 5;
  Alcotest.(check int) "length" 1 (Mailbox.length mb);
  Alcotest.(check (option int)) "some" (Some 5) (Mailbox.get_opt mb);
  Alcotest.(check int) "drained" 0 (Mailbox.length mb)

(* --- Semaphore ------------------------------------------------------------ *)

let test_semaphore_counting () =
  let sim = Sim.create () in
  let s = Semaphore.create sim 2 in
  Alcotest.(check bool) "t1" true (Semaphore.try_acquire s);
  Alcotest.(check bool) "t2" true (Semaphore.try_acquire s);
  Alcotest.(check bool) "t3 fails" false (Semaphore.try_acquire s);
  Semaphore.release s;
  Alcotest.(check bool) "after release" true (Semaphore.try_acquire s)

let test_semaphore_blocking () =
  let sim = Sim.create () in
  let s = Semaphore.create sim 1 in
  let t = ref 0. in
  Sim.spawn sim (fun () ->
      Semaphore.acquire s;
      Sim.delay sim 10.;
      Semaphore.release s);
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.;
      Semaphore.acquire s;
      t := Sim.now sim);
  ignore (Sim.run sim);
  check_float "blocked until release" 10. !t

let test_semaphore_with_sem_exception () =
  let sim = Sim.create () in
  let s = Semaphore.create sim 1 in
  Sim.spawn sim (fun () ->
      (try Semaphore.with_sem s (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "released after exception" 1 (Semaphore.count s));
  ignore (Sim.run sim)

let test_semaphore_negative () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Semaphore.create: negative count") (fun () ->
      ignore (Semaphore.create sim (-1)))

(* --- Resource -------------------------------------------------------------- *)

let test_resource_fcfs_wait () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"cpu" ~capacity:1 in
  let waits = ref [] in
  for i = 0 to 2 do
    Sim.spawn sim (fun () ->
        Sim.delay sim (float_of_int i);
        let w = Resource.acquire r in
        waits := (i, w) :: !waits;
        Sim.delay sim 10.;
        Resource.release r)
  done;
  ignore (Sim.run sim);
  let w i = List.assoc i !waits in
  check_float "first no wait" 0. (w 0);
  check_float "second waits" 9. (w 1);
  check_float "third waits" 18. (w 2)

let test_resource_capacity () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"r" ~capacity:2 in
  let finished = ref [] in
  for i = 0 to 3 do
    Sim.spawn sim (fun () ->
        Resource.use r ~work:10. (fun () -> ());
        finished := (i, Sim.now sim) :: !finished)
  done;
  ignore (Sim.run sim);
  let at i = List.assoc i !finished in
  check_float "first pair" 10. (at 0);
  check_float "second pair" 20. (at 3);
  Alcotest.(check int) "served" 4 (Resource.total_served r)

let test_resource_stats () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"r" ~capacity:1 in
  Sim.spawn sim (fun () -> Resource.use r ~work:50. (fun () -> ()));
  Sim.spawn sim (fun () -> Resource.use r ~work:50. (fun () -> ()));
  ignore (Sim.run sim);
  check_float "busy" 100. (Resource.total_busy_ns r);
  check_float "mean wait" 25. (Resource.mean_wait_ns r);
  check_float "utilisation" 1.0 (Resource.utilisation r);
  Resource.reset_stats r;
  Alcotest.(check int) "reset" 0 (Resource.total_served r)

let test_resource_exception_releases () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"r" ~capacity:1 in
  Sim.spawn sim (fun () ->
      (try Resource.use r ~work:1. (fun () -> failwith "x")
       with Failure _ -> ());
      Alcotest.(check int) "released" 0 (Resource.in_use r));
  ignore (Sim.run sim)

let test_resource_bad_capacity () =
  let sim = Sim.create () in
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Resource.create: capacity must be > 0") (fun () ->
      ignore (Resource.create sim ~name:"r" ~capacity:0))

(* --- Rng -------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:42L in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let prop_rng_float_range =
  QCheck2.Test.make ~name:"rng float in [0,1)" ~count:100
    QCheck2.Gen.(int_range 1 10000)
    (fun seed ->
      let r = Rng.create ~seed:(Int64.of_int seed) in
      let x = Rng.float r in
      x >= 0. && x < 1.)

let prop_rng_int_range =
  QCheck2.Test.make ~name:"rng int in [0,bound)" ~count:100
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed:(Int64.of_int seed) in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:7L in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:100.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean within 5%" true (abs_float (mean -. 100.) < 5.)

let test_rng_normal_mean () =
  let r = Rng.create ~seed:7L in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.normal r ~mean:50. ~stddev:10.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean within 1" true (abs_float (mean -. 50.) < 1.)

(* --- Stats ------------------------------------------------------------------- *)

let test_summary_known () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5. (Stats.Summary.mean s);
  check_float "total" 40. (Stats.Summary.total s);
  check_float "min" 2. (Stats.Summary.min s);
  check_float "max" 9. (Stats.Summary.max s);
  Alcotest.(check (float 1e-6)) "variance (sample)" 4.571428571
    (Stats.Summary.variance s)

let test_summary_merge () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  List.iter (Stats.Summary.add a) [ 1.; 2.; 3. ];
  List.iter (Stats.Summary.add b) [ 4.; 5. ];
  let m = Stats.Summary.merge a b in
  check_float "merged mean" 3. (Stats.Summary.mean m);
  Alcotest.(check int) "merged n" 5 (Stats.Summary.n m)

let test_histogram () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 1.; 2.; 4.; 1000.; 1000. ];
  Alcotest.(check int) "count" 5 (Stats.Histogram.count h);
  Alcotest.(check bool) "p50 small" true (Stats.Histogram.percentile h 50. <= 4.);
  Alcotest.(check bool) "p99 big" true (Stats.Histogram.percentile h 99. >= 512.)

let test_registry () =
  let r = Stats.Registry.create () in
  Stats.Registry.add r "writev" 10.;
  Stats.Registry.add r "writev" 20.;
  Stats.Registry.add r "ioctl" 5.;
  check_float "time" 30. (Stats.Registry.time_of r "writev");
  Alcotest.(check int) "count" 2 (Stats.Registry.count_of r "writev");
  check_float "grand" 35. (Stats.Registry.grand_total r);
  (match Stats.Registry.top 1 r with
   | [ (name, _, _) ] -> Alcotest.(check string) "top" "writev" name
   | _ -> Alcotest.fail "expected one");
  let dst = Stats.Registry.create () in
  Stats.Registry.merge_into ~dst ~src:r;
  Stats.Registry.merge_into ~dst ~src:r;
  check_float "merged" 60. (Stats.Registry.time_of dst "writev")

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [ ("heap",
       [ Alcotest.test_case "ordering" `Quick test_heap_order;
         Alcotest.test_case "ties fifo" `Quick test_heap_ties_fifo;
         Alcotest.test_case "empty" `Quick test_heap_empty;
         Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
         Alcotest.test_case "clear" `Quick test_heap_clear;
         Alcotest.test_case "grow" `Quick test_heap_grow;
         Alcotest.test_case "raises on empty" `Quick test_heap_raises_empty;
         qc prop_heap_sorts;
         qc prop_heap_model ]);
      ("sim",
       [ Alcotest.test_case "delay ordering" `Quick test_sim_delay_ordering;
         Alcotest.test_case "after/at" `Quick test_sim_after_at;
         Alcotest.test_case "until" `Quick test_sim_until;
         Alcotest.test_case "not in process" `Quick test_sim_not_in_process;
         Alcotest.test_case "negative delay" `Quick test_sim_negative_delay;
         Alcotest.test_case "nested spawn" `Quick test_sim_nested_spawn;
         Alcotest.test_case "yield" `Quick test_sim_yield;
         Alcotest.test_case "suspend/resume" `Quick test_sim_suspend_resume;
         Alcotest.test_case "double resume" `Quick test_sim_double_resume_rejected;
         Alcotest.test_case "determinism" `Quick test_sim_determinism;
         Alcotest.test_case "units" `Quick test_sim_units;
         Alcotest.test_case "delay_until" `Quick test_sim_delay_until;
         Alcotest.test_case "obs counters" `Quick test_sim_obs_counters ]);
      ("mailbox",
       [ Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
         Alcotest.test_case "blocking wakeup" `Quick test_mailbox_blocking_wakeup;
         Alcotest.test_case "waiters fifo" `Quick test_mailbox_multiple_waiters_fifo;
         Alcotest.test_case "get_opt" `Quick test_mailbox_get_opt ]);
      ("semaphore",
       [ Alcotest.test_case "counting" `Quick test_semaphore_counting;
         Alcotest.test_case "blocking" `Quick test_semaphore_blocking;
         Alcotest.test_case "exception safety" `Quick test_semaphore_with_sem_exception;
         Alcotest.test_case "negative" `Quick test_semaphore_negative ]);
      ("resource",
       [ Alcotest.test_case "fcfs waits" `Quick test_resource_fcfs_wait;
         Alcotest.test_case "capacity" `Quick test_resource_capacity;
         Alcotest.test_case "stats" `Quick test_resource_stats;
         Alcotest.test_case "exception releases" `Quick test_resource_exception_releases;
         Alcotest.test_case "bad capacity" `Quick test_resource_bad_capacity ]);
      ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "split" `Quick test_rng_split_independent;
         qc prop_rng_float_range;
         qc prop_rng_int_range;
         Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
         Alcotest.test_case "normal mean" `Quick test_rng_normal_mean ]);
      ("stats",
       [ Alcotest.test_case "summary" `Quick test_summary_known;
         Alcotest.test_case "merge" `Quick test_summary_merge;
         Alcotest.test_case "histogram" `Quick test_histogram;
         Alcotest.test_case "registry" `Quick test_registry ]) ]
