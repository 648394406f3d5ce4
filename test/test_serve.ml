(* Tests for the sharded service workload (lib/serve): arrival-plan
   determinism (same seed => same plan, in any domain), the zero-knob
   inertness law (the defaults return an empty plan without taking the
   caller's RNG split), an end-to-end run with admission shedding and
   breaker trips live, and shard-on/off identity of the full result
   fingerprint — every latency sample plus the shed/trip counters — on
   flat worlds. *)

module Rng = Pico_engine.Rng
module Costs = Pico_costs.Costs
module Cluster = Pico_harness.Cluster
module Experiment = Pico_harness.Experiment
module Serve = Pico_serve.Serve
module Arrivals = Pico_serve.Arrivals

let () = Costs.reset ()

(* Moderate armed knobs: enough load that admission and the breaker
   both engage on the small worlds below. *)
let arm c =
  c.Costs.serve_arrival_interval <- 2_500.;
  c.Costs.serve_horizon <- 1.0e6;
  c.Costs.serve_burst_interval <- 5.0e4;
  c.Costs.serve_fanout <- 2;
  c.Costs.serve_admit_cap <- 4;
  c.Costs.serve_breaker_threshold <- 4;
  c.Costs.serve_timeout <- 1.0e6

let plan_under_arm seed =
  Costs.with_patched arm (fun () ->
      let rng = Rng.create ~seed in
      Arrivals.plan ~split:(fun () -> Rng.split rng) ())

(* --- arrival plans --------------------------------------------------------- *)

let prop_plan_deterministic =
  QCheck2.Test.make ~name:"same seed => identical plan, across domains"
    ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let seed = Int64.of_int seed in
      let here = plan_under_arm seed in
      (* A fresh domain has its own Costs table (Domain.DLS): the plan
         must depend only on the knobs and the seed, not on the domain
         computing it. *)
      let there = Domain.spawn (fun () -> plan_under_arm seed) in
      here = Domain.join there)

let prop_plan_shape =
  QCheck2.Test.make ~name:"plan arrivals ordered, sizes within knobs"
    ~count:50
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      Costs.with_patched arm (fun () ->
          let c = Costs.current () in
          let plan = plan_under_arm (Int64.of_int seed) in
          Array.length plan > 0
          && Array.for_all
               (fun (a : Arrivals.request) ->
                 a.Arrivals.at >= 0.
                 && a.Arrivals.at < c.Costs.serve_horizon
                 && a.Arrivals.req_bytes > 0
                 && a.Arrivals.resp_bytes >= c.Costs.serve_resp_min
                 && a.Arrivals.resp_bytes <= c.Costs.serve_resp_max
                 && a.Arrivals.key >= 0)
               plan
          && fst
               (Array.fold_left
                  (fun (ok, prev) (a : Arrivals.request) ->
                    (ok && a.Arrivals.at >= prev, a.Arrivals.at))
                  (true, 0.) plan)))

let test_zero_knob_no_split () =
  (* At the zero defaults the plan must be empty and the split witness
     must never run: legacy figures take no extra RNG splits just
     because lib/serve is linked in (the serve inertness law). *)
  let splits = ref 0 in
  let witness () =
    incr splits;
    Rng.create ~seed:1L
  in
  Alcotest.(check bool) "defaults disarm" false (Arrivals.armed ());
  let plan = Arrivals.plan ~split:witness () in
  Alcotest.(check int) "empty plan" 0 (Array.length plan);
  let plans = Serve.plans ~split:witness ~clients:3 in
  Alcotest.(check int) "three empty plans" 3 (Array.length plans);
  Array.iter
    (fun p -> Alcotest.(check int) "empty per-client plan" 0 (Array.length p))
    plans;
  Alcotest.(check int) "witness never called" 0 !splits;
  Costs.with_patched arm (fun () ->
      Alcotest.(check bool) "armed knobs arm" true (Arrivals.armed ());
      ignore (Arrivals.plan ~split:witness ());
      Alcotest.(check int) "armed takes exactly one split" 1 !splits)

(* --- end-to-end runs ------------------------------------------------------- *)

let run_world ?(sharding = false) ?(ordered_arrivals = false) kind ~n_nodes =
  let cl = Cluster.build kind ~n_nodes ~sharding ~ordered_arrivals () in
  let out = Array.make n_nodes None in
  let plans =
    Serve.plans ~split:(fun () -> Rng.split cl.Cluster.rng) ~clients:1
  in
  let res = Experiment.run cl ~ranks_per_node:1 (Serve.run ~plans ~out) in
  (res, out)

let test_end_to_end () =
  Costs.with_patched arm (fun () ->
      let _res, out = run_world Cluster.Mckernel_hfi ~n_nodes:4 in
      let cs =
        match out.(0) with
        | Some (Serve.Client cs) -> cs
        | _ -> Alcotest.fail "rank 0 is the client"
      in
      Alcotest.(check bool) "arrivals replayed" true (cs.Serve.c_arrivals > 0);
      Alcotest.(check bool) "some requests issued" true (cs.Serve.c_issued > 0);
      Alcotest.(check bool) "some requests complete" true (cs.Serve.c_ok > 0);
      Alcotest.(check int)
        "one latency sample per ok request" cs.Serve.c_ok
        (List.length cs.Serve.c_lats);
      Alcotest.(check bool)
        "issued bounded by arrivals" true
        (cs.Serve.c_issued + cs.Serve.c_tripped <= cs.Serve.c_arrivals);
      let handled = ref 0 and sshed = ref 0 in
      for r = 1 to 3 do
        match out.(r) with
        | Some (Serve.Server ss) ->
          handled := !handled + ss.Serve.s_handled;
          sshed := !sshed + ss.Serve.s_shed
        | _ -> Alcotest.fail "ranks 1.. are servers"
      done;
      Alcotest.(check bool) "servers handled requests" true (!handled > 0);
      (* The armed knobs oversaturate the 3 shards: admission control
         must shed and the client breaker must trip. *)
      Alcotest.(check bool) "admission sheds" true (!sshed > 0);
      Alcotest.(check bool) "client sees shed legs" true (cs.Serve.c_shed > 0);
      Alcotest.(check bool) "breaker trips" true (cs.Serve.c_trips > 0);
      Alcotest.(check bool)
        "tripped arrivals dropped" true
        (cs.Serve.c_tripped > 0))

(* --- shard-on/off identity ------------------------------------------------- *)

(* Full result fingerprint: every counter and every latency sample, bit
   for bit ([%Lx] of the float), plus the experiment FOM.  Anything the
   serve figure reports derives from these. *)
let fingerprint (res : Experiment.result) out =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "F%Lx" (Int64.bits_of_float res.Experiment.fom_ns));
  Array.iter
    (fun slot ->
      match slot with
      | Some (Serve.Client cs) ->
        Buffer.add_string b
          (Printf.sprintf ";C%d:%d:%d:%d:%d:%d:%d" cs.Serve.c_arrivals
             cs.Serve.c_issued cs.Serve.c_ok cs.Serve.c_shed cs.Serve.c_late
             cs.Serve.c_tripped cs.Serve.c_trips);
        List.iter
          (fun l ->
            Buffer.add_string b
              (Printf.sprintf ":%Lx" (Int64.bits_of_float l)))
          cs.Serve.c_lats
      | Some (Serve.Server ss) ->
        Buffer.add_string b
          (Printf.sprintf ";S%d:%d:%Lx" ss.Serve.s_handled ss.Serve.s_shed
             (Int64.bits_of_float ss.Serve.s_busy_ns))
      | None -> Buffer.add_string b ";-")
    out;
  Buffer.contents b

(* Flat worlds only: fat-trees never shard.  Shard-on/off identity only
   holds between runs sharing the ordered same-instant arrival tie-break
   (sharded builds force it). *)
let probe ~shard kind =
  Costs.with_patched arm
  @@ fun () ->
  let res, out =
    run_world ~sharding:shard ~ordered_arrivals:true kind ~n_nodes:4
  in
  fingerprint res out

let test_shard_identity () =
  List.iter
    (fun kind ->
      let off = probe ~shard:false kind in
      let on = probe ~shard:true kind in
      Alcotest.(check string)
        (Printf.sprintf "%s shard on = off" (Cluster.kind_to_string kind))
        off on)
    [ Cluster.Linux; Cluster.Mckernel; Cluster.Mckernel_hfi ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [ ("arrivals",
       [ qc prop_plan_deterministic;
         qc prop_plan_shape;
         Alcotest.test_case "zero-knob defaults take no split" `Quick
           test_zero_knob_no_split ]);
      ("serve",
       [ Alcotest.test_case "end to end: shed + breaker live" `Quick
           test_end_to_end;
         Alcotest.test_case "shard on/off fingerprint identity" `Quick
           test_shard_identity ]) ]
