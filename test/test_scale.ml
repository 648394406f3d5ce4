(* Tests for the sharded engine and whole-cluster SDMA packet-train
   batching: byte identity of simulation results across shard-on/off on
   flat worlds (including with fault injection armed, with SDMA engines
   halting mid-run, and with latency ledgers armed), across
   batching-on/off against the per-packet reference on flat and fat-tree
   clusters (with halts and link faults, and in the fat-tree worlds where
   same-instant link ties decide results), Route memoization, and the
   shard counter plumbing (including refused requests). *)

module Sim = Pico_engine.Sim
module Ledger = Pico_engine.Ledger
module Topology = Pico_fabric.Topology
module Route = Pico_fabric.Route
module Fabric = Pico_nic.Fabric
module Hfi = Pico_nic.Hfi
module Sdma = Pico_nic.Sdma
module Costs = Pico_costs.Costs
module Cluster = Pico_harness.Cluster
module Experiment = Pico_harness.Experiment
module Fault = Pico_harness.Fault
module Breakdown = Pico_harness.Breakdown
module Comm = Pico_mpi.Comm
module Collectives = Pico_mpi.Collectives
module Mpi = Pico_mpi.Mpi
module Workload = Pico_apps.Workload

let () = Costs.reset ()

(* --- the probe workload ----------------------------------------------------

   One steady-state iteration mixes everything sharding and batching
   touch: rendezvous-sized ring traffic (SDMA request trains), eager
   collective traffic, and noise-metered compute (Linux ranks).
   Deliberately the same shape as the integration fuzz app, plus
   compute. *)

let app comm =
  let os = Pico_psm.Endpoint.os comm.Comm.ep in
  let buf = os.Pico_psm.Endpoint.mmap_anon (256 * 1024) in
  let n = comm.Comm.size in
  Collectives.barrier comm;
  for _ = 1 to 3 do
    Mpi.sendrecv comm
      ~dst:((comm.Comm.rank + 1) mod n)
      ~src:(Some ((comm.Comm.rank - 1 + n) mod n))
      ~stag:1 ~rtag:1 ~sva:buf ~slen:(200 * 1024) ~rva:buf
      ~rlen:(200 * 1024);
    Workload.compute comm 3.3e5;
    Collectives.allreduce comm ~len:64
  done;
  os.Pico_psm.Endpoint.munmap buf;
  Collectives.barrier comm;
  1.

(* Pairwise cross-node exchange: with [rpn] ranks per node all sending
   rendezvous-sized messages to the opposite node at once, one rank's
   SDMA train is in flight while its node-mates contend for the same
   wire — the contention that forces {!Hfi.maybe_abort_train}. *)
let xchg_app comm =
  let os = Pico_psm.Endpoint.os comm.Comm.ep in
  let buf = os.Pico_psm.Endpoint.mmap_anon (512 * 1024) in
  let n = comm.Comm.size in
  let rank = comm.Comm.rank in
  let partner = (rank + (n / 2)) mod n in
  (* Node-local rank index (node-major layout): staggering the senders a
     few microseconds apart lets the first form a train that is still on
     the wire when its node-mate's transfer arrives. *)
  let local = rank mod (n / 2) in
  Collectives.barrier comm;
  for step = 1 to 4 do
    let r = Mpi.irecv comm ~src:(Some partner) ~tag:step ~va:buf
        ~len:(200 * 1024) in
    Workload.compute comm (float_of_int local *. 6.0e3);
    let s = Mpi.isend comm ~dst:partner ~tag:step ~va:buf ~len:(200 * 1024) in
    Mpi.waitall comm [ r; s ];
    Workload.compute comm 1.0e5
  done;
  os.Pico_psm.Endpoint.munmap buf;
  Collectives.barrier comm;
  1.

(* Everything simulated the run produced, as exact bit patterns: any
   float divergence anywhere upstream lands in at least one of these. *)
let fingerprint (cl : Cluster.t) (res : Experiment.result) =
  let b = Buffer.create 256 in
  let f x = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float x)) in
  let i n = Buffer.add_string b (string_of_int n ^ ";") in
  f res.Experiment.fom_ns;
  f res.Experiment.wall_ns;
  f res.Experiment.init_ns;
  f (Experiment.total_runtime_ns res);
  i (Fabric.packets_delivered cl.Cluster.fabric);
  i (Fabric.bytes_delivered cl.Cluster.fabric);
  (* Per-tier link counters: empty under Flat, and under Fat_tree the
     part of the simulation train formation could plausibly skew
     (per-link FCFS grants, queue depths, contention). *)
  List.iter
    (fun (ts : Fabric.tier_stats) ->
      Buffer.add_string b (ts.Fabric.ts_tier ^ ";");
      i ts.Fabric.ts_links;
      i ts.Fabric.ts_packets;
      i ts.Fabric.ts_bytes;
      f ts.Fabric.ts_busy_ns;
      i ts.Fabric.ts_peak_queue;
      i ts.Fabric.ts_contended)
    (Fabric.tier_stats cl.Cluster.fabric);
  (* Fabric fault counters are simulation results (parks, replays,
     reroutes, retries land at result-determined instants), unlike
     engine elision counts — shard-on/off must reproduce them exactly. *)
  let fs = Fabric.fault_stats cl.Cluster.fabric in
  i fs.Fabric.fs_parks;
  f fs.Fabric.fs_park_ns;
  i fs.Fabric.fs_replays;
  i fs.Fabric.fs_reroutes;
  i fs.Fabric.fs_egress_parks;
  i fs.Fabric.fs_retries;
  i fs.Fabric.fs_degraded;
  Array.iter
    (fun (env : Cluster.node_env) ->
      let hfi = env.Cluster.hfi in
      i (Hfi.pio_packets hfi);
      i (Hfi.pio_bytes hfi);
      i (Hfi.eager_packets_rx hfi);
      i (Hfi.expected_msgs_rx hfi);
      let sdma = Hfi.sdma hfi in
      i (Sdma.requests_submitted sdma);
      i (Sdma.bytes_submitted sdma);
      i (Sdma.txs_completed sdma);
      i (Sdma.halts sdma);
      f (Sdma.busy_ns sdma);
      f (Sdma.halted_ns sdma))
    cl.Cluster.nodes;
  Buffer.contents b

let with_faults ?(links = false) armed f =
  if not (armed || links) then f ()
  else
    Costs.with_patched
      (fun c ->
        c.Costs.fault_horizon <- 1.0e8;
        if armed then begin
          c.Costs.fault_sdma_halt_interval <- 3.0e6;
          c.Costs.fault_service_stall_interval <- 5.0e6
        end;
        if links then begin
          c.Costs.fault_link_down_interval <- 2.0e6;
          c.Costs.fault_link_down_duration <- 3.0e5;
          c.Costs.fault_link_derate_interval <- 3.0e6;
          c.Costs.fault_link_derate_duration <- 4.0e5;
          c.Costs.fault_link_corrupt <- 1.0e-3
        end)
      f

type probe = {
  fp : string;
  events : int;
  elided : int;
  aborts : int;
  halts : int;
  linkhits : int;  (* parks + replays + reroutes + egress parks *)
}

let run_probe ?(app = app) ?(topology = Topology.Flat) ?(linkfaults = false)
    ?(batching = true) ~kind ~n_nodes ~rpn ~seed ~faults ~shard () =
  with_faults ~links:linkfaults faults @@ fun () ->
  Hfi.batching := batching;
  Fun.protect ~finally:(fun () -> Hfi.batching := true) @@ fun () ->
  (* Identity across shard-on/off only holds between runs sharing the
     same same-instant arrival tie-break, so the unsharded flat
     comparator opts into the content order that sharded builds force
     on.  Fat-trees never shard and keep the default order. *)
  let cl =
    Cluster.build kind ~n_nodes ~topology ~sharding:shard
      ~ordered_arrivals:(Topology.is_flat topology) ~seed ()
  in
  Fault.install cl;
  let res = Experiment.run cl ~ranks_per_node:rpn app in
  let sum g =
    Array.fold_left (fun acc env -> acc + g env) 0 cl.Cluster.nodes
  in
  let fs = Fabric.fault_stats cl.Cluster.fabric in
  { fp = fingerprint cl res;
    events = Sim.events_processed cl.Cluster.sim;
    elided = Sim.events_elided cl.Cluster.sim;
    aborts = sum (fun env -> Hfi.train_aborts env.Cluster.hfi);
    halts = sum (fun env -> Sdma.halts (Hfi.sdma env.Cluster.hfi));
    linkhits =
      fs.Fabric.fs_parks + fs.Fabric.fs_replays + fs.Fabric.fs_reroutes
      + fs.Fabric.fs_egress_parks }

let kinds = [| Cluster.Linux; Cluster.Mckernel; Cluster.Mckernel_hfi |]

(* --- shard-on/off identity ----------------------------------------------- *)

let prop_shard_identity =
  QCheck2.Test.make ~name:"shard on/off: identical simulation results"
    ~count:12
    ~print:(fun (k, n, r, s, f) ->
      Printf.sprintf "kind=%d n_nodes=%d rpn=%d seed=%d faults=%b" k n r s f)
    QCheck2.Gen.(
      tup5 (int_range 0 2) (int_range 2 4) (int_range 1 3) (int_range 0 10_000)
        bool)
    (fun (kind_i, n_nodes, rpn, seed, faults) ->
      let kind = kinds.(kind_i) in
      let seed = Int64.of_int seed in
      let run ~shard = run_probe ~kind ~n_nodes ~rpn ~seed ~faults ~shard () in
      let base = run ~shard:false in
      let p = run ~shard:true in
      p.fp = base.fp
      (* Elision decisions depend only on simulated state, so they are
         identical across shard-on/off.  Raw event counts may drift by a
         handful under sharding (a same-instant cross-shard put/get pair
         commutes semantically but changes whether a wake event is
         needed), which is why identity is defined over simulation
         results, never engine-internal counters. *)
      && p.elided = base.elided)

(* UMT's persistent-channel wavefront sweeps (6-neighbour rendezvous
   halos) are the densest same-instant traffic any figure generates.  On
   this world — 4 nodes x 2 ranks, seed 0x5EED, ordered arrivals, every
   OS kind — this test is the only home of three laws: (1) sharding
   changes no simulation result; (2) arming latency ledgers changes no
   result, sharded or not; (3) a sharded run records the same ledger
   content as the unsharded one.  test_ledger checks (2) and (3) on FOM
   bits of a 2-node world only. *)
let test_umt_identity () =
  Array.iter
    (fun kind ->
      let run ~ledgers ~shard =
        ignore (Breakdown.take_fingerprint ());
        Ledger.set_on ledgers;
        Fun.protect ~finally:(fun () -> Ledger.set_on false) @@ fun () ->
        let p =
          run_probe
            ~app:(fun c -> Pico_apps.Umt.run c)
            ~kind ~n_nodes:4 ~rpn:2 ~seed:0x5EEDL ~faults:false ~shard ()
        in
        let recorded = Breakdown.size () in
        (p.fp, recorded, Breakdown.take_fingerprint ())
      in
      let name law =
        Printf.sprintf "umt %s: %s" (Cluster.kind_to_string kind) law
      in
      let plain, _, _ = run ~ledgers:false ~shard:false in
      let sharded, _, _ = run ~ledgers:false ~shard:true in
      let armed, n_armed, lg_unsharded = run ~ledgers:true ~shard:false in
      let armed_sharded, _, lg_sharded = run ~ledgers:true ~shard:true in
      Alcotest.(check string) (name "sharding on/off") plain sharded;
      Alcotest.(check bool) (name "armed runs record ledgers") true
        (n_armed > 0);
      Alcotest.(check string) (name "ledgers off = armed") plain armed;
      Alcotest.(check string) (name "ledgers off = armed, sharded") plain
        armed_sharded;
      Alcotest.(check string) (name "ledger shard on/off") lg_unsharded
        lg_sharded)
    kinds

(* With halts armed and several ranks per node, SDMA engines halt
   mid-run and park their rings; the sharded run must reproduce every
   result and the exact halt schedule. *)
let test_halt_shard () =
  let kind = Cluster.Mckernel_hfi and n_nodes = 2 and rpn = 2
  and seed = 42L in
  let run ~shard =
    run_probe ~app:xchg_app ~kind ~n_nodes ~rpn ~seed ~faults:true ~shard ()
  in
  let off = run ~shard:false in
  let on = run ~shard:true in
  Alcotest.(check bool) "halts actually occurred" true (off.halts > 0);
  Alcotest.(check string) "identical results" off.fp on.fp;
  Alcotest.(check int) "identical halt schedule" off.halts on.halts

(* --- batching on/off against the per-packet reference ---------------------- *)

(* Whole clusters, flat and congested fat-tree: every train the default
   gate forms — and every abort that engine halts, link contention or
   down windows force — must leave every simulation result (FOMs,
   packet/byte counts, per-node HFI/SDMA counters, per-tier link and
   fault counters) bit-identical to the per-packet run. *)
let prop_batching_identity =
  QCheck2.Test.make ~name:"batching on/off: identical simulation results"
    ~count:16
    ~print:(fun (k, n, r, s, (flat, f, lf, radix, oversub)) ->
      Printf.sprintf
        "kind=%d n_nodes=%d rpn=%d seed=%d flat=%b faults=%b linkfaults=%b \
         radix=%d oversub=%d"
        k n r s flat f lf radix oversub)
    QCheck2.Gen.(
      tup5 (int_range 0 2) (int_range 2 5) (int_range 1 2) (int_range 0 10_000)
        (tup5 bool bool bool (int_range 2 4) (int_range 1 2)))
    (fun (kind_i, n_nodes, rpn, seed, (flat, faults, linkfaults, radix, oversub))
    ->
      let kind = kinds.(kind_i) in
      let seed = Int64.of_int seed in
      let topology =
        if flat then Topology.Flat else Topology.Fat_tree { radix; oversub }
      in
      let run ~batching =
        run_probe ~topology ~linkfaults ~batching ~kind ~n_nodes ~rpn ~seed
          ~faults ~shard:false ()
      in
      (run ~batching:true).fp = (run ~batching:false).fp)

(* The same law pinned non-vacuously: a seed/rate point where the batched
   run demonstrably parks or re-routes packets around down links, forms
   trains and aborts some of them — and still reproduces every result,
   fault counters included, bit for bit.  One rank per node: a second
   open context on the HFI closes the train gate. *)
let test_ft_linkfault_identity () =
  let kind = Cluster.Mckernel_hfi and n_nodes = 6 and rpn = 1
  and seed = 0x5EEDL in
  let topology = Topology.Fat_tree { radix = 2; oversub = 1 } in
  let run ~batching =
    run_probe ~app:xchg_app ~topology ~linkfaults:true ~batching ~kind
      ~n_nodes ~rpn ~seed ~faults:false ~shard:false ()
  in
  let batched = run ~batching:true in
  Alcotest.(check bool) "link faults actually bit (parks or reroutes)" true
    (batched.linkhits > 0);
  Alcotest.(check bool) "trains formed (events elided)" true
    (batched.elided > 0);
  Alcotest.(check bool) "trains aborted" true (batched.aborts > 0);
  Alcotest.(check string) "faulted fat-tree identity" batched.fp
    (run ~batching:false).fp

(* Two fat-tree worlds where same-instant ties on unordered links decide
   results, so a transmit path that schedules its egress events in a
   different order from the per-packet path changes them.  (a) is a
   shrunk point of the law above, with link faults and one rank per node
   on a radix-3 tree.  (b) is `picobench faults`'s `down` world for Linux
   and McKernel: a 64 kB ping-pong between the two farthest nodes of a
   radix-4 2:1 tree while links go down (MTBF 400 us); every
   per-iteration latency sample, the fabric fault counters and the rest
   of the fingerprint must be bit-equal with batching on and off. *)
let test_ft_tie_identity () =
  let run ~batching =
    run_probe ~topology:(Topology.Fat_tree { radix = 3; oversub = 1 })
      ~linkfaults:true ~batching ~kind:Cluster.Mckernel_hfi ~n_nodes:3 ~rpn:1
      ~seed:9182L ~faults:false ~shard:false ()
  in
  Alcotest.(check string) "radix-3 link-fault point" (run ~batching:false).fp
    (run ~batching:true).fp;
  let down_world ~batching kind =
    Hfi.batching := batching;
    Fun.protect ~finally:(fun () -> Hfi.batching := true) @@ fun () ->
    Costs.with_patched
      (fun c ->
        c.Costs.fault_horizon <- 4.0e7;
        c.Costs.fault_link_down_interval <- 4.0e5;
        c.Costs.fault_link_down_duration <- 1.0e5)
    @@ fun () ->
    let cl =
      Cluster.build kind ~n_nodes:8
        ~topology:(Topology.Fat_tree { radix = 4; oversub = 2 }) ()
    in
    Fault.install cl;
    let out = ref [] in
    let res =
      Experiment.run cl ~ranks_per_node:1
        (Pico_apps.Imb.pingpong_samples ~iters:120 ~peer:7 ~size:(64 * 1024)
           ~out)
    in
    String.concat ";"
      (List.map (fun x -> Printf.sprintf "%Lx" (Int64.bits_of_float x)) !out)
    ^ "|" ^ fingerprint cl res
  in
  List.iter
    (fun kind ->
      Alcotest.(check string)
        (Printf.sprintf "faults down world, %s" (Cluster.kind_to_string kind))
        (down_world ~batching:false kind) (down_world ~batching:true kind))
    [ Cluster.Linux; Cluster.Mckernel ]

(* --- route memoization ------------------------------------------------------ *)

let prop_route_memo =
  QCheck2.Test.make ~name:"memoized route = recomputed route" ~count:200
    QCheck2.Gen.(
      tup5 (int_range 1 8) (int_range 1 4) (int_range 0 63) (int_range 0 63)
        (int_range 0 7))
    (fun (radix, oversub, src, dst, dst_ctx) ->
      let topo = Topology.Fat_tree { radix; oversub } in
      let memo = Route.Memo.create topo in
      let direct = Route.route topo ~src ~dst ~dst_ctx in
      Route.Memo.route memo ~src ~dst ~dst_ctx = direct
      (* second lookup serves the cached list *)
      && Route.Memo.route memo ~src ~dst ~dst_ctx = direct)

let test_route_memo_flat () =
  let memo = Route.Memo.create Topology.Flat in
  Alcotest.(check bool) "flat routes are empty" true
    (Route.Memo.route memo ~src:0 ~dst:5 ~dst_ctx:1 = [])

(* --- shard counters --------------------------------------------------------- *)

let test_shard_counters () =
  let kind = Cluster.Mckernel_hfi and n_nodes = 3 and rpn = 2
  and seed = 7L in
  with_faults false @@ fun () ->
  let cl = Cluster.build kind ~n_nodes ~sharding:true ~seed () in
  let sim = cl.Cluster.sim in
  Alcotest.(check bool) "sharded" true (Sim.sharded sim);
  Alcotest.(check int) "one shard per node" n_nodes (Sim.shard_count sim);
  ignore (Experiment.run cl ~ranks_per_node:rpn app);
  let per_shard = Sim.shard_events sim in
  Alcotest.(check int) "per-shard events sum to the total"
    (Sim.events_processed sim)
    (Array.fold_left ( + ) 0 per_shard);
  Alcotest.(check bool) "every shard did work" true
    (Array.for_all (fun n -> n > 0) per_shard);
  Alcotest.(check bool) "epoch rounds ran" true (Sim.barrier_rounds sim > 0);
  Alcotest.(check bool) "cross-shard events merged" true
    (Sim.xshard_events sim > 0);
  Alcotest.(check bool) "idle epochs skipped" true (Sim.epochs_elided sim >= 0)

let test_unsharded_counters () =
  let cl = Cluster.build Cluster.Linux ~n_nodes:2 ~sharding:false ~seed:7L () in
  let sim = cl.Cluster.sim in
  ignore (Experiment.run cl ~ranks_per_node:1 app);
  Alcotest.(check bool) "not sharded" false (Sim.sharded sim);
  Alcotest.(check int) "no shards" 0 (Sim.shard_count sim);
  Alcotest.(check int) "no barriers" 0 (Sim.barrier_rounds sim);
  Alcotest.(check int) "no cross-shard events" 0 (Sim.xshard_events sim)

(* A sharding request on a genuinely unshardable config (single node) is
   refused, counted, and the cluster runs unsharded with the results of
   a build that never asked. *)
let test_shard_refused () =
  let build sharding =
    Cluster.build Cluster.Linux ~n_nodes:1 ~sharding ~seed:1L ()
  in
  let before = Cluster.shard_refusals () in
  let cl = build true in
  Alcotest.(check bool) "single-node cluster is unsharded" false
    (Sim.sharded cl.Cluster.sim);
  Alcotest.(check int) "refusal counted" (before + 1)
    (Cluster.shard_refusals ());
  let res = Experiment.run cl ~ranks_per_node:2 app in
  Alcotest.(check bool) "runs to completion" true
    (res.Experiment.fom_ns > 0.);
  let plain = build false in
  Alcotest.(check string) "same results as unrequested"
    (fingerprint plain (Experiment.run plain ~ranks_per_node:2 app))
    (fingerprint cl res)

(* Fat-trees never shard: a sharding request is refused and counted like
   a single-node one, and the pairwise-exchange workload that forces
   mid-train link contention gives the same results as a build that
   never asked. *)
let test_fat_tree_shards () =
  let topology = Topology.Fat_tree { radix = 2; oversub = 1 } in
  let before = Cluster.shard_refusals () in
  let cl =
    Cluster.build Cluster.Mckernel ~n_nodes:4 ~topology ~sharding:true
      ~seed:3L ()
  in
  Alcotest.(check bool) "fat-tree cluster is unsharded" false
    (Sim.sharded cl.Cluster.sim);
  Alcotest.(check int) "no shards" 0 (Sim.shard_count cl.Cluster.sim);
  Alcotest.(check int) "refusal counted" (before + 1)
    (Cluster.shard_refusals ());
  let run ~shard =
    run_probe ~topology ~app:xchg_app ~kind:Cluster.Mckernel_hfi ~n_nodes:4
      ~rpn:2 ~seed:3L ~faults:false ~shard ()
  in
  let off = run ~shard:false in
  let on = run ~shard:true in
  Alcotest.(check string) "identical results" off.fp on.fp

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "scale"
    [ ("identity",
       [ q prop_shard_identity;
         q prop_batching_identity;
         Alcotest.test_case "umt wavefront identity" `Slow test_umt_identity;
         Alcotest.test_case "halt shard on/off" `Slow test_halt_shard;
         Alcotest.test_case "faulted fat-tree identity" `Slow
           test_ft_linkfault_identity;
         Alcotest.test_case "fat-tree tie worlds" `Slow test_ft_tie_identity ]);
      ("route",
       [ q prop_route_memo;
         Alcotest.test_case "flat memo" `Quick test_route_memo_flat ]);
      ("counters",
       [ Alcotest.test_case "sharded counters" `Slow test_shard_counters;
         Alcotest.test_case "unsharded counters" `Quick
           test_unsharded_counters;
         Alcotest.test_case "fat-tree shards" `Slow test_fat_tree_shards;
         Alcotest.test_case "shard refusal" `Quick test_shard_refused ]) ]
