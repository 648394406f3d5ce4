(* Tests for the sharded service workload (lib/serve): arrival-plan
   determinism (same seed => same plan, in any domain), bit-exactness
   against the list-scan reference plan, the zero-knob
   inertness law (the defaults return an empty plan without taking the
   caller's RNG split), an end-to-end run with admission shedding and
   breaker trips live, and shard-on/off and ledger-armed identity of the
   full result fingerprint — every latency sample, the shed/trip
   counters and the fabric counters — and of the recorded ledger
   content, on flat worlds. *)

module Rng = Pico_engine.Rng
module Ledger = Pico_engine.Ledger
module Fabric = Pico_nic.Fabric
module Costs = Pico_costs.Costs
module Cluster = Pico_harness.Cluster
module Experiment = Pico_harness.Experiment
module Breakdown = Pico_harness.Breakdown
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

(* Reference plan: the sub-streams, draws and float expressions of
   [Arrivals.plan], with no cursor and nothing hoisted — every arrival
   scans every burst window ([in_burst]) and every Pareto draw takes
   its own powers. *)
let reference_plan ~split () =
  let c = Costs.current () in
  if not (c.Costs.serve_horizon > 0. && c.Costs.serve_arrival_interval > 0.)
  then [||]
  else begin
    let rng = split () in
    let arr_rng = Rng.split rng in
    let size_rng = Rng.split rng in
    let key_rng = Rng.split rng in
    let burst_rng = Rng.split rng in
    let horizon = c.Costs.serve_horizon in
    let windows =
      if c.Costs.serve_burst_interval <= 0. then []
      else begin
        let rec go t acc =
          let s =
            t +. Rng.exponential burst_rng ~mean:c.Costs.serve_burst_interval
          in
          if s >= horizon then List.rev acc
          else
            let e = s +. c.Costs.serve_burst_duration in
            go e ((s, e) :: acc)
        in
        go 0. []
      end
    in
    let in_burst t = List.exists (fun (s, e) -> t >= s && t < e) windows in
    let bounded_pareto ~lo ~hi ~alpha =
      if hi <= lo then lo
      else begin
        let u = Rng.float size_rng in
        let l = float_of_int lo and h = float_of_int hi in
        let la = l ** alpha and ha = h ** alpha in
        let x =
          (-.(u *. ha -. u *. la -. ha) /. (ha *. la)) ** (-1. /. alpha)
        in
        min hi (max lo (int_of_float x))
      end
    in
    let interval = c.Costs.serve_arrival_interval in
    let boosted = interval /. Float.max 1. c.Costs.serve_burst_factor in
    let req_mean =
      Float.max 1. (float_of_int (c.Costs.serve_req_bytes - 64))
    in
    let req_cap = max 64 (min 16_384 (4 * c.Costs.serve_req_bytes)) in
    let rec go t acc =
      let mean = if in_burst t then boosted else interval in
      let t = t +. Rng.exponential arr_rng ~mean in
      if t >= horizon then List.rev acc
      else begin
        let req_bytes =
          min req_cap
            (64 + int_of_float (Rng.exponential size_rng ~mean:req_mean))
        in
        let resp_bytes =
          bounded_pareto ~lo:c.Costs.serve_resp_min ~hi:c.Costs.serve_resp_max
            ~alpha:c.Costs.serve_resp_alpha
        in
        let key = Rng.int key_rng 0x3FFF_FFFF in
        go t ({ Arrivals.at = t; req_bytes; resp_bytes; key } :: acc)
      end
    in
    Array.of_list (go 0. [])
  end

type knobs = {
  k_seed : int;
  k_interval : float;
  k_horizon : float;
  k_burst_interval : float;
  k_burst_duration : float;
  k_burst_factor : float;
  k_req_bytes : int;
  k_resp_min : int;
  k_resp_max : int;
  k_alpha : float;
}

let show_knobs k =
  Printf.sprintf
    "seed=%d interval=%h horizon=%h burst_interval=%h burst_duration=%h \
     burst_factor=%h req_bytes=%d resp=[%d, %d] alpha=%h"
    k.k_seed k.k_interval k.k_horizon k.k_burst_interval k.k_burst_duration
    k.k_burst_factor k.k_req_bytes k.k_resp_min k.k_resp_max k.k_alpha

(* Bursts off or on; windows of zero length, shorter than the mean gap
   between them or longer; a burst factor that boosts or does not; and
   Pareto bounds in either order. *)
let gen_knobs =
  let open QCheck2.Gen in
  let* k_seed = int_range 0 1_000_000
  and* k_interval = float_range 50. 5_000.
  and* planned = int_range 1 800 in
  let* k_burst_interval =
    oneof [ pure 0.; float_range (0.5 *. k_interval) (50. *. k_interval) ]
  in
  let* k_burst_duration =
    oneof
      [ pure 0.;
        map (fun f -> f *. k_burst_interval) (float_range 0.01 0.99);
        map (fun f -> f *. k_burst_interval) (float_range 1.01 4.) ]
  and* k_burst_factor = oneof [ float_range 0. 1.; float_range 1.01 8. ]
  and* k_req_bytes = int_range 1 8_192
  and* k_resp_min = int_range 1 100_000
  and* spread = int_range (-1_000) 1_000_000
  and* k_alpha = float_range 0.3 3. in
  return
    { k_seed; k_interval; k_horizon = k_interval *. float_of_int planned;
      k_burst_interval; k_burst_duration; k_burst_factor; k_req_bytes;
      k_resp_min; k_resp_max = k_resp_min + spread; k_alpha }

let with_knobs k f =
  Costs.with_patched
    (fun c ->
      c.Costs.serve_arrival_interval <- k.k_interval;
      c.Costs.serve_horizon <- k.k_horizon;
      c.Costs.serve_burst_interval <- k.k_burst_interval;
      c.Costs.serve_burst_duration <- k.k_burst_duration;
      c.Costs.serve_burst_factor <- k.k_burst_factor;
      c.Costs.serve_req_bytes <- k.k_req_bytes;
      c.Costs.serve_resp_min <- k.k_resp_min;
      c.Costs.serve_resp_max <- k.k_resp_max;
      c.Costs.serve_resp_alpha <- k.k_alpha)
    f

let same_request (a : Arrivals.request) (b : Arrivals.request) =
  Int64.equal (Int64.bits_of_float a.Arrivals.at)
    (Int64.bits_of_float b.Arrivals.at)
  && a.Arrivals.req_bytes = b.Arrivals.req_bytes
  && a.Arrivals.resp_bytes = b.Arrivals.resp_bytes
  && a.Arrivals.key = b.Arrivals.key

let prop_plan_reference =
  QCheck2.Test.make ~name:"plan = list-scan reference (bit-exact)" ~count:200
    ~print:show_knobs gen_knobs
    (fun k ->
      with_knobs k (fun () ->
          let build f =
            let rng = Rng.create ~seed:(Int64.of_int k.k_seed) in
            f ~split:(fun () -> Rng.split rng) ()
          in
          let got = build Arrivals.plan and want = build reference_plan in
          if Array.length got <> Array.length want then
            QCheck2.Test.fail_reportf "%d arrivals, reference %d"
              (Array.length got) (Array.length want);
          Array.iteri
            (fun i a ->
              if not (same_request a want.(i)) then
                QCheck2.Test.fail_reportf "arrival %d of %d differs" i
                  (Array.length got))
            got;
          true))

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
  (cl, res, out)

let test_end_to_end () =
  Costs.with_patched arm (fun () ->
      let _, _, out = run_world Cluster.Mckernel_hfi ~n_nodes:4 in
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

(* --- shard-on/off and ledger identity -------------------------------------- *)

(* Full result fingerprint, bit for bit ([%Lx] of each float): the
   world's FOM, wall and init times, fabric packets and bytes and fault
   counters, then every service counter and every latency sample.
   Anything the serve figure reports derives from these. *)
let fingerprint (cl : Cluster.t) (res : Experiment.result) out =
  let b = Buffer.create 512 in
  let fs = Fabric.fault_stats cl.Cluster.fabric in
  Buffer.add_string b
    (Printf.sprintf "F%Lx;%Lx;%Lx;%d;%d;%d:%Lx:%d:%d:%d:%d:%d"
       (Int64.bits_of_float res.Experiment.fom_ns)
       (Int64.bits_of_float res.Experiment.wall_ns)
       (Int64.bits_of_float res.Experiment.init_ns)
       (Fabric.packets_delivered cl.Cluster.fabric)
       (Fabric.bytes_delivered cl.Cluster.fabric)
       fs.Fabric.fs_parks
       (Int64.bits_of_float fs.Fabric.fs_park_ns)
       fs.Fabric.fs_replays fs.Fabric.fs_reroutes fs.Fabric.fs_egress_parks
       fs.Fabric.fs_retries fs.Fabric.fs_degraded);
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
   (sharded builds force it).  Returns the result fingerprint, the
   number of ledgers the run recorded and their content digest. *)
let probe ~ledgers ~shard kind =
  Costs.with_patched arm @@ fun () ->
  ignore (Breakdown.take_fingerprint ());
  Ledger.set_on ledgers;
  Fun.protect ~finally:(fun () -> Ledger.set_on false) @@ fun () ->
  let cl, res, out =
    run_world ~sharding:shard ~ordered_arrivals:true kind ~n_nodes:4
  in
  let recorded = Breakdown.size () in
  (fingerprint cl res out, recorded, Breakdown.take_fingerprint ())

(* The only home of the serve layer's mode-identity laws, per OS kind on
   the armed 4-node flat world (admission, breaker and deadline live):
   sharding changes no result; arming the serve ledgers changes no
   result, sharded or not; and a sharded run records the same ledger
   content as the unsharded one. *)
let test_shard_identity () =
  List.iter
    (fun kind ->
      let name law =
        Printf.sprintf "%s %s" (Cluster.kind_to_string kind) law
      in
      let off, _, _ = probe ~ledgers:false ~shard:false kind in
      let on, _, _ = probe ~ledgers:false ~shard:true kind in
      let armed, n_armed, lg_off = probe ~ledgers:true ~shard:false kind in
      let armed_on, _, lg_on = probe ~ledgers:true ~shard:true kind in
      Alcotest.(check string) (name "shard on = off") off on;
      Alcotest.(check bool) (name "armed runs record ledgers") true
        (n_armed > 0);
      Alcotest.(check string) (name "ledgers off = armed") off armed;
      Alcotest.(check string) (name "ledgers off = armed, sharded") off
        armed_on;
      Alcotest.(check string) (name "ledger shard on = off") lg_off lg_on)
    [ Cluster.Linux; Cluster.Mckernel; Cluster.Mckernel_hfi ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [ ("arrivals",
       [ qc prop_plan_deterministic;
         qc prop_plan_shape;
         qc prop_plan_reference;
         Alcotest.test_case "zero-knob defaults take no split" `Quick
           test_zero_knob_no_split ]);
      ("serve",
       [ Alcotest.test_case "end to end: shed + breaker live" `Quick
           test_end_to_end;
         Alcotest.test_case "shard on/off fingerprint identity" `Quick
           test_shard_identity ]) ]
