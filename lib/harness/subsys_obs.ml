open H_import

(* Per-subsystem metrics, aggregated per figure (ISSUE: offload round
   trips, SDMA occupancy, PIO/SDMA split, lock contention, GUP pins,
   cross-kernel frees).  One {!sample} snapshots a cluster's cumulative
   counters; samples arrive from pool worker domains in nondeterministic
   order, so every float fold happens at {!flush}, over samples sorted by
   a canonical content key — jobs=1 and jobs=N then add the same floats
   in the same order and the JSON stays byte-identical. *)

type sample = {
  uid : int; (* replacement key: latest snapshot of a cluster wins *)
  label : string;
  wall_ns : float;
  sdma_engines : int;
  sdma_requests : int;
  sdma_bytes : int;
  sdma_txs : int;
  sdma_busy : float;
  per_engine : (int * int * float) array;
  pio_packets : int;
  pio_bytes : int;
  offload_calls : int;
  queueing_ns : float;
  offload : (string * (int * float * Stats.Histogram.t)) list;
  locks : (string * (int * int * float)) list;
  gup_pinned : int;
  slab_kfrees : int;
  remote_kfrees : int;
  translations : int;
  cross_callbacks : int;
  pt_segments : int;
  (* fault injection: all zero (and omitted from the JSON) when no fault
     was armed, so sunny-day figures' reports are byte-identical *)
  sdma_halts : int;
  sdma_halted_ns : float;
  crc_retransmits : int;
  ikc_drops : int;
  ikc_retries : int;
  fallback_submits : int;
  service_stalls : int;
  (* Fabric congestion, per tier ("up"/"down"/"host"): links, packets,
     bytes, busy_ns, peak queue, contended arrivals.  Empty under the
     flat topology, so calibrated figures' reports are byte-identical. *)
  fabric : (string * (int * int * int * float * int * int)) list;
  (* Fabric fault domain (DESIGN.md section 14): all zero / empty when no
     link-fault injector is installed, so sunny-day reports stay
     byte-identical. *)
  fab_parks : int;
  fab_park_ns : float;
  fab_replays : int;
  fab_reroutes : int;
  fab_egress_parks : int;
  fab_retries : int;
  fab_degraded : int;
  fab_downtime : (string * float) list;
}

let mutex = Mutex.create ()

let samples : (int, sample) Hashtbl.t = Hashtbl.create 64

let reset () =
  Mutex.lock mutex;
  Hashtbl.reset samples;
  Mutex.unlock mutex

(* Fold an addend into a name-keyed assoc (kept sorted by name so
   per-cluster aggregation is order-independent too). *)
let assoc_add merge key v l =
  let rec go = function
    | [] -> [ (key, v) ]
    | (k, w) :: rest ->
      if k = key then (k, merge w v) :: rest
      else if k > key then (key, v) :: (k, w) :: rest
      else (k, w) :: go rest
  in
  go l

let sample_of_cluster (cl : Cluster.t) =
  let label =
    Printf.sprintf "%s/%dn"
      (Cluster.kind_to_string cl.Cluster.kind)
      (Array.length cl.Cluster.nodes)
  in
  let fs = Fabric.fault_stats cl.Cluster.fabric in
  let acc =
    ref
      { uid = cl.Cluster.uid; label; wall_ns = Sim.now cl.Cluster.sim;
        sdma_engines = 0; sdma_requests = 0; sdma_bytes = 0; sdma_txs = 0;
        sdma_busy = 0.; per_engine = [||]; pio_packets = 0; pio_bytes = 0;
        offload_calls = 0; queueing_ns = 0.; offload = []; locks = [];
        gup_pinned = 0; slab_kfrees = 0; remote_kfrees = 0; translations = 0;
        cross_callbacks = 0; pt_segments = 0;
        sdma_halts = 0; sdma_halted_ns = 0.; crc_retransmits = 0;
        ikc_drops = 0; ikc_retries = 0; fallback_submits = 0;
        service_stalls = 0;
        fabric =
          (* Cluster-level (one fabric per simulated world), already
             tier-aggregated in deterministic link-name order. *)
          List.map
            (fun (ts : Fabric.tier_stats) ->
              ( ts.Fabric.ts_tier,
                ( ts.Fabric.ts_links, ts.Fabric.ts_packets,
                  ts.Fabric.ts_bytes, ts.Fabric.ts_busy_ns,
                  ts.Fabric.ts_peak_queue, ts.Fabric.ts_contended ) ))
            (Fabric.tier_stats cl.Cluster.fabric);
        (* Cluster-level too: park/replay/reroute counters live on the
           fabric (links + per-source accumulators), retry/degraded on
           the HFIs but folded there in name-sorted order already. *)
        fab_parks = fs.Fabric.fs_parks;
        fab_park_ns = fs.Fabric.fs_park_ns;
        fab_replays = fs.Fabric.fs_replays;
        fab_reroutes = fs.Fabric.fs_reroutes;
        fab_egress_parks = fs.Fabric.fs_egress_parks;
        fab_retries = fs.Fabric.fs_retries;
        fab_degraded = fs.Fabric.fs_degraded;
        fab_downtime =
          Fabric.downtime_by_tier cl.Cluster.fabric
            ~until:(Sim.now cl.Cluster.sim) }
  in
  let add_engines a b =
    let n = max (Array.length a) (Array.length b) in
    Array.init n (fun i ->
        let r1, b1, t1 = if i < Array.length a then a.(i) else (0, 0, 0.) in
        let r2, b2, t2 = if i < Array.length b then b.(i) else (0, 0, 0.) in
        (r1 + r2, b1 + b2, t1 +. t2))
  in
  let note_lock l lock =
    assoc_add
      (fun (a1, c1, w1) (a2, c2, w2) -> (a1 + a2, c1 + c2, w1 +. w2))
      (Pico_linux.Spinlock.name lock)
      ( Pico_linux.Spinlock.acquisitions lock,
        Pico_linux.Spinlock.contended lock,
        Pico_linux.Spinlock.wait_ns lock )
      l
  in
  Array.iter
    (fun (ne : Cluster.node_env) ->
      let a = !acc in
      let sdma = Hfi.sdma ne.Cluster.hfi in
      let locks =
        note_lock
          (note_lock
             (note_lock a.locks (Hfi1_driver.sdma_lock ne.Cluster.driver))
             (Hfi1_driver.tid_lock ne.Cluster.driver))
          (Pico_linux.Mlx_driver.mr_lock ne.Cluster.mlx)
      in
      let offload, offload_calls, queueing =
        match ne.Cluster.mck with
        | None -> (a.offload, 0, 0.)
        | Some mck ->
          let d = Mck.delegator mck in
          ( List.fold_left
              (fun l (name, summ, hist) ->
                assoc_add
                  (fun (c1, t1, h1) (c2, t2, h2) ->
                    (c1 + c2, t1 +. t2, Stats.Histogram.merge h1 h2))
                  name
                  ( Stats.Summary.n summ,
                    Stats.Summary.total summ,
                    (* fresh copy: flush must not alias live counters *)
                    Stats.Histogram.merge hist (Stats.Histogram.create ()) )
                  l)
              a.offload (Delegator.offload_stats d),
            Delegator.offloaded_calls d,
            Delegator.queueing_ns d )
      in
      acc :=
        { a with
          sdma_engines = a.sdma_engines + Sdma.n_engines sdma;
          sdma_requests = a.sdma_requests + Sdma.requests_submitted sdma;
          sdma_bytes = a.sdma_bytes + Sdma.bytes_submitted sdma;
          sdma_txs = a.sdma_txs + Sdma.txs_completed sdma;
          sdma_busy = a.sdma_busy +. Sdma.busy_ns sdma;
          per_engine = add_engines a.per_engine (Sdma.engine_stats sdma);
          pio_packets = a.pio_packets + Hfi.pio_packets ne.Cluster.hfi;
          pio_bytes = a.pio_bytes + Hfi.pio_bytes ne.Cluster.hfi;
          offload; locks;
          offload_calls = a.offload_calls + offload_calls;
          queueing_ns = a.queueing_ns +. queueing;
          gup_pinned =
            a.gup_pinned
            + Pico_linux.Gup.total_pinned ne.Cluster.linux.Lkernel.gup;
          slab_kfrees =
            a.slab_kfrees
            + Pico_linux.Slab.kfrees ne.Cluster.linux.Lkernel.slab;
          remote_kfrees =
            (a.remote_kfrees
             + match ne.Cluster.mck with
               | None -> 0
               | Some m -> Mem.remote_frees (Mck.mem m));
          translations =
            (a.translations
             + match ne.Cluster.mck with
               | None -> 0
               | Some m -> Vspace.translations (Mck.vspace m));
          cross_callbacks =
            (a.cross_callbacks
             + match ne.Cluster.pico with
               | None -> 0
               | Some p ->
                 Pico_driver.Callbacks.cross_invocations
                   (Hfi1_pico.installed p).Framework.callbacks);
          pt_segments =
            (a.pt_segments
             + match ne.Cluster.pico with
               | None -> 0
               | Some p -> Hfi1_pico.pt_segments p);
          sdma_halts = a.sdma_halts + Sdma.halts sdma;
          sdma_halted_ns = a.sdma_halted_ns +. Sdma.halted_ns sdma;
          crc_retransmits =
            a.crc_retransmits + Hfi.crc_retransmits ne.Cluster.hfi;
          ikc_drops =
            (a.ikc_drops
             + match ne.Cluster.mck with
               | None -> 0
               | Some m -> Delegator.ikc_drops (Mck.delegator m));
          ikc_retries =
            (a.ikc_retries
             + match ne.Cluster.mck with
               | None -> 0
               | Some m -> Delegator.ikc_retries (Mck.delegator m));
          fallback_submits =
            (a.fallback_submits
             + match ne.Cluster.pico with
               | None -> 0
               | Some p -> Hfi1_pico.writev_fallback p);
          service_stalls =
            a.service_stalls + ne.Cluster.linux.Lkernel.service_stalls })
    cl.Cluster.nodes;
  !acc

let note_cluster cl =
  let s = sample_of_cluster cl in
  Mutex.lock mutex;
  Hashtbl.replace samples s.uid s;
  Mutex.unlock mutex

(* Canonical content key: every field (floats via %h, exact), so the
   flush-time sort depends on the samples alone, never on which worker
   domain delivered them first.  The uid is deliberately excluded — it is
   allocation-order-dependent. *)
let key_of s =
  let b = Buffer.create 256 in
  Buffer.add_string b s.label;
  Printf.bprintf b "|%h|%d|%d|%d|%d|%h" s.wall_ns s.sdma_engines
    s.sdma_requests s.sdma_bytes s.sdma_txs s.sdma_busy;
  Array.iter (fun (r, y, t) -> Printf.bprintf b "|e%d,%d,%h" r y t)
    s.per_engine;
  Printf.bprintf b "|%d|%d|%d|%h" s.pio_packets s.pio_bytes s.offload_calls
    s.queueing_ns;
  List.iter
    (fun (n, (c, t, h)) ->
      Printf.bprintf b "|o%s,%d,%h" n c t;
      List.iter (fun (lo, k) -> Printf.bprintf b ";%h:%d" lo k)
        (Stats.Histogram.buckets h))
    s.offload;
  List.iter (fun (n, (a, c, w)) -> Printf.bprintf b "|l%s,%d,%d,%h" n a c w)
    s.locks;
  Printf.bprintf b "|%d|%d|%d|%d|%d|%d" s.gup_pinned s.slab_kfrees
    s.remote_kfrees s.translations s.cross_callbacks s.pt_segments;
  Printf.bprintf b "|%d|%h|%d|%d|%d|%d|%d" s.sdma_halts s.sdma_halted_ns
    s.crc_retransmits s.ikc_drops s.ikc_retries s.fallback_submits
    s.service_stalls;
  List.iter
    (fun (n, (l, p, y, t, q, c)) ->
      Printf.bprintf b "|t%s,%d,%d,%d,%h,%d,%d" n l p y t q c)
    s.fabric;
  Printf.bprintf b "|%d|%h|%d|%d|%d|%d|%d" s.fab_parks s.fab_park_ns
    s.fab_replays s.fab_reroutes s.fab_egress_parks s.fab_retries
    s.fab_degraded;
  List.iter (fun (n, d) -> Printf.bprintf b "|f%s,%h" n d) s.fab_downtime;
  Buffer.contents b

(* Ratio keys must stay finite on degenerate windows (zero-duration
   worlds, zero-byte traffic): emit 0, never NaN/inf. *)
let ratio num den =
  let v = if den > 0. then num /. den else 0. in
  if Float.is_finite v then v else 0.

let flush ~figure =
  Mutex.lock mutex;
  let ss = Hashtbl.fold (fun _ s acc -> s :: acc) samples [] in
  Hashtbl.reset samples;
  Mutex.unlock mutex;
  match List.sort (fun a b -> compare (key_of a) (key_of b)) ss with
  | [] -> ()
  | sorted ->
    let rec_ metric v = Report.record ~figure ~metric v in
    let fi = float_of_int in
    (* Ints are order-insensitive sums; floats fold in sorted order. *)
    let isum f = List.fold_left (fun acc s -> acc + f s) 0 sorted in
    let fsum f = List.fold_left (fun acc s -> acc +. f s) 0. sorted in
    let offload_calls = isum (fun s -> s.offload_calls) in
    if offload_calls > 0 then begin
      rec_ "offload/calls" (fi offload_calls);
      rec_ "offload/queueing_ns" (fsum (fun s -> s.queueing_ns))
    end;
    let offload =
      List.fold_left
        (fun l s ->
          List.fold_left
            (fun l (n, v) ->
              assoc_add
                (fun (c1, t1, h1) (c2, t2, h2) ->
                  (c1 + c2, t1 +. t2, Stats.Histogram.merge h1 h2))
                n v l)
            l s.offload)
        [] sorted
    in
    List.iter
      (fun (name, (calls, total, hist)) ->
        let p = Printf.sprintf "offload/%s/" name in
        rec_ (p ^ "calls") (fi calls);
        rec_ (p ^ "total_ns") total;
        rec_ (p ^ "mean_ns") (ratio total (fi calls));
        rec_ (p ^ "p99_ns") (Stats.Histogram.percentile hist 99.))
      offload;
    let sdma_requests = isum (fun s -> s.sdma_requests) in
    if sdma_requests > 0 then begin
      rec_ "sdma/requests" (fi sdma_requests);
      rec_ "sdma/bytes" (fi (isum (fun s -> s.sdma_bytes)));
      rec_ "sdma/txs" (fi (isum (fun s -> s.sdma_txs)));
      rec_ "sdma/busy_ns" (fsum (fun s -> s.sdma_busy));
      (* Occupancy: busy engine time over available engine time, summed
         over every simulated world of the figure. *)
      let avail =
        fsum (fun s -> s.wall_ns *. fi s.sdma_engines)
      in
      rec_ "sdma/occupancy" (ratio (fsum (fun s -> s.sdma_busy)) avail);
      let per_engine =
        List.fold_left
          (fun acc s ->
            let n = max (Array.length acc) (Array.length s.per_engine) in
            Array.init n (fun i ->
                let r1, b1, t1 =
                  if i < Array.length acc then acc.(i) else (0, 0, 0.)
                in
                let r2, b2, t2 =
                  if i < Array.length s.per_engine then s.per_engine.(i)
                  else (0, 0, 0.)
                in
                (r1 + r2, b1 + b2, t1 +. t2)))
          [||] sorted
      in
      Array.iteri
        (fun i (reqs, bytes, busy) ->
          if reqs > 0 then begin
            let p = Printf.sprintf "sdma/engine%d/" i in
            rec_ (p ^ "requests") (fi reqs);
            rec_ (p ^ "bytes") (fi bytes);
            rec_ (p ^ "busy_ns") busy
          end)
        per_engine
    end;
    let pio_bytes = isum (fun s -> s.pio_bytes) in
    let sdma_bytes = isum (fun s -> s.sdma_bytes) in
    rec_ "hfi/pio_packets" (fi (isum (fun s -> s.pio_packets)));
    rec_ "hfi/pio_bytes" (fi pio_bytes);
    if pio_bytes + sdma_bytes > 0 then
      rec_ "hfi/pio_byte_share"
        (ratio (fi pio_bytes) (fi (pio_bytes + sdma_bytes)));
    let locks =
      List.fold_left
        (fun l s ->
          List.fold_left
            (fun l (n, v) ->
              assoc_add
                (fun (a1, c1, w1) (a2, c2, w2) ->
                  (a1 + a2, c1 + c2, w1 +. w2))
                n v l)
            l s.locks)
        [] sorted
    in
    List.iter
      (fun (name, (acq, cont, wait)) ->
        if acq > 0 then begin
          let p = Printf.sprintf "lock/%s/" name in
          rec_ (p ^ "acquisitions") (fi acq);
          rec_ (p ^ "contended") (fi cont);
          rec_ (p ^ "wait_ns") wait
        end)
      locks;
    let opt name v = if v > 0 then rec_ name (fi v) in
    opt "gup/pages_pinned" (isum (fun s -> s.gup_pinned));
    opt "slab/kfrees" (isum (fun s -> s.slab_kfrees));
    opt "mem/remote_kfrees" (isum (fun s -> s.remote_kfrees));
    opt "vspace/translations" (isum (fun s -> s.translations));
    opt "callbacks/cross_invocations" (isum (fun s -> s.cross_callbacks));
    opt "pico/pt_segments" (isum (fun s -> s.pt_segments));
    (* Fault counters: every key is omitted at zero, so figures that never
       arm a fault keep a byte-identical report. *)
    let halts = isum (fun s -> s.sdma_halts) in
    let drops = isum (fun s -> s.ikc_drops) in
    let crc = isum (fun s -> s.crc_retransmits) in
    let stalls = isum (fun s -> s.service_stalls) in
    opt "fault/sdma_halts" halts;
    if halts > 0 then
      rec_ "fault/sdma_halted_ns" (fsum (fun s -> s.sdma_halted_ns));
    opt "fault/crc_retransmits" crc;
    opt "fault/ikc_drops" drops;
    opt "fault/ikc_retries" (isum (fun s -> s.ikc_retries));
    opt "fault/fallback_submits" (isum (fun s -> s.fallback_submits));
    opt "fault/service_stalls" stalls;
    opt "fault/injected" (halts + drops + crc + stalls);
    (* Fabric congestion: only fat-tree worlds ever instantiate links,
       so flat figures emit no fabric/* keys at all. *)
    let fabric =
      List.fold_left
        (fun l s ->
          List.fold_left
            (fun l (n, v) ->
              assoc_add
                (fun (l1, p1, b1, t1, q1, c1) (l2, p2, b2, t2, q2, c2) ->
                  (l1 + l2, p1 + p2, b1 + b2, t1 +. t2, max q1 q2, c1 + c2))
                n v l)
            l s.fabric)
        [] sorted
    in
    List.iter
      (fun (tier, (links, pkts, bytes, busy, peak, cont)) ->
        if pkts > 0 then begin
          let p = Printf.sprintf "fabric/%s/" tier in
          rec_ (p ^ "links") (fi links);
          rec_ (p ^ "packets") (fi pkts);
          rec_ (p ^ "bytes") (fi bytes);
          rec_ (p ^ "busy_ns") busy;
          rec_ (p ^ "peak_queue") (fi peak);
          rec_ (p ^ "contended") (fi cont)
        end)
      fabric;
    (* Fabric fault domain: every key zero-omitted, so figures without a
       link-fault injector keep a byte-identical report. *)
    let fab_parks = isum (fun s -> s.fab_parks) in
    opt "fault/fabric/parks" fab_parks;
    if fab_parks > 0 then
      rec_ "fault/fabric/park_wait_ns" (fsum (fun s -> s.fab_park_ns));
    opt "fault/fabric/replays" (isum (fun s -> s.fab_replays));
    opt "fault/fabric/reroutes" (isum (fun s -> s.fab_reroutes));
    opt "fault/fabric/egress_parks" (isum (fun s -> s.fab_egress_parks));
    opt "fault/fabric/retries" (isum (fun s -> s.fab_retries));
    opt "fault/fabric/degraded_flows" (isum (fun s -> s.fab_degraded));
    let downtime =
      List.fold_left
        (fun l s ->
          List.fold_left (fun l (n, v) -> assoc_add ( +. ) n v l) l
            s.fab_downtime)
        [] sorted
    in
    List.iter
      (fun (tier, ns) ->
        if ns > 0. then
          rec_ (Printf.sprintf "fabric/%s/downtime_ns" tier) ns)
      downtime
