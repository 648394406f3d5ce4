(* One pass of one benchmark workload, printed as one JSON line on stdout.

   [perfbench/run.py] drives this binary: it repeats plain passes in
   fresh processes for the requested number of seconds, takes medians of
   the host figures, checks that every exact figure repeats bit for bit,
   runs one traced pass when asked, and prints the benchmark's result.

   A pass calls only the library's public entry points and times each
   call from the outside, as a span named [<layer>.<call>] with the GC
   words allocated across it.  Simulated figures are read from what the
   program already exports: [Experiment.result], the MPI profiles, and
   the [Engine_obs] / [Subsys_obs] / [Breakdown] report keys. *)

open Pico_harness
module Costs = Pico_costs.Costs
module Imb = Pico_apps.Imb
module Umt = Pico_apps.Umt
module Serve = Pico_serve.Serve
module Stats = Pico_engine.Stats
module Ledger = Pico_engine.Ledger
module Span = Pico_engine.Span
module Rng = Pico_engine.Rng
module Topology = Pico_fabric.Topology

let os_kinds =
  [ (Cluster.Linux, "linux"); (Cluster.Mckernel, "mck");
    (Cluster.Mckernel_hfi, "hfi") ]

let os_tags = List.map snd os_kinds

(* --- Workload shapes ---------------------------------------------------- *)

(* [pingpong] runs this many iterations at every size; [obs] keeps IMB's
   per-size defaults (200 down to 20), as [picobench fig4] does. *)
let pingpong_iters = 200

let umt_nodes = 8

let umt_ranks_per_node = 32

(* One wavefront step at 8 x 32 already shows the Fig. 6a collapse. *)
let umt_params = { Umt.default with Umt.steps = 1 }

let serve_nodes = 8

let serve_topology = Topology.Fat_tree { radix = 4; oversub = 2 }

let serve_interval = 16_000.

(* Requests planned per world at the mean interval; bursts add about
   half again. *)
let serve_planned = 4_000

(* Independent worlds per OS configuration in a plain pass, each seeded
   from the workload seed; p50/p99 pool their completed requests.  One
   world's p99 moves by half from seed to seed, and one longer world
   would pay the plan's per-arrival scan over every burst window
   quadratically.  The traced pass runs one world per OS. *)
let serve_worlds = 16

let serve_min_completed = 1_000

(* The serve figure's knobs at one offered load, with a longer horizon. *)
let serve_patch c =
  c.Costs.serve_arrival_interval <- serve_interval;
  c.Costs.serve_horizon <- serve_interval *. float_of_int serve_planned;
  c.Costs.serve_burst_interval <- 40. *. serve_interval;
  c.Costs.serve_burst_duration <- 8. *. serve_interval;
  c.Costs.serve_admit_cap <- 24;
  c.Costs.serve_breaker_threshold <- 8;
  c.Costs.serve_timeout <- 5.0e6

(* The union of each workload's five largest MPI calls by time. *)
let mpi_calls =
  [ "MPI_Wait"; "MPI_Start"; "MPI_Init"; "MPI_Allreduce"; "MPI_Barrier";
    "MPI_Waitall"; "MPI_Recv"; "MPI_Send" ]

(* Ledger phases reported from the traced pass: (metric, breakdown key). *)
let lat_phases =
  [ ("offload.writev.linux_queue", "offload/writev/linux_queue");
    ("offload.writev.ikc_request", "offload/writev/ikc_request");
    ("offload.writev.linux_service", "offload/writev/linux_service");
    ("offload.writev.ikc_response", "offload/writev/ikc_response");
    ("sdma.tx.ring_wait", "sdma/tx/ring_wait");
    ("sdma.tx.engine_service", "sdma/tx/engine_service");
    ("psm.send", "psm/send/end_to_end");
    ("psm.recv", "psm/recv/end_to_end");
    ("serve.queue", "serve/queue");
    ("serve.net", "serve/net");
    ("serve.service", "serve/service");
    ("serve.reply", "serve/reply") ]

(* Every per-layer figure a pass reports; figures of a layer the
   workload does not reach read 0.  [run.py] requires this list, plus
   its own [obs.traced_ratio], to match BENCHMARK.json's [per_layer]. *)
let layer_names =
  let per tags names =
    List.concat_map (fun n -> List.map (fun t -> n ^ "." ^ t) tags) names
  in
  [ "engine.events"; "engine.events_elided"; "engine.peak_heap";
    "engine.cells_reused"; "engine.ns_per_event" ]
  @ per os_tags
      [ "harness.build_s"; "harness.build_mwords"; "harness.run_s";
        "harness.run_mwords" ]
  @ [ "harness.fold_s"; "serve.plan_s"; "serve.aggregate_s" ]
  @ per os_tags
      [ "serve.requests"; "serve.shed"; "serve.late"; "serve.tripped";
        "serve.occupancy" ]
  @ per [ "busy_ns"; "contended"; "peak_queue" ]
      [ "fabric.up"; "fabric.down"; "fabric.host" ]
  @ per os_tags
      [ "nic.sdma_requests"; "nic.sdma_busy_ns"; "nic.sdma_occupancy";
        "nic.pio_packets"; "linux.lock_wait_ns"; "linux.lock_contended";
        "linux.gup_pages_pinned"; "mpi.calls"; "mpi.time_ns" ]
  @ per [ "mck"; "hfi" ]
      [ "ihk.offload_calls"; "ihk.offload_queueing_ns"; "ihk.writev_total_ns";
        "ihk.ioctl_total_ns"; "mckernel.remote_kfrees" ]
  @ [ "picodriver.pt_segments.hfi"; "picodriver.cross_callbacks.hfi" ]
  @ List.map (fun c -> "mpi." ^ c ^ ".time_ns") mpi_calls
  @ [ "obs.ledgers"; "obs.spans"; "obs.breakdown_flush_s";
      "obs.breakdown_flush_mwords"; "obs.breakdown_write_s";
      "obs.breakdown_write_mwords"; "obs.trace_write_s";
      "obs.trace_write_mwords"; "ref_err.mck"; "ref_err.hfi" ]
  @ per [ "p50_ns"; "p99_ns" ] (List.map (fun (m, _) -> "lat." ^ m) lat_phases)

(* --- Host spans --------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;
  name : string;
  t0 : int64;
  t1 : int64;
  w0 : float;
  w1 : float;
}

let spans = ref []

let stack = ref [ 0 ]

let next_id = ref 1

let now () = Monotonic_clock.now ()

(* Words allocated so far: minor words plus direct major allocations.
   [Gc.quick_stat] refreshes its minor count only at collections;
   [Gc.minor_words] and [Gc.counters]' major and promoted counts are
   exact. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let seconds sp = Int64.to_float (Int64.sub sp.t1 sp.t0) /. 1e9

let open_span () =
  let id = !next_id in
  incr next_id;
  let parent = List.hd !stack in
  stack := id :: !stack;
  (id, parent)

let close_span (id, parent) name ~t0 ~w0 =
  let t1 = now () in
  let w1 = words () in
  stack := List.tl !stack;
  let sp = { id; parent; name; t0; t1; w0; w1 } in
  spans := sp :: !spans;
  sp

(* [timed name f] runs [f] inside a span; returns its result and span. *)
let timed name f =
  let ids = open_span () in
  let w0 = words () in
  let t0 = now () in
  match f () with
  | v -> (v, close_span ids name ~t0 ~w0)
  | exception e ->
    ignore (close_span ids name ~t0 ~w0);
    raise e

(* --- Figures ------------------------------------------------------------ *)

let layer : (string, float) Hashtbl.t = Hashtbl.create 128

let get name = Option.value ~default:0. (Hashtbl.find_opt layer name)

let add name v = Hashtbl.replace layer name (get name +. v)

let set name v = Hashtbl.replace layer name v

let set_max name v = set name (Float.max v (get name))

(* Set while an unarmed twin re-runs worlds outside the timed region:
   its host time and engine work are not charged. *)
let quiet = ref false

(* Charge a span to [<metric>_s] (and [<metric>_mwords] with [~words]),
   per OS if given. *)
let charge ?os ?(words = false) metric sp =
  if not !quiet then begin
    let sfx = match os with Some t -> "." ^ t | None -> "" in
    add (metric ^ "_s" ^ sfx) (seconds sp);
    if words then add (metric ^ "_mwords" ^ sfx) ((sp.w1 -. sp.w0) /. 1e6)
  end

(* Exact simulated figures, compared bit for bit across passes: the
   end-to-end [sim_ns], [p50_ns], [p99_ns] per OS, plus the operation
   count and the in-order sum of every operation's latency. *)
let sim : (string * float) list ref = ref []

let sim_set name v = sim := (name, v) :: !sim

let failures = ref []

let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let attempted = ref 0

let failed = ref 0

let setup = ref 0.

(* Exact nearest-rank quantile of an ascending array. *)
let nearest_rank a q =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* One world's operations: p50, p99, count and in-order sum. *)
let operations tag samples =
  let a = Array.of_list samples in
  sim_set ("sum." ^ tag) (Array.fold_left ( +. ) 0. a);
  Array.sort compare a;
  sim_set ("p50_ns." ^ tag) (nearest_rank a 0.5);
  sim_set ("p99_ns." ^ tag) (nearest_rank a 0.99);
  sim_set ("ops." ^ tag) (float_of_int (Array.length a))

(* An OS world is one operation outside [serve]. *)
let world_outcome ok =
  incr attempted;
  if not ok then incr failed

(* [ref_err.<os>]: percentage-point gap between the model's ratio to
   Linux and the paper's ([bound]: the paper gives an upper bound, and
   only the excess counts). *)
let ref_err tag ~model ~paper ~bound =
  let gap = model -. paper in
  set ("ref_err." ^ tag) (if bound then Float.max 0. gap else Float.abs gap)

let pct num den = 100. *. Subsys_obs.ratio num den

(* --- Report keys -------------------------------------------------------- *)

let report : (string, float) Hashtbl.t = Hashtbl.create 1024

let read_report () =
  let (), sp =
    timed "harness.report_dump" (fun () ->
        List.iter (fun (k, v) -> Hashtbl.replace report k v) (Report.dump ()))
  in
  charge "harness.fold" sp

let key fig k =
  Option.value ~default:0. (Hashtbl.find_opt report (fig ^ "/" ^ k))

let sum_keys fig ~prefix ~suffix =
  let p = fig ^ "/" ^ prefix in
  Hashtbl.fold
    (fun k v acc ->
      if String.starts_with ~prefix:p k && String.ends_with ~suffix k then
        acc +. v
      else acc)
    report 0.

(* Engine counters of one [Engine_obs.measure] window. *)
let engine_counters fig =
  add "engine.events" (key fig "engine/events");
  add "engine.events_elided" (key fig "engine/events_elided");
  add "engine.cells_reused" (key fig "engine/cells_reused");
  set_max "engine.peak_heap" (key fig "engine/peak_heap")

(* Per-OS simulated counters of one window ([Subsys_obs] keys).  Fabric
   counters are summed over the OS configurations (peak queue: max). *)
let subsys_counters fig tag =
  let os k = k ^ "." ^ tag in
  set (os "nic.sdma_requests") (key fig "sdma/requests");
  set (os "nic.sdma_busy_ns") (key fig "sdma/busy_ns");
  set (os "nic.sdma_occupancy") (key fig "sdma/occupancy");
  set (os "nic.pio_packets") (key fig "hfi/pio_packets");
  set (os "linux.lock_wait_ns") (sum_keys fig ~prefix:"lock/" ~suffix:"/wait_ns");
  set (os "linux.lock_contended")
    (sum_keys fig ~prefix:"lock/" ~suffix:"/contended");
  set (os "linux.gup_pages_pinned") (key fig "gup/pages_pinned");
  if tag <> "linux" then begin
    set (os "ihk.offload_calls") (key fig "offload/calls");
    set (os "ihk.offload_queueing_ns") (key fig "offload/queueing_ns");
    set (os "ihk.writev_total_ns") (key fig "offload/writev/total_ns");
    set (os "ihk.ioctl_total_ns") (key fig "offload/ioctl/total_ns");
    set (os "mckernel.remote_kfrees") (key fig "mem/remote_kfrees")
  end;
  if tag = "hfi" then begin
    set "picodriver.pt_segments.hfi" (key fig "pico/pt_segments");
    set "picodriver.cross_callbacks.hfi"
      (key fig "callbacks/cross_invocations")
  end;
  List.iter
    (fun tier ->
      let k m = Printf.sprintf "fabric/%s/%s" tier m in
      let n m = Printf.sprintf "fabric.%s.%s" tier m in
      add (n "busy_ns") (key fig (k "busy_ns"));
      add (n "contended") (key fig (k "contended"));
      set_max (n "peak_queue") (key fig (k "peak_queue")))
    [ "up"; "down"; "host" ]

let mpi_counters tag (res : Experiment.result) =
  let reg, sp =
    timed "mpi.merged_profile" (fun () -> Experiment.merged_mpi_profile res)
  in
  charge "harness.fold" sp;
  let calls =
    List.fold_left (fun acc (_, _, n) -> acc + n) 0 (Stats.Registry.entries reg)
  in
  add ("mpi.calls." ^ tag) (float_of_int calls);
  add ("mpi.time_ns." ^ tag) (Stats.Registry.grand_total reg);
  List.iter
    (fun call ->
      add ("mpi." ^ call ^ ".time_ns") (Stats.Registry.time_of reg call))
    mpi_calls

(* --- Worlds and windows ------------------------------------------------- *)

let build ~tag f =
  let cl, sp = timed "harness.build" f in
  charge ~os:tag ~words:true "harness.build" sp;
  if not !quiet then setup := !setup +. seconds sp;
  cl

(* Run one world; a rank that raises fails the world (counted and
   reported) and yields [None]. *)
let run ~workload ~tag f =
  match timed "harness.run" f with
  | v, sp ->
    charge ~os:tag ~words:true "harness.run" sp;
    Some v
  | exception e ->
    fail "%s/%s: %s" workload tag (Printexc.to_string e);
    None

(* [measured fig f] wraps [f] in [Engine_obs.measure ~figure:fig].  [f]
   ends with the [Subsys_obs] fold, so what the window does after [f]
   returns is [Breakdown.flush]: timed as [obs.breakdown_flush] when
   ledgers are armed (a no-op otherwise, charged to the fold). *)
let measured fig f =
  fst
  @@ timed "engine.measure" (fun () ->
        let flush = ref None in
        let v =
          Engine_obs.measure ~figure:fig (fun () ->
              let v = f () in
              let (), sp =
                timed "harness.subsys_flush" (fun () ->
                    Subsys_obs.flush ~figure:fig)
              in
              charge "harness.fold" sp;
              if Ledger.on () then
                set "obs.ledgers" (float_of_int (Breakdown.size ()));
              let ids = open_span () in
              flush := Some (ids, now (), words ());
              v)
        in
        Option.iter
          (fun (ids, t0, w0) ->
            let sp = close_span ids "obs.breakdown_flush" ~t0 ~w0 in
            if Ledger.on () then charge ~words:true "obs.breakdown_flush" sp
            else charge "harness.fold" sp)
          !flush;
        v)

(* Every OS world of a workload: one window per world, or ([pooled])
   one window over all three, so that the breakdown pools them as
   [picobench --breakdown] does.  Returns [(tag, figure, result)]. *)
let worlds ~workload ~pooled each =
  let rs =
    if pooled then
      measured workload (fun () ->
          List.map (fun (kind, tag) -> (tag, workload, each kind tag)) os_kinds)
    else
      List.map
        (fun (kind, tag) ->
          let fig = workload ^ "." ^ tag in
          (tag, fig, measured fig (fun () -> each kind tag)))
        os_kinds
  in
  read_report ();
  if not !quiet then begin
    if pooled then engine_counters workload
    else List.iter (fun (_, fig, _) -> engine_counters fig) rs
  end;
  if not pooled then List.iter (fun (tag, fig, _) -> subsys_counters fig tag) rs;
  rs

(* --- Workloads ---------------------------------------------------------- *)

(* The Fig. 4 ping-pong worlds: 2 nodes x 1 rank, 1 B .. 4 MiB. *)
let pingpong_world ~workload ~seed ?iters kind tag =
  let cl = build ~tag (fun () -> Cluster.build kind ~n_nodes:2 ~seed ()) in
  run ~workload ~tag (fun () ->
      let out = ref [] in
      let res =
        Experiment.run cl ~ranks_per_node:1 (fun comm ->
            Imb.pingpong ?iters ~sizes:(Imb.sizes ()) ~out comm)
      in
      (res, !out))

(* Output check, exact figures and Fig. 4 accuracy of the ping-pong
   worlds; the operations are the per-size one-way times. *)
let pingpong_results ~workload ~per_os rs =
  let sizes = Imb.sizes () in
  let mb4 =
    List.map
      (fun (tag, _, r) ->
        match r with
        | None ->
          world_outcome false;
          (tag, 0.)
        | Some ((res : Experiment.result), pts) ->
          let ok =
            List.length pts = List.length sizes
            && List.for_all2
                 (fun s (p : Imb.point) ->
                   p.Imb.size = s && p.Imb.mbps > 0.
                   && Float.is_finite p.Imb.mbps)
                 sizes pts
          in
          if not ok then
            fail "%s/%s: expected one positive-bandwidth point per size"
              workload tag;
          world_outcome ok;
          if per_os then mpi_counters tag res;
          sim_set ("sim_ns." ^ tag) res.Experiment.fom_ns;
          operations tag (List.map (fun (p : Imb.point) -> p.Imb.time_ns) pts);
          (tag, match List.rev pts with p :: _ -> p.Imb.mbps | [] -> 0.))
      rs
  in
  let linux = List.assoc "linux" mb4 in
  ref_err "mck" ~model:(pct (List.assoc "mck" mb4) linux) ~paper:90.
    ~bound:false;
  ref_err "hfi" ~model:(pct (List.assoc "hfi" mb4) linux) ~paper:115.
    ~bound:false

let pingpong ~seed ~armed =
  let workload = "pingpong" in
  worlds ~workload ~pooled:armed (fun kind tag ->
      pingpong_world ~workload ~seed ~iters:pingpong_iters kind tag)
  |> pingpong_results ~workload ~per_os:(not armed)

(* UMT2013 on 8 nodes x 32 ranks.  Every rank's profile must show the
   same MPI_Barrier count: a rank that blocked forever shows fewer.  The
   operations are the ranks, each with its time in MPI. *)
let umt ~seed ~armed =
  let workload = "umt" in
  let rs =
    worlds ~workload ~pooled:armed (fun kind tag ->
        let cl =
          build ~tag (fun () -> Cluster.build kind ~n_nodes:umt_nodes ~seed ())
        in
        run ~workload ~tag (fun () ->
            Experiment.run cl ~ranks_per_node:umt_ranks_per_node (fun c ->
                Umt.run ~params:umt_params c)))
  in
  let foms =
    List.map
      (fun (tag, _, r) ->
        match r with
        | None ->
          world_outcome false;
          (tag, 0.)
        | Some (res : Experiment.result) ->
          let profiles =
            List.map (fun c -> c.Pico_mpi.Comm.profile) res.Experiment.comms
          in
          let barriers =
            List.map (fun p -> Stats.Registry.count_of p "MPI_Barrier") profiles
          in
          let ok =
            List.length barriers = umt_nodes * umt_ranks_per_node
            && List.for_all (fun n -> n > 0 && n = List.hd barriers) barriers
          in
          if not ok then
            fail "%s/%s: ranks disagree on the MPI_Barrier count" workload tag;
          world_outcome ok;
          if not armed then mpi_counters tag res;
          sim_set ("sim_ns." ^ tag) res.Experiment.fom_ns;
          operations tag (List.map Stats.Registry.grand_total profiles);
          (tag, res.Experiment.fom_ns))
      rs
  in
  let linux = List.assoc "linux" foms in
  ref_err "mck" ~model:(pct linux (List.assoc "mck" foms)) ~paper:20.
    ~bound:true;
  ref_err "hfi" ~model:(pct linux (List.assoc "hfi" foms)) ~paper:120.
    ~bound:false

(* The serve RPC service: 8 nodes over a radix-4 2:1 fat-tree, one
   client rank replaying Poisson arrivals with bursts, fanout to 3 of 7
   servers.  Each request is one operation, timed from its due time;
   shed, late and tripped requests fail. *)
let serve ~seed ~armed ~n_worlds =
  let workload = "serve" in
  let one_world kind tag i =
    Costs.with_patched serve_patch @@ fun () ->
    let seed = Int64.(add (mul seed 64L) (of_int i)) in
    let cl =
      build ~tag (fun () ->
          Cluster.build kind ~n_nodes:serve_nodes ~topology:serve_topology
            ~seed ())
    in
    let plans, sp =
      timed "serve.plan" (fun () ->
          Serve.plans ~split:(fun () -> Rng.split cl.Cluster.rng) ~clients:1)
    in
    charge "serve.plan" sp;
    if not !quiet then setup := !setup +. seconds sp;
    let planned = Array.fold_left (fun n p -> n + Array.length p) 0 plans in
    let out = Array.make serve_nodes None in
    let r =
      run ~workload ~tag (fun () ->
          Experiment.run cl ~ranks_per_node:1 (Serve.run ~plans ~out))
    in
    let agg, sp =
      timed "serve.aggregate" (fun () ->
          Option.map (fun res -> (res, Figures.serve_aggregate res out)) r)
    in
    charge "serve.aggregate" sp;
    (planned, out, agg)
  in
  let rs =
    worlds ~workload ~pooled:armed (fun kind tag ->
        List.init n_worlds (one_world kind tag))
  in
  List.iter
    (fun (tag, _, ws) ->
      let lats = ref [] and span = ref 0. in
      let shed = ref 0 and late = ref 0 and tripped = ref 0 in
      let occupancy = ref 0. in
      List.iter
        (fun (planned, out, agg) ->
          attempted := !attempted + planned;
          match agg with
          | None -> failed := !failed + planned
          | Some ((res : Experiment.result), (sv : Figures.serve_point)) ->
            let ok =
              Array.fold_left
                (fun n -> function
                  | Some (Serve.Client cs) ->
                    lats := List.rev_append cs.Serve.c_lats !lats;
                    n + cs.Serve.c_ok
                  | _ -> n)
                0 out
            in
            let bad = sv.Figures.sv_shed + sv.sv_late + sv.sv_tripped in
            if ok + bad <> sv.sv_arrivals || sv.sv_arrivals <> planned then
              fail "%s/%s: ok %d + shed/late/tripped %d <> arrivals %d \
                    (planned %d)"
                workload tag ok bad sv.sv_arrivals planned;
            if ok < serve_min_completed then
              fail "%s/%s: only %d requests completed" workload tag ok;
            failed := !failed + (planned - ok);
            shed := !shed + sv.sv_shed;
            late := !late + sv.sv_late;
            tripped := !tripped + sv.sv_tripped;
            occupancy := !occupancy +. sv.sv_occupancy;
            span := Float.max !span res.Experiment.fom_ns;
            if not armed then mpi_counters tag res)
        ws;
      let os k = k ^ "." ^ tag and fi = float_of_int in
      set (os "serve.requests") (fi (List.length !lats));
      set (os "serve.shed") (fi !shed);
      set (os "serve.late") (fi !late);
      set (os "serve.tripped") (fi !tripped);
      set (os "serve.occupancy") (!occupancy /. fi n_worlds);
      sim_set ("sim_ns." ^ tag) !span;
      operations tag !lats)
    rs

(* [picobench fig4 --trace --breakdown]: the ping-pong worlds at IMB's
   default iterations, armed, folded in one window; [main] writes the
   files.  Unarmed, the same worlds in per-OS windows. *)
let obs ~seed ~armed =
  let workload = "obs" in
  worlds ~workload:(if armed then workload else "obs.twin") ~pooled:armed
    (fun kind tag -> pingpong_world ~workload ~seed kind tag)
  |> pingpong_results ~workload ~per_os:(not armed)

(* The breakdown and trace files of an armed pass. *)
let write_files ~out_dir ~workload =
  set "obs.spans" (float_of_int (Tracefile.size ()));
  let write name file f =
    let path = Filename.concat out_dir (workload ^ "-" ^ file) in
    let (), sp = timed name (fun () -> f path) in
    charge ~words:true name sp
  in
  write "obs.breakdown_write" "breakdown.json" Breakdown.write;
  write "obs.trace_write" "trace.json" Tracefile.write

(* Re-run [f] unarmed, outside the timed region, and require the same
   simulated figures bit for bit; returns the twin's wall seconds.  For
   [obs] the twin's per-OS windows also give the per-OS counters that
   its single window cannot. *)
let twin ~label f =
  let armed = !sim and a = !attempted and fl = !failed in
  sim := [];
  Span.set_on false;
  Ledger.set_on false;
  quiet := true;
  let (), sp = timed "bench.twin" f in
  let plain = !sim in
  sim := armed;
  attempted := a;
  failed := fl;
  let bits v = Int64.bits_of_float v in
  if
    List.length plain <> List.length armed
    || List.exists
         (fun (k, v) ->
           match List.assoc_opt k plain with
           | Some w -> not (Int64.equal (bits v) (bits w))
           | None -> true)
         armed
  then fail "%s: simulated results differ from the same worlds unarmed" label;
  seconds sp

(* --- Output ------------------------------------------------------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let json_string s = "\"" ^ Span.escape s ^ "\""

(* Floats with 17 significant digits read back bit for bit. *)
let json_obj b fields =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%s:%.17g" (json_string k) v)
    fields;
  Buffer.add_char b '}'

let write_spans path ~workload ~pass ~origin =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let rel t = Int64.to_float (Int64.sub t origin) /. 1e9 in
  output_string oc "[\n";
  List.iteri
    (fun i sp ->
      Printf.fprintf oc
        "%s{\"name\":%s,\"id\":%d,\"parent\":%d,\"workload\":%s,\"pass\":%s,\
         \"start_s\":%.9f,\"end_s\":%.9f,\"words_start\":%.0f,\
         \"words_end\":%.0f}"
        (if i > 0 then ",\n" else "")
        (json_string sp.name) sp.id sp.parent (json_string workload)
        (json_string pass) (rel sp.t0) (rel sp.t1) sp.w0 sp.w1)
    (List.rev !spans);
  output_string oc "\n]\n"

let () =
  let workload = ref "" and seed = ref 0x5EED and armed = ref false in
  let out_dir = ref "." and spans_path = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "pingpong|umt|serve|obs");
      ("--seed", Arg.Set_int seed, "workload seed (Cluster.build ~seed)");
      ("--armed", Arg.Set armed, "traced pass: arm the program's ledgers");
      ("--out", Arg.Set_string out_dir, "directory for obs's files");
      ("--spans", Arg.Set_string spans_path, "write the pass's spans here") ]
    (fun a -> raise (Arg.Bad a))
    "main.exe --workload W [--seed N] [--armed] [--out DIR] [--spans FILE]";
  let seed = Int64.of_int !seed and armed = !armed in
  let workload = !workload in
  let body =
    match workload with
    | "pingpong" -> fun armed () -> pingpong ~seed ~armed
    | "umt" -> fun armed () -> umt ~seed ~armed
    | "serve" ->
      let n_worlds = if armed then 1 else serve_worlds in
      fun armed () -> serve ~seed ~armed ~n_worlds
    | "obs" -> fun armed () -> obs ~seed ~armed
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  (* [obs] is armed in every pass and the traced pass arms the others:
     spans and ledgers on, then the breakdown and trace files written,
     as [picobench --trace --breakdown] does. *)
  let armed_run = armed || workload = "obs" in
  Span.set_on armed_run;
  Ledger.set_on armed_run;
  let origin = now () in
  let (), wall =
    timed ("bench." ^ workload) (fun () ->
        body armed_run ();
        if armed_run then write_files ~out_dir:!out_dir ~workload)
  in
  let rss = peak_rss_mb () in
  let breakdown = Breakdown.dump () in
  let twin_wall = if armed_run then twin ~label:workload (body false) else 0. in
  if armed_run then
    List.iter
      (fun (m, k) ->
        let v q =
          Option.value ~default:0.
            (List.assoc_opt
               (Printf.sprintf "%s/lat/%s/%s" workload k q)
               breakdown)
        in
        set ("lat." ^ m ^ ".p50_ns") (v "p50_ns");
        set ("lat." ^ m ^ ".p99_ns") (v "p99_ns"))
      lat_phases;
  let events = get "engine.events" +. get "engine.events_elided" in
  let run_s =
    List.fold_left (fun acc t -> acc +. get ("harness.run_s." ^ t)) 0. os_tags
  in
  set "engine.ns_per_event" (if events > 0. then run_s *. 1e9 /. events else 0.);
  if !spans_path <> "" then
    write_spans !spans_path ~workload
      ~pass:(if armed then "traced" else "plain")
      ~origin;
  Hashtbl.iter
    (fun k v ->
      if not (List.mem k layer_names) then failwith ("unlisted figure " ^ k);
      if not (Float.is_finite v) then fail "%s is not finite" k)
    layer;
  List.iter
    (fun (k, v) -> if not (Float.is_finite v) then fail "%s is not finite" k)
    !sim;
  let b = Buffer.create 8192 in
  Printf.bprintf b "{\"workload\":%s,\"seed\":%Ld,\"armed\":%b,\"host\":"
    (json_string workload) seed armed;
  json_obj b
    [ ("wall_s", seconds wall); ("setup_s", !setup); ("peak_rss_mb", rss) ];
  Printf.bprintf b ",\"twin_wall_s\":%.17g" twin_wall;
  Buffer.add_string b ",\"sim\":";
  json_obj b (List.rev !sim);
  Buffer.add_string b ",\"layer\":";
  json_obj b (List.map (fun k -> (k, get k)) layer_names);
  Printf.bprintf b ",\"attempted\":%d,\"failed\":%d,\"failures\":[%s]}"
    !attempted !failed
    (String.concat "," (List.rev_map json_string !failures));
  print_endline (Buffer.contents b)
