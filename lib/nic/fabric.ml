open Nic_import
module Topology = Pico_fabric.Topology

type tier_stats = {
  ts_tier : string;
  ts_links : int;
  ts_packets : int;
  ts_bytes : int;
  ts_busy_ns : float;
  ts_peak_queue : int;
  ts_contended : int;
}

(* Packets bound for one node at one instant, buffered until the
   tail-of-instant flush delivers them in content order — see the note
   at [send].  Items are (src_node, send order, packet, sink), in
   reverse buffering order. *)
type batch = (int * int * Wire.packet * (Wire.packet -> unit)) list ref

type t = {
  sim : Sim.t;
  topo : Topology.t;
  routes : Route.Memo.t;
  sinks : (int, Wire.packet -> unit) Hashtbl.t;
  links : (Route.hop, Link.t) Hashtbl.t;
  (* Train-abort hooks, kept sorted by node id: Hashtbl iteration order
     is insertion-dependent, and abort order must not be. *)
  mutable aborts : (int * (unit -> unit)) list;
  mutable packets : int;
  mutable bytes : int;
  ordered : bool;
  arrivals : (int * float, batch) Hashtbl.t; (* key: (dst, instant) *)
  mutable send_ord : int;
  (* Fabric fault domain (DESIGN.md section 14): absent on the immortal
     fabric — every hot-path check below is a single option match then.
     Int counters are order-insensitive; the float park waits accumulate
     per source node (sender-timeline order, identical shard-on/off) and
     fold in sorted key order at stats time. *)
  mutable faults : Linkfault.t option;
  mutable fs_reroutes : int;
  mutable fs_egress_parks : int;
  mutable fs_retries : int;
  mutable fs_degraded : int;
  mutable flat_parks : int;
  mutable flat_replays : int;
  park_wait : (int, float ref) Hashtbl.t; (* by src: flat + egress holds *)
  (* Per-flow last computed flat arrival: fault inflations are variable,
     so without this clamp a replayed packet could overtake its flow's
     successor — flat arrivals must stay monotone per (src, dst). *)
  flat_last : (int * int, float) Hashtbl.t;
}

let create ?(topology = Topology.Flat) ?(ordered = false) sim =
  Topology.validate topology;
  if ordered && not (Topology.is_flat topology) then
    invalid_arg "Fabric.create: ordered arrivals need a flat topology";
  { sim; topo = topology; routes = Route.Memo.create topology;
    sinks = Hashtbl.create 64; links = Hashtbl.create 64; aborts = [];
    packets = 0; bytes = 0; ordered; arrivals = Hashtbl.create 64;
    send_ord = 0;
    faults = None; fs_reroutes = 0; fs_egress_parks = 0; fs_retries = 0;
    fs_degraded = 0; flat_parks = 0; flat_replays = 0;
    park_wait = Hashtbl.create 16; flat_last = Hashtbl.create 64 }

let topology t = t.topo

let attach t ~node_id ~rx =
  if Hashtbl.mem t.sinks node_id then
    invalid_arg (Printf.sprintf "Fabric.attach: node %d already attached" node_id);
  Hashtbl.add t.sinks node_id rx

let detach t ~node_id =
  Hashtbl.remove t.sinks node_id;
  t.aborts <- List.remove_assoc node_id t.aborts

let set_train_abort t ~node_id ~abort =
  let l = (node_id, abort) :: List.remove_assoc node_id t.aborts in
  t.aborts <- List.sort (fun (a, _) (b, _) -> compare a b) l

let fire_aborts t = List.iter (fun (_, abort) -> abort ()) t.aborts

let link_of t hop =
  match Hashtbl.find_opt t.links hop with
  | Some l -> l
  | None ->
    let l =
      Link.create t.sim ~name:(Route.describe_hop hop)
        ~tier:(Route.tier_name hop.Route.tier)
    in
    Hashtbl.add t.links hop l;
    l

let wire_time len =
  float_of_int (len + (Costs.current ()).packet_overhead_bytes)
  /. (Costs.current ()).link_bandwidth

(* --- fabric fault domain (DESIGN.md section 14) --- *)

let set_link_faults t lf = t.faults <- lf

let faults_armed t = Option.is_some t.faults

let note_retry t = t.fs_retries <- t.fs_retries + 1

let note_degraded t = t.fs_degraded <- t.fs_degraded + 1

let bump_park_wait t ~src wait =
  match Hashtbl.find_opt t.park_wait src with
  | Some r -> r := !r +. wait
  | None -> Hashtbl.add t.park_wait src (ref wait)

(* Corrupt-and-replay repeats for one transit: draws the stream until a
   clean transmission.  The draw point must be result-determined —
   fat-tree links draw when the packet reaches the hop, flat
   pseudo-links at egress in sender-timeline order. *)
let replay_count draw =
  let r = ref 0 in
  while draw () do incr r done;
  !r

(* Transit work on [link] for [hop], including any corrupt/derate fault
   charge; identity to [wire_time] when no injector is installed.  The
   per-transit wire time — inflated by an active derate window (factor
   in (0, 1], so work only grows) — is paid once per replay plus the
   original, replays holding the link so a flow can never overtake
   itself. *)
let transit_work t link hop ~wire =
  match t.faults with
  | None -> wire
  | Some lf ->
    let replays =
      if Linkfault.corrupt_armed lf then
        replay_count (fun () -> Linkfault.corrupt lf hop)
      else 0
    in
    for _ = 1 to replays do Link.note_replay link done;
    let w =
      match Linkfault.derate_at lf hop ~time:(Sim.now t.sim) with
      | Some _ -> wire /. Linkfault.factor lf
      | None -> wire
    in
    let acc = ref w in
    for _ = 1 to replays do acc := !acc +. w done;
    !acc

let deliver t rx (p : Wire.packet) =
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + p.wire_len;
  rx p

(* Store-and-forward walk of the packet's route: one end-to-end cable
   propagation, then per hop a switch traversal and FIFO serialization
   on the hop's link.  A busy link at arrival is exactly the contention
   a batched train's closed form cannot see coming, so every registered
   train-abort hook fires before this packet queues (aborting is always
   semantics-preserving; firing on behalf of every node is conservative
   but deterministic). *)
let hop_walk t rx (p : Wire.packet) hops =
  Sim.spawn t.sim ~name:"fabric" (fun () ->
      let c = Costs.current () in
      Sim.delay t.sim c.Costs.link_latency;
      List.iter
        (fun hop ->
          let link = link_of t hop in
          Sim.delay t.sim c.Costs.switch_latency;
          (* Fault down window: park the packet on the link (never drop
             it) until the window ends.  A dying link is contention a
             batched train cannot see coming, so the hooks fire here
             too. *)
          (match t.faults with
           | None -> ()
           | Some lf ->
             (match Linkfault.down_at lf hop ~time:(Sim.now t.sim) with
              | None -> ()
              | Some u ->
                let s = Sim.now t.sim in
                Link.note_park link ~wait:(u -. s);
                fire_aborts t;
                let sp = Span.begin_ t.sim ~cat:"fabric" ~name:"link_down" in
                Sim.delay_until t.sim u;
                Span.end_with t.sim sp (fun () ->
                    [ ("link", Link.name link) ])));
          if not (Link.idle link) then fire_aborts t;
          let sp = Span.begin_ t.sim ~cat:"fabric" ~name:(Link.tier link) in
          let work = transit_work t link hop ~wire:(wire_time p.wire_len) in
          Link.transit link ~bytes:p.wire_len ~work;
          Span.end_with t.sim sp (fun () ->
              [ ("link", Link.name link);
                ("bytes", string_of_int p.wire_len) ]))
        hops;
      deliver t rx p)

(* Flat worlds instantiate no links (invariant), so their faults live on
   per-node ingress pseudo-links: corrupt-and-replay adds one wire time
   per replay (per-source Bernoulli stream, drawn in sender-timeline
   order), an active derate window adds the extra serialization a
   derated ingress takes, and a down window holds the packet to the
   window's end.  Every adjustment pushes the arrival later only, so the
   sharded flat lookahead (one link_latency) stays legal; the per-flow
   clamp keeps arrivals monotone so variable inflation can never reorder
   a flow. *)
let flat_faulted_arrival t lf ~time (p : Wire.packet) =
  let c = Costs.current () in
  let wire = wire_time p.wire_len in
  let arrive = ref (time +. c.Costs.link_latency) in
  if Linkfault.corrupt_armed lf then begin
    let r = replay_count (fun () -> Linkfault.flat_corrupt lf ~src:p.src_node) in
    for _ = 1 to r do arrive := !arrive +. wire done;
    t.flat_replays <- t.flat_replays + r
  end;
  (match Linkfault.flat_derate_at lf ~dst:p.dst_node ~time:!arrive with
   | Some _ -> arrive := !arrive +. ((wire /. Linkfault.factor lf) -. wire)
   | None -> ());
  (match Linkfault.flat_down_at lf ~dst:p.dst_node ~time:!arrive with
   | Some u ->
     t.flat_parks <- t.flat_parks + 1;
     bump_park_wait t ~src:p.src_node (u -. !arrive);
     let sp = Span.begin_ t.sim ~cat:"fabric" ~name:"link_down" in
     Span.end_with t.sim sp (fun () ->
         [ ("dst", string_of_int p.dst_node) ]);
     arrive := u
   | None -> ());
  let key = (p.src_node, p.dst_node) in
  let a =
    match Hashtbl.find_opt t.flat_last key with
    | Some prev when prev > !arrive -> prev
    | _ -> !arrive
  in
  Hashtbl.replace t.flat_last key a;
  a

let send t (p : Wire.packet) =
  let time = Sim.now t.sim in
  match Hashtbl.find_opt t.sinks p.dst_node with
  | None ->
    invalid_arg
      (Printf.sprintf "Fabric.send: destination node %d not attached"
         p.dst_node)
  | Some rx ->
    (* Loopback and the flat topology keep the original one-event path
       (byte-identical to the pre-topology fabric). *)
    if Topology.is_flat t.topo || p.src_node = p.dst_node then begin
      let arrive =
        if p.src_node = p.dst_node then
          time +. (Costs.current ()).loopback_latency
        else
          match t.faults with
          | None -> time +. (Costs.current ()).link_latency
          | Some lf -> flat_faulted_arrival t lf ~time p
      in
      (* Delivery belongs to the destination node's event shard (no-op
         when sharding is off).  Cross-node arrivals are one full
         [link_latency] out, which is exactly the sharded engine's
         lookahead; loopbacks stay within the sending shard. *)
      if not t.ordered then
        Sim.at t.sim ~shard:p.dst_node arrive (fun () -> deliver t rx p)
      else begin
        (* Ordered same-instant arrival discipline.  Packets reaching
           one node at the exact same instant have no physical order,
           but the event queue imposes one — insertion order when
           unsharded, barrier merge order when sharded — and it leaks
           further: arrival events interleave differently with the
           node's own same-instant events (compute-phase resumptions,
           wake-ups) in the two engines, because a merged event's
           sequence number is assigned at the barrier while an inserted
           one keeps its send-time number.  Protocol actions at the
           destination (e.g. a send-side writev vs a receive-side TID
           ioctl) do not commute under wire contention, so the engines
           would drift apart.  The one position both agree on is the
           {e end} of the instant: each arrival only buffers its
           packet, the first one schedules a [~tail:true] flush, and
           the flush — which by the tail-band contract runs after every
           other event at that (node, instant) in either engine —
           delivers the batch sorted by (src_node, send order), a
           content order no execution schedule can perturb.  Same-src
           orders are assigned in the source node's execution order,
           which is engine-invariant. *)
        let key = (p.dst_node, arrive) in
        let ord = t.send_ord in
        t.send_ord <- ord + 1;
        Sim.at t.sim ~shard:p.dst_node arrive (fun () ->
            match Hashtbl.find_opt t.arrivals key with
            | Some b -> b := (p.src_node, ord, p, rx) :: !b
            | None ->
              let b : batch = ref [ (p.src_node, ord, p, rx) ] in
              Hashtbl.add t.arrivals key b;
              Sim.at t.sim ~tail:true arrive (fun () ->
                  Hashtbl.remove t.arrivals key;
                  List.sort
                    (fun (sa, oa, _, _) (sb, ob, _, _) ->
                      compare (sa, oa) (sb, ob))
                    !b
                  |> List.iter (fun (_, _, p, rx) -> deliver t rx p)))
      end
    end
    else begin
      (* Epoch-pure failover routing: the route is a function of
         (src, dst, dst_ctx, failure epoch at egress).  ECMP re-hashes
         around dead links; a fully partitioned pair parks the packet at
         egress until the first epoch whose links carry it — the
         post-horizon epoch has every link up, so the walk below always
         terminates and Fabric_unreachable never escapes this module
         (transport-level retry in lib/psm handles the user-visible
         waiting). *)
      let egress, hops =
        match t.faults with
        | None ->
          ( time,
            Route.Memo.route t.routes ~src:p.src_node ~dst:p.dst_node
              ~dst_ctx:p.dst_ctx )
        | Some lf ->
          let rec resolve e egress =
            let down hop = Linkfault.down_in_epoch lf ~epoch:e hop in
            match
              Route.Memo.route_epoch t.routes ~epoch:e ~down
                ~src:p.src_node ~dst:p.dst_node ~dst_ctx:p.dst_ctx
            with
            | hops, rerouted -> (egress, hops, rerouted)
            | exception Route.Fabric_unreachable _ ->
              resolve (e + 1) (Linkfault.epoch_start lf (e + 1))
          in
          let egress, hops, rerouted =
            resolve (Linkfault.epoch_at lf ~time) time
          in
          if egress > time then begin
            t.fs_egress_parks <- t.fs_egress_parks + 1;
            bump_park_wait t ~src:p.src_node (egress -. time)
          end;
          if rerouted then begin
            t.fs_reroutes <- t.fs_reroutes + 1;
            let sp = Span.begin_ t.sim ~cat:"fabric" ~name:"reroute" in
            Span.end_with t.sim sp (fun () ->
                [ ("src", string_of_int p.src_node);
                  ("dst", string_of_int p.dst_node) ])
          end;
          (egress, hops)
      in
      Sim.at t.sim egress (fun () -> hop_walk t rx p hops)
    end

let quiet t =
  Topology.is_flat t.topo
  || Hashtbl.fold (fun _ l acc -> acc && Link.idle l) t.links true

let packets_delivered t = t.packets

let bytes_delivered t = t.bytes

(* Transport-level reachability probe for the PSM retry ladder: pure in
   (flow, failure epoch at now), so polling it never perturbs results. *)
let path_reachable t ~src ~dst ~dst_ctx =
  match t.faults with
  | None -> true
  | Some lf ->
    Topology.is_flat t.topo || src = dst
    ||
    (let e = Linkfault.epoch_at lf ~time:(Sim.now t.sim) in
     let down hop = Linkfault.down_in_epoch lf ~epoch:e hop in
     match
       Route.Memo.route_epoch t.routes ~epoch:e ~down ~src ~dst ~dst_ctx
     with
     | _ -> true
     | exception Route.Fabric_unreachable _ -> false)

type fault_stats = {
  fs_parks : int;
  fs_park_ns : float;
  fs_replays : int;
  fs_reroutes : int;
  fs_egress_parks : int;
  fs_retries : int;
  fs_degraded : int;
}

let fault_stats t =
  (* Fold link floats in name order and per-src waits in key order so
     the sums are independent of Hashtbl layout and engine schedules;
     the int counters are order-insensitive. *)
  let links =
    Hashtbl.fold (fun _ l acc -> l :: acc) t.links []
    |> List.sort (fun a b -> compare (Link.name a) (Link.name b))
  in
  let parks, link_ns, replays =
    List.fold_left
      (fun (p, ns, r) l ->
        (p + Link.parks l, ns +. Link.park_ns l, r + Link.replays l))
      (t.flat_parks, 0., t.flat_replays)
      links
  in
  let park_ns =
    Hashtbl.fold (fun src r acc -> (src, !r) :: acc) t.park_wait []
    |> List.sort compare
    |> List.fold_left (fun acc (_, w) -> acc +. w) link_ns
  in
  { fs_parks = parks; fs_park_ns = park_ns; fs_replays = replays;
    fs_reroutes = t.fs_reroutes; fs_egress_parks = t.fs_egress_parks;
    fs_retries = t.fs_retries; fs_degraded = t.fs_degraded }

(* Scheduled per-tier downtime of the installed fault schedule, clipped
   to [0, until]; empty on the immortal fabric. *)
let downtime_by_tier t ~until =
  match t.faults with
  | None -> []
  | Some lf -> Linkfault.downtime_by_tier lf ~until

let attached t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.sinks [] |> List.sort compare

let tier_stats t =
  (* Fold each tier's links in name order so the busy_ns float sums are
     independent of Hashtbl layout and worker-domain schedules. *)
  let links =
    Hashtbl.fold (fun _ l acc -> l :: acc) t.links []
    |> List.sort (fun a b -> compare (Link.name a) (Link.name b))
  in
  List.fold_left
    (fun acc l ->
      let tier = Link.tier l in
      let cur =
        match List.assoc_opt tier acc with
        | Some s -> s
        | None ->
          { ts_tier = tier; ts_links = 0; ts_packets = 0; ts_bytes = 0;
            ts_busy_ns = 0.; ts_peak_queue = 0; ts_contended = 0 }
      in
      let s =
        { cur with
          ts_links = cur.ts_links + 1;
          ts_packets = cur.ts_packets + Link.packets l;
          ts_bytes = cur.ts_bytes + Link.bytes l;
          ts_busy_ns = cur.ts_busy_ns +. Link.busy_ns l;
          ts_peak_queue = max cur.ts_peak_queue (Link.peak_queue l);
          ts_contended = cur.ts_contended + Link.contended l }
      in
      (tier, s) :: List.remove_assoc tier acc)
    [] links
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd
