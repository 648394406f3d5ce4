(** The interconnect: a {!Pico_fabric.Topology}-shaped graph of switches
    and links between the nodes' HFIs.

    The default [Flat] topology is the calibrated full-bisection model
    every paper figure is measured on: the fabric adds one wire/switch
    latency per packet and delivers to the destination node's receive
    demultiplexer — egress bandwidth is serialised at each node's HFI
    (see {!Hfi}), matching OmniPath practice where the single host link
    is the bottleneck for the traffic patterns studied in the paper.

    Under a [Fat_tree] topology each packet additionally walks its
    deterministic {!Pico_fabric.Route} (store-and-forward: per-hop
    switch latency, then FIFO serialization on the hop's capacity-1
    {!Pico_fabric.Link}), so inter-switch congestion queues packets
    and is observable per tier.  Routing is RNG-free — a function of
    [(src_node, dst_node, dst_ctx)] only — so links stay FIFO per flow
    and delivery order is deterministic. *)

open Nic_import

module Topology = Pico_fabric.Topology

type t

(** [create ?topology ?ordered sim] — default {!Topology.Flat}.

    [ordered] (default [false]) selects the same-instant arrival
    discipline on the flat/loopback path: packets reaching one node at
    the exact same instant are delivered as one batch, sorted by
    [(src_node, send order)] — a content order that is identical whether
    the engine is sharded or not, which is what makes shard-on/off runs
    byte-identical (the event queue's own tie-break is insertion order
    unsharded but barrier-merge order sharded, and destination protocol
    actions do not commute under wire contention).  Arrivals with no
    same-instant companion — the overwhelmingly common case — deliver
    exactly like the unordered path.  The calibrated default stays
    [false] so every published figure keeps its historical tie-break;
    {!Pico_harness.Cluster} (not this module) forces it on for sharded
    clusters.  Only flat topologies shard, so only they implement it.
    @raise Invalid_argument on an invalid topology, or on [ordered] with
    a non-flat one *)
val create : ?topology:Topology.t -> ?ordered:bool -> Sim.t -> t

val topology : t -> Topology.t

(** [attach t ~node_id ~rx] registers the packet sink of a node.
    @raise Invalid_argument if the node is already attached *)
val attach : t -> node_id:int -> rx:(Wire.packet -> unit) -> unit

val detach : t -> node_id:int -> unit

(** [send t packet] delivers [packet] to the destination's sink after the
    configured latency.  Loopback (src = dst) skips the wire and uses a
    small fixed latency.
    @raise Invalid_argument if the destination is not attached *)
val send : t -> Wire.packet -> unit

(** {2 Congestion coupling to the HFIs}

    A batched SDMA request train (see {!Hfi}) must fall back to
    per-request processing whenever fabric links are contended: HFIs gate
    train formation on {!quiet}, and the fabric calls every registered
    train-abort hook — in node-id order, so worker-domain schedules
    cannot reorder them — whenever a packet arrives at a busy link or is
    parked by a down window.  Under [Flat] there are no links: {!quiet}
    is constant [true] and no hook ever fires, keeping the calibrated
    figures byte-identical. *)

(** No link of the whole fabric is busy or queued. *)
val quiet : t -> bool

(** [set_train_abort t ~node_id ~abort] registers (replacing any
    previous hook of that node) a non-blocking callback invoked on
    mid-flight link contention. *)
val set_train_abort : t -> node_id:int -> abort:(unit -> unit) -> unit

(** {2 Fabric fault domain}

    Installed by {!Pico_harness.Fault} when any fabric fault rate is
    nonzero; [None] (the default) is the immortal fabric and every hot
    path above pays a single option match for it.  Down windows park
    packets — at the link under a fat-tree, at the per-node ingress
    pseudo-link under [Flat], at egress when the whole pair is
    partitioned — and never drop them; corrupt-and-replay and derate
    windows only ever add serialization time.  See DESIGN.md section
    14. *)

val set_link_faults : t -> Linkfault.t option -> unit

val faults_armed : t -> bool

(** Whether flow [(src, dst, dst_ctx)] has an all-up route in the
    failure epoch containing the current instant.  Constant [true] on
    the immortal fabric, under [Flat], and for loopback.  Pure in (flow,
    epoch): polling it never perturbs results — the PSM retry ladder
    spins on it. *)
val path_reachable : t -> src:int -> dst:int -> dst_ctx:int -> bool

(** Transport-level recovery bookkeeping (called via {!Hfi} from the PSM
    retry ladder). *)
val note_retry : t -> unit

val note_degraded : t -> unit

type fault_stats = {
  fs_parks : int;  (** packets held by a down window (link or ingress) *)
  fs_park_ns : float;  (** total held time, incl. egress parks *)
  fs_replays : int;  (** corrupt-and-replay retransmissions *)
  fs_reroutes : int;  (** flows ECMP re-hashed around a dead link *)
  fs_egress_parks : int;  (** packets held at egress: pair partitioned *)
  fs_retries : int;  (** transport retry-ladder backoffs *)
  fs_degraded : int;  (** flows that exhausted the retry budget *)
}

(** All-zero on the immortal fabric; deterministic fold order. *)
val fault_stats : t -> fault_stats

(** Scheduled downtime per tier of the installed schedule, clipped to
    [[0, until]]; empty tiers omitted, empty when no injector. *)
val downtime_by_tier : t -> until:float -> (string * float) list

(** {2 Introspection} *)

val packets_delivered : t -> int

val bytes_delivered : t -> int

val attached : t -> int list

(** Per-tier congestion counters, aggregated over the tier's links in a
    deterministic (name-sorted) order; empty under [Flat] (and for
    tiers no packet ever crossed). *)
type tier_stats = {
  ts_tier : string;  (** "up" | "down" | "host" *)
  ts_links : int;  (** distinct links the tier instantiated *)
  ts_packets : int;
  ts_bytes : int;
  ts_busy_ns : float;
  ts_peak_queue : int;  (** deepest arrival queue on any one link *)
  ts_contended : int;  (** packets that arrived at a busy link *)
}

(** Sorted by tier name. *)
val tier_stats : t -> tier_stats list
