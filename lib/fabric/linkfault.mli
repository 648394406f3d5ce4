(** Seed-derived fabric fault schedules (DESIGN.md section 14).

    One [draw] materialises every link's down windows, bandwidth-derate
    windows and corrupt-and-replay Bernoulli stream up front from a
    single RNG, bounded by [costs.fault_horizon].  Links are enumerated
    in a deterministic order (flat: one ingress pseudo-link per node;
    fat-tree: Host by node, Up by (leaf, spine), Down by (spine, leaf)),
    so the whole schedule is a pure function of the stream, the topology
    and the cost knobs.

    Window queries are side-effect free.  The [corrupt]/[flat_corrupt]
    draws advance their per-link (respectively per-source-node) stream:
    callers must take them at result-determined points of the packet
    timeline — the granting arbitration instant on fat-tree links, the
    egress walk on flat ones — so sharded, batched and per-packet
    executions consume each stream in the same order. *)

open Fabric_import

type t

(** Draws the full schedule from [rng] using the calling domain's
    {!Costs.current} fabric fault knobs.  Raises [Invalid_argument] if
    [fault_link_derate_factor] leaves (0, 1] — a derate may only slow a
    link — or if [n_nodes <= 0]. *)
val draw : rng:Rng.t -> n_nodes:int -> Topology.t -> t

(** Remaining bandwidth fraction inside a derate window, in (0, 1]. *)
val factor : t -> float

(** [down_at t hop ~time] is [Some stop] when [hop] is inside a down
    window (half-open [[start, stop)]) at [time]. *)
val down_at : t -> Route.hop -> time:float -> float option

(** Same query for derate windows. *)
val derate_at : t -> Route.hop -> time:float -> float option

(** Flat worlds instantiate no links, so their faults live on per-node
    ingress pseudo-links keyed by the destination node. *)
val flat_down_at : t -> dst:int -> time:float -> float option

val flat_derate_at : t -> dst:int -> time:float -> float option

(** Routing epochs: the sorted distinct down-window boundaries of the
    fat-tree links.  Link up/down state is constant within one epoch,
    so routes keyed on the epoch index are pure.  [epoch_at] is the
    epoch containing [time]; [epoch_start] its first instant (0 for
    epoch 0); [epoch_count] the total number of epochs. *)
val epoch_at : t -> time:float -> int

val epoch_start : t -> int -> float

val epoch_count : t -> int

(** Whether [hop] is down anywhere in (equivalently, throughout) the
    given epoch. *)
val down_in_epoch : t -> epoch:int -> Route.hop -> bool


(** True when the corrupt-and-replay rate is nonzero (lets hot paths
    skip the stream entirely at zero rate). *)
val corrupt_armed : t -> bool

(** One Bernoulli draw from [hop]'s corrupt stream.  Advances it. *)
val corrupt : t -> Route.hop -> bool

(** One draw from source node [src]'s flat corrupt stream. *)
val flat_corrupt : t -> src:int -> bool

(** Scheduled downtime per tier name, clipped to [[0, until]]; flat
    ingress pseudo-links count under ["host"].  Zero tiers omitted. *)
val downtime_by_tier : t -> until:float -> (string * float) list
