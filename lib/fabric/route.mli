(** Deterministic routing over a {!Topology}.

    Routing is a pure function of [(src, dst, dst_ctx)] — no RNG, no
    adaptive state — so a flow's path is stable across re-runs and
    worker-domain schedules, and packets of one flow stay in order
    (every link is FIFO).  Cross-leaf flows pick their spine by a
    flow hash, the static ECMP-style spreading OmniPath/InfiniBand
    subnet managers configure. *)

type tier = Up | Down | Host

(** One directed link of a route.  [a]/[b] are tier-relative endpoint
    ids: [Up] leaf->spine, [Down] spine->leaf, [Host] leaf->node. *)
type hop = {
  tier : tier;
  a : int;
  b : int;
}

(** Avalanche over the flow triple; deterministic, non-negative. *)
val flow_hash : src:int -> dst:int -> dst_ctx:int -> int

(** The ordered hop list from [src]'s egress to [dst]'s ingress.
    [Flat] and loopback routes are empty; same-leaf routes are the
    destination [Host] hop only; cross-leaf routes are
    [Up; Down; Host] through the flow-hashed spine. *)
val route : Topology.t -> src:int -> dst:int -> dst_ctx:int -> hop list

val tier_name : tier -> string

val describe_hop : hop -> string

(** Raised by {!route_avoiding} when every candidate path between the
    pair crosses a down link: the destination host link is dead, or all
    spines are cut.  Transport layers turn this into bounded
    backoff/retry (see [lib/psm]); it never escapes the NIC facade into
    the engine. *)
exception Fabric_unreachable of { src : int; dst : int; dst_ctx : int }

(** [route_avoiding topo ~down ~src ~dst ~dst_ctx] is failover routing:
    spine candidates are probed in the deterministic ECMP order
    [(flow_hash + k) mod n_spines], k = 0, 1, ... — so when [down] holds
    nowhere the result is bit-identical to {!route} — and the first
    all-up path wins.  [down] must be pure over the caller's failure
    epoch.  Returns the hops and whether the flow re-routed (k > 0);
    raises {!Fabric_unreachable} when the pair is partitioned. *)
val route_avoiding :
  Topology.t -> down:(hop -> bool) ->
  src:int -> dst:int -> dst_ctx:int -> hop list * bool

(** Per-instance route cache.  {!route} is pure in [(src, dst, dst_ctx)]
    by invariant, so memoizing it is semantics-free; the table is
    per-instance (never module-level) so sweep points share no mutable
    state.  [Memo.route m] is always equal to [route m.topo] on the same
    triple — qcheck-enforced in [test/test_scale.ml]. *)
module Memo : sig
  type t

  val create : Topology.t -> t

  (** Equivalent to {!route_epoch} at epoch 0 (the immortal fabric). *)
  val route : t -> src:int -> dst:int -> dst_ctx:int -> hop list

  (** Epoch-keyed failover lookup: memoizes {!Route.route_avoiding} per
      [(src, dst, dst_ctx, epoch)].  [down] must be the pure down
      predicate of exactly that epoch (callers derive it from
      [Linkfault.down_in_epoch]); {!Route.Fabric_unreachable} is never
      memoized and propagates fresh on every probe. *)
  val route_epoch :
    t -> epoch:int -> down:(hop -> bool) ->
    src:int -> dst:int -> dst_ctx:int -> hop list * bool
end
