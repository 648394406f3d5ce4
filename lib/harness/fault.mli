(** Seed-deterministic fault injection.

    A fault {e plan} is derived from the experiment seed via {!Rng.split}
    (never wall-clock, never the global [Random]) and schedules component
    faults over simulated time:

    - {b SDMA engine halts}: the Linux driver walks the Listing 1 state
      machine out of [s99_running] ({!Hfi1_driver.halt_engine}), dwells
      [fault_sdma_recovery] ns, walks the restart
      ([fault_sdma_restart] ns) and restores [s99_running].  While the
      engine is out of running state the PicoDriver fast path — which
      reads the state purely through DWARF extraction — degrades to the
      syscall-offload slow path.
    - {b IKC message drops}: each offload request message is lost with
      probability [fault_ikc_drop]; the delegator times out, backs off
      and retries (bounded by [ikc_max_retries]).
    - {b wire CRC corruption}: each fabric packet is corrupted with
      probability [fault_wire_crc] and replayed, paying wire occupancy
      again.
    - {b Linux service-CPU stalls}: a stall occupies one OS-service CPU
      for [fault_service_stall_duration] ns; offloads queue behind it.
    - {b fabric link faults} (DESIGN.md section 14): per-link down/up
      windows, bandwidth-derate windows and corrupt-and-replay streams
      ({!Linkfault}), installed on the cluster's fabric.  Routing stays
      a pure function of [(src, dst, dst_ctx, failure epoch)]; packets
      on a down link are parked, never dropped or re-owned, and the
      PSM transport turns a partitioned pair into bounded
      backoff/retry.

    Every rate/duration is a {!Costs} knob, zero by default; with all
    rates zero (or [fault_horizon] = 0) {!install} is a complete no-op —
    it does not even split the cluster's RNG — so sunny-day runs stay
    byte-identical to the pre-fault tree.  Schedules are drawn up to
    [fault_horizon] ns, keeping the event queue finite. *)

open H_import

type halt = {
  h_node : int;
  h_engine : int;
  h_at : float;  (** simulated ns *)
}

type stall = {
  s_node : int;
  s_at : float;
}

type plan = {
  halts : halt list;
  stalls : stall list;
}

(** [plan ~rng ~n_nodes ~n_engines] derives the fault schedule for the
    current {!Costs} knobs: one sub-stream split per node (array order),
    four class streams per node in fixed order (halt, stall, drop, CRC) —
    so the same seed yields the identical plan whatever [-j] is, and a
    zero rate in one class never shifts another's draws.  Pure with
    respect to simulated state (only [rng] advances). *)
val plan : rng:Rng.t -> n_nodes:int -> n_engines:int -> plan

(** Whether the current {!Costs} knobs enable any fault. *)
val armed : unit -> bool

(** The node-fault classes (halt/stall/drop/CRC) specifically. *)
val node_armed : unit -> bool

(** The fabric link-fault classes (down/derate/corrupt) specifically. *)
val fabric_armed : unit -> bool

(** [install cl] arms the plan on a freshly built cluster, before the
    experiment runs: spawns one bounded process per halt/stall event,
    installs the drop/CRC Bernoulli hooks, and — when {!fabric_armed} —
    draws and installs the {!Linkfault} schedule on the cluster fabric.
    Must be called {e after} {!Cluster.build}.  Splits [cl.rng] once per
    armed fault family (node, then fabric), leaving the build's noise
    streams untouched; with a family's rates all zero its split is not
    taken, so an all-zero install is a complete no-op. *)
val install : Cluster.t -> unit
