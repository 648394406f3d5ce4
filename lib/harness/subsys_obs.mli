(** Per-subsystem metrics, aggregated per figure into {!Report}.

    A figure's simulated worlds finish on pool worker domains in
    nondeterministic order; {!note_cluster} snapshots each cluster's
    cumulative subsystem counters (replacing any earlier snapshot of the
    same cluster, so re-running an experiment on one cluster is counted
    once), and {!flush} merges the snapshots in a canonical content
    order — making every float fold independent of domain scheduling and
    the resulting [picobench --json] values byte-identical at any [-j].

    Emitted keys (all figure-prefixed by {!Report}):
    - [offload/calls], [offload/queueing_ns], and per syscall name
      [offload/<name>/{calls,total_ns,mean_ns,p99_ns}]
    - [sdma/{requests,bytes,txs,busy_ns,occupancy}] and per engine
      [sdma/engine<i>/{requests,bytes,busy_ns}]
    - [hfi/{pio_packets,pio_bytes,pio_byte_share}]
    - [lock/<name>/{acquisitions,contended,wait_ns}]
    - [gup/pages_pinned], [slab/kfrees], [mem/remote_kfrees],
      [vspace/translations], [callbacks/cross_invocations],
      [pico/pt_segments]
    - [fault/{injected,sdma_halts,sdma_halted_ns,crc_retransmits,
      ikc_drops,ikc_retries,fallback_submits,service_stalls}]
    - per fabric tier (fat-tree topologies only)
      [fabric/<up|down|host>/{links,packets,bytes,busy_ns,peak_queue,
      contended}]
    - fabric fault domain (link-fault injector armed only, DESIGN.md
      section 14): [fault/fabric/{parks,park_wait_ns,replays,reroutes,
      egress_parks,retries,degraded_flows}] and per tier
      [fabric/<tier>/downtime_ns]

    Zero-valued groups are omitted (a Linux-only figure has no offload
    section, and a flat-topology world has no fabric section).  See
    DESIGN.md section 9 for the taxonomy. *)

(** Snapshot a cluster's counters into the current window (thread-safe;
    call after [Sim.run] has finished). *)
val note_cluster : Cluster.t -> unit

(** Drop the current window. *)
val reset : unit -> unit

(** Merge the window's snapshots and record them for [figure]; clears
    the window. *)
val flush : figure:string -> unit

(** [ratio num den] is [num /. den] guarded for report keys: degenerate
    windows (zero-duration worlds, zero-byte traffic, all-down sweeps)
    yield [0.], never NaN/inf.  Use it for every ratio-style figure of
    merit (occupancy, byte shares, goodput retention, p99 inflation). *)
val ratio : float -> float -> float
