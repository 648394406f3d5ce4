(** Regeneration of every table and figure in the paper's evaluation
    (Section 4).  Each function runs the experiment and returns the
    rendered text table; absolute numbers come from the simulation, and
    the {e shapes} (who wins, by what factor, where crossovers fall) are
    the reproduction target — see EXPERIMENTS.md. *)

(** Sweep sizing: the paper configuration is expensive to simulate, so
    the default ("quick") scale trims node counts and ranks/node while
    preserving the contention ratios that drive the results. *)
type scale = {
  node_counts : int list;
  ranks_per_node : int;     (** for the 32-rank apps; LAMMPS doubles it *)
}

val quick : scale

val medium : scale

val full : scale

(** Every experiment function below takes an optional [?jobs] argument:
    the number of OCaml domains used to fan the sweep's independent
    points out over a {!Pool}.  It defaults to {!Pool.default_jobs}
    (the [PICO_JOBS] environment variable, falling back to
    [Domain.recommended_domain_count]).  [~jobs:1] runs the exact
    sequential path; any other value produces byte-identical output.
    Headline figures of merit are also {!Report.record}ed as a side
    effect, for [--json] output. *)

(** Figure 4: IMB PingPong bandwidth, 3 OS configurations. *)
val fig4 : ?max_size:int -> ?iters:int -> ?jobs:int -> unit -> string

(** Figures 5–7: relative performance to Linux per node count. *)

val fig5a_lammps : ?scale:scale -> ?jobs:int -> unit -> string

val fig5b_nekbone : ?scale:scale -> ?jobs:int -> unit -> string

val fig6a_umt : ?scale:scale -> ?jobs:int -> unit -> string

val fig6b_hacc : ?scale:scale -> ?jobs:int -> unit -> string

val fig7_qbox : ?scale:scale -> ?jobs:int -> unit -> string

(** Table 1: top-5 MPI calls (Time, %MPI, %Rt) for UMT2013, HACC and
    QBOX on [nodes] nodes under the three OS configurations. *)
val table1 : ?nodes:int -> ?ranks_per_node:int -> ?jobs:int -> unit -> string

(** Figures 8/9: in-kernel system-call time breakdown for McKernel vs
    McKernel+HFI (UMT2013 and QBOX respectively), plus the ratio of
    total kernel time between the two configurations. *)

val fig8_umt : ?nodes:int -> ?ranks_per_node:int -> ?jobs:int -> unit -> string

val fig9_qbox : ?nodes:int -> ?ranks_per_node:int -> ?jobs:int -> unit -> string

(** Listing 1: the dwarf-extract-struct output for [sdma_state]. *)
val listing1 : unit -> string

(** The 50 kSLOC vs <3 kSLOC porting-effort comparison, counted from
    this repository's driver model and PicoDriver fast path. *)
val sloc : unit -> string

(** The wider IMB-MPI1 suite (PingPing, SendRecv, Exchange, Bcast,
    Allreduce, Barrier) across the three OS configurations. *)
val imb_suite : ?nodes:int -> ?ranks_per_node:int -> ?jobs:int -> unit -> string

(** Extension (paper future work): InfiniBand memory-registration
    latency under the three OS configurations, with and without the
    Mellanox PicoDriver. *)
val ibreg : ?registrations:int -> ?jobs:int -> unit -> string

(** The design-choice ablations DESIGN.md calls out:
    1. SDMA request size capped at PAGE_SIZE (undoes Section 3.4);
    2. OS noise with nohz_full on/off vs the noise-free LWK;
    3. the PSM TID-registration cache (off in the paper's era). *)
val ablations : unit -> string

(** Fault injection and recovery: (a) zero-rate arming is byte-identical
    to the sunny-day world; (b) a deterministic mid-run SDMA halt window
    — the Linux driver walks Listing 1 out of [s99_running], the
    PicoDriver fast path (reading the state through DWARF extraction
    only) degrades to syscall offload and resumes after recovery; (c) a
    seed-deterministic fault-rate sweep (wire CRC, IKC drops, SDMA
    halts, service-CPU stalls) across the three OS configurations.  Not
    part of {!all}. *)
val faults : ?size:int -> ?iters:int -> ?jobs:int -> unit -> string

(** Topology-aware interconnect: (a) the default (flat) topology is
    byte-identical to an explicit {!Topology.Flat} build — the calibrated
    model every paper figure uses is untouched; (b) a radix-4 two-level
    fat-tree congestion sweep (oversubscription 1:1/2:1/4:1 x node count
    x OS configuration) over an allreduce/alltoall-heavy IMB mix, with
    per-tier link utilisation under the [fabric/*] report keys.  Not
    part of {!all}. *)
val fabric : ?jobs:int -> unit -> string

(** At-scale sweeps on the sharded engine: (a) the Figure 6a-shaped
    UMT2013 sweep pushed to 64-256 nodes (quick scale; up to 1024 at
    full), sharded — the paper's at-scale collapse in minutes; (b) an
    unsharded oversubscribed fat-tree tail against flat at the same node
    counts.  [engine/shards/*] report keys expose per-shard event counts,
    barrier rounds and epochs skipped.  That sharding and ledgers change
    no result is test/test_scale.ml's law, not this figure's.  Not part
    of {!all}. *)
val at_scale : ?scale:scale -> ?jobs:int -> unit -> string

(** One aggregated point of the serve load sweep.  Every ratio-style
    field goes through the NaN-safe {!Subsys_obs.ratio}: a degenerate
    window (zero requests, zero horizon, zero capacity) reports 0,
    never NaN/inf — test/test_obs.ml pins this on a real zero-knob
    world. *)
type serve_point = {
  sv_arrivals : int;
  sv_offered_rps : float;
  sv_goodput_rps : float;
  sv_goodput_ratio : float;
  sv_p50 : float;
  sv_p99 : float;
  sv_p999 : float;
  sv_shed : int;
  sv_late : int;
  sv_tripped : int;
  sv_trips : int;
  sv_occupancy : float;
}

(** Run one serve world on [cl] under the current cost table (ranks:
    one client, the rest servers). *)
val serve_world :
  Cluster.t -> Experiment.result * Pico_serve.Serve.rank_stats option array

val serve_aggregate :
  Experiment.result -> Pico_serve.Serve.rank_stats option array -> serve_point

(** Sharded service workload with open-loop traffic: (a) zero-knob
    inertness proof (the default cost table takes no RNG split and adds
    no float ops — a legacy world is byte-identical to the pre-serve
    tree); (b) an offered-load sweep across the saturation knee (Linux /
    McKernel+offload / McKernel+PicoDriver x topology) reporting
    goodput, exact nearest-rank p50/p99/p999, shed/tripped counts and
    worker occupancy under the [serve/*] report keys, with
    [lat/serve/*] ledger phases via [--breakdown].  Shard-on/off and
    ledger identity of the serve fingerprint is test/test_serve.ml's law.
    Not part of {!all}. *)
val serve : ?jobs:int -> unit -> string

(** Run everything at the given scale (the bench harness entry point). *)
val all : ?scale:scale -> ?jobs:int -> unit -> string
