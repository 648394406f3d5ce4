(** Request-level critical-path attribution behind [picobench
    --breakdown] / [PICO_BREAKDOWN_JSON].

    While {!Pico_engine.Ledger.on} is set, every finished simulation's
    closed latency ledgers and timeline steps are gathered here
    ({!note_sim} — called from {!Engine_obs.note_sim}, thread-safe) and
    folded per figure ({!flush} — called from {!Engine_obs.measure})
    into a metric registry of its own, written as one JSON object
    (schema [picodriver-breakdown-v1]) separate from the main
    [picobench --json] report.

    Emitted keys (all [<figure>/]-prefixed):
    - [lat/<op>/<phase>/{count,total_ns,mean_ns,p50_ns,p99_ns,p999_ns}]
      — per-phase latency distributions pooled across OS configs, with
      the reserved pseudo-phase [end_to_end] for whole-op latency
      (exact nearest-rank sample quantiles; a ledger's phases sum
      exactly to its end-to-end latency, so per-phase totals partition
      [lat/<op>/end_to_end/total_ns])
    - [critpath/<label>/<op>/<phase>/{share,tail_share}] — each phase's
      fraction of the op's total simulated latency per cluster label
      ([/] in labels becomes [:]), over all requests ([share]) and over
      tail requests whose end-to-end latency is at or above the op's
      p99 ([tail_share]); the dominant phase of each column is the
      critical path, and a tail column dominated by a different phase
      than the median (queue wait, fault recovery) is the figure's
      tail-latency story
    - [timeline/<series>/{mean,peak,bucket00..bucket15}] — step series
      ([offload/queue_depth], [sdma/busy_engines], [sdma/inflight])
      integrated over [0, H] (H = longest world's end time), every
      world's steps merged by simulated time: per-bucket time-weighted
      mean level summed over worlds, overall mean, and peak level
      (sampled once all deltas of an instant are applied)

    Determinism: a sharded run closes the same ledgers in a different
    host order than an unsharded run, and pool workers deliver
    simulations in nondeterministic order — so every fold happens at
    flush time over content-sorted ledgers/steps (durations re-sorted
    ascending before quantiles and totals).  The written file contains
    no wall-clock, host, or jobs information: it is a pure function of
    the simulated results, byte-identical at any [-j], across re-runs,
    and between shard-on and shard-off runs (test/test_scale.ml and
    test/test_serve.ml assert the latter; check.sh byte-diffs the file
    at jobs=1 vs 4, unmasked). *)

(** Drain a finished simulation's ledgers and steps into the collector.
    No-op when ledger recording is off. *)
val note_sim : Pico_engine.Sim.t -> unit

(** Fold the raw window into [<figure>/...] metrics; clears the window.
    Records nothing when the window is empty, so figures run with
    ledgers off leave the registry untouched. *)
val flush : figure:string -> unit

(** Canonical digest of the raw window's content (sorted ledgers, steps
    and world horizons); clears the window.  Two runs producing the
    same simulated results — e.g. shard-on vs shard-off — yield equal
    fingerprints; the shard and ledger identity tests compare them. *)
val take_fingerprint : unit -> string

(** The raw window's tagged closed ledgers in canonical content order;
    clears the window.  Test hook: the phases-sum-exactly invariant is
    asserted over real worlds through this. *)
val take_ledgers : unit -> (string * Pico_engine.Sim.ledger) list

(** Closed ledgers currently buffered (raw, unflushed). *)
val size : unit -> int

(** Flushed metrics, sorted by key. *)
val dump : unit -> (string * float) list

(** {!Report.render_json} of the flushed metrics, schema
    [picodriver-breakdown-v1]. *)
val to_json : unit -> string

(** [write path] — {!to_json} to a file (trailing newline included). *)
val write : string -> unit

(** Drop everything: flushed metrics and the raw window. *)
val clear : unit -> unit
