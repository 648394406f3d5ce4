(** Discrete-event simulation core.

    Simulated time is a [float] measured in {b nanoseconds}.  Concurrent
    activities are modeled as {e processes}: ordinary OCaml functions that
    may call the blocking operations of this module ([delay], [suspend]) and
    of the synchronisation modules built on top of it ({!Mailbox},
    {!Semaphore}, {!Resource}).  Blocking is implemented with OCaml 5 effect
    handlers, so process code reads like straight-line code.

    The simulation is single-threaded and fully deterministic: events that
    fire at the same instant run in scheduling order. *)

type t

(** Raised by blocking operations when called outside of a process spawned
    on a simulator. *)
exception Not_in_process

(** [create ()] returns a fresh simulator positioned at time 0. *)
val create : unit -> t

(** Current simulated time in nanoseconds. *)
val now : t -> float

(** [spawn t ~name f] registers process [f] to start at the current time.
    Exceptions escaping [f] abort the simulation run.  [?shard] pins the
    process to an event shard (ignored when sharding is off, see
    {!shard_init}); without it the process lands on the shard of the
    spawning event, the ambient {!with_shard} binding, or shard 0. *)
val spawn : t -> ?name:string -> ?shard:int -> (unit -> unit) -> unit

(** [at t time f] schedules callback [f] (not a process: it must not block)
    at absolute [time].  [?shard] targets an event shard as for
    {!spawn}; cross-shard schedules in epoch mode must respect the
    lookahead contract (arrival at least one lookahead after now).

    [~tail:true] places the event in the tail-of-instant band: it runs
    after {e every} normally-scheduled event at [time] in the same
    shard (or queue), including ones pushed after it, while tail events
    keep push order among themselves.  That position is independent of
    heap-insertion schedule, hence identical between the sharded and
    unsharded engines — the fabric's ordered same-instant arrival
    batches flush from it.  In epoch mode a tail event must stay on the
    executing shard (it fires at the current instant, below the
    lookahead horizon); targeting another shard raises
    [Invalid_argument]. *)
val at : t -> ?shard:int -> ?tail:bool -> float -> (unit -> unit) -> unit

(** [after t dt f] schedules callback [f] at [now t +. dt]. *)
val after : t -> float -> (unit -> unit) -> unit

(** [delay t dt] suspends the calling process for [dt] nanoseconds.
    @raise Not_in_process outside a process
    @raise Invalid_argument if [dt] is negative or not finite *)
val delay : t -> float -> unit

(** [delay_until t time] suspends the calling process until absolute
    [time] (clamped to the current time if already past).  Unlike
    [delay t (time -. now t)], this resumes at exactly [time] with no
    float round-trip — batched event trains use it to land on the same
    bit-exact timestamps as the per-event path they replace.
    @raise Not_in_process outside a process
    @raise Invalid_argument if [time] is not finite *)
val delay_until : t -> float -> unit

(** [suspend t register] suspends the calling process; [register] receives a
    [resume] thunk that some other event must eventually call to wake the
    process up (at the simulated time of the call).  Calling [resume] more
    than once is an error. *)
val suspend : t -> ((unit -> unit) -> unit) -> unit

(** [yield t] lets every other event scheduled for the current instant run
    before the calling process continues. *)
val yield : t -> unit

(** [run t] processes events until the queue is empty.
    [run ~until t] stops (with time set to [until]) as soon as the next event
    would fire strictly after [until].
    Returns the number of events processed. *)
val run : ?until:float -> t -> int

(** Number of events processed so far over all [run] calls. *)
val events_processed : t -> int

(** [note_elided t n] records that [n] events were avoided by a
    semantics-preserving batching shortcut (e.g. a packet train charged
    as one event).  Negative [n] is ignored. *)
val note_elided : t -> int -> unit

(** Events avoided by batching shortcuts, as reported via {!note_elided}. *)
val events_elided : t -> int

(** High-water mark of the event queue depth. *)
val peak_heap_depth : t -> int

(** Number of process resumptions served from the free list of resume
    cells (i.e. closure allocations avoided on the [delay] hot path). *)
val cells_reused : t -> int

(** {2 Conservative event sharding}

    Off by default: a fresh simulator runs the classic single-heap loop
    and is byte-identical to every release before sharding existed.
    [shard_init] partitions the event population into per-node shards,
    each with its own heap, sequence counter, clock and resume-cell
    pool.  Until {!shard_engage} the shards execute in one merged
    time-ordered {e prologue} (zero-latency cross-shard couplings such
    as an init barrier are legal there).  After engagement the shards
    run in epoch-barrier rounds of [lookahead] simulated nanoseconds:
    within a round each shard consumes its events with key strictly
    below the epoch horizon; events scheduled into {e another} shard are
    buffered and merged at the barrier in content order
    [(key, source shard, per-source order)] — a total order independent
    of execution schedule, the same discipline as [Subsys_obs.flush] —
    so sharded and unsharded runs stay byte-identical.

    The lookahead contract: in epoch mode, every cross-shard event must
    be scheduled at least one [lookahead] after the sending shard's
    current time (flat fabric hops satisfy this with
    [lookahead = link_latency]).  Violations raise [Invalid_argument]
    rather than silently reordering. *)

(** [shard_init t ~shards ~lookahead] must run before any event is
    scheduled.
    @raise Invalid_argument if already sharded, events exist, [shards]
    is not positive, or [lookahead] is not positive and finite *)
val shard_init : t -> shards:int -> lookahead:float -> unit

(** Ask the run loop to switch from the merged prologue to
    epoch-barrier rounds at the current instant.  Callable from inside a
    process (typically right after the init syncpoint releases); no-op
    when sharding is off, idempotent otherwise. *)
val shard_engage : t -> unit

(** [with_shard t i f] runs [f] with shard [i] as the ambient target for
    [spawn]/[at]/callbacks issued outside any event (build time).
    Identity when sharding is off. *)
val with_shard : t -> int -> (unit -> 'a) -> 'a

(** True once {!shard_init} has run. *)
val sharded : t -> bool

(** Number of shards (0 when sharding is off). *)
val shard_count : t -> int

(** Events processed per shard, prologue included ([[||]] unsharded). *)
val shard_events : t -> int array

(** Epoch-barrier rounds completed. *)
val barrier_rounds : t -> int

(** Empty epochs skipped by jumping the next round straight to the first
    due event (partition bookkeeping only; event times are untouched). *)
val epochs_elided : t -> int

(** Cross-shard events merged at barriers. *)
val xshard_events : t -> int

(** {2 Span tracing storage}

    The simulator stores traced intervals; all recording policy (the
    global on/off flag, handles, JSON) lives in {!Span}.  A span is
    keyed by {e simulated} time and tagged with the name of the process
    that began it. *)

type span = {
  sp_cat : string;                       (** category, e.g. ["offload"] *)
  sp_name : string;                      (** event name within category *)
  sp_track : string;                     (** beginning process's name *)
  sp_begin : float;                      (** begin, simulated ns *)
  mutable sp_end : float;                (** end, simulated ns; nan = open *)
  mutable sp_args : (string * string) list;
}

(** [span_begin t ~cat ~name] opens a span at the current time and
    appends it to the simulator's buffer.  Unconditional — callers go
    through {!Span.begin_}, which performs the enabled check. *)
val span_begin : t -> cat:string -> name:string -> span

(** [span_end t ?args sp] closes [sp] at the current time.  Closing an
    already-closed span is a no-op (the first close wins). *)
val span_end : t -> ?args:(string * string) list -> span -> unit

(** All {e closed} spans in begin order; clears the buffer.  Spans still
    open (e.g. a server process parked forever in a mailbox) are
    dropped — and counted: {!take_dropped_spans} reports how many. *)
val take_spans : t -> span list

(** Number of still-open spans discarded by {!take_spans} since the last
    call; reading resets the counter.  Surfaced by the harness as the
    zero-omitted [trace/dropped_open] report key. *)
val take_dropped_spans : t -> int

(** {2 Latency-ledger storage}

    The simulator stores phase-attributed latency ledgers; all recording
    policy (the global on/off flag, null handles, rendering) lives in
    {!Ledger}.  A ledger covers one end-to-end operation as contiguous
    [(phase, seg_start, seg_end)] segments sharing boundary timestamps —
    they partition [[ld_begin, ld_end]] with no gaps or overlaps by
    construction — and [ld_total] is the running sum of segment
    durations folded in record order, so re-summing the stored segments
    reproduces it bit-exactly (test-enforced). *)

type ledger = {
  ld_op : string;                        (** operation, e.g. ["offload/writev"] *)
  ld_track : string;                     (** beginning process's name *)
  ld_begin : float;                      (** begin, simulated ns *)
  mutable ld_cursor : float;             (** attribution cursor *)
  mutable ld_end : float;                (** end, simulated ns; nan = open *)
  mutable ld_phases : (string * float * float) list;
      (** reverse record order: phase name, segment start, segment end *)
  mutable ld_total : float;              (** running sum of segment durations *)
}

(** [ledger_begin t ~op] opens a ledger at the current time with the
    cursor on the begin timestamp.  Unconditional — callers go through
    {!Ledger.begin_}, which performs the enabled check. *)
val ledger_begin : t -> op:string -> ledger

(** [ledger_mark t ld ~phase] attributes the segment from the cursor to
    the current time to [phase] and advances the cursor.  Zero-length
    segments are skipped; marking a closed ledger is a no-op. *)
val ledger_mark : t -> ledger -> phase:string -> unit

(** [ledger_close t ld ~phase] attributes the residual segment to
    [phase], stamps the end time and appends the ledger to the
    simulator's buffer.  The first close wins. *)
val ledger_close : t -> ledger -> phase:string -> unit

(** All closed ledgers in close order; clears the buffer. *)
val take_ledgers : t -> ledger list

(** [step_note t ~series delta] records a timeline step event
    [(series, now, delta)] — a host-side observation of a simulated
    state change (e.g. an SDMA engine going busy).  Unconditional —
    callers go through {!Ledger.step}. *)
val step_note : t -> series:string -> int -> unit

(** All step events in record order; clears the buffer. *)
val take_steps : t -> (string * float * int) list

(** Deterministic label for this simulated world (e.g. ["McKernel/2n"]),
    used as the Perfetto process-track name.  Empty by default. *)
val set_label : t -> string -> unit

val label : t -> string

(** True while a process of this simulator is executing. *)
val in_process : t -> bool

(** Name of the currently running process, if any. *)
val current_name : t -> string option

(** Time units, for readability of model code: [us 3.0] is 3000 ns. *)
val us : float -> float

val ms : float -> float

val s : float -> float
