(** Deterministic per-request latency ledgers.

    A ledger attributes one end-to-end operation's simulated latency
    phase by phase: [begin_] opens it with an attribution cursor on the
    begin timestamp, each [mark ~phase] charges the segment from the
    cursor to the current simulated time to [phase] and advances the
    cursor, and [close ~phase] charges the residual segment, stamps the
    end time and hands the ledger to the simulator's buffer.  Segments
    share boundary timestamps, so the phases partition the operation's
    [[begin, end]] interval exactly — no gaps, no overlaps — and the
    running total is folded in record order so phases re-sum bit-exactly
    to the end-to-end latency (test-enforced).

    Recording follows the {!Span} discipline: gated by one process-wide
    flag ({!set_on}), off by default.  A disabled [begin_] is a single
    ref read returning {!null}; [mark]/[close] on {!null} are a single
    match; no float operation runs while off.  Ledgers are host-side
    state over simulated timestamps — recording never adds simulated
    time — so arming the flag cannot change simulation results
    (test/test_scale.ml and test/test_serve.ml check it, sharded and
    not).
    [picobench --breakdown PATH] (or [PICO_BREAKDOWN_JSON=PATH])
    switches it on.

    Marks must sit on {e result-determined} timestamps — instants that
    are bit-identical between the sharded and unsharded engines and
    between the batched and per-packet paths (submit/pickup/completion
    boundaries, not batching interiors) — so breakdown output stays
    byte-identical at any [-j] and shard-on vs shard-off. *)

(** Is ledger recording enabled? *)
val on : unit -> bool

val set_on : bool -> unit

(** Ledger handle.  {!begin_} returns a live handle when recording is on
    and {!null} when it is off. *)
type h

(** The no-op handle: marking or closing it does nothing. *)
val null : h

(** [begin_ sim ~op] opens a ledger for one [op] instance (op naming
    convention: ["offload/writev"], ["syscall/ioctl"], ["sdma/tx"],
    ["pio/send"], ["psm/send"], ["mpi/MPI_Allreduce"] — see DESIGN.md
    section 13). *)
val begin_ : Sim.t -> op:string -> h

(** [begin_prefixed sim ~prefix ~name] is [begin_ sim ~op:(prefix ^
    name)], except that the op name is built only when recording is on:
    a disabled call allocates nothing.  For per-call ops such as
    ["syscall/" ^ name]. *)
val begin_prefixed : Sim.t -> prefix:string -> name:string -> h

(** [mark sim h ~phase] attributes the time since the previous
    mark (or the begin) to [phase].  Zero-length segments are skipped,
    so an unconditional mark on a path that may not have consumed time
    records nothing unless it did.  No-op on {!null} or after close. *)
val mark : Sim.t -> h -> phase:string -> unit

(** [close sim h ~phase] attributes the residual time to [phase] and
    closes the ledger at the current simulated time.  The first close
    wins; no-op on {!null}. *)
val close : Sim.t -> h -> phase:string -> unit

(** All closed ledgers of [sim] in close order; clears the buffer. *)
val drain : Sim.t -> Sim.ledger list

(** [step sim ~series delta] records a timeline step event — the
    simulated instant at which a tracked quantity (SDMA engines busy,
    offload queue depth, DMA transactions in flight) changed by
    [delta].  One flag check when off; the instants recorded must be
    result-determined, like ledger marks. *)
val step : Sim.t -> series:string -> int -> unit

(** All step events of [sim] in record order; clears the buffer. *)
val drain_steps : Sim.t -> (string * float * int) list
