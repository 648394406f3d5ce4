(** SDMA engines: descriptor rings + DMA pacing.

    The HFI1 has 16 independent SDMA engines for CPU offload of large
    sends.  A transfer ([tx]) is a train of {e requests}, one
    physically-contiguous {!Extent} each, of at most
    {!Costs.t.sdma_max_request} bytes (10 kB on hardware).  {b How a
    buffer is cut into requests is the driver's decision} — the Linux
    HFI1 driver cuts at PAGE_SIZE (4 kB, an {!Extent.Pages} cut), the
    PicoDriver cuts at hardware max when physical contiguity allows (an
    {!Extent.Chop} cut); this single difference produces the Fig. 4
    bandwidth gap.

    Engines process their rings FIFO; each descriptor costs
    [sdma_request_overhead] engine time plus wire occupancy obtained from
    the [transmit] callback supplied by the HFI.  When the last descriptor
    of a tx has been put on the wire, [on_complete] runs (the HFI raises
    the completion IRQ there). *)

open Nic_import

type tx = {
  tx_id : int;
  channel : int;   (** flow identifier (sender context); selects the engine *)
  requests : Extent.t;
  total_bytes : int;
  on_complete : unit -> unit;
  lg : Ledger.h;
      (** latency ledger of the submitting operation ({!Ledger.null}
          unless breakdown recording is on): the engine marks queue
          wait, halt dwell and service on the submitter's behalf *)
}

type t

(** [create sim ~n_engines ~ring_slots ~transmit] — [transmit ~pa ~len]
    puts one request on the wire; it is called in engine context and must
    block for the wire time. *)
val create :
  Sim.t ->
  n_engines:int ->
  ring_slots:int ->
  transmit:(pa:Addr.t -> len:int -> unit) ->
  t

(** Validate and enqueue a transfer on the flow's engine.
    Blocks (process context) while the chosen engine's ring is full —
    exactly the back-pressure a driver sees.
    @raise Invalid_argument if any request exceeds the hardware maximum or
    has non-positive length *)
val submit : t -> tx -> unit

(** [set_batch t f] installs the packet-train batching hook: the engine
    loop calls [f tx] (in engine process context) before falling back to
    per-request processing; [f] returning true means it already charged
    the whole train — with bit-identical timing — in one event.  The
    default hook always returns false. *)
val set_batch : t -> (tx -> bool) -> unit

(** [halt t ~engine] stops engine [engine] from fetching descriptors: a
    tx already in service drains (hardware finishes its active descriptor
    train), queued txs stay in the ring until recovery, and submitters
    only feel the usual slot back-pressure.  Idempotent.  Host-side: no
    simulated time passes; the driver layer charges the recovery delays. *)
val halt : t -> engine:int -> unit

(** [recover t ~engine] restarts a halted engine at the current simulated
    time; the engine resumes draining its ring immediately.  Idempotent. *)
val recover : t -> engine:int -> unit

(** Whether the given engine is currently halted. *)
val engine_halted : t -> engine:int -> bool

(** Halt faults injected so far, summed over engines. *)
val halts : t -> int

(** Simulated ns spent halted, summed over engines (closed windows only). *)
val halted_ns : t -> float

(** Transfers submitted but not yet completed, across all engines —
    batching hooks use [in_flight t = 1] to prove the current train is
    alone on this HFI. *)
val in_flight : t -> int

val n_engines : t -> int

(** Cumulative counters. *)

val requests_submitted : t -> int

val bytes_submitted : t -> int

val txs_completed : t -> int

(** Largest request submitted so far (0 before the first) — the
    instrumentation used in the paper to verify that Linux submits only
    4 kB requests while the PicoDriver reaches the 10 kB maximum.  The
    mean request size is [bytes_submitted / requests_submitted]. *)
val max_request_bytes : t -> int

(** Busy time summed over engines (for utilisation reporting). *)
val busy_ns : t -> float

(** Per-engine [(requests, bytes, busy_ns)], indexed by engine number.
    Always on — feeds the per-engine occupancy metrics; per-flow engine
    selection makes the skew across engines visible here. *)
val engine_stats : t -> (int * int * float) array
