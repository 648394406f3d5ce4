(** The HFI device: contexts, PIO send, SDMA send, receive demux.

    One [Hfi.t] per node.  User processes (via PSM) own {e contexts};
    drivers (Linux HFI1 or the McKernel PicoDriver) submit SDMA work and
    service completion interrupts.  The egress link is a single serialised
    resource shared by PIO and all SDMA engines, matching a host whose
    bottleneck is its OmniPath port. *)

open Nic_import

type t

type rx_event =
  | Rx_packet of Wire.packet
      (** an eager fragment or a PSM control packet *)
  | Rx_expected of {
      tid_base : int;
      msg_id : int;
      offset : int;
      frag_len : int;
      msg_len : int;
      src_rank : int;
    }  (** data landed directly in registered user buffers *)

type ctx

(** [create sim ~node ~fabric ~carry_payload] builds the device and
    attaches it to the fabric.  With [carry_payload] true, message bytes
    are actually read from and written to simulated physical memory
    (tests, examples); when false only timing is modeled (large runs). *)
(** {2 Fabric fault-domain passthroughs}

    The PSM retry ladder reaches the fabric fault domain through this
    facade only. *)

(** A fabric fault injector is installed. *)
val path_armed : t -> bool

(** Whether the flow to [(dst_node, dst_ctx)] has an all-up route in
    the current failure epoch; constant [true] when no injector is
    installed ({!Fabric.path_reachable}). *)
val path_reachable : t -> dst_node:int -> dst_ctx:int -> bool

(** Count one transport retry-ladder backoff / one flow that exhausted
    its retry budget. *)
val note_path_retry : t -> unit

val note_path_degraded : t -> unit

(** The attached fabric's {!Fabric.fault_stats} (all-zero when no
    injector is installed). *)
val fabric_fault_stats : t -> Fabric.fault_stats

val create :
  Sim.t -> node:Node.t -> fabric:Fabric.t -> ?carry_payload:bool ->
  ?rcv_entries:int -> unit -> t

val node_id : t -> int

(** IRQ vector on which SDMA completions are raised. *)
val sdma_irq_vector : int

(** Physical base of the device's user-mappable BAR; each context owns a
    2 MB window at [bar_pa + ctx_id * bar_ctx_window] (control registers,
    PIO buffers, RcvHdrQ) that the driver's mmap() exposes to user
    space. *)
val bar_pa : t -> Pico_hw.Addr.t

val bar_ctx_window : int

(** Open a receive context (what the driver does on open()). *)
val open_context : t -> ctx

val close_context : t -> ctx -> unit

val ctx_id : ctx -> int

val context : t -> int -> ctx option

val rx_events : ctx -> rx_event Mailbox.t

val rcvarray : ctx -> Rcvarray.t

(** {2 Transmit paths} *)

(** SDMA packet-train batching switch (default [true]); [false] selects
    the per-request reference path.  Batching is semantics-preserving —
    per-packet wire overhead, engine overhead and the mid-train abort
    keep timings bit-identical — so this exists only for the equivalence
    tests, which run every scenario under both settings and compare.
    {!pio_send} is per-packet under either setting.  Never toggled
    inside a parallel sweep. *)
val batching : bool ref

(** [pio_send t ~dst_node ~dst_ctx ~hdr ~len ?payload ()] — programmed
    I/O: the {e calling process} pays per-packet CPU cost and wire
    occupancy, one fragment at a time (never batched).  Fragments larger
    than the PIO packet size are split, with [hdr]'s offsets rewritten
    per fragment.  Entirely user-space driven: no driver, no syscall. *)
val pio_send :
  t ->
  dst_node:int ->
  dst_ctx:int ->
  hdr:Wire.header ->
  len:int ->
  ?payload:bytes ->
  unit ->
  unit

(** [sdma_submit t ~channel ~dst_node ~dst_ctx ~hdr ~reqs ~on_complete ()]
    — [channel] identifies the flow (sender context): descriptors of one
    flow are processed serially by one engine, like the hfi1 engine
    selector.
    driver-built SDMA transfer.  [reqs] are physically-contiguous pieces
    (each at most the hardware max), cut by the driver's policy.  Blocks
    only while the engine ring is full; the transfer itself proceeds
    asynchronously and [on_complete] runs from the completion-IRQ handler
    on a Linux CPU. *)
val sdma_submit :
  t ->
  channel:int ->
  dst_node:int ->
  dst_ctx:int ->
  hdr:Wire.header ->
  reqs:Extent.t ->
  on_complete:(unit -> unit) ->
  unit ->
  unit

(** [abort_train t] converts the not-yet-elapsed tail of a batched SDMA
    packet train back to per-packet processing, positioned exactly where
    the per-packet path would be at this instant; a no-op when no train
    is in flight.  Non-blocking (callable from callbacks).  The Linux
    driver calls it on an SDMA halt fault so the batching invariant —
    elide events, never costs — holds under faults too. *)
val abort_train : t -> unit

(** [set_crc_fault t hook] installs (or with [None] removes) the wire CRC
    fault: [hook ()] is consulted once per packet put on the wire, and
    once per replay; [true] means the packet was corrupted and the link
    protocol replays it, paying full wire occupancy again (no fresh
    engine/CPU overhead).  While installed, packet-train batching is
    disabled on this HFI. *)
val set_crc_fault : t -> (unit -> bool) option -> unit

(** Packets replayed due to injected CRC corruption. *)
val crc_retransmits : t -> int

(** Batched SDMA trains converted back to per-packet processing
    mid-flight — by a competing wire user, a driver fault path, or
    fabric link contention ({!Fabric.set_train_abort}).  Always zero
    under the flat topology with an idle wire. *)
val train_aborts : t -> int

(** Remove and return all pending completion callbacks.  Called by the
    driver's SDMA-completion IRQ handler; the handler decides what running
    a callback costs (the crux of Section 3.3: McKernel-allocated metadata
    must be freed with McKernel's [kfree], even on a Linux CPU). *)
val drain_completions : t -> (unit -> unit) list

(** {2 Introspection} *)

val sdma : t -> Sdma.t

val wire : t -> Resource.t

val eager_packets_rx : t -> int

val expected_msgs_rx : t -> int

(** PIO egress counters: packets stored through the send buffer and the
    payload bytes they carried (headers excluded), counted per fragment.
    With {!Sdma.bytes_submitted} these give the PIO-vs-SDMA traffic
    split. *)

val pio_packets : t -> int

val pio_bytes : t -> int
