(** The Intel HFI1 device driver for Linux (simulated, unmodified by
    PicoDriver — the whole point of the architecture).

    Structure mirrors the real driver: file operations registered with the
    VFS, internal state in kmalloc'd structures laid out per
    {!Hfi1_structs}, SDMA sends built from get_user_pages() results with
    requests {b capped at PAGE_SIZE} (the driver never exploits physical
    contiguity, Section 3.4), expected-receive registration in ioctl(),
    completion processing in the SDMA IRQ handler. *)

open Linux_import

type t

(** Device file name exposed through the VFS. *)
val dev_name : int -> string

(** [probe sim ~node ~hfi ~slab ~gup ~vfs] initialises the driver:
    allocates device data, registers file operations and the SDMA
    completion IRQ handler. *)
val probe :
  Sim.t ->
  node:Node.t ->
  hfi:Hfi.t ->
  slab:Slab.t ->
  gup:Gup.t ->
  vfs:Vfs.t ->
  t

(** Kernel VA of struct hfi1_devdata (the root object the PicoDriver
    starts dereferencing from). *)
val devdata_va : t -> Addr.t

(** Kernel VA of the per_sdma engine array. *)
val per_sdma_va : t -> Addr.t

(** The sdma submit lock — shared with the PicoDriver (Section 3.3). *)
val sdma_lock : t -> Spinlock.t

val tid_lock : t -> Spinlock.t

val hfi : t -> Hfi.t

val slab : t -> Slab.t

val gup : t -> Gup.t

(** Resolve the HFI context behind an open file (follows
    file->private_data->uctxt->ctxt through simulated memory). *)
val context_of_file : t -> Vfs.file -> Hfi.ctx option

(** Per-tid-run pin bookkeeping shared by TID_FREE and the PicoDriver's
    local TID path. *)
val note_tid_pins : t -> tid_base:int -> count:int -> Addr.t array -> unit

val take_tid_pins : t -> tid_base:int -> (int * Addr.t array) option

(** {2 SDMA halt / recovery (Listing 1 in motion)}

    The halt fault drives the externally visible part of the real
    driver's [__sdma_process_event] walk through the exact [sdma_state]
    fields the PicoDriver extracts via DWARF: [halt_engine] writes
    [current_state] out of [s99_running] (into [s50_hw_halt_wait]),
    clears [go_s99_running], records [previous_state], aborts any
    batched packet train and stops the engine; [begin_engine_recovery]
    steps to [s30_sw_clean_up_wait] for the restart walk; and
    [recover_engine] restores [s99_running]/[go_s99_running = 1] and
    restarts the engine.  All three are host-side state transitions —
    the fault scheduler charges the dwell and restart delays between
    them.  Each is idempotent with respect to the engine's halted
    state. *)

val halt_engine : t -> engine_idx:int -> unit

val begin_engine_recovery : t -> engine_idx:int -> unit

val recover_engine : t -> engine_idx:int -> unit

(** Halt faults taken by this driver's engines. *)
val engine_halts : t -> int

(** Counters. *)

val writev_calls : t -> int

val ioctl_calls : t -> int

val opens : t -> int

(** Completion-IRQ invocations processed so far. *)
val irq_completions : t -> int
