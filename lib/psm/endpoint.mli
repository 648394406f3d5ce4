(** PSM endpoints: the user-level communication engine.

    One endpoint per MPI rank.  Send/receive follow PSM's two transfer
    modes (paper Section 2.2.1):

    - {e eager} (≤ {!Config.eager_threshold}): programmed I/O from user
      space, received into library-internal buffers and copied out on
      match — no driver involvement at all;
    - {e rendezvous} (above the threshold): RTS/CTS handshake; the
      receiver registers windows of its buffer for direct data placement
      (TID_UPDATE ioctl), the sender pushes each window with SDMA
      (writev), the receiver unregisters (TID_FREE).  Every driver
      interaction goes through the {!os} vector, which is where the three
      OS configurations differ.

    The endpoint is single-threaded: progress happens inside [wait]/
    [progress] on the calling rank's process, like real PSM. *)

open Psm_import

(** How this rank talks to its OS — native Linux syscalls, offloaded
    McKernel syscalls, or McKernel with the PicoDriver fast path.
    Constructed by the harness (see {!Pico_harness.Osconfig}). *)
type os = {
  sim : Sim.t;
  rank : int;
  hfi : Hfi.t;
  ctx : Hfi.ctx;
  carry_payload : bool;
  writev : Vfs.iovec list -> int;
  ioctl : cmd:int -> arg:Addr.t -> int;
  mmap_anon : int -> Addr.t;
  munmap : Addr.t -> unit;
  write_user : Addr.t -> bytes -> unit;
  read_user : Addr.t -> int -> bytes;
  compute : float -> unit;
  (** Idle-wait yield (Intel-MPI-style nanosleep); profiled as a system
      call by the owning kernel. *)
  nanosleep : float -> unit;
}

type t

type req

(** A matched message is longer than the receive it matched
    (MPI_ERR_TRUNCATE, with errors fatal).  Raised at match time, before
    any byte is placed or any TID window registered: by {!irecv} when it
    matches an unexpected message, otherwise by the progress call that
    handles the message's first eager packet or its RTS. *)
exception Truncated of { src : int; tag : int64; msg_len : int; buf_len : int }

(** [create os] opens the endpoint (allocates the scratch page used for
    writev headers and ioctl arguments). *)
val create : os -> t

(** Install the rank -> (node, context) address vector. *)
val connect : t -> peers:(int * int) array -> unit

val rank : t -> int

val os : t -> os

(** {2 Point-to-point} *)

val isend : t -> dst:int -> tag:int64 -> va:Addr.t -> len:int -> req

(** [irecv t ~src ~tag ~mask ~va ~len] — [src = None] receives from any
    source; [mask] selects which tag bits must match (default: all). *)
val irecv :
  t -> src:int option -> tag:int64 -> ?mask:int64 -> va:Addr.t -> len:int ->
  unit -> req

(** Block (making progress) until the request completes. *)
val wait : t -> req -> unit

val test : t -> req -> bool

(** Drain already-arrived events without blocking. *)
val progress : t -> unit

(** Block for exactly one rx event, handle it, then drain whatever else
    already arrived.  For progress-thread-style loops that own all
    blocking on the endpoint (at most one process per rank may block on
    events — see lib/serve): completions are observed at their exact
    delivery instants. *)
val wait_event : t -> unit

val completed : req -> bool

(** Source rank and actual length of a completed receive. *)
val recv_info : req -> int * int

(** Wire tag of the message a completed receive matched (0 until
    matched); lets wildcard/masked receivers decode tag-encoded
    metadata. *)
val recv_tag : req -> int64

(** {2 Introspection} *)

val sends_eager : t -> int

val sends_rndv : t -> int

val unexpected_now : t -> int
