(** PSM tunables (defaults follow the library's shipped configuration). *)

(** Messages up to this size go eager over PIO; above it the matched-queue
    rendezvous (expected receive + SDMA) engages.  Default 64 kB, the PSM
    default the paper quotes. *)
val eager_threshold : int

(** Rendezvous window: each TID registration / SDMA writev covers at most
    this many bytes.  Default 1 MB. *)
val window_size : int

(** Windows concurrently registered per rendezvous (pipelining).
    Default 2. *)
val pipeline_depth : int

(** Receiver-side TID registration cache: reuse registrations of
    identical (address, length) windows and skip TID_FREE.  {b Off by
    default}: the PSM of the paper's era disabled it (invalidation
    hazards), which is exactly why registration lands in the offloaded
    fast path.  Turning it on is the ablation that shows how much of the
    McKernel penalty is registration traffic. *)
val tid_cache : bool ref

(** [with_tid_cache on f] runs [f] with {!tid_cache} set to [on] and
    restores the previous setting when [f] returns or raises. *)
val with_tid_cache : bool -> (unit -> 'a) -> 'a
