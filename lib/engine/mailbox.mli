(** Unbounded FIFO channel between simulation processes.

    [put] never blocks; [get] blocks the calling process until a message is
    available.  Messages are delivered in order; waiting processes are woken
    in FIFO order. *)

type 'a t

val create : Sim.t -> 'a t

(** Deposit a message; wakes the longest-waiting getter, if any. *)
val put : 'a t -> 'a -> unit

(** Remove and return the oldest message, blocking if necessary. *)
val get : 'a t -> 'a

(** Non-blocking variant: [None] when empty. *)
val get_opt : 'a t -> 'a option

(** Messages currently queued (excludes messages already handed to
    waiters). *)
val length : 'a t -> int
