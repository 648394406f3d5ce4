(** Counting semaphore for simulation processes.

    [acquire] blocks while the count is zero.  Waiters are served FIFO. *)

type t

(** [create sim n] makes a semaphore with initial count [n >= 0]. *)
val create : Sim.t -> int -> t

val acquire : t -> unit

(** [try_acquire s] decrements and returns [true] if the count was positive,
    otherwise returns [false] without blocking. *)
val try_acquire : t -> bool

val release : t -> unit

val count : t -> int


(** [with_sem s f] = acquire; run [f]; release (also on exception). *)
val with_sem : t -> (unit -> 'a) -> 'a
