(** FCFS multi-server resource with queueing statistics.

    Models a pool of [capacity] identical servers (e.g., the Linux CPUs that
    service offloaded system calls).  Processes [acquire] a server, hold it
    while they work, then [release] it.  Arrivals queue FIFO when all servers
    are busy.  Waiting and service times are recorded, which is how delegator
    contention becomes visible in experiments. *)

type t

val create : Sim.t -> name:string -> capacity:int -> t

val capacity : t -> int

(** Servers currently held. *)
val in_use : t -> int

(** Processes currently queued. *)
val queue_length : t -> int

(** Blocks until a server is free; returns the time spent waiting (ns). *)
val acquire : t -> float

val release : t -> unit

(** [use r ~work f] = acquire a server, [Sim.delay] for [work] ns, run [f]
    (non-blocking), release.  Returns [f ()]'s result and records the
    service time. *)
val use : t -> work:float -> (unit -> 'a) -> 'a

(** True when no server is held and nobody is queued. *)
val idle : t -> bool

(** [account r ~waited ~busy] books one served request's statistics
    without running any event — the bookkeeping half of {!use}, for
    batched fast paths that charge several uncontended uses in one event
    (the caller must replicate {!use}'s float arithmetic exactly). *)
val account : t -> waited:float -> busy:float -> unit

(** [account_many r ~n ~starts ~ends] books [n] uncontended uses whose
    service intervals were [\[starts.(i), ends.(i))], [i = 0 .. n-1]: the
    same [total_busy] bits as [n] calls of {!account} [~waited:0.] in
    index order, with no allocation per use.  ([~waited:0.] adds nothing:
    [total_wait] starts at [+0.] and only grows.) *)
val account_many :
  t -> n:int -> starts:float array -> ends:float array -> unit

(** Cumulative statistics. *)

val total_served : t -> int

val total_wait_ns : t -> float

val total_busy_ns : t -> float

val mean_wait_ns : t -> float

(** Utilisation in [0;1] relative to elapsed simulated time (per server). *)
val utilisation : t -> float

val reset_stats : t -> unit
