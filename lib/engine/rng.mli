(** Deterministic, splittable pseudo-random number generator
    (xoshiro256** seeded via splitmix64).

    Every stochastic component of the simulation owns its own stream derived
    from the experiment seed, so results are reproducible regardless of
    module evaluation order. *)

type t

val create : seed:int64 -> t

(** [split t] derives an independent stream; [t] advances. *)
val split : t -> t

(** Uniform in [\[0, 1)]. *)
val float : t -> float

(** Uniform in [\[0, bound)]; [bound > 0]. *)
val int : t -> int -> int

(** Exponential with the given [mean]. *)
val exponential : t -> mean:float -> float

(** Normal via Box–Muller. *)
val normal : t -> mean:float -> stddev:float -> float

(** Raw next 64-bit value. *)
val bits64 : t -> int64
