(** Simulation-level rendezvous: wait until N parties arrive.

    Used by the experiment runner to synchronise rank start-up (all
    endpoints must exist before anyone communicates) — this is harness
    machinery, not part of the modeled system. *)

open H_import

type t

val create : Sim.t -> parties:int -> t

(** Arrive and block until everyone has arrived. *)
val arrive : t -> unit

val arrived : t -> int
