(** Inter-Kernel Communication: message rings between McKernel and Linux.

    A channel is a pair of unidirectional queues in shared memory; sending
    costs one cache-crossing message plus an IPI to the peer.  System-call
    delegation rides on this (paper Section 2.1). *)

open Ihk_import

type 'a channel

val create : Sim.t -> name:string -> 'a channel

(** [send ch v] delivers [v] to the peer after the IKC latency.
    Non-blocking for the sender. *)
val send : 'a channel -> 'a -> unit

(** Blocking receive (process context). *)
val recv : 'a channel -> 'a

val sent_total : 'a channel -> int

(** A request/response pair of channels, as used by the delegator. *)
type ('req, 'resp) pair = {
  to_linux : 'req channel;
  to_lwk : 'resp channel;
}

val create_pair : Sim.t -> name:string -> ('req, 'resp) pair
