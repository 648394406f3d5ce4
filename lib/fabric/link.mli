(** One directed fabric link: a capacity-1 {!Resource} (serialization)
    plus congestion counters.

    Packet-agnostic on purpose: callers pass the serialization [work]
    and byte count, so this library depends only on the engine and the
    [Nic] facade keeps ownership of wire-time arithmetic. *)

open Fabric_import

type t

val create : Sim.t -> name:string -> tier:string -> t

val name : t -> string

val tier : t -> string

(** True when nothing is transiting or queued. *)
val idle : t -> bool

(** [transit l ~bytes ~work] serialises one packet: blocks (FIFO) for
    the link, holds it [work] ns, and books the counters.  Only
    callable inside a simulation process. *)
val transit : t -> bytes:int -> work:float -> unit

val packets : t -> int

val bytes : t -> int

val busy_ns : t -> float

(** Deepest link occupancy seen at any packet arrival: the packet in
    service, the waiters already queued, and the arriving packet. *)
val peak_queue : t -> int

(** Packets that found the link busy on arrival. *)
val contended : t -> int

(** [note_park l ~wait] books one packet held for [wait] ns of a fault
    down window on this link (the fault domain parks packets, it never
    drops them). *)
val note_park : t -> wait:float -> unit

(** Books one corrupt-and-replay transit on this link. *)
val note_replay : t -> unit

val parks : t -> int

val park_ns : t -> float

val replays : t -> int
