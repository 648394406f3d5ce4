(** IHK resource partitioning: hand CPU cores and memory to the LWK.

    IHK can allocate and release host resources dynamically without
    rebooting; cores given to McKernel are offlined from Linux's
    perspective (paper Section 2.1). *)

open Ihk_import

type t = {
  node : Node.t;
  lwk_cpus : Cpu.t list;
  linux_cpus : Cpu.t list;
  lwk_mem_bytes : int;
}

(** [reserve node ~lwk_cores ~lwk_mem_bytes] moves whole physical cores
    (all their hardware threads) to the LWK, keeping the rest for Linux.
    @raise Invalid_argument if the request cannot be satisfied *)
val reserve : Node.t -> lwk_cores:int -> lwk_mem_bytes:int -> t

(** Return every resource to Linux. *)
val release : t -> unit

(** Logical CPUs (hardware threads) per partition. *)

val lwk_cpu_count : t -> int

(** Physical cores per partition. *)

val lwk_core_count : t -> int

val linux_core_count : t -> int
