(** Per-rank OS plumbing: construct the PSM {!Endpoint.os} vector for a
    rank under each OS configuration.

    Must be called from inside the rank's simulation process: device
    open() and mappings charge time (this is the work MPI_Init pays for —
    including the extra PicoDriver initialisation under McKernel+HFI). *)

open H_import

type rank_env = {
  os : Endpoint.os;
  env_kind : Cluster.os_kind;
  node_idx : int;
  fd : int;
}

(** [init_rank cluster ~node_idx ~rank] opens the HFI device through the
    configuration's syscall path and assembles the OS vector. *)
val init_rank : Cluster.t -> node_idx:int -> rank:int -> rank_env
