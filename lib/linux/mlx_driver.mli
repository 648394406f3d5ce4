(** A Mellanox-style InfiniBand driver model (mlx5-class).

    The paper's stated future work is "porting memory registration
    routines from the Mellanox Infiniband driver" — Infiniband drives data
    movement entirely from user space, but {e memory registration}
    (ibv_reg_mr) is a system call: pin the buffer, build the HCA's memory
    translation table (MTT) entries, hand out an lkey/rkey.  Under a
    multi-kernel, registration storms therefore offload exactly like HFI
    TID updates.

    This driver exists to prove the PicoDriver framework's generality:
    {!Pico_driver.Mlx_pico} ports only [REG_MR]/[DEREG_MR] with zero
    framework changes. *)

open Linux_import

(** ioctl commands (the uverbs surface this model exposes). *)

val ioctl_reg_mr : int

val ioctl_dereg_mr : int

val ioctl_query_device : int

val ioctl_create_qp : int

(** REG_MR argument: user VA + length, written into user memory like a
    uverbs command buffer. *)
type reg_mr = {
  mr_va : Addr.t;
  mr_len : int;
}

val encode_reg_mr : reg_mr -> bytes

val decode_reg_mr : bytes -> reg_mr

val reg_mr_bytes : int

type mr = {
  lkey : int;
  mr_mtt : Extent.t; (** MTT: translation entries *)
  mr_pinned_pages : int;
}

type t

val dev_name : int -> string

(** Probe: registers the uverbs char device with the VFS. *)
val probe :
  Sim.t -> node:Node.t -> slab:Slab.t -> gup:Gup.t -> vfs:Vfs.t -> t

(** Registered MRs, by lkey. *)
val lookup_mr : t -> lkey:int -> mr option

val mr_count : t -> int

(** Register an MR directly (the PicoDriver fast path calls this with
    translation entries it built itself; charges MTT programming time). *)
val install_mr : t -> mtt:Extent.t -> pinned_pages:int -> int

(** Remove; returns the entry so the caller can unpin.
    @raise Invalid_argument on unknown lkey *)
val remove_mr : t -> lkey:int -> mr

val reg_calls : t -> int

val dereg_calls : t -> int

(** The MR table lock (shared with the PicoDriver fast path). *)
val mr_lock : t -> Spinlock.t
