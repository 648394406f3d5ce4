(** McKernel memory management.

    Two distinct services, both central to the paper:

    {b Anonymous user memory} ([map_anon]/[unmap]): backed by
    physically-contiguous memory whenever possible, using 2 MB large-page
    translations, MCDRAM first, and always pinned.  This policy is what
    lets the HFI1 PicoDriver emit 10 kB SDMA requests and skip
    get_user_pages().

    {b Kernel objects} ([kalloc]/[kfree]): a scalable per-core allocator.
    [kfree] pushes the buffer onto the freeing core's list — which fails
    if the caller is a Linux CPU, because Linux CPUs have no McKernel
    per-core data.  [kfree_remote] is the extension from Section 3.3: it
    recognises the foreign CPU and routes the buffer to a lock-protected
    remote-free queue that LWK cores drain later. *)

open Mck_import

type t

val create : Sim.t -> node:Node.t -> vspace:Vspace.t -> lwk_cores:int -> t

val vspace : t -> Vspace.t

(** {2 Anonymous user mappings} *)

type mapping = {
  va : Addr.t;
  len : int;
  page_size : int;      (** granularity actually used *)
  contiguous : bool;    (** single physical run? *)
}

(** [map_anon t ~pt ~cursor ~len] creates a pinned anonymous mapping in
    [pt], bumping the caller's mmap [cursor], and returns its descriptor.
    @raise Out_of_memory *)
val map_anon : t -> pt:Pagetable.t -> cursor:Addr.t ref -> len:int -> mapping

(** [unmap t ~pt mapping] tears the mapping down.  Deliberately not cheap:
    page-table teardown plus a TLB shootdown — the cost the paper's kernel
    profiler surfaces as the dominant syscall for QBOX (Figure 9) and
    flags as future work. *)
val unmap : t -> pt:Pagetable.t -> mapping -> unit

(** Fraction of anonymous bytes mapped with large pages so far. *)
val large_page_fraction : t -> float

(** {2 Kernel-object allocator} *)

(** [kalloc t ~core size] — allocate from [core]'s slab. *)
val kalloc : t -> core:int -> int -> Addr.t

(** [kfree t ~core va] — free onto [core]'s list.  Must be an LWK core.
    @raise Invalid_argument if [core] is not an LWK core index *)
val kfree : t -> core:int -> Addr.t -> unit

(** Free from a {e Linux} CPU: costs more and lands on the remote queue. *)
val kfree_remote : t -> Addr.t -> unit

(** Drain the remote-free queue back into per-core lists (LWK context). *)
val drain_remote_frees : t -> core:int -> int

val live_objects : t -> int

val remote_queue_length : t -> int

(** Cumulative [kfree_remote] calls — cross-kernel frees issued by Linux
    CPUs against LWK-owned objects. *)
val remote_frees : t -> int
