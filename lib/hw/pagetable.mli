(** x86_64-style page tables with 4 kB and 2 MB translations.

    Virtual addresses use the canonical 48-bit layout: four 9-bit indices
    (PGD, PUD, PMD, PTE) above a 12-bit page offset; bits above 47 are
    ignored.  A PMD entry may be a 2 MB leaf, exactly like hardware large
    pages; the McKernel memory manager relies on this and the HFI1
    PicoDriver walks these tables instead of calling get_user_pages().

    Every operation behaves as on a 4-level radix table, but the storage
    is flat: an int-keyed table of 2 MB regions (VA bits 21-47, the PGD,
    PUD and PMD indices together).  A region holds one 2 MB leaf PTE, or
    a window of 4 kB PTEs covering only its populated slot span, which
    grows by doubling up to the region's 512 slots.  A PTE is the int
    [pa lor flags] with [present] always set, so 0 means unmapped: no
    level is allocated empty and no leaf is boxed.  As with a radix PTE
    table, a region's window outlives its last 4 kB unmap (a 2 MB map
    there still raises [Already_mapped]); a 2 MB unmap frees its region. *)

module Flags : sig
  type t = int

  val none : t

  val present : t

  val writable : t

  val user : t

  val global : t

  (** Set on LWK anonymous mappings: the backing frames may never be
      reclaimed or swapped; the fast-path driver checks this before
      building SDMA requests directly from the tables. *)
  val pinned : t

  val has : t -> t -> bool

  val ( + ) : t -> t -> t
end

type t

(** A translated leaf. *)
type mapping = {
  va : Addr.t;        (** start of the page containing the query address *)
  pa : Addr.t;        (** physical base of that page *)
  page_size : int;    (** 4096 or 2 MiB *)
  flags : Flags.t;
}

val create : unit -> t

exception Already_mapped of Addr.t

exception Not_mapped of Addr.t

(** [map t ~va ~pa ~page_size ~flags] installs one page translation.
    [va] and [pa] must be aligned to [page_size]; [page_size] is
    [Addr.page_size] or [Addr.large_page_size].
    @raise Already_mapped if any part of the range is already mapped
    (naming [va]); nothing changes
    @raise Invalid_argument if [flags] has a bit at or above bit 12,
    which would alias PA bits in the PTE; nothing changes *)
val map : t -> va:Addr.t -> pa:Addr.t -> page_size:int -> flags:Flags.t -> unit

(** [map_range t ~va ~pa ~len ~page_size ~flags] maps a whole range with
    pages of the given size ([len] must be a multiple of [page_size]). *)
val map_range :
  t -> va:Addr.t -> pa:Addr.t -> len:int -> page_size:int -> flags:Flags.t -> unit

(** [unmap t ~va] removes the translation containing [va];
    returns the removed mapping.  A 4 kB unmap keeps its region's PTE
    window; a 2 MB unmap frees the region.
    @raise Not_mapped naming [va] *)
val unmap : t -> va:Addr.t -> mapping

(** [translate t va] finds the leaf covering [va], or [None]. *)
val translate : t -> Addr.t -> mapping option

(** [pa_of t va] is the physical address corresponding to [va].
    @raise Not_mapped *)
val pa_of : t -> Addr.t -> Addr.t

(** [page_pas t ~va ~n] is the physical address of each of the [n] 4 kB
    pages from the page-aligned [va] on, in VA order: [pa_of] of every
    page, found by one region lookup per 2 MB instead of a walk per
    page.  This is get_user_pages()'s walk.
    @raise Not_mapped naming the highest unmapped page of the run (the
    page a last-to-first [pa_of] loop would fail on)
    @raise Invalid_argument if [va] is not page-aligned *)
val page_pas : t -> va:Addr.t -> n:int -> Addr.t array

(** [phys_segments t ~va ~len] walks the tables over [\[va, va+len)] and
    returns the backing physical ranges [(pa, seg_len, flags)] in order,
    {b coalescing physically-contiguous pages} — including runs that cross
    page boundaries and mixed 4 kB / 2 MB pages.  Pieces coalesce only when
    their flags are equal.  It reads each region's PTEs in place, with no
    per-page allocation.  This is the primitive the PicoDriver uses to
    discover >4 kB SDMA opportunities.
    @raise Not_mapped naming the first unmapped address of the range *)
val phys_segments : t -> va:Addr.t -> len:int -> (Addr.t * int * Flags.t) list

(** Total number of leaf translations installed. *)
val leaf_count : t -> int
