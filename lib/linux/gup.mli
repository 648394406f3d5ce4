(** get_user_pages(): pin and translate user buffers.

    The Linux HFI1 driver calls this on every SDMA send and TID
    registration: it walks the user page tables, takes a reference on each
    4 kB page, and returns the pages.  The per-page cost — and the fact
    that the result is one PA per PAGE_SIZE page, with no contiguity
    information — is precisely what the PicoDriver's direct page-table
    walk avoids. *)

open Linux_import

type t

val create : Sim.t -> t

(** [get_user_pages t ~pt ~va ~len] pins every page backing
    [\[va, va+len)] and returns their physical addresses, one per 4 kB
    page in VA order ({!Pagetable.page_pas}).  Charges per-page cost to
    the caller.
    @raise Pico_hw.Pagetable.Not_mapped on a hole *)
val get_user_pages :
  t -> pt:Pagetable.t -> va:Addr.t -> len:int -> Addr.t array

(** Release pinned pages (per-page cost charged). *)
val put_pages : t -> Addr.t array -> unit

(** Pages currently pinned (leak detection in tests). *)
val pinned : t -> int

val total_pinned : t -> int
