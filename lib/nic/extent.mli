(** Extents: physically contiguous byte ranges [(pa, len)], stored flat.

    The one format of the TID/SDMA path: an SDMA request train
    ({!Sdma.tx}), an RcvArray's slot table ({!Rcvarray}) and an MR's
    translation table are all extent arrays.  Extent [i] is two
    consecutive ints of one int array, so a train of [n] requests is one
    block of [2n] words: no record, list cell or option per page, and no
    write barrier per store.

    How a buffer is cut into extents is the driver's policy: a {!cut}
    names the policy and its inputs, and is written in one pass straight
    into its destination — a fresh train ({!of_cut}) or the RcvArray slots
    being programmed ({!Rcvarray.program}) — so no intermediate array
    is built.  Trains are read-only once built. *)

open Nic_import

(** Extent [i] of [e] is [e.(2 * i)] (physical address) and
    [e.(2 * i + 1)] (length in bytes).  Only this module builds one; the
    per-element loops of [Sdma.submit], the HFI's train schedule and the
    RcvArray (which also frees its slots in place) index it through
    [(e :> int array)], without a call per element. *)
type t = private int array

(** A buffer and the policy that cuts it into extents. *)
type cut =
  | Pages of { pages : Addr.t array; va : Addr.t; len : int }
      (** Linux: one extent per 4 kB page of [\[va, va+len)], whose
          [pages] are the page PAs in VA order (as get_user_pages returns
          them).  The first extent starts at [va]'s offset in its page,
          the last ends at [va + len]; no extent crosses a page boundary,
          however the pages lie physically. *)
  | Chop of { cap : int; segs : (Addr.t * int * Pagetable.Flags.t) list }
      (** The PicoDriver: each physically contiguous segment
          [(pa, len, _)] (as {!Pagetable.phys_segments} returns them) cut
          into extents of [cap] bytes, the last one of each segment
          shorter.  Extents may cross page and large-page boundaries. *)
  | Extents of t  (** these extents, as they are *)

(** No extents. *)
val empty : t

(** [create n] is [n] zero extents: a table for {!write} to fill. *)
val create : int -> t

val count : t -> int

(** Physical address of extent [i]. *)
val pa : t -> int -> Addr.t

(** Length in bytes of extent [i]. *)
val len : t -> int -> int

(** Sum of the lengths. *)
val bytes : t -> int

(** [sub t ~pos ~n] is a fresh copy of extents [pos .. pos+n-1]. *)
val sub : t -> pos:int -> n:int -> t

(** [append a b] is [a]'s extents then [b]'s; returns the non-empty
    argument itself when the other is empty. *)
val append : t -> t -> t

val of_list : (Addr.t * int) list -> t

(** Number of extents [cut] yields.
    @raise Invalid_argument on a [Chop] with [cap <= 0] *)
val cut_count : cut -> int

(** [write cut dst ~pos] writes [cut]'s extents into [dst] from extent
    [pos] on.
    @raise Invalid_argument if they do not fit, [Pages] has fewer pages
    than its range spans, or a [Chop] has [cap <= 0] *)
val write : cut -> t -> pos:int -> unit

(** [cut]'s extents as a train: [Extents e] is [e] itself, any other cut
    is written into a fresh array of exactly {!cut_count} extents. *)
val of_cut : cut -> t
