(** RcvArray: the receive-side address-translation table of an HFI
    context.

    Expected (direct-data-placement) receives require the driver to
    {e program} RcvArray entries: each entry maps a TID to one
    physically-contiguous chunk of a pinned user buffer.  User space
    identifies registrations by TID numbers, and can {e unprogram} them to
    unregister (paper Section 2.2.2).

    Programming is a device write, so the per-entry cost is charged to the
    calling (driver) process.

    The slot table is an {!Extent} array, programmed straight from the
    driver's {!Extent.cut}: one entry per 4 kB page on Linux, one per
    contiguous run of up to 2 MB on the PicoDriver.  It covers the TIDs
    used so far and grows on demand, so an idle context costs no table. *)

open Nic_import

type t

val create : Sim.t -> n_entries:int -> t

val capacity : t -> int

val in_use : t -> int

(** [program t cut] allocates the first free run of TIDs (the lowest
    base; the scan skips the fully programmed prefix) that fits [cut]'s
    extents, writes one entry per extent into
    it and returns the base TID, or [None] when the array has no such
    run.  Charges simulated device-write time to the caller.
    @raise Invalid_argument if [cut] yields no extent, or is [Extents]
    holding an empty one (Linux's and the PicoDriver's cuts never do) *)
val program : t -> Extent.cut -> int option

(** [unprogram t ~tid_base ~count] frees a run of entries.  The whole
    run is checked first: on a bad run nothing is freed.
    @raise Invalid_argument if the run is out of bounds or any entry in
    it is not programmed *)
val unprogram : t -> tid_base:int -> count:int -> unit

(** [lookup t ~tid] is the [(pa, len)] programmed at [tid], if any. *)
val lookup : t -> tid:int -> (Addr.t * int) option

(** [entries_of_run t ~tid_base] copies out the consecutive programmed
    entries starting at [tid_base] (the run the hardware walks to place
    an arriving expected fragment). *)
val entries_of_run : t -> tid_base:int -> Extent.t

(** Total entries programmed over the lifetime (statistics). *)
val programmed_total : t -> int
