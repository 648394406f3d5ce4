module Flags = struct
  type t = int

  let none = 0

  let present = 1

  let writable = 2

  let user = 4

  let global = 8

  let pinned = 16

  let has flags bit = flags land bit = bit

  let ( + ) = ( lor )
end

type mapping = {
  va : Addr.t;
  pa : Addr.t;
  page_size : int;
  flags : Flags.t;
}

(* A PTE is the int [pa lor flags]: [present] is always set, so 0 reads
   as unmapped.  Flags live below bit 12, under the page offset. *)
let flag_mask = Addr.page_size - 1

let large = Addr.large_page_size

(* The 4 kB slots of one 2 MB region (one PTE table). *)
let slots = large / Addr.page_size

(* One 2 MB region (VA bits 21-47, the PGD, PUD and PMD indices) holds a
   2 MB leaf or the 4 kB PTEs of slots [first, first + length ptes); a
   slot outside that window is unmapped. *)
type region =
  | Large of int
  | Window of { mutable first : int; mutable ptes : int array }

module Regions = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

type t = { regions : region Regions.t; mutable leaves : int }

let create () = { regions = Regions.create 16; leaves = 0 }

exception Already_mapped of Addr.t

exception Not_mapped of Addr.t

(* Bits above 47 are dropped, as a radix walk's 9-bit indices drop them. *)
let region_of va = (va lsr 21) land ((1 lsl 27) - 1)

let slot_of va = (va lsr Addr.page_shift) land (slots - 1)

(* The PTE of slot [s], or 0 outside the window. *)
let window_pte first ptes s =
  let i = s - first in
  if i < 0 || i >= Array.length ptes then 0 else Array.unsafe_get ptes i

let leaf ~va ~page_size pte =
  { va = Addr.align_down va page_size; pa = pte land lnot flag_mask;
    page_size; flags = pte land flag_mask }

(* Widen a window to take slot [s]: double its length until it spans its
   old slots and [s] (at most the region's 512), extended towards [s].
   The copy is a store loop: the table is long-lived, and [Array.blit]
   into the major heap takes the write barrier per word. *)
let grow first ptes s =
  let len = Array.length ptes in
  let lo = Int.min first s and hi = Int.max (first + len - 1) s in
  (* [len] is a power of two below 512, since a full window never grows. *)
  let rec size n = if n > hi - lo || n = slots then n else size (2 * n) in
  let n = size (2 * len) in
  let first' =
    if s < first then Int.max 0 (hi + 1 - n) else Int.min lo (slots - n)
  in
  let ptes' = Array.make n 0 in
  for i = 0 to len - 1 do
    Array.unsafe_set ptes' (first - first' + i) (Array.unsafe_get ptes i)
  done;
  (first', ptes')

let map t ~va ~pa ~page_size ~flags =
  if page_size <> Addr.page_size && page_size <> large then
    invalid_arg "Pagetable: page_size must be 4 kB or 2 MB";
  if not (Addr.is_aligned va page_size) then
    invalid_arg "Pagetable.map: va not aligned to page size";
  if not (Addr.is_aligned pa page_size) then
    invalid_arg "Pagetable.map: pa not aligned to page size";
  if flags land lnot flag_mask <> 0 then
    invalid_arg "Pagetable.map: flags at or above bit 12 alias the pa";
  let pte = pa lor flags lor Flags.present in
  let key = region_of va in
  (match Regions.find t.regions key with
   | exception Not_found ->
     Regions.add t.regions key
       (if page_size = large then Large pte
        else Window { first = slot_of va; ptes = [| pte |] })
   | Large _ -> raise (Already_mapped va)
   | Window _ when page_size = large -> raise (Already_mapped va)
   | Window w ->
     let s = slot_of va in
     if window_pte w.first w.ptes s <> 0 then raise (Already_mapped va);
     if s < w.first || s >= w.first + Array.length w.ptes then begin
       let first, ptes = grow w.first w.ptes s in
       w.first <- first;
       w.ptes <- ptes
     end;
     w.ptes.(s - w.first) <- pte);
  t.leaves <- t.leaves + 1

let map_range t ~va ~pa ~len ~page_size ~flags =
  if len mod page_size <> 0 then
    invalid_arg "Pagetable.map_range: len must be a multiple of page_size";
  let n = len / page_size in
  for i = 0 to n - 1 do
    let off = i * page_size in
    map t ~va:(va + off) ~pa:(pa + off) ~page_size ~flags
  done

let translate t va =
  match Regions.find t.regions (region_of va) with
  | exception Not_found -> None
  | Large pte -> Some (leaf ~va ~page_size:large pte)
  | Window { first; ptes } ->
    let pte = window_pte first ptes (slot_of va) in
    if pte = 0 then None else Some (leaf ~va ~page_size:Addr.page_size pte)

(* GUP calls this for every page it pins, so no [mapping] is built. *)
let pa_of t va =
  match Regions.find t.regions (region_of va) with
  | exception Not_found -> raise (Not_mapped va)
  | Large pte -> (pte land lnot flag_mask) + (va land (large - 1))
  | Window { first; ptes } ->
    let pte = window_pte first ptes (slot_of va) in
    if pte = 0 then raise (Not_mapped va);
    (pte land lnot flag_mask) + (va land flag_mask)

(* GUP's page-run walk: one region lookup per 2 MB, each answering the
   PAs of all its pages in the run.  Runs fill from the last page down,
   so a hole raises the highest unmapped page — the one a last-to-first
   loop of [pa_of] meets first. *)
let page_pas t ~va ~n =
  if not (Addr.is_aligned va Addr.page_size) then
    invalid_arg "Pagetable.page_pas: va not page-aligned";
  let pas = Array.make n 0 in
  let rec fill hi =
    if hi >= 0 then begin
      let top = va + (hi * Addr.page_size) in
      let base = top land lnot (large - 1) in
      (* Pages [lo, hi] of the run share [top]'s region. *)
      let lo = Int.max 0 ((base - va) / Addr.page_size) in
      (match Regions.find t.regions (region_of top) with
       | exception Not_found -> raise (Not_mapped top)
       | Large pte ->
         let pa = pte land lnot flag_mask in
         for k = hi downto lo do
           pas.(k) <- pa + (va + (k * Addr.page_size) - base)
         done
       | Window { first; ptes } ->
         for k = hi downto lo do
           let page_va = va + (k * Addr.page_size) in
           let pte = window_pte first ptes (slot_of page_va) in
           if pte = 0 then raise (Not_mapped page_va);
           pas.(k) <- pte land lnot flag_mask
         done);
      fill (lo - 1)
    end
  in
  fill (n - 1);
  pas

(* A 4 kB unmap keeps its region's window, even when it empties: a 2 MB
   map over it still raises, as over an empty radix PTE table. *)
let unmap t ~va =
  let key = region_of va in
  match Regions.find t.regions key with
  | exception Not_found -> raise (Not_mapped va)
  | Large pte ->
    Regions.remove t.regions key;
    t.leaves <- t.leaves - 1;
    leaf ~va ~page_size:large pte
  | Window { first; ptes } ->
    let s = slot_of va in
    let pte = window_pte first ptes s in
    if pte = 0 then raise (Not_mapped va);
    ptes.(s - first) <- 0;
    t.leaves <- t.leaves - 1;
    leaf ~va ~page_size:Addr.page_size pte

(* [phys_segments]'s output so far: the closed segments, newest first,
   and the open one, none while [open_len = 0]. *)
type segments = {
  mutable closed : (Addr.t * int * Flags.t) list;
  mutable open_pa : Addr.t;
  mutable open_len : int;
  mutable open_flags : Flags.t;
}

(* Append [len] bytes at [pa], coalescing physically adjacent pieces with
   identical flags. *)
let extend s pa len flags =
  if s.open_len > 0 && s.open_pa + s.open_len = pa && s.open_flags = flags
  then s.open_len <- s.open_len + len
  else begin
    if s.open_len > 0 then
      s.closed <- (s.open_pa, s.open_len, s.open_flags) :: s.closed;
    s.open_pa <- pa;
    s.open_len <- len;
    s.open_flags <- flags
  end

let phys_segments t ~va ~len =
  if len <= 0 then invalid_arg "Pagetable.phys_segments: len must be > 0";
  let stop = va + len in
  let s = { closed = []; open_pa = 0; open_len = 0; open_flags = 0 } in
  let rec walk cur =
    if cur < stop then begin
      let base = cur land lnot (large - 1) in
      let next = Int.min stop (base + large) in
      (match Regions.find t.regions (region_of cur) with
       | exception Not_found -> raise (Not_mapped cur)
       | Large pte ->
         extend s ((pte land lnot flag_mask) + (cur - base)) (next - cur)
           (pte land flag_mask)
       | Window { first; ptes } ->
         let cur = ref cur in
         while !cur < next do
           let pte = window_pte first ptes (slot_of !cur) in
           if pte = 0 then raise (Not_mapped !cur);
           let page = !cur land lnot flag_mask in
           let piece_end = Int.min next (page + Addr.page_size) in
           extend s ((pte land lnot flag_mask) + (!cur - page))
             (piece_end - !cur) (pte land flag_mask);
           cur := piece_end
         done);
      walk next
    end
  in
  walk va;
  List.rev ((s.open_pa, s.open_len, s.open_flags) :: s.closed)

let leaf_count t = t.leaves
