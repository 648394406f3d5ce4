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

type entry =
  | Empty
  | Table of entry array
  | Leaf of { pa : Addr.t; page_size : int; flags : Flags.t }

type t = { root : entry array; mutable leaves : int }

let fanout = 512

let create () = { root = Array.make fanout Empty; leaves = 0 }

exception Already_mapped of Addr.t

exception Not_mapped of Addr.t

(* Index of [va] at [level]: level 3 = PGD (bits 39-47) ... level 0 = PTE
   (bits 12-20). *)
let index va level = (va lsr (Addr.page_shift + (9 * level))) land (fanout - 1)

let level_of_page_size ps =
  if ps = Addr.page_size then 0
  else if ps = Addr.large_page_size then 1
  else invalid_arg "Pagetable: page_size must be 4 kB or 2 MB"

let map t ~va ~pa ~page_size ~flags =
  let leaf_level = level_of_page_size page_size in
  if not (Addr.is_aligned va page_size) then
    invalid_arg "Pagetable.map: va not aligned to page size";
  if not (Addr.is_aligned pa page_size) then
    invalid_arg "Pagetable.map: pa not aligned to page size";
  let rec descend table level =
    let i = index va level in
    if level = leaf_level then begin
      match table.(i) with
      | Empty ->
        table.(i) <- Leaf { pa; page_size; flags = Flags.(flags + present) };
        t.leaves <- t.leaves + 1
      | Leaf _ | Table _ -> raise (Already_mapped va)
    end
    else begin
      match table.(i) with
      | Empty ->
        let child = Array.make fanout Empty in
        table.(i) <- Table child;
        descend child (level - 1)
      | Table child -> descend child (level - 1)
      | Leaf _ -> raise (Already_mapped va)
    end
  in
  descend t.root 3

let map_range t ~va ~pa ~len ~page_size ~flags =
  if len mod page_size <> 0 then
    invalid_arg "Pagetable.map_range: len must be a multiple of page_size";
  let n = len / page_size in
  for i = 0 to n - 1 do
    let off = i * page_size in
    map t ~va:(va + off) ~pa:(pa + off) ~page_size ~flags
  done

let find t va =
  let rec descend table level =
    let i = index va level in
    match table.(i) with
    | Empty -> None
    | Leaf { pa; page_size; flags } ->
      if level_of_page_size page_size <> level then None
      else begin
        let page_va = Addr.align_down va page_size in
        Some { va = page_va; pa; page_size; flags }
      end
    | Table child -> if level = 0 then None else descend child (level - 1)
  in
  descend t.root 3

let translate t va = find t va

(* [find]'s descent, answering the physical address directly: GUP calls
   this for every page it pins, so no [mapping] option is built. *)
let rec pa_in table va level =
  match table.(index va level) with
  | Leaf { pa; page_size; _ } when level_of_page_size page_size = level ->
    pa + (va - Addr.align_down va page_size)
  | Table child when level > 0 -> pa_in child va (level - 1)
  | Empty | Leaf _ | Table _ -> raise (Not_mapped va)

let pa_of t va = pa_in t.root va 3

(* [pa_in]'s descent to the PMD entry covering [va]: a 2 MB leaf or the
   leaf table of its 512 4 kB pages. *)
let pmd_entry t va =
  match t.root.(index va 3) with
  | Table pud -> (
      match pud.(index va 2) with
      | Table pmd -> pmd.(index va 1)
      | Empty | Leaf _ -> raise (Not_mapped va))
  | Empty | Leaf _ -> raise (Not_mapped va)

(* GUP's page-run walk: one descent per leaf table or 2 MB leaf, each
   answering the PAs of all its pages in the run.  Runs fill from the
   last page down, so a hole raises the highest unmapped page — the one a
   last-to-first loop of [pa_of] meets first. *)
let page_pas t ~va ~n =
  if not (Addr.is_aligned va Addr.page_size) then
    invalid_arg "Pagetable.page_pas: va not page-aligned";
  let pas = Array.make n 0 in
  let rec fill hi =
    if hi >= 0 then begin
      let top = va + (hi * Addr.page_size) in
      let region = Addr.align_down top Addr.large_page_size in
      (* Pages [lo, hi] of the run share [top]'s PMD entry. *)
      let lo = Int.max 0 ((region - va) / Addr.page_size) in
      (match pmd_entry t top with
       | Leaf { pa; page_size; _ } when page_size = Addr.large_page_size ->
         for k = hi downto lo do
           pas.(k) <- pa + (va + (k * Addr.page_size) - region)
         done
       | Table pte ->
         for k = hi downto lo do
           let page_va = va + (k * Addr.page_size) in
           match pte.(index page_va 0) with
           | Leaf { pa; page_size; _ } when page_size = Addr.page_size ->
             pas.(k) <- pa
           | Empty | Leaf _ | Table _ -> raise (Not_mapped page_va)
         done
       | Empty | Leaf _ -> raise (Not_mapped top));
      fill (lo - 1)
    end
  in
  fill (n - 1);
  pas

let unmap t ~va =
  let rec descend table level =
    let i = index va level in
    match table.(i) with
    | Empty -> raise (Not_mapped va)
    | Leaf { pa; page_size; flags } ->
      let page_va = Addr.align_down va page_size in
      table.(i) <- Empty;
      t.leaves <- t.leaves - 1;
      { va = page_va; pa; page_size; flags }
    | Table child ->
      if level = 0 then raise (Not_mapped va) else descend child (level - 1)
  in
  descend t.root 3

let phys_segments t ~va ~len =
  if len <= 0 then invalid_arg "Pagetable.phys_segments: len must be > 0";
  (* Walk page by page; coalesce physically adjacent pieces with identical
     flags. *)
  let rec walk cur acc segs =
    (* acc: current open segment (pa_start, seg_len, flags) option *)
    if cur >= va + len then begin
      match acc with
      | Some seg -> List.rev (seg :: segs)
      | None -> List.rev segs
    end
    else begin
      match find t cur with
      | None -> raise (Not_mapped cur)
      | Some m ->
        let pa = m.pa + (cur - m.va) in
        let page_end = m.va + m.page_size in
        let piece = min (va + len) page_end - cur in
        (match acc with
         | Some (seg_pa, seg_len, seg_flags)
           when seg_pa + seg_len = pa && seg_flags = m.flags ->
           walk (cur + piece) (Some (seg_pa, seg_len + piece, seg_flags)) segs
         | Some seg -> walk (cur + piece) (Some (pa, piece, m.flags)) (seg :: segs)
         | None -> walk (cur + piece) (Some (pa, piece, m.flags)) segs)
    end
  in
  walk va None []

let leaf_count t = t.leaves
