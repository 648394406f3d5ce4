(* Unit and property tests for the hardware substrate. *)

open Pico_hw
module Sim = Pico_engine.Sim
module Resource = Pico_engine.Resource

(* --- Addr ----------------------------------------------------------------- *)

let test_addr_align () =
  Alcotest.(check int) "down" 0x1000 (Addr.align_down 0x1fff 0x1000);
  Alcotest.(check int) "up" 0x2000 (Addr.align_up 0x1001 0x1000);
  Alcotest.(check int) "up exact" 0x1000 (Addr.align_up 0x1000 0x1000);
  Alcotest.(check bool) "aligned" true (Addr.is_aligned 0x2000 0x1000);
  Alcotest.(check bool) "unaligned" false (Addr.is_aligned 0x2001 0x1000)

let test_addr_pages_spanned () =
  Alcotest.(check int) "within page" 1 (Addr.pages_spanned ~addr:0 ~len:4096);
  Alcotest.(check int) "crosses" 2 (Addr.pages_spanned ~addr:4095 ~len:2);
  Alcotest.(check int) "exact two" 2 (Addr.pages_spanned ~addr:0 ~len:8192);
  Alcotest.(check int) "zero len" 0 (Addr.pages_spanned ~addr:100 ~len:0);
  Alcotest.(check int) "offset big" 3
    (Addr.pages_spanned ~addr:(4096 + 100) ~len:8192)

let test_addr_units () =
  Alcotest.(check int) "kib" 2048 (Addr.kib 2);
  Alcotest.(check int) "mib" (2 * 1024 * 1024) (Addr.mib 2);
  Alcotest.(check int) "gib" (1024 * 1024 * 1024) (Addr.gib 1);
  Alcotest.(check int) "large page" (2 * 1024 * 1024) Addr.large_page_size

let prop_align_idempotent =
  QCheck2.Test.make ~name:"align_up idempotent" ~count:200
    QCheck2.Gen.(pair (int_range 0 (1 lsl 40)) (int_range 0 8))
    (fun (a, shift) ->
      let alignment = 4096 lsl shift in
      let up = Addr.align_up a alignment in
      Addr.align_up up alignment = up && up >= a && up - a < alignment)

(* --- Physmem ---------------------------------------------------------------- *)

let mk_mem ?(frames = 64) () =
  Physmem.create ~base:0x10000 ~size:(frames * Addr.page_size)

let test_physmem_alloc_free () =
  let m = mk_mem () in
  let pa = Option.get (Physmem.alloc m 4) in
  Alcotest.(check int) "base" 0x10000 pa;
  Alcotest.(check int) "used" (4 * 4096) (Physmem.used m);
  Physmem.free m pa 4;
  Alcotest.(check int) "freed" 0 (Physmem.used m)

let test_physmem_coalesce () =
  let m = mk_mem ~frames:8 () in
  let a = Option.get (Physmem.alloc m 4) in
  let b = Option.get (Physmem.alloc m 4) in
  Physmem.free m a 4;
  Physmem.free m b 4;
  (* After coalescing, the whole region is one hole again. *)
  Alcotest.(check int) "largest hole" 8 (Physmem.largest_hole m);
  let c = Option.get (Physmem.alloc m 8) in
  Alcotest.(check int) "full realloc" a c

let test_physmem_double_free () =
  let m = mk_mem () in
  let pa = Option.get (Physmem.alloc m 2) in
  Physmem.free m pa 2;
  Alcotest.(check bool) "double free raises" true
    (try Physmem.free m pa 2; false with Invalid_argument _ -> true)

let test_physmem_oom () =
  let m = mk_mem ~frames:4 () in
  Alcotest.(check bool) "too big" true (Physmem.alloc m 5 = None);
  ignore (Physmem.alloc m 4);
  Alcotest.(check bool) "full" true (Physmem.alloc m 1 = None)

let test_physmem_alignment () =
  let m = Physmem.create ~base:0x1000 ~size:(Addr.mib 8) in
  ignore (Physmem.alloc m 1);
  let pa = Option.get (Physmem.alloc m ~align:Addr.large_page_size 512) in
  Alcotest.(check bool) "2MB aligned" true
    (Addr.is_aligned pa Addr.large_page_size)

let test_physmem_rw () =
  let m = mk_mem () in
  let pa = Option.get (Physmem.alloc m 3) in
  let data = Bytes.init 10000 (fun i -> Char.chr (i land 0xff)) in
  Physmem.write_bytes m (pa + 100) data;
  let back = Physmem.read_bytes m (pa + 100) 10000 in
  Alcotest.(check bytes) "rw roundtrip across frames" data back

let test_physmem_zero_fill () =
  let m = mk_mem () in
  let pa = Option.get (Physmem.alloc m 1) in
  Physmem.write_u64 m pa 0xDEADBEEFL;
  Physmem.free m pa 1;
  let pa2 = Option.get (Physmem.alloc m 1) in
  Alcotest.(check int) "same frame" pa pa2;
  Alcotest.(check int64) "zeroed after free" 0L (Physmem.read_u64 m pa2)

let test_physmem_sparse () =
  let m = Physmem.create ~base:0 ~size:(Addr.mib 64) in
  ignore (Physmem.alloc m 1024);
  Alcotest.(check int) "no resident frames before writes" 0
    (Physmem.resident_frames m);
  Physmem.write_u8 m 0 1;
  Alcotest.(check int) "one after a write" 1 (Physmem.resident_frames m)

let test_physmem_scalar_access () =
  let m = mk_mem () in
  let pa = Option.get (Physmem.alloc m 1) in
  Physmem.write_u32 m pa 0x12345678l;
  Alcotest.(check int32) "u32" 0x12345678l (Physmem.read_u32 m pa);
  (* Little endian byte order, like x86. *)
  Alcotest.(check int) "LE low byte" 0x78 (Physmem.read_u8 m pa);
  Physmem.write_u64 m (pa + 8) (-1L);
  Alcotest.(check int64) "u64" (-1L) (Physmem.read_u64 m (pa + 8))

let test_physmem_out_of_range () =
  let m = mk_mem ~frames:1 () in
  Alcotest.(check bool) "read out of range raises" true
    (try ignore (Physmem.read_bytes m 0 8); false
     with Invalid_argument _ -> true)

(* Property: under a random alloc/free interleaving, live allocations
   never overlap and a full drain restores one maximal hole. *)
let prop_physmem_no_overlap =
  QCheck2.Test.make ~name:"allocator: no overlap, full coalesce" ~count:100
    QCheck2.Gen.(list_size (int_range 1 40) (pair bool (int_range 1 8)))
    (fun ops ->
      let frames = 128 in
      let m = Physmem.create ~base:0 ~size:(frames * Addr.page_size) in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun (is_alloc, n) ->
          if is_alloc then begin
            match Physmem.alloc m n with
            | Some pa ->
              (* overlap check against every live allocation *)
              List.iter
                (fun (opa, on) ->
                  let e1 = pa + (n * Addr.page_size) in
                  let e2 = opa + (on * Addr.page_size) in
                  if not (e1 <= opa || e2 <= pa) then ok := false)
                !live;
              live := (pa, n) :: !live
            | None -> ()
          end
          else begin
            match !live with
            | (pa, n) :: rest ->
              Physmem.free m pa n;
              live := rest
            | [] -> ()
          end)
        ops;
      List.iter (fun (pa, n) -> Physmem.free m pa n) !live;
      !ok && Physmem.largest_hole m = frames && Physmem.used m = 0)

(* --- Pagetable ----------------------------------------------------------------- *)

let flags_rw = Pagetable.Flags.(present + writable)

let test_pt_map_translate () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~va:0x4000_0000 ~pa:0x8000 ~page_size:Addr.page_size
    ~flags:flags_rw;
  Alcotest.(check int) "pa_of offset" (0x8000 + 42)
    (Pagetable.pa_of pt (0x4000_0000 + 42));
  (match Pagetable.translate pt 0x4000_0123 with
   | Some m ->
     Alcotest.(check int) "page va" 0x4000_0000 m.Pagetable.va;
     Alcotest.(check int) "size" 4096 m.Pagetable.page_size
   | None -> Alcotest.fail "unmapped")

let test_pt_large_page () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~va:(Addr.mib 2) ~pa:(Addr.mib 4)
    ~page_size:Addr.large_page_size ~flags:flags_rw;
  Alcotest.(check int) "inside 2M page"
    (Addr.mib 4 + Addr.mib 1)
    (Pagetable.pa_of pt (Addr.mib 2 + Addr.mib 1));
  Alcotest.(check int) "leaves" 1 (Pagetable.leaf_count pt)

let test_pt_already_mapped () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~va:0x1000 ~pa:0x2000 ~page_size:4096 ~flags:flags_rw;
  Alcotest.(check bool) "remap raises" true
    (try
       Pagetable.map pt ~va:0x1000 ~pa:0x3000 ~page_size:4096 ~flags:flags_rw;
       false
     with Pagetable.Already_mapped _ -> true)

let test_pt_unmap () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~va:0x1000 ~pa:0x2000 ~page_size:4096 ~flags:flags_rw;
  let m = Pagetable.unmap pt ~va:0x1234 in
  Alcotest.(check int) "unmapped pa" 0x2000 m.Pagetable.pa;
  Alcotest.(check bool) "translate now fails" true
    (Pagetable.translate pt 0x1000 = None);
  Alcotest.(check bool) "unmap again raises" true
    (try ignore (Pagetable.unmap pt ~va:0x1000); false
     with Pagetable.Not_mapped _ -> true)

let test_pt_phys_segments_coalesce () =
  let pt = Pagetable.create () in
  (* Three virtually AND physically consecutive 4k pages -> one segment. *)
  Pagetable.map_range pt ~va:0x10000 ~pa:0x50000 ~len:(3 * 4096)
    ~page_size:4096 ~flags:flags_rw;
  (match Pagetable.phys_segments pt ~va:0x10000 ~len:(3 * 4096) with
   | [ (pa, len, _) ] ->
     Alcotest.(check int) "pa" 0x50000 pa;
     Alcotest.(check int) "len" (3 * 4096) len
   | segs ->
     Alcotest.failf "expected 1 segment, got %d" (List.length segs))

let test_pt_phys_segments_split () =
  let pt = Pagetable.create () in
  (* Two virtually consecutive pages, physically apart -> two segments. *)
  Pagetable.map pt ~va:0x10000 ~pa:0x50000 ~page_size:4096 ~flags:flags_rw;
  Pagetable.map pt ~va:0x11000 ~pa:0x90000 ~page_size:4096 ~flags:flags_rw;
  Alcotest.(check int) "two segments" 2
    (List.length (Pagetable.phys_segments pt ~va:0x10000 ~len:8192))

let test_pt_phys_segments_subrange () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~va:0x10000 ~pa:0x50000 ~page_size:4096 ~flags:flags_rw;
  (match Pagetable.phys_segments pt ~va:0x10100 ~len:256 with
   | [ (pa, len, _) ] ->
     Alcotest.(check int) "offset pa" 0x50100 pa;
     Alcotest.(check int) "sub len" 256 len
   | _ -> Alcotest.fail "expected 1 segment")

let test_pt_phys_segments_mixed_sizes () =
  let pt = Pagetable.create () in
  (* A 4k page physically right before a 2M page: coalesces. *)
  let large_va = Addr.mib 4 and large_pa = Addr.mib 32 in
  Pagetable.map pt ~va:(large_va - 4096) ~pa:(large_pa - 4096)
    ~page_size:4096 ~flags:flags_rw;
  Pagetable.map pt ~va:large_va ~pa:large_pa
    ~page_size:Addr.large_page_size ~flags:flags_rw;
  (match
     Pagetable.phys_segments pt ~va:(large_va - 4096)
       ~len:(4096 + Addr.large_page_size)
   with
   | [ (pa, len, _) ] ->
     Alcotest.(check int) "pa" (large_pa - 4096) pa;
     Alcotest.(check int) "len" (4096 + Addr.large_page_size) len
   | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs))

let test_pt_phys_segments_hole () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~va:0x10000 ~pa:0x50000 ~page_size:4096 ~flags:flags_rw;
  Alcotest.(check bool) "hole raises" true
    (try ignore (Pagetable.phys_segments pt ~va:0x10000 ~len:8192); false
     with Pagetable.Not_mapped _ -> true)

let test_pt_flags () =
  let pt = Pagetable.create () in
  let flags = Pagetable.Flags.(present + writable + pinned) in
  Pagetable.map pt ~va:0x1000 ~pa:0x2000 ~page_size:4096 ~flags;
  (match Pagetable.translate pt 0x1000 with
   | Some m ->
     Alcotest.(check bool) "pinned" true
       Pagetable.Flags.(has m.Pagetable.flags pinned);
     Alcotest.(check bool) "user not set" false
       Pagetable.Flags.(has m.Pagetable.flags user)
   | None -> Alcotest.fail "unmapped")

let prop_pt_random_mappings =
  QCheck2.Test.make ~name:"random disjoint maps all translate back" ~count:50
    QCheck2.Gen.(list_size (int_range 1 30) (int_range 0 1000))
    (fun page_idxs ->
      let idxs = List.sort_uniq compare page_idxs in
      let pt = Pagetable.create () in
      List.iter
        (fun i ->
          Pagetable.map pt ~va:(i * 4096) ~pa:((i + 5000) * 4096)
            ~page_size:4096 ~flags:flags_rw)
        idxs;
      List.for_all
        (fun i -> Pagetable.pa_of pt (i * 4096) = (i + 5000) * 4096)
        idxs)

(* The 4-level radix page table that [Pagetable] replaced, verbatim but
   for its [Flags], which are [Pagetable]'s: the reference its per-2 MB
   storage must match, outcome for outcome. *)
module Radix = struct
  module Flags = Pagetable.Flags

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
end

(* What a page-table call did: its value, or the exception it raised and
   the address that exception names.  The two formats' exceptions map
   alike. *)
type pt_failure = Already of int | Unmapped of int | Invalid of string

let attempt f =
  match f () with
  | v -> Ok v
  | exception (Pagetable.Already_mapped a | Radix.Already_mapped a) ->
    Error (Already a)
  | exception (Pagetable.Not_mapped a | Radix.Not_mapped a) -> Error (Unmapped a)
  | exception Invalid_argument m -> Error (Invalid m)

let pp_attempt pp = function
  | Ok v -> pp v
  | Error (Already a) -> Printf.sprintf "Already_mapped %#x" a
  | Error (Unmapped a) -> Printf.sprintf "Not_mapped %#x" a
  | Error (Invalid m) -> "Invalid_argument " ^ m

let pp_leaf = function
  | Some (va, pa, page_size, flags) ->
    Printf.sprintf "{va=%#x pa=%#x size=%#x flags=%#x}" va pa page_size flags
  | None -> "None"

let flat_leaf (m : Pagetable.mapping) = Some (m.va, m.pa, m.page_size, m.flags)

let radix_leaf (m : Radix.mapping) = Some (m.va, m.pa, m.page_size, m.flags)

let pp_array pas =
  String.concat "," (Array.to_list (Array.map (Printf.sprintf "%#x") pas))

let pp_segments segs =
  String.concat ","
    (List.map
       (fun (pa, len, flags) -> Printf.sprintf "(%#x,%#x,%#x)" pa len flags)
       segs)

type pt_op =
  | Map of { va : int; pa : int; page_size : int; flags : int }
  | Map_range of { va : int; pa : int; len : int; page_size : int; flags : int }
  | Unmap of int

let pp_pt_op = function
  | Map { va; pa; page_size; flags } ->
    Printf.sprintf "map %#x->%#x size=%#x flags=%#x" va pa page_size flags
  | Map_range { va; pa; len; page_size; flags } ->
    Printf.sprintf "map_range %#x->%#x len=%#x size=%#x flags=%#x" va pa len
      page_size flags
  | Unmap va -> Printf.sprintf "unmap %#x" va

(* An op's outcome: the unmapped leaf, [None] for a map. *)
let apply_flat pt = function
  | Map { va; pa; page_size; flags } ->
    attempt (fun () -> Pagetable.map pt ~va ~pa ~page_size ~flags; None)
  | Map_range { va; pa; len; page_size; flags } ->
    attempt (fun () ->
        Pagetable.map_range pt ~va ~pa ~len ~page_size ~flags;
        None)
  | Unmap va -> attempt (fun () -> flat_leaf (Pagetable.unmap pt ~va))

let apply_radix pt = function
  | Map { va; pa; page_size; flags } ->
    attempt (fun () -> Radix.map pt ~va ~pa ~page_size ~flags; None)
  | Map_range { va; pa; len; page_size; flags } ->
    attempt (fun () ->
        Radix.map_range pt ~va ~pa ~len ~page_size ~flags;
        None)
  | Unmap va -> attempt (fun () -> radix_leaf (Radix.unmap pt ~va))

(* Four adjacent 2 MB regions, so runs cross region boundaries and run
   into the unmapped one above them, and the two just below 2^48, where a
   run wraps onto region 0.  Any address may carry bit 48, which both
   formats alias away. *)
let law_regions =
  [| 0x4000_0000; 0x4020_0000; 0x4040_0000; 0x4060_0000;
     (1 lsl 48) - (2 * Addr.large_page_size);
     (1 lsl 48) - Addr.large_page_size |]

(* A PA that tracks the VA, so neighbouring maps coalesce — across
   regions and page sizes too. *)
let linear va = (1 lsl 40) + (va land ((1 lsl 40) - 1))

let gen_law_region =
  QCheck2.Gen.(
    let* r = int_range 0 (Array.length law_regions - 1) in
    let* alias = frequencyl [ (4, 0); (1, 1 lsl 48) ] in
    return (law_regions.(r) + alias))

let gen_pt_ops =
  let open QCheck2.Gen in
  let large = Addr.large_page_size in
  let chunk =
    let* base = gen_law_region in
    let* slot =
      frequency
        [ (3, int_range 0 7); (2, int_range 0 511); (1, int_range 504 511) ]
    in
    let page = base + (slot * Addr.page_size) in
    let* flags =
      oneofl
        Pagetable.Flags.
          [ none; present + writable; present + writable + user + pinned;
            writable + global; 0xffe ]
    in
    let* pa4 =
      oneof [ return (linear page); map (fun p -> p * Addr.page_size) nat ]
    in
    let* pa2 = oneof [ return (linear base); map (fun p -> p * large) nat ] in
    let map4 = Map { va = page; pa = pa4; page_size = Addr.page_size; flags } in
    let map2 = Map { va = base; pa = pa2; page_size = large; flags } in
    frequency
      [ (4, return [ map4 ]);
        (2, return [ map2 ]);
        ( 2,
          let* n = int_range 1 600 in
          return
            [ Map_range
                { va = page; pa = linear page; len = n * Addr.page_size;
                  page_size = Addr.page_size; flags } ] );
        ( 1,
          let* n = int_range 1 2 in
          return
            [ Map_range
                { va = base; pa = linear base; len = n * large;
                  page_size = large; flags } ] );
        (3, map (fun off -> [ Unmap (base + off) ]) (int_range 0 (large - 1)));
        (2, map (fun off -> [ Unmap (page + off) ]) (int_range 0 4095));
        (* A 2 MB map over a window whose pages were all unmapped. *)
        (2, return [ map4; Unmap page; map2 ]);
        ( 1,
          oneofl
            [ [ Map { va = page + 512; pa = pa4; page_size = 4096; flags } ];
              [ Map { va = page; pa = pa4; page_size = 8192; flags } ];
              [ Map_range
                  { va = page; pa = pa4; len = 100; page_size = 4096; flags } ]
            ] ) ]
  in
  map List.concat (list_size (int_range 1 30) chunk)

(* Final probes: page runs (start, pages) and byte ranges (start, len)
   that cross regions, holes and page sizes, from unaligned starts. *)
let gen_pt_probes =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 6)
         (pair
            (map2 (fun b s -> b + (s * Addr.page_size)) gen_law_region
               (int_range 0 511))
            (int_range 0 1100)))
      (list_size (int_range 1 6)
         (pair
            (map2 ( + ) gen_law_region (int_range 0 (Addr.large_page_size - 1)))
            (int_range 1 (Addr.mib 5)))))

let prop_pt_radix_reference =
  QCheck2.Test.make ~name:"per-2 MB table = 4-level radix reference"
    ~count:300
    ~print:(fun (ops, (runs, ranges)) ->
      String.concat "; " (List.map pp_pt_op ops)
      ^ Printf.sprintf " | runs [%s] | ranges [%s]"
          (String.concat "; "
             (List.map (fun (va, n) -> Printf.sprintf "%#x+%d" va n) runs))
          (String.concat "; "
             (List.map (fun (va, len) -> Printf.sprintf "%#x+%#x" va len)
                ranges)))
    QCheck2.Gen.(pair gen_pt_ops gen_pt_probes)
    (fun (ops, (runs, ranges)) ->
      let pt = Pagetable.create () and ref_pt = Radix.create () in
      let agree what pp got expected =
        if got <> expected then
          QCheck2.Test.fail_reportf "%s: got %s, reference %s" what
            (pp_attempt pp got) (pp_attempt pp expected)
      in
      List.iteri
        (fun i op ->
          agree
            (Printf.sprintf "op %d (%s)" i (pp_pt_op op))
            pp_leaf (apply_flat pt op) (apply_radix ref_pt op))
        ops;
      Array.iter
        (fun base ->
          for slot = 0 to 511 do
            let va = base + (slot * Addr.page_size) + 0x123 in
            agree
              (Printf.sprintf "translate %#x" va)
              pp_leaf
              (Ok (Option.bind (Pagetable.translate pt va) flat_leaf))
              (Ok (Option.bind (Radix.translate ref_pt va) radix_leaf));
            agree
              (Printf.sprintf "pa_of %#x" va)
              (Printf.sprintf "%#x")
              (attempt (fun () -> Pagetable.pa_of pt va))
              (attempt (fun () -> Radix.pa_of ref_pt va))
          done)
        law_regions;
      List.iter
        (fun (va, n) ->
          agree
            (Printf.sprintf "page_pas %#x %d" va n)
            pp_array
            (attempt (fun () -> Pagetable.page_pas pt ~va ~n))
            (attempt (fun () -> Radix.page_pas ref_pt ~va ~n)))
        runs;
      List.iter
        (fun (va, len) ->
          agree
            (Printf.sprintf "phys_segments %#x %#x" va len)
            pp_segments
            (attempt (fun () -> Pagetable.phys_segments pt ~va ~len))
            (attempt (fun () -> Radix.phys_segments ref_pt ~va ~len)))
        ranges;
      agree "leaf_count" string_of_int
        (Ok (Pagetable.leaf_count pt))
        (Ok (Radix.leaf_count ref_pt));
      true)

(* McKernel's [Mem.map_anon] leaves a 2 MB gap after every mapping, so
   each small mapping gets a region of its own.  The table's footprint
   stays proportional to its pages and regions: a radix table spends a
   513-word PTE table on each such region. *)
let test_pt_footprint () =
  let pt = Pagetable.create () in
  let flags = Pagetable.Flags.(present + writable + user + pinned) in
  let va = ref 0x2aaa_0000_0000 in
  for i = 1 to 64 do
    Pagetable.map pt ~va:!va ~pa:(i * Addr.page_size) ~page_size:Addr.page_size
      ~flags;
    va := !va + Addr.page_size + Addr.large_page_size
  done;
  Pagetable.map_range pt ~va:!va ~pa:(Addr.mib 64) ~len:(Addr.kib 768)
    ~page_size:Addr.page_size ~flags;
  let pages = 64 + 192 and regions = 64 + 1 in
  Alcotest.(check int) "leaves" pages (Pagetable.leaf_count pt);
  let words = Obj.reachable_words (Obj.repr pt) in
  if words > 4 * (pages + regions) then
    Alcotest.failf "%d words for %d pages in %d regions" words pages regions

(* Flags at or above bit 12 would alias PA bits in the PTE. *)
let test_pt_flags_above_bit_11 () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~va:0x1000 ~pa:0x2000 ~page_size:4096 ~flags:flags_rw;
  let before = Pagetable.translate pt 0x1000 in
  let rejected ~va ~pa ~page_size ~flags =
    try Pagetable.map pt ~va ~pa ~page_size ~flags; false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "4 kB, bit 12" true
    (rejected ~va:0x3000 ~pa:0x4000 ~page_size:4096 ~flags:(flags_rw + 0x1000));
  Alcotest.(check bool) "2 MB, negative" true
    (rejected ~va:(Addr.mib 4) ~pa:(Addr.mib 8)
       ~page_size:Addr.large_page_size ~flags:(-1));
  Alcotest.(check int) "leaves" 1 (Pagetable.leaf_count pt);
  Alcotest.(check bool) "4 kB not mapped" true
    (Pagetable.translate pt 0x3000 = None);
  Alcotest.(check bool) "2 MB not mapped" true
    (Pagetable.translate pt (Addr.mib 4) = None);
  Alcotest.(check bool) "old page unchanged" true
    (Pagetable.translate pt 0x1000 = before)

(* --- Numa / Cpu ------------------------------------------------------------------ *)

let test_numa_knl () =
  let n = Numa.knl_snc4 ~scale:0.001 () in
  Alcotest.(check int) "8 domains" 8 (Numa.n_domains n);
  Alcotest.(check int) "4 mcdram" 4
    (List.length (Numa.domains_of_kind n Numa.Mcdram));
  Alcotest.(check int) "4 ddr" 4
    (List.length (Numa.domains_of_kind n Numa.Ddr4))

let test_numa_pref_fallback () =
  let n =
    Numa.create ~mcdram_domains:1 ~mcdram_per_domain:(Addr.kib 8)
      ~ddr_domains:1 ~ddr_per_domain:(Addr.mib 1) ()
  in
  (* Two frames fit MCDRAM; the next request falls back to DDR. *)
  let d1, _ = Option.get (Numa.alloc_pref n ~pref:Numa.Mcdram 2) in
  Alcotest.(check bool) "mcdram first" true (d1.Numa.kind = Numa.Mcdram);
  let d2, _ = Option.get (Numa.alloc_pref n ~pref:Numa.Mcdram 2) in
  Alcotest.(check bool) "fallback ddr" true (d2.Numa.kind = Numa.Ddr4)

let test_numa_owner () =
  let n = Numa.knl_snc4 ~scale:0.001 () in
  let d, pa = Option.get (Numa.alloc_pref n ~pref:Numa.Ddr4 1) in
  (match Numa.owner n pa with
   | Some od -> Alcotest.(check int) "owner id" d.Numa.id od.Numa.id
   | None -> Alcotest.fail "no owner");
  Alcotest.(check bool) "outside" true (Numa.owner n 1 = None)

let test_cpu_topology () =
  let cpus = Cpu.knl_7250 () in
  Alcotest.(check int) "272 logical" 272 (Array.length cpus);
  Alcotest.(check int) "all linux initially" 272
    (Cpu.count_owned cpus Cpu.Linux);
  let c17 = cpus.(17) in
  Alcotest.(check int) "core of 17" 4 c17.Cpu.core_id;
  Alcotest.(check int) "thread of 17" 1 c17.Cpu.thread_id

(* --- Irq -------------------------------------------------------------------------- *)

let test_irq_basic () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  let fired = ref 0 in
  Irq.register irq ~vector:5 ~name:"test" (fun () -> incr fired);
  Irq.raise_irq irq ~vector:5;
  Irq.raise_irq irq ~vector:5;
  ignore (Sim.run sim);
  Alcotest.(check int) "handler ran" 2 !fired;
  Alcotest.(check int) "delivered" 2 (Irq.delivered irq)

let test_irq_duplicate_vector () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  Irq.register irq ~vector:1 ~name:"a" (fun () -> ());
  Alcotest.(check bool) "duplicate raises" true
    (try Irq.register irq ~vector:1 ~name:"b" (fun () -> ()); false
     with Invalid_argument _ -> true)

let test_irq_spurious () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  Irq.raise_irq irq ~vector:99;
  ignore (Sim.run sim);
  Alcotest.(check int) "spurious counted" 1 (Irq.delivered irq)

let test_irq_service_contention () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  let cpus = Resource.create sim ~name:"cpus" ~capacity:1 in
  Irq.set_service irq (Some cpus);
  Irq.set_dispatch_latency irq 0.;
  let times = ref [] in
  Irq.register irq ~vector:1 ~name:"h" (fun () ->
      Sim.delay sim 100.;
      times := Sim.now sim :: !times);
  Irq.raise_irq irq ~vector:1;
  Irq.raise_irq irq ~vector:1;
  ignore (Sim.run sim);
  Alcotest.(check (list (float 1e-9))) "serialized on one cpu" [ 100.; 200. ]
    (List.rev !times)

let test_irq_unregister () =
  let sim = Sim.create () in
  let irq = Irq.create sim in
  Irq.register irq ~vector:3 ~name:"x" (fun () -> ());
  Alcotest.(check (list int)) "registered" [ 3 ] (Irq.registered_vectors irq);
  Irq.unregister irq ~vector:3;
  Alcotest.(check (list int)) "gone" [] (Irq.registered_vectors irq)

(* --- Node ------------------------------------------------------------------------- *)

let test_node_alloc_rw () =
  let sim = Sim.create () in
  let node = Node.create_knl sim ~id:0 () in
  let pa = Option.get (Node.alloc_frames node 2) in
  Node.write_u64 node pa 77L;
  Alcotest.(check int64) "u64" 77L (Node.read_u64 node pa);
  Node.write_u32 node (pa + 8) 5l;
  Alcotest.(check int32) "u32" 5l (Node.read_u32 node (pa + 8));
  Node.free_frames node pa 2

let test_node_memory () =
  let sim = Sim.create () in
  let node = Node.create_knl sim ~id:0 ~mem_scale:0.001 () in
  Alcotest.(check bool) "has memory" true (Node.memory_bytes node > 0);
  Alcotest.(check bool) "bad address raises" true
    (try Node.write_u64 node 1 0L; false with Invalid_argument _ -> true)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "hw"
    [ ("addr",
       [ Alcotest.test_case "align" `Quick test_addr_align;
         Alcotest.test_case "pages spanned" `Quick test_addr_pages_spanned;
         Alcotest.test_case "units" `Quick test_addr_units;
         qc prop_align_idempotent ]);
      ("physmem",
       [ Alcotest.test_case "alloc/free" `Quick test_physmem_alloc_free;
         Alcotest.test_case "coalesce" `Quick test_physmem_coalesce;
         Alcotest.test_case "double free" `Quick test_physmem_double_free;
         Alcotest.test_case "oom" `Quick test_physmem_oom;
         Alcotest.test_case "alignment" `Quick test_physmem_alignment;
         Alcotest.test_case "rw" `Quick test_physmem_rw;
         Alcotest.test_case "zero fill" `Quick test_physmem_zero_fill;
         Alcotest.test_case "sparse" `Quick test_physmem_sparse;
         Alcotest.test_case "scalar access" `Quick test_physmem_scalar_access;
         Alcotest.test_case "out of range" `Quick test_physmem_out_of_range;
         qc prop_physmem_no_overlap ]);
      ("pagetable",
       [ Alcotest.test_case "map/translate" `Quick test_pt_map_translate;
         Alcotest.test_case "large page" `Quick test_pt_large_page;
         Alcotest.test_case "already mapped" `Quick test_pt_already_mapped;
         Alcotest.test_case "unmap" `Quick test_pt_unmap;
         Alcotest.test_case "segments coalesce" `Quick test_pt_phys_segments_coalesce;
         Alcotest.test_case "segments split" `Quick test_pt_phys_segments_split;
         Alcotest.test_case "segments subrange" `Quick test_pt_phys_segments_subrange;
         Alcotest.test_case "segments mixed sizes" `Quick test_pt_phys_segments_mixed_sizes;
         Alcotest.test_case "segments hole" `Quick test_pt_phys_segments_hole;
         Alcotest.test_case "flags" `Quick test_pt_flags;
         Alcotest.test_case "footprint" `Quick test_pt_footprint;
         Alcotest.test_case "flags above bit 11" `Quick
           test_pt_flags_above_bit_11;
         qc prop_pt_random_mappings;
         qc prop_pt_radix_reference ]);
      ("numa",
       [ Alcotest.test_case "knl topology" `Quick test_numa_knl;
         Alcotest.test_case "pref fallback" `Quick test_numa_pref_fallback;
         Alcotest.test_case "owner" `Quick test_numa_owner ]);
      ("cpu", [ Alcotest.test_case "topology" `Quick test_cpu_topology ]);
      ("irq",
       [ Alcotest.test_case "basic" `Quick test_irq_basic;
         Alcotest.test_case "duplicate" `Quick test_irq_duplicate_vector;
         Alcotest.test_case "spurious" `Quick test_irq_spurious;
         Alcotest.test_case "service contention" `Quick test_irq_service_contention;
         Alcotest.test_case "unregister" `Quick test_irq_unregister ]);
      ("node",
       [ Alcotest.test_case "alloc/rw" `Quick test_node_alloc_rw;
         Alcotest.test_case "memory" `Quick test_node_memory ]) ]
