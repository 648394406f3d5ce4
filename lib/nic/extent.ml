open Nic_import

(* Extent [i] is [a.(2i)] (physical address) and [a.(2i+1)] (length). *)
type t = int array

type cut =
  | Pages of { pages : Addr.t array; va : Addr.t; len : int }
  | Chop of { cap : int; segs : (Addr.t * int * Pagetable.Flags.t) list }
  | Extents of t

let empty = [||]

let create n = Array.make (2 * n) 0

let count t = Array.length t / 2

let pa t i = t.(2 * i)

let len t i = t.((2 * i) + 1)

let bytes t =
  let rec go i acc = if i >= Array.length t then acc else go (i + 2) (acc + t.(i)) in
  go 1 0

let sub t ~pos ~n = Array.sub t (2 * pos) (2 * n)

let append a b =
  if Array.length a = 0 then b
  else if Array.length b = 0 then a
  else Array.append a b

let of_list l =
  let t = create (List.length l) in
  List.iteri
    (fun i (pa, len) ->
      t.(2 * i) <- pa;
      t.((2 * i) + 1) <- len)
    l;
  t

let check_cap cap = if cap <= 0 then invalid_arg "Extent.Chop: cap must be > 0"

let cut_count = function
  | Pages { va; len; _ } -> Addr.pages_spanned ~addr:va ~len
  | Chop { cap; segs } ->
    check_cap cap;
    List.fold_left
      (fun n (_, len, _) -> if len <= 0 then n else n + 1 + ((len - 1) / cap))
      0 segs
  | Extents e -> count e

(* Every store below is to an [int array]: no write barrier, and the
   destination may be a long-lived table in the major heap. *)
let write cut dst ~pos =
  match cut with
  | Pages { pages; va; len } ->
    let first_off = Addr.offset_in_page va in
    let covered = ref 0 in
    for i = 0 to Addr.pages_spanned ~addr:va ~len - 1 do
      let page_off = if i = 0 then first_off else 0 in
      let take = Int.min (Addr.page_size - page_off) (len - !covered) in
      dst.(2 * (pos + i)) <- pages.(i) + page_off;
      dst.((2 * (pos + i)) + 1) <- take;
      covered := !covered + take
    done
  | Chop { cap; segs } ->
    check_cap cap;
    let rec fill i = function
      | [] -> ()
      | (pa, len, _) :: rest ->
        let rec cut i off =
          if off >= len then i
          else begin
            let take = Int.min cap (len - off) in
            dst.(2 * i) <- pa + off;
            dst.((2 * i) + 1) <- take;
            cut (i + 1) (off + take)
          end
        in
        fill (cut i 0) rest
    in
    fill pos segs
  | Extents e ->
    for k = 0 to Array.length e - 1 do
      dst.((2 * pos) + k) <- e.(k)
    done

let of_cut = function
  | Extents e -> e
  | cut ->
    let t = create (cut_count cut) in
    write cut t ~pos:0;
    t
