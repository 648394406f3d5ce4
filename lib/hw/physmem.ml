type hole = { start : int; len : int } (* frame numbers *)

type t = {
  base : Addr.t;
  size : int;
  n_frames : int;
  mutable holes : hole list; (* sorted by start, non-adjacent *)
  mutable used_frames : int;
  contents : (int, bytes) Hashtbl.t; (* frame number -> 4 kB *)
}

let create ~base ~size =
  if not (Addr.is_aligned base Addr.page_size) then
    invalid_arg "Physmem.create: base must be page aligned";
  if size <= 0 || not (Addr.is_aligned size Addr.page_size) then
    invalid_arg "Physmem.create: size must be a positive page multiple";
  let n_frames = size / Addr.page_size in
  { base; size; n_frames;
    holes = [ { start = 0; len = n_frames } ];
    used_frames = 0;
    (* Frames materialise only when written, and nothing iterates the
       table, so it starts small and grows on demand. *)
    contents = Hashtbl.create 16 }

let base t = t.base

let size t = t.size

let used t = t.used_frames * Addr.page_size

let free_bytes t = (t.n_frames - t.used_frames) * Addr.page_size

let frame_of_pa t pa = (pa - t.base) / Addr.page_size

let pa_of_frame t frame = t.base + (frame * Addr.page_size)

let alloc t ?(align = Addr.page_size) n_frames =
  if n_frames <= 0 then invalid_arg "Physmem.alloc: n_frames must be > 0";
  if align < Addr.page_size || align land (align - 1) <> 0 then
    invalid_arg "Physmem.alloc: bad alignment";
  (* First fit: find a hole that can host an aligned run of n_frames. *)
  let rec scan acc = function
    | [] -> None
    | h :: rest ->
      let pa = pa_of_frame t h.start in
      let aligned_pa = Addr.align_up pa align in
      let skip = (aligned_pa - pa) / Addr.page_size in
      if h.len >= skip + n_frames then begin
        let start = h.start + skip in
        let before = if skip > 0 then [ { start = h.start; len = skip } ] else [] in
        let after_len = h.len - skip - n_frames in
        let after =
          if after_len > 0 then [ { start = start + n_frames; len = after_len } ]
          else []
        in
        t.holes <- List.rev_append acc (before @ after @ rest);
        t.used_frames <- t.used_frames + n_frames;
        Some (pa_of_frame t start)
      end
      else scan (h :: acc) rest
  in
  scan [] t.holes

let largest_hole t =
  List.fold_left (fun acc h -> max acc h.len) 0 t.holes

let free t pa n_frames =
  if n_frames <= 0 then invalid_arg "Physmem.free: n_frames must be > 0";
  if pa < t.base || pa + (n_frames * Addr.page_size) > t.base + t.size then
    invalid_arg "Physmem.free: range out of region";
  if not (Addr.is_aligned pa Addr.page_size) then
    invalid_arg "Physmem.free: unaligned address";
  let start = frame_of_pa t pa in
  (* Check for overlap with existing holes = double free. *)
  let overlaps h =
    not (h.start + h.len <= start || start + n_frames <= h.start)
  in
  if List.exists overlaps t.holes then
    invalid_arg "Physmem.free: double free";
  (* Insert sorted and coalesce. *)
  let rec insert = function
    | [] -> [ { start; len = n_frames } ]
    | h :: rest when start < h.start -> { start; len = n_frames } :: h :: rest
    | h :: rest -> h :: insert rest
  in
  let rec coalesce = function
    | a :: b :: rest when a.start + a.len = b.start ->
      coalesce ({ start = a.start; len = a.len + b.len } :: rest)
    | a :: rest -> a :: coalesce rest
    | [] -> []
  in
  t.holes <- coalesce (insert t.holes);
  t.used_frames <- t.used_frames - n_frames;
  (* Drop materialised contents so freed memory reads back as zero. *)
  for f = start to start + n_frames - 1 do
    Hashtbl.remove t.contents f
  done

let contains t pa = pa >= t.base && pa < t.base + t.size

let check_range t pa len =
  if len < 0 || not (contains t pa) || pa + len > t.base + t.size then
    invalid_arg
      (Printf.sprintf "Physmem: access %s+%d outside [%s,+%d)"
         (Addr.to_hex pa) len (Addr.to_hex t.base) t.size)

let frame_bytes t frame =
  match Hashtbl.find_opt t.contents frame with
  | Some b -> b
  | None ->
    let b = Bytes.make Addr.page_size '\000' in
    Hashtbl.add t.contents frame b;
    b

let write_bytes t pa src =
  let len = Bytes.length src in
  check_range t pa len;
  let rec go pa off remaining =
    if remaining > 0 then begin
      let frame = frame_of_pa t pa in
      let in_page = Addr.offset_in_page pa in
      let chunk = min remaining (Addr.page_size - in_page) in
      Bytes.blit src off (frame_bytes t frame) in_page chunk;
      go (pa + chunk) (off + chunk) (remaining - chunk)
    end
  in
  go pa 0 len

let read_bytes t pa len =
  check_range t pa len;
  let dst = Bytes.make len '\000' in
  let rec go pa off remaining =
    if remaining > 0 then begin
      let frame = frame_of_pa t pa in
      let in_page = Addr.offset_in_page pa in
      let chunk = min remaining (Addr.page_size - in_page) in
      (match Hashtbl.find_opt t.contents frame with
       | Some b -> Bytes.blit b in_page dst off chunk
       | None -> () (* zeros *));
      go (pa + chunk) (off + chunk) (remaining - chunk)
    end
  in
  go pa 0 len;
  dst

let write_sub t pa src ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Physmem.write_sub: bad slice";
  check_range t pa len;
  let rec go pa off remaining =
    if remaining > 0 then begin
      let frame = frame_of_pa t pa in
      let in_page = Addr.offset_in_page pa in
      let chunk = min remaining (Addr.page_size - in_page) in
      Bytes.blit src off (frame_bytes t frame) in_page chunk;
      go (pa + chunk) (off + chunk) (remaining - chunk)
    end
  in
  go pa off len

let read_into t pa dst ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length dst then
    invalid_arg "Physmem.read_into: bad slice";
  check_range t pa len;
  let rec go pa off remaining =
    if remaining > 0 then begin
      let frame = frame_of_pa t pa in
      let in_page = Addr.offset_in_page pa in
      let chunk = min remaining (Addr.page_size - in_page) in
      (match Hashtbl.find_opt t.contents frame with
       | Some b -> Bytes.blit b in_page dst off chunk
       | None -> Bytes.fill dst off chunk '\000');
      go (pa + chunk) (off + chunk) (remaining - chunk)
    end
  in
  go pa off len

let write_u8 t pa v =
  check_range t pa 1;
  Bytes.set_uint8 (frame_bytes t (frame_of_pa t pa)) (Addr.offset_in_page pa)
    (v land 0xff)

let read_u8 t pa =
  check_range t pa 1;
  match Hashtbl.find_opt t.contents (frame_of_pa t pa) with
  | Some b -> Bytes.get_uint8 b (Addr.offset_in_page pa)
  | None -> 0

let write_u32 t pa v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 v;
  write_bytes t pa b

let read_u32 t pa = Bytes.get_int32_le (read_bytes t pa 4) 0

let write_u64 t pa v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write_bytes t pa b

let read_u64 t pa = Bytes.get_int64_le (read_bytes t pa 8) 0

let resident_frames t = Hashtbl.length t.contents
