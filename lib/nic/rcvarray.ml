open Nic_import

type t = {
  sim : Sim.t;
  capacity : int;
  (* Entries of TIDs [0, Extent.count slots); a zero length marks a free
     slot, and every TID past the table is free.  The table grows (at
     least doubling) only when a run lands beyond it, so a context holds
     memory for the TIDs it has used, not for the whole array. *)
  mutable slots : Extent.t;
  (* Every TID below [low] is programmed, so first-fit starts there. *)
  mutable low : int;
  mutable in_use : int;
  mutable programmed_total : int;
}

(* Device-register write per entry: cheaper than a full MMIO doorbell
   because entries are written through the mapped RcvArray region. *)
let per_entry_write = 15.

let create sim ~n_entries =
  if n_entries <= 0 then invalid_arg "Rcvarray.create: n_entries must be > 0";
  { sim; capacity = n_entries; slots = Extent.empty; low = 0; in_use = 0;
    programmed_total = 0 }

let capacity t = t.capacity

let in_use t = t.in_use

(* Length of TID [i]'s entry, 0 when free; [i] must be in the table.  Read
   in place: the scans below run once per slot. *)
let len_at t i = (t.slots :> int array).((2 * i) + 1)

let programmed t ~table i = i < table && len_at t i > 0

(* The first run of [n] free TIDs.  The scan starts at [low]: a scan
   from TID 0 would pass only programmed TIDs before it. *)
let find_free_run t n =
  let table = Extent.count t.slots in
  let rec scan start run i =
    if i >= table then if start + n <= t.capacity then Some start else None
    else if len_at t i > 0 then scan (i + 1) 0 (i + 1)
    else if run + 1 = n then Some start
    else scan start (run + 1) (i + 1)
  in
  scan t.low 0 t.low

let grow t size =
  let table = Extent.count t.slots in
  let slots = Extent.create (Int.min t.capacity (Int.max size (2 * table))) in
  Extent.write (Extent.Extents t.slots) slots ~pos:0;
  t.slots <- slots

let program t cut =
  let n = Extent.cut_count cut in
  if n = 0 then invalid_arg "Rcvarray.program: empty entry list";
  (* A zero length would read as a free slot.  Pages and Chop cuts never
     yield one; given extents are checked before anything moves. *)
  (match cut with
   | Extent.Extents e ->
     for i = 0 to n - 1 do
       if Extent.len e i <= 0 then invalid_arg "Rcvarray.program: empty entry"
     done
   | Extent.Pages _ | Extent.Chop _ -> ());
  match find_free_run t n with
  | None -> None
  | Some base ->
    if base + n > Extent.count t.slots then grow t (base + n);
    Extent.write cut t.slots ~pos:base;
    if base = t.low then t.low <- base + n;
    t.in_use <- t.in_use + n;
    t.programmed_total <- t.programmed_total + n;
    if Sim.in_process t.sim then
      Sim.delay t.sim (float_of_int n *. per_entry_write);
    Some base

let unprogram t ~tid_base ~count =
  if tid_base < 0 || tid_base + count > t.capacity then
    invalid_arg "Rcvarray.unprogram: range out of bounds";
  (* The whole run is checked before any slot is freed: a bad TID_FREE
     from user space raises with no slot or counter moved. *)
  let table = Extent.count t.slots in
  for i = tid_base to tid_base + count - 1 do
    if not (programmed t ~table i) then
      invalid_arg "Rcvarray.unprogram: entry not programmed"
  done;
  let slots = (t.slots :> int array) in
  for i = tid_base to tid_base + count - 1 do
    slots.((2 * i) + 1) <- 0
  done;
  if count > 0 then t.low <- Int.min t.low tid_base;
  (* A non-positive count (user space may pass one) frees nothing. *)
  t.in_use <- t.in_use - Int.max count 0;
  if Sim.in_process t.sim then
    Sim.delay t.sim (float_of_int count *. per_entry_write)

let lookup t ~tid =
  if tid < 0 || not (programmed t ~table:(Extent.count t.slots) tid) then None
  else Some (Extent.pa t.slots tid, Extent.len t.slots tid)

let entries_of_run t ~tid_base =
  let table = Extent.count t.slots in
  let rec stop i = if programmed t ~table i then stop (i + 1) else i in
  match stop tid_base - tid_base with
  | 0 -> Extent.empty
  | n -> Extent.sub t.slots ~pos:tid_base ~n

let programmed_total t = t.programmed_total
