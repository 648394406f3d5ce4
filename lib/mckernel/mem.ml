open Mck_import

type mapping = {
  va : Addr.t;
  len : int;
  page_size : int;
  contiguous : bool;
}

type chunk = { pa : Addr.t; frames : int }

type t = {
  sim : Sim.t;
  node : Node.t;
  vs : Vspace.t;
  lwk_cores : int;
  (* Backing store of each anonymous mapping, for unmap. *)
  backing : (Addr.t, chunk list) Hashtbl.t;
  (* Per-core kernel object free lists: size class -> VAs. *)
  core_slabs : (int, Addr.t list) Hashtbl.t array;
  objects : (Addr.t, int) Hashtbl.t;
  remote_free : Addr.t Queue.t;
  mutable remote_frees : int;
  mutable live : int;
  mutable anon_bytes : int;
  mutable anon_large_bytes : int;
}

let create sim ~node ~vspace ~lwk_cores =
  if lwk_cores <= 0 then invalid_arg "Mem.create: lwk_cores must be > 0";
  { sim; node; vs = vspace; lwk_cores;
    backing = Hashtbl.create 64;
    core_slabs = Array.init lwk_cores (fun _ -> Hashtbl.create 8);
    objects = Hashtbl.create 256;
    remote_free = Queue.create ();
    remote_frees = 0;
    live = 0; anon_bytes = 0; anon_large_bytes = 0 }

let vspace t = t.vs

let charge t cost = if Sim.in_process t.sim then Sim.delay t.sim cost

(* --- anonymous mappings ------------------------------------------------ *)

let lwk_flags =
  Pagetable.Flags.(present + writable + user + pinned)

(* Try hard for one contiguous run; degrade to progressively smaller
   chunks. *)
let alloc_chunks t total_frames ~align =
  let rec go remaining want acc =
    if remaining = 0 then Some (List.rev acc)
    else begin
      let want = min want remaining in
      match Node.alloc_frames t.node ~pref:Numa.Mcdram ~align want with
      | Some pa -> go (remaining - want) want ({ pa; frames = want } :: acc)
      | None ->
        if want = 1 then begin
          (* Out of memory: roll back. *)
          List.iter (fun c -> Node.free_frames t.node c.pa c.frames) acc;
          None
        end
        else go remaining (max 1 (want / 2)) acc
    end
  in
  go total_frames total_frames []

let large_frames = Addr.large_page_size / Addr.page_size

let map_chunk ~pt ~va (c : chunk) =
  (* Use 2 MB translations wherever chunk alignment and size allow. *)
  let rec go va pa frames large_bytes =
    if frames = 0 then large_bytes
    else if
      frames >= large_frames
      && Addr.is_aligned va Addr.large_page_size
      && Addr.is_aligned pa Addr.large_page_size
    then begin
      Pagetable.map pt ~va ~pa ~page_size:Addr.large_page_size ~flags:lwk_flags;
      go (va + Addr.large_page_size) (pa + Addr.large_page_size)
        (frames - large_frames) (large_bytes + Addr.large_page_size)
    end
    else begin
      Pagetable.map pt ~va ~pa ~page_size:Addr.page_size ~flags:lwk_flags;
      go (va + Addr.page_size) (pa + Addr.page_size) (frames - 1) large_bytes
    end
  in
  go va c.pa c.frames 0

let map_anon t ~pt ~cursor ~len =
  if len <= 0 then invalid_arg "Mem.map_anon: len must be > 0";
  (* Round big requests to the large page size so 2 MB mappings apply. *)
  let rounded =
    if len >= Addr.large_page_size then Addr.align_up len Addr.large_page_size
    else Addr.align_up len Addr.page_size
  in
  let frames = rounded / Addr.page_size in
  let align =
    if rounded >= Addr.large_page_size then Addr.large_page_size
    else Addr.page_size
  in
  match alloc_chunks t frames ~align with
  | None -> raise Out_of_memory
  | Some chunks ->
    let va = Addr.align_up !cursor align in
    cursor := va + rounded + Addr.large_page_size;
    let large_bytes =
      List.fold_left
        (fun (off, lb) c ->
          let lb' = map_chunk ~pt ~va:(va + off) c in
          (off + (c.frames * Addr.page_size), lb + lb'))
        (0, 0) chunks
      |> snd
    in
    Hashtbl.add t.backing va chunks;
    t.anon_bytes <- t.anon_bytes + rounded;
    t.anon_large_bytes <- t.anon_large_bytes + large_bytes;
    charge t 800. (* mapping setup *);
    { va; len = rounded;
      page_size =
        (if large_bytes = rounded then Addr.large_page_size else Addr.page_size);
      contiguous = List.length chunks = 1 }

(* McKernel's munmap is expensive: page-table teardown, per-page free
   list handling, and a TLB shootdown broadcast to every LWK core (the
   co-operative kernel cannot batch or defer it).  The paper's profiling
   shows munmap dominating the remaining kernel cost under PicoDriver
   (QBOX, Fig. 9) and calls fixing it future work. *)
let unmap_fixed = 25_000.

let unmap_per_page = 150.

let unmap t ~pt (m : mapping) =
  match Hashtbl.find_opt t.backing m.va with
  | None -> invalid_arg "Mem.unmap: unknown mapping"
  | Some chunks ->
    let rec go va remaining pages =
      if remaining > 0 then begin
        let leaf = Pagetable.unmap pt ~va in
        go
          (va + leaf.Pagetable.page_size)
          (remaining - leaf.Pagetable.page_size)
          (pages + 1)
      end
      else pages
    in
    let pages = go m.va m.len 0 in
    List.iter (fun c -> Node.free_frames t.node c.pa c.frames) chunks;
    Hashtbl.remove t.backing m.va;
    charge t (unmap_fixed +. (float_of_int pages *. unmap_per_page))

let large_page_fraction t =
  if t.anon_bytes = 0 then 0.
  else float_of_int t.anon_large_bytes /. float_of_int t.anon_bytes

(* --- kernel objects ---------------------------------------------------- *)

let class_of size =
  let rec go c = if c >= size then c else go (c * 2) in
  go 32

let kalloc t ~core size =
  if core < 0 || core >= t.lwk_cores then
    invalid_arg "Mem.kalloc: bad core index";
  charge t ((Costs.current ()).kmalloc /. 2.) (* per-core lists: cheaper *);
  let cls = class_of size in
  let slab = t.core_slabs.(core) in
  let free = Option.value ~default:[] (Hashtbl.find_opt slab cls) in
  match free with
  | va :: rest ->
    Hashtbl.replace slab cls rest;
    Hashtbl.replace t.objects va cls;
    t.live <- t.live + 1;
    va
  | [] ->
    let bytes = max cls Addr.page_size in
    (match Node.alloc_frames t.node ~pref:Numa.Mcdram (bytes / Addr.page_size) with
     | None -> raise Out_of_memory
     | Some pa ->
       let base = Vspace.va_of_pa t.vs pa in
       let objs = max 1 (bytes / cls) in
       let extra = List.init (objs - 1) (fun i -> base + ((i + 1) * cls)) in
       Hashtbl.replace slab cls
         (extra @ Option.value ~default:[] (Hashtbl.find_opt slab cls));
       Hashtbl.replace t.objects base cls;
       t.live <- t.live + 1;
       base)

let kfree t ~core va =
  if core < 0 || core >= t.lwk_cores then
    invalid_arg
      (Printf.sprintf
         "Mem.kfree: core %d is not an LWK core (Linux CPUs must use \
          kfree_remote)" core);
  charge t (Costs.current ()).kfree;
  match Hashtbl.find_opt t.objects va with
  | None -> invalid_arg "Mem.kfree: not a live object"
  | Some cls ->
    Hashtbl.remove t.objects va;
    t.live <- t.live - 1;
    let slab = t.core_slabs.(core) in
    Hashtbl.replace slab cls
      (va :: Option.value ~default:[] (Hashtbl.find_opt slab cls))

let kfree_remote t va =
  charge t (Costs.current ()).kfree_remote;
  match Hashtbl.find_opt t.objects va with
  | None -> invalid_arg "Mem.kfree_remote: not a live object"
  | Some _ ->
    t.remote_frees <- t.remote_frees + 1;
    Queue.add va t.remote_free

let drain_remote_frees t ~core =
  if core < 0 || core >= t.lwk_cores then
    invalid_arg "Mem.drain_remote_frees: bad core index";
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match Queue.take_opt t.remote_free with
    | None -> continue := false
    | Some va ->
      (match Hashtbl.find_opt t.objects va with
       | None -> () (* already recycled *)
       | Some cls ->
         Hashtbl.remove t.objects va;
         t.live <- t.live - 1;
         let slab = t.core_slabs.(core) in
         Hashtbl.replace slab cls
           (va :: Option.value ~default:[] (Hashtbl.find_opt slab cls)));
      incr n
  done;
  !n

let live_objects t = t.live

let remote_queue_length t = Queue.length t.remote_free

let remote_frees t = t.remote_frees
