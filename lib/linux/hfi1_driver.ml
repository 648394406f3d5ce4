open Linux_import

type t = {
  sim : Sim.t;
  node : Node.t;
  hfi : Hfi.t;
  slab : Slab.t;
  gup : Gup.t;
  devdata_va : Addr.t;
  per_sdma_va : Addr.t;
  sdma_lock : Spinlock.t;
  tid_lock : Spinlock.t;
  (* Send-side pin cache, like the real driver's SDMA pinning cache:
     keyed by (pid, va, len), holding the pinned buffer's requests so a
     cached send rebuilds nothing. *)
  pin_cache : (int * Addr.t * int, Extent.t) Hashtbl.t;
  (* TID run -> pages pinned at TID_UPDATE time. *)
  tid_pins : (int, int * Addr.t array) Hashtbl.t;
  mutable writev_calls : int;
  mutable ioctl_calls : int;
  mutable opens : int;
  mutable irq_completions : int;
  mutable engine_halts : int;
  (* Open fault/recovery spans per engine: the "fault" span covers the
     whole halt window, the "recovery" span just the restart walk. *)
  halt_spans : (int, Span.h) Hashtbl.t;
  recovery_spans : (int, Span.h) Hashtbl.t;
}

let dev_name unit_no = Printf.sprintf "hfi1_%d" unit_no

(* Fixed work constants specific to driver internals (beyond the global
   cost model): measured-order-of-magnitude values. *)
let open_context_work = 25_000.

let mmap_work = 4_000.

let poll_work = 800.

let misc_ioctl_work = 600.

let request_build_per_page = 15.

let completion_per_tx = 400.

let sdma_txreq_bytes = 128

(* --- struct plumbing ------------------------------------------------- *)

let read_ptr t ~decl ~base_va field =
  Int64.to_int (Hfi1_structs.read_field_u64 t.node ~decl ~base_va field)

let context_of_file t (file : Vfs.file) =
  if file.Vfs.private_data = 0 then None
  else begin
    let fd_va = file.Vfs.private_data in
    let uctxt_va =
      read_ptr t ~decl:Hfi1_structs.hfi1_filedata ~base_va:fd_va "uctxt"
    in
    if uctxt_va = 0 then None
    else begin
      let ctxt_id =
        Int32.to_int
          (Hfi1_structs.read_field_u32 t.node ~decl:Hfi1_structs.hfi1_ctxtdata
             ~base_va:uctxt_va "ctxt")
      in
      Hfi.context t.hfi ctxt_id
    end
  end

(* --- file operations -------------------------------------------------- *)

let do_open t file (_caller : Vfs.caller) =
  t.opens <- t.opens + 1;
  Sim.delay t.sim open_context_work;
  let ctx = Hfi.open_context t.hfi in
  let ctxt_va = Slab.kmalloc t.slab (Hfi1_structs.struct_size Hfi1_structs.hfi1_ctxtdata) in
  let fd_va = Slab.kmalloc t.slab (Hfi1_structs.struct_size Hfi1_structs.hfi1_filedata) in
  Hfi1_structs.write_field_u32 t.node ~decl:Hfi1_structs.hfi1_ctxtdata
    ~base_va:ctxt_va "ctxt" (Int32.of_int (Hfi.ctx_id ctx));
  Hfi1_structs.write_field_u64 t.node ~decl:Hfi1_structs.hfi1_ctxtdata
    ~base_va:ctxt_va "dd" (Int64.of_int t.devdata_va);
  Hfi1_structs.write_field_u64 t.node ~decl:Hfi1_structs.hfi1_filedata
    ~base_va:fd_va "dd" (Int64.of_int t.devdata_va);
  Hfi1_structs.write_field_u64 t.node ~decl:Hfi1_structs.hfi1_filedata
    ~base_va:fd_va "uctxt" (Int64.of_int ctxt_va);
  file.Vfs.private_data <- fd_va

(* Pin a send buffer and build its SDMA requests from the pinned 4 kB
   pages: one request per page — the driver "utilizes only up to
   PAGE_SIZE long SDMA requests" even when neighbouring pages happen to
   be physically adjacent. *)
let requests_for t (caller : Vfs.caller) ~va ~len =
  let key = (caller.Vfs.pid, va, len) in
  match Hashtbl.find_opt t.pin_cache key with
  | Some reqs ->
    (* Cache hit: pay a lookup, not a walk. *)
    Sim.delay t.sim 60.;
    reqs
  | None ->
    let pages = Gup.get_user_pages t.gup ~pt:caller.Vfs.pt ~va ~len in
    let reqs = Extent.of_cut (Extent.Pages { pages; va; len }) in
    Hashtbl.add t.pin_cache key reqs;
    reqs

let do_writev t file (caller : Vfs.caller) (iovs : Vfs.iovec list) =
  t.writev_calls <- t.writev_calls + 1;
  match iovs with
  | [] -> 0
  | hdr_iov :: data_iovs ->
    (* Parse the user_sdma_request header from iovec[0]. *)
    Umem.charge_copy t.sim hdr_iov.Vfs.iov_len;
    let hdr_bytes =
      Umem.copy_from_user t.node ~pt:caller.Vfs.pt ~va:hdr_iov.Vfs.iov_base
        ~len:hdr_iov.Vfs.iov_len
    in
    let req = User_api.decode_sdma_req hdr_bytes in
    (* Context lookup: also selects the SDMA engine for this flow. *)
    let src_ctx =
      match context_of_file t file with
      | Some c -> Hfi.ctx_id c
      | None -> invalid_arg "hfi1: writev on file without open context"
    in
    (* Verify and pin the user buffers, then translate page-by-page. *)
    let all_reqs, total =
      List.fold_left
        (fun (acc, total) (iov : Vfs.iovec) ->
          let reqs =
            requests_for t caller ~va:iov.Vfs.iov_base ~len:iov.Vfs.iov_len
          in
          Sim.delay t.sim
            (float_of_int (Extent.count reqs) *. request_build_per_page);
          (Extent.append acc reqs, total + iov.Vfs.iov_len))
        (Extent.empty, 0) data_iovs
    in
    if Extent.count all_reqs = 0 then 0
    else begin
      (* Per-request metadata (sdma_txreq) with a completion callback that
         frees it from the IRQ handler. *)
      let meta_va = Slab.kmalloc t.slab sdma_txreq_bytes in
      Hfi1_structs.write_field_u64 t.node ~decl:Hfi1_structs.user_sdma_request
        ~base_va:meta_va "msg_id" (Int64.of_int req.User_api.msg_id);
      let on_complete () =
        (* Runs on a Linux CPU in IRQ context. *)
        Sim.delay t.sim completion_per_tx;
        Slab.kfree t.slab meta_va
      in
      let hdr = User_api.wire_header_of_req req ~frag_len:total in
      Spinlock.with_lock t.sdma_lock (fun () ->
          Hfi.sdma_submit t.hfi ~channel:src_ctx
            ~dst_node:req.User_api.dst_node
            ~dst_ctx:req.User_api.dst_ctx ~hdr ~reqs:all_reqs ~on_complete ());
      total
    end

let note_tid_pins t ~tid_base ~count pins =
  Hashtbl.replace t.tid_pins tid_base (count, pins)

let take_tid_pins t ~tid_base =
  match Hashtbl.find_opt t.tid_pins tid_base with
  | Some v -> Hashtbl.remove t.tid_pins tid_base; Some v
  | None -> None

let do_tid_update t file (caller : Vfs.caller) ~arg =
  Umem.charge_copy t.sim User_api.tid_update_bytes;
  let arg_bytes =
    Umem.copy_from_user t.node ~pt:caller.Vfs.pt ~va:arg
      ~len:User_api.tid_update_bytes
  in
  let tu = User_api.decode_tid_update arg_bytes in
  let ctx =
    match context_of_file t file with
    | Some c -> c
    | None -> invalid_arg "hfi1: TID_UPDATE without open context"
  in
  (* Pin the destination buffer and program one RcvArray entry per 4 kB
     page, written straight from the pinned pages. *)
  let pages =
    Gup.get_user_pages t.gup ~pt:caller.Vfs.pt ~va:tu.User_api.tu_va
      ~len:tu.User_api.tu_len
  in
  let cut =
    Extent.Pages { pages; va = tu.User_api.tu_va; len = tu.User_api.tu_len }
  in
  Spinlock.with_lock t.tid_lock (fun () ->
      match Rcvarray.program (Hfi.rcvarray ctx) cut with
      | Some tid_base ->
        let count = Extent.cut_count cut in
        note_tid_pins t ~tid_base ~count pages;
        tid_base lor (count lsl 16)
      | None ->
        Gup.put_pages t.gup pages;
        -1 (* -ENOSPC *))

let do_tid_free t file (caller : Vfs.caller) ~arg =
  Umem.charge_copy t.sim User_api.tid_free_bytes;
  let arg_bytes =
    Umem.copy_from_user t.node ~pt:caller.Vfs.pt ~va:arg
      ~len:User_api.tid_free_bytes
  in
  let tf = User_api.decode_tid_free arg_bytes in
  let ctx =
    match context_of_file t file with
    | Some c -> c
    | None -> invalid_arg "hfi1: TID_FREE without open context"
  in
  Spinlock.with_lock t.tid_lock (fun () ->
      Rcvarray.unprogram (Hfi.rcvarray ctx) ~tid_base:tf.User_api.tf_tid_base
        ~count:tf.User_api.tf_count;
      (match take_tid_pins t ~tid_base:tf.User_api.tf_tid_base with
       | Some (_count, pages) -> Gup.put_pages t.gup pages
       | None -> ());
      0)

let do_ioctl t file caller ~cmd ~arg =
  t.ioctl_calls <- t.ioctl_calls + 1;
  if cmd = User_api.ioctl_tid_update then do_tid_update t file caller ~arg
  else if cmd = User_api.ioctl_tid_free then do_tid_free t file caller ~arg
  else if List.mem cmd User_api.all_ioctls then begin
    (* The other dozen commands: cheap administrative work. *)
    Sim.delay t.sim misc_ioctl_work;
    0
  end
  else -22 (* -EINVAL *)

(* Each context's BAR window appears at a fixed per-context user VA
   (PSM hardcodes the layout the same way). *)
let dev_map_va ctx_id = 0x7ead_0000_0000 + (ctx_id * Hfi.bar_ctx_window)

let do_mmap t file (caller : Vfs.caller) ~len =
  Sim.delay t.sim mmap_work;
  let ctx =
    match context_of_file t file with
    | Some c -> c
    | None -> invalid_arg "hfi1: mmap without open context"
  in
  let ctx_id = Hfi.ctx_id ctx in
  let len =
    Addr.align_up (max Addr.page_size (min len Hfi.bar_ctx_window))
      Addr.page_size
  in
  let va = dev_map_va ctx_id in
  let pa = Hfi.bar_pa t.hfi + (ctx_id * Hfi.bar_ctx_window) in
  (match Pagetable.translate caller.Vfs.pt va with
   | Some _ -> () (* already mapped (PSM maps several regions lazily) *)
   | None ->
     Pagetable.map_range caller.Vfs.pt ~va ~pa ~len ~page_size:Addr.page_size
       ~flags:Pagetable.Flags.(present + writable + user + global));
  va

let do_poll t _file _caller =
  Sim.delay t.sim poll_work;
  1

let do_release t file _caller =
  if file.Vfs.private_data <> 0 then begin
    let fd_va = file.Vfs.private_data in
    let uctxt_va =
      read_ptr t ~decl:Hfi1_structs.hfi1_filedata ~base_va:fd_va "uctxt"
    in
    (match
       (if uctxt_va = 0 then None
        else begin
          let id =
            Int32.to_int
              (Hfi1_structs.read_field_u32 t.node
                 ~decl:Hfi1_structs.hfi1_ctxtdata ~base_va:uctxt_va "ctxt")
          in
          Hfi.context t.hfi id
        end)
     with
     | Some ctx -> Hfi.close_context t.hfi ctx
     | None -> ());
    if uctxt_va <> 0 then Slab.kfree t.slab uctxt_va;
    Slab.kfree t.slab fd_va;
    file.Vfs.private_data <- 0
  end

(* --- SDMA halt / recovery (Listing 1 in motion) ------------------------

   The real hfi1 driver halts an engine on error (or freeze) and walks
   the __sdma_process_event state machine back to running.  We model the
   externally visible part of that walk through the exact sdma_state
   fields the PicoDriver extracts via DWARF: current_state leaves
   s99_running, go_s99_running drops to 0, previous_state remembers where
   the engine came from, and recovery restores all three.  The PicoDriver
   reads these fields (Struct_access only) before every fast-path submit,
   so the walk is what makes its degrade-to-offload behaviour real. *)

let sdma_state_enum name =
  Int32.of_int (List.assoc name Hfi1_structs.sdma_states_enumerators)

let engine_state_va t ~engine_idx =
  let engine_size = Hfi1_structs.struct_size Hfi1_structs.sdma_engine in
  let state_off = Hfi1_structs.field_offset Hfi1_structs.sdma_engine "state" in
  t.per_sdma_va + (engine_idx * engine_size) + state_off

let write_state t ~engine_idx field v =
  Hfi1_structs.write_field_u32 t.node ~decl:Hfi1_structs.sdma_state
    ~base_va:(engine_state_va t ~engine_idx) field v

let read_state t ~engine_idx field =
  Hfi1_structs.read_field_u32 t.node ~decl:Hfi1_structs.sdma_state
    ~base_va:(engine_state_va t ~engine_idx) field

let step_state t ~engine_idx next =
  write_state t ~engine_idx "previous_state"
    (read_state t ~engine_idx "current_state");
  write_state t ~engine_idx "current_state" next

let halt_engine t ~engine_idx =
  if not (Sdma.engine_halted (Hfi.sdma t.hfi) ~engine:engine_idx) then begin
    t.engine_halts <- t.engine_halts + 1;
    (* A halted engine cannot honour a batched train's closed-form
       schedule: rewind any in-flight train to the per-packet path first
       (elide events, never costs — the batching invariant under faults). *)
    Hfi.abort_train t.hfi;
    step_state t ~engine_idx (sdma_state_enum "sdma_state_s50_hw_halt_wait");
    write_state t ~engine_idx "go_s99_running" 0l;
    Sdma.halt (Hfi.sdma t.hfi) ~engine:engine_idx;
    Hashtbl.replace t.halt_spans engine_idx
      (Span.begin_ t.sim ~cat:"fault" ~name:"sdma_halt")
  end

let begin_engine_recovery t ~engine_idx =
  if Sdma.engine_halted (Hfi.sdma t.hfi) ~engine:engine_idx then begin
    step_state t ~engine_idx
      (sdma_state_enum "sdma_state_s30_sw_clean_up_wait");
    Hashtbl.replace t.recovery_spans engine_idx
      (Span.begin_ t.sim ~cat:"recovery" ~name:"sdma_restart")
  end

let recover_engine t ~engine_idx =
  if Sdma.engine_halted (Hfi.sdma t.hfi) ~engine:engine_idx then begin
    step_state t ~engine_idx (sdma_state_enum "sdma_state_s99_running");
    write_state t ~engine_idx "go_s99_running" 1l;
    Sdma.recover (Hfi.sdma t.hfi) ~engine:engine_idx;
    let close spans =
      match Hashtbl.find_opt spans engine_idx with
      | None -> ()
      | Some sp ->
        Hashtbl.remove spans engine_idx;
        Span.end_with t.sim sp (fun () ->
            [ ("engine", string_of_int engine_idx) ])
    in
    close t.recovery_spans;
    close t.halt_spans
  end

(* --- probe ------------------------------------------------------------ *)

let irq_handler t () =
  Sim.delay t.sim 300.;
  let cbs = Hfi.drain_completions t.hfi in
  List.iter
    (fun cb ->
      t.irq_completions <- t.irq_completions + 1;
      cb ())
    cbs

let probe sim ~node ~hfi ~slab ~gup ~vfs =
  let devdata_va =
    Slab.kmalloc slab (Hfi1_structs.struct_size Hfi1_structs.hfi1_devdata)
  in
  let n_engines = (Costs.current ()).sdma_engines in
  let engine_size = Hfi1_structs.struct_size Hfi1_structs.sdma_engine in
  let per_sdma_va = Slab.kmalloc slab (n_engines * engine_size) in
  let t =
    { sim; node; hfi; slab; gup; devdata_va; per_sdma_va;
      sdma_lock = Spinlock.create sim ~name:"hfi1-sdma";
      tid_lock = Spinlock.create sim ~name:"hfi1-tid";
      pin_cache = Hashtbl.create 256;
      tid_pins = Hashtbl.create 64;
      writev_calls = 0; ioctl_calls = 0; opens = 0; irq_completions = 0;
      engine_halts = 0;
      halt_spans = Hashtbl.create 4; recovery_spans = Hashtbl.create 4 }
  in
  (* Populate hfi1_devdata. *)
  Hfi1_structs.write_field_u32 node ~decl:Hfi1_structs.hfi1_devdata
    ~base_va:devdata_va "unit" (Int32.of_int (Hfi.node_id hfi));
  Hfi1_structs.write_field_u32 node ~decl:Hfi1_structs.hfi1_devdata
    ~base_va:devdata_va "num_sdma" (Int32.of_int n_engines);
  Hfi1_structs.write_field_u64 node ~decl:Hfi1_structs.hfi1_devdata
    ~base_va:devdata_va "per_sdma" (Int64.of_int per_sdma_va);
  (* Initialise each sdma_engine's embedded sdma_state (Listing 1
     fields). *)
  let state_off = Hfi1_structs.field_offset Hfi1_structs.sdma_engine "state" in
  let s_running =
    Int32.of_int
      (List.assoc "sdma_state_s99_running" Hfi1_structs.sdma_states_enumerators)
  in
  for i = 0 to n_engines - 1 do
    let eng_va = per_sdma_va + (i * engine_size) in
    Hfi1_structs.write_field_u32 node ~decl:Hfi1_structs.sdma_engine
      ~base_va:eng_va "this_idx" (Int32.of_int i);
    Hfi1_structs.write_field_u32 node ~decl:Hfi1_structs.sdma_state
      ~base_va:(eng_va + state_off) "current_state" s_running;
    Hfi1_structs.write_field_u32 node ~decl:Hfi1_structs.sdma_state
      ~base_va:(eng_va + state_off) "go_s99_running" 1l
  done;
  Irq.register node.Node.irq ~vector:Hfi.sdma_irq_vector ~name:"hfi1-sdma"
    (irq_handler t);
  Vfs.register_device vfs ~name:(dev_name (Hfi.node_id hfi))
    ~ops:
      { Vfs.default_ops with
        fop_open = do_open t;
        fop_writev = do_writev t;
        fop_ioctl = do_ioctl t;
        fop_mmap = do_mmap t;
        fop_poll = do_poll t;
        fop_release = do_release t };
  t

let devdata_va t = t.devdata_va

let per_sdma_va t = t.per_sdma_va

let sdma_lock t = t.sdma_lock

let tid_lock t = t.tid_lock

let hfi t = t.hfi

let slab t = t.slab

let gup t = t.gup

let writev_calls t = t.writev_calls

let ioctl_calls t = t.ioctl_calls

let opens t = t.opens

let irq_completions t = t.irq_completions

let engine_halts t = t.engine_halts
