open Pd_import

type accessors = {
  filedata : Struct_access.t;
  ctxtdata : Struct_access.t;
  devdata : Struct_access.t;
  sdma_state : Struct_access.t;
}

type t = {
  mck : Mck.t;
  linux_driver : Hfi1_driver.t;
  acc : accessors;
  (* The numeric value of sdma_states::sdma_state_s99_running, recovered
     from the module binary's DW_TAG_enumerator entries. *)
  s99_running : int32;
  (* devdata.num_sdma, read through DWARF extraction at attach time: the
     engine-selector modulus, like the Linux driver's own. *)
  num_sdma : int;
  mutable install : Framework.installed option;
  sdma_state_header : string;
  mutable writev_fallback : int;
  mutable writev_fast : int;
  mutable ioctl_fast : int;
  mutable big_requests : int;
  mutable pt_segments : int;
}

let installed t =
  match t.install with
  | Some i -> i
  | None -> invalid_arg "Hfi1_pico: not installed"

let sdma_state_header t = t.sdma_state_header

let writev_fast t = t.writev_fast

let writev_fallback t = t.writev_fallback

let ioctl_fast t = t.ioctl_fast

let big_requests t = t.big_requests

let pt_segments t = t.pt_segments

let ported_ops _ = [ "writev"; "ioctl:TID_UPDATE"; "ioctl:TID_FREE" ]

(* --- context discovery through DWARF-extracted offsets ----------------- *)

let context_of_file t (file : Vfs.file) =
  let node = Mck.node t.mck in
  let vs = Mck.vspace t.mck in
  if file.Vfs.private_data = 0 then None
  else begin
    let fd_va = file.Vfs.private_data in
    let uctxt_va =
      Struct_access.read_ptr t.acc.filedata ~node ~vs ~base_va:fd_va "uctxt"
    in
    if uctxt_va = 0 then None
    else begin
      let ctxt_id =
        Int32.to_int
          (Struct_access.read_u32 t.acc.ctxtdata ~node ~vs ~base_va:uctxt_va
             "ctxt")
      in
      Hfi.context (Hfi1_driver.hfi t.linux_driver) ctxt_id
    end
  end

let engine_running t ~engine_idx =
  (* Consult the Linux driver's sdma_state for this engine — the Listing 1
     fields — before submitting.  The expected value of [current_state]
     comes from the binary's own enumerators, not from any header. *)
  let node = Mck.node t.mck in
  let vs = Mck.vspace t.mck in
  let per_sdma = Hfi1_driver.per_sdma_va t.linux_driver in
  let engine_size = Hfi1_structs.struct_size Hfi1_structs.sdma_engine in
  let state_off = Hfi1_structs.field_offset Hfi1_structs.sdma_engine "state" in
  let base_va = per_sdma + (engine_idx * engine_size) + state_off in
  let current =
    Struct_access.read_u32 t.acc.sdma_state ~node ~vs ~base_va "current_state"
  in
  let go =
    Struct_access.read_u32 t.acc.sdma_state ~node ~vs ~base_va
      "go_s99_running"
  in
  current = t.s99_running && go = 1l

(* --- fast-path SDMA send ----------------------------------------------- *)

(* Chop physically contiguous segments at the hardware maximum.  Unlike
   the Linux driver, a request may span page boundaries and large pages.
   Every segment is checked before any request is counted, so a rejected
   buffer moves no counter. *)
let requests_of_segments t segs =
  List.iter
    (fun (_, _, flags) ->
      if not (Pagetable.Flags.has flags Pagetable.Flags.pinned) then
        invalid_arg
          "hfi1-pico: SDMA from non-pinned mapping (LWK policy violated)")
    segs;
  let reqs =
    Extent.of_cut
      (Extent.Chop { cap = (Costs.current ()).sdma_max_request; segs })
  in
  for i = 0 to Extent.count reqs - 1 do
    if Extent.len reqs i > Addr.page_size then
      t.big_requests <- t.big_requests + 1
  done;
  reqs

let walk_cost segs =
  (* One table walk per leaf entry visited: with 2 MB pages this is
     hundreds of times cheaper than per-4 kB-page get_user_pages. *)
  float_of_int (List.length segs) *. (Costs.current ()).ptwalk_per_page

let fast_writev t (p : Mck.pctx) (file : Vfs.file) (iovs : Vfs.iovec list) =
  t.writev_fast <- t.writev_fast + 1;
  match iovs with
  | [] -> 0
  | hdr_iov :: data_iovs ->
    let sim = Mck.sim t.mck in
    let hdr_bytes =
      Proc.read p.Mck.proc hdr_iov.Vfs.iov_base hdr_iov.Vfs.iov_len
    in
    let req = User_api.decode_sdma_req hdr_bytes in
    let src_ctx =
      match context_of_file t file with
      | Some c -> Hfi.ctx_id c
      | None ->
        invalid_arg "hfi1-pico: writev on file without open context"
    in
    (* This flow's engine (same per-flow selector as submission).  If the
       Linux driver has walked it out of s99_running — observed purely
       through the DWARF-extracted sdma_state fields — degrade to the
       syscall-offload slow path; the check is per submit, so the fast
       path resumes by itself once recovery restores the state. *)
    if not (engine_running t ~engine_idx:(src_ctx mod t.num_sdma)) then begin
      (* Not served locally after all: keep writev_fast = calls served. *)
      t.writev_fast <- t.writev_fast - 1;
      t.writev_fallback <- t.writev_fallback + 1;
      raise Mck.Fastpath_unavailable
    end;
    (* Fast-path analogue of the Linux-side gup/get_user_pages ledger:
       the PicoDriver translates through the page table itself. *)
    let lg = Ledger.begin_ sim ~op:"translate/pt_walk" in
    let all_reqs, total =
      List.fold_left
        (fun (acc, total) (iov : Vfs.iovec) ->
          let segs =
            Pagetable.phys_segments p.Mck.proc.Proc.pt ~va:iov.Vfs.iov_base
              ~len:iov.Vfs.iov_len
          in
          t.pt_segments <- t.pt_segments + List.length segs;
          Sim.delay sim (walk_cost segs);
          (Extent.append acc (requests_of_segments t segs),
           total + iov.Vfs.iov_len))
        (Extent.empty, 0) data_iovs
    in
    Ledger.close sim lg ~phase:"walk";
    if Extent.count all_reqs = 0 then 0
    else begin
      (* Metadata from McKernel's per-core allocator; the duplicated
         callback frees it with the remote-safe kfree since SDMA
         completions run on Linux CPUs. *)
      let mem = Mck.mem t.mck in
      let core = p.Mck.thread.Pico_mck.Sched.core in
      let meta = Mem.kalloc mem ~core 128 in
      let inst = installed t in
      let cb_ptr =
        Callbacks.register ~once:true inst.Framework.callbacks
          ~name:"pico-sdma-complete"
          (fun () -> Mem.kfree_remote mem meta)
      in
      let on_complete () =
        Sim.delay sim 200.;
        Callbacks.invoke inst.Framework.callbacks ~from_linux:true cb_ptr
      in
      let hdr = User_api.wire_header_of_req req ~frag_len:total in
      (* Same lock as the Linux driver: correct cross-kernel mutual
         exclusion on the engine rings. *)
      Spinlock.with_lock (Hfi1_driver.sdma_lock t.linux_driver) (fun () ->
          Hfi.sdma_submit
            (Hfi1_driver.hfi t.linux_driver)
            ~channel:src_ctx ~dst_node:req.User_api.dst_node
            ~dst_ctx:req.User_api.dst_ctx ~hdr
            ~reqs:all_reqs ~on_complete ());
      total
    end

(* --- fast-path expected-receive registration --------------------------- *)

(* One RcvArray entry per contiguous physical run (up to 2 MB), instead of
   one per 4 kB page. *)
let entry_max = Addr.large_page_size

let fast_tid_update t (p : Mck.pctx) (file : Vfs.file) ~arg =
  t.ioctl_fast <- t.ioctl_fast + 1;
  let sim = Mck.sim t.mck in
  let arg_bytes = Proc.read p.Mck.proc arg User_api.tid_update_bytes in
  let tu = User_api.decode_tid_update arg_bytes in
  let ctx =
    match context_of_file t file with
    | Some c -> c
    | None -> invalid_arg "hfi1-pico: TID_UPDATE without open context"
  in
  let segs =
    Pagetable.phys_segments p.Mck.proc.Proc.pt ~va:tu.User_api.tu_va
      ~len:tu.User_api.tu_len
  in
  t.pt_segments <- t.pt_segments + List.length segs;
  let lg = Ledger.begin_ sim ~op:"translate/pt_walk" in
  Sim.delay sim (walk_cost segs);
  Ledger.close sim lg ~phase:"walk";
  let cut = Extent.Chop { cap = entry_max; segs } in
  Spinlock.with_lock (Hfi1_driver.tid_lock t.linux_driver) (fun () ->
      match Rcvarray.program (Hfi.rcvarray ctx) cut with
      | Some tid_base -> tid_base lor (Extent.cut_count cut lsl 16)
      | None -> -1)

let fast_tid_free t (p : Mck.pctx) (file : Vfs.file) ~arg =
  t.ioctl_fast <- t.ioctl_fast + 1;
  let arg_bytes = Proc.read p.Mck.proc arg User_api.tid_free_bytes in
  let tf = User_api.decode_tid_free arg_bytes in
  let ctx =
    match context_of_file t file with
    | Some c -> c
    | None -> invalid_arg "hfi1-pico: TID_FREE without open context"
  in
  Spinlock.with_lock (Hfi1_driver.tid_lock t.linux_driver) (fun () ->
      Rcvarray.unprogram (Hfi.rcvarray ctx) ~tid_base:tf.User_api.tf_tid_base
        ~count:tf.User_api.tf_count;
      (* If this run was registered by the Linux driver, release its
         pins. *)
      (match
         Hfi1_driver.take_tid_pins t.linux_driver
           ~tid_base:tf.User_api.tf_tid_base
       with
       | Some (_count, pages) ->
         Pico_linux.Gup.put_pages (Hfi1_driver.gup t.linux_driver) pages
       | None -> ());
      0)

(* --- attach ------------------------------------------------------------ *)

let load_accessors parsed =
  let ( let* ) = Result.bind in
  let* filedata =
    Struct_access.load_parsed parsed ~struct_name:"hfi1_filedata"
      ~fields:[ "dd"; "uctxt" ]
  in
  let* ctxtdata =
    Struct_access.load_parsed parsed ~struct_name:"hfi1_ctxtdata"
      ~fields:[ "ctxt"; "dd" ]
  in
  let* devdata =
    Struct_access.load_parsed parsed ~struct_name:"hfi1_devdata"
      ~fields:[ "unit"; "num_sdma"; "per_sdma" ]
  in
  let* sdma_state =
    Struct_access.load_parsed parsed ~struct_name:"sdma_state"
      ~fields:[ "current_state"; "go_s99_running"; "previous_state" ]
  in
  Ok { filedata; ctxtdata; devdata; sdma_state }

let attach mck ~linux_driver ~module_sections =
  (* One parse of the module's DWARF serves every accessor and the
     enumerator lookup. *)
  let parsed = Encode.parse module_sections in
  match load_accessors parsed with
  | Error e -> Error ("hfi1-pico: DWARF extraction failed: " ^ e)
  | Ok acc ->
    let s99_running =
      Extract.enum_value parsed ~enum:"sdma_states"
        ~enumerator:"sdma_state_s99_running"
    in
    (* Sanity: the devdata we will dereference matches this device. *)
    let node = Mck.node mck in
    let vs = Mck.vspace mck in
    (try Unified_vspace.require vs with
     | Unified_vspace.Layout_unsuitable _ as e -> raise e);
    let unit_no =
      Int32.to_int
        (Struct_access.read_u32 acc.devdata ~node ~vs
           ~base_va:(Hfi1_driver.devdata_va linux_driver) "unit")
    in
    if unit_no <> Hfi.node_id (Hfi1_driver.hfi linux_driver) then
      Error
        (Printf.sprintf
           "hfi1-pico: devdata.unit=%d does not match device %d" unit_no
           (Hfi.node_id (Hfi1_driver.hfi linux_driver)))
    else if s99_running = None then
      Error
        "hfi1-pico: sdma_states::sdma_state_s99_running missing from the \
         module's debug info"
    else begin
      let s99_running = Int32.of_int (Option.get s99_running) in
      let num_sdma =
        Int32.to_int
          (Struct_access.read_u32 acc.devdata ~node ~vs
             ~base_va:(Hfi1_driver.devdata_va linux_driver) "num_sdma")
      in
      if num_sdma <= 0 then
        invalid_arg "hfi1-pico: devdata.num_sdma must be positive";
      let t =
        { mck; linux_driver; acc; s99_running; num_sdma; install = None;
          sdma_state_header = Struct_access.c_header acc.sdma_state;
          writev_fallback = 0;
          writev_fast = 0; ioctl_fast = 0; big_requests = 0;
          pt_segments = 0 }
      in
      let dev = Hfi1_driver.dev_name unit_no in
      let inst =
        Framework.install mck
          { Framework.pd_name = "hfi1-picodriver";
            pd_dev = dev;
            pd_writev = Some (fast_writev t);
            pd_ioctls =
              [ (User_api.ioctl_tid_update, fast_tid_update t);
                (User_api.ioctl_tid_free, fast_tid_free t) ] }
      in
      t.install <- Some inst;
      Ok t
    end
