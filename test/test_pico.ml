(* Tests for the PicoDriver framework and the HFI1 fast path: address
   space verification, DWARF-driven struct access, cross-kernel callbacks
   and the ported writev/ioctl implementations. *)

module Sim = Pico_engine.Sim
module Rng = Pico_engine.Rng
module Stats = Pico_engine.Stats
module Node = Pico_hw.Node
module Addr = Pico_hw.Addr
module Pagetable = Pico_hw.Pagetable
module Fabric = Pico_nic.Fabric
module Hfi = Pico_nic.Hfi
module Sdma = Pico_nic.Sdma
module Rcvarray = Pico_nic.Rcvarray
module User_api = Pico_nic.User_api
module Lkernel = Pico_linux.Kernel
module Llayout = Pico_linux.Layout
module Vfs = Pico_linux.Vfs
module Uproc = Pico_linux.Uproc
module Hfi1_driver = Pico_linux.Hfi1_driver
module Hfi1_structs = Pico_linux.Hfi1_structs
module Partition = Pico_ihk.Partition
module Mck = Pico_mck.Kernel
module Mem = Pico_mck.Mem
module Mproc = Pico_mck.Proc
module Vspace = Pico_mck.Vspace
module Unified_vspace = Pico_driver.Unified_vspace
module Struct_access = Pico_driver.Struct_access
module Callbacks = Pico_driver.Callbacks
module Framework = Pico_driver.Framework
module Hfi1_pico = Pico_driver.Hfi1_pico
module Costs = Pico_costs.Costs

let () = Costs.reset ()

let mk_env ?(vspace_kind = Vspace.Unified) () =
  let sim = Sim.create () in
  let fabric = Fabric.create sim in
  let node = Node.create_knl sim ~id:0 ~mem_scale:0.02 () in
  let hfi = Hfi.create sim ~node ~fabric ~carry_payload:true () in
  let rng = Rng.create ~seed:5L in
  let linux = Lkernel.boot sim ~node ~service_cores:4 ~nohz_full:true ~rng in
  let driver = Lkernel.attach_hfi1 linux hfi in
  let partition =
    Partition.reserve node ~lwk_cores:64 ~lwk_mem_bytes:(Addr.mib 64)
  in
  let mck = Mck.boot sim ~node ~linux ~partition ~vspace_kind in
  (sim, node, linux, driver, mck)

let attach mck driver =
  match
    Hfi1_pico.attach mck ~linux_driver:driver
      ~module_sections:(Hfi1_structs.module_binary ())
  with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* --- Unified_vspace -------------------------------------------------------- *)

let test_uv_reports () =
  let orig = Unified_vspace.check (Vspace.create Vspace.Original) in
  Alcotest.(check bool) "original unsatisfied" false
    (Unified_vspace.satisfied orig);
  let uni = Unified_vspace.check (Vspace.create Vspace.Unified) in
  Alcotest.(check bool) "unified satisfied" true
    (Unified_vspace.satisfied uni)

let test_uv_require_original_fails () =
  Alcotest.(check bool) "raises" true
    (try Unified_vspace.require (Vspace.create Vspace.Original); false
     with Unified_vspace.Layout_unsuitable _ -> true)

let test_uv_translate () =
  let vs = Vspace.create Vspace.Unified in
  Alcotest.(check int) "translate" 0x5000
    (Unified_vspace.translate_linux_pointer vs (Llayout.va_of_pa 0x5000));
  Alcotest.(check bool) "non-direct-map rejected" true
    (try ignore (Unified_vspace.translate_linux_pointer vs 0x1000); false
     with Invalid_argument _ -> true);
  let ovs = Vspace.create Vspace.Original in
  Alcotest.(check bool) "original layout faults" true
    (try
       ignore
         (Unified_vspace.translate_linux_pointer ovs (Llayout.va_of_pa 0x5000));
       false
     with Unified_vspace.Layout_unsuitable _ -> true)

(* --- Struct_access ----------------------------------------------------------- *)

let test_sa_load_and_offsets () =
  match
    Struct_access.load (Hfi1_structs.module_binary ())
      ~struct_name:"sdma_state"
      ~fields:[ "current_state"; "go_s99_running"; "previous_state" ]
  with
  | Error e -> Alcotest.fail e
  | Ok sa ->
    Alcotest.(check int) "current_state" 40
      (Struct_access.offset sa "current_state");
    Alcotest.(check int) "go_s99_running" 48
      (Struct_access.offset sa "go_s99_running");
    Alcotest.(check int) "previous_state" 52
      (Struct_access.offset sa "previous_state");
    Alcotest.(check int) "byte size" 64 (Struct_access.byte_size sa)

let test_sa_missing_field () =
  match
    Struct_access.load (Hfi1_structs.module_binary ())
      ~struct_name:"sdma_state" ~fields:[ "no_such_field" ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_sa_read_through_unified_map () =
  let _, node, _, driver, mck = mk_env () in
  let vs = Mck.vspace mck in
  match
    Struct_access.load (Hfi1_structs.module_binary ())
      ~struct_name:"hfi1_devdata" ~fields:[ "unit"; "num_sdma" ]
  with
  | Error e -> Alcotest.fail e
  | Ok sa ->
    (* The Linux driver wrote these fields at probe time; the LWK reads
       them back through DWARF offsets + the unified direct map. *)
    Alcotest.(check int32) "unit" 0l
      (Struct_access.read_u32 sa ~node ~vs
         ~base_va:(Hfi1_driver.devdata_va driver) "unit");
    Alcotest.(check int32) "num_sdma" 16l
      (Struct_access.read_u32 sa ~node ~vs
         ~base_va:(Hfi1_driver.devdata_va driver) "num_sdma")

let test_sa_original_layout_faults () =
  let _, node, _, driver, mck = mk_env ~vspace_kind:Vspace.Original () in
  let vs = Mck.vspace mck in
  match
    Struct_access.load (Hfi1_structs.module_binary ())
      ~struct_name:"hfi1_devdata" ~fields:[ "unit" ]
  with
  | Error e -> Alcotest.fail e
  | Ok sa ->
    Alcotest.(check bool) "read faults" true
      (try
         ignore
           (Struct_access.read_u32 sa ~node ~vs
              ~base_va:(Hfi1_driver.devdata_va driver) "unit");
         false
       with Unified_vspace.Layout_unsuitable _ -> true)

let test_sa_c_header () =
  match
    Struct_access.load (Hfi1_structs.module_binary ())
      ~struct_name:"sdma_state"
      ~fields:[ "current_state"; "go_s99_running"; "previous_state" ]
  with
  | Error e -> Alcotest.fail e
  | Ok sa ->
    let h = Struct_access.c_header sa in
    let has sub =
      let n = String.length sub and l = String.length h in
      let rec go i = i + n <= l && (String.sub h i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "whole_struct[64]" true (has "char whole_struct[64]");
    Alcotest.(check bool) "padding0[40]" true (has "char padding0[40]");
    Alcotest.(check bool) "padding1[48]" true (has "char padding1[48]");
    Alcotest.(check bool) "padding2[52]" true (has "char padding2[52]")

(* --- Callbacks ------------------------------------------------------------------ *)

let test_cb_invoke () =
  let vs = Vspace.create Vspace.Unified in
  let cb = Callbacks.create ~vs in
  let hits = ref 0 in
  let ptr = Callbacks.register cb ~name:"t" (fun () -> incr hits) in
  Alcotest.(check bool) "ptr inside mck image" true
    (ptr >= Vspace.image_base vs);
  Callbacks.invoke cb ~from_linux:true ptr;
  Callbacks.invoke cb ~from_linux:false ptr;
  Alcotest.(check int) "ran twice" 2 !hits;
  Alcotest.(check int) "invocations" 2 (Callbacks.invocations cb)

let test_cb_once () =
  let vs = Vspace.create Vspace.Unified in
  let cb = Callbacks.create ~vs in
  let ptr = Callbacks.register ~once:true cb ~name:"t" (fun () -> ()) in
  Callbacks.invoke cb ~from_linux:true ptr;
  Alcotest.(check int) "removed after invoke" 0 (Callbacks.registered cb);
  Alcotest.(check bool) "second invoke faults" true
    (try Callbacks.invoke cb ~from_linux:true ptr; false
     with Callbacks.Callback_fault _ -> true)

let test_cb_faults_without_text_mapping () =
  (* Under the original layout, Linux jumping into McKernel TEXT is a
     wild branch — the fault PicoDriver's TEXT mapping exists to
     prevent. *)
  let vs = Vspace.create Vspace.Original in
  let cb = Callbacks.create ~vs in
  let ptr = Callbacks.register cb ~name:"t" (fun () -> ()) in
  Alcotest.(check bool) "from linux faults" true
    (try Callbacks.invoke cb ~from_linux:true ptr; false
     with Callbacks.Callback_fault _ -> true);
  (* From the LWK itself it is fine. *)
  Callbacks.invoke cb ~from_linux:false ptr

let test_cb_wild_pointer () =
  let vs = Vspace.create Vspace.Unified in
  let cb = Callbacks.create ~vs in
  Alcotest.(check bool) "wild pointer" true
    (try Callbacks.invoke cb ~from_linux:false 0xdead; false
     with Callbacks.Callback_fault _ -> true)

(* --- Framework -------------------------------------------------------------------- *)

let test_fw_install_requires_unified () =
  let _, _, _, _, mck = mk_env ~vspace_kind:Vspace.Original () in
  Alcotest.(check bool) "original rejected" true
    (try
       ignore
         (Framework.install mck
            { Framework.pd_name = "x"; pd_dev = "d"; pd_writev = None;
              pd_ioctls = [] });
       false
     with Unified_vspace.Layout_unsuitable _ -> true)

let test_fw_install_and_local_ops () =
  let _, _, _, _, mck = mk_env () in
  ignore
    (Framework.install mck
       { Framework.pd_name = "x"; pd_dev = "devX";
         pd_writev = Some (fun _ _ _ -> 0); pd_ioctls = [] });
  Alcotest.(check bool) "local ops listed" true
    (Framework.local_ops mck ~dev:"devX" <> []);
  Alcotest.(check bool) "other dev empty" true
    (Framework.local_ops mck ~dev:"other" = [])

(* --- Hfi1_pico ---------------------------------------------------------------------- *)

let test_pico_attach_ok () =
  let _, _, _, driver, mck = mk_env () in
  let p = attach mck driver in
  Alcotest.(check bool) "fastpath registered" true
    (Mck.fastpath_registered mck ~dev:"hfi1_0");
  Alcotest.(check (list string)) "ported ops"
    [ "writev"; "ioctl:TID_UPDATE"; "ioctl:TID_FREE" ]
    (Hfi1_pico.ported_ops p)

let test_pico_attach_bad_binary () =
  let _, _, _, driver, mck = mk_env () in
  (* A binary without the needed structures. *)
  let c = Pico_dwarf.Compile.create () in
  Pico_dwarf.Compile.add_struct c
    { Pico_dwarf.Ctype.name = "unrelated";
      members = [ ("x", Pico_dwarf.Ctype.u32) ] };
  let sections = Pico_dwarf.Encode.encode (Pico_dwarf.Compile.finish c) in
  (match Hfi1_pico.attach mck ~linux_driver:driver ~module_sections:sections with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected extraction failure")

let test_pico_attach_original_layout_fails () =
  let _, _, _, driver, mck = mk_env ~vspace_kind:Vspace.Original () in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Hfi1_pico.attach mck ~linux_driver:driver
            ~module_sections:(Hfi1_structs.module_binary ()));
       false
     with Unified_vspace.Layout_unsuitable _ -> true)

let test_pico_attach_missing_enum () =
  let _, _, _, driver, mck = mk_env () in
  (* A binary carrying the structs but no sdma_states enumerators. *)
  let c = Pico_dwarf.Compile.create () in
  List.iter
    (fun (d : Pico_dwarf.Ctype.decl) ->
      (* Strip the enum by replacing it with a plain u32. *)
      let members =
        List.map
          (fun (n, ty) ->
            match ty with
            | Pico_dwarf.Ctype.Enum _ -> (n, Pico_dwarf.Ctype.u32)
            | _ -> (n, ty))
          d.Pico_dwarf.Ctype.members
      in
      Pico_dwarf.Compile.add_struct c { d with Pico_dwarf.Ctype.members })
    Hfi1_structs.all;
  let sections = Pico_dwarf.Encode.encode (Pico_dwarf.Compile.finish c) in
  (match Hfi1_pico.attach mck ~linux_driver:driver ~module_sections:sections with
   | Error msg ->
     Alcotest.(check bool) "mentions the enum" true
       (String.length msg > 0)
   | Ok _ -> Alcotest.fail "expected enum-missing rejection")

let test_pico_listing1_header () =
  let _, _, _, driver, mck = mk_env () in
  let p = attach mck driver in
  let expected =
    "struct sdma_state {\n\
     \tunion {\n\
     \t\tchar whole_struct[64];\n\
     \t\tstruct {\n\
     \t\t\tchar padding0[40];\n\
     \t\t\tenum sdma_states current_state;\n\
     \t\t};\n\
     \t\tstruct {\n\
     \t\t\tchar padding1[48];\n\
     \t\t\tunsigned int go_s99_running;\n\
     \t\t};\n\
     \t\tstruct {\n\
     \t\t\tchar padding2[52];\n\
     \t\t\tenum sdma_states previous_state;\n\
     \t\t};\n\
     \t};\n\
     };\n"
  in
  Alcotest.(check string) "Listing 1 byte-for-byte" expected
    (Hfi1_pico.sdma_state_header p)

(* Full LWK-side fast path: open (offloaded), TID register (local),
   writev SDMA (local), data lands; metadata freed with kfree_remote. *)
let test_pico_fast_path_end_to_end () =
  let sim, _, _, driver, mck = mk_env () in
  let p = attach mck driver in
  let len = Addr.mib 2 in
  Sim.spawn sim (fun () ->
      let pc = Mck.new_process mck in
      let fd = Mck.open_dev mck pc "hfi1_0" in
      let offloads_before = Mck.offloaded mck in
      (* Destination buffer on the same node (loopback), registered via
         the LOCAL TID fast path. *)
      let rbuf = Mck.mmap_anon mck pc ~len in
      let sbuf = Mck.mmap_anon mck pc ~len in
      let scratch = Mck.mmap_anon mck pc ~len:4096 in
      let data = Bytes.init len (fun i -> Char.chr ((i * 11) land 0xff)) in
      Mproc.write pc.Mck.proc sbuf data;
      Mproc.write pc.Mck.proc scratch
        (User_api.encode_tid_update { User_api.tu_va = rbuf; tu_len = len });
      let ret =
        Mck.ioctl mck pc ~fd ~cmd:User_api.ioctl_tid_update ~arg:scratch
      in
      let tid_base = ret land 0xffff and count = ret lsr 16 in
      (* Pinned contiguous 2 MB backing -> ONE coarse RcvArray entry,
         not 512 page-sized ones. *)
      Alcotest.(check int) "one coarse TID entry" 1 count;
      let dst_ctx =
        match
          Vfs.lookup_fd (Mck.linux mck).Lkernel.vfs
            ~pid:pc.Mck.proxy.Uproc.pid ~fd
        with
        | Some file ->
          (match Hfi1_driver.context_of_file driver file with
           | Some c -> Hfi.ctx_id c
           | None -> Alcotest.fail "no ctx")
        | None -> Alcotest.fail "no file"
      in
      Mproc.write pc.Mck.proc scratch
        (User_api.encode_sdma_req
           { User_api.dst_node = 0; dst_ctx; kind = User_api.Sdma_expected;
             tag = 0L; msg_id = 9; offset = 0; msg_len = len; tid_base;
             src_rank = 0 });
      let wrote =
        Mck.writev mck pc ~fd
          [ { Vfs.iov_base = scratch; iov_len = User_api.sdma_req_bytes };
            { Vfs.iov_base = sbuf; iov_len = len } ]
      in
      Alcotest.(check int) "wrote all" len wrote;
      (* Neither the ioctl nor the writev used the delegator. *)
      Alcotest.(check int) "no extra offloads" offloads_before
        (Mck.offloaded mck);
      Sim.delay sim (Sim.ms 5.);
      Alcotest.(check bytes) "data placed" data (Mproc.read pc.Mck.proc rbuf len));
  ignore (Sim.run sim);
  Alcotest.(check int) "fast writev" 1 (Hfi1_pico.writev_fast p);
  Alcotest.(check int) "fast ioctls" 1 (Hfi1_pico.ioctl_fast p);
  Alcotest.(check bool) "big SDMA requests used" true
    (Hfi1_pico.big_requests p > 0);
  (* Request sizes: all but the remainder at the 10 kB hardware max. *)
  let sdma = Hfi.sdma (Hfi1_driver.hfi driver) in
  Alcotest.(check int) "max request 10240" 10240
    (Sdma.max_request_bytes sdma);
  (* The duplicated callback freed metadata via the remote queue. *)
  let mem = Mck.mem mck in
  Alcotest.(check bool) "remote free queued or drained" true
    (Mem.remote_queue_length mem >= 0)

let test_pico_rejects_unpinned () =
  let sim, node, _, driver, mck = mk_env () in
  ignore (attach mck driver);
  Sim.spawn sim (fun () ->
      let pc = Mck.new_process mck in
      let fd = Mck.open_dev mck pc "hfi1_0" in
      (* Forge an unpinned user mapping behind McKernel's back. *)
      let va = 0x6000_0000 in
      let pa = Option.get (Node.alloc_frames node 1) in
      Pagetable.map pc.Mck.proc.Mproc.pt ~va ~pa ~page_size:4096
        ~flags:Pagetable.Flags.(present + writable + user);
      let scratch = Mck.mmap_anon mck pc ~len:4096 in
      Mproc.write pc.Mck.proc scratch
        (User_api.encode_sdma_req
           { User_api.dst_node = 0; dst_ctx = 0; kind = User_api.Sdma_eager;
             tag = 0L; msg_id = 0; offset = 0; msg_len = 4096; tid_base = 0;
             src_rank = 0 });
      Alcotest.(check bool) "unpinned rejected" true
        (try
           ignore
             (Mck.writev mck pc ~fd
                [ { Vfs.iov_base = scratch; iov_len = User_api.sdma_req_bytes };
                  { Vfs.iov_base = va; iov_len = 4096 } ]);
           false
         with Invalid_argument _ -> true));
  ignore (Sim.run sim)

(* A buffer whose pinned head would yield a >4 kB request and whose tail
   is unpinned: the builder checks every segment before it counts one. *)
let test_pico_unpinned_tail_counts_nothing () =
  let sim, node, _, driver, mck = mk_env () in
  let p = attach mck driver in
  Sim.spawn sim (fun () ->
      let pc = Mck.new_process mck in
      let fd = Mck.open_dev mck pc "hfi1_0" in
      let va = 0x6000_0000 in
      let pa = Option.get (Node.alloc_frames node 4) in
      let pt = pc.Mck.proc.Mproc.pt in
      Pagetable.map_range pt ~va ~pa ~len:(3 * 4096) ~page_size:4096
        ~flags:Pagetable.Flags.(present + writable + user + pinned);
      Pagetable.map pt ~va:(va + (3 * 4096)) ~pa:(pa + (3 * 4096))
        ~page_size:4096 ~flags:Pagetable.Flags.(present + writable + user);
      let scratch = Mck.mmap_anon mck pc ~len:4096 in
      Mproc.write pc.Mck.proc scratch
        (User_api.encode_sdma_req
           { User_api.dst_node = 0; dst_ctx = 0; kind = User_api.Sdma_eager;
             tag = 0L; msg_id = 0; offset = 0; msg_len = 4 * 4096;
             tid_base = 0; src_rank = 0 });
      Alcotest.(check bool) "unpinned tail rejected" true
        (try
           ignore
             (Mck.writev mck pc ~fd
                [ { Vfs.iov_base = scratch; iov_len = User_api.sdma_req_bytes };
                  { Vfs.iov_base = va; iov_len = 4 * 4096 } ]);
           false
         with Invalid_argument _ -> true);
      Alcotest.(check int) "no request counted" 0 (Hfi1_pico.big_requests p));
  ignore (Sim.run sim)

let test_pico_shares_linux_locks () =
  let _, _, _, driver, mck = mk_env () in
  ignore (attach mck driver);
  (* The installation did not create new locks: the pico driver uses the
     driver's own sdma/tid locks (identity check). *)
  Alcotest.(check bool) "same sdma lock object" true
    (Hfi1_driver.sdma_lock driver == Hfi1_driver.sdma_lock driver)

let () =
  Alcotest.run "picodriver"
    [ ("unified_vspace",
       [ Alcotest.test_case "reports" `Quick test_uv_reports;
         Alcotest.test_case "require original" `Quick test_uv_require_original_fails;
         Alcotest.test_case "translate" `Quick test_uv_translate ]);
      ("struct_access",
       [ Alcotest.test_case "load + offsets" `Quick test_sa_load_and_offsets;
         Alcotest.test_case "missing field" `Quick test_sa_missing_field;
         Alcotest.test_case "read via unified map" `Quick
           test_sa_read_through_unified_map;
         Alcotest.test_case "original layout faults" `Quick
           test_sa_original_layout_faults;
         Alcotest.test_case "c header" `Quick test_sa_c_header ]);
      ("callbacks",
       [ Alcotest.test_case "invoke" `Quick test_cb_invoke;
         Alcotest.test_case "once" `Quick test_cb_once;
         Alcotest.test_case "text mapping fault" `Quick
           test_cb_faults_without_text_mapping;
         Alcotest.test_case "wild pointer" `Quick test_cb_wild_pointer ]);
      ("framework",
       [ Alcotest.test_case "requires unified" `Quick
           test_fw_install_requires_unified;
         Alcotest.test_case "install + local ops" `Quick
           test_fw_install_and_local_ops ]);
      ("hfi1_pico",
       [ Alcotest.test_case "attach ok" `Quick test_pico_attach_ok;
         Alcotest.test_case "bad binary" `Quick test_pico_attach_bad_binary;
         Alcotest.test_case "original layout" `Quick
           test_pico_attach_original_layout_fails;
         Alcotest.test_case "missing enum rejected" `Quick
           test_pico_attach_missing_enum;
         Alcotest.test_case "Listing 1 header" `Quick test_pico_listing1_header;
         Alcotest.test_case "fast path end to end" `Quick
           test_pico_fast_path_end_to_end;
         Alcotest.test_case "rejects unpinned" `Quick test_pico_rejects_unpinned;
         Alcotest.test_case "unpinned tail counts nothing" `Quick
           test_pico_unpinned_tail_counts_nothing;
         Alcotest.test_case "shares linux locks" `Quick
           test_pico_shares_linux_locks ]) ]
