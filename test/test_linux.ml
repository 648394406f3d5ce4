(* Tests for the Linux kernel model: layout, spinlocks, slab, gup, VFS,
   noise, workqueues, user processes and the HFI1 driver. *)

open Pico_linux
module Sim = Pico_engine.Sim
module Rng = Pico_engine.Rng
module Stats = Pico_engine.Stats
module Node = Pico_hw.Node
module Addr = Pico_hw.Addr
module Pagetable = Pico_hw.Pagetable
module Fabric = Pico_nic.Fabric
module Hfi = Pico_nic.Hfi
module Sdma = Pico_nic.Sdma
module User_api = Pico_nic.User_api
module Costs = Pico_costs.Costs

let () = Costs.reset ()

(* --- Layout ------------------------------------------------------------- *)

let test_layout_roundtrip () =
  let pa = 0x1234_5000 in
  Alcotest.(check int) "va->pa" pa (Layout.pa_of_va (Layout.va_of_pa pa));
  Alcotest.(check bool) "in direct map" true
    (Layout.in_direct_map (Layout.va_of_pa pa));
  Alcotest.(check bool) "user" true (Layout.in_user 0x7f00_0000_0000);
  Alcotest.(check bool) "not user" false
    (Layout.in_user Layout.direct_map_base);
  Alcotest.(check bool) "module space" true
    (Layout.in_module_space (Layout.module_base + 0x1000))

let test_layout_bad_pa_of_va () =
  Alcotest.(check bool) "raises" true
    (try ignore (Layout.pa_of_va 0x1000); false
     with Invalid_argument _ -> true)

let test_layout_canonical () =
  Alcotest.(check string) "sign extended" "0xffff880000000000"
    (Layout.canonical_hex Layout.direct_map_base)

(* --- Spinlock ------------------------------------------------------------ *)

let test_spinlock_mutex () =
  let sim = Sim.create () in
  let l = Spinlock.create sim ~name:"t" in
  let inside = ref 0 in
  let max_inside = ref 0 in
  for _ = 1 to 4 do
    Sim.spawn sim (fun () ->
        Spinlock.lock l;
        incr inside;
        max_inside := max !max_inside !inside;
        Sim.delay sim 100.;
        decr inside;
        Spinlock.unlock l)
  done;
  ignore (Sim.run sim);
  Alcotest.(check int) "never two holders" 1 !max_inside;
  Alcotest.(check int) "acquisitions" 4 (Spinlock.acquisitions l);
  Alcotest.(check int) "contended" 3 (Spinlock.contended l)

let test_spinlock_no_steal () =
  let sim = Sim.create () in
  let l = Spinlock.create sim ~name:"t" in
  let order = ref [] in
  (* P0 takes the lock; P1 queues; P2 arrives exactly when P0 releases and
     must NOT overtake P1. *)
  Sim.spawn sim (fun () ->
      Spinlock.lock l;
      Sim.delay sim 100.;
      Spinlock.unlock l);
  Sim.spawn sim (fun () ->
      Sim.delay sim 10.;
      Spinlock.lock l;
      order := 1 :: !order;
      Sim.delay sim 100.;
      Spinlock.unlock l);
  Sim.spawn sim (fun () ->
      Sim.delay sim 100.;
      Spinlock.lock l;
      order := 2 :: !order;
      Spinlock.unlock l);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo handoff" [ 1; 2 ] (List.rev !order)

let test_spinlock_trylock () =
  let sim = Sim.create () in
  let l = Spinlock.create sim ~name:"t" in
  Alcotest.(check bool) "free" true (Spinlock.try_lock l);
  Alcotest.(check bool) "held" false (Spinlock.try_lock l);
  Spinlock.unlock l;
  Alcotest.(check bool) "unlock unheld raises" true
    (try Spinlock.unlock l; false with Invalid_argument _ -> true)

let test_spinlock_with_lock_exn () =
  let sim = Sim.create () in
  let l = Spinlock.create sim ~name:"t" in
  Sim.spawn sim (fun () ->
      (try Spinlock.with_lock l (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check (option string)) "released" None (Spinlock.holder l));
  ignore (Sim.run sim)

(* --- Slab ------------------------------------------------------------------ *)

let mk_node () =
  let sim = Sim.create () in
  (sim, Node.create_knl sim ~id:0 ~mem_scale:0.01 ())

let test_slab_cycle () =
  let sim, node = mk_node () in
  let s = Slab.create sim ~node in
  let a = Slab.kmalloc s 100 in
  Alcotest.(check bool) "direct map va" true (Layout.in_direct_map a);
  Alcotest.(check int) "class 128" 128 (Slab.usable_size s a);
  Alcotest.(check int) "live" 1 (Slab.live s);
  Slab.kfree s a;
  Alcotest.(check int) "free" 0 (Slab.live s);
  let b = Slab.kmalloc s 100 in
  Alcotest.(check int) "recycled" a b

let test_slab_double_free () =
  let sim, node = mk_node () in
  let s = Slab.create sim ~node in
  let a = Slab.kmalloc s 64 in
  Slab.kfree s a;
  Alcotest.(check bool) "double free raises" true
    (try Slab.kfree s a; false with Invalid_argument _ -> true)

let test_slab_distinct_objects () =
  let sim, node = mk_node () in
  let s = Slab.create sim ~node in
  let objs = List.init 100 (fun _ -> Slab.kmalloc s 64) in
  Alcotest.(check int) "all distinct" 100
    (List.length (List.sort_uniq compare objs));
  Alcotest.(check int) "total" 100 (Slab.total_allocated s);
  List.iter (Slab.kfree s) objs

let test_slab_shared_memory () =
  (* What kmalloc returns is backed by node physical memory: visible to
     anyone translating the same direct-map address. *)
  let sim, node = mk_node () in
  let s = Slab.create sim ~node in
  let va = Slab.kmalloc s 64 in
  Node.write_u64 node (Layout.pa_of_va va) 0xCAFEL;
  Alcotest.(check int64) "readable via pa" 0xCAFEL
    (Node.read_u64 node (Layout.pa_of_va va))

(* --- Gup -------------------------------------------------------------------- *)

let test_gup_pins () =
  let sim, node = mk_node () in
  ignore node;
  let g = Gup.create sim in
  let pt = Pagetable.create () in
  Pagetable.map_range pt ~va:0x10000 ~pa:0x40000 ~len:(4 * 4096)
    ~page_size:4096 ~flags:Pagetable.Flags.(present + writable + user);
  let pins = Gup.get_user_pages g ~pt ~va:0x10800 ~len:8192 in
  (* 0x10800..0x12800 touches 3 pages. *)
  Alcotest.(check int) "page count" 3 (Array.length pins);
  Alcotest.(check int) "pinned" 3 (Gup.pinned g);
  (match Array.to_list pins with
   | first :: _ ->
     Alcotest.(check int) "first page pa" 0x40000 first
   | [] -> Alcotest.fail "no pins");
  Gup.put_pages g pins;
  Alcotest.(check int) "unpinned" 0 (Gup.pinned g)

let test_gup_unmapped () =
  let sim, _ = mk_node () in
  let g = Gup.create sim in
  let pt = Pagetable.create () in
  Alcotest.(check bool) "fault" true
    (try ignore (Gup.get_user_pages g ~pt ~va:0x1000 ~len:4096); false
     with Pagetable.Not_mapped _ -> true)

(* --- Vfs --------------------------------------------------------------------- *)

let test_vfs_lifecycle () =
  let sim, node = mk_node () in
  ignore node;
  let vfs = Vfs.create sim in
  let opened = ref 0 and released = ref 0 in
  Vfs.register_device vfs ~name:"dev0"
    ~ops:
      { Vfs.default_ops with
        fop_open = (fun _ _ -> incr opened);
        fop_release = (fun _ _ -> incr released) };
  Alcotest.(check bool) "registered" true (Vfs.device_registered vfs "dev0");
  let caller = { Vfs.pid = 1; pt = Pagetable.create () } in
  let f = Vfs.openf vfs caller "dev0" in
  Alcotest.(check int) "opened" 1 !opened;
  Alcotest.(check bool) "fd found" true
    (Vfs.lookup_fd vfs ~pid:1 ~fd:f.Vfs.fd <> None);
  Vfs.close vfs caller ~fd:f.Vfs.fd;
  Alcotest.(check int) "released" 1 !released;
  Alcotest.(check bool) "fd gone" true
    (Vfs.lookup_fd vfs ~pid:1 ~fd:f.Vfs.fd = None)

let test_vfs_bad_fd () =
  let sim, _ = mk_node () in
  let vfs = Vfs.create sim in
  let caller = { Vfs.pid = 1; pt = Pagetable.create () } in
  Alcotest.(check bool) "bad fd" true
    (try ignore (Vfs.poll vfs caller ~fd:99); false
     with Vfs.Bad_fd 99 -> true)

let test_vfs_no_device () =
  let sim, _ = mk_node () in
  let vfs = Vfs.create sim in
  let caller = { Vfs.pid = 1; pt = Pagetable.create () } in
  Alcotest.(check bool) "no device" true
    (try ignore (Vfs.openf vfs caller "nope"); false
     with Vfs.No_such_device "nope" -> true)

let test_vfs_duplicate_device () =
  let sim, _ = mk_node () in
  let vfs = Vfs.create sim in
  Vfs.register_device vfs ~name:"d" ~ops:Vfs.default_ops;
  Alcotest.(check bool) "duplicate" true
    (try Vfs.register_device vfs ~name:"d" ~ops:Vfs.default_ops; false
     with Invalid_argument _ -> true)

(* --- Noise -------------------------------------------------------------------- *)

let test_noise_pure () =
  let sim = Sim.create () in
  let n = Noise.pure sim in
  Sim.spawn sim (fun () -> Noise.compute n 1000.);
  ignore (Sim.run sim);
  Alcotest.(check (float 1e-9)) "exact" 1000. (Sim.now sim);
  Alcotest.(check (float 1e-9)) "no injection" 0. (Noise.injected_ns n)

let test_noise_overhead_fraction () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11L in
  let n = Noise.create sim ~rng ~nohz_full:false in
  let work = 2e9 (* 2 s of compute: enough samples *) in
  Sim.spawn sim (fun () -> Noise.compute n work);
  ignore (Sim.run sim);
  let overhead = (Sim.now sim -. work) /. work in
  let expected = Noise.expected_overhead n in
  Alcotest.(check bool)
    (Printf.sprintf "overhead %.4f within 30%% of %.4f" overhead expected)
    true
    (abs_float (overhead -. expected) < 0.3 *. expected)

let test_noise_nohz_reduces () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed:11L in
  let noisy = Noise.create sim ~rng ~nohz_full:false in
  let tuned = Noise.create sim ~rng:(Rng.create ~seed:12L) ~nohz_full:true in
  Alcotest.(check bool) "nohz smaller" true
    (Noise.expected_overhead tuned < Noise.expected_overhead noisy)

(* --- Workqueue ------------------------------------------------------------------ *)

let test_workqueue_order_and_flush () =
  let sim = Sim.create () in
  let wq = Workqueue.create sim ~name:"t" ~service:None in
  let order = ref [] in
  Workqueue.queue_work wq ~cost:10. (fun () -> order := 1 :: !order);
  Workqueue.queue_work wq ~cost:10. (fun () -> order := 2 :: !order);
  let flushed_at = ref 0. in
  Sim.spawn sim (fun () ->
      Workqueue.flush wq;
      flushed_at := Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo" [ 1; 2 ] (List.rev !order);
  Alcotest.(check int) "executed" 2 (Workqueue.executed wq);
  Alcotest.(check int) "none pending" 0 (Workqueue.pending wq);
  Alcotest.(check bool) "flush waited" true (!flushed_at >= 20.)

(* --- Uproc ---------------------------------------------------------------------- *)

let test_uproc_mmap_rw () =
  let _, node = mk_node () in
  let p = Uproc.create ~node ~pid:7 in
  let va = Uproc.mmap_anon p 10000 in
  let data = Bytes.init 10000 (fun i -> Char.chr ((i * 3) land 0xff)) in
  Uproc.write p va data;
  Alcotest.(check bytes) "roundtrip" data (Uproc.read p va 10000);
  Alcotest.(check int) "one mapping" 1 (Uproc.live_mappings p);
  Uproc.munmap p va;
  Alcotest.(check int) "unmapped" 0 (Uproc.live_mappings p)

let test_uproc_scattered () =
  (* Linux anonymous memory: consecutive virtual pages land on
     discontiguous frames, so an 8-page buffer has multiple physical
     segments. *)
  let _, node = mk_node () in
  let p = Uproc.create ~node ~pid:8 in
  let va = Uproc.mmap_anon p (8 * 4096) in
  let segs = Pagetable.phys_segments p.Uproc.pt ~va ~len:(8 * 4096) in
  Alcotest.(check bool) "more than one physical segment" true
    (List.length segs > 1)

let test_uproc_unknown_munmap () =
  let _, node = mk_node () in
  let p = Uproc.create ~node ~pid:9 in
  Alcotest.(check bool) "raises" true
    (try Uproc.munmap p 0x1234; false with Invalid_argument _ -> true)

(* --- HFI1 driver ------------------------------------------------------------------- *)

let mk_driver_env () =
  let sim = Sim.create () in
  let fabric = Fabric.create sim in
  let node0 = Node.create_knl sim ~id:0 ~mem_scale:0.01 () in
  let node1 = Node.create_knl sim ~id:1 ~mem_scale:0.01 () in
  let hfi0 = Hfi.create sim ~node:node0 ~fabric ~carry_payload:true () in
  let hfi1 = Hfi.create sim ~node:node1 ~fabric ~carry_payload:true () in
  let rng = Rng.create ~seed:3L in
  let k0 = Kernel.boot sim ~node:node0 ~service_cores:4 ~nohz_full:true ~rng in
  let k1 =
    Kernel.boot sim ~node:node1 ~service_cores:4 ~nohz_full:true
      ~rng:(Rng.split rng)
  in
  let d0 = Kernel.attach_hfi1 k0 hfi0 in
  let d1 = Kernel.attach_hfi1 k1 hfi1 in
  (sim, k0, k1, d0, d1)

let test_driver_open_sets_private_data () =
  let sim, k0, _, d0, _ = mk_driver_env () in
  Sim.spawn sim (fun () ->
      let p = Kernel.new_process k0 in
      let caller = Uproc.caller p in
      let f = Vfs.openf k0.Kernel.vfs caller "hfi1_0" in
      Alcotest.(check bool) "private_data set" true (f.Vfs.private_data <> 0);
      Alcotest.(check bool) "context resolvable" true
        (Hfi1_driver.context_of_file d0 f <> None);
      Alcotest.(check int) "one open" 1 (Hfi1_driver.opens d0));
  ignore (Sim.run sim)

let test_driver_writev_page_sized_requests () =
  let sim, k0, k1, d0, d1 = mk_driver_env () in
  Sim.spawn sim (fun () ->
      (* Receiver side. *)
      let pr = Kernel.new_process k1 in
      let rc = Uproc.caller pr in
      let rf = Vfs.openf k1.Kernel.vfs rc "hfi1_1" in
      let rbuf = Uproc.mmap_anon pr (64 * 1024) in
      let argp = Uproc.mmap_anon pr 4096 in
      Uproc.write pr argp
        (User_api.encode_tid_update { User_api.tu_va = rbuf; tu_len = 64 * 1024 });
      let ret =
        Vfs.ioctl k1.Kernel.vfs rc ~fd:rf.Vfs.fd ~cmd:User_api.ioctl_tid_update
          ~arg:argp
      in
      let tid_base = ret land 0xffff and count = ret lsr 16 in
      (* Linux registers one RcvArray entry per 4 kB page. *)
      Alcotest.(check int) "16 entries for 64k" 16 count;
      (* Sender side. *)
      let ps = Kernel.new_process k0 in
      let sc = Uproc.caller ps in
      let sf = Vfs.openf k0.Kernel.vfs sc "hfi1_0" in
      let sbuf = Uproc.mmap_anon ps (64 * 1024) in
      let hdrp = Uproc.mmap_anon ps 4096 in
      let dst_ctx =
        match Hfi1_driver.context_of_file d1 rf with
        | Some c -> Hfi.ctx_id c
        | None -> Alcotest.fail "no ctx"
      in
      Uproc.write ps hdrp
        (User_api.encode_sdma_req
           { User_api.dst_node = 1; dst_ctx; kind = User_api.Sdma_expected;
             tag = 0L; msg_id = 0; offset = 0; msg_len = 64 * 1024; tid_base;
             src_rank = 0 });
      let wrote =
        Vfs.writev k0.Kernel.vfs sc ~fd:sf.Vfs.fd
          [ { Vfs.iov_base = hdrp; iov_len = User_api.sdma_req_bytes };
            { Vfs.iov_base = sbuf; iov_len = 64 * 1024 } ]
      in
      Alcotest.(check int) "wrote all" (64 * 1024) wrote);
  ignore (Sim.run sim);
  (* The Linux driver never exceeds PAGE_SIZE per request. *)
  let sdma = Hfi.sdma (Hfi1_driver.hfi d0) in
  Alcotest.(check int) "16 requests" 16 (Sdma.requests_submitted sdma);
  Alcotest.(check int) "all PAGE_SIZE" 4096 (Sdma.max_request_bytes sdma);
  (* Completion IRQ freed the metadata. *)
  Alcotest.(check int) "completions" 1 (Hfi1_driver.irq_completions d0)

let test_driver_tid_free_releases_pins () =
  let sim, _, k1, _, d1 = mk_driver_env () in
  Sim.spawn sim (fun () ->
      let pr = Kernel.new_process k1 in
      let rc = Uproc.caller pr in
      let rf = Vfs.openf k1.Kernel.vfs rc "hfi1_1" in
      let rbuf = Uproc.mmap_anon pr (16 * 1024) in
      let argp = Uproc.mmap_anon pr 4096 in
      Uproc.write pr argp
        (User_api.encode_tid_update { User_api.tu_va = rbuf; tu_len = 16 * 1024 });
      let ret =
        Vfs.ioctl k1.Kernel.vfs rc ~fd:rf.Vfs.fd ~cmd:User_api.ioctl_tid_update
          ~arg:argp
      in
      let tid_base = ret land 0xffff and count = ret lsr 16 in
      Alcotest.(check bool) "pins taken" true (Gup.pinned (Hfi1_driver.gup d1) > 0);
      Uproc.write pr argp
        (User_api.encode_tid_free { User_api.tf_tid_base = tid_base; tf_count = count });
      ignore
        (Vfs.ioctl k1.Kernel.vfs rc ~fd:rf.Vfs.fd ~cmd:User_api.ioctl_tid_free
           ~arg:argp);
      Alcotest.(check int) "pins released" 0 (Gup.pinned (Hfi1_driver.gup d1)));
  ignore (Sim.run sim)

let test_driver_misc_ioctls () =
  let sim, k0, _, _, _ = mk_driver_env () in
  Sim.spawn sim (fun () ->
      let p = Kernel.new_process k0 in
      let c = Uproc.caller p in
      let f = Vfs.openf k0.Kernel.vfs c "hfi1_0" in
      List.iter
        (fun cmd ->
          if cmd <> User_api.ioctl_tid_update && cmd <> User_api.ioctl_tid_free
          then
            Alcotest.(check int)
              (Printf.sprintf "ioctl %d ok" cmd)
              0
              (Vfs.ioctl k0.Kernel.vfs c ~fd:f.Vfs.fd ~cmd ~arg:0))
        User_api.all_ioctls;
      Alcotest.(check int) "EINVAL for unknown" (-22)
        (Vfs.ioctl k0.Kernel.vfs c ~fd:f.Vfs.fd ~cmd:0x999 ~arg:0));
  ignore (Sim.run sim)

let test_driver_mmap_maps_bar () =
  let sim, k0, _, d0, _ = mk_driver_env () in
  Sim.spawn sim (fun () ->
      let p = Kernel.new_process k0 in
      let c = Uproc.caller p in
      let f = Vfs.openf k0.Kernel.vfs c "hfi1_0" in
      let va = Vfs.mmap k0.Kernel.vfs c ~fd:f.Vfs.fd ~len:(Addr.kib 64) in
      (* The user VA now translates to the context's BAR window. *)
      let pa = Pagetable.pa_of p.Uproc.pt va in
      let ctx =
        match Hfi1_driver.context_of_file d0 f with
        | Some ctx -> ctx
        | None -> Alcotest.fail "no context"
      in
      let expected =
        Hfi.bar_pa (Hfi1_driver.hfi d0)
        + (Hfi.ctx_id ctx * Hfi.bar_ctx_window)
      in
      Alcotest.(check int) "BAR window" expected pa;
      (* Second mmap of the same region is idempotent. *)
      let va2 = Vfs.mmap k0.Kernel.vfs c ~fd:f.Vfs.fd ~len:(Addr.kib 64) in
      Alcotest.(check int) "same window" va va2);
  ignore (Sim.run sim)

let test_driver_mmap_distinct_contexts () =
  let sim, k0, _, _, _ = mk_driver_env () in
  Sim.spawn sim (fun () ->
      let p1 = Kernel.new_process k0 and p2 = Kernel.new_process k0 in
      let c1 = Uproc.caller p1 and c2 = Uproc.caller p2 in
      let f1 = Vfs.openf k0.Kernel.vfs c1 "hfi1_0" in
      let f2 = Vfs.openf k0.Kernel.vfs c2 "hfi1_0" in
      let va1 = Vfs.mmap k0.Kernel.vfs c1 ~fd:f1.Vfs.fd ~len:4096 in
      let va2 = Vfs.mmap k0.Kernel.vfs c2 ~fd:f2.Vfs.fd ~len:4096 in
      Alcotest.(check bool) "distinct windows" true (va1 <> va2);
      Alcotest.(check bool) "distinct frames" true
        (Pagetable.pa_of p1.Uproc.pt va1 <> Pagetable.pa_of p2.Uproc.pt va2));
  ignore (Sim.run sim)

let test_driver_release_frees_slab () =
  let sim, k0, _, d0, _ = mk_driver_env () in
  let before = Slab.live (Hfi1_driver.slab d0) in
  Sim.spawn sim (fun () ->
      let p = Kernel.new_process k0 in
      let c = Uproc.caller p in
      let f = Vfs.openf k0.Kernel.vfs c "hfi1_0" in
      Vfs.close k0.Kernel.vfs c ~fd:f.Vfs.fd);
  ignore (Sim.run sim);
  Alcotest.(check int) "no leak" before (Slab.live (Hfi1_driver.slab d0))

let test_kernel_syscall_profile () =
  let sim, k0, _, _, _ = mk_driver_env () in
  let reg = Stats.Registry.create () in
  Sim.spawn sim (fun () ->
      Kernel.syscall k0 ~profile:reg ~name:"nanosleep" (fun () ->
          Sim.delay sim 500.));
  ignore (Sim.run sim);
  Alcotest.(check int) "recorded" 1 (Stats.Registry.count_of reg "nanosleep");
  Alcotest.(check bool) "includes entry cost" true
    (Stats.Registry.time_of reg "nanosleep"
     >= 500. +. (Costs.current ()).Costs.linux_syscall)

let () =
  Alcotest.run "linux"
    [ ("layout",
       [ Alcotest.test_case "roundtrip" `Quick test_layout_roundtrip;
         Alcotest.test_case "bad va" `Quick test_layout_bad_pa_of_va;
         Alcotest.test_case "canonical" `Quick test_layout_canonical ]);
      ("spinlock",
       [ Alcotest.test_case "mutual exclusion" `Quick test_spinlock_mutex;
         Alcotest.test_case "no steal" `Quick test_spinlock_no_steal;
         Alcotest.test_case "trylock" `Quick test_spinlock_trylock;
         Alcotest.test_case "exception" `Quick test_spinlock_with_lock_exn ]);
      ("slab",
       [ Alcotest.test_case "cycle" `Quick test_slab_cycle;
         Alcotest.test_case "double free" `Quick test_slab_double_free;
         Alcotest.test_case "distinct" `Quick test_slab_distinct_objects;
         Alcotest.test_case "shared memory" `Quick test_slab_shared_memory ]);
      ("gup",
       [ Alcotest.test_case "pins" `Quick test_gup_pins;
         Alcotest.test_case "unmapped" `Quick test_gup_unmapped ]);
      ("vfs",
       [ Alcotest.test_case "lifecycle" `Quick test_vfs_lifecycle;
         Alcotest.test_case "bad fd" `Quick test_vfs_bad_fd;
         Alcotest.test_case "no device" `Quick test_vfs_no_device;
         Alcotest.test_case "duplicate" `Quick test_vfs_duplicate_device ]);
      ("noise",
       [ Alcotest.test_case "pure" `Quick test_noise_pure;
         Alcotest.test_case "overhead fraction" `Quick test_noise_overhead_fraction;
         Alcotest.test_case "nohz reduces" `Quick test_noise_nohz_reduces ]);
      ("workqueue",
       [ Alcotest.test_case "order and flush" `Quick test_workqueue_order_and_flush ]);
      ("uproc",
       [ Alcotest.test_case "mmap rw" `Quick test_uproc_mmap_rw;
         Alcotest.test_case "scattered" `Quick test_uproc_scattered;
         Alcotest.test_case "unknown munmap" `Quick test_uproc_unknown_munmap ]);
      ("hfi1_driver",
       [ Alcotest.test_case "open private_data" `Quick
           test_driver_open_sets_private_data;
         Alcotest.test_case "writev PAGE_SIZE requests" `Quick
           test_driver_writev_page_sized_requests;
         Alcotest.test_case "tid free releases pins" `Quick
           test_driver_tid_free_releases_pins;
         Alcotest.test_case "misc ioctls" `Quick test_driver_misc_ioctls;
         Alcotest.test_case "mmap maps BAR" `Quick test_driver_mmap_maps_bar;
         Alcotest.test_case "mmap distinct contexts" `Quick
           test_driver_mmap_distinct_contexts;
         Alcotest.test_case "release frees slab" `Quick
           test_driver_release_frees_slab;
         Alcotest.test_case "syscall profile" `Quick test_kernel_syscall_profile ]) ]
