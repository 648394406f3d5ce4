(* Tests for the InfiniBand memory-registration extension: the Mellanox
   driver model and its PicoDriver (the paper's future-work item). *)

module Sim = Pico_engine.Sim
module Rng = Pico_engine.Rng
module Node = Pico_hw.Node
module Addr = Pico_hw.Addr
module Pagetable = Pico_hw.Pagetable
module Fabric = Pico_nic.Fabric
module Hfi = Pico_nic.Hfi
module Lkernel = Pico_linux.Kernel
module Vfs = Pico_linux.Vfs
module Uproc = Pico_linux.Uproc
module Gup = Pico_linux.Gup
module Mlx = Pico_linux.Mlx_driver
module Partition = Pico_ihk.Partition
module Mck = Pico_mck.Kernel
module Mproc = Pico_mck.Proc
module Vspace = Pico_mck.Vspace
module Mlx_pico = Pico_driver.Mlx_pico
module Costs = Pico_costs.Costs

let () = Costs.reset ()

let mk_env ?(vspace_kind = Vspace.Unified) () =
  let sim = Sim.create () in
  let node = Node.create_knl sim ~id:0 ~mem_scale:0.02 () in
  let rng = Rng.create ~seed:5L in
  let linux = Lkernel.boot sim ~node ~service_cores:4 ~nohz_full:true ~rng in
  let mlx =
    Mlx.probe sim ~node ~slab:linux.Lkernel.slab ~gup:linux.Lkernel.gup
      ~vfs:linux.Lkernel.vfs
  in
  let partition =
    Partition.reserve node ~lwk_cores:64 ~lwk_mem_bytes:(Addr.mib 64)
  in
  let mck = Mck.boot sim ~node ~linux ~partition ~vspace_kind in
  (sim, node, linux, mlx, mck)

let test_codec () =
  let r = { Mlx.mr_va = 0x7f12_3456_7000; mr_len = 123456 } in
  Alcotest.(check bool) "roundtrip" true
    (Mlx.decode_reg_mr (Mlx.encode_reg_mr r) = r)

let test_linux_reg_mr_per_page () =
  let sim, _, linux, mlx, _ = mk_env () in
  Sim.spawn sim (fun () ->
      let p = Lkernel.new_process linux in
      let caller = Uproc.caller p in
      let f = Vfs.openf linux.Lkernel.vfs caller "uverbs0" in
      let buf = Uproc.mmap_anon p (64 * 1024) in
      let argp = Uproc.mmap_anon p 4096 in
      Uproc.write p argp (Mlx.encode_reg_mr { Mlx.mr_va = buf; mr_len = 64 * 1024 });
      let lkey =
        Vfs.ioctl linux.Lkernel.vfs caller ~fd:f.Vfs.fd ~cmd:Mlx.ioctl_reg_mr
          ~arg:argp
      in
      (match Mlx.lookup_mr mlx ~lkey with
       | Some mr ->
         (* Linux: one MTT entry per 4 kB page. *)
         Alcotest.(check int) "16 MTT entries" 16
           (Pico_nic.Extent.count mr.Mlx.mr_mtt);
         Alcotest.(check int) "16 pages pinned" 16 mr.Mlx.mr_pinned_pages
       | None -> Alcotest.fail "MR not installed");
      Alcotest.(check bool) "pins held" true (Gup.pinned linux.Lkernel.gup > 0);
      ignore
        (Vfs.ioctl linux.Lkernel.vfs caller ~fd:f.Vfs.fd
           ~cmd:Mlx.ioctl_dereg_mr ~arg:lkey);
      Alcotest.(check int) "pins released" 0 (Gup.pinned linux.Lkernel.gup);
      Alcotest.(check int) "mr gone" 0 (Mlx.mr_count mlx));
  ignore (Sim.run sim)

let test_pico_reg_mr_coarse_entries () =
  let sim, _, _, mlx, mck = mk_env () in
  let pico =
    match Mlx_pico.attach mck ~linux_driver:mlx with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Sim.spawn sim (fun () ->
      let pc = Mck.new_process mck in
      let fd = Mck.open_dev mck pc "uverbs0" in
      let buf = Mck.mmap_anon mck pc ~len:(Addr.mib 4) in
      let argp = Mck.mmap_anon mck pc ~len:4096 in
      Mproc.write pc.Mck.proc argp
        (Mlx.encode_reg_mr { Mlx.mr_va = buf; mr_len = Addr.mib 4 });
      let offloads_before = Mck.offloaded mck in
      let lkey = Mck.ioctl mck pc ~fd ~cmd:Mlx.ioctl_reg_mr ~arg:argp in
      Alcotest.(check int) "served locally" offloads_before (Mck.offloaded mck);
      (match Mlx.lookup_mr mlx ~lkey with
       | Some mr ->
         (* Contiguous pinned 4 MB -> one MTT entry, not 1024. *)
         Alcotest.(check int) "one MTT entry" 1 (Pico_nic.Extent.count mr.Mlx.mr_mtt)
       | None -> Alcotest.fail "MR not installed");
      Alcotest.(check bool) "entries saved" true
        (Mlx_pico.entries_saved pico >= 1023);
      ignore (Mck.ioctl mck pc ~fd ~cmd:Mlx.ioctl_dereg_mr ~arg:lkey);
      Alcotest.(check int) "mr gone" 0 (Mlx.mr_count mlx));
  ignore (Sim.run sim);
  Alcotest.(check int) "fast reg" 1 (Mlx_pico.reg_fast pico);
  Alcotest.(check int) "fast dereg" 1 (Mlx_pico.dereg_fast pico)

let test_pico_other_ioctls_offload () =
  let sim, _, _, mlx, mck = mk_env () in
  (match Mlx_pico.attach mck ~linux_driver:mlx with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  Sim.spawn sim (fun () ->
      let pc = Mck.new_process mck in
      let fd = Mck.open_dev mck pc "uverbs0" in
      let before = Mck.offloaded mck in
      Alcotest.(check int) "query ok" 0
        (Mck.ioctl mck pc ~fd ~cmd:Mlx.ioctl_query_device ~arg:0);
      Alcotest.(check int) "offloaded" (before + 1) (Mck.offloaded mck));
  ignore (Sim.run sim)

let test_pico_requires_unified () =
  let _, _, _, mlx, mck = mk_env ~vspace_kind:Vspace.Original () in
  match Mlx_pico.attach mck ~linux_driver:mlx with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected layout rejection"

let test_two_picodrivers_coexist () =
  (* The HFI1 and mlx PicoDrivers install side by side on one LWK. *)
  let sim, node, linux, mlx, mck = mk_env () in
  ignore sim;
  let fabric = Fabric.create (Mck.sim mck) in
  let hfi = Hfi.create (Mck.sim mck) ~node ~fabric () in
  let hfi_drv = Lkernel.attach_hfi1 linux hfi in
  (match
     Pico_driver.Hfi1_pico.attach mck ~linux_driver:hfi_drv
       ~module_sections:(Pico_linux.Hfi1_structs.module_binary ())
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  (match Mlx_pico.attach mck ~linux_driver:mlx with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "hfi fastpath" true
    (Mck.fastpath_registered mck ~dev:"hfi1_0");
  Alcotest.(check bool) "mlx fastpath" true
    (Mck.fastpath_registered mck ~dev:"uverbs0")

let test_registration_latency_comparison () =
  (* The extension's headline: local registration beats offloaded
     registration by an order of magnitude. *)
  let reg_time ~pico =
    let sim, _, _, mlx, mck = mk_env () in
    if pico then
      (match Mlx_pico.attach mck ~linux_driver:mlx with
       | Ok _ -> ()
       | Error e -> Alcotest.fail e);
    let t = ref 0. in
    Sim.spawn sim (fun () ->
        let pc = Mck.new_process mck in
        let fd = Mck.open_dev mck pc "uverbs0" in
        let buf = Mck.mmap_anon mck pc ~len:(Addr.mib 2) in
        let argp = Mck.mmap_anon mck pc ~len:4096 in
        Mproc.write pc.Mck.proc argp
          (Mlx.encode_reg_mr { Mlx.mr_va = buf; mr_len = Addr.mib 2 });
        let t0 = Sim.now sim in
        ignore (Mck.ioctl mck pc ~fd ~cmd:Mlx.ioctl_reg_mr ~arg:argp);
        t := Sim.now sim -. t0);
    ignore (Sim.run sim);
    !t
  in
  let offloaded = reg_time ~pico:false in
  let local = reg_time ~pico:true in
  Alcotest.(check bool)
    (Printf.sprintf "local (%.0f ns) at least 5x faster than offloaded (%.0f ns)"
       local offloaded)
    true
    (local *. 5. < offloaded)

let () =
  Alcotest.run "mlx"
    [ ("driver",
       [ Alcotest.test_case "codec" `Quick test_codec;
         Alcotest.test_case "linux reg per page" `Quick
           test_linux_reg_mr_per_page ]);
      ("picodriver",
       [ Alcotest.test_case "coarse entries" `Quick
           test_pico_reg_mr_coarse_entries;
         Alcotest.test_case "other ioctls offload" `Quick
           test_pico_other_ioctls_offload;
         Alcotest.test_case "requires unified" `Quick test_pico_requires_unified;
         Alcotest.test_case "two picodrivers" `Quick test_two_picodrivers_coexist;
         Alcotest.test_case "latency comparison" `Quick
           test_registration_latency_comparison ]) ]
