open H_import

type rank_env = {
  os : Endpoint.os;
  env_kind : Cluster.os_kind;
  node_idx : int;
  fd : int;
}

(* Cost of populating a fresh anonymous mapping in Linux (page faults,
   zeroing), charged at mmap time since HPC codes touch everything. *)
let linux_fault_per_page = 250.

let linux_munmap_fixed = 2_000.

let ctx_of_file env file =
  match Hfi1_driver.context_of_file env.Cluster.driver file with
  | Some ctx -> ctx
  | None -> invalid_arg "Osconfig: device open left no context"

let init_linux (cl : Cluster.t) env ~rank =
  let sim = cl.Cluster.sim in
  let linux = env.Cluster.linux in
  let uproc = Lkernel.new_process linux in
  let caller = Uproc.caller uproc in
  let noise = Lkernel.noise_clock linux in
  let vfs = linux.Lkernel.vfs in
  let dev = Hfi1_driver.dev_name env.Cluster.node.Node.id in
  let file =
    Lkernel.syscall linux ~name:"open" (fun () -> Vfs.openf vfs caller dev)
  in
  (* PSM maps the device control pages and PIO buffers. *)
  ignore
    (Lkernel.syscall linux ~name:"mmap" (fun () ->
         Vfs.mmap vfs caller ~fd:file.Vfs.fd ~len:(Addr.kib 64)));
  let ctx = ctx_of_file env file in
  let os : Endpoint.os =
    { sim; rank;
      hfi = env.Cluster.hfi;
      ctx;
      carry_payload = cl.Cluster.carry_payload;
      writev =
        (fun iovs ->
          Lkernel.syscall linux ~name:"writev" (fun () ->
              Vfs.writev vfs caller ~fd:file.Vfs.fd iovs));
      ioctl =
        (fun ~cmd ~arg ->
          Lkernel.syscall linux ~name:"ioctl" (fun () ->
              Vfs.ioctl vfs caller ~fd:file.Vfs.fd ~cmd ~arg));
      mmap_anon =
        (fun len ->
          Lkernel.syscall linux ~name:"mmap" (fun () ->
              let va = Uproc.mmap_anon uproc len in
              let pages = Addr.pages_spanned ~addr:va ~len in
              Sim.delay sim (float_of_int pages *. linux_fault_per_page);
              va));
      munmap =
        (fun va ->
          Lkernel.syscall linux ~name:"munmap" (fun () ->
              (* Zap + TLB flush; Linux batches this far better than the
                 LWK (cf. Mem.unmap), hence the flat cost. *)
              Sim.delay sim linux_munmap_fixed;
              Uproc.munmap uproc va));
      write_user = (fun va data -> Uproc.write uproc va data);
      read_user = (fun va len -> Uproc.read uproc va len);
      compute = (fun d -> Noise.compute noise d);
      nanosleep =
        (fun d ->
          Lkernel.syscall linux ~name:"nanosleep" (fun () -> Sim.delay sim d));
    }
  in
  { os; env_kind = Cluster.Linux; node_idx = env.Cluster.node.Node.id;
    fd = file.Vfs.fd }

let init_mckernel (cl : Cluster.t) env ~rank ~with_pico =
  let sim = cl.Cluster.sim in
  let mck =
    match env.Cluster.mck with
    | Some m -> m
    | None -> invalid_arg "Osconfig: node has no McKernel instance"
  in
  let pctx = Mck.new_process mck in
  let dev = Hfi1_driver.dev_name env.Cluster.node.Node.id in
  let fd = Mck.open_dev mck pctx dev in
  ignore (Mck.mmap_dev mck pctx ~fd ~len:(Addr.kib 64));
  (* PicoDriver: one-time per-process initialisation of the LWK-side
     kernel mappings of driver internals (paper: visible as extra
     MPI_Init time). *)
  if with_pico then Sim.delay sim (Costs.current ()).pico_init;
  let file =
    match
      Vfs.lookup_fd env.Cluster.linux.Lkernel.vfs
        ~pid:pctx.Mck.proxy.Uproc.pid ~fd
    with
    | Some f -> f
    | None -> invalid_arg "Osconfig: proxy fd not found"
  in
  let ctx = ctx_of_file env file in
  let os : Endpoint.os =
    { sim; rank;
      hfi = env.Cluster.hfi;
      ctx;
      carry_payload = cl.Cluster.carry_payload;
      writev = (fun iovs -> Mck.writev mck pctx ~fd iovs);
      ioctl = (fun ~cmd ~arg -> Mck.ioctl mck pctx ~fd ~cmd ~arg);
      mmap_anon = (fun len -> Mck.mmap_anon mck pctx ~len);
      munmap = (fun va -> Mck.munmap mck pctx va);
      write_user = (fun va data -> Mproc.write pctx.Mck.proc va data);
      read_user = (fun va len -> Mproc.read pctx.Mck.proc va len);
      compute = (fun d -> Sim.delay sim d) (* noise-free LWK cores *);
      nanosleep = (fun d -> Mck.nanosleep mck pctx d);
    }
  in
  { os;
    env_kind = (if with_pico then Cluster.Mckernel_hfi else Cluster.Mckernel);
    node_idx = env.Cluster.node.Node.id;
    fd }

let init_rank cl ~node_idx ~rank =
  let env = Cluster.node_env cl node_idx in
  match cl.Cluster.kind with
  | Cluster.Linux -> init_linux cl env ~rank
  | Cluster.Mckernel -> init_mckernel cl env ~rank ~with_pico:false
  | Cluster.Mckernel_hfi -> init_mckernel cl env ~rank ~with_pico:true
