open Mck_import

exception Fastpath_unavailable

type fastpath = {
  fp_writev : (pctx -> Vfs.file -> Vfs.iovec list -> int) option;
  fp_ioctl : (int * (pctx -> Vfs.file -> arg:Addr.t -> int)) list;
}

and pctx = {
  proc : Proc.t;
  proxy : Uproc.t;
  thread : Sched.thread;
}

type t = {
  sim : Sim.t;
  node : Node.t;
  lkernel : Lkernel.t;
  partition : Partition.t;
  deleg : Delegator.t;
  mem : Mem.t;
  vs : Vspace.t;
  scheduler : Sched.t;
  kprofile : Stats.Registry.t;
  fastpaths : (string, fastpath) Hashtbl.t;
  mutable next_pid : int;
}

let boot sim ~node ~linux ~partition ~vspace_kind =
  let vs = Vspace.create vspace_kind in
  let lwk_cores = Partition.lwk_core_count partition in
  { sim; node; lkernel = linux; partition;
    deleg = Delegator.create sim ~linux;
    mem = Mem.create sim ~node ~vspace:vs ~lwk_cores;
    vs;
    scheduler = Sched.create ~cores:lwk_cores;
    kprofile = Stats.Registry.create ();
    fastpaths = Hashtbl.create 4;
    next_pid = 1 }

let sim t = t.sim

let node t = t.node

let linux t = t.lkernel

let delegator t = t.deleg

let mem t = t.mem

let vspace t = t.vs

let sched t = t.scheduler

let kprofile t = t.kprofile

let new_process t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let proc = Proc.create ~node:t.node ~pid in
  let proxy = Delegator.make_proxy t.deleg ~lwk_pt:proc.Proc.pt in
  let thread = Sched.spawn_thread t.scheduler in
  { proc; proxy; thread }

let register_fastpath t ~dev fp =
  if Hashtbl.mem t.fastpaths dev then
    invalid_arg (Printf.sprintf "fastpath for %s already registered" dev);
  Hashtbl.add t.fastpaths dev fp

let fastpath_registered t ~dev = Hashtbl.mem t.fastpaths dev

(* Time a syscall into the kernel profiler (LWK perspective: everything
   from entry to return, including offload waiting). *)
let profiled t name f =
  let started = Sim.now t.sim in
  let sp = Span.begin_ t.sim ~cat:"syscall" ~name in
  let lg = Ledger.begin_prefixed t.sim ~prefix:"syscall/" ~name in
  Sim.delay t.sim (Costs.current ()).lwk_syscall;
  Ledger.mark t.sim lg ~phase:"lwk_crossing";
  let finish () =
    Stats.Registry.add t.kprofile name (Sim.now t.sim -. started);
    Span.end_ t.sim sp;
    Ledger.close t.sim lg ~phase:"service"
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let vfs t = t.lkernel.Lkernel.vfs

let caller (p : pctx) = Uproc.caller p.proxy

let offload_vfs t p ~name f =
  Delegator.offload t.deleg ~name (fun () -> f (vfs t) (caller p))

let open_dev t p dev_name =
  profiled t "open" (fun () ->
      let file =
        offload_vfs t p ~name:"open" (fun vfs c -> Vfs.openf vfs c dev_name)
      in
      file.Vfs.fd)

let read t p ~fd ~len =
  profiled t "read" (fun () ->
      offload_vfs t p ~name:"read" (fun vfs c -> Vfs.read vfs c ~fd ~len))

let file_of t p fd =
  match Vfs.lookup_fd (vfs t) ~pid:p.proxy.Uproc.pid ~fd with
  | Some f -> f
  | None -> raise (Vfs.Bad_fd fd)

let writev t p ~fd iovs =
  profiled t "writev" (fun () ->
      let file = file_of t p fd in
      match Hashtbl.find_opt t.fastpaths file.Vfs.dev_name with
      | Some { fp_writev = Some h; _ } ->
        (* A fast path may find its hardware unusable (e.g. the SDMA
           engine out of s99_running) and degrade to the full Linux
           driver through the usual offload, like any unported op. *)
        (try h p file iovs with
         | Fastpath_unavailable ->
           offload_vfs t p ~name:"writev" (fun vfs c ->
               Vfs.writev vfs c ~fd iovs))
      | Some { fp_writev = None; _ } | None ->
        offload_vfs t p ~name:"writev" (fun vfs c -> Vfs.writev vfs c ~fd iovs))

let ioctl t p ~fd ~cmd ~arg =
  profiled t "ioctl" (fun () ->
      let file = file_of t p fd in
      let local =
        match Hashtbl.find_opt t.fastpaths file.Vfs.dev_name with
        | Some fp -> List.assoc_opt cmd fp.fp_ioctl
        | None -> None
      in
      match local with
      | Some h ->
        (try h p file ~arg with
         | Fastpath_unavailable ->
           offload_vfs t p ~name:"ioctl" (fun vfs c ->
               Vfs.ioctl vfs c ~fd ~cmd ~arg))
      | None ->
        offload_vfs t p ~name:"ioctl" (fun vfs c ->
            Vfs.ioctl vfs c ~fd ~cmd ~arg))

let mmap_dev t p ~fd ~len =
  profiled t "mmap" (fun () ->
      offload_vfs t p ~name:"mmap" (fun vfs c -> Vfs.mmap vfs c ~fd ~len))

let poll t p ~fd =
  profiled t "poll" (fun () ->
      offload_vfs t p ~name:"poll" (fun vfs c -> Vfs.poll vfs c ~fd))

let close t p ~fd =
  profiled t "close" (fun () ->
      offload_vfs t p ~name:"close" (fun vfs c -> Vfs.close vfs c ~fd))

let mmap_anon t p ~len =
  profiled t "mmap" (fun () ->
      let m =
        Mem.map_anon t.mem ~pt:p.proc.Proc.pt ~cursor:p.proc.Proc.cursor ~len
      in
      Proc.note_mapping p.proc m;
      m.Mem.va)

let munmap t p va =
  profiled t "munmap" (fun () ->
      match Proc.take_mapping p.proc va with
      | Some m -> Mem.unmap t.mem ~pt:p.proc.Proc.pt m
      | None -> invalid_arg "munmap: unknown mapping")

let nanosleep t p duration =
  ignore p;
  profiled t "nanosleep" (fun () -> Sim.delay t.sim duration)

let offloaded t = Delegator.offloaded_calls t.deleg
