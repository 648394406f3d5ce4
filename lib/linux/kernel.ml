open Linux_import

type t = {
  sim : Sim.t;
  node : Node.t;
  vfs : Vfs.t;
  slab : Slab.t;
  gup : Gup.t;
  service_cpus : Resource.t;
  nohz_full : bool;
  rng : Rng.t;
  mutable hfi1 : Hfi1_driver.t option;
  mutable next_pid_counter : int;
  mutable service_stalls : int;
}

let boot sim ~node ~service_cores ~nohz_full ~rng =
  if service_cores <= 0 then invalid_arg "Kernel.boot: service_cores must be > 0";
  let service_cpus =
    Resource.create sim
      ~name:(Printf.sprintf "linux%d-service-cpus" node.Node.id)
      ~capacity:service_cores
  in
  Irq.set_service node.Node.irq (Some service_cpus);
  { sim; node; vfs = Vfs.create sim; slab = Slab.create sim ~node;
    gup = Gup.create sim; service_cpus; nohz_full; rng; hfi1 = None;
    next_pid_counter = 1000; service_stalls = 0 }

(* A service-CPU stall fault occupies one OS-service CPU for its whole
   duration (firmware SMI, stuck kworker, ...): offloads and IRQ handling
   queue behind it through the normal [service_cpus] resource.  Must be
   called from process context (it blocks). *)
let service_stall t ~duration =
  t.service_stalls <- t.service_stalls + 1;
  let sp = Span.begin_ t.sim ~cat:"fault" ~name:"service_stall" in
  Resource.use t.service_cpus ~work:duration (fun () -> ());
  Span.end_with t.sim sp (fun () ->
      [ ("duration_ns", Printf.sprintf "%.0f" duration) ])

let attach_hfi1 t hfi =
  let drv =
    Hfi1_driver.probe t.sim ~node:t.node ~hfi ~slab:t.slab ~gup:t.gup
      ~vfs:t.vfs
  in
  t.hfi1 <- Some drv;
  drv

let hfi1 t =
  match t.hfi1 with
  | Some d -> d
  | None -> invalid_arg "Kernel.hfi1: driver not attached"

let noise_clock t =
  Noise.create t.sim ~rng:(Rng.split t.rng) ~nohz_full:t.nohz_full

let syscall t ?profile ~name f =
  let started = Sim.now t.sim in
  let sp = Span.begin_ t.sim ~cat:"syscall" ~name in
  let lg = Ledger.begin_prefixed t.sim ~prefix:"syscall/" ~name in
  Sim.delay t.sim (Costs.current ()).linux_syscall;
  Ledger.mark t.sim lg ~phase:"linux_crossing";
  let finish () =
    (match profile with
     | Some reg -> Stats.Registry.add reg name (Sim.now t.sim -. started)
     | None -> ());
    Span.end_ t.sim sp;
    Ledger.close t.sim lg ~phase:"service"
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* Per-kernel, not a global counter: every simulated world must be
   self-contained so experiments stay deterministic when run in
   parallel domains. *)
let next_pid t =
  t.next_pid_counter <- t.next_pid_counter + 1;
  t.next_pid_counter

let new_process t =
  Uproc.create ~node:t.node ~pid:(next_pid t)
