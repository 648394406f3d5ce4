type t = {
  mutable link_bandwidth : float;
  mutable link_latency : float;
  mutable loopback_latency : float;
  mutable switch_latency : float;
  mutable sdma_request_overhead : float;
  mutable packet_overhead_bytes : int;
  mutable sdma_max_request : int;
  mutable sdma_engines : int;
  mutable pio_packet_size : int;
  mutable pio_cpu_bandwidth : float;
  mutable pio_packet_overhead : float;
  mutable mmio_write : float;
  mutable irq_dispatch : float;
  mutable linux_syscall : float;
  mutable lwk_syscall : float;
  mutable gup_per_page : float;
  mutable ptwalk_per_page : float;
  mutable kmalloc : float;
  mutable kfree : float;
  mutable kfree_remote : float;
  mutable spinlock_uncontended : float;
  mutable memcpy_bandwidth : float;
  mutable ikc_message : float;
  mutable proxy_dispatch : float;
  mutable proxy_oversub_penalty : float;
  mutable offload_linux_cpu_work : float;
  mutable noise_interval : float;
  mutable noise_duration : float;
  mutable nohz_full_factor : float;
  mutable mpi_init_base : float;
  mutable mpi_init_per_round : float;
  mutable pico_init : float;
  mutable fault_sdma_halt_interval : float;
  mutable fault_sdma_recovery : float;
  mutable fault_sdma_restart : float;
  mutable fault_ikc_drop : float;
  mutable fault_wire_crc : float;
  mutable fault_service_stall_interval : float;
  mutable fault_service_stall_duration : float;
  mutable fault_horizon : float;
  mutable fault_link_down_interval : float;
  mutable fault_link_down_duration : float;
  mutable fault_link_derate_interval : float;
  mutable fault_link_derate_duration : float;
  mutable fault_link_derate_factor : float;
  mutable fault_link_corrupt : float;
  mutable ikc_timeout : float;
  mutable ikc_retry_backoff : float;
  mutable ikc_max_retries : int;
  mutable fabric_retry_backoff : float;
  mutable fabric_max_retries : int;
  mutable serve_horizon : float;
  mutable serve_arrival_interval : float;
  mutable serve_burst_interval : float;
  mutable serve_burst_duration : float;
  mutable serve_burst_factor : float;
  mutable serve_req_bytes : int;
  mutable serve_resp_min : int;
  mutable serve_resp_max : int;
  mutable serve_resp_alpha : float;
  mutable serve_fanout : int;
  mutable serve_workers : int;
  mutable serve_service_base : float;
  mutable serve_service_per_byte : float;
  mutable serve_admit_cap : int;
  mutable serve_breaker_threshold : int;
  mutable serve_breaker_backoff : float;
  mutable serve_timeout : float;
}

let defaults () = {
  (* OmniPath: 100 Gb/s = 12.5 GB/s, ~1 us end-to-end latency. *)
  link_bandwidth = 12.5;
  link_latency = 1_000.;
  (* Same-node delivery never touches the wire. *)
  loopback_latency = 200.;
  (* Per-hop switch traversal when a fat-tree topology is configured; the
     default flat fabric charges link_latency only, so this value is
     never read there. *)
  switch_latency = 150.;
  (* SDMA engine: per-descriptor fetch/fill/doorbell cost.  With 4 kB
     descriptors this caps a single stream around 9.3 GB/s; with 10 kB
     descriptors around 10.9 GB/s — the Fig. 4 gap. *)
  sdma_request_overhead = 30.;
  packet_overhead_bytes = 800;
  sdma_max_request = 10_240;
  sdma_engines = 16;
  (* PIO: 8 kB packets, CPU-driven store to device (KNL cores are slow). *)
  pio_packet_size = 8_192;
  pio_cpu_bandwidth = 5.0;
  pio_packet_overhead = 250.;
  mmio_write = 120.;
  irq_dispatch = 500.;
  (* KNL in-order Atom-class cores: syscalls are not cheap. *)
  linux_syscall = 700.;
  lwk_syscall = 250.;
  gup_per_page = 40.;
  ptwalk_per_page = 60.;
  kmalloc = 150.;
  kfree = 120.;
  kfree_remote = 260.;
  spinlock_uncontended = 40.;
  memcpy_bandwidth = 6.0;
  (* IKC: cache-line ping across kernels + IPI. *)
  ikc_message = 1_200.;
  proxy_dispatch = 6_000.;
  proxy_oversub_penalty = 10_000.;
  offload_linux_cpu_work = 800.;
  (* Residual daemon/timer activity every ~1 ms costing ~25 us on stock
     Linux cores; nohz_full removes ~85 % of it on application cores. *)
  noise_interval = 1.0e6;
  noise_duration = 2.5e4;
  nohz_full_factor = 0.15;
  (* MPI library bootstrap (PMI exchange, PSM endpoint setup): base plus
     a per-log2(world) wire component, charged in MPI_Init on every OS. *)
  mpi_init_base = 1.5e6;
  mpi_init_per_round = 2.0e4;
  (* One-time PicoDriver initialisation: DWARF mapping setup, kernel VA
     unification bookkeeping (paper: visible in MPI_Init). *)
  pico_init = 5.0e6;
  (* Fault injection: every rate is off by default — the sunny-day model
     is byte-identical to the pre-fault tree.  Intervals are mean gaps of
     an exponential inter-arrival process; the schedule is drawn from the
     experiment seed up to fault_horizon ns of simulated time. *)
  fault_sdma_halt_interval = 0.;
  (* Engine dwell halted (firmware dump + hardware clean-up) before the
     host driver may restart it, and the restart walk itself. *)
  fault_sdma_recovery = 2.0e6;
  fault_sdma_restart = 5.0e4;
  fault_ikc_drop = 0.;
  fault_wire_crc = 0.;
  fault_service_stall_interval = 0.;
  fault_service_stall_duration = 5.0e5;
  fault_horizon = 0.;
  (* Fabric fault domain: link down/up windows, bandwidth-derate windows
     and per-link corrupt-and-replay, all drawn from the experiment seed
     up to fault_horizon (DESIGN.md section 14).  Rates off by default —
     the immortal fabric is byte-identical to the pre-fault tree. *)
  fault_link_down_interval = 0.;
  fault_link_down_duration = 1.0e6;
  fault_link_derate_interval = 0.;
  fault_link_derate_duration = 4.0e6;
  (* Remaining bandwidth fraction inside a derate window; must stay in
     (0, 1] so a derate only ever slows a link. *)
  fault_link_derate_factor = 0.5;
  fault_link_corrupt = 0.;
  (* IKC robustness: requester-side timeout on the offload round trip,
     linear backoff per retry, bounded attempts.  Only exercised when a
     drop fault is installed — the legacy no-fault path never arms them. *)
  ikc_timeout = 5.0e4;
  ikc_retry_backoff = 2.5e4;
  ikc_max_retries = 5;
  (* Transport-level recovery from a partitioned fabric: PSM sends poll
     the route with linear backoff, then count the flow degraded (the
     packet parks at egress until a link returns) rather than hang. *)
  fabric_retry_backoff = 5.0e4;
  fabric_max_retries = 5;
  (* Service workload (picobench serve, DESIGN.md section 15): an
     open-loop sharded RPC scenario.  Off by default — with horizon or
     interval at 0 the arrival plan is empty, no serve RNG split is
     taken, and no serve process ever spawns, so every legacy figure is
     byte-identical to the pre-serve tree. *)
  serve_horizon = 0.;
  serve_arrival_interval = 0.;
  (* Burst episodes: exponential gaps between windows of [duration] ns
     during which the arrival rate is multiplied by [factor]. *)
  serve_burst_interval = 0.;
  serve_burst_duration = 2.0e5;
  serve_burst_factor = 4.0;
  (* Request/response sizes: requests exponential around the mean,
     responses bounded-Pareto (heavy tail is what rendezvous replies —
     and thus the OS fast-path crossing — land on). *)
  serve_req_bytes = 512;
  serve_resp_min = 4_096;
  serve_resp_max = 1_048_576;
  serve_resp_alpha = 1.3;
  (* Fan out each client request to this many consecutive shard
     replicas and wait for the slowest (incast). *)
  serve_fanout = 3;
  serve_workers = 2;
  serve_service_base = 2.5e3;
  serve_service_per_byte = 0.05;
  (* Admission control and circuit breaker: 0 disables (legacy).  The
     cap bounds queued+inflight requests per server; over it the server
     sheds with an eager reject reply.  The breaker opens after
     [threshold] consecutive client-side failures and half-open probes
     with linear backoff per consecutive trip. *)
  serve_admit_cap = 0;
  serve_breaker_threshold = 0;
  serve_breaker_backoff = 3.0e5;
  serve_timeout = 0.;
}

(* One table per domain: parallel sweeps (harness pool workers) each get
   their own copy, so [with_patched]/ablation mutations in one domain can
   never leak into experiments running in another.  A fresh domain starts
   from the calibrated defaults; the harness pool overrides that by
   [restore]-ing a snapshot of the submitting domain's table into the
   worker before each job. *)
let dls_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> defaults ())

let current () = Domain.DLS.get dls_key

let copy src = { src with link_bandwidth = src.link_bandwidth }

let snapshot () = copy (current ())

(* Patching swaps records: the patched copy is installed for the scope
   of [f] and the saved record put back after, so a record fetched
   before a patch or reset keeps its old values. *)
let restore src = Domain.DLS.set dls_key (copy src)

let reset () = Domain.DLS.set dls_key (defaults ())

let with_patched patch f =
  let saved = current () in
  let patched = copy saved in
  patch patched;
  Domain.DLS.set dls_key patched;
  Fun.protect ~finally:(fun () -> Domain.DLS.set dls_key saved) f
