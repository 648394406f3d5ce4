(** Central cost model: every latency/bandwidth constant of the simulated
    platform in one place.

    Values are calibrated against published OmniPath/KNL numbers and the
    shapes reported in the paper; EXPERIMENTS.md discusses the calibration.
    All times in nanoseconds, bandwidths in bytes/ns (= GB/s). *)

type t = {
  (* --- fabric / HFI --- *)
  mutable link_bandwidth : float;      (** bytes per ns; 12.5 = 100 Gb/s *)
  mutable link_latency : float;        (** wire + switch latency, ns *)
  mutable loopback_latency : float;    (** same-node delivery, ns *)
  mutable switch_latency : float;
  (** per-hop switch traversal under a fat-tree topology, ns (the default
      flat fabric never reads it) *)
  mutable sdma_request_overhead : float; (** engine per-descriptor cost, ns *)
  mutable packet_overhead_bytes : int;
  (** per-packet wire/protocol overhead (headers, LTP, credits): every
      SDMA request and PIO fragment is one fabric packet, so small
      requests waste link capacity — the physical root of the 4 kB vs
      10 kB gap *)
  mutable sdma_max_request : int;      (** hardware max, 10 kB *)
  mutable sdma_engines : int;          (** 16 on HFI1 *)
  mutable pio_packet_size : int;       (** per-packet PIO payload, bytes *)
  mutable pio_cpu_bandwidth : float;   (** CPU->device copy, bytes/ns *)
  mutable pio_packet_overhead : float; (** per-packet CPU cost, ns *)
  mutable mmio_write : float;          (** one device register write, ns *)
  mutable irq_dispatch : float;        (** hw IRQ -> handler start, ns *)
  (* --- kernels --- *)
  mutable linux_syscall : float;       (** Linux entry/exit, ns *)
  mutable lwk_syscall : float;         (** McKernel entry/exit, ns *)
  mutable gup_per_page : float;        (** get_user_pages, per 4 kB page *)
  mutable ptwalk_per_page : float;     (** LWK direct page-table walk *)
  mutable kmalloc : float;
  mutable kfree : float;
  mutable kfree_remote : float;        (** LWK kfree invoked on a Linux CPU *)
  mutable spinlock_uncontended : float;
  mutable memcpy_bandwidth : float;    (** kernel copy, bytes/ns *)
  (* --- offloading (IHK/IKC) --- *)
  mutable ikc_message : float;         (** one-way IKC message, ns *)
  mutable proxy_dispatch : float;      (** proxy-process wakeup + call, ns *)
  mutable proxy_oversub_penalty : float;
  (** extra scheduling/context-switch cost per offloaded call, per unit of
      proxy-process oversubscription of the Linux service CPUs *)
  mutable offload_linux_cpu_work : float; (** base delegator service, ns *)
  (* --- OS noise --- *)
  mutable noise_interval : float;      (** mean gap between noise events *)
  mutable noise_duration : float;      (** mean duration of one event *)
  mutable nohz_full_factor : float;    (** multiplier on noise when nohz_full *)
  (* --- MPI --- *)
  mutable mpi_init_base : float;       (** library bootstrap per rank, ns *)
  mutable mpi_init_per_round : float;  (** + this per log2(world) PMI round *)
  (* --- PicoDriver --- *)
  mutable pico_init : float;           (** one-time LWK driver mapping init *)
  (* --- fault injection (all rates zero by default) --- *)
  mutable fault_sdma_halt_interval : float;
  (** mean ns between SDMA engine halt faults per node; 0 = never *)
  mutable fault_sdma_recovery : float;
  (** halted dwell before the driver may restart the engine, ns *)
  mutable fault_sdma_restart : float;
  (** Listing 1 restart walk (sw/hw clean-up to s99_running), ns *)
  mutable fault_ikc_drop : float;      (** P(one IKC request is dropped) *)
  mutable fault_wire_crc : float;      (** P(one wire packet is corrupted) *)
  mutable fault_service_stall_interval : float;
  (** mean ns between Linux service-CPU stalls per node; 0 = never *)
  mutable fault_service_stall_duration : float;
  (** length of one service-CPU stall, ns *)
  mutable fault_horizon : float;
  (** simulated-time window faults are drawn in; 0 disables all faults *)
  (* --- fabric fault domain (all rates zero by default) --- *)
  mutable fault_link_down_interval : float;
  (** mean ns between down windows per fabric link; 0 = never *)
  mutable fault_link_down_duration : float;
  (** length of one link down window, ns *)
  mutable fault_link_derate_interval : float;
  (** mean ns between bandwidth-derate windows per link; 0 = never *)
  mutable fault_link_derate_duration : float;
  (** length of one derate window, ns *)
  mutable fault_link_derate_factor : float;
  (** remaining bandwidth fraction inside a derate window, in (0, 1] —
      a derate may only slow a link *)
  mutable fault_link_corrupt : float;
  (** P(one link transit is corrupted and replayed) *)
  (* --- IKC robustness (armed only when a drop fault is installed) --- *)
  mutable ikc_timeout : float;         (** requester-side round-trip timeout *)
  mutable ikc_retry_backoff : float;   (** extra wait per retry (linear) *)
  mutable ikc_max_retries : int;       (** attempts before Offload_timeout *)
  (* --- fabric robustness (armed only when a link fault is installed) --- *)
  mutable fabric_retry_backoff : float;
  (** extra PSM send wait per unreachable-route retry (linear) *)
  mutable fabric_max_retries : int;
  (** route retries before the flow counts as degraded *)
  (* --- service workload (picobench serve; off by default) --- *)
  mutable serve_horizon : float;
  (** open-loop arrival window, ns of simulated time; 0 disables serve *)
  mutable serve_arrival_interval : float;
  (** mean inter-arrival gap per client, ns; 0 disables serve *)
  mutable serve_burst_interval : float;
  (** mean gap between burst episodes, ns; 0 = no bursts *)
  mutable serve_burst_duration : float;  (** length of one burst episode, ns *)
  mutable serve_burst_factor : float;
  (** arrival-rate multiplier inside a burst episode *)
  mutable serve_req_bytes : int;         (** mean request size, bytes *)
  mutable serve_resp_min : int;
  (** bounded-Pareto response floor, bytes *)
  mutable serve_resp_max : int;
  (** bounded-Pareto response cap, bytes (must fit 24 bits) *)
  mutable serve_resp_alpha : float;      (** bounded-Pareto shape *)
  mutable serve_fanout : int;
  (** shard replicas per request (incast width) *)
  mutable serve_workers : int;           (** service processes per server *)
  mutable serve_service_base : float;    (** per-request compute, ns *)
  mutable serve_service_per_byte : float;
  (** + this per response byte, ns *)
  mutable serve_admit_cap : int;
  (** max queued+inflight per server before shedding; 0 = unbounded *)
  mutable serve_breaker_threshold : int;
  (** consecutive client failures to trip the breaker; 0 = no breaker *)
  mutable serve_breaker_backoff : float;
  (** half-open probe delay, linear in consecutive trips, ns *)
  mutable serve_timeout : float;
  (** client-side deadline; completions past it count failed; 0 = none *)
}

(** The live configuration of the calling domain (mutable, read by all
    models).  Each OCaml domain owns an independent table ([Domain.DLS]):
    a fresh domain starts from {!defaults}, and mutations — including
    {!with_patched} and ablation-style field pokes — stay local to the
    domain that made them.  The harness pool propagates the submitting
    domain's table to its workers via {!snapshot}/{!restore}.
    {!with_patched}, {!restore} and {!reset} install a new record rather
    than overwrite this one, so a record fetched before them keeps its
    old values: read it again after a patch scope opens or closes. *)
val current : unit -> t

(** Fresh copy of the calibrated defaults. *)
val defaults : unit -> t

(** Independent copy of an arbitrary table. *)
val copy : t -> t

(** Independent copy of the calling domain's live table. *)
val snapshot : unit -> t

(** Install a copy of the given table as the calling domain's live
    table. *)
val restore : t -> unit

(** Install fresh calibrated defaults as the calling domain's live table
    (used by tests). *)
val reset : unit -> unit

(** Run [f] with the calling domain's [current] temporarily replaced by a
    patched copy; the saved record is put back when [f] returns or
    raises. *)
val with_patched : (t -> unit) -> (unit -> 'a) -> 'a
