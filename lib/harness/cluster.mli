(** Build a simulated cluster under one of the paper's three OS
    configurations:

    - [Linux]: Fujitsu's HPC-optimised production Linux (nohz_full on
      application cores, native syscalls into the HFI1 driver);
    - [Mckernel]: IHK/McKernel with {e all} driver calls offloaded to
      Linux (the "original McKernel" columns);
    - [Mckernel_hfi]: McKernel plus the HFI1 PicoDriver (unified address
      space, local fast paths). *)

open H_import

type os_kind = Linux | Mckernel | Mckernel_hfi

type node_env = {
  node : Node.t;
  hfi : Hfi.t;
  linux : Lkernel.t;
  driver : Hfi1_driver.t;
  mlx : Pico_linux.Mlx_driver.t;
  mck : Mck.t option;
  pico : Hfi1_pico.t option;
  mlx_pico : Pico_driver.Mlx_pico.t option;
}

type t = {
  sim : Sim.t;
  fabric : Fabric.t;
  kind : os_kind;
  nodes : node_env array;
  carry_payload : bool;
  rng : Rng.t;
  uid : int;
      (** host-side identity used by the observability collectors to
          count a re-measured cluster once; allocation-order-dependent,
          so it must never feed a simulated or reported value *)
}

(** Process-wide count of sharding requests refused on unshardable
    configs (see {!build}).  {!Engine_obs.measure} reports the
    per-figure delta as the zero-omitted [engine/shards/refused] key;
    figures note a nonzero delta in their header. *)
val shard_refusals : unit -> int

(** [build kind ~n_nodes] assembles the cluster.  [topology] shapes the
    interconnect (default {!Topology.Flat}, the calibrated model every
    paper figure uses).

    [sharding] (default [false]) partitions the event population per
    node ({!Sim.shard_init}, lookahead = [link_latency]).  Only flat
    multi-node worlds with a positive finite [link_latency] shard; a
    request on any other config runs unsharded and is counted in
    {!shard_refusals}.  Simulation results are bit-identical to the
    unsharded run that shares its arrival order.

    [ordered_arrivals] (default [false]) builds the fabric with
    [Fabric.create ~ordered:true], delivering same-instant arrivals in
    content order.  Sharded clusters force it; unsharded comparator
    runs pass it to share that tie-break, since shard-on/off
    byte-identity only holds between runs that do.  Calibrated figures
    keep the historical order.
    @raise Invalid_argument with [ordered_arrivals] on a non-flat
    topology.

    [carry_payload] turns on end-to-end data fidelity
    (tests/examples; off for large sweeps).  Each node reserves 4 CPUs
    for OS activity, as on Oakforest-PACS. *)
val build :
  os_kind ->
  n_nodes:int ->
  ?topology:Topology.t ->
  ?sharding:bool ->
  ?ordered_arrivals:bool ->
  ?carry_payload:bool ->
  ?lwk_cores:int ->
  ?seed:int64 ->
  ?rcv_entries:int ->
  unit ->
  t

val kind_to_string : os_kind -> string

val node_env : t -> int -> node_env

(** Aggregated McKernel kernel-profiler registries (empty for Linux). *)
val kernel_profiles : t -> Stats.Registry.t list
