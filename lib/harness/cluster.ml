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
}

let kind_to_string = function
  | Linux -> "Linux"
  | Mckernel -> "McKernel"
  | Mckernel_hfi -> "McKernel+HFI1"

(* Host-side identity for the observability collectors (never part of
   any simulated or reported value: allocation order varies with the
   worker-domain schedule). *)
let next_uid = Atomic.make 0

(* Process-wide count of sharding requests refused on unshardable
   configs (single-node cluster, fat-tree, degenerate cost table).
   Host-side observability only — Engine_obs reports the per-figure
   delta as the zero-omitted engine/shards/refused key, and figure
   headers note it.  Lives here rather than in Engine_obs to keep the
   module graph acyclic (Engine_obs -> Subsys_obs -> Cluster). *)
let shard_refused = Atomic.make 0

let note_shard_refused () = Atomic.incr shard_refused

let shard_refusals () = Atomic.get shard_refused

let build kind ~n_nodes ?topology ?(sharding = false)
    ?(ordered_arrivals = false) ?(carry_payload = false) ?(lwk_cores = 64)
    ?(seed = 0x5EEDL) ?rcv_entries () =
  if n_nodes <= 0 then invalid_arg "Cluster.build: n_nodes must be > 0";
  let sim = Sim.create () in
  Sim.set_label sim (Printf.sprintf "%s/%dn" (kind_to_string kind) n_nodes);
  let topo = match topology with None -> Topology.Flat | Some to_ -> to_ in
  (* Per-node event sharding: on a flat fabric every cross-node coupling
     crosses the wire, one full link_latency out, so that is the epoch
     lookahead.  Fat-tree worlds do not shard (DESIGN.md section 12: the
     per-link decomposition measured slower than the unsharded walk).  A
     request on a fat-tree, a single-node cluster, or a cost table whose
     link_latency is not positive and finite runs unsharded and is
     counted ([note_shard_refused]), never silently dropped. *)
  let c = Costs.current () in
  let sharded =
    sharding && n_nodes > 1 && Topology.is_flat topo
    && Float.is_finite c.link_latency && c.link_latency > 0.
  in
  if sharded then Sim.shard_init sim ~shards:n_nodes ~lookahead:c.link_latency
  else if sharding then note_shard_refused ();
  let fabric =
    Fabric.create ~topology:topo ~ordered:(sharded || ordered_arrivals) sim
  in
  let rng = Rng.create ~seed in
  let make_node id = Sim.with_shard sim id @@ fun () ->
    let node = Node.create_knl sim ~id () in
    let hfi = Hfi.create sim ~node ~fabric ~carry_payload ?rcv_entries () in
    let linux =
      (* 4 CPUs per node serve OS activity, as on Oakforest-PACS. *)
      Lkernel.boot sim ~node ~service_cores:4
        ~nohz_full:true (* Fujitsu's HPC-optimised production setting *)
        ~rng:(Rng.split rng)
    in
    let driver = Lkernel.attach_hfi1 linux hfi in
    let mlx =
      Pico_linux.Mlx_driver.probe sim ~node ~slab:linux.Lkernel.slab
        ~gup:linux.Lkernel.gup ~vfs:linux.Lkernel.vfs
    in
    let mck, pico, mlx_pico =
      match kind with
      | Linux -> (None, None, None)
      | Mckernel | Mckernel_hfi ->
        let partition =
          Partition.reserve node ~lwk_cores
            ~lwk_mem_bytes:(Node.memory_bytes node / 2)
        in
        let vspace_kind =
          match kind with
          | Mckernel -> Vspace.Original
          | Mckernel_hfi | Linux -> Vspace.Unified
        in
        let mck = Mck.boot sim ~node ~linux ~partition ~vspace_kind in
        let pico, mlx_pico =
          match kind with
          | Mckernel_hfi ->
            let p =
              match
                Hfi1_pico.attach mck ~linux_driver:driver
                  ~module_sections:(Hfi1_structs.module_binary ())
              with
              | Ok p -> p
              | Error e -> invalid_arg ("Cluster.build: " ^ e)
            in
            let mp =
              match Pico_driver.Mlx_pico.attach mck ~linux_driver:mlx with
              | Ok mp -> mp
              | Error e -> invalid_arg ("Cluster.build: " ^ e)
            in
            (Some p, Some mp)
          | Mckernel | Linux -> (None, None)
        in
        (Some mck, pico, mlx_pico)
    in
    { node; hfi; linux; driver; mlx; mck; pico; mlx_pico }
  in
  { sim; fabric; kind; nodes = Array.init n_nodes make_node;
    carry_payload; rng; uid = Atomic.fetch_and_add next_uid 1 }

let node_env t i = t.nodes.(i)

let kernel_profiles t =
  Array.to_list t.nodes
  |> List.filter_map (fun ne ->
         match ne.mck with Some m -> Some (Mck.kprofile m) | None -> None)
