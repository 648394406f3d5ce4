open H_import

type halt = {
  h_node : int;
  h_engine : int;
  h_at : float;
}

type stall = {
  s_node : int;
  s_at : float;
}

type plan = {
  halts : halt list;
  stalls : stall list;
}

(* Draw one node's schedule and Bernoulli streams.  The four sub-streams
   are split from [nrng] unconditionally, in a fixed order, so a zero
   rate for one fault class never shifts another class's draws — the
   plan for a given seed is stable under knob changes elsewhere. *)
let node_schedule nrng ~n_engines =
  let halt_rng = Rng.split nrng in
  let stall_rng = Rng.split nrng in
  let drop_rng = Rng.split nrng in
  let crc_rng = Rng.split nrng in
  let c = Costs.current () in
  let arrivals rng ~mean ~draw =
    if mean <= 0. || c.Costs.fault_horizon <= 0. then []
    else begin
      let rec go t acc =
        let t = t +. Rng.exponential rng ~mean in
        if t >= c.Costs.fault_horizon then List.rev acc
        else go t (draw rng t :: acc)
      in
      go 0. []
    end
  in
  let halts =
    arrivals halt_rng ~mean:c.Costs.fault_sdma_halt_interval
      ~draw:(fun rng t -> (t, Rng.int rng n_engines))
  in
  let stalls =
    arrivals stall_rng ~mean:c.Costs.fault_service_stall_interval
      ~draw:(fun _ t -> t)
  in
  (halts, stalls, drop_rng, crc_rng)

let plan ~rng ~n_nodes ~n_engines =
  let acc_halts = ref [] and acc_stalls = ref [] in
  for i = 0 to n_nodes - 1 do
    let nrng = Rng.split rng in
    let halts, stalls, _, _ = node_schedule nrng ~n_engines in
    acc_halts :=
      !acc_halts
      @ List.map (fun (at, e) -> { h_node = i; h_engine = e; h_at = at }) halts;
    acc_stalls := !acc_stalls @ List.map (fun at -> { s_node = i; s_at = at }) stalls
  done;
  { halts = !acc_halts; stalls = !acc_stalls }

let node_armed () =
  let c = Costs.current () in
  c.Costs.fault_horizon > 0.
  && (c.Costs.fault_sdma_halt_interval > 0.
      || c.Costs.fault_ikc_drop > 0.
      || c.Costs.fault_wire_crc > 0.
      || c.Costs.fault_service_stall_interval > 0.)

let fabric_armed () =
  let c = Costs.current () in
  c.Costs.fault_horizon > 0.
  && (c.Costs.fault_link_down_interval > 0.
      || c.Costs.fault_link_derate_interval > 0.
      || c.Costs.fault_link_corrupt > 0.)

let armed () = node_armed () || fabric_armed ()

(* One process per halt event: walk the Linux driver through Listing 1
   (halt -> dwell -> restart walk -> running).  Overlapping events on an
   already-halted engine are skipped, so recovery runs exactly once per
   effective halt. *)
let schedule_halts sim (env : Cluster.node_env) halts =
  List.iter
    (fun (at, engine) ->
      Sim.spawn sim
        ~name:
          (Printf.sprintf "fault-halt-n%d-e%d" env.Cluster.node.Node.id engine)
        (fun () ->
          Sim.delay_until sim at;
          if
            not
              (Sdma.engine_halted (Hfi.sdma env.Cluster.hfi) ~engine)
          then begin
            let c = Costs.current () in
            Hfi1_driver.halt_engine env.Cluster.driver ~engine_idx:engine;
            Sim.delay sim c.Costs.fault_sdma_recovery;
            Hfi1_driver.begin_engine_recovery env.Cluster.driver
              ~engine_idx:engine;
            Sim.delay sim c.Costs.fault_sdma_restart;
            Hfi1_driver.recover_engine env.Cluster.driver ~engine_idx:engine
          end))
    halts

let schedule_stalls sim (env : Cluster.node_env) stalls =
  List.iter
    (fun at ->
      Sim.spawn sim
        ~name:(Printf.sprintf "fault-stall-n%d" env.Cluster.node.Node.id)
        (fun () ->
          Sim.delay_until sim at;
          Lkernel.service_stall env.Cluster.linux
            ~duration:(Costs.current ()).Costs.fault_service_stall_duration))
    stalls

let install (cl : Cluster.t) =
  if node_armed () then begin
    let c = Costs.current () in
    (* Split AFTER Cluster.build consumed its per-node noise streams, so
       arming faults never perturbs the sunny-day draws. *)
    let frng = Rng.split cl.Cluster.rng in
    Array.iter
      (fun (env : Cluster.node_env) ->
        (* Fault processes act on one node's engines/kernel: they belong
           to that node's event shard (identity when sharding is off). *)
        Sim.with_shard cl.Cluster.sim env.Cluster.node.Node.id @@ fun () ->
        let nrng = Rng.split frng in
        let halts, stalls, drop_rng, crc_rng =
          node_schedule nrng
            ~n_engines:(Sdma.n_engines (Hfi.sdma env.Cluster.hfi))
        in
        schedule_halts cl.Cluster.sim env halts;
        schedule_stalls cl.Cluster.sim env stalls;
        if c.Costs.fault_ikc_drop > 0. then begin
          match env.Cluster.mck with
          | Some m ->
            Delegator.set_fault_drop (Mck.delegator m)
              (Some
                 (fun () ->
                   Rng.float drop_rng < (Costs.current ()).Costs.fault_ikc_drop))
          | None -> ()
        end;
        if c.Costs.fault_wire_crc > 0. then
          Hfi.set_crc_fault env.Cluster.hfi
            (Some
               (fun () ->
                 Rng.float crc_rng < (Costs.current ()).Costs.fault_wire_crc)))
      cl.Cluster.nodes
  end;
  (* Fabric fault domain (DESIGN.md section 14): one split, taken after
     the node-fault streams so arming it never shifts their draws — and
     taken at all only when some fabric rate is nonzero, so at all-zero
     fabric rates the cluster RNG is untouched (the zero-rate no-op
     guarantee extends to the new streams; picobench faults asserts
     it). *)
  if fabric_armed () then begin
    let lrng = Rng.split cl.Cluster.rng in
    Fabric.set_link_faults cl.Cluster.fabric
      (Some
         (Linkfault.draw ~rng:lrng ~n_nodes:(Array.length cl.Cluster.nodes)
            (Fabric.topology cl.Cluster.fabric)))
  end
