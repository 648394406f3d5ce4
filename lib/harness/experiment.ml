open H_import

type result = {
  fom_ns : float;
  wall_ns : float;
  init_ns : float;
  comms : Comm.t list;
  cluster : Cluster.t;
}

let run (cl : Cluster.t) ~ranks_per_node app =
  if ranks_per_node <= 0 then
    invalid_arg "Experiment.run: ranks_per_node must be > 0";
  let sim = cl.Cluster.sim in
  let n_nodes = Array.length cl.Cluster.nodes in
  let world = n_nodes * ranks_per_node in
  let peers = Array.make world (0, 0) in
  let eps = Array.make world None in
  let comms = Array.make world None in
  let foms = Array.make world 0. in
  let inits = Array.make world 0. in
  let finished = Array.make world false in
  let ready = Syncpoint.create sim ~parties:world in
  let errors = ref [] in
  let started = Sim.now sim in
  for rank = 0 to world - 1 do
    let node_idx = rank / ranks_per_node in
    Sim.spawn sim ~name:(Printf.sprintf "rank%d" rank) ~shard:node_idx
      (fun () ->
        try
          (* Device bring-up, accounted as MPI_Init. *)
          let t0 = Sim.now sim in
          let env = Osconfig.init_rank cl ~node_idx ~rank in
          let ep = Endpoint.create env.Osconfig.os in
          (* MPI library bootstrap: PMI wire-up rounds grow with the job
             size (visible as MPI_Init on every OS configuration). *)
          let rounds = max 1 (int_of_float (Float.log2 (float_of_int world))) in
          Sim.delay sim
            ((Costs.current ()).Costs.mpi_init_base
             +. (float_of_int rounds *. (Costs.current ()).Costs.mpi_init_per_round));
          let comm = Comm.create ep ~size:world in
          Stats.Registry.add comm.Comm.profile "MPI_Init" (Sim.now sim -. t0);
          inits.(rank) <- Sim.now sim -. t0;
          (* Runtime (%Rt denominator) includes initialisation. *)
          comm.Comm.start_time <- t0;
          peers.(rank) <-
            (node_idx, Hfi.ctx_id env.Osconfig.os.Endpoint.ctx);
          eps.(rank) <- Some ep;
          comms.(rank) <- Some comm;
          Syncpoint.arrive ready;
          (* Bring-up is over: every zero-latency cross-node coupling
             (the syncpoint above) is behind us, so the engine may leave
             the merged prologue for epoch-barrier rounds.  No-op when
             sharding is off; idempotent across ranks. *)
          Sim.shard_engage sim;
          Endpoint.connect ep ~peers;
          let fom = app comm in
          foms.(rank) <- fom;
          finished.(rank) <- true
        with e ->
          (* Record and stop this rank; peers blocked on it simply never
             resume, the event queue drains, and the run is reported as
             failed below with the original error. *)
          errors := (rank, e) :: !errors)
  done;
  ignore (Sim.run sim);
  Engine_obs.note_sim sim;
  Subsys_obs.note_cluster cl;
  (match !errors with
   | [] -> ()
   | (rank, e) :: _ ->
     failwith
       (Printf.sprintf "Experiment.run: rank %d raised %s" rank
          (Printexc.to_string e)));
  (* A rank still blocked when the queue drained (a deadlock, or a wait
     nothing will ever satisfy) would otherwise report a plausible FOM
     of 0 ns. *)
  (match List.filter (fun r -> not finished.(r)) (List.init world Fun.id) with
   | [] -> ()
   | hung ->
     failwith
       (Printf.sprintf "Experiment.run: %s: rank(s) %s did not finish"
          (Sim.label sim)
          (String.concat ", " (List.map string_of_int hung))));
  let all_comms =
    Array.to_list comms
    |> List.map (function Some c -> c | None -> failwith "rank did not start")
  in
  let fom_ns = Array.fold_left Float.max 0. foms in
  let init_ns = Array.fold_left Float.max 0. inits in
  { fom_ns; wall_ns = Sim.now sim -. started; init_ns; comms = all_comms;
    cluster = cl }

let merged_mpi_profile r =
  let out = Stats.Registry.create () in
  List.iter
    (fun c -> Stats.Registry.merge_into ~dst:out ~src:c.Comm.profile)
    r.comms;
  out

let merged_kernel_profile r =
  match Cluster.kernel_profiles r.cluster with
  | [] -> None
  | regs ->
    let out = Stats.Registry.create () in
    List.iter (fun src -> Stats.Registry.merge_into ~dst:out ~src) regs;
    Some out

let total_runtime_ns r =
  List.fold_left (fun acc c -> acc +. Comm.runtime_ns c) 0. r.comms
