(* Quickstart: bring up a two-node McKernel+PicoDriver cluster with full
   data fidelity, send one rendezvous message through the whole stack
   (PSM -> LWK fast path -> SDMA -> fabric -> TID placement) and check the
   bytes arrived intact.

   Run with: dune exec examples/quickstart.exe *)

module H = Pico_harness
module Endpoint = Pico_psm.Endpoint
module Workload = Pico_apps.Workload

let () =
  (* 1. Build the cluster: two KNL nodes, OmniPath fabric, Linux +
        McKernel with the HFI1 PicoDriver installed. *)
  let cluster =
    H.Cluster.build H.Cluster.Mckernel_hfi ~n_nodes:2 ~carry_payload:true ()
  in

  (* 2. Run a two-rank MPI program: rank 0 sends 1 MB to rank 1. *)
  let len = 1024 * 1024 in
  let pattern i = Char.chr ((i * 31 + 7) land 0xff) in
  let received = ref None in
  let result =
    H.Experiment.run cluster ~ranks_per_node:1 (fun comm ->
        let buf = Workload.alloc comm len in
        let os = Workload.os comm in
        if comm.Pico_mpi.Comm.rank = 0 then begin
          os.Endpoint.write_user buf (Bytes.init len pattern);
          Pico_mpi.Mpi.send comm ~dst:1 ~tag:42 ~va:buf ~len
        end
        else begin
          Pico_mpi.Mpi.recv comm ~src:(Some 0) ~tag:42 ~va:buf ~len;
          received := Some (os.Endpoint.read_user buf len)
        end;
        Pico_mpi.Collectives.barrier comm;
        0.)
  in

  (* 3. Verify end-to-end data integrity. *)
  (match !received with
   | None -> failwith "no data received"
   | Some data ->
     let ok = ref true in
     for i = 0 to len - 1 do
       if Bytes.get data i <> pattern i then ok := false
     done;
     Printf.printf "data integrity: %s (1 MiB through SDMA + TID placement)\n"
       (if !ok then "OK" else "CORRUPT"));

  (* 4. Show what the fast path did. *)
  let env = H.Cluster.node_env cluster 0 in
  let sdma = Pico_nic.Hfi.sdma env.H.Cluster.hfi in
  (match env.H.Cluster.pico with
   | Some pico ->
     Printf.printf "PicoDriver: %d writev fast-path calls, %d local ioctls\n"
       (Pico_driver.Hfi1_pico.writev_fast pico)
       (Pico_driver.Hfi1_pico.ioctl_fast pico);
     Printf.printf "SDMA requests > PAGE_SIZE: %d (Linux driver would emit 0)\n"
       (Pico_driver.Hfi1_pico.big_requests pico)
   | None -> ());
  let requests = Pico_nic.Sdma.requests_submitted sdma in
  Printf.printf "SDMA: %d requests, mean size %.0f B (hardware max 10240)\n"
    requests
    (float_of_int (Pico_nic.Sdma.bytes_submitted sdma)
     /. float_of_int requests);
  Printf.printf "simulated transfer completed at t=%.1f us\n"
    (result.H.Experiment.wall_ns /. 1e3)
