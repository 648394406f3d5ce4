(* Tests for the MPI layer: point-to-point wrappers, collectives with
   power-of-two and odd communicator sizes, profiling and tag hygiene. *)

module Sim = Pico_engine.Sim
module Stats = Pico_engine.Stats
module H = Pico_harness
module Comm = Pico_mpi.Comm
module Mpi = Pico_mpi.Mpi
module Collectives = Pico_mpi.Collectives
module Endpoint = Pico_psm.Endpoint
module Costs = Pico_costs.Costs

let () = Costs.reset ()

(* Run an MPI program across [nodes] x [rpn] ranks; returns the result. *)
let run ?(nodes = 2) ?(rpn = 2) ?(carry = true) app =
  let cl = H.Cluster.build H.Cluster.Linux ~n_nodes:nodes ~carry_payload:carry () in
  H.Experiment.run cl ~ranks_per_node:rpn (fun comm -> app comm; 0.)

let os comm = Endpoint.os comm.Comm.ep

let alloc comm len = (os comm).Endpoint.mmap_anon len

let pattern seed len = Bytes.init len (fun i -> Char.chr ((i * seed + 1) land 0xff))

(* --- p2p ---------------------------------------------------------------------- *)

let test_send_recv () =
  let ok = ref false in
  ignore
    (run (fun comm ->
         let buf = alloc comm 4096 in
         if comm.Comm.rank = 0 then begin
           (os comm).Endpoint.write_user buf (pattern 3 2048);
           Mpi.send comm ~dst:3 ~tag:9 ~va:buf ~len:2048
         end
         else if comm.Comm.rank = 3 then begin
           Mpi.recv comm ~src:(Some 0) ~tag:9 ~va:buf ~len:2048;
           ok := (os comm).Endpoint.read_user buf 2048 = pattern 3 2048
         end;
         Collectives.barrier comm));
  Alcotest.(check bool) "cross-node send/recv" true !ok

let test_isend_waitall () =
  let counts = ref 0 in
  ignore
    (run (fun comm ->
         let buf = alloc comm 65536 in
         let peer = comm.Comm.rank lxor 1 in
         let rs =
           [ Mpi.irecv comm ~src:(Some peer) ~tag:1 ~va:buf ~len:1000;
             Mpi.isend comm ~dst:peer ~tag:1 ~va:buf ~len:1000 ]
         in
         Mpi.waitall comm rs;
         incr counts;
         Collectives.barrier comm));
  Alcotest.(check int) "all ranks finished" 4 !counts

let test_sendrecv_ring () =
  let ok = ref 0 in
  ignore
    (run (fun comm ->
         let n = comm.Comm.size in
         let sbuf = alloc comm 4096 and rbuf = alloc comm 4096 in
         let right = (comm.Comm.rank + 1) mod n in
         let left = (comm.Comm.rank - 1 + n) mod n in
         Mpi.sendrecv comm ~dst:right ~src:(Some left) ~stag:5 ~rtag:5
           ~sva:sbuf ~slen:256 ~rva:rbuf ~rlen:256;
         incr ok;
         Collectives.barrier comm));
  Alcotest.(check int) "ring completed" 4 !ok

let test_test_progresses () =
  let became_true = ref false in
  ignore
    (run (fun comm ->
         let buf = alloc comm 4096 in
         if comm.Comm.rank = 0 then begin
           let r = Mpi.irecv comm ~src:(Some 1) ~tag:2 ~va:buf ~len:64 in
           while not (Mpi.test comm r) do
             (os comm).Endpoint.compute 1000.
           done;
           became_true := true
         end
         else if comm.Comm.rank = 1 then
           Mpi.send comm ~dst:0 ~tag:2 ~va:buf ~len:64;
         Collectives.barrier comm));
  Alcotest.(check bool) "test() completes" true !became_true

(* --- collectives ------------------------------------------------------------------ *)

(* A collective "works" when every rank exits it; synchronisation is
   checked by asserting barrier semantics (no rank exits before the last
   entered). *)

let collective_completes ?(nodes = 2) ?(rpn = 3) name f =
  let finished = ref 0 in
  ignore
    (run ~nodes ~rpn ~carry:false (fun comm ->
         f comm;
         incr finished));
  Alcotest.(check int) (name ^ " all ranks") (nodes * rpn) !finished

let test_barrier_sync () =
  (* Rank 0 enters the barrier late: nobody may leave before it enters. *)
  let entered0 = ref infinity in
  let min_exit = ref infinity in
  ignore
    (run ~carry:false (fun comm ->
         let sim = comm.Comm.sim in
         if comm.Comm.rank = 0 then begin
           (os comm).Endpoint.compute (Sim.ms 5.);
           entered0 := Float.min !entered0 (Sim.now sim)
         end;
         Collectives.barrier comm;
         min_exit := Float.min !min_exit (Sim.now sim)));
  Alcotest.(check bool) "no early exit" true (!min_exit >= !entered0)

let test_barrier_odd () = collective_completes ~rpn:3 "barrier" Collectives.barrier

let test_bcast_pow2 () =
  collective_completes ~nodes:2 ~rpn:2 "bcast"
    (fun c -> Collectives.bcast c ~root:0 ~len:10000)

let test_bcast_odd_root () =
  collective_completes ~nodes:2 ~rpn:3 "bcast root 4"
    (fun c -> Collectives.bcast c ~root:4 ~len:4096)

let test_allreduce_pow2 () =
  collective_completes ~nodes:2 ~rpn:2 "allreduce"
    (fun c -> Collectives.allreduce c ~len:8192)

let test_allreduce_odd () =
  collective_completes ~nodes:2 ~rpn:3 "allreduce non-pow2"
    (fun c -> Collectives.allreduce c ~len:8)

let test_reduce () =
  collective_completes ~nodes:2 ~rpn:3 "reduce"
    (fun c -> Collectives.reduce c ~root:2 ~len:1024)

let test_allgather () =
  collective_completes "allgather" (fun c -> Collectives.allgather c ~len:512)

let test_alltoallv () =
  collective_completes "alltoallv" (fun c ->
      let counts = Array.make c.Comm.size 2048 in
      Collectives.alltoallv c ~counts)

let test_alltoallv_bad_counts () =
  let raised = ref false in
  ignore
    (run ~carry:false (fun comm ->
         (try Collectives.alltoallv comm ~counts:[| 1 |]
          with Invalid_argument _ -> raised := true);
         Collectives.barrier comm));
  Alcotest.(check bool) "bad counts rejected" true !raised

let test_scan () =
  collective_completes "scan" (fun c -> Collectives.scan c ~len:64)

let test_cart_create () =
  collective_completes ~nodes:2 ~rpn:2 "cart_create" (fun c ->
      let px, py, pz = Pico_apps.Workload.dims3 c.Comm.size in
      Collectives.cart_create c ~dims:[ px; py; pz ])

let test_cart_create_bad_dims () =
  let raised = ref false in
  ignore
    (run ~carry:false (fun comm ->
         (try Collectives.cart_create comm ~dims:[ 3; 3 ]
          with Invalid_argument _ -> raised := true);
         Collectives.barrier comm));
  Alcotest.(check bool) "bad dims rejected" true !raised

let test_gather_scatter () =
  collective_completes ~nodes:2 ~rpn:3 "gather"
    (fun c -> Collectives.gather c ~root:1 ~len:2048);
  collective_completes ~nodes:2 ~rpn:3 "scatter"
    (fun c -> Collectives.scatter c ~root:1 ~len:2048)

let test_gather_root_receives_all () =
  (* Gather must move size*(n-1) blocks toward the root overall: check
     the root's wait dominates (it receives log n subtrees). *)
  let names = ref [] in
  ignore
    (run ~carry:false (fun comm ->
         Collectives.gather comm ~root:0 ~len:4096;
         if comm.Comm.rank = 0 then
           names :=
             List.map (fun (n, _, _) -> n)
               (Stats.Registry.entries comm.Comm.profile)));
  Alcotest.(check bool) "profiled" true (List.mem "MPI_Gather" !names)

let test_comm_create_dup () =
  collective_completes "comm mgmt" (fun c ->
      Collectives.comm_create c;
      Collectives.comm_dup c)

(* --- persistent requests --------------------------------------------------------- *)

let test_persistent_requests () =
  let ok = ref 0 in
  ignore
    (run (fun comm ->
         let buf = alloc comm 65536 in
         let peer = comm.Comm.rank lxor 1 in
         let s = Mpi.send_init comm ~dst:peer ~tag:7 ~va:buf ~len:4096 in
         let r = Mpi.recv_init comm ~src:(Some peer) ~tag:7 ~va:buf ~len:4096 in
         for _ = 1 to 3 do
           Mpi.start comm r;
           Mpi.start comm s;
           Mpi.wait_p comm s;
           Mpi.wait_p comm r
         done;
         Mpi.request_free_p comm s;
         Mpi.request_free_p comm r;
         incr ok;
         Collectives.barrier comm));
  Alcotest.(check int) "all ranks completed 3 rounds" 4 !ok

let test_persistent_double_start () =
  let raised = ref false in
  ignore
    (run (fun comm ->
         let buf = alloc comm 4096 in
         if comm.Comm.rank = 0 then begin
           let r = Mpi.recv_init comm ~src:(Some 1) ~tag:8 ~va:buf ~len:64 in
           Mpi.start comm r;
           (try Mpi.start comm r with Invalid_argument _ -> raised := true);
           Mpi.wait_p comm r
         end
         else if comm.Comm.rank = 1 then
           Mpi.send comm ~dst:0 ~tag:8 ~va:buf ~len:64;
         Collectives.barrier comm));
  Alcotest.(check bool) "double start rejected" true !raised

let test_persistent_profile_names () =
  let names = ref [] in
  ignore
    (run (fun comm ->
         let buf = alloc comm 4096 in
         let peer = comm.Comm.rank lxor 1 in
         let s = Mpi.send_init comm ~dst:peer ~tag:9 ~va:buf ~len:128 in
         let r = Mpi.recv_init comm ~src:(Some peer) ~tag:9 ~va:buf ~len:128 in
         Mpi.start comm r;
         Mpi.start comm s;
         Mpi.waitall_p comm [ s; r ];
         Mpi.request_free_p comm s;
         Collectives.barrier comm;
         if comm.Comm.rank = 0 then
           names :=
             List.map (fun (n, _, _) -> n)
               (Pico_engine.Stats.Registry.entries comm.Comm.profile)));
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n !names))
    [ "MPI_Start"; "MPI_Waitall"; "MPI_Request_free" ]

(* --- profiling ---------------------------------------------------------------------- *)

let test_profile_names () =
  let names = ref [] in
  ignore
    (run ~carry:false (fun comm ->
         let buf = alloc comm 4096 in
         let peer = comm.Comm.rank lxor 1 in
         let r = Mpi.irecv comm ~src:(Some peer) ~tag:1 ~va:buf ~len:100 in
         let s = Mpi.isend comm ~dst:peer ~tag:1 ~va:buf ~len:100 in
         Mpi.wait comm r;
         Mpi.wait comm s;
         Collectives.barrier comm;
         Collectives.allreduce comm ~len:8;
         if comm.Comm.rank = 0 then
           names :=
             List.map (fun (n, _, _) -> n)
               (Stats.Registry.entries comm.Comm.profile)));
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " recorded") true
        (List.mem expected !names))
    [ "MPI_Init"; "MPI_Irecv"; "MPI_Isend"; "MPI_Wait"; "MPI_Barrier";
      "MPI_Allreduce" ]

let test_profile_runtime_denominator () =
  ignore
    (run ~carry:false (fun comm ->
         Collectives.barrier comm;
         (os comm).Endpoint.compute (Sim.ms 1.);
         Collectives.barrier comm;
         let rt = Comm.runtime_ns comm in
         let mpi = Stats.Registry.grand_total comm.Comm.profile in
         Alcotest.(check bool) "runtime >= MPI time" true (rt >= mpi);
         Alcotest.(check bool) "runtime includes compute" true
           (rt >= Sim.ms 1.)))

let test_user_coll_tags_disjoint () =
  (* A user message with an arbitrary 32-bit tag must never be captured
     by a concurrent collective. *)
  let ok = ref false in
  ignore
    (run (fun comm ->
         let buf = alloc comm 4096 in
         if comm.Comm.rank = 0 then begin
           (os comm).Endpoint.write_user buf (pattern 9 100);
           Mpi.send comm ~dst:1 ~tag:0x7FFF_FFFF ~va:buf ~len:100;
           Collectives.barrier comm
         end
         else begin
           Collectives.barrier comm;
           (* The user message is sitting unexpected at rank 1; the
              barrier's zero byte messages must not have matched it.
              Only rank 1 receives: no other rank is sent anything. *)
           if comm.Comm.rank = 1 then begin
             Mpi.recv comm ~src:(Some 0) ~tag:0x7FFF_FFFF ~va:buf ~len:100;
             ok := (os comm).Endpoint.read_user buf 100 = pattern 9 100
           end
         end));
  Alcotest.(check bool) "no tag collision" true !ok

let test_compute_noise_free_on_lwk () =
  let cl = H.Cluster.build H.Cluster.Mckernel ~n_nodes:1 () in
  let exact = ref false in
  ignore
    (H.Experiment.run cl ~ranks_per_node:1 (fun comm ->
         let sim = comm.Comm.sim in
         let t0 = Sim.now sim in
         Mpi.compute comm 12345.;
         exact := Sim.now sim -. t0 = 12345.;
         0.));
  Alcotest.(check bool) "LWK compute exact" true !exact

let () =
  Alcotest.run "mpi"
    [ ("p2p",
       [ Alcotest.test_case "send/recv" `Quick test_send_recv;
         Alcotest.test_case "isend waitall" `Quick test_isend_waitall;
         Alcotest.test_case "sendrecv ring" `Quick test_sendrecv_ring;
         Alcotest.test_case "test()" `Quick test_test_progresses ]);
      ("collectives",
       [ Alcotest.test_case "barrier sync" `Quick test_barrier_sync;
         Alcotest.test_case "barrier odd" `Quick test_barrier_odd;
         Alcotest.test_case "bcast pow2" `Quick test_bcast_pow2;
         Alcotest.test_case "bcast odd root" `Quick test_bcast_odd_root;
         Alcotest.test_case "allreduce pow2" `Quick test_allreduce_pow2;
         Alcotest.test_case "allreduce odd" `Quick test_allreduce_odd;
         Alcotest.test_case "reduce" `Quick test_reduce;
         Alcotest.test_case "allgather" `Quick test_allgather;
         Alcotest.test_case "alltoallv" `Quick test_alltoallv;
         Alcotest.test_case "alltoallv bad counts" `Quick test_alltoallv_bad_counts;
         Alcotest.test_case "scan" `Quick test_scan;
         Alcotest.test_case "cart_create" `Quick test_cart_create;
         Alcotest.test_case "cart bad dims" `Quick test_cart_create_bad_dims;
         Alcotest.test_case "comm create/dup" `Quick test_comm_create_dup;
         Alcotest.test_case "gather/scatter" `Quick test_gather_scatter;
         Alcotest.test_case "gather profiled" `Quick
           test_gather_root_receives_all ]);
      ("persistent",
       [ Alcotest.test_case "start/wait cycles" `Quick test_persistent_requests;
         Alcotest.test_case "double start" `Quick test_persistent_double_start;
         Alcotest.test_case "profile names" `Quick
           test_persistent_profile_names ]);
      ("profiling",
       [ Alcotest.test_case "names" `Quick test_profile_names;
         Alcotest.test_case "runtime denominator" `Quick
           test_profile_runtime_denominator;
         Alcotest.test_case "tag spaces disjoint" `Quick
           test_user_coll_tags_disjoint;
         Alcotest.test_case "lwk compute exact" `Quick
           test_compute_noise_free_on_lwk ]) ]
