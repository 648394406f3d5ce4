(* Tests for the harness: cluster building, OS configuration plumbing,
   the experiment runner, table rendering and the cost model. *)

module Sim = Pico_engine.Sim
module Stats = Pico_engine.Stats
module H = Pico_harness
module Cluster = H.Cluster
module Osconfig = H.Osconfig
module Experiment = H.Experiment
module Syncpoint = H.Syncpoint
module Tables = H.Tables
module Comm = Pico_mpi.Comm
module Endpoint = Pico_psm.Endpoint
module Cpu = Pico_hw.Cpu
module Costs = Pico_costs.Costs

let () = Costs.reset ()

(* --- Costs ------------------------------------------------------------------ *)

let test_costs_reset () =
  let saved = (Costs.current ()).Costs.link_bandwidth in
  (Costs.current ()).Costs.link_bandwidth <- 1.0;
  Costs.reset ();
  Alcotest.(check (float 1e-9)) "restored" saved
    (Costs.current ()).Costs.link_bandwidth

let test_costs_with_patched () =
  let before = (Costs.current ()).Costs.lwk_syscall in
  let inside =
    Costs.with_patched
      (fun c -> c.Costs.lwk_syscall <- 99.)
      (fun () -> (Costs.current ()).Costs.lwk_syscall)
  in
  Alcotest.(check (float 1e-9)) "patched inside" 99. inside;
  Alcotest.(check (float 1e-9)) "restored after" before
    (Costs.current ()).Costs.lwk_syscall;
  (* Exception safety. *)
  (try
     Costs.with_patched
       (fun c -> c.Costs.lwk_syscall <- 77.)
       (fun () -> failwith "x")
   with Failure _ -> ());
  Alcotest.(check (float 1e-9)) "restored after exn" before
    (Costs.current ()).Costs.lwk_syscall

(* --- Tables -------------------------------------------------------------------- *)

let test_tables_render_alignment () =
  let out =
    Tables.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
   | h :: sep :: r1 :: r2 :: _ ->
     Alcotest.(check int) "equal widths" (String.length h) (String.length sep);
     Alcotest.(check int) "rows aligned" (String.length r1) (String.length r2)
   | _ -> Alcotest.fail "unexpected shape")

let test_tables_formats () =
  Alcotest.(check string) "pct" "93.4%" (Tables.pct 0.934);
  Alcotest.(check string) "ns us" "1.50 us" (Tables.ns 1500.);
  Alcotest.(check string) "ns ms" "2.00 ms" (Tables.ns 2.0e6);
  Alcotest.(check string) "ns s" "3.00 s" (Tables.ns 3.0e9);
  Alcotest.(check int) "bar full" 10
    (String.length (String.trim (Tables.bar ~width:10 ~value:1. ~scale:1. ())));
  Alcotest.(check string) "bar empty" ""
    (String.trim (Tables.bar ~width:10 ~value:0. ~scale:1. ()))

(* --- Syncpoint ------------------------------------------------------------------- *)

let test_syncpoint () =
  let sim = Sim.create () in
  let sp = Syncpoint.create sim ~parties:3 in
  let released_at = ref [] in
  for i = 0 to 2 do
    Sim.spawn sim (fun () ->
        Sim.delay sim (float_of_int (10 * i));
        Syncpoint.arrive sp;
        released_at := Sim.now sim :: !released_at)
  done;
  ignore (Sim.run sim);
  (* Everyone released when the last (t=20) arrived. *)
  List.iter
    (fun t -> Alcotest.(check (float 1e-9)) "released at 20" 20. t)
    !released_at;
  Alcotest.(check int) "count" 3 (Syncpoint.arrived sp)

(* --- Cluster --------------------------------------------------------------------- *)

let test_cluster_linux_has_no_lwk () =
  let cl = Cluster.build Cluster.Linux ~n_nodes:2 () in
  Array.iter
    (fun ne ->
      Alcotest.(check bool) "no mck" true (ne.Cluster.mck = None);
      Alcotest.(check bool) "no pico" true (ne.Cluster.pico = None))
    cl.Cluster.nodes;
  Alcotest.(check (list string)) "no kernel profiles" []
    (List.map (fun _ -> "x") (Cluster.kernel_profiles cl))

let test_cluster_partitioning () =
  let cl = Cluster.build Cluster.Mckernel ~n_nodes:1 ~lwk_cores:60 () in
  let ne = Cluster.node_env cl 0 in
  Alcotest.(check int) "lwk logical cpus" (60 * 4)
    (Cpu.count_owned ne.Cluster.node.Pico_hw.Node.cpus Cpu.Lwk);
  Alcotest.(check bool) "mck booted" true (ne.Cluster.mck <> None);
  Alcotest.(check bool) "no pico without hfi kind" true
    (ne.Cluster.pico = None)

let test_cluster_hfi_kind_installs_both_picodrivers () =
  let cl = Cluster.build Cluster.Mckernel_hfi ~n_nodes:1 () in
  let ne = Cluster.node_env cl 0 in
  Alcotest.(check bool) "hfi pico" true (ne.Cluster.pico <> None);
  Alcotest.(check bool) "mlx pico" true (ne.Cluster.mlx_pico <> None)

let test_cluster_bad_args () =
  Alcotest.(check bool) "zero nodes" true
    (try ignore (Cluster.build Cluster.Linux ~n_nodes:0 ()); false
     with Invalid_argument _ -> true)

(* --- Osconfig ---------------------------------------------------------------------- *)

let test_osconfig_rank_init () =
  List.iter
    (fun kind ->
      let cl = Cluster.build kind ~n_nodes:1 () in
      let sim = cl.Cluster.sim in
      let checked = ref false in
      Sim.spawn sim (fun () ->
          let env = Osconfig.init_rank cl ~node_idx:0 ~rank:0 in
          (* The OS vector is functional: allocate, write, read back. *)
          let va = env.Osconfig.os.Endpoint.mmap_anon 8192 in
          let data = Bytes.make 100 'x' in
          env.Osconfig.os.Endpoint.write_user va data;
          Alcotest.(check bytes)
            (Cluster.kind_to_string kind ^ " user rw")
            data
            (env.Osconfig.os.Endpoint.read_user va 100);
          env.Osconfig.os.Endpoint.munmap va;
          checked := true);
      ignore (Sim.run sim);
      Alcotest.(check bool) "ran" true !checked)
    [ Cluster.Linux; Cluster.Mckernel; Cluster.Mckernel_hfi ]

(* --- Experiment --------------------------------------------------------------------- *)

let test_experiment_world_size () =
  let cl = Cluster.build Cluster.Linux ~n_nodes:3 () in
  let sizes = ref [] in
  let res =
    Experiment.run cl ~ranks_per_node:2 (fun comm ->
        sizes := comm.Comm.size :: !sizes;
        float_of_int comm.Comm.rank)
  in
  Alcotest.(check int) "six ranks" 6 (List.length !sizes);
  Alcotest.(check bool) "all see world=6" true
    (List.for_all (fun s -> s = 6) !sizes);
  Alcotest.(check (float 0.)) "fom is max over ranks" 5. res.Experiment.fom_ns;
  Alcotest.(check int) "comms returned" 6 (List.length res.Experiment.comms)

let test_experiment_rank_placement () =
  let cl = Cluster.build Cluster.Linux ~n_nodes:2 () in
  let nodes_seen = ref [] in
  ignore
    (Experiment.run cl ~ranks_per_node:2 (fun comm ->
         let os = Endpoint.os comm.Comm.ep in
         nodes_seen :=
           (comm.Comm.rank, Pico_nic.Hfi.node_id os.Endpoint.hfi)
           :: !nodes_seen;
         0.));
  List.iter
    (fun (rank, node) ->
      Alcotest.(check int)
        (Printf.sprintf "rank %d node" rank)
        (rank / 2) node)
    !nodes_seen

let test_experiment_failure_propagates () =
  let cl = Cluster.build Cluster.Linux ~n_nodes:1 () in
  Alcotest.(check bool) "rank exception surfaces" true
    (try
       ignore
         (Experiment.run cl ~ranks_per_node:1 (fun _ -> failwith "rank died"));
       false
     with Failure _ -> true)

(* A rank that blocks forever (here on a mailbox nothing fills) must fail
   the run by name instead of reporting a 0 ns FOM. *)
let test_experiment_hung_rank () =
  let cl = Cluster.build Cluster.Linux ~n_nodes:1 () in
  let never : unit Pico_engine.Mailbox.t =
    Pico_engine.Mailbox.create cl.Cluster.sim
  in
  match
    Experiment.run cl ~ranks_per_node:2 (fun comm ->
        if comm.Comm.rank = 1 then Pico_engine.Mailbox.get never;
        1.)
  with
  | _ -> Alcotest.fail "a hung rank must fail the run"
  | exception Failure msg ->
    Alcotest.(check string) "names the world and the hung rank"
      "Experiment.run: Linux/1n: rank(s) 1 did not finish" msg

let test_experiment_profiles_merged () =
  let cl = Cluster.build Cluster.Linux ~n_nodes:1 () in
  let res =
    Experiment.run cl ~ranks_per_node:4 (fun comm ->
        Pico_mpi.Collectives.barrier comm;
        0.)
  in
  let merged = Experiment.merged_mpi_profile res in
  Alcotest.(check int) "4 barriers pooled" 4
    (Stats.Registry.count_of merged "MPI_Barrier");
  Alcotest.(check int) "4 inits pooled" 4
    (Stats.Registry.count_of merged "MPI_Init")

let () =
  Alcotest.run "harness"
    [ ("costs",
       [ Alcotest.test_case "reset" `Quick test_costs_reset;
         Alcotest.test_case "with_patched" `Quick test_costs_with_patched ]);
      ("tables",
       [ Alcotest.test_case "alignment" `Quick test_tables_render_alignment;
         Alcotest.test_case "formats" `Quick test_tables_formats ]);
      ("syncpoint", [ Alcotest.test_case "release" `Quick test_syncpoint ]);
      ("cluster",
       [ Alcotest.test_case "linux has no lwk" `Quick test_cluster_linux_has_no_lwk;
         Alcotest.test_case "partitioning" `Quick test_cluster_partitioning;
         Alcotest.test_case "hfi kind installs picodrivers" `Quick
           test_cluster_hfi_kind_installs_both_picodrivers;
         Alcotest.test_case "bad args" `Quick test_cluster_bad_args ]);
      ("osconfig", [ Alcotest.test_case "rank init" `Quick test_osconfig_rank_init ]);
      ("experiment",
       [ Alcotest.test_case "world size" `Quick test_experiment_world_size;
         Alcotest.test_case "rank placement" `Quick test_experiment_rank_placement;
         Alcotest.test_case "failure propagates" `Quick
           test_experiment_failure_propagates;
         Alcotest.test_case "hung rank fails loudly" `Quick
           test_experiment_hung_rank;
         Alcotest.test_case "profiles merged" `Quick
           test_experiment_profiles_merged ]) ]
