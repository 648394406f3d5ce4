(* Whole-system integration tests: the paper's qualitative claims must
   hold on the simulated platform (Fig. 4 ordering, UMT collapse and
   recovery, kernel-profile shifts, resource hygiene, determinism). *)

module Sim = Pico_engine.Sim
module Stats = Pico_engine.Stats
module H = Pico_harness
module Cluster = H.Cluster
module Experiment = H.Experiment
module Comm = Pico_mpi.Comm
module Hfi = Pico_nic.Hfi
module Sdma = Pico_nic.Sdma
module Hfi1_driver = Pico_linux.Hfi1_driver
module Slab = Pico_linux.Slab
module Gup = Pico_linux.Gup
module A = Pico_apps
module Costs = Pico_costs.Costs

let () = Costs.reset ()

let pingpong_mbps kind ~size =
  let cl = Cluster.build kind ~n_nodes:2 () in
  let out = ref [] in
  ignore
    (Experiment.run cl ~ranks_per_node:1 (fun comm ->
         A.Imb.pingpong ~iters:20 ~sizes:[ size ] ~out comm));
  match !out with
  | [ p ] -> (p.A.Imb.mbps, cl)
  | _ -> Alcotest.fail "unexpected pingpong output"

let test_fig4_ordering_at_1mb () =
  let linux, _ = pingpong_mbps Cluster.Linux ~size:(1 lsl 20) in
  let mck, _ = pingpong_mbps Cluster.Mckernel ~size:(1 lsl 20) in
  let hfi, _ = pingpong_mbps Cluster.Mckernel_hfi ~size:(1 lsl 20) in
  Alcotest.(check bool) "mck below linux" true (mck < linux);
  Alcotest.(check bool) "pico above linux" true (hfi > linux);
  Alcotest.(check bool) "pico gain sane (<2x)" true (hfi < 2. *. linux)

let test_fig4_small_messages_unaffected () =
  (* Below the eager threshold there is no driver involvement: all three
     configurations must coincide. *)
  let linux, _ = pingpong_mbps Cluster.Linux ~size:4096 in
  let mck, _ = pingpong_mbps Cluster.Mckernel ~size:4096 in
  let hfi, _ = pingpong_mbps Cluster.Mckernel_hfi ~size:4096 in
  Alcotest.(check (float 0.02)) "mck == linux" 1.0 (mck /. linux);
  Alcotest.(check (float 0.02)) "pico == linux" 1.0 (hfi /. linux)

let test_request_sizes_per_os () =
  let _, cl_linux = pingpong_mbps Cluster.Linux ~size:(1 lsl 20) in
  let _, cl_hfi = pingpong_mbps Cluster.Mckernel_hfi ~size:(1 lsl 20) in
  let max_req cl =
    let env = Cluster.node_env cl 0 in
    Sdma.max_request_bytes (Hfi.sdma env.Cluster.hfi)
  in
  Alcotest.(check int) "Linux capped at PAGE_SIZE" 4096 (max_req cl_linux);
  Alcotest.(check int) "PicoDriver reaches hw max" 10240 (max_req cl_hfi)

let run_app kind ~nodes ~rpn app =
  let cl = Cluster.build kind ~n_nodes:nodes () in
  let res = Experiment.run cl ~ranks_per_node:rpn app in
  (res, cl)

let test_umt_collapse_and_recovery () =
  let (l, _) = run_app Cluster.Linux ~nodes:4 ~rpn:16 (fun c -> A.Umt.run c) in
  let (m, _) = run_app Cluster.Mckernel ~nodes:4 ~rpn:16 (fun c -> A.Umt.run c) in
  let (h, _) =
    run_app Cluster.Mckernel_hfi ~nodes:4 ~rpn:16 (fun c -> A.Umt.run c)
  in
  let rel x = l.Experiment.fom_ns /. x.Experiment.fom_ns in
  Alcotest.(check bool) "mck collapses (<70% of linux)" true (rel m < 0.7);
  Alcotest.(check bool) "pico at least on par" true (rel h > 0.97)

let test_umt_single_node_parity () =
  let (l, _) = run_app Cluster.Linux ~nodes:1 ~rpn:16 (fun c -> A.Umt.run c) in
  let (m, _) = run_app Cluster.Mckernel ~nodes:1 ~rpn:16 (fun c -> A.Umt.run c) in
  let rel = l.Experiment.fom_ns /. m.Experiment.fom_ns in
  Alcotest.(check bool) "intra-node shm keeps parity" true
    (rel > 0.9 && rel < 1.15)

let test_lammps_unaffected () =
  let (l, _) = run_app Cluster.Linux ~nodes:2 ~rpn:8 (fun c -> A.Lammps.run c) in
  let (m, _) =
    run_app Cluster.Mckernel ~nodes:2 ~rpn:8 (fun c -> A.Lammps.run c)
  in
  let rel = l.Experiment.fom_ns /. m.Experiment.fom_ns in
  Alcotest.(check bool) "within 5% of linux" true (rel > 0.95 && rel < 1.1)

let test_kernel_profile_shift () =
  (* Figures 8/9: with the PicoDriver, ioctl+writev no longer dominate
     LWK kernel time, and total kernel time shrinks dramatically. *)
  let share reg =
    let t = Stats.Registry.grand_total reg in
    ((Stats.Registry.time_of reg "ioctl" +. Stats.Registry.time_of reg "writev")
     /. t,
     t)
  in
  let kp kind =
    let res, _ = run_app kind ~nodes:2 ~rpn:8 (fun c -> A.Umt.run c) in
    match Experiment.merged_kernel_profile res with
    | Some reg -> share reg
    | None -> Alcotest.fail "no kernel profile"
  in
  let mck_share, mck_total = kp Cluster.Mckernel in
  let hfi_share, hfi_total = kp Cluster.Mckernel_hfi in
  Alcotest.(check bool) "ioctl+writev dominate original McKernel" true
    (mck_share > 0.7);
  Alcotest.(check bool) "share drops with PicoDriver" true
    (hfi_share < mck_share);
  Alcotest.(check bool) "kernel time shrinks (< 30%)" true
    (hfi_total < 0.3 *. mck_total)

let test_linux_has_no_kernel_profile () =
  let res, _ = run_app Cluster.Linux ~nodes:1 ~rpn:2 (fun c -> A.Nekbone.run c) in
  Alcotest.(check bool) "none" true
    (Experiment.merged_kernel_profile res = None)

let test_table1_wait_grows_under_mck () =
  let wait kind =
    (* Paper configuration ratios: many ranks per node, few Linux CPUs. *)
    let res, _ = run_app kind ~nodes:2 ~rpn:16 (fun c -> A.Umt.run c) in
    let reg = Experiment.merged_mpi_profile res in
    Stats.Registry.time_of reg "MPI_Waitall"
    +. Stats.Registry.time_of reg "MPI_Wait"
  in
  let l = wait Cluster.Linux in
  let m = wait Cluster.Mckernel in
  let h = wait Cluster.Mckernel_hfi in
  Alcotest.(check bool) "mck wait far above linux" true (m > 1.5 *. l);
  Alcotest.(check bool) "pico wait at/below linux" true (h < 1.1 *. l)

let test_init_cost_with_pico () =
  let init kind =
    let res, _ = run_app kind ~nodes:1 ~rpn:2 (fun c -> A.Nekbone.run c) in
    res.Experiment.init_ns
  in
  Alcotest.(check bool) "pico init dearer than mck init" true
    (init Cluster.Mckernel_hfi > init Cluster.Mckernel);
  Alcotest.(check bool) "mck init dearer than linux (offloaded open)" true
    (init Cluster.Mckernel > init Cluster.Linux)

let test_offload_counts () =
  let offloads kind =
    let _, cl = run_app kind ~nodes:2 ~rpn:4 (fun c -> A.Umt.run c) in
    Array.to_list cl.Cluster.nodes
    |> List.filter_map (fun ne ->
           Option.map
             (fun m -> Pico_ihk.Delegator.offloaded_calls (Pico_mck.Kernel.delegator m))
             ne.Cluster.mck)
    |> List.fold_left ( + ) 0
  in
  let m = offloads Cluster.Mckernel in
  let h = offloads Cluster.Mckernel_hfi in
  Alcotest.(check bool) "pico offloads an order less" true
    (h * 5 < m)

let test_resource_hygiene () =
  (* After a run: no leaked slab objects beyond driver statics, and all
     transient gup pins released (the send pin cache legitimately keeps
     pins). *)
  let _, cl = run_app Cluster.Linux ~nodes:2 ~rpn:4 (fun c -> A.Umt.run c) in
  Array.iter
    (fun ne ->
      let drv = ne.Cluster.driver in
      (* Driver statics: devdata + per_sdma + per-open (fd+ctxt). *)
      let open_objs = 2 * Hfi1_driver.opens drv in
      Alcotest.(check bool) "slab bounded" true
        (Slab.live (Hfi1_driver.slab drv) <= 2 + open_objs);
      Alcotest.(check bool) "pins bounded by cache" true
        (Gup.pinned (Hfi1_driver.gup drv)
         <= Gup.total_pinned (Hfi1_driver.gup drv)))
    cl.Cluster.nodes

let test_determinism_across_runs () =
  let fom () =
    let cl = Cluster.build Cluster.Mckernel ~n_nodes:2 ~seed:99L () in
    (Experiment.run cl ~ranks_per_node:4 (fun c -> A.Qbox.run c))
      .Experiment.fom_ns
  in
  Alcotest.(check (float 0.)) "bit-identical repeat" (fom ()) (fom ())

let test_mpi_data_integrity_all_os () =
  List.iter
    (fun kind ->
      let cl = Cluster.build kind ~n_nodes:2 ~carry_payload:true () in
      let ok = ref false in
      ignore
        (Experiment.run cl ~ranks_per_node:1 (fun comm ->
             let os = Pico_psm.Endpoint.os comm.Comm.ep in
             let len = 1 lsl 20 in
             let buf = os.Pico_psm.Endpoint.mmap_anon len in
             let data = Bytes.init len (fun i -> Char.chr ((i * 7) land 0xff)) in
             if comm.Comm.rank = 0 then begin
               os.Pico_psm.Endpoint.write_user buf data;
               Pico_mpi.Mpi.send comm ~dst:1 ~tag:1 ~va:buf ~len
             end
             else begin
               Pico_mpi.Mpi.recv comm ~src:(Some 0) ~tag:1 ~va:buf ~len;
               ok := os.Pico_psm.Endpoint.read_user buf len = data
             end;
             Pico_mpi.Collectives.barrier comm;
             0.));
      Alcotest.(check bool)
        (Cluster.kind_to_string kind ^ " integrity")
        true !ok)
    [ Cluster.Linux; Cluster.Mckernel; Cluster.Mckernel_hfi ]

let test_listing1_figure () =
  let text = H.Figures.listing1 () in
  let has sub =
    let n = String.length sub and l = String.length text in
    let rec go i = i + n <= l && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "padding0[40]" true (has "char padding0[40]");
  Alcotest.(check bool) "padding1[48]" true (has "char padding1[48]");
  Alcotest.(check bool) "padding2[52]" true (has "char padding2[52]");
  Alcotest.(check bool) "whole_struct[64]" true (has "char whole_struct[64]")

let test_ibreg_extension () =
  let text = H.Figures.ibreg ~registrations:8 () in
  Alcotest.(check bool) "mentions PicoDriver row" true
    (String.length text > 0);
  (* The mlx fast path must beat both other configurations. *)
  let has sub =
    let n = String.length sub and l = String.length text in
    let rec go i = i + n <= l && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "three rows" true
    (has "Linux" && has "McKernel (offloaded)"
     && has "McKernel + mlx PicoDriver")

(* Fuzz: random small cluster configurations running a random mix of
   operations must always complete (no deadlock, no crash). *)
let prop_cluster_fuzz =
  QCheck2.Test.make ~name:"random cluster configs complete" ~count:10
    QCheck2.Gen.(
      tup4 (int_range 0 2) (int_range 1 3) (int_range 1 4) (int_range 0 1000))
    (fun (kind_i, nodes, rpn, seed) ->
      let kind =
        match kind_i with
        | 0 -> Cluster.Linux
        | 1 -> Cluster.Mckernel
        | _ -> Cluster.Mckernel_hfi
      in
      let cl =
        Cluster.build kind ~n_nodes:nodes ~seed:(Int64.of_int seed) ()
      in
      let res =
        Experiment.run cl ~ranks_per_node:rpn (fun comm ->
            let os = Pico_psm.Endpoint.os comm.Comm.ep in
            let buf = os.Pico_psm.Endpoint.mmap_anon (256 * 1024) in
            let n = comm.Comm.size in
            Pico_mpi.Collectives.barrier comm;
            (* ring of rendezvous-sized messages *)
            Pico_mpi.Mpi.sendrecv comm
              ~dst:((comm.Comm.rank + 1) mod n)
              ~src:(Some ((comm.Comm.rank - 1 + n) mod n))
              ~stag:1 ~rtag:1 ~sva:buf ~slen:(200 * 1024) ~rva:buf
              ~rlen:(200 * 1024);
            Pico_mpi.Collectives.allreduce comm ~len:64;
            os.Pico_psm.Endpoint.munmap buf;
            Pico_mpi.Collectives.barrier comm;
            1.)
      in
      res.Experiment.fom_ns > 0.)

let () =
  Alcotest.run "integration"
    [ ("fig4",
       [ Alcotest.test_case "ordering at 1MB" `Slow test_fig4_ordering_at_1mb;
         Alcotest.test_case "small msgs unaffected" `Slow
           test_fig4_small_messages_unaffected;
         Alcotest.test_case "request sizes per OS" `Slow test_request_sizes_per_os ]);
      ("apps",
       [ Alcotest.test_case "umt collapse+recovery" `Slow
           test_umt_collapse_and_recovery;
         Alcotest.test_case "umt single node parity" `Slow
           test_umt_single_node_parity;
         Alcotest.test_case "lammps unaffected" `Slow test_lammps_unaffected ]);
      ("profiles",
       [ Alcotest.test_case "kernel profile shift" `Slow test_kernel_profile_shift;
         Alcotest.test_case "linux has none" `Slow test_linux_has_no_kernel_profile;
         Alcotest.test_case "wait grows under mck" `Slow
           test_table1_wait_grows_under_mck;
         Alcotest.test_case "init cost with pico" `Slow test_init_cost_with_pico;
         Alcotest.test_case "offload counts" `Slow test_offload_counts ]);
      ("hygiene",
       [ Alcotest.test_case "resources" `Slow test_resource_hygiene;
         Alcotest.test_case "determinism" `Slow test_determinism_across_runs;
         Alcotest.test_case "data integrity all OS" `Slow
           test_mpi_data_integrity_all_os;
         Alcotest.test_case "listing1" `Quick test_listing1_figure;
         Alcotest.test_case "ibreg extension" `Quick test_ibreg_extension;
         QCheck_alcotest.to_alcotest prop_cluster_fuzz ]) ]
