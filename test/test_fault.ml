(* Tests for deterministic fault injection: plan determinism across
   domains, the Listing 1 halt/recovery round trip observed only through
   DWARF extraction, delegator drop/retry/timeout behaviour, and the
   PicoDriver fast path degrading to syscall offload across a halt
   window and resuming after recovery. *)

module Sim = Pico_engine.Sim
module Rng = Pico_engine.Rng
module Node = Pico_hw.Node
module Addr = Pico_hw.Addr
module Fabric = Pico_nic.Fabric
module Hfi = Pico_nic.Hfi
module Sdma = Pico_nic.Sdma
module User_api = Pico_nic.User_api
module Lkernel = Pico_linux.Kernel
module Vfs = Pico_linux.Vfs
module Uproc = Pico_linux.Uproc
module Hfi1_driver = Pico_linux.Hfi1_driver
module Hfi1_structs = Pico_linux.Hfi1_structs
module Partition = Pico_ihk.Partition
module Delegator = Pico_ihk.Delegator
module Mck = Pico_mck.Kernel
module Mproc = Pico_mck.Proc
module Struct_access = Pico_driver.Struct_access
module Hfi1_pico = Pico_driver.Hfi1_pico
module Costs = Pico_costs.Costs
module Fault = Pico_harness.Fault
module Pool = Pico_harness.Pool

let () = Costs.reset ()

let mk_env () =
  let sim = Sim.create () in
  let fabric = Fabric.create sim in
  let node = Node.create_knl sim ~id:0 ~mem_scale:0.02 () in
  let hfi = Hfi.create sim ~node ~fabric ~carry_payload:true () in
  let rng = Rng.create ~seed:5L in
  let linux = Lkernel.boot sim ~node ~service_cores:4 ~nohz_full:true ~rng in
  let driver = Lkernel.attach_hfi1 linux hfi in
  let partition =
    Partition.reserve node ~lwk_cores:64 ~lwk_mem_bytes:(Addr.mib 64)
  in
  let mck = Mck.boot sim ~node ~linux ~partition ~vspace_kind:Unified in
  (sim, node, linux, driver, mck)

let attach mck driver =
  match
    Hfi1_pico.attach mck ~linux_driver:driver
      ~module_sections:(Hfi1_structs.module_binary ())
  with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* --- plan determinism ------------------------------------------------------- *)

let with_rates f =
  Costs.with_patched
    (fun c ->
      c.Costs.fault_horizon <- 5.0e7;
      c.Costs.fault_sdma_halt_interval <- 2.0e6;
      c.Costs.fault_service_stall_interval <- 3.0e6;
      c.Costs.fault_ikc_drop <- 0.05;
      c.Costs.fault_wire_crc <- 1.0e-3)
    f

let prop_plan_deterministic =
  QCheck2.Test.make ~name:"same seed -> identical fault plan" ~count:60
    QCheck2.Gen.(map Int64.of_int int)
    (fun seed ->
      with_rates (fun () ->
          let mk () =
            Fault.plan ~rng:(Rng.create ~seed) ~n_nodes:4 ~n_engines:16
          in
          let p1 = mk () and p2 = mk () in
          let horizon = (Costs.current ()).Costs.fault_horizon in
          p1 = p2
          && List.for_all
               (fun (h : Fault.halt) ->
                 h.Fault.h_at >= 0. && h.Fault.h_at < horizon
                 && h.Fault.h_engine >= 0 && h.Fault.h_engine < 16
                 && h.Fault.h_node >= 0 && h.Fault.h_node < 4)
               p1.Fault.halts
          && List.for_all
               (fun (s : Fault.stall) ->
                 s.Fault.s_at >= 0. && s.Fault.s_at < horizon)
               p1.Fault.stalls))

let test_plan_parallel_identical () =
  with_rates (fun () ->
      let mk seed =
        Fault.plan ~rng:(Rng.create ~seed) ~n_nodes:4 ~n_engines:16
      in
      let reference = mk 7L in
      Alcotest.(check bool) "plan is non-trivial" true
        (reference.Fault.halts <> [] && reference.Fault.stalls <> []);
      (* The same derivation on pool worker domains (which snapshot the
         submitter's cost table) must reproduce the plan exactly. *)
      let plans =
        Pool.with_pool ~jobs:4 (fun pool ->
            Pool.map pool mk [ 7L; 7L; 7L; 7L; 7L; 7L; 7L; 7L ])
      in
      List.iter
        (fun p ->
          Alcotest.(check bool) "worker plan = sequential plan" true
            (p = reference))
        plans)

let test_plan_zero_rates () =
  (* Defaults: nothing armed, nothing scheduled. *)
  Alcotest.(check bool) "not armed by default" false (Fault.armed ());
  let p = Fault.plan ~rng:(Rng.create ~seed:1L) ~n_nodes:2 ~n_engines:4 in
  Alcotest.(check bool) "empty plan" true
    (p.Fault.halts = [] && p.Fault.stalls = []);
  with_rates (fun () ->
      Alcotest.(check bool) "armed with rates" true (Fault.armed ()));
  (* Rates without a horizon never arm (the schedule would be infinite). *)
  Costs.with_patched
    (fun c -> c.Costs.fault_ikc_drop <- 0.5)
    (fun () ->
      Alcotest.(check bool) "no horizon -> not armed" false (Fault.armed ()))

(* --- fabric link-fault streams (DESIGN.md section 14) ----------------------- *)

module Linkfault = Pico_fabric.Linkfault
module Topology = Pico_fabric.Topology
module Route = Pico_fabric.Route
module Cluster = Pico_harness.Cluster

let with_fabric_rates f =
  Costs.with_patched
    (fun c ->
      c.Costs.fault_horizon <- 5.0e7;
      c.Costs.fault_link_down_interval <- 2.0e6;
      c.Costs.fault_link_down_duration <- 3.0e5;
      c.Costs.fault_link_derate_interval <- 3.0e6;
      c.Costs.fault_link_derate_duration <- 4.0e5;
      c.Costs.fault_link_corrupt <- 1.0e-3)
    f

let test_fabric_armed () =
  Alcotest.(check bool) "not fabric-armed by default" false
    (Fault.fabric_armed ());
  with_fabric_rates (fun () ->
      Alcotest.(check bool) "fabric-armed with rates" true
        (Fault.fabric_armed ());
      Alcotest.(check bool) "armed covers fabric" true (Fault.armed ());
      Alcotest.(check bool) "node classes stay unarmed" false
        (Fault.node_armed ()));
  (* Each fabric class arms on its own. *)
  List.iter
    (fun patch ->
      Costs.with_patched
        (fun c ->
          c.Costs.fault_horizon <- 1.0e6;
          patch c)
        (fun () ->
          Alcotest.(check bool) "single class arms" true (Fault.fabric_armed ())))
    [ (fun c -> c.Costs.fault_link_down_interval <- 1.0e5);
      (fun c -> c.Costs.fault_link_derate_interval <- 1.0e5);
      (fun c -> c.Costs.fault_link_corrupt <- 0.01) ];
  (* Rates without a horizon never arm. *)
  Costs.with_patched
    (fun c -> c.Costs.fault_link_down_interval <- 1.0e5)
    (fun () ->
      Alcotest.(check bool) "no horizon -> not fabric-armed" false
        (Fault.fabric_armed ()))

(* With every fabric rate at its zero default, [Fault.install] must not
   even split the cluster RNG: the post-install stream of an installed
   cluster is draw-for-draw identical to an untouched one. *)
let test_install_zero_fabric_rates_rng () =
  let mk () = Cluster.build Cluster.Mckernel_hfi ~n_nodes:2 ~seed:11L () in
  let a = mk () and b = mk () in
  Fault.install a;
  let draws cl = List.init 32 (fun _ -> Rng.int cl.Cluster.rng 1_000_000) in
  Alcotest.(check (list int)) "rng stream untouched by zero-rate install"
    (draws b) (draws a)

let test_linkfault_draw_deterministic () =
  with_fabric_rates (fun () ->
      let topo = Topology.Fat_tree { radix = 4; oversub = 2 } in
      let mk () = Linkfault.draw ~rng:(Rng.create ~seed:21L) ~n_nodes:16 topo in
      let lf1 = mk () and lf2 = mk () in
      Alcotest.(check int) "same epoch count"
        (Linkfault.epoch_count lf1) (Linkfault.epoch_count lf2);
      Alcotest.(check bool) "schedule is non-trivial" true
        (Linkfault.epoch_count lf1 > 1);
      let horizon = (Costs.current ()).Costs.fault_horizon in
      let hops =
        List.concat_map
          (fun tier ->
            List.init 4 (fun a ->
                List.init 4 (fun b -> { Route.tier; a; b })))
          [ Route.Up; Route.Down; Route.Host ]
        |> List.concat
      in
      for i = 0 to 200 do
        let time = float_of_int i *. horizon /. 200. in
        Alcotest.(check int) "same epoch"
          (Linkfault.epoch_at lf1 ~time) (Linkfault.epoch_at lf2 ~time);
        List.iter
          (fun hop ->
            Alcotest.(check (option (float 0.))) "same down windows"
              (Linkfault.down_at lf1 hop ~time)
              (Linkfault.down_at lf2 hop ~time);
            Alcotest.(check (option (float 0.))) "same derate windows"
              (Linkfault.derate_at lf1 hop ~time)
              (Linkfault.derate_at lf2 hop ~time))
          hops
      done;
      Alcotest.(check bool) "downtime ledgers agree" true
        (Linkfault.downtime_by_tier lf1 ~until:horizon
         = Linkfault.downtime_by_tier lf2 ~until:horizon))

let test_linkfault_draw_validation () =
  let raises patch =
    Costs.with_patched
      (fun c ->
        c.Costs.fault_horizon <- 1.0e6;
        c.Costs.fault_link_derate_interval <- 1.0e5;
        patch c)
      (fun () ->
        try
          ignore
            (Linkfault.draw ~rng:(Rng.create ~seed:1L) ~n_nodes:4 Topology.Flat);
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "derate factor 0 rejected" true
    (raises (fun c -> c.Costs.fault_link_derate_factor <- 0.0));
  Alcotest.(check bool) "derate factor > 1 rejected" true
    (raises (fun c -> c.Costs.fault_link_derate_factor <- 1.5));
  Alcotest.(check bool) "negative factor rejected" true
    (raises (fun c -> c.Costs.fault_link_derate_factor <- -0.25));
  Alcotest.(check bool) "n_nodes <= 0 rejected" true
    (with_fabric_rates (fun () ->
         try
           ignore
             (Linkfault.draw ~rng:(Rng.create ~seed:1L) ~n_nodes:0 Topology.Flat);
           false
         with Invalid_argument _ -> true))

(* --- Listing 1 round trip --------------------------------------------------- *)

let sdma_state_va driver ~engine_idx =
  Hfi1_driver.per_sdma_va driver
  + (engine_idx * Hfi1_structs.struct_size Hfi1_structs.sdma_engine)
  + Hfi1_structs.field_offset Hfi1_structs.sdma_engine "state"

let state_enum name =
  Int32.of_int (List.assoc name Hfi1_structs.sdma_states_enumerators)

let test_listing1_roundtrip () =
  let _, node, _, driver, mck = mk_env () in
  let vs = Mck.vspace mck in
  let sa =
    match
      Struct_access.load (Hfi1_structs.module_binary ())
        ~struct_name:"sdma_state"
        ~fields:[ "current_state"; "go_s99_running"; "previous_state" ]
    with
    | Ok sa -> sa
    | Error e -> Alcotest.fail e
  in
  (* Observe the walk exactly the way the PicoDriver does: DWARF offsets
     applied to the Linux driver's memory through the unified map. *)
  let read field =
    Struct_access.read_u32 sa ~node ~vs
      ~base_va:(sdma_state_va driver ~engine_idx:0)
      field
  in
  let sdma = Hfi.sdma (Hfi1_driver.hfi driver) in
  Alcotest.(check int32) "boots running" (state_enum "sdma_state_s99_running")
    (read "current_state");
  Alcotest.(check int32) "go set" 1l (read "go_s99_running");
  Hfi1_driver.halt_engine driver ~engine_idx:0;
  Alcotest.(check int32) "halt -> s50_hw_halt_wait"
    (state_enum "sdma_state_s50_hw_halt_wait")
    (read "current_state");
  Alcotest.(check int32) "go cleared" 0l (read "go_s99_running");
  Alcotest.(check int32) "previous was running"
    (state_enum "sdma_state_s99_running")
    (read "previous_state");
  Alcotest.(check bool) "engine stopped" true
    (Sdma.engine_halted sdma ~engine:0);
  (* A second halt while halted is a no-op. *)
  Hfi1_driver.halt_engine driver ~engine_idx:0;
  Alcotest.(check int) "one halt counted" 1 (Hfi1_driver.engine_halts driver);
  Hfi1_driver.begin_engine_recovery driver ~engine_idx:0;
  Alcotest.(check int32) "restart walk -> s30_sw_clean_up_wait"
    (state_enum "sdma_state_s30_sw_clean_up_wait")
    (read "current_state");
  Alcotest.(check int32) "previous was halt wait"
    (state_enum "sdma_state_s50_hw_halt_wait")
    (read "previous_state");
  Hfi1_driver.recover_engine driver ~engine_idx:0;
  Alcotest.(check int32) "recovered -> s99_running"
    (state_enum "sdma_state_s99_running")
    (read "current_state");
  Alcotest.(check int32) "go restored" 1l (read "go_s99_running");
  Alcotest.(check int32) "previous was clean up"
    (state_enum "sdma_state_s30_sw_clean_up_wait")
    (read "previous_state");
  Alcotest.(check bool) "engine running" false
    (Sdma.engine_halted sdma ~engine:0);
  Alcotest.(check int) "still one halt" 1 (Hfi1_driver.engine_halts driver)

(* --- delegator drop / retry / timeout --------------------------------------- *)

let test_offload_retry_then_succeed () =
  let sim, _, _, _, mck = mk_env () in
  let d = Mck.delegator mck in
  let remaining = ref 2 in
  Delegator.set_fault_drop d
    (Some (fun () -> if !remaining > 0 then (decr remaining; true) else false));
  let got = ref 0 in
  Sim.spawn sim (fun () ->
      got := Delegator.offload d ~name:"ioctl" (fun () -> 41 + 1));
  ignore (Sim.run sim);
  Alcotest.(check int) "result delivered" 42 !got;
  Alcotest.(check int) "two drops" 2 (Delegator.ikc_drops d);
  Alcotest.(check int) "two retries" 2 (Delegator.ikc_retries d)

let test_offload_retry_exhaustion () =
  let sim, _, _, _, mck = mk_env () in
  let d = Mck.delegator mck in
  Delegator.set_fault_drop d (Some (fun () -> true));
  let ran = ref false in
  let got = ref None in
  Sim.spawn sim (fun () ->
      try ignore (Delegator.offload d ~name:"ioctl" (fun () -> ran := true))
      with Delegator.Offload_timeout { syscall; attempts } ->
        got := Some (syscall, attempts));
  ignore (Sim.run sim);
  let max_retries = (Costs.current ()).Costs.ikc_max_retries in
  (match !got with
   | Some (syscall, attempts) ->
     Alcotest.(check string) "syscall named" "ioctl" syscall;
     Alcotest.(check int) "attempts = ikc_max_retries" max_retries attempts
   | None -> Alcotest.fail "expected Offload_timeout");
  Alcotest.(check bool) "service function never ran" false !ran;
  Alcotest.(check int) "every attempt dropped" max_retries
    (Delegator.ikc_drops d);
  Alcotest.(check int) "backoffs between attempts" (max_retries - 1)
    (Delegator.ikc_retries d)

(* --- fast-path fallback across a halt window --------------------------------- *)

let test_fastpath_fallback_and_resume () =
  let sim, _, _, driver, mck = mk_env () in
  let p = attach mck driver in
  let sdma = Hfi.sdma (Hfi1_driver.hfi driver) in
  let n_eng = Sdma.n_engines sdma in
  Sim.spawn sim (fun () ->
      let pc = Mck.new_process mck in
      let fd = Mck.open_dev mck pc "hfi1_0" in
      let len = 8192 in
      let sbuf = Mck.mmap_anon mck pc ~len in
      let scratch = Mck.mmap_anon mck pc ~len:4096 in
      let dst_ctx =
        match
          Vfs.lookup_fd (Mck.linux mck).Lkernel.vfs
            ~pid:pc.Mck.proxy.Uproc.pid ~fd
        with
        | Some file ->
          (match Hfi1_driver.context_of_file driver file with
           | Some c -> Hfi.ctx_id c
           | None -> Alcotest.fail "no ctx")
        | None -> Alcotest.fail "no file"
      in
      Mproc.write pc.Mck.proc scratch
        (User_api.encode_sdma_req
           { User_api.dst_node = 0; dst_ctx; kind = User_api.Sdma_eager;
             tag = 0L; msg_id = 1; offset = 0; msg_len = len; tid_base = 0;
             src_rank = 0 });
      let writev () =
        ignore
          (Mck.writev mck pc ~fd
             [ { Vfs.iov_base = scratch; iov_len = User_api.sdma_req_bytes };
               { Vfs.iov_base = sbuf; iov_len = len } ])
      in
      let off0 = Mck.offloaded mck in
      writev ();
      Alcotest.(check int) "served locally before the halt" 1
        (Hfi1_pico.writev_fast p);
      Alcotest.(check int) "no offload yet" off0 (Mck.offloaded mck);
      (* Halt every engine (the flow hashes onto one of them) and
         schedule the driver's recovery walk in simulated time. *)
      for e = 0 to n_eng - 1 do
        Hfi1_driver.halt_engine driver ~engine_idx:e
      done;
      let t_rec = Sim.now sim +. 1.0e6 in
      Sim.at sim t_rec (fun () ->
          for e = 0 to n_eng - 1 do
            Hfi1_driver.begin_engine_recovery driver ~engine_idx:e
          done;
          for e = 0 to n_eng - 1 do
            Hfi1_driver.recover_engine driver ~engine_idx:e
          done);
      writev ();
      Alcotest.(check int) "degraded to syscall offload" 1
        (Hfi1_pico.writev_fallback p);
      Alcotest.(check bool) "went through the delegator" true
        (Mck.offloaded mck > off0);
      Alcotest.(check int) "not counted as served locally" 1
        (Hfi1_pico.writev_fast p);
      Sim.delay_until sim (t_rec +. 1.0);
      writev ();
      Alcotest.(check int) "fast path resumed" 2 (Hfi1_pico.writev_fast p);
      Alcotest.(check int) "no further fallbacks" 1
        (Hfi1_pico.writev_fallback p));
  ignore (Sim.run sim);
  Alcotest.(check int) "halts counted per engine" n_eng (Sdma.halts sdma);
  Alcotest.(check bool) "halted window accumulated" true
    (Sdma.halted_ns sdma > 0.)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "fault"
    [ ("plan",
       [ qc prop_plan_deterministic;
         Alcotest.test_case "parallel identical" `Quick
           test_plan_parallel_identical;
         Alcotest.test_case "zero rates" `Quick test_plan_zero_rates ]);
      ("fabric",
       [ Alcotest.test_case "fabric_armed gating" `Quick test_fabric_armed;
         Alcotest.test_case "zero-rate install leaves rng untouched" `Quick
           test_install_zero_fabric_rates_rng;
         Alcotest.test_case "linkfault draw deterministic" `Quick
           test_linkfault_draw_deterministic;
         Alcotest.test_case "linkfault draw validation" `Quick
           test_linkfault_draw_validation ]);
      ("listing1",
       [ Alcotest.test_case "halt/recover round trip" `Quick
           test_listing1_roundtrip ]);
      ("delegator",
       [ Alcotest.test_case "retry then succeed" `Quick
           test_offload_retry_then_succeed;
         Alcotest.test_case "retry exhaustion" `Quick
           test_offload_retry_exhaustion ]);
      ("fallback",
       [ Alcotest.test_case "degrade and resume" `Quick
           test_fastpath_fallback_and_resume ]) ]
