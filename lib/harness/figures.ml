open H_import

type scale = {
  node_counts : int list;
  ranks_per_node : int;
}

let quick = { node_counts = [ 1; 2; 4; 8 ]; ranks_per_node = 8 }

let medium = { node_counts = [ 1; 2; 4; 8; 16; 32 ]; ranks_per_node = 16 }

let full =
  { node_counts = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]; ranks_per_node = 32 }

let os_kinds = [ Cluster.Linux; Cluster.Mckernel; Cluster.Mckernel_hfi ]

let os_tag = function
  | Cluster.Linux -> "linux"
  | Cluster.Mckernel -> "mck"
  | Cluster.Mckernel_hfi -> "hfi"

let buf_add = Buffer.add_string

(* Every sweep below fans its points out over a domain pool ([Pool.map]);
   points are independent simulated worlds and results are reassembled
   by sweep index, so the rendered text is identical to a sequential run
   (PICO_JOBS=1 takes the exact sequential path). *)

(* --- Figure 4 ----------------------------------------------------------- *)

let fig4 ?(max_size = 4 * 1024 * 1024) ?iters ?jobs () =
  Engine_obs.measure ~figure:"fig4" @@ fun () ->
  let series =
    Pool.with_pool ?jobs (fun pool ->
        Pool.map pool
          (fun kind ->
            let cl = Cluster.build kind ~n_nodes:2 () in
            let out = ref [] in
            ignore
              (Experiment.run cl ~ranks_per_node:1 (fun comm ->
                   Pico_apps.Imb.pingpong ?iters
                     ~sizes:(Pico_apps.Imb.sizes ~max_size ())
                     ~out comm));
            (kind, !out))
          os_kinds)
  in
  List.iter
    (fun (kind, pts) ->
      List.iter
        (fun (p : Pico_apps.Imb.point) ->
          Report.record ~figure:"fig4"
            ~metric:(Printf.sprintf "%s/%dB_mbps" (os_tag kind) p.size)
            p.mbps)
        pts)
    series;
  let linux = List.assoc Cluster.Linux series in
  let mck = List.assoc Cluster.Mckernel series in
  let hfi = List.assoc Cluster.Mckernel_hfi series in
  let rows =
    List.map
      (fun (pl : Pico_apps.Imb.point) ->
        let find pts =
          List.find
            (fun (p : Pico_apps.Imb.point) -> p.Pico_apps.Imb.size = pl.size)
            pts
        in
        let pm = find mck and ph = find hfi in
        [ string_of_int pl.size;
          Printf.sprintf "%.0f" pl.mbps;
          Printf.sprintf "%.0f" pm.Pico_apps.Imb.mbps;
          Printf.sprintf "%.0f" ph.Pico_apps.Imb.mbps;
          Tables.pct (pm.Pico_apps.Imb.mbps /. pl.mbps);
          Tables.pct (ph.Pico_apps.Imb.mbps /. pl.mbps) ])
      linux
  in
  "Figure 4: MPI Ping-pong bandwidth (MB/s)\n"
  ^ Tables.render
      ~header:
        [ "msg bytes"; "Linux"; "McKernel"; "McKernel+HFI1"; "McK/Linux";
          "HFI/Linux" ]
      rows

(* --- Figures 5-7: application scaling ----------------------------------- *)

let run_app kind ~n_nodes ~ranks_per_node app =
  let cl = Cluster.build kind ~n_nodes () in
  let res = Experiment.run cl ~ranks_per_node app in
  res.Experiment.fom_ns

let app_figure ~title ~tag ~app ~min_nodes ?(rpn_factor = 1) ?jobs scale =
  Engine_obs.measure ~figure:tag @@ fun () ->
  let rpn = scale.ranks_per_node * rpn_factor in
  let nodes = List.filter (fun n -> n >= min_nodes) scale.node_counts in
  let points =
    List.concat_map (fun n -> List.map (fun k -> (n, k)) os_kinds) nodes
  in
  let foms =
    Pool.with_pool ?jobs (fun pool ->
        Pool.map pool
          (fun (n, kind) -> run_app kind ~n_nodes:n ~ranks_per_node:rpn app)
          points)
  in
  (* One row per node count, from the three per-OS results in sweep
     order (the [points] list is node-major). *)
  let rec to_rows nodes foms acc =
    match (nodes, foms) with
    | [], [] -> List.rev acc
    | n :: nrest, linux :: mck :: hfi :: frest ->
      Report.record ~figure:tag ~metric:(Printf.sprintf "linux_fom_ns/n%d" n)
        linux;
      Report.record ~figure:tag ~metric:(Printf.sprintf "mck_rel/n%d" n)
        (linux /. mck);
      Report.record ~figure:tag ~metric:(Printf.sprintf "hfi_rel/n%d" n)
        (linux /. hfi);
      let row =
        [ string_of_int n;
          "100.0%";
          Tables.pct (linux /. mck);
          Tables.pct (linux /. hfi);
          Tables.ns linux ]
      in
      to_rows nrest frest (row :: acc)
    | _ -> invalid_arg "app_figure: result shape mismatch"
  in
  let rows = to_rows nodes foms [] in
  Printf.sprintf "%s (relative performance to Linux, %d ranks/node)\n" title
    rpn
  ^ Tables.render
      ~header:[ "nodes"; "Linux"; "McKernel"; "McKernel+HFI1"; "Linux FOM" ]
      rows

let fig5a_lammps ?(scale = quick) ?jobs () =
  app_figure ~title:"Figure 5a: LAMMPS" ~tag:"fig5a" ~min_nodes:1 ~rpn_factor:2
    ~app:(fun c -> Pico_apps.Lammps.run c)
    ?jobs scale

let fig5b_nekbone ?(scale = quick) ?jobs () =
  app_figure ~title:"Figure 5b: Nekbone" ~tag:"fig5b" ~min_nodes:1
    ~app:(fun c -> Pico_apps.Nekbone.run c)
    ?jobs scale

let fig6a_umt ?(scale = quick) ?jobs () =
  app_figure ~title:"Figure 6a: UMT2013" ~tag:"fig6a" ~min_nodes:1
    ~app:(fun c -> Pico_apps.Umt.run c)
    ?jobs scale

let fig6b_hacc ?(scale = quick) ?jobs () =
  app_figure ~title:"Figure 6b: HACC" ~tag:"fig6b" ~min_nodes:1
    ~app:(fun c -> Pico_apps.Hacc.run c)
    ?jobs scale

let fig7_qbox ?(scale = quick) ?jobs () =
  (* The QBOX inputs need at least 4 ranks; the paper starts at 4 nodes. *)
  app_figure ~title:"Figure 7: QBOX" ~tag:"fig7" ~min_nodes:4
    ~app:(fun c -> Pico_apps.Qbox.run c)
    ?jobs scale

(* --- Table 1 ------------------------------------------------------------- *)

let table1_apps : (string * (Comm.t -> float)) list =
  [ ("UMT2013", fun c -> Pico_apps.Umt.run c);
    ("HACC", fun c -> Pico_apps.Hacc.run c);
    ("QBOX", fun c -> Pico_apps.Qbox.run c) ]

let profile_block res =
  let reg = Experiment.merged_mpi_profile res in
  let grand_mpi = Stats.Registry.grand_total reg in
  let runtime = Experiment.total_runtime_ns res in
  Stats.Registry.top 5 reg
  |> List.map (fun (name, time, _count) ->
         [ name;
           Printf.sprintf "%.2f" (time /. 1e6) (* cumulative ms *);
           Tables.pct (time /. grand_mpi);
           Tables.pct (time /. runtime) ])

let table1 ?(nodes = 8) ?(ranks_per_node = 8) ?jobs () =
  Engine_obs.measure ~figure:"table1" @@ fun () ->
  let combos =
    List.concat_map
      (fun (app_name, app) ->
        List.map (fun kind -> (app_name, app, kind)) os_kinds)
      table1_apps
  in
  let blocks =
    Pool.with_pool ?jobs (fun pool ->
        Pool.map pool
          (fun (app_name, app, kind) ->
            let cl = Cluster.build kind ~n_nodes:nodes () in
            let res = Experiment.run cl ~ranks_per_node app in
            let reg = Experiment.merged_mpi_profile res in
            Report.record ~figure:"table1"
              ~metric:(Printf.sprintf "%s/%s_mpi_ms" app_name (os_tag kind))
              (Stats.Registry.grand_total reg /. 1e6);
            Report.record ~figure:"table1"
              ~metric:(Printf.sprintf "%s/%s_runtime_ms" app_name (os_tag kind))
              (Experiment.total_runtime_ns res /. 1e6);
            Printf.sprintf "%s / %s\n" app_name (Cluster.kind_to_string kind)
            ^ Tables.render
                ~header:[ "Call"; "Time(ms)"; "%MPI"; "%Rt" ]
                (profile_block res)
            ^ "\n")
          combos)
  in
  let b = Buffer.create 4096 in
  buf_add b
    (Printf.sprintf
       "Table 1: communication profile on %d nodes (%d ranks/node)\n\
        Time = cumulative over ranks (ms); %%MPI = share of MPI time; \
        %%Rt = share of total runtime\n\n"
       nodes ranks_per_node);
  List.iter (buf_add b) blocks;
  Buffer.contents b

(* --- Figures 8/9: kernel-level syscall breakdown ------------------------- *)

let syscall_names =
  [ "read"; "open"; "mmap"; "munmap"; "ioctl"; "writev"; "nanosleep" ]

let kernel_breakdown ~title ~tag ~app ~nodes ~ranks_per_node ?jobs () =
  Engine_obs.measure ~figure:tag @@ fun () ->
  let run kind =
    let cl = Cluster.build kind ~n_nodes:nodes () in
    let res = Experiment.run cl ~ranks_per_node app in
    match Experiment.merged_kernel_profile res with
    | Some reg -> reg
    | None -> invalid_arg "kernel_breakdown: no LWK profile (Linux config?)"
  in
  let mck, hfi =
    match
      Pool.with_pool ?jobs (fun pool ->
          Pool.map pool run [ Cluster.Mckernel; Cluster.Mckernel_hfi ])
    with
    | [ m; h ] -> (m, h)
    | _ -> assert false
  in
  let total reg = Stats.Registry.grand_total reg in
  let t_mck = total mck and t_hfi = total hfi in
  Report.record ~figure:tag ~metric:"kernel_ns_mck" t_mck;
  Report.record ~figure:tag ~metric:"kernel_ns_hfi" t_hfi;
  Report.record ~figure:tag ~metric:"hfi_over_mck"
    (if t_mck > 0. then t_hfi /. t_mck else 0.);
  let rows reg t =
    List.map
      (fun name ->
        let v = Stats.Registry.time_of reg name in
        [ name ^ "()";
          Tables.pct (if t > 0. then v /. t else 0.);
          Tables.bar ~value:v ~scale:t () ])
      syscall_names
  in
  let b = Buffer.create 2048 in
  buf_add b (title ^ "\n\n");
  buf_add b
    (Printf.sprintf "(a) McKernel             [kernel time: %s]\n"
       (Tables.ns t_mck));
  buf_add b (Tables.render ~header:[ "syscall"; "share"; "" ] (rows mck t_mck));
  buf_add b
    (Printf.sprintf "\n(b) McKernel + HFI       [kernel time: %s]\n"
       (Tables.ns t_hfi));
  buf_add b (Tables.render ~header:[ "syscall"; "share"; "" ] (rows hfi t_hfi));
  buf_add b
    (Printf.sprintf
       "\nKernel time with HFI PicoDriver = %s of the original McKernel's\n"
       (Tables.pct (if t_mck > 0. then t_hfi /. t_mck else 0.)));
  Buffer.contents b

let fig8_umt ?(nodes = 8) ?(ranks_per_node = 8) ?jobs () =
  kernel_breakdown ~title:"Figure 8: system call breakdown for UMT2013"
    ~tag:"fig8"
    ~app:(fun c -> Pico_apps.Umt.run c)
    ~nodes ~ranks_per_node ?jobs ()

let fig9_qbox ?(nodes = 8) ?(ranks_per_node = 8) ?jobs () =
  kernel_breakdown ~title:"Figure 9: system call breakdown for QBOX"
    ~tag:"fig9"
    ~app:(fun c -> Pico_apps.Qbox.run c)
    ~nodes ~ranks_per_node ?jobs ()

(* --- Listing 1 ------------------------------------------------------------ *)

let listing1 () =
  let parsed = Pico_dwarf.Encode.parse (Hfi1_structs.module_binary ()) in
  match
    Pico_dwarf.Extract.extract parsed ~struct_name:"sdma_state"
      ~fields:[ "current_state"; "go_s99_running"; "previous_state" ]
  with
  | Ok ex ->
    "Listing 1: automatically generated header for the HFI sdma_state \
     structure\n(extracted from the DWARF sections of the simulated module \
     binary)\n\n"
    ^ Pico_dwarf.Extract.render_c_header ex
  | Error e -> "listing1: extraction failed: " ^ e

(* --- SLOC comparison -------------------------------------------------------- *)

let rec find_repo_root dir =
  if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
  else begin
    let parent = Filename.dirname dir in
    if parent = dir then None else find_repo_root parent
  end

let count_sloc path =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && not (String.length line >= 2 && String.sub line 0 2 = "(*")
         then incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  end

let sloc () =
  match find_repo_root (Sys.getcwd ()) with
  | None -> "sloc: repository root not found (run from within the repo)\n"
  | Some root ->
    let p rel = Filename.concat root rel in
    let linux_files =
      [ "lib/linux/hfi1_driver.ml"; "lib/linux/hfi1_structs.ml";
        "lib/linux/vfs.ml"; "lib/linux/slab.ml"; "lib/linux/gup.ml";
        "lib/linux/spinlock.ml"; "lib/linux/workqueue.ml";
        "lib/linux/umem.ml"; "lib/linux/kernel.ml"; "lib/linux/uproc.ml";
        "lib/linux/noise.ml"; "lib/linux/layout.ml" ]
    in
    let pico_files =
      [ "lib/picodriver/hfi1_pico.ml" ]
    in
    let sum files = List.fold_left (fun a f -> a + count_sloc (p f)) 0 files in
    let linux_sloc = sum linux_files and pico_sloc = sum pico_files in
    Printf.sprintf
      "Porting effort (this reproduction's source footprint):\n\
      \  Linux driver stack model : %5d SLOC across %d files\n\
      \  HFI1 PicoDriver fast path: %5d SLOC (%s of the driver stack)\n\n\
       Paper: Intel's HFI1 Linux driver ~50 kSLOC; ported fast path <3 kSLOC\n\
       (<6%%).  The same ratio band holds here: only the SDMA-send and TID\n\
       registration paths move to the LWK.\n"
      linux_sloc (List.length linux_files) pico_sloc
      (Tables.pct (float_of_int pico_sloc /. float_of_int linux_sloc))

(* --- The wider IMB-MPI1 suite ---------------------------------------------- *)

let imb_suite ?(nodes = 2) ?(ranks_per_node = 1) ?jobs () =
  Engine_obs.measure ~figure:"imb" @@ fun () ->
  let sizes = [ 1024; 65536; 1048576 ] in
  let benches :
      (string * bool
       * (?iters:int -> ?sizes:int list -> out:Pico_apps.Imb.point list ref ->
          Comm.t -> float))
      list =
    [ ("PingPong", true, Pico_apps.Imb.pingpong);
      ("PingPing", true, Pico_apps.Imb.pingping);
      ("SendRecv", true, Pico_apps.Imb.sendrecv);
      ("Exchange", true, Pico_apps.Imb.exchange);
      ("Bcast", false, Pico_apps.Imb.bcast);
      ("Allreduce", false, Pico_apps.Imb.allreduce);
      ("Reduce", false, Pico_apps.Imb.reduce);
      ("Allgather", false, Pico_apps.Imb.allgather);
      ("Alltoall", false, Pico_apps.Imb.alltoall);
      ("Gather", false, Pico_apps.Imb.gather);
      ("Scatter", false, Pico_apps.Imb.scatter) ]
  in
  let points =
    List.concat_map
      (fun kind ->
        List.map (fun (name, _payload, bench) -> (kind, name, Some bench))
          benches
        @ [ (kind, "Barrier", None) ])
      os_kinds
  in
  let outcomes =
    Pool.with_pool ?jobs (fun pool ->
        Pool.map pool
          (fun (kind, name, bench) ->
            let cl = Cluster.build kind ~n_nodes:nodes () in
            let out = ref [] in
            (match bench with
             | Some bench ->
               ignore
                 (Experiment.run cl ~ranks_per_node (fun comm ->
                      bench ?iters:(Some 20) ?sizes:(Some sizes) ~out comm))
             | None ->
               ignore
                 (Experiment.run cl ~ranks_per_node (fun comm ->
                      Pico_apps.Imb.barrier ~iters:50 ~out comm)));
            (kind, name, !out))
          points)
  in
  let results =
    List.map
      (fun kind ->
        let per_bench =
          List.filter_map
            (fun (k, name, out) -> if k = kind then Some (name, out) else None)
            outcomes
        in
        (kind, per_bench))
      os_kinds
  in
  List.iter
    (fun ((name, payload, _) :
           string * bool
           * (?iters:int -> ?sizes:int list ->
              out:Pico_apps.Imb.point list ref -> Comm.t -> float)) ->
      List.iter
        (fun kind ->
          let per_bench = List.assoc kind results in
          List.iter
            (fun (p : Pico_apps.Imb.point) ->
              if payload then
                Report.record ~figure:"imb"
                  ~metric:
                    (Printf.sprintf "%s/%s/%dB_mbps" name (os_tag kind)
                       p.Pico_apps.Imb.size)
                  p.Pico_apps.Imb.mbps
              else
                Report.record ~figure:"imb"
                  ~metric:
                    (Printf.sprintf "%s/%s/%dB_ns" name (os_tag kind)
                       p.Pico_apps.Imb.size)
                  p.Pico_apps.Imb.time_ns)
            (List.assoc name per_bench))
        os_kinds)
    benches;
  let b = Buffer.create 4096 in
  buf_add b
    (Printf.sprintf "IMB-MPI1 suite (%d nodes x %d ranks)

" nodes
       ranks_per_node);
  List.iter
    (fun (name, payload, _) ->
      let rows =
        List.map
          (fun size ->
            let cell kind =
              let per_bench = List.assoc kind results in
              match
                List.find_opt
                  (fun (p : Pico_apps.Imb.point) -> p.Pico_apps.Imb.size = size)
                  (List.assoc name per_bench)
              with
              | Some p ->
                if payload then Printf.sprintf "%.0f MB/s" p.Pico_apps.Imb.mbps
                else Tables.ns p.Pico_apps.Imb.time_ns
              | None -> "-"
            in
            [ string_of_int size; cell Cluster.Linux; cell Cluster.Mckernel;
              cell Cluster.Mckernel_hfi ])
          sizes
      in
      buf_add b (name ^ "
");
      buf_add b
        (Tables.render
           ~header:[ "bytes"; "Linux"; "McKernel"; "McKernel+HFI1" ]
           rows);
      buf_add b "
")
    benches;
  (* Barrier: single row. *)
  let cell kind =
    let per_bench = List.assoc kind results in
    match List.assoc "Barrier" per_bench with
    | [ p ] -> Tables.ns p.Pico_apps.Imb.time_ns
    | _ -> "-"
  in
  buf_add b "Barrier
";
  buf_add b
    (Tables.render
       ~header:[ ""; "Linux"; "McKernel"; "McKernel+HFI1" ]
       [ [ "t/iter"; cell Cluster.Linux; cell Cluster.Mckernel;
           cell Cluster.Mckernel_hfi ] ]);
  Buffer.contents b

(* --- Extension: InfiniBand memory registration ---------------------------- *)

let ibreg ?(registrations = 64) ?jobs () =
  Engine_obs.measure ~figure:"ibreg" @@ fun () ->
  let module Mlx = Pico_linux.Mlx_driver in
  let run kind =
    let cl = Cluster.build kind ~n_nodes:1 () in
    let env = Cluster.node_env cl 0 in
    let sim = cl.Cluster.sim in
    let mean = ref 0. in
    let dev = Mlx.dev_name 0 in
    (match kind with
     | Cluster.Linux ->
       Sim.spawn sim (fun () ->
           let p = Lkernel.new_process env.Cluster.linux in
           let caller = Pico_linux.Uproc.caller p in
           let vfs = env.Cluster.linux.Lkernel.vfs in
           let f = Vfs.openf vfs caller dev in
           let buf = Pico_linux.Uproc.mmap_anon p (Addr.mib 2) in
           let argp = Pico_linux.Uproc.mmap_anon p 4096 in
           Pico_linux.Uproc.write p argp
             (Mlx.encode_reg_mr { Mlx.mr_va = buf; mr_len = Addr.mib 2 });
           let t0 = Sim.now sim in
           for _ = 1 to registrations do
             let lkey =
               Lkernel.syscall env.Cluster.linux ~name:"ioctl" (fun () ->
                   Vfs.ioctl vfs caller ~fd:f.Vfs.fd ~cmd:Mlx.ioctl_reg_mr
                     ~arg:argp)
             in
             ignore
               (Lkernel.syscall env.Cluster.linux ~name:"ioctl" (fun () ->
                    Vfs.ioctl vfs caller ~fd:f.Vfs.fd ~cmd:Mlx.ioctl_dereg_mr
                      ~arg:lkey))
           done;
           mean := (Sim.now sim -. t0) /. float_of_int registrations)
     | Cluster.Mckernel | Cluster.Mckernel_hfi ->
       let mck = Option.get env.Cluster.mck in
       Sim.spawn sim (fun () ->
           let pc = Mck.new_process mck in
           let fd = Mck.open_dev mck pc dev in
           let buf = Mck.mmap_anon mck pc ~len:(Addr.mib 2) in
           let argp = Mck.mmap_anon mck pc ~len:4096 in
           Pico_mck.Proc.write pc.Mck.proc argp
             (Mlx.encode_reg_mr { Mlx.mr_va = buf; mr_len = Addr.mib 2 });
           let t0 = Sim.now sim in
           for _ = 1 to registrations do
             let lkey = Mck.ioctl mck pc ~fd ~cmd:Mlx.ioctl_reg_mr ~arg:argp in
             ignore (Mck.ioctl mck pc ~fd ~cmd:Mlx.ioctl_dereg_mr ~arg:lkey)
           done;
           mean := (Sim.now sim -. t0) /. float_of_int registrations));
    ignore (Sim.run sim);
    Engine_obs.note_sim sim;
    Subsys_obs.note_cluster cl;
    let saved =
      match env.Cluster.mlx_pico with
      | Some mp -> Pico_driver.Mlx_pico.entries_saved mp
      | None -> 0
    in
    (!mean, saved)
  in
  let linux, mck, hfi, saved =
    match Pool.with_pool ?jobs (fun pool -> Pool.map pool run os_kinds) with
    | [ (l, _); (m, _); (h, saved) ] -> (l, m, h, saved)
    | _ -> assert false
  in
  Report.record ~figure:"ibreg" ~metric:"linux_ns" linux;
  Report.record ~figure:"ibreg" ~metric:"mck_ns" mck;
  Report.record ~figure:"ibreg" ~metric:"hfi_ns" hfi;
  Report.record ~figure:"ibreg" ~metric:"mtt_saved" (float_of_int saved);
  "Extension (paper future work): InfiniBand memory registration\n   (register + deregister one pinned 2 MB buffer; mean per cycle)\n"
  ^ Tables.render
      ~header:[ "OS"; "reg+dereg"; "vs Linux" ]
      [ [ "Linux"; Tables.ns linux; "100.0%" ];
        [ "McKernel (offloaded)"; Tables.ns mck; Tables.pct (linux /. mck) ];
        [ "McKernel + mlx PicoDriver"; Tables.ns hfi; Tables.pct (linux /. hfi) ] ]
  ^ Printf.sprintf
      "\nMTT entries saved by contiguity-aware registration: %d\n" saved

(* --- Ablations --------------------------------------------------------------- *)

let pingpong_once ?topology kind ~size =
  let cl = Cluster.build kind ~n_nodes:2 ?topology () in
  let out = ref [] in
  ignore
    (Experiment.run cl ~ranks_per_node:1 (fun comm ->
         Pico_apps.Imb.pingpong ~iters:30 ~sizes:[ size ] ~out comm));
  match !out with
  | [ p ] -> p.Pico_apps.Imb.mbps
  | _ -> invalid_arg "pingpong_once: unexpected output"

(* Runs inline on the calling domain: each configuration patches the
   (domain-local) cost table or the PSM config around a single run, so
   there is no homogeneous sweep to fan out. *)
let ablations () =
  Engine_obs.measure ~figure:"ablations" @@ fun () ->
  let b = Buffer.create 2048 in
  let size = 4 * 1024 * 1024 in
  (* 1. SDMA request size. *)
  let linux = pingpong_once Cluster.Linux ~size in
  let hfi_10k = pingpong_once Cluster.Mckernel_hfi ~size in
  let hfi_4k =
    Costs.with_patched
      (fun c -> c.Costs.sdma_max_request <- 4096)
      (fun () -> pingpong_once Cluster.Mckernel_hfi ~size)
  in
  Report.record ~figure:"ablations" ~metric:"sdma_linux_mbps" linux;
  Report.record ~figure:"ablations" ~metric:"sdma_hfi_10k_mbps" hfi_10k;
  Report.record ~figure:"ablations" ~metric:"sdma_hfi_4k_mbps" hfi_4k;
  buf_add b "Ablation 1: SDMA request size (4 MB ping-pong, MB/s)\n";
  buf_add b
    (Tables.render
       ~header:[ "configuration"; "MB/s"; "vs Linux" ]
       [ [ "Linux (4 kB requests)"; Printf.sprintf "%.0f" linux; "+0.0%" ];
         [ "PicoDriver, 10 kB requests"; Printf.sprintf "%.0f" hfi_10k;
           Printf.sprintf "%+.1f%%" ((hfi_10k /. linux -. 1.) *. 100.) ];
         [ "PicoDriver capped at PAGE_SIZE"; Printf.sprintf "%.0f" hfi_4k;
           Printf.sprintf "%+.1f%%" ((hfi_4k /. linux -. 1.) *. 100.) ] ]);
  (* 2. OS noise. *)
  let nekbone kind =
    let cl = Cluster.build kind ~n_nodes:4 () in
    (Experiment.run cl ~ranks_per_node:16 (fun c -> Pico_apps.Nekbone.run c))
      .Experiment.fom_ns
  in
  let tuned = nekbone Cluster.Linux in
  let stock =
    Costs.with_patched
      (fun c -> c.Costs.nohz_full_factor <- 1.0)
      (fun () -> nekbone Cluster.Linux)
  in
  let lwk = nekbone Cluster.Mckernel in
  Report.record ~figure:"ablations" ~metric:"noise_tuned_fom_ns" tuned;
  Report.record ~figure:"ablations" ~metric:"noise_stock_fom_ns" stock;
  Report.record ~figure:"ablations" ~metric:"noise_lwk_fom_ns" lwk;
  buf_add b "\nAblation 2: OS noise (Nekbone, 4 nodes x 16 ranks)\n";
  buf_add b
    (Tables.render
       ~header:[ "configuration"; "FOM"; "vs tuned" ]
       [ [ "Linux, HPC-tuned (nohz_full)"; Tables.ns tuned; "+0.0%" ];
         [ "Linux, stock (full noise)"; Tables.ns stock;
           Printf.sprintf "%+.1f%%" ((stock /. tuned -. 1.) *. 100.) ];
         [ "McKernel (noise-free LWK)"; Tables.ns lwk;
           Printf.sprintf "%+.1f%%" ((lwk /. tuned -. 1.) *. 100.) ] ]);
  (* 3. TID registration cache. *)
  let mck_nocache = pingpong_once Cluster.Mckernel ~size in
  let mck_cache =
    Pico_psm.Config.with_tid_cache true (fun () ->
        pingpong_once Cluster.Mckernel ~size)
  in
  Report.record ~figure:"ablations" ~metric:"tid_nocache_mbps" mck_nocache;
  Report.record ~figure:"ablations" ~metric:"tid_cache_mbps" mck_cache;
  buf_add b "\nAblation 3: TID registration cache (4 MB ping-pong, MB/s)\n";
  buf_add b
    (Tables.render
       ~header:[ "configuration"; "MB/s"; "vs Linux" ]
       [ [ "Linux"; Printf.sprintf "%.0f" linux; "+0.0%" ];
         [ "McKernel, register every transfer";
           Printf.sprintf "%.0f" mck_nocache;
           Printf.sprintf "%+.1f%%" ((mck_nocache /. linux -. 1.) *. 100.) ];
         [ "McKernel, TID cache enabled"; Printf.sprintf "%.0f" mck_cache;
           Printf.sprintf "%+.1f%%" ((mck_cache /. linux -. 1.) *. 100.) ] ]);
  Buffer.contents b

(* --- Fault injection, SDMA halt/recovery, fast-path fallback --------------- *)

let fault_pingpong kind ~size ~iters =
  let cl = Cluster.build kind ~n_nodes:2 () in
  Fault.install cl;
  let out = ref [] in
  ignore
    (Experiment.run cl ~ranks_per_node:1 (fun comm ->
         Pico_apps.Imb.pingpong ~iters ~sizes:[ size ] ~out comm));
  match !out with
  | [ p ] -> p.Pico_apps.Imb.mbps
  | _ -> invalid_arg "fault_pingpong: unexpected output"

(* The sweep configurations: each row patches the (domain-local) cost
   table inside its pool job, so points stay independent worlds. *)
let fault_configs : (string * string * (Costs.t -> unit)) list =
  [ ("no faults", "none", fun _ -> ());
    ("wire CRC 0.05%/pkt", "crc", fun c -> c.Costs.fault_wire_crc <- 5.0e-4);
    ("IKC drop 2%/msg", "ikc", fun c -> c.Costs.fault_ikc_drop <- 0.02);
    ("SDMA halts (mean 8ms)", "halt",
     fun c -> c.Costs.fault_sdma_halt_interval <- 8.0e6);
    ("service stalls (mean 8ms)", "stall",
     fun c -> c.Costs.fault_service_stall_interval <- 8.0e6) ]

(* --- Fabric fault domain: link failures, failover, degradation ------------- *)

(* One degradation-sweep point: an 8-node world, ping-pong between the
   two most distant nodes (cross-leaf on a fat-tree, so the flow rides
   the up/down links where the injector lives), per-iteration latency
   samples.  Returns goodput (IMB MB/s over the loop), the p99 one-way
   time, and the world's fabric fault counters. *)
let degrade_point ?topology ?(install = true) kind ~n_nodes ~size ~iters =
  let cl = Cluster.build kind ~n_nodes ?topology () in
  if install then Fault.install cl;
  let out = ref [] in
  let elapsed = ref 0. in
  ignore
    (Experiment.run cl ~ranks_per_node:1 (fun comm ->
         elapsed :=
           Pico_apps.Imb.pingpong_samples ~iters ~peer:(n_nodes - 1) ~size
             ~out comm;
         !elapsed));
  let samples = List.sort compare !out in
  let n = List.length samples in
  let p99 = if n = 0 then 0. else List.nth samples (min (n - 1) (n * 99 / 100)) in
  let goodput =
    (* bytes/ns * 1000 = IMB MB/s; NaN-safe on a degenerate loop. *)
    Subsys_obs.ratio (float_of_int (2 * size * iters)) !elapsed *. 1000.
  in
  (goodput, p99, Fabric.fault_stats cl.Cluster.fabric)

(* The degradation axes: link MTBF (down windows), bandwidth derate
   windows, and the combined storm with corrupt-and-replay on top.
   Aggressive-but-bounded rates, sized so several windows land inside
   the ping-pong loop; every knob is a domain-local cost patch. *)
let fabric_fault_configs : (string * string * (Costs.t -> unit)) list =
  let arm c = c.Costs.fault_horizon <- 4.0e7 in
  [ ("no faults", "none", fun _ -> ());
    ("link down (MTBF 400us)", "down",
     fun c ->
       arm c;
       c.Costs.fault_link_down_interval <- 4.0e5;
       c.Costs.fault_link_down_duration <- 1.0e5);
    ("derate 50% (MTBF 300us)", "derate",
     fun c ->
       arm c;
       c.Costs.fault_link_derate_interval <- 3.0e5;
       c.Costs.fault_link_derate_duration <- 2.0e5);
    ("down + derate + corrupt 0.1%", "storm",
     fun c ->
       arm c;
       c.Costs.fault_link_down_interval <- 4.0e5;
       c.Costs.fault_link_down_duration <- 1.0e5;
       c.Costs.fault_link_derate_interval <- 3.0e5;
       c.Costs.fault_link_derate_duration <- 2.0e5;
       c.Costs.fault_link_corrupt <- 1.0e-3) ]

let fabric_fault_topos =
  [ ("flat", None);
    ("ft 2:1", Some (Topology.Fat_tree { radix = 4; oversub = 2 })) ]

let fabric_faults ?jobs () =
  let b = Buffer.create 4096 in
  let n_nodes = 8 and size = 64 * 1024 and iters = 120 in
  (* Part D: with every fabric fault rate zero, arming the injector is a
     complete no-op (it may not even split the cluster RNG); and an
     injector whose schedule drew no windows at all must leave the hot
     path bit-identical to no injector — the armed fast paths add only
     an option check.  Both laws, on both topologies. *)
  let zero_ok =
    List.for_all
      (fun (_, topology) ->
        let base =
          degrade_point ?topology ~install:false Cluster.Mckernel_hfi
            ~n_nodes ~size ~iters
        and armed_defaults =
          degrade_point ?topology Cluster.Mckernel_hfi ~n_nodes ~size ~iters
        and armed_empty =
          (* horizon 1 ns, MTBF 1 ms: the schedule draw comes up empty,
             but the injector (and its Some-path plumbing) is installed. *)
          Costs.with_patched
            (fun c ->
              c.Costs.fault_horizon <- 1.0;
              c.Costs.fault_link_down_interval <- 1.0e6)
            (fun () ->
              degrade_point ?topology Cluster.Mckernel_hfi ~n_nodes ~size
                ~iters)
        in
        (* exact float compare, deliberately *)
        base = armed_defaults && base = armed_empty)
      fabric_fault_topos
  in
  Report.record ~figure:"faults" ~metric:"fabric/zero_rate_equiv"
    (if zero_ok then 1. else 0.);
  buf_add b
    (Printf.sprintf "fabric faults zero-rate: %s (flat + fat-tree)\n\n"
       (if zero_ok then "OK, byte-identical" else "MISMATCH"));
  (* Part E: the degradation sweep.  MTBF x derate x topology x OS kind;
     each point patches its own domain-local cost table, the schedule
     derives from the cluster seed, so the sweep is byte-identical at
     any -j. *)
  let points =
    List.concat_map
      (fun (cfg_label, tag, patch) ->
        List.concat_map
          (fun (topo_label, topology) ->
            List.map
              (fun kind -> (cfg_label, tag, patch, topo_label, topology, kind))
              os_kinds)
          fabric_fault_topos)
      fabric_fault_configs
  in
  let results =
    Pool.with_pool ?jobs (fun pool ->
        Pool.map pool
          (fun (_, _, patch, _, topology, kind) ->
            Costs.with_patched patch (fun () ->
                degrade_point ?topology kind ~n_nodes ~size ~iters))
          points)
  in
  let topo_tag = function "flat" -> "flat" | _ -> "o2" in
  let cell tag topo kind =
    List.fold_left2
      (fun acc (_, t, _, tl, _, k) r ->
        if t = tag && tl = topo && k = kind then Some r else acc)
      None points results
  in
  List.iter2
    (fun (_, tag, _, topo_label, _, kind) (mbps, p99, _) ->
      let prefix =
        Printf.sprintf "degrade/%s/%s/%s" tag (topo_tag topo_label)
          (os_tag kind)
      in
      Report.record ~figure:"faults" ~metric:(prefix ^ "_mbps") mbps;
      Report.record ~figure:"faults" ~metric:(prefix ^ "_p99_ns") p99;
      if tag <> "none" then begin
        match cell "none" topo_label kind with
        | Some (base_mbps, base_p99, _) ->
          (* NaN-safe ratios: an all-down sweep reports 0, never inf. *)
          Report.record ~figure:"faults" ~metric:(prefix ^ "_retention")
            (Subsys_obs.ratio mbps base_mbps);
          Report.record ~figure:"faults" ~metric:(prefix ^ "_p99_inflation")
            (Subsys_obs.ratio p99 base_p99)
        | None -> ()
      end)
    points results;
  List.iter
    (fun (topo_label, _) ->
      let rows =
        List.map
          (fun (cfg_label, tag, _) ->
            let col kind =
              match (cell tag topo_label kind, cell "none" topo_label kind) with
              | Some (mbps, _, _), Some (base, _, _) ->
                Printf.sprintf "%.0f (%.0f%%)" mbps
                  (Subsys_obs.ratio mbps base *. 100.)
              | _ -> "-"
            in
            let p99_infl =
              match
                (cell tag topo_label Cluster.Mckernel_hfi,
                 cell "none" topo_label Cluster.Mckernel_hfi)
              with
              | Some (_, p, _), Some (_, base, _) ->
                Printf.sprintf "%.2fx" (Subsys_obs.ratio p base)
              | _ -> "-"
            in
            [ cfg_label; col Cluster.Linux; col Cluster.Mckernel;
              col Cluster.Mckernel_hfi; p99_infl ])
          fabric_fault_configs
      in
      buf_add b
        (Printf.sprintf
           "Fabric degradation, %s (%d nodes, %d kB cross-fabric ping-pong; \
            MB/s and goodput retention)\n"
           topo_label n_nodes (size / 1024));
      buf_add b
        (Tables.render
           ~header:
             [ "fault load"; "Linux"; "McKernel"; "McKernel+HFI1"; "hfi p99" ]
           rows);
      (match cell "storm" topo_label Cluster.Mckernel_hfi with
       | Some (_, _, fs) ->
         buf_add b
           (Printf.sprintf
              "storm (hfi): %d parks, %d replays, %d reroutes, %d egress \
               parks, %d retries, %d degraded flows\n"
              fs.Fabric.fs_parks fs.Fabric.fs_replays fs.Fabric.fs_reroutes
              fs.Fabric.fs_egress_parks fs.Fabric.fs_retries
              fs.Fabric.fs_degraded)
       | None -> ());
      buf_add b "\n")
    fabric_fault_topos;
  Buffer.contents b

let faults ?(size = 1024 * 1024) ?(iters = 30) ?jobs () =
  Engine_obs.measure ~figure:"faults" @@ fun () ->
  let b = Buffer.create 4096 in
  buf_add b "Fault injection: SDMA halt/recovery and fast-path fallback\n\n";
  (* Part A: with every fault rate zero, arming the injector is a
     complete no-op — the sunny-day world is byte-identical. *)
  let base = pingpong_once Cluster.Mckernel_hfi ~size in
  let armed_zero = fault_pingpong Cluster.Mckernel_hfi ~size ~iters:30 in
  let equal = base = armed_zero (* exact float compare, deliberately *) in
  Report.record ~figure:"faults" ~metric:"zero_rate_equiv"
    (if equal then 1. else 0.);
  buf_add b
    (Printf.sprintf "zero-rate fault install: %s (%.1f MB/s)\n\n"
       (if equal then "OK, byte-identical" else "MISMATCH")
       armed_zero);
  (* Part B: one deterministic halt window mid-run.  The Linux driver
     walks Listing 1 out of s99_running; the PicoDriver — which sees the
     engine state only through DWARF extraction — degrades to the
     syscall-offload slow path, then resumes the fast path once the
     driver restores s99_running. *)
  let probe_out = ref [] in
  let probe =
    let cl = Cluster.build Cluster.Mckernel_hfi ~n_nodes:2 () in
    Experiment.run cl ~ranks_per_node:1 (fun comm ->
        Pico_apps.Imb.pingpong ~iters ~sizes:[ size ] ~out:probe_out comm)
  in
  let probe_mbps =
    match !probe_out with
    | [ p ] -> p.Pico_apps.Imb.mbps
    | _ -> invalid_arg "faults: unexpected probe output"
  in
  let w = probe.Experiment.wall_ns and i = probe.Experiment.init_ns in
  let t_halt = i +. (0.30 *. (w -. i)) in
  let dwell = 0.25 *. (w -. i) in
  let cl = Cluster.build Cluster.Mckernel_hfi ~n_nodes:2 () in
  let env = Cluster.node_env cl 0 in
  let sim = cl.Cluster.sim in
  let drv = env.Cluster.driver in
  let n_eng = Sdma.n_engines (Hfi.sdma env.Cluster.hfi) in
  let samples = ref [] in
  let sample label =
    match env.Cluster.pico with
    | Some p ->
      samples :=
        (label, Hfi1_pico.writev_fast p, Hfi1_pico.writev_fallback p)
        :: !samples
    | None -> ()
  in
  Sim.spawn sim ~name:"fault-window" (fun () ->
      Sim.delay_until sim t_halt;
      sample "pre-halt";
      for e = 0 to n_eng - 1 do
        Hfi1_driver.halt_engine drv ~engine_idx:e
      done;
      Sim.delay sim dwell;
      sample "halted";
      for e = 0 to n_eng - 1 do
        Hfi1_driver.begin_engine_recovery drv ~engine_idx:e
      done;
      Sim.delay sim (Costs.current ()).Costs.fault_sdma_restart;
      for e = 0 to n_eng - 1 do
        Hfi1_driver.recover_engine drv ~engine_idx:e
      done;
      sample "recovered");
  let out = ref [] in
  ignore
    (Experiment.run cl ~ranks_per_node:1 (fun comm ->
         Pico_apps.Imb.pingpong ~iters ~sizes:[ size ] ~out comm));
  sample "end";
  let faulted_mbps =
    match !out with
    | [ p ] -> p.Pico_apps.Imb.mbps
    | _ -> invalid_arg "faults: unexpected pingpong output"
  in
  let find label =
    match List.find_opt (fun (l, _, _) -> l = label) !samples with
    | Some (_, fast, fb) -> (fast, fb)
    | None -> (0, 0)
  in
  let fast_pre, fb_pre = find "pre-halt" in
  let _, fb_halted = find "halted" in
  let fast_rec, _ = find "recovered" in
  let fast_end, fb_end = find "end" in
  let fallback_during = fb_halted - fb_pre in
  let fast_after = fast_end - fast_rec in
  Report.record ~figure:"faults" ~metric:"halt/baseline_mbps" probe_mbps;
  Report.record ~figure:"faults" ~metric:"halt/faulted_mbps" faulted_mbps;
  Report.record ~figure:"faults" ~metric:"halt/fast_before"
    (float_of_int fast_pre);
  Report.record ~figure:"faults" ~metric:"halt/fallback_during"
    (float_of_int fallback_during);
  Report.record ~figure:"faults" ~metric:"halt/fast_after"
    (float_of_int fast_after);
  Report.record ~figure:"faults" ~metric:"halt/engine_halts"
    (float_of_int (Hfi1_driver.engine_halts drv));
  buf_add b
    (Printf.sprintf
       "Single halt window (engines 0-%d out of s99_running for %s mid-run)\n"
       (n_eng - 1) (Tables.ns dwell));
  buf_add b
    (Tables.render
       ~header:[ "phase"; "fast submits"; "fallback submits" ]
       [ [ "before halt"; string_of_int fast_pre; string_of_int fb_pre ];
         [ "while halted"; "-"; string_of_int fallback_during ];
         [ "after recovery"; string_of_int fast_after;
           string_of_int (fb_end - fb_halted) ] ]);
  buf_add b
    (Printf.sprintf
       "fast path %s during the window, %s after recovery (%.0f -> %.0f MB/s)\n\n"
       (if fallback_during > 0 then "degraded to syscall offload"
        else "DID NOT degrade")
       (if fast_after > 0 then "resumed" else "DID NOT resume")
       probe_mbps faulted_mbps);
  (* Part C: seed-deterministic fault-rate sweep across OS configurations.
     Each point patches its own domain-local cost table; the plan derives
     from the cluster seed, so the sweep is byte-identical at any -j. *)
  let horizon = Float.max 4.0e7 (2. *. w) in
  let points =
    List.concat_map
      (fun (label, tag, patch) ->
        List.map (fun kind -> (label, tag, patch, kind)) os_kinds)
      fault_configs
  in
  let mbps =
    Pool.with_pool ?jobs (fun pool ->
        Pool.map pool
          (fun (_, _, patch, kind) ->
            Costs.with_patched
              (fun c ->
                patch c;
                c.Costs.fault_horizon <- horizon)
              (fun () -> fault_pingpong kind ~size ~iters))
          points)
  in
  List.iter2
    (fun (_, tag, _, kind) v ->
      Report.record ~figure:"faults"
        ~metric:(Printf.sprintf "sweep/%s/%s_mbps" tag (os_tag kind))
        v)
    points mbps;
  let rows =
    List.map
      (fun (label, tag, _) ->
        let cell kind =
          let v =
            List.fold_left2
              (fun acc (_, t, _, k) v ->
                if t = tag && k = kind then Some v else acc)
              None points mbps
          in
          match v with Some v -> Printf.sprintf "%.0f" v | None -> "-"
        in
        [ label; cell Cluster.Linux; cell Cluster.Mckernel;
          cell Cluster.Mckernel_hfi ])
      fault_configs
  in
  buf_add b
    (Printf.sprintf "Fault-rate sweep (%d kB ping-pong, MB/s)\n" (size / 1024));
  buf_add b
    (Tables.render
       ~header:[ "fault load"; "Linux"; "McKernel"; "McKernel+HFI1" ]
       rows);
  buf_add b "\n";
  buf_add b (fabric_faults ?jobs ());
  Buffer.contents b

(* --- Fabric topology: fat-tree congestion ---------------------------------- *)

(* One sweep point: an allreduce- and alltoall-heavy IMB mix whose
   cross-leaf traffic concentrates on the fat-tree uplinks, so shrinking
   the spine tier (oversubscription) shows up directly in the time. *)
let fabric_point ?topology kind ~n_nodes ~rpn =
  let cl = Cluster.build kind ~n_nodes ?topology () in
  let ar = ref [] and aa = ref [] in
  ignore
    (Experiment.run cl ~ranks_per_node:rpn (fun comm ->
         let t1 =
           Pico_apps.Imb.allreduce ~iters:6 ~sizes:[ 256 * 1024 ] ~out:ar comm
         in
         let t2 =
           Pico_apps.Imb.alltoall ~iters:3 ~sizes:[ 64 * 1024 ] ~out:aa comm
         in
         t1 +. t2));
  match (!ar, !aa) with
  | [ a ], [ b ] -> a.Pico_apps.Imb.time_ns +. b.Pico_apps.Imb.time_ns
  | _ -> invalid_arg "fabric_point: unexpected output"

(* Radix-4 two-level fat-tree at three oversubscription ratios, against
   the calibrated flat model.  [None] exercises the default build path,
   which Part A separately pins to [Topology.Flat]. *)
let fabric_topos =
  [ ("flat", None);
    ("ft 1:1", Some (Topology.Fat_tree { radix = 4; oversub = 1 }));
    ("ft 2:1", Some (Topology.Fat_tree { radix = 4; oversub = 2 }));
    ("ft 4:1", Some (Topology.Fat_tree { radix = 4; oversub = 4 })) ]

let fabric_topo_tag = function
  | "flat" -> "flat"
  | "ft 1:1" -> "o1"
  | "ft 2:1" -> "o2"
  | "ft 4:1" -> "o4"
  | s -> invalid_arg ("fabric_topo_tag: " ^ s)

let fabric ?jobs () =
  Engine_obs.measure ~figure:"fabric" @@ fun () ->
  let b = Buffer.create 4096 in
  buf_add b "Fabric topology: fat-tree congestion under oversubscription\n\n";
  (* Part A: the default topology IS the flat calibrated model — a world
     built with no [?topology] argument must be byte-identical to one
     built with an explicit [Topology.Flat]. *)
  let size = 1024 * 1024 in
  let default_mbps = pingpong_once Cluster.Mckernel_hfi ~size in
  let flat_mbps =
    pingpong_once ~topology:Topology.Flat Cluster.Mckernel_hfi ~size
  in
  let equal = default_mbps = flat_mbps (* exact float compare *) in
  Report.record ~figure:"fabric" ~metric:"flat_default_equiv"
    (if equal then 1. else 0.);
  buf_add b
    (Printf.sprintf "flat-topology default: %s (%.1f MB/s)\n\n"
       (if equal then "OK, byte-identical" else "MISMATCH")
       flat_mbps);
  (* Part B: oversubscription x node count x OS sweep.  Each point is an
     independent world; the route of every packet is a pure function of
     (src, dst, dst_ctx), so the sweep is byte-identical at any -j. *)
  let node_counts = [ 8; 16 ] in
  let rpn = 4 in
  let points =
    List.concat_map
      (fun (label, topology) ->
        List.concat_map
          (fun n_nodes ->
            List.map (fun kind -> (label, topology, n_nodes, kind)) os_kinds)
          node_counts)
      fabric_topos
  in
  let times =
    Pool.with_pool ?jobs (fun pool ->
        Pool.map pool
          (fun (_, topology, n_nodes, kind) ->
            fabric_point ?topology kind ~n_nodes ~rpn)
          points)
  in
  List.iter2
    (fun (label, _, n_nodes, kind) t ->
      Report.record ~figure:"fabric"
        ~metric:
          (Printf.sprintf "%s/n%d/%s_ns" (fabric_topo_tag label) n_nodes
             (os_tag kind))
        t)
    points times;
  let cell label n_nodes kind =
    List.fold_left2
      (fun acc (l, _, n, k) t ->
        if l = label && n = n_nodes && k = kind then Some t else acc)
      None points times
  in
  List.iter
    (fun n_nodes ->
      let flat_hfi = cell "flat" n_nodes Cluster.Mckernel_hfi in
      let rows =
        List.map
          (fun (label, _) ->
            let col kind =
              match cell label n_nodes kind with
              | Some t -> Tables.ns t
              | None -> "-"
            in
            let slowdown =
              match (cell label n_nodes Cluster.Mckernel_hfi, flat_hfi) with
              | Some t, Some f when f > 0. ->
                let r = t /. f in
                Report.record ~figure:"fabric"
                  ~metric:
                    (Printf.sprintf "%s/n%d/hfi_vs_flat"
                       (fabric_topo_tag label) n_nodes)
                  r;
                Printf.sprintf "%.2fx" r
              | _ -> "-"
            in
            [ label; col Cluster.Linux; col Cluster.Mckernel;
              col Cluster.Mckernel_hfi; slowdown ])
          fabric_topos
      in
      buf_add b
        (Printf.sprintf
           "%d nodes x %d ranks (allreduce 256 kB + alltoall 64 kB)\n" n_nodes
           rpn);
      buf_add b
        (Tables.render
           ~header:
             [ "topology"; "Linux"; "McKernel"; "McKernel+HFI1"; "vs flat" ]
           rows);
      buf_add b "\n")
    node_counts;
  Buffer.contents b

(* --- At-scale sweeps on the sharded engine ----------------------------------- *)

(* The Figures 5-7-shaped sweep pushed to the node counts the paper's
   cluster actually had, made tractable by per-node event sharding
   ([Cluster.build ~sharding], with the content-ordered barrier merge;
   flat worlds only).  Part A runs the big sweep sharded; Part B is the
   oversubscribed fat-tree tail.  That sharding changes no simulation
   result is test_scale's law, on the UMT wavefront world. *)

let at_scale_nodes s =
  if s = full then [ 256; 512; 1024 ]
  else if s = medium then [ 64; 128; 256; 512 ]
  else [ 64; 128; 256 ]

(* The oversubscribed fat-tree tail: fewer, larger node counts than the
   flat sweep, with a starved core (radix 4, oversub 2: two spines for
   four hosts per leaf). *)
let oversub_nodes s =
  if s = full then [ 64; 128; 256 ]
  else if s = medium then [ 32; 64 ]
  else [ 16; 32 ]

let oversub_topo = Topology.Fat_tree { radix = 4; oversub = 2 }

let at_scale ?(scale = quick) ?jobs () =
  Engine_obs.measure ~figure:"scale" @@ fun () ->
  let refused0 = Cluster.shard_refusals () in
  let b = Buffer.create 4096 in
  buf_add b "At-scale collapse on the sharded engine\n\n";
  (* Part A: the big sweep, sharded. *)
  let rpn = 8 in
  let nodes = at_scale_nodes scale in
  (* Half the steps and sweep phases of the calibrated Figure 6a runs:
     the FOM ratios are steady-state per-step quantities, so the
     collapse shape is unchanged while the 256-node points stay in
     check.sh territory.  test_scale's identity laws keep the full
     default parameters — denser traffic is the stronger check. *)
  let umt_params =
    { Pico_apps.Umt.default with steps = 2; sweep_phases = 2 }
  in
  let points =
    List.concat_map (fun n -> List.map (fun k -> (n, k)) os_kinds) nodes
  in
  let foms =
    Pool.with_pool ?jobs (fun pool ->
        Pool.map pool
          (fun (n, kind) ->
            let cl = Cluster.build kind ~n_nodes:n ~sharding:true () in
            let res =
              Experiment.run cl ~ranks_per_node:rpn (fun c ->
                  Pico_apps.Umt.run ~params:umt_params c)
            in
            res.Experiment.fom_ns)
          points)
  in
  let rec to_rows nodes foms acc =
    match (nodes, foms) with
    | [], [] -> List.rev acc
    | n :: nrest, linux :: mck :: hfi :: frest ->
      Report.record ~figure:"scale"
        ~metric:(Printf.sprintf "linux_fom_ns/n%d" n)
        linux;
      Report.record ~figure:"scale" ~metric:(Printf.sprintf "mck_rel/n%d" n)
        (linux /. mck);
      Report.record ~figure:"scale" ~metric:(Printf.sprintf "hfi_rel/n%d" n)
        (linux /. hfi);
      let row =
        [ string_of_int n;
          "100.0%";
          Tables.pct (linux /. mck);
          Tables.pct (linux /. hfi);
          Tables.ns linux ]
      in
      to_rows nrest frest (row :: acc)
    | _ -> invalid_arg "at_scale: result shape mismatch"
  in
  let rows = to_rows nodes foms [] in
  buf_add b
    (Printf.sprintf
       "UMT2013 at scale (relative performance to Linux, %d ranks/node)\n" rpn);
  buf_add b
    (Tables.render
       ~header:[ "nodes"; "Linux"; "McKernel"; "McKernel+HFI1"; "Linux FOM" ]
       rows);
  (* Part B: the oversubscribed fat-tree tail, 16 ranks/node on a
     starved core.  Flat comparators run at the same node counts so the
     collapse knee — the per-OS-kind fat-tree slowdown as the spine
     saturates — is a within-figure ratio; both sides run unsharded, so
     both use the default arrival order.  This sweep's wall clock is its
     own warn-only FOM in perf.sh (engine/ft_host_seconds). *)
  let ft_rpn = 16 in
  let ft_nodes = oversub_nodes scale in
  let ft_points =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun topology -> List.map (fun k -> (n, topology, k)) os_kinds)
          [ Topology.Flat; oversub_topo ])
      ft_nodes
  in
  let ft_foms =
    Engine_obs.host_timed ~figure:"scale" ~metric:"engine/ft_host_seconds"
    @@ fun () ->
    Pool.with_pool ?jobs (fun pool ->
        Pool.map pool
          (fun (n, topology, kind) ->
            let cl = Cluster.build kind ~n_nodes:n ~topology () in
            let res =
              Experiment.run cl ~ranks_per_node:ft_rpn (fun c ->
                  Pico_apps.Umt.run ~params:umt_params c)
            in
            res.Experiment.fom_ns)
          ft_points)
  in
  let rec ft_to_rows nodes foms acc =
    match (nodes, foms) with
    | [], [] -> List.rev acc
    | ( n :: nrest,
        fl_linux :: fl_mck :: fl_hfi :: ft_linux :: ft_mck :: ft_hfi :: frest
      ) ->
      Report.record ~figure:"scale"
        ~metric:(Printf.sprintf "ft_linux_fom_ns/n%d" n)
        ft_linux;
      let knee tag flat ft =
        let r = ft /. flat in
        Report.record ~figure:"scale"
          ~metric:(Printf.sprintf "ft_vs_flat/%s/n%d" tag n)
          r;
        Printf.sprintf "%.2fx" r
      in
      let row =
        [ string_of_int n;
          Tables.ns fl_linux;
          Tables.ns ft_linux;
          knee "linux" fl_linux ft_linux;
          knee "mck" fl_mck ft_mck;
          knee "hfi" fl_hfi ft_hfi ]
      in
      ft_to_rows nrest frest (row :: acc)
    | _ -> invalid_arg "at_scale: oversubscription result shape mismatch"
  in
  let ft_rows = ft_to_rows ft_nodes ft_foms [] in
  buf_add b "\n";
  buf_add b
    (Printf.sprintf
       "UMT2013 oversubscribed tail (%s, %d ranks/node; slowdown vs flat)\n"
       (Topology.describe oversub_topo) ft_rpn);
  buf_add b
    (Tables.render
       ~header:
         [ "nodes"; "flat FOM"; "fat-tree FOM"; "Linux"; "McKernel";
           "McKernel+HFI1" ]
       ft_rows);
  (* Sharding requests refused mid-figure (genuinely unshardable
     configs) are zero-omitted from the JSON; surface a nonzero delta in
     the header too so a silent drop cannot hide in a sweep. *)
  let refused = Cluster.shard_refusals () - refused0 in
  if refused > 0 then
    buf_add b
      (Printf.sprintf
         "\nnote: %d sharding request(s) refused (unshardable configs ran \
          unsharded)\n"
         refused);
  Buffer.contents b

(* --- Service workload: open-loop traffic, admission, tail latency ----------- *)

(* Exact nearest-rank quantile over an ascending-sorted array (the
   log-bucketed Stats.Histogram quantile is a lower bound; serve's
   p50/p99/p999 FOMs are exact by contract). *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* Aggregated figures of merit of one serve world. *)
type serve_point = {
  sv_arrivals : int;
  sv_offered_rps : float;
  sv_goodput_rps : float;
  sv_goodput_ratio : float;
  sv_p50 : float;
  sv_p99 : float;
  sv_p999 : float;
  sv_shed : int;      (* client-visible rejected requests *)
  sv_late : int;
  sv_tripped : int;
  sv_trips : int;
  sv_occupancy : float;
}

let serve_clients = 1

let serve_world (cl : Cluster.t) =
  let out = Array.make (Array.length cl.Cluster.nodes) None in
  let plans =
    Serve.plans ~split:(fun () -> Rng.split cl.Cluster.rng)
      ~clients:serve_clients
  in
  let res = Experiment.run cl ~ranks_per_node:1 (Serve.run ~plans ~out) in
  (res, out)

let serve_aggregate (res : Experiment.result) out =
  let c = Costs.current () in
  let arrivals = ref 0 and ok = ref 0 and shed = ref 0 and late = ref 0 in
  let tripped = ref 0 and trips = ref 0 in
  let lats = ref [] in
  let busy = ref 0. and servers = ref 0 in
  Array.iter
    (function
      | Some (Serve.Client cs) ->
        arrivals := !arrivals + cs.Serve.c_arrivals;
        ok := !ok + cs.Serve.c_ok;
        shed := !shed + cs.Serve.c_shed;
        late := !late + cs.Serve.c_late;
        tripped := !tripped + cs.Serve.c_tripped;
        trips := !trips + cs.Serve.c_trips;
        lats := List.rev_append cs.Serve.c_lats !lats
      | Some (Serve.Server ss) ->
        incr servers;
        busy := !busy +. ss.Serve.s_busy_ns
      | None -> ())
    out;
  let sorted = Array.of_list !lats in
  Array.sort compare sorted;
  let span = res.Experiment.fom_ns in
  (* Ratio-style keys go through the NaN-safe fold: a zero-request or
     zero-span window must report 0, never NaN/inf. *)
  let goodput_rps = Subsys_obs.ratio (float_of_int !ok *. 1.0e9) span in
  let offered_rps =
    Subsys_obs.ratio (float_of_int !arrivals *. 1.0e9) c.Costs.serve_horizon
  in
  let capacity =
    span *. float_of_int (!servers * max 1 c.Costs.serve_workers)
  in
  { sv_arrivals = !arrivals;
    sv_offered_rps = offered_rps;
    sv_goodput_rps = goodput_rps;
    sv_goodput_ratio =
      Subsys_obs.ratio (float_of_int !ok) (float_of_int !arrivals);
    sv_p50 = nearest_rank sorted 0.5;
    sv_p99 = nearest_rank sorted 0.99;
    sv_p999 = nearest_rank sorted 0.999;
    sv_shed = !shed;
    sv_late = !late;
    sv_tripped = !tripped;
    sv_trips = !trips;
    sv_occupancy = Subsys_obs.ratio !busy capacity }

(* The load sweep: offered load per point via the arrival interval, with
   a fixed request count so the quantiles compare like for like. *)
let serve_requests = 400

let serve_sweep_patch ~interval c =
  c.Costs.serve_arrival_interval <- interval;
  c.Costs.serve_horizon <- interval *. float_of_int serve_requests;
  c.Costs.serve_burst_interval <- 40. *. interval;
  c.Costs.serve_burst_duration <- 8. *. interval;
  c.Costs.serve_admit_cap <- 24;
  c.Costs.serve_breaker_threshold <- 8;
  c.Costs.serve_timeout <- 5.0e6

let serve_loads = [ 16_000.; 8_000.; 4_000.; 2_000. ]

let serve_topos =
  [ ("flat", None);
    ("ft 2:1", Some (Topology.Fat_tree { radix = 4; oversub = 2 })) ]

let serve_topo_tag = function
  | "flat" -> "flat"
  | "ft 2:1" -> "o2"
  | s -> invalid_arg ("serve_topo_tag: " ^ s)

(* The p99 budget that defines the saturation knee: the highest offered
   load whose p99 stays under it is what each OS configuration
   "sustains". *)
let serve_p99_budget = 2.5e6

let serve ?jobs () =
  Engine_obs.measure ~figure:"serve" @@ fun () ->
  let b = Buffer.create 8192 in
  buf_add b "Service workload: open-loop sharded RPC, admission + breaker\n\n";
  (* Part A: at the zero-knob defaults the serve layer is inert — the
     plan guard takes no RNG split, every plan is empty, and a legacy
     world is byte-identical to the pre-serve tree. *)
  let size = 1024 * 1024 in
  let base = pingpong_once Cluster.Mckernel_hfi ~size in
  let cl = Cluster.build Cluster.Mckernel_hfi ~n_nodes:2 () in
  let witness = ref false in
  let inert_plans =
    Serve.plans
      ~split:(fun () ->
        witness := true;
        Rng.split cl.Cluster.rng)
      ~clients:serve_clients
  in
  let out = ref [] in
  ignore
    (Experiment.run cl ~ranks_per_node:1 (fun comm ->
         Pico_apps.Imb.pingpong ~iters:30 ~sizes:[ size ] ~out comm));
  let guarded_mbps =
    match !out with
    | [ p ] -> p.Pico_apps.Imb.mbps
    | _ -> invalid_arg "serve: unexpected pingpong output"
  in
  let inert_ok =
    (not !witness)
    && Array.for_all (fun p -> Array.length p = 0) inert_plans
    && guarded_mbps = base (* exact float compare, deliberately *)
  in
  Report.record ~figure:"serve" ~metric:"defaults_inert_equiv"
    (if inert_ok then 1. else 0.);
  buf_add b
    (Printf.sprintf "serve defaults inert: %s (%.1f MB/s)\n\n"
       (if inert_ok then "OK, byte-identical" else "MISMATCH")
       guarded_mbps);
  (* Part B: the load sweep across the saturation knee, per topology and
     OS configuration.  Each point is an independent world with a
     domain-local cost patch, so the pool fan-out stays byte-identical
     at any -j. *)
  let n_nodes = 8 in
  let points =
    List.concat_map
      (fun (label, topology) ->
        List.concat_map
          (fun interval ->
            List.map (fun kind -> (label, topology, interval, kind)) os_kinds)
          serve_loads)
      serve_topos
  in
  let results =
    Pool.with_pool ?jobs (fun pool ->
        Pool.map pool
          (fun (_, topology, interval, kind) ->
            Costs.with_patched (serve_sweep_patch ~interval) (fun () ->
                let res, out =
                  serve_world (Cluster.build kind ~n_nodes ?topology ())
                in
                serve_aggregate res out))
          points)
  in
  List.iter2
    (fun (label, _, interval, kind) sv ->
      let pre =
        Printf.sprintf "%s/%s/i%.0f" (serve_topo_tag label) (os_tag kind)
          interval
      in
      let rec_ m v = Report.record ~figure:"serve" ~metric:(pre ^ "/" ^ m) v in
      rec_ "offered_rps" sv.sv_offered_rps;
      rec_ "goodput_rps" sv.sv_goodput_rps;
      rec_ "goodput_ratio" sv.sv_goodput_ratio;
      rec_ "p50_ns" sv.sv_p50;
      rec_ "p99_ns" sv.sv_p99;
      rec_ "p999_ns" sv.sv_p999;
      rec_ "shed" (float_of_int sv.sv_shed);
      rec_ "late" (float_of_int sv.sv_late);
      rec_ "tripped" (float_of_int sv.sv_tripped);
      rec_ "trips" (float_of_int sv.sv_trips);
      rec_ "occupancy" sv.sv_occupancy)
    points results;
  let cell label interval kind =
    List.fold_left2
      (fun acc (l, _, i, k) sv ->
        if l = label && i = interval && k = kind then Some sv else acc)
      None points results
  in
  List.iter
    (fun (label, _) ->
      buf_add b
        (Printf.sprintf
           "%s (%d nodes, fanout %d, %d requests/point; goodput%% | p99 | \
            shed+tripped)\n"
           label n_nodes (Costs.current ()).Costs.serve_fanout serve_requests);
      let rows =
        List.map
          (fun interval ->
            let offered =
              match cell label interval Cluster.Linux with
              | Some sv -> sv.sv_offered_rps /. 1000.
              | None -> 0.
            in
            let col kind =
              match cell label interval kind with
              | Some sv ->
                [ Tables.pct sv.sv_goodput_ratio;
                  Tables.ns sv.sv_p99;
                  string_of_int (sv.sv_shed + sv.sv_tripped) ]
              | None -> [ "-"; "-"; "-" ]
            in
            (Printf.sprintf "%.0f krps" offered :: col Cluster.Linux)
            @ col Cluster.Mckernel
            @ col Cluster.Mckernel_hfi)
          serve_loads
      in
      buf_add b
        (Tables.render
           ~header:
             [ "offered"; "linux"; "p99"; "drop"; "mck"; "p99"; "drop";
               "hfi"; "p99"; "drop" ]
           rows);
      (* The knee: highest offered load with p99 inside the budget. *)
      let knee kind =
        List.fold_left
          (fun acc interval ->
            match cell label interval kind with
            | Some sv
              when sv.sv_p99 > 0. && sv.sv_p99 <= serve_p99_budget
                   && sv.sv_offered_rps > acc ->
              sv.sv_offered_rps
            | _ -> acc)
          0. serve_loads
      in
      let kn = List.map (fun k -> (k, knee k)) os_kinds in
      List.iter
        (fun (k, v) ->
          Report.record ~figure:"serve"
            ~metric:
              (Printf.sprintf "%s/knee_%s_rps" (serve_topo_tag label) (os_tag k))
            v)
        kn;
      let pr k = List.assoc k kn /. 1000. in
      buf_add b
        (Printf.sprintf
           "p99 <= %.1f ms sustained: linux %.0f / mck %.0f / hfi %.0f krps\n\n"
           (serve_p99_budget /. 1.0e6)
           (pr Cluster.Linux) (pr Cluster.Mckernel) (pr Cluster.Mckernel_hfi)))
    serve_topos;
  Buffer.contents b

(* --- everything ------------------------------------------------------------- *)

let all ?(scale = quick) ?jobs () =
  let b = Buffer.create (1 lsl 16) in
  let add s = buf_add b s; buf_add b "\n" in
  add (fig4 ?jobs ());
  add (fig5a_lammps ~scale ?jobs ());
  add (fig5b_nekbone ~scale ?jobs ());
  add (fig6a_umt ~scale ?jobs ());
  add (fig6b_hacc ~scale ?jobs ());
  add (fig7_qbox ~scale ?jobs ());
  add (imb_suite ?jobs ());
  add (table1 ~ranks_per_node:scale.ranks_per_node ?jobs ());
  add (fig8_umt ~ranks_per_node:scale.ranks_per_node ?jobs ());
  add (fig9_qbox ~ranks_per_node:scale.ranks_per_node ?jobs ());
  add (listing1 ());
  add (ibreg ?jobs ());
  add (ablations ());
  add (sloc ());
  Buffer.contents b
