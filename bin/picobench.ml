(* picobench: regenerate every table and figure of the paper's evaluation.

   One subcommand per experiment (see DESIGN.md's per-experiment index);
   `picobench all` runs the full set at the chosen scale.

   Sweeps run in parallel over OCaml domains: -j/--jobs (or PICO_JOBS)
   picks the worker count, and the rendered output is byte-identical at
   every setting.  --json dumps the recorded figures of merit. *)

open Cmdliner

module F = Pico_harness.Figures
module Pool = Pico_harness.Pool
module Report = Pico_harness.Report
module Span = Pico_engine.Span
module Ledger = Pico_engine.Ledger
module Tracefile = Pico_harness.Tracefile
module Breakdown = Pico_harness.Breakdown

let scale_conv =
  let parse = function
    | "quick" -> Ok F.quick
    | "medium" -> Ok F.medium
    | "full" -> Ok F.full
    | s -> Error (`Msg (Printf.sprintf "unknown scale %S (quick|medium|full)" s))
  in
  let print fmt s =
    let name =
      if s = F.quick then "quick" else if s = F.medium then "medium"
      else "full"
    in
    Format.pp_print_string fmt name
  in
  Arg.conv (parse, print)

let scale_arg =
  let doc =
    "Sweep scale: quick (<=8 nodes, 8 ranks/node), medium (<=32 nodes, 16 \
     ranks/node) or full (<=256 nodes, 32 ranks/node; slow)."
  in
  Arg.(value & opt scale_conv F.quick & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let nodes_arg default =
  let doc = "Number of compute nodes." in
  Arg.(value & opt int default & info [ "n"; "nodes" ] ~docv:"NODES" ~doc)

let rpn_arg default =
  let doc = "MPI ranks per node." in
  Arg.(value & opt int default & info [ "r"; "ranks-per-node" ] ~docv:"RPN" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the sweep (1 = sequential).  Defaults to \
     $(b,PICO_JOBS) or the recommended domain count.  Output is \
     byte-identical regardless of the setting."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let json_arg =
  let doc =
    "Also write the recorded figures of merit as JSON to $(docv) \
     (machine-readable; keys are sorted, so files diff cleanly)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let trace_arg =
  let doc =
    "Record begin/end spans (offload, sdma, pio, lock, syscall, gup, fault, \
     recovery) over \
     simulated time and write them to $(docv) as Chrome trace-event JSON, \
     loadable in Perfetto or chrome://tracing.  Deterministic: re-running \
     the same figure writes a byte-identical file."
  in
  let env = Cmd.Env.info "PICO_TRACE_JSON" ~doc:"Same as $(b,--trace)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc ~env)

let breakdown_arg =
  let doc =
    "Record per-request latency ledgers (phase-by-phase attribution of \
     every offloaded syscall, SDMA/PIO send, PSM message and MPI call) \
     and write the per-figure breakdown — phase latency quantiles, \
     critical-path shares, time-bucketed timelines — to $(docv) as JSON \
     (schema picodriver-breakdown-v1).  Deterministic: byte-identical \
     at any $(b,--jobs) setting and across re-runs."
  in
  let env =
    Cmd.Env.info "PICO_BREAKDOWN_JSON" ~doc:"Same as $(b,--breakdown)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "breakdown" ] ~docv:"PATH" ~doc ~env)

(* Every run goes through here: enable span recording if --trace was
   given (it must be on before the figure runs), print the rendered
   text, then dump the recorded figures of merit / collected trace. *)
let emit ?json ?trace ?breakdown ?jobs run =
  Span.set_on (trace <> None);
  Ledger.set_on (breakdown <> None);
  let s = run () in
  print_string s;
  let write what path f =
    try f path
    with Sys_error msg ->
      prerr_endline (Printf.sprintf "picobench: cannot write %s: %s" what msg);
      exit Cmd.Exit.some_error
  in
  (match json with
   | None -> ()
   | Some path ->
     let jobs =
       match jobs with Some j -> j | None -> Pool.default_jobs ()
     in
     write "JSON" path
       (Report.write ~extra:[ ("jobs", string_of_int jobs) ]));
  (match trace with
   | None -> ()
   | Some path -> write "trace" path Tracefile.write);
  match breakdown with
  | None -> ()
  | Some path -> write "breakdown" path Breakdown.write

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc) term

let fig4_cmd =
  cmd "fig4" ~doc:"Figure 4: IMB PingPong bandwidth (3 OS configs)"
    Term.(
      const (fun jobs json trace breakdown ->
          emit ?json ?trace ?breakdown ?jobs (fun () -> F.fig4 ?jobs ()))
      $ jobs_arg $ json_arg $ trace_arg $ breakdown_arg)

let app_cmd name ~doc (f : ?scale:F.scale -> ?jobs:int -> unit -> string) =
  cmd name ~doc
    Term.(
      const (fun scale jobs json trace breakdown ->
          emit ?json ?trace ?breakdown ?jobs (fun () -> f ~scale ?jobs ()))
      $ scale_arg $ jobs_arg $ json_arg $ trace_arg $ breakdown_arg)

let fig5a_cmd = app_cmd "fig5a" ~doc:"Figure 5a: LAMMPS scaling" F.fig5a_lammps

let fig5b_cmd = app_cmd "fig5b" ~doc:"Figure 5b: Nekbone scaling" F.fig5b_nekbone

let fig6a_cmd = app_cmd "fig6a" ~doc:"Figure 6a: UMT2013 scaling" F.fig6a_umt

let fig6b_cmd = app_cmd "fig6b" ~doc:"Figure 6b: HACC scaling" F.fig6b_hacc

let fig7_cmd = app_cmd "fig7" ~doc:"Figure 7: QBOX scaling" F.fig7_qbox

let table1_cmd =
  cmd "table1" ~doc:"Table 1: communication profile (UMT, HACC, QBOX)"
    Term.(
      const (fun nodes rpn jobs json trace breakdown ->
          emit ?json ?trace ?breakdown ?jobs (fun () ->
              F.table1 ~nodes ~ranks_per_node:rpn ?jobs ()))
      $ nodes_arg 8 $ rpn_arg 8 $ jobs_arg $ json_arg $ trace_arg $ breakdown_arg)

let fig8_cmd =
  cmd "fig8" ~doc:"Figure 8: system call breakdown for UMT2013"
    Term.(
      const (fun nodes rpn jobs json trace breakdown ->
          emit ?json ?trace ?breakdown ?jobs (fun () ->
              F.fig8_umt ~nodes ~ranks_per_node:rpn ?jobs ()))
      $ nodes_arg 8 $ rpn_arg 8 $ jobs_arg $ json_arg $ trace_arg $ breakdown_arg)

let fig9_cmd =
  cmd "fig9" ~doc:"Figure 9: system call breakdown for QBOX"
    Term.(
      const (fun nodes rpn jobs json trace breakdown ->
          emit ?json ?trace ?breakdown ?jobs (fun () ->
              F.fig9_qbox ~nodes ~ranks_per_node:rpn ?jobs ()))
      $ nodes_arg 8 $ rpn_arg 8 $ jobs_arg $ json_arg $ trace_arg $ breakdown_arg)

let listing1_cmd =
  cmd "listing1" ~doc:"Listing 1: dwarf-extract-struct output for sdma_state"
    Term.(const (fun () -> emit (fun () -> F.listing1 ())) $ const ())

let sloc_cmd =
  cmd "sloc" ~doc:"Porting-effort comparison (50 kSLOC vs <3 kSLOC claim)"
    Term.(const (fun () -> emit (fun () -> F.sloc ())) $ const ())

let imb_cmd =
  cmd "imb" ~doc:"The wider IMB-MPI1 suite (PingPing, SendRecv, Exchange, ...)"
    Term.(
      const (fun nodes rpn jobs json trace breakdown ->
          emit ?json ?trace ?breakdown ?jobs (fun () ->
              F.imb_suite ~nodes ~ranks_per_node:rpn ?jobs ()))
      $ nodes_arg 2 $ rpn_arg 1 $ jobs_arg $ json_arg $ trace_arg $ breakdown_arg)

let ibreg_cmd =
  cmd "ibreg"
    ~doc:"Extension: InfiniBand memory-registration latency (future work)"
    Term.(
      const (fun jobs json trace breakdown ->
          emit ?json ?trace ?breakdown ?jobs (fun () -> F.ibreg ?jobs ()))
      $ jobs_arg $ json_arg $ trace_arg $ breakdown_arg)

let ablations_cmd =
  cmd "ablations"
    ~doc:"Design-choice ablations: SDMA request size, OS noise, TID cache"
    Term.(
      const (fun json trace breakdown ->
          emit ?json ?trace ?breakdown ~jobs:1 (fun () -> F.ablations ()))
      $ json_arg $ trace_arg $ breakdown_arg)

let faults_cmd =
  cmd "faults"
    ~doc:
      "Fault injection: SDMA halt/recovery, fast-path fallback, and a \
       seed-deterministic fault-rate sweep"
    Term.(
      const (fun jobs json trace breakdown ->
          emit ?json ?trace ?breakdown ?jobs (fun () -> F.faults ?jobs ()))
      $ jobs_arg $ json_arg $ trace_arg $ breakdown_arg)

let fabric_cmd =
  cmd "fabric"
    ~doc:
      "Topology-aware interconnect: flat-default equivalence and a radix-4 \
       fat-tree congestion sweep over oversubscription x node count"
    Term.(
      const (fun jobs json trace breakdown ->
          emit ?json ?trace ?breakdown ?jobs (fun () -> F.fabric ?jobs ()))
      $ jobs_arg $ json_arg $ trace_arg $ breakdown_arg)

let scale_cmd =
  cmd "scale"
    ~doc:
      "At-scale sweeps (64-256+ nodes) on the sharded engine, with the \
       oversubscribed fat-tree tail"
    Term.(
      const (fun scale jobs json trace breakdown ->
          emit ?json ?trace ?breakdown ?jobs (fun () -> F.at_scale ~scale ?jobs ()))
      $ scale_arg $ jobs_arg $ json_arg $ trace_arg $ breakdown_arg)

let serve_cmd =
  cmd "serve"
    ~doc:
      "Sharded service workload: open-loop offered-load sweep across the \
       saturation knee with admission control, circuit breaker and \
       tail-latency FOMs, plus the zero-knob inertness self-check"
    Term.(
      const (fun jobs json trace breakdown ->
          emit ?json ?trace ?breakdown ?jobs (fun () -> F.serve ?jobs ()))
      $ jobs_arg $ json_arg $ trace_arg $ breakdown_arg)

let all_cmd =
  cmd "all" ~doc:"Run every experiment at the chosen scale"
    Term.(
      const (fun scale jobs json trace breakdown ->
          emit ?json ?trace ?breakdown ?jobs (fun () -> F.all ~scale ?jobs ()))
      $ scale_arg $ jobs_arg $ json_arg $ trace_arg $ breakdown_arg)

let main =
  let doc =
    "Reproduce the evaluation of 'PicoDriver: Fast-path Device Drivers for \
     Multi-kernel Operating Systems' (HPDC'18) on the simulated platform."
  in
  Cmd.group
    (Cmd.info "picobench" ~version:"1.0" ~doc)
    [ fig4_cmd; fig5a_cmd; fig5b_cmd; fig6a_cmd; fig6b_cmd; fig7_cmd;
      table1_cmd; fig8_cmd; fig9_cmd; listing1_cmd; imb_cmd; ibreg_cmd;
      ablations_cmd; faults_cmd; fabric_cmd; scale_cmd; serve_cmd; sloc_cmd;
      all_cmd ]

let () =
  (* Surface a malformed PICO_JOBS as a CLI error, not a backtrace. *)
  match Pool.default_jobs () with
  | exception Invalid_argument msg ->
    prerr_endline ("picobench: " ^ msg);
    exit Cmd.Exit.cli_error
  | _ -> exit (Cmd.eval main)
