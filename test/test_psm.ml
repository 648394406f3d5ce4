(* Tests for PSM: matched queues and the endpoint transfer engine
   (eager, rendezvous, unexpected messages, wildcards). *)

module Sim = Pico_engine.Sim
module Addr = Pico_hw.Addr
module Mq = Pico_psm.Mq
module Config = Pico_psm.Config
module Endpoint = Pico_psm.Endpoint
module Comm = Pico_mpi.Comm
module H = Pico_harness
module Costs = Pico_costs.Costs

let () = Costs.reset ()

(* --- Mq --------------------------------------------------------------------- *)

let test_mq_basic_match () =
  let mq : (string, string) Mq.t = Mq.create () in
  Mq.post mq ~src:(Some 1) ~tag:5L ~mask:(-1L) "r1";
  Alcotest.(check (option string)) "match" (Some "r1")
    (Mq.match_posted mq ~src:1 ~tag:5L);
  Alcotest.(check (option string)) "consumed" None
    (Mq.match_posted mq ~src:1 ~tag:5L)

let test_mq_src_filter () =
  let mq : (string, string) Mq.t = Mq.create () in
  Mq.post mq ~src:(Some 1) ~tag:5L ~mask:(-1L) "from1";
  Alcotest.(check (option string)) "wrong src" None
    (Mq.match_posted mq ~src:2 ~tag:5L);
  Alcotest.(check (option string)) "right src" (Some "from1")
    (Mq.match_posted mq ~src:1 ~tag:5L)

let test_mq_any_source () =
  let mq : (string, string) Mq.t = Mq.create () in
  Mq.post mq ~src:None ~tag:5L ~mask:(-1L) "any";
  Alcotest.(check (option string)) "any src matches" (Some "any")
    (Mq.match_posted mq ~src:42 ~tag:5L)

let test_mq_mask () =
  let mq : (string, string) Mq.t = Mq.create () in
  (* Match only the low 8 bits of the tag. *)
  Mq.post mq ~src:None ~tag:0x05L ~mask:0xFFL "low8";
  Alcotest.(check (option string)) "high bits ignored" (Some "low8")
    (Mq.match_posted mq ~src:0 ~tag:0xAB05L)

let test_mq_fifo_order () =
  let mq : (string, string) Mq.t = Mq.create () in
  Mq.post mq ~src:None ~tag:1L ~mask:(-1L) "first";
  Mq.post mq ~src:None ~tag:1L ~mask:(-1L) "second";
  Alcotest.(check (option string)) "first posted wins" (Some "first")
    (Mq.match_posted mq ~src:0 ~tag:1L);
  Alcotest.(check (option string)) "then second" (Some "second")
    (Mq.match_posted mq ~src:0 ~tag:1L)

let test_mq_unexpected () =
  let mq : (string, string) Mq.t = Mq.create () in
  Mq.add_unexpected mq ~src:3 ~tag:7L "u1";
  Mq.add_unexpected mq ~src:3 ~tag:7L "u2";
  Alcotest.(check int) "count" 2 (Mq.unexpected_count mq);
  (match Mq.match_unexpected mq ~src:(Some 3) ~tag:7L ~mask:(-1L) with
   | Some (src, tag, v) ->
     Alcotest.(check int) "src" 3 src;
     Alcotest.(check int64) "tag" 7L tag;
     Alcotest.(check string) "earliest arrival" "u1" v
   | None -> Alcotest.fail "no match");
  Alcotest.(check bool) "wildcard gets second" true
    (Mq.match_unexpected mq ~src:None ~tag:7L ~mask:(-1L) <> None)

let test_mq_would_match () =
  let mq : (string, string) Mq.t = Mq.create () in
  Mq.post mq ~src:(Some 1) ~tag:2L ~mask:(-1L) "x";
  Alcotest.(check bool) "would" true (Mq.would_match mq ~src:1 ~tag:2L);
  Alcotest.(check bool) "would not" false (Mq.would_match mq ~src:1 ~tag:3L);
  Alcotest.(check int) "non destructive" 1 (Mq.posted_count mq)

(* --- Endpoint transfers ------------------------------------------------------- *)

(* Run a two-rank exchange scenario on a real two-node cluster and return
   whatever the verifier produced. *)
let run_pair scenario =
  let cl = H.Cluster.build H.Cluster.Linux ~n_nodes:2 ~carry_payload:true () in
  ignore
    (H.Experiment.run cl ~ranks_per_node:1 (fun comm ->
         scenario comm;
         0.))

let os comm = Endpoint.os comm.Comm.ep

let write comm va b = (os comm).Endpoint.write_user va b

let read comm va len = (os comm).Endpoint.read_user va len

let alloc comm len = (os comm).Endpoint.mmap_anon len

let pattern seed len = Bytes.init len (fun i -> Char.chr ((i * seed + 3) land 0xff))

let transfer_case ~len () =
  let ok = ref false in
  run_pair (fun comm ->
      let ep = comm.Comm.ep in
      let buf = alloc comm (max len 4096) in
      if comm.Comm.rank = 0 then begin
        if len > 0 then write comm buf (pattern 7 len);
        let r = Endpoint.isend ep ~dst:1 ~tag:11L ~va:buf ~len in
        Endpoint.wait ep r
      end
      else begin
        let r = Endpoint.irecv ep ~src:(Some 0) ~tag:11L ~va:buf ~len () in
        Endpoint.wait ep r;
        let src, got_len = Endpoint.recv_info r in
        ok :=
          src = 0 && got_len = len
          && (len = 0 || read comm buf len = pattern 7 len)
      end;
      Pico_mpi.Collectives.barrier comm);
  Alcotest.(check bool) "transfer intact" true !ok

let test_eager_small () = transfer_case ~len:1024 ()

let test_eager_zero () = transfer_case ~len:0 ()

let test_eager_threshold () = transfer_case ~len:65536 ()

let test_rndv_one_window () = transfer_case ~len:(256 * 1024) ()

let test_rndv_multi_window () = transfer_case ~len:(3 * 1024 * 1024) ()

let test_unexpected_eager () =
  let ok = ref false in
  run_pair (fun comm ->
      let ep = comm.Comm.ep in
      let buf = alloc comm 8192 in
      if comm.Comm.rank = 0 then begin
        write comm buf (pattern 5 8192);
        let r = Endpoint.isend ep ~dst:1 ~tag:1L ~va:buf ~len:8192 in
        Endpoint.wait ep r
      end
      else begin
        (* Let the message arrive unexpected, then post. *)
        (os comm).Endpoint.compute (Sim.ms 1.);
        Endpoint.progress ep;
        let r = Endpoint.irecv ep ~src:(Some 0) ~tag:1L ~va:buf ~len:8192 () in
        Endpoint.wait ep r;
        ok := read comm buf 8192 = pattern 5 8192
      end;
      Pico_mpi.Collectives.barrier comm);
  Alcotest.(check bool) "unexpected eager adopted" true !ok

let test_unexpected_rts () =
  let ok = ref false in
  let len = 512 * 1024 in
  run_pair (fun comm ->
      let ep = comm.Comm.ep in
      let buf = alloc comm len in
      if comm.Comm.rank = 0 then begin
        write comm buf (pattern 9 len);
        let r = Endpoint.isend ep ~dst:1 ~tag:2L ~va:buf ~len in
        Endpoint.wait ep r
      end
      else begin
        (os comm).Endpoint.compute (Sim.ms 1.);
        Endpoint.progress ep;
        let r = Endpoint.irecv ep ~src:(Some 0) ~tag:2L ~va:buf ~len () in
        Endpoint.wait ep r;
        ok := read comm buf len = pattern 9 len
      end;
      Pico_mpi.Collectives.barrier comm);
  Alcotest.(check bool) "parked RTS served on post" true !ok

let test_any_source () =
  let ok = ref false in
  run_pair (fun comm ->
      let ep = comm.Comm.ep in
      let buf = alloc comm 4096 in
      if comm.Comm.rank = 0 then begin
        let r = Endpoint.isend ep ~dst:1 ~tag:3L ~va:buf ~len:128 in
        Endpoint.wait ep r
      end
      else begin
        let r = Endpoint.irecv ep ~src:None ~tag:3L ~va:buf ~len:128 () in
        Endpoint.wait ep r;
        let src, _ = Endpoint.recv_info r in
        ok := src = 0
      end;
      Pico_mpi.Collectives.barrier comm);
  Alcotest.(check bool) "wildcard source" true !ok

let test_message_ordering () =
  (* Two same-tag messages must arrive in send order. *)
  let ok = ref false in
  run_pair (fun comm ->
      let ep = comm.Comm.ep in
      let b1 = alloc comm 4096 and b2 = alloc comm 4096 in
      if comm.Comm.rank = 0 then begin
        write comm b1 (pattern 1 512);
        write comm b2 (pattern 2 512);
        let r1 = Endpoint.isend ep ~dst:1 ~tag:4L ~va:b1 ~len:512 in
        let r2 = Endpoint.isend ep ~dst:1 ~tag:4L ~va:b2 ~len:512 in
        Endpoint.wait ep r1;
        Endpoint.wait ep r2
      end
      else begin
        let r1 = Endpoint.irecv ep ~src:(Some 0) ~tag:4L ~va:b1 ~len:512 () in
        let r2 = Endpoint.irecv ep ~src:(Some 0) ~tag:4L ~va:b2 ~len:512 () in
        Endpoint.wait ep r1;
        Endpoint.wait ep r2;
        ok := read comm b1 512 = pattern 1 512 && read comm b2 512 = pattern 2 512
      end;
      Pico_mpi.Collectives.barrier comm);
  Alcotest.(check bool) "no overtaking" true !ok

let test_bidirectional_exchange () =
  let ok = ref 0 in
  let len = 200 * 1024 in
  run_pair (fun comm ->
      let ep = comm.Comm.ep in
      let sbuf = alloc comm len and rbuf = alloc comm len in
      let me = comm.Comm.rank in
      let peer = 1 - me in
      write comm sbuf (pattern (me + 1) len);
      let rr = Endpoint.irecv ep ~src:(Some peer) ~tag:5L ~va:rbuf ~len () in
      let sr = Endpoint.isend ep ~dst:peer ~tag:5L ~va:sbuf ~len in
      Endpoint.wait ep sr;
      Endpoint.wait ep rr;
      if read comm rbuf len = pattern (peer + 1) len then incr ok;
      Pico_mpi.Collectives.barrier comm);
  Alcotest.(check int) "both directions intact" 2 !ok

let test_send_to_self () =
  let ok = ref false in
  run_pair (fun comm ->
      let ep = comm.Comm.ep in
      if comm.Comm.rank = 0 then begin
        let buf = alloc comm 4096 and rbuf = alloc comm 4096 in
        write comm buf (pattern 3 1000);
        let rr = Endpoint.irecv ep ~src:(Some 0) ~tag:6L ~va:rbuf ~len:1000 () in
        let sr = Endpoint.isend ep ~dst:0 ~tag:6L ~va:buf ~len:1000 in
        Endpoint.wait ep sr;
        Endpoint.wait ep rr;
        ok := read comm rbuf 1000 = pattern 3 1000
      end;
      Pico_mpi.Collectives.barrier comm);
  Alcotest.(check bool) "self send" true !ok

let test_counters () =
  let eager = ref 0 and rndv = ref 0 in
  run_pair (fun comm ->
      let ep = comm.Comm.ep in
      let buf = alloc comm (256 * 1024) in
      if comm.Comm.rank = 0 then begin
        Endpoint.wait ep (Endpoint.isend ep ~dst:1 ~tag:1L ~va:buf ~len:100);
        Endpoint.wait ep
          (Endpoint.isend ep ~dst:1 ~tag:2L ~va:buf ~len:(256 * 1024));
        eager := Endpoint.sends_eager ep;
        rndv := Endpoint.sends_rndv ep
      end
      else begin
        Endpoint.wait ep (Endpoint.irecv ep ~src:(Some 0) ~tag:1L ~va:buf ~len:100 ());
        Endpoint.wait ep
          (Endpoint.irecv ep ~src:(Some 0) ~tag:2L ~va:buf ~len:(256 * 1024) ())
      end;
      Pico_mpi.Collectives.barrier comm);
  Alcotest.(check int) "one eager" 1 !eager;
  Alcotest.(check int) "one rendezvous" 1 !rndv

let test_tid_cache_reuses_registrations () =
  let ok = ref false in
  let first = ref (-1) and second = ref (-1) in
  let len = 256 * 1024 in
  let cl = H.Cluster.build H.Cluster.Linux ~n_nodes:2 ~carry_payload:true () in
  (* Receiver-side driver calls: TID_UPDATE and TID_FREE are ioctls. *)
  let ioctls () =
    Pico_linux.Hfi1_driver.ioctl_calls (H.Cluster.node_env cl 1).H.Cluster.driver
  in
  Config.with_tid_cache true (fun () ->
      ignore
        (H.Experiment.run cl ~ranks_per_node:1 (fun comm ->
             let ep = comm.Comm.ep in
             let buf = alloc comm len in
             if comm.Comm.rank = 0 then begin
               write comm buf (pattern 4 len);
               Endpoint.wait ep (Endpoint.isend ep ~dst:1 ~tag:8L ~va:buf ~len);
               write comm buf (pattern 6 len);
               Endpoint.wait ep (Endpoint.isend ep ~dst:1 ~tag:8L ~va:buf ~len)
             end
             else begin
               (* Same buffer both times: the second transfer reuses the
                  cached registration (one TID_UPDATE total, no TID_FREE). *)
               let before = ioctls () in
               Endpoint.wait ep
                 (Endpoint.irecv ep ~src:(Some 0) ~tag:8L ~va:buf ~len ());
               let mid = ioctls () in
               Endpoint.wait ep
                 (Endpoint.irecv ep ~src:(Some 0) ~tag:8L ~va:buf ~len ());
               first := mid - before;
               second := ioctls () - mid;
               ok := read comm buf len = pattern 6 len
             end;
             Pico_mpi.Collectives.barrier comm;
             0.)));
  Alcotest.(check bool) "second transfer intact via cached TIDs" true !ok;
  Alcotest.(check int) "first transfer: one TID_UPDATE, no TID_FREE" 1 !first;
  Alcotest.(check int) "second transfer: no driver call" 0 !second

let test_tid_cache_fewer_driver_calls () =
  let count_ioctls cache =
    let cl = H.Cluster.build H.Cluster.Linux ~n_nodes:2 ~carry_payload:false () in
    let len = 256 * 1024 in
    Config.with_tid_cache cache (fun () ->
        ignore
          (H.Experiment.run cl ~ranks_per_node:1 (fun comm ->
               let ep = comm.Comm.ep in
               let buf = alloc comm len in
               for _ = 1 to 5 do
                 if comm.Comm.rank = 0 then
                   Endpoint.wait ep (Endpoint.isend ep ~dst:1 ~tag:9L ~va:buf ~len)
                 else
                   Endpoint.wait ep
                     (Endpoint.irecv ep ~src:(Some 0) ~tag:9L ~va:buf ~len ())
               done;
               Pico_mpi.Collectives.barrier comm;
               0.)));
    let env = H.Cluster.node_env cl 1 in
    Pico_linux.Hfi1_driver.ioctl_calls env.H.Cluster.driver
  in
  let without = count_ioctls false in
  let with_cache = count_ioctls true in
  Alcotest.(check bool)
    (Printf.sprintf "cache cuts driver ioctls (%d -> %d)" without with_cache)
    true
    (with_cache < without / 2)

let test_with_tid_cache_restores_on_exception () =
  Alcotest.(check bool) "off by default" false !Config.tid_cache;
  (match
     Config.with_tid_cache true (fun () ->
         Alcotest.(check bool) "on inside" true !Config.tid_cache;
         failwith "boom")
   with
   | () -> Alcotest.fail "the exception was swallowed"
   | exception Failure _ -> ());
  Alcotest.(check bool) "off again after the exception" false !Config.tid_cache

let test_rcvarray_exhaustion_fallback () =
  (* Shrink the RcvArray so every TID registration fails: the rendezvous
     must fall back to eager SDMA windows and still deliver intact —
     including granting windows beyond the pipeline depth. *)
  let ok = ref false in
  (* 5 windows of [Config.window_size] > [Config.pipeline_depth] *)
  let len = (4 * Config.window_size) + (300 * 1024) in
  let cl =
    H.Cluster.build H.Cluster.Linux ~n_nodes:2 ~carry_payload:true
      ~rcv_entries:8 ()
  in
  ignore
    (H.Experiment.run cl ~ranks_per_node:1 (fun comm ->
         let ep = comm.Comm.ep in
         let buf = alloc comm len in
         if comm.Comm.rank = 0 then begin
           write comm buf (pattern 13 len);
           Endpoint.wait ep (Endpoint.isend ep ~dst:1 ~tag:21L ~va:buf ~len)
         end
         else begin
           Endpoint.wait ep
             (Endpoint.irecv ep ~src:(Some 0) ~tag:21L ~va:buf ~len ());
           ok := read comm buf len = pattern 13 len
         end;
         Pico_mpi.Collectives.barrier comm;
         0.));
  (* No TIDs were ever programmed. *)
  let env = H.Cluster.node_env cl 1 in
  Alcotest.(check int) "registrations failed as intended" 0
    (Pico_nic.Rcvarray.programmed_total
       (Pico_nic.Hfi.rcvarray
          (Option.get (Pico_nic.Hfi.context env.H.Cluster.hfi 0))));
  Alcotest.(check bool) "fallback delivered intact" true !ok

(* Rank 0 sends [plan]'s messages, (length, tag) each, in plan order;
   rank 1 sizes one receive buffer per message and posts them in
   reverse order, to stress matching.  [Ok got] gives, per receive, the
   source, the length received and the bytes placed; [Error e] is the
   [Endpoint.Truncated] that failed the run. *)
let run_plan plan =
  let plan = Array.of_list plan in
  let n = Array.length plan in
  let got = Array.make n (-1, -1, Bytes.empty) in
  let truncated = ref None in
  (try
     run_pair (fun comm ->
         let ep = comm.Comm.ep in
         if comm.Comm.rank = 0 then begin
           let reqs =
             Array.mapi
               (fun i (len, tag) ->
                 let buf = alloc comm len in
                 write comm buf (pattern (i + 2) len);
                 Endpoint.isend ep ~dst:1 ~tag:(Int64.of_int tag) ~va:buf
                   ~len)
               plan
           in
           Array.iter (Endpoint.wait ep) reqs
         end
         else begin
           let bufs = Array.map (fun (len, _) -> alloc comm len) plan in
           (try
              let reqs =
                List.map
                  (fun j ->
                    let len, tag = plan.(j) in
                    ( j,
                      Endpoint.irecv ep ~src:(Some 0) ~tag:(Int64.of_int tag)
                        ~va:bufs.(j) ~len () ))
                  (List.init n (fun k -> n - 1 - k))
              in
              List.iter (fun (_, r) -> Endpoint.wait ep r) reqs;
              List.iter
                (fun (j, r) ->
                  let src, len = Endpoint.recv_info r in
                  got.(j) <- (src, len, read comm bufs.(j) len))
                reqs
            with Endpoint.Truncated _ as e ->
              truncated := Some e;
              raise e)
         end;
         Pico_mpi.Collectives.barrier comm)
   with Failure _ when Option.is_some !truncated -> ());
  match !truncated with Some e -> Error e | None -> Ok got

(* MPI's matching rule: the k-th send with tag T pairs with the k-th
   receive posted with tag T.  Receives are posted from the last plan
   index down, so receive [j] is the k-th of its tag where k counts the
   same-tag receives above [j].  Returns each receive's send. *)
let mpi_partners plan =
  let plan = Array.of_list plan in
  let n = Array.length plan in
  Array.init n (fun j ->
      let tag = snd plan.(j) in
      let same =
        List.filter (fun i -> snd plan.(i) = tag) (List.init n Fun.id)
      in
      List.nth same (List.length (List.filter (fun i -> i > j) same)))

(* Property: a random batch of messages (mixed sizes straddling the
   eager threshold, random tags, duplicates included) between two ranks
   has MPI's outcome whatever the posting order: the run fails with
   [Endpoint.Truncated], naming a pair, exactly when some send is longer
   than the receive it pairs with; otherwise every receive holds its
   paired send's payload. *)
let prop_random_message_plan =
  QCheck2.Test.make ~name:"random message plan completes intact" ~count:12
    QCheck2.Gen.(
      list_size (int_range 1 6)
        (pair (int_range 1 (300 * 1024)) (int_range 0 1000)))
    (fun plan ->
      let partner = mpi_partners plan in
      let lens = Array.of_list (List.map fst plan) in
      let tags = Array.of_list (List.map snd plan) in
      let truncating j = lens.(partner.(j)) > lens.(j) in
      match run_plan plan with
      | Error (Endpoint.Truncated { src; tag; msg_len; buf_len }) ->
        src = 0
        && List.exists
             (fun j ->
               truncating j
               && Int64.of_int tags.(j) = tag
               && lens.(partner.(j)) = msg_len
               && lens.(j) = buf_len)
             (List.init (Array.length lens) Fun.id)
      | Error _ -> false
      | Ok got ->
        let intact j (src, len, data) =
          let i = partner.(j) in
          (not (truncating j))
          && src = 0
          && len = lens.(i)
          && Bytes.equal data (pattern (i + 2) lens.(i))
        in
        Array.for_all Fun.id (Array.mapi intact got))

(* 1 B, 1 B and 65,537 B on tag 0, received in reverse: receive 0, a
   1 B buffer posted last, pairs with the 65,537 B rendezvous.  The run
   must fail at its RTS, before a TID registration runs past the 1 B
   buffer's mapping. *)
let test_truncated_receive () =
  match run_plan [ (1, 0); (1, 0); (65_537, 0) ] with
  | Error (Endpoint.Truncated { src; tag; msg_len; buf_len }) ->
    Alcotest.(check (list int)) "src, tag, msg_len, buf_len" [ 0; 0; 65_537; 1 ]
      [ src; Int64.to_int tag; msg_len; buf_len ]
  | Error e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "the oversize receive completed"

let () =
  Alcotest.run "psm"
    [ ("mq",
       [ Alcotest.test_case "basic" `Quick test_mq_basic_match;
         Alcotest.test_case "src filter" `Quick test_mq_src_filter;
         Alcotest.test_case "any source" `Quick test_mq_any_source;
         Alcotest.test_case "mask" `Quick test_mq_mask;
         Alcotest.test_case "fifo" `Quick test_mq_fifo_order;
         Alcotest.test_case "unexpected" `Quick test_mq_unexpected;
         Alcotest.test_case "would_match" `Quick test_mq_would_match ]);
      ("transfers",
       [ Alcotest.test_case "eager small" `Quick test_eager_small;
         Alcotest.test_case "eager zero" `Quick test_eager_zero;
         Alcotest.test_case "eager at threshold" `Quick test_eager_threshold;
         Alcotest.test_case "rndv one window" `Quick test_rndv_one_window;
         Alcotest.test_case "rndv multi window" `Quick test_rndv_multi_window;
         Alcotest.test_case "unexpected eager" `Quick test_unexpected_eager;
         Alcotest.test_case "unexpected RTS" `Quick test_unexpected_rts;
         Alcotest.test_case "any source" `Quick test_any_source;
         Alcotest.test_case "ordering" `Quick test_message_ordering;
         Alcotest.test_case "bidirectional" `Quick test_bidirectional_exchange;
         Alcotest.test_case "self send" `Quick test_send_to_self;
         Alcotest.test_case "counters" `Quick test_counters;
         Alcotest.test_case "tid cache reuse" `Quick
           test_tid_cache_reuses_registrations;
         Alcotest.test_case "tid cache fewer ioctls" `Quick
           test_tid_cache_fewer_driver_calls;
         Alcotest.test_case "tid cache toggle restored on exception" `Quick
           test_with_tid_cache_restores_on_exception;
         Alcotest.test_case "rcvarray exhaustion fallback" `Quick
           test_rcvarray_exhaustion_fallback;
         Alcotest.test_case "truncated receive fails loudly" `Quick
           test_truncated_receive;
         QCheck_alcotest.to_alcotest prop_random_message_plan ]) ]
