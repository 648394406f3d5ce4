(* Tests for the NIC substrate: fabric, SDMA engines, RcvArray, HFI device
   and the user ABI codec, and SDMA packet-train batching against the
   per-packet path (PIO sends are per-packet only; they compete with the
   trains in the mid-train scenarios). *)

open Pico_nic
module Sim = Pico_engine.Sim
module Ledger = Pico_engine.Ledger
module Mailbox = Pico_engine.Mailbox
module Stats = Pico_engine.Stats
module Node = Pico_hw.Node
module Addr = Pico_hw.Addr
module Pagetable = Pico_hw.Pagetable
module Gup = Pico_linux.Gup
module Costs = Pico_costs.Costs

let () = Costs.reset ()

let check_float = Alcotest.(check (float 1e-6))

type Wire.ctrl += Test_ctrl of int

let mk_packet ?(src = 0) ?(dst = 1) ?(ctx = 0) ?(len = 100) ?payload header =
  { Wire.src_node = src; dst_node = dst; dst_ctx = ctx; wire_len = len;
    header; payload }

(* --- Fabric ----------------------------------------------------------------- *)

let test_fabric_latency () =
  let sim = Sim.create () in
  let f = Fabric.create sim in
  let at = ref 0. in
  Fabric.attach f ~node_id:1 ~rx:(fun _ -> at := Sim.now sim);
  Fabric.send f (mk_packet (Wire.Ctrl (Test_ctrl 1)));
  ignore (Sim.run sim);
  check_float "wire latency" (Costs.current ()).Costs.link_latency !at;
  Alcotest.(check int) "delivered" 1 (Fabric.packets_delivered f);
  Alcotest.(check int) "bytes" 100 (Fabric.bytes_delivered f)

let test_fabric_loopback_faster () =
  let sim = Sim.create () in
  let f = Fabric.create sim in
  let at = ref infinity in
  Fabric.attach f ~node_id:0 ~rx:(fun _ -> at := Sim.now sim);
  Fabric.send f (mk_packet ~src:0 ~dst:0 (Wire.Ctrl (Test_ctrl 1)));
  ignore (Sim.run sim);
  Alcotest.(check bool) "loopback below wire latency" true
    (!at < (Costs.current ()).Costs.link_latency)

let test_fabric_unattached () =
  let sim = Sim.create () in
  let f = Fabric.create sim in
  Alcotest.(check bool) "raises" true
    (try Fabric.send f (mk_packet ~dst:9 (Wire.Ctrl (Test_ctrl 1))); false
     with Invalid_argument _ -> true)

let test_fabric_detach () =
  let sim = Sim.create () in
  let f = Fabric.create sim in
  Fabric.attach f ~node_id:3 ~rx:(fun _ -> ());
  Alcotest.(check (list int)) "attached" [ 3 ] (Fabric.attached f);
  Fabric.detach f ~node_id:3;
  Alcotest.(check (list int)) "detached" [] (Fabric.attached f)

let test_fabric_in_order_delivery () =
  let sim = Sim.create () in
  let f = Fabric.create sim in
  let got = ref [] in
  Fabric.attach f ~node_id:1 ~rx:(fun p -> got := p.Wire.wire_len :: !got);
  for i = 1 to 10 do
    Fabric.send f (mk_packet ~len:i (Wire.Ctrl (Test_ctrl i)))
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo per destination"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !got)

let test_fabric_double_attach () =
  let sim = Sim.create () in
  let f = Fabric.create sim in
  Fabric.attach f ~node_id:0 ~rx:(fun _ -> ());
  Alcotest.(check bool) "double attach raises" true
    (try Fabric.attach f ~node_id:0 ~rx:(fun _ -> ()); false
     with Invalid_argument _ -> true)

(* --- Sdma ------------------------------------------------------------------- *)

let mk_sdma ?(engines = 4) ?(slots = 4) sim =
  let transmitted = ref [] in
  let s =
    Sdma.create sim ~n_engines:engines ~ring_slots:slots
      ~transmit:(fun ~pa ~len:_ ->
        Sim.delay sim 100.;
        transmitted := (pa, Sim.now sim) :: !transmitted)
  in
  (s, transmitted)

let test_sdma_oversize_rejected () =
  let sim = Sim.create () in
  let s, _ = mk_sdma sim in
  Sim.spawn sim (fun () ->
      Alcotest.(check bool) "oversize raises" true
        (try
           Sdma.submit s
             { Sdma.tx_id = 0; channel = 0;
               requests = Extent.of_list [ (0, 20_000) ];
               total_bytes = 20_000; on_complete = (fun () -> ()); lg = Ledger.null };
           false
         with Invalid_argument _ -> true));
  ignore (Sim.run sim)

let test_sdma_bad_tx_moves_nothing () =
  let sim = Sim.create () in
  let s, transmitted = mk_sdma sim in
  Sim.spawn sim (fun () ->
      Alcotest.(check bool) "oversize second request raises" true
        (try
           Sdma.submit s
             { Sdma.tx_id = 0; channel = 0;
               requests =
                 Extent.of_list [ (0, 4096); (4096, 20_000) ];
               total_bytes = 24_096; on_complete = (fun () -> ());
               lg = Ledger.null };
           false
         with Invalid_argument _ -> true));
  ignore (Sim.run sim);
  Alcotest.(check int) "requests" 0 (Sdma.requests_submitted s);
  Alcotest.(check int) "bytes" 0 (Sdma.bytes_submitted s);
  Alcotest.(check int) "largest request" 0 (Sdma.max_request_bytes s);
  Alcotest.(check int) "in flight" 0 (Sdma.in_flight s);
  Alcotest.(check int) "nothing transmitted" 0 (List.length !transmitted)

let test_sdma_empty_rejected () =
  let sim = Sim.create () in
  let s, _ = mk_sdma sim in
  let submit len =
    Sdma.submit s
      { Sdma.tx_id = 0; channel = 0;
        requests = Extent.of_list [ (0, len) ];
        total_bytes = len; on_complete = (fun () -> ()); lg = Ledger.null }
  in
  Sim.spawn sim (fun () ->
      Alcotest.(check bool) "zero-length raises" true
        (try submit 0; false with Invalid_argument _ -> true);
      Alcotest.(check bool) "negative length raises" true
        (try submit (-1); false with Invalid_argument _ -> true));
  ignore (Sim.run sim)

let test_sdma_halt_parks_engine () =
  let sim = Sim.create () in
  let s, _ = mk_sdma sim in
  let o = (Costs.current ()).Costs.sdma_request_overhead in
  let done1 = ref 0. and done2 = ref 0. in
  let mk i don =
    { Sdma.tx_id = i; channel = 0;
      requests = Extent.of_list [ (i * 4096, 4096) ];
      total_bytes = 4096; on_complete = (fun () -> don := Sim.now sim); lg = Ledger.null }
  in
  Sim.spawn sim (fun () -> Sdma.submit s (mk 1 done1));
  (* Halt mid-tx: the active descriptor train drains (hardware finishes
     it); the queued tx parks until recovery. *)
  Sim.at sim 50. (fun () ->
      Sdma.halt s ~engine:0;
      Sdma.halt s ~engine:0 (* idempotent: still one halt window *);
      Alcotest.(check bool) "halted" true (Sdma.engine_halted s ~engine:0));
  Sim.spawn sim (fun () ->
      Sim.delay sim 120.;
      Sdma.submit s (mk 2 done2));
  Sim.at sim 1000. (fun () -> Sdma.recover s ~engine:0);
  ignore (Sim.run sim);
  check_float "tx in service drained" (o +. 100.) !done1;
  check_float "queued tx waited for recovery" (1000. +. o +. 100.) !done2;
  Alcotest.(check bool) "running again" false (Sdma.engine_halted s ~engine:0);
  Alcotest.(check int) "one halt window" 1 (Sdma.halts s);
  check_float "halted_ns covers the window" 950. (Sdma.halted_ns s)

let test_sdma_same_channel_serializes () =
  let sim = Sim.create () in
  let s, _ = mk_sdma sim in
  let completions = ref [] in
  Sim.spawn sim (fun () ->
      for i = 0 to 1 do
        Sdma.submit s
          { Sdma.tx_id = i; channel = 7;
            requests = Extent.of_list [ (i * 4096, 4096) ];
            total_bytes = 4096;
            on_complete = (fun () -> completions := Sim.now sim :: !completions); lg = Ledger.null }
      done);
  ignore (Sim.run sim);
  (match List.rev !completions with
   | [ t1; t2 ] ->
     Alcotest.(check bool) "second strictly after first" true (t2 >= t1 +. 100.)
   | _ -> Alcotest.fail "expected two completions")

let test_sdma_different_channels_overlap () =
  let sim = Sim.create () in
  let s, _ = mk_sdma sim in
  let completions = ref [] in
  Sim.spawn sim (fun () ->
      for i = 0 to 1 do
        Sdma.submit s
          { Sdma.tx_id = i; channel = i;
            requests = Extent.of_list [ (i * 4096, 4096) ];
            total_bytes = 4096;
            on_complete = (fun () -> completions := Sim.now sim :: !completions); lg = Ledger.null }
      done);
  ignore (Sim.run sim);
  (match List.sort_uniq compare !completions with
   | [ t ] -> Alcotest.(check bool) "parallel" true (t > 0.)
   | _ -> Alcotest.fail "expected simultaneous completions")

let test_sdma_stats () =
  let sim = Sim.create () in
  let s, _ = mk_sdma sim in
  Sim.spawn sim (fun () ->
      Sdma.submit s
        { Sdma.tx_id = 0; channel = 0;
          requests =
            Extent.of_list [ (0, 4096); (8192, 2048) ];
          total_bytes = 6144; on_complete = (fun () -> ()); lg = Ledger.null });
  ignore (Sim.run sim);
  Alcotest.(check int) "requests" 2 (Sdma.requests_submitted s);
  Alcotest.(check int) "bytes" 6144 (Sdma.bytes_submitted s);
  Alcotest.(check int) "txs" 1 (Sdma.txs_completed s);
  Alcotest.(check int) "largest request" 4096 (Sdma.max_request_bytes s)

let test_sdma_ring_backpressure () =
  let sim = Sim.create () in
  let s, _ = mk_sdma ~engines:1 ~slots:1 sim in
  let submit_times = ref [] in
  Sim.spawn sim (fun () ->
      for i = 0 to 1 do
        Sdma.submit s
          { Sdma.tx_id = i; channel = 0;
            requests = Extent.of_list [ (0, 4096) ];
            total_bytes = 4096; on_complete = (fun () -> ()); lg = Ledger.null };
        submit_times := Sim.now sim :: !submit_times
      done);
  ignore (Sim.run sim);
  (match List.rev !submit_times with
   | [ t1; t2 ] ->
     check_float "first immediate" 0. t1;
     Alcotest.(check bool) "second blocked on full ring" true (t2 > 0.)
   | _ -> Alcotest.fail "expected two submissions")

(* --- Rcvarray ------------------------------------------------------------------ *)

(* RcvArray entries given as [(pa, len)] pairs. *)
let entries l = Extent.Extents (Extent.of_list l)

let test_rcvarray_program_lookup () =
  let sim = Sim.create () in
  let r = Rcvarray.create sim ~n_entries:8 in
  let base =
    Option.get
      (Rcvarray.program r
         (entries [ (0x1000, 4096); (0x9000, 2048) ]))
  in
  Alcotest.(check int) "base" 0 base;
  Alcotest.(check int) "in use" 2 (Rcvarray.in_use r);
  (match Rcvarray.lookup r ~tid:1 with
   | Some (pa, _) -> Alcotest.(check int) "second entry pa" 0x9000 pa
   | None -> Alcotest.fail "missing entry")

let test_rcvarray_run_and_free () =
  let sim = Sim.create () in
  let r = Rcvarray.create sim ~n_entries:8 in
  let b1 = Option.get (Rcvarray.program r (entries [ (0, 4096) ])) in
  let b2 =
    Option.get
      (Rcvarray.program r
         (entries [ (4096, 4096); (8192, 4096) ]))
  in
  Alcotest.(check int) "b2 after b1" (b1 + 1) b2;
  Rcvarray.unprogram r ~tid_base:b1 ~count:1;
  let b3 = Option.get (Rcvarray.program r (entries [ (0, 4096) ])) in
  Alcotest.(check int) "hole reused" b1 b3

let test_rcvarray_full () =
  let sim = Sim.create () in
  let r = Rcvarray.create sim ~n_entries:2 in
  ignore (Rcvarray.program r (entries [ (0, 4096) ]));
  Alcotest.(check bool) "no contiguous room" true
    (Rcvarray.program r
       (entries [ (0, 4096); (0, 4096) ])
     = None)

let test_rcvarray_double_unprogram () =
  let sim = Sim.create () in
  let r = Rcvarray.create sim ~n_entries:4 in
  let b = Option.get (Rcvarray.program r (entries [ (0, 4096) ])) in
  Rcvarray.unprogram r ~tid_base:b ~count:1;
  Alcotest.(check bool) "double unprogram raises" true
    (try Rcvarray.unprogram r ~tid_base:b ~count:1; false
     with Invalid_argument _ -> true)

let test_rcvarray_bad_unprogram_moves_nothing () =
  let sim = Sim.create () in
  let r = Rcvarray.create sim ~n_entries:8 in
  let b =
    Option.get (Rcvarray.program r (entries [ (0x1000, 4096); (0x9000, 2048) ]))
  in
  Alcotest.(check bool) "run over a free slot raises" true
    (try Rcvarray.unprogram r ~tid_base:b ~count:3; false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "in use" 2 (Rcvarray.in_use r);
  Alcotest.(check (option (pair int int))) "first entry kept"
    (Some (0x1000, 4096)) (Rcvarray.lookup r ~tid:b);
  Alcotest.(check (option (pair int int))) "second entry kept"
    (Some (0x9000, 2048)) (Rcvarray.lookup r ~tid:(b + 1));
  Alcotest.(check int) "next run after it" (b + 2)
    (Option.get (Rcvarray.program r (entries [ (0, 4096) ])))

let test_rcvarray_entries_of_run () =
  let sim = Sim.create () in
  let r = Rcvarray.create sim ~n_entries:8 in
  let b =
    Option.get
      (Rcvarray.program r
         (entries [ (0, 100); (200, 100) ]))
  in
  Alcotest.(check int) "run length" 2
    (Extent.count (Rcvarray.entries_of_run r ~tid_base:b));
  Alcotest.(check int) "programmed_total" 2 (Rcvarray.programmed_total r)

(* --- Extent cuts against the per-page list code they replaced ---------------- *)

(* An 8 MiB window straddling a 1 GiB boundary, in four 2 MiB leaf-table
   spans: 4 kB pages with a physical break every 5 pages; a 2 MB leaf;
   4 kB pages that continue that leaf physically, with one hole; another
   2 MB leaf.  Past the window nothing is mapped. *)
let window_va = Addr.gib 1 - Addr.mib 4

let window_len = Addr.mib 8

let hole_va = window_va + Addr.mib 4 + (300 * Addr.page_size)

let window_pt () =
  let pt = Pagetable.create () in
  let flags = Pagetable.Flags.(present + writable + user + pinned) in
  for k = 0 to 511 do
    Pagetable.map pt ~va:(window_va + (k * Addr.page_size))
      ~pa:(0x1000_0000 + ((k + (k / 5 * 3)) * Addr.page_size))
      ~page_size:Addr.page_size ~flags
  done;
  Pagetable.map pt ~va:(window_va + Addr.mib 2) ~pa:0x2000_0000
    ~page_size:Addr.large_page_size ~flags;
  for k = 0 to 511 do
    let va = window_va + Addr.mib 4 + (k * Addr.page_size) in
    if va <> hole_va then
      Pagetable.map pt ~va ~pa:(0x2020_0000 + (k * Addr.page_size))
        ~page_size:Addr.page_size ~flags
  done;
  Pagetable.map pt ~va:(window_va + Addr.mib 6) ~pa:0x3000_0000
    ~page_size:Addr.large_page_size ~flags;
  pt

(* The reference: [pa_of] page by page from the last page down (the order
   get_user_pages walked), and the per-page and per-segment list cuts. *)
let ref_pages pt ~va ~len =
  let first = Addr.align_down va Addr.page_size in
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (Pagetable.pa_of pt (first + (i * Addr.page_size)) :: acc)
  in
  go (Addr.pages_spanned ~addr:va ~len - 1) []

let ref_linux_cut ~va ~len pages =
  let first_off = Addr.offset_in_page va in
  let rec go pages covered =
    match pages with
    | p :: rest when covered < len ->
      let page_off = if covered = 0 then first_off else 0 in
      let take = min (Addr.page_size - page_off) (len - covered) in
      (p + page_off, take) :: go rest (covered + take)
    | _ -> []
  in
  go pages 0

let ref_chop ~cap segs =
  List.concat_map
    (fun (pa, len, _) ->
      let rec chop off acc =
        if off >= len then List.rev acc
        else begin
          let take = min cap (len - off) in
          chop (off + take) ((pa + off, take) :: acc)
        end
      in
      chop 0 [])
    segs

let to_list e = List.init (Extent.count e) (fun i -> (Extent.pa e i, Extent.len e i))

(* The RcvArray as an option per slot: first free run from TID 0. *)
let ref_program slots entries =
  let n = List.length entries in
  let cap = Array.length slots in
  let rec scan start run i =
    if i >= cap then None
    else if slots.(i) <> None then scan (i + 1) 0 (i + 1)
    else if run + 1 = n then Some start
    else scan start (run + 1) (i + 1)
  in
  match scan 0 0 0 with
  | None -> None
  | Some base ->
    List.iteri (fun i e -> slots.(base + i) <- Some e) entries;
    Some base

let ref_run slots ~tid_base =
  let rec go i =
    if i < Array.length slots then
      match slots.(i) with Some e -> e :: go (i + 1) | None -> []
    else []
  in
  go tid_base

let check_readback name r slots =
  Array.iteri
    (fun tid e ->
      if Rcvarray.lookup r ~tid <> e then
        QCheck2.Test.fail_reportf "%s: lookup %d differs" name tid)
    slots;
  let used = Array.fold_left (fun n e -> if e = None then n else n + 1) 0 slots in
  if Rcvarray.in_use r <> used then
    QCheck2.Test.fail_reportf "%s: in_use %d, reference %d" name
      (Rcvarray.in_use r) used

(* Program [cut] into an RcvArray holding [junk] single-entry runs, the
   first of them freed again, and the reference beside it.  The array
   has [slack] slots more than [junk] plus the run (from -1: no room). *)
let check_rcv_program name ~junk ~slack cut ref_entries =
  let capacity = Int.max 1 (junk + List.length ref_entries + slack) in
  let r = Rcvarray.create (Sim.create ()) ~n_entries:capacity in
  let slots = Array.make capacity None in
  for _ = 1 to junk do
    ignore (Rcvarray.program r (entries [ (0, 4096) ]));
    ignore (ref_program slots [ (0, 4096) ])
  done;
  if junk > 0 then begin
    Rcvarray.unprogram r ~tid_base:0 ~count:1;
    slots.(0) <- None
  end;
  let base = Rcvarray.program r cut in
  let ref_base = ref_program slots ref_entries in
  if base <> ref_base then QCheck2.Test.fail_reportf "%s: base differs" name;
  check_readback name r slots;
  let programmed =
    junk + match base with Some _ -> List.length ref_entries | None -> 0
  in
  if Rcvarray.programmed_total r <> programmed then
    QCheck2.Test.fail_reportf "%s: programmed_total" name;
  match base with
  | None -> ()
  | Some tid_base ->
    if to_list (Rcvarray.entries_of_run r ~tid_base)
       <> ref_run slots ~tid_base
    then QCheck2.Test.fail_reportf "%s: placement run differs" name;
    Rcvarray.unprogram r ~tid_base ~count:(List.length ref_entries);
    List.iteri (fun i _ -> slots.(tid_base + i) <- None) ref_entries;
    check_readback (name ^ " after unprogram") r slots

(* First-fit over any interleaving of registrations and frees equals the
   option-per-slot scan from TID 0: runs freed out of order leave holes
   that a later, smaller run must fill, and a run placed above a hole
   too small for it must not hide that hole. *)
let prop_rcvarray_first_fit =
  QCheck2.Test.make ~name:"first fit = scan-from-0 reference" ~count:300
    ~print:(fun (capacity, ops) ->
      Printf.sprintf "capacity=%d ops=[%s]" capacity
        (String.concat "; "
           (List.map
              (fun (prog, n, pick) ->
                if prog then Printf.sprintf "program %d" n
                else Printf.sprintf "free #%d" pick)
              ops)))
    QCheck2.Gen.(
      pair (int_range 1 24)
        (list_size (int_range 1 40)
           (triple bool (int_range 1 6) (int_range 0 1000))))
    (fun (capacity, ops) ->
      let r = Rcvarray.create (Sim.create ()) ~n_entries:capacity in
      let slots = Array.make capacity None in
      let live = ref [] in
      List.iteri
        (fun step (prog, n, pick) ->
          if prog || !live = [] then begin
            let run =
              List.init n (fun i -> (((64 * step) + i + 1) * 4096, 4096))
            in
            let base = Rcvarray.program r (entries run) in
            if base <> ref_program slots run then
              QCheck2.Test.fail_reportf "step %d: base differs" step;
            Option.iter (fun b -> live := (b, n) :: !live) base
          end
          else begin
            let ((b, n) as run) = List.nth !live (pick mod List.length !live) in
            Rcvarray.unprogram r ~tid_base:b ~count:n;
            for i = b to b + n - 1 do slots.(i) <- None done;
            live := List.filter (( <> ) run) !live
          end;
          check_readback (Printf.sprintf "step %d" step) r slots)
        ops;
      true)

let prop_extent_cuts =
  QCheck2.Test.make ~name:"extent cuts = per-page list reference" ~count:300
    ~print:(fun (off, len, junk, slack) ->
      Printf.sprintf "off=%#x len=%d junk=%d slack=%d" off len junk slack)
    QCheck2.Gen.(
      quad (int_range 0 (window_len - 1)) (int_range 1 (Addr.mib 3))
        (int_range 0 3) (int_range (-1) 2))
    (fun (off, len, junk, slack) ->
      let pt = window_pt () in
      let va = window_va + off in
      let gup = Gup.create (Sim.create ()) in
      let expected =
        try Ok (ref_pages pt ~va ~len) with Pagetable.Not_mapped a -> Error a
      in
      let got =
        try Ok (Array.to_list (Gup.get_user_pages gup ~pt ~va ~len))
        with Pagetable.Not_mapped a -> Error a
      in
      if got <> expected then QCheck2.Test.fail_report "run walk differs";
      (match expected with
       | Error a ->
         (* The first hole of a last-to-first walk is the run's highest:
            its last page past the window, else the window's one hole. *)
         let last = Addr.align_down (va + len - 1) Addr.page_size in
         let highest =
           if last >= window_va + window_len then last else hole_va
         in
         if a <> highest then QCheck2.Test.fail_report "not the highest hole"
       | Ok page_list ->
         let pages = Array.of_list page_list in
         let linux = ref_linux_cut ~va ~len page_list in
         let cut = Extent.Pages { pages; va; len } in
         if to_list (Extent.of_cut cut) <> linux
            || Extent.cut_count cut <> List.length linux
         then QCheck2.Test.fail_report "Linux cut differs";
         check_rcv_program "Linux" ~junk ~slack cut linux;
         let segs = Pagetable.phys_segments pt ~va ~len in
         List.iter
           (fun cap ->
             let pico = ref_chop ~cap segs in
             let cut = Extent.Chop { cap; segs } in
             if to_list (Extent.of_cut cut) <> pico
                || Extent.cut_count cut <> List.length pico
             then QCheck2.Test.fail_reportf "chop at %d differs" cap;
             check_rcv_program (Printf.sprintf "chop %d" cap) ~junk ~slack cut
               pico)
           [ (Costs.current ()).Costs.sdma_max_request; Addr.large_page_size ]);
      true)

(* --- User_api ------------------------------------------------------------------- *)

let test_user_api_sdma_roundtrip () =
  let req =
    { User_api.dst_node = 3; dst_ctx = 17; kind = User_api.Sdma_expected;
      tag = 0x1234_5678_9ABCL; msg_id = 42; offset = 1 lsl 21;
      msg_len = 4 * 1024 * 1024; tid_base = 99; src_rank = 1023 }
  in
  let back = User_api.decode_sdma_req (User_api.encode_sdma_req req) in
  Alcotest.(check bool) "roundtrip" true (back = req)

let test_user_api_tid_roundtrip () =
  let u = { User_api.tu_va = 0x7f00_1234_5000; tu_len = 123456 } in
  Alcotest.(check bool) "tid_update" true
    (User_api.decode_tid_update (User_api.encode_tid_update u) = u);
  let f = { User_api.tf_tid_base = 7; tf_count = 32 } in
  Alcotest.(check bool) "tid_free" true
    (User_api.decode_tid_free (User_api.encode_tid_free f) = f)

let test_user_api_bad_input () =
  Alcotest.(check bool) "short buffer" true
    (try ignore (User_api.decode_sdma_req (Bytes.create 4)); false
     with Invalid_argument _ -> true);
  let b =
    User_api.encode_sdma_req
      { User_api.dst_node = 0; dst_ctx = 0; kind = User_api.Sdma_eager;
        tag = 0L; msg_id = 0; offset = 0; msg_len = 0; tid_base = 0;
        src_rank = 0 }
  in
  Bytes.set_int32_le b 8 99l;
  Alcotest.(check bool) "bad kind" true
    (try ignore (User_api.decode_sdma_req b); false
     with Invalid_argument _ -> true)

let test_user_api_wire_header () =
  let req =
    { User_api.dst_node = 1; dst_ctx = 2; kind = User_api.Sdma_expected;
      tag = 9L; msg_id = 3; offset = 100; msg_len = 500; tid_base = 4;
      src_rank = 5 }
  in
  (match User_api.wire_header_of_req req ~frag_len:400 with
   | Wire.Expected e ->
     Alcotest.(check int) "tid" 4 e.tid_base;
     Alcotest.(check int) "offset" 100 e.offset;
     Alcotest.(check int) "frag" 400 e.frag_len
   | _ -> Alcotest.fail "expected Expected header")

let prop_user_api_roundtrip =
  QCheck2.Test.make ~name:"sdma_req roundtrip" ~count:200
    QCheck2.Gen.(
      tup6 (int_range 0 1000) (int_range 0 1000) bool (int_range 0 (1 lsl 30))
        (int_range 0 (1 lsl 30)) (int_range 0 60000))
    (fun (dst_node, dst_ctx, eager, offset, msg_len, tid_base) ->
      let req =
        { User_api.dst_node; dst_ctx;
          kind = (if eager then User_api.Sdma_eager else User_api.Sdma_expected);
          tag = Int64.of_int offset; msg_id = dst_node + dst_ctx; offset;
          msg_len; tid_base; src_rank = dst_ctx }
      in
      User_api.decode_sdma_req (User_api.encode_sdma_req req) = req)

(* --- Hfi end-to-end ---------------------------------------------------------------- *)

let mk_hfi_pair ?(carry_payload = true) () =
  let sim = Sim.create () in
  let f = Fabric.create sim in
  let n0 = Node.create_knl sim ~id:0 ~mem_scale:0.001 () in
  let n1 = Node.create_knl sim ~id:1 ~mem_scale:0.001 () in
  let h0 = Hfi.create sim ~node:n0 ~fabric:f ~carry_payload () in
  let h1 = Hfi.create sim ~node:n1 ~fabric:f ~carry_payload () in
  (sim, h0, h1, n0, n1)

let test_hfi_contexts () =
  let _, h0, _, _, _ = mk_hfi_pair () in
  let c0 = Hfi.open_context h0 in
  let c1 = Hfi.open_context h0 in
  Alcotest.(check int) "ids distinct" 1 (Hfi.ctx_id c1 - Hfi.ctx_id c0);
  Alcotest.(check bool) "lookup" true (Hfi.context h0 (Hfi.ctx_id c0) <> None);
  Hfi.close_context h0 c0;
  Alcotest.(check bool) "closed" true (Hfi.context h0 (Hfi.ctx_id c0) = None)

let test_hfi_pio_eager_fragments () =
  let sim, h0, h1, _, _ = mk_hfi_pair ~carry_payload:false () in
  let ctx = Hfi.open_context h1 in
  Sim.spawn sim (fun () ->
      Hfi.pio_send h0 ~dst_node:1 ~dst_ctx:(Hfi.ctx_id ctx)
        ~hdr:
          (Wire.Eager
             { tag = 1L; msg_id = 0; offset = 0; frag_len = 20000;
               msg_len = 20000; src_rank = 0 })
        ~len:20000 ());
  ignore (Sim.run sim);
  (* 20000 bytes at 8 kB per PIO packet = 3 fragments. *)
  Alcotest.(check int) "three fragments" 3 (Mailbox.length (Hfi.rx_events ctx));
  Alcotest.(check int) "eager counter" 3 (Hfi.eager_packets_rx h1)

let test_hfi_sdma_expected_end_to_end () =
  let sim, h0, h1, n0, n1 = mk_hfi_pair () in
  let ctx = Hfi.open_context h1 in
  let rpa = Option.get (Node.alloc_frames n1 2) in
  let tid_base =
    Option.get
      (Rcvarray.program (Hfi.rcvarray ctx) (entries [ (rpa, 8192) ]))
  in
  let spa = Option.get (Node.alloc_frames n0 2) in
  let data = Bytes.init 8192 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Node.write_bytes n0 spa data;
  let completed = ref false in
  Sim.spawn sim (fun () ->
      Hfi.sdma_submit h0 ~channel:0 ~dst_node:1 ~dst_ctx:(Hfi.ctx_id ctx)
        ~hdr:
          (Wire.Expected
             { tid_base; msg_id = 5; offset = 0; frag_len = 8192;
               msg_len = 8192; src_rank = 0 })
        ~reqs:(Extent.of_list [ (spa, 8192) ])
        ~on_complete:(fun () -> completed := true)
        ());
  ignore (Sim.run sim);
  (* No IRQ handler is registered; completions stay queued. *)
  List.iter (fun cb -> cb ()) (Hfi.drain_completions h0);
  Alcotest.(check bool) "sender completion ran" true !completed;
  Alcotest.(check bytes) "expected placement" data (Node.read_bytes n1 rpa 8192);
  (match Mailbox.get_opt (Hfi.rx_events ctx) with
   | Some (Hfi.Rx_expected e) ->
     Alcotest.(check int) "msg id" 5 e.msg_id;
     Alcotest.(check int) "frag len" 8192 e.frag_len
   | _ -> Alcotest.fail "expected Rx_expected event");
  Alcotest.(check int) "expected counter" 1 (Hfi.expected_msgs_rx h1)

let test_hfi_wire_is_serialized () =
  let sim, h0, h1, n0, _ = mk_hfi_pair ~carry_payload:false () in
  let ctx = Hfi.open_context h1 in
  let spa = Option.get (Node.alloc_frames n0 4) in
  Sim.spawn sim (fun () ->
      for i = 0 to 1 do
        Hfi.sdma_submit h0 ~channel:i ~dst_node:1 ~dst_ctx:(Hfi.ctx_id ctx)
          ~hdr:
            (Wire.Eager
               { tag = 0L; msg_id = i; offset = 0; frag_len = 8192;
                 msg_len = 8192; src_rank = 0 })
          ~reqs:(Extent.of_list [ (spa + (i * 8192), 8192) ])
          ~on_complete:(fun () -> ())
          ()
      done);
  ignore (Sim.run sim);
  ignore (Hfi.drain_completions h0);
  (* Both txs ran on different engines, but the single egress link
     serialises them: it must have been busy for both transfers. *)
  let per_pkt =
    float_of_int (8192 + (Costs.current ()).Costs.packet_overhead_bytes)
    /. (Costs.current ()).Costs.link_bandwidth
  in
  Alcotest.(check (float 1.)) "wire busy for both"
    (2. *. per_pkt)
    (Pico_engine.Resource.total_busy_ns (Hfi.wire h0))

(* --- Packet-train batching equivalence -------------------------------------

   Batching (the SDMA train fast path) must be invisible: every scenario
   is run once per-packet and once batched, and the observable outcomes —
   final simulated time, completion instants, delivered packets/bytes,
   egress-wire accounting — must be bit-identical floats.  The mid-train
   scenarios drive Hfi's train-abort path, where a competing wire user (a
   PIO send, which is always per-packet, or a second SDMA transfer)
   arrives while a batched SDMA train is in flight. *)

type outcome = {
  o_end : float;
  o_complete : float;
  o_pio_done : float;
  o_packets : int;
  o_bytes : int;
  o_busy : float;
  o_wait : float;
  o_served : int;
  o_elided : int;
}

let eager_hdr len =
  Wire.Eager
    { tag = 0L; msg_id = 0; offset = 0; frag_len = len; msg_len = len;
      src_rank = 0 }

let run_scenario ~batching f =
  Hfi.batching := batching;
  Fun.protect
    ~finally:(fun () -> Hfi.batching := true)
    (fun () ->
      let sim = Sim.create () in
      let fab = Fabric.create sim in
      let n0 = Node.create_knl sim ~id:0 ~mem_scale:0.001 () in
      let n1 = Node.create_knl sim ~id:1 ~mem_scale:0.001 () in
      let h0 = Hfi.create sim ~node:n0 ~fabric:fab ~carry_payload:false () in
      let h1 = Hfi.create sim ~node:n1 ~fabric:fab ~carry_payload:false () in
      let ctx = Hfi.open_context h1 in
      let complete = ref 0. in
      let pio_done = ref 0. in
      f sim h0 n0 (Hfi.ctx_id ctx) complete pio_done;
      ignore (Sim.run sim);
      ignore (Hfi.drain_completions h0);
      { o_end = Sim.now sim;
        o_complete = !complete;
        o_pio_done = !pio_done;
        o_packets = Fabric.packets_delivered fab;
        o_bytes = Fabric.bytes_delivered fab;
        o_busy = Pico_engine.Resource.total_busy_ns (Hfi.wire h0);
        o_wait = Pico_engine.Resource.total_wait_ns (Hfi.wire h0);
        o_served = Pico_engine.Resource.total_served (Hfi.wire h0);
        o_elided = Sim.events_elided sim })

let check_equiv name scenario =
  let per_packet = run_scenario ~batching:false scenario in
  let batched = run_scenario ~batching:true scenario in
  let exact = Alcotest.(check (float 0.)) in
  exact (name ^ ": end time") per_packet.o_end batched.o_end;
  exact (name ^ ": completion") per_packet.o_complete batched.o_complete;
  exact (name ^ ": pio done") per_packet.o_pio_done batched.o_pio_done;
  exact (name ^ ": wire busy") per_packet.o_busy batched.o_busy;
  exact (name ^ ": wire wait") per_packet.o_wait batched.o_wait;
  Alcotest.(check int)
    (name ^ ": packets") per_packet.o_packets batched.o_packets;
  Alcotest.(check int) (name ^ ": bytes") per_packet.o_bytes batched.o_bytes;
  Alcotest.(check int) (name ^ ": served") per_packet.o_served batched.o_served;
  Alcotest.(check int) (name ^ ": nothing elided per-packet") 0
    per_packet.o_elided;
  batched

(* The qcheck laws' form of [check_equiv]: every field but the elided
   count agrees. *)
let same_outcome a b = { a with o_elided = b.o_elided } = b

let sdma_scenario lens sim h0 n0 dst_ctx complete _pio_done =
  let spa = Option.get (Node.alloc_frames n0 4) in
  let reqs = Extent.of_list (List.map (fun len -> (spa, len)) lens) in
  let total = List.fold_left ( + ) 0 lens in
  Sim.spawn sim (fun () ->
      Hfi.sdma_submit h0 ~channel:0 ~dst_node:1 ~dst_ctx
        ~hdr:(eager_hdr total) ~reqs
        ~on_complete:(fun () -> complete := Sim.now sim)
        ())

(* An SDMA train plus a competitor that wants the wire [d] ns in:
   a PIO send from the same node, or a second SDMA transfer on another
   engine.  Sweeping [d] crosses every train phase (first gap, in-request,
   inter-request gap, at/after train end). *)
let midtrain_scenario ~d ~pio_len ~via_sdma lens sim h0 n0 dst_ctx complete
    pio_done =
  sdma_scenario lens sim h0 n0 dst_ctx complete (ref 0.);
  Sim.spawn sim (fun () ->
      Sim.delay sim d;
      if via_sdma then begin
        let spa = Option.get (Node.alloc_frames n0 1) in
        Hfi.sdma_submit h0 ~channel:1 ~dst_node:1 ~dst_ctx
          ~hdr:(eager_hdr 4096)
          ~reqs:(Extent.of_list [ (spa, 4096) ])
          ~on_complete:(fun () -> ())
          ()
      end
      else
        Hfi.pio_send h0 ~dst_node:1 ~dst_ctx ~hdr:(eager_hdr pio_len)
          ~len:pio_len ();
      pio_done := Sim.now sim)

(* An SDMA train with an engine halt landing [d] ns in: the driver-side
   fault path first aborts any batched train (Hfi.abort_train), then
   stops the engine.  A second tx on the same channel, submitted while
   halted, must wait for recovery.  Batched and per-packet runs must
   agree bit-exactly: the abort converts the elided tail back into the
   identical per-packet float sequence. *)
let halt_scenario ~d ~dwell lens sim h0 n0 dst_ctx complete pio_done =
  sdma_scenario lens sim h0 n0 dst_ctx complete (ref 0.);
  Sim.spawn sim (fun () ->
      Sim.delay sim d;
      Hfi.abort_train h0;
      Sdma.halt (Hfi.sdma h0) ~engine:0;
      let spa = Option.get (Node.alloc_frames n0 1) in
      Hfi.sdma_submit h0 ~channel:0 ~dst_node:1 ~dst_ctx
        ~hdr:(eager_hdr 4096)
        ~reqs:(Extent.of_list [ (spa, 4096) ])
        ~on_complete:(fun () -> pio_done := Sim.now sim)
        ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (d +. dwell);
      Sdma.recover (Hfi.sdma h0) ~engine:0)

let train_span lens =
  let c = Costs.current () in
  List.fold_left
    (fun acc len ->
      acc +. c.Costs.sdma_request_overhead
      +. (float_of_int (len + c.Costs.packet_overhead_bytes)
          /. c.Costs.link_bandwidth))
    0. lens

let test_batching_sdma_equiv () =
  let b = check_equiv "sdma 1 req" (sdma_scenario [ 8192 ]) in
  Alcotest.(check bool) "1-req train elides" true (b.o_elided >= 0);
  let b = check_equiv "sdma 4 reqs" (sdma_scenario [ 8192; 8192; 4096; 500 ]) in
  Alcotest.(check bool) "4-req train elides" true (b.o_elided > 0);
  (* Uneven sizes, from 1 byte to the hardware maximum: the one-call
     booking must sum the wire intervals in the per-packet order. *)
  let b =
    check_equiv "sdma uneven"
      (sdma_scenario [ 1; 4095; 10240; 17; 4096; 8191 ])
  in
  Alcotest.(check bool) "uneven train elides" true (b.o_elided > 0)

let test_batching_midtrain_sweep () =
  let lens = [ 8192; 8192; 4096; 8192 ] in
  let span = train_span lens in
  for i = 0 to 23 do
    let d = float_of_int i *. span /. 20. in
    ignore
      (check_equiv
         (Printf.sprintf "midtrain pio0 d=%d/20" i)
         (midtrain_scenario ~d ~pio_len:0 ~via_sdma:false lens))
  done

let test_batching_midtrain_halt () =
  let lens = [ 8192; 8192; 4096; 8192 ] in
  let span = train_span lens in
  for i = 0 to 23 do
    let d = float_of_int i *. span /. 20. in
    let b =
      check_equiv
        (Printf.sprintf "midtrain halt d=%d/20" i)
        (halt_scenario ~d ~dwell:(2. *. span) lens)
    in
    ignore b
  done

let prop_batching_midtrain_halt =
  QCheck2.Test.make
    ~name:"mid-train engine halt: batched = per-packet (bit-exact)"
    ~count:60
    QCheck2.Gen.(
      pair (float_bound_inclusive 1.2) (float_bound_inclusive 3.))
    (fun (frac, dwell_frac) ->
      let lens = [ 8192; 4096; 8192; 1000; 8192 ] in
      let span = train_span lens in
      let d = frac *. span in
      let dwell = (0.1 +. dwell_frac) *. span in
      let scenario = halt_scenario ~d ~dwell lens in
      let a = run_scenario ~batching:false scenario in
      let b = run_scenario ~batching:true scenario in
      same_outcome a b)

let prop_batching_midtrain =
  QCheck2.Test.make
    ~name:"mid-train wire arrivals: batched = per-packet (bit-exact)"
    ~count:80
    QCheck2.Gen.(
      triple
        (float_bound_inclusive 1.2)
        (oneofl [ 0; 300; 20000 ])
        bool)
    (fun (frac, pio_len, via_sdma) ->
      let lens = [ 8192; 4096; 8192; 1000; 8192 ] in
      let d = frac *. train_span lens in
      let scenario = midtrain_scenario ~d ~pio_len ~via_sdma lens in
      let a = run_scenario ~batching:false scenario in
      let b = run_scenario ~batching:true scenario in
      same_outcome a b)

(* --- Batching under a fat-tree topology ------------------------------------- *)

(* Four nodes on a radix-2 fat-tree (leaves {0,1} and {2,3}).  Node 0
   runs a batched SDMA train to node 1 while nodes 1 and 2 converge on
   the one l1->n3 host link; the link contention must abort node 0's
   train (Fabric fires every HFI's abort hook), and the batched run must
   stay bit-identical to the per-packet run at every stagger. *)
let run_ft_scenario ~batching f =
  Hfi.batching := batching;
  Fun.protect
    ~finally:(fun () -> Hfi.batching := true)
    (fun () ->
      let sim = Sim.create () in
      let topo = Pico_fabric.Topology.Fat_tree { radix = 2; oversub = 1 } in
      let fab = Fabric.create ~topology:topo sim in
      let nodes =
        Array.init 4 (fun id -> Node.create_knl sim ~id ~mem_scale:0.001 ())
      in
      let hfis =
        Array.map
          (fun node -> Hfi.create sim ~node ~fabric:fab ~carry_payload:false ())
          nodes
      in
      let ctxs = Array.map (fun h -> Hfi.ctx_id (Hfi.open_context h)) hfis in
      let complete = ref 0. in
      let pio_done = ref 0. in
      f sim hfis nodes ctxs complete pio_done;
      ignore (Sim.run sim);
      Array.iter (fun h -> ignore (Hfi.drain_completions h)) hfis;
      let host_contended =
        List.fold_left
          (fun acc s ->
            if s.Fabric.ts_tier = "host" then acc + s.Fabric.ts_contended
            else acc)
          0 (Fabric.tier_stats fab)
      in
      ( { o_end = Sim.now sim;
          o_complete = !complete;
          o_pio_done = !pio_done;
          o_packets = Fabric.packets_delivered fab;
          o_bytes = Fabric.bytes_delivered fab;
          o_busy = Pico_engine.Resource.total_busy_ns (Hfi.wire hfis.(0));
          o_wait = Pico_engine.Resource.total_wait_ns (Hfi.wire hfis.(0));
          o_served = Pico_engine.Resource.total_served (Hfi.wire hfis.(0));
          o_elided = Sim.events_elided sim },
        Hfi.train_aborts hfis.(0),
        host_contended ))

let check_ft_equiv name scenario =
  let per_packet, _, _ = run_ft_scenario ~batching:false scenario in
  let batched, aborts, contended = run_ft_scenario ~batching:true scenario in
  let exact = Alcotest.(check (float 0.)) in
  exact (name ^ ": end time") per_packet.o_end batched.o_end;
  exact (name ^ ": completion") per_packet.o_complete batched.o_complete;
  exact (name ^ ": pio done") per_packet.o_pio_done batched.o_pio_done;
  exact (name ^ ": wire busy") per_packet.o_busy batched.o_busy;
  exact (name ^ ": wire wait") per_packet.o_wait batched.o_wait;
  Alcotest.(check int)
    (name ^ ": packets") per_packet.o_packets batched.o_packets;
  Alcotest.(check int) (name ^ ": bytes") per_packet.o_bytes batched.o_bytes;
  Alcotest.(check int) (name ^ ": served") per_packet.o_served batched.o_served;
  (aborts, contended)

let ft_train_scenario lens sim hfis nodes ctxs complete _pio_done =
  let spa = Option.get (Node.alloc_frames nodes.(0) 4) in
  let reqs = Extent.of_list (List.map (fun len -> (spa, len)) lens) in
  let total = List.fold_left ( + ) 0 lens in
  Sim.spawn sim (fun () ->
      Hfi.sdma_submit hfis.(0) ~channel:0 ~dst_node:1 ~dst_ctx:ctxs.(1)
        ~hdr:(eager_hdr total) ~reqs
        ~on_complete:(fun () -> complete := Sim.now sim)
        ())

let ft_contention_scenario ~d lens sim hfis nodes ctxs complete pio_done =
  ft_train_scenario lens sim hfis nodes ctxs complete (ref 0.);
  Sim.spawn sim (fun () ->
      Hfi.pio_send hfis.(1) ~dst_node:3 ~dst_ctx:ctxs.(3)
        ~hdr:(eager_hdr 4096) ~len:4096 ());
  Sim.spawn sim (fun () ->
      Sim.delay sim d;
      Hfi.pio_send hfis.(2) ~dst_node:3 ~dst_ctx:ctxs.(3)
        ~hdr:(eager_hdr 4096) ~len:4096 ();
      pio_done := Sim.now sim)

let test_batching_fat_tree_equiv () =
  let lens = [ 8192; 8192; 4096; 8192 ] in
  let aborts, _ =
    check_ft_equiv "ft quiet train" (ft_train_scenario lens)
  in
  Alcotest.(check int) "quiet fat-tree aborts nothing" 0 aborts

let test_batching_fat_tree_contention_abort () =
  let lens = [ 8192; 8192; 4096; 8192; 8192; 8192 ] in
  let max_aborts = ref 0 and max_contended = ref 0 in
  for i = 0 to 20 do
    let d = float_of_int i *. 250. in
    let aborts, contended =
      check_ft_equiv
        (Printf.sprintf "ft contention d=%.0fns" d)
        (ft_contention_scenario ~d lens)
    in
    max_aborts := max !max_aborts aborts;
    max_contended := max !max_contended contended
  done;
  Alcotest.(check bool) "some stagger contends the host link" true
    (!max_contended > 0);
  Alcotest.(check bool) "link contention aborted the batched train" true
    (!max_aborts > 0)

(* --- Mid-train link park abort ----------------------------------------------

   A fault down window opening on a link while a batched SDMA train is
   in flight is contention the train's closed form cannot see: the
   fabric parks the packet on the link (never drops it) and fires every
   armed train-abort hook, so the batched tail rewinds into the exact
   per-packet float sequence.  Park counters are simulation results and
   must agree between the two runs. *)

let run_ft_park_scenario ~batching lens =
  Hfi.batching := batching;
  Fun.protect
    ~finally:(fun () -> Hfi.batching := true)
    (fun () ->
      Costs.with_patched
        (fun c ->
          c.Costs.fault_horizon <- 1.0e6;
          c.Costs.fault_link_down_interval <- 3.0e3;
          c.Costs.fault_link_down_duration <- 2.0e3)
        (fun () ->
          let sim = Sim.create () in
          let topo = Pico_fabric.Topology.Fat_tree { radix = 2; oversub = 1 } in
          let fab = Fabric.create ~topology:topo sim in
          let lf =
            Pico_fabric.Linkfault.draw
              ~rng:(Pico_engine.Rng.create ~seed:1L)
              ~n_nodes:4 topo
          in
          Fabric.set_link_faults fab (Some lf);
          let nodes =
            Array.init 4 (fun id -> Node.create_knl sim ~id ~mem_scale:0.001 ())
          in
          let hfis =
            Array.map
              (fun node ->
                Hfi.create sim ~node ~fabric:fab ~carry_payload:false ())
              nodes
          in
          let ctxs = Array.map (fun h -> Hfi.ctx_id (Hfi.open_context h)) hfis in
          let complete = ref 0. in
          ft_train_scenario lens sim hfis nodes ctxs complete (ref 0.);
          (* A competing flow on the other leaf keeps packets in flight
             across the train's whole span, so a window opening on the
             l1->n3 host link parks one mid-train. *)
          Sim.spawn sim (fun () ->
              for _ = 1 to 10 do
                Hfi.pio_send hfis.(2) ~dst_node:3 ~dst_ctx:ctxs.(3)
                  ~hdr:(eager_hdr 2048) ~len:2048 ();
                Sim.delay sim 500.
              done);
          ignore (Sim.run sim);
          Array.iter (fun h -> ignore (Hfi.drain_completions h)) hfis;
          let fs = Fabric.fault_stats fab in
          ( { o_end = Sim.now sim;
              o_complete = !complete;
              o_pio_done = 0.;
              o_packets = Fabric.packets_delivered fab;
              o_bytes = Fabric.bytes_delivered fab;
              o_busy = Pico_engine.Resource.total_busy_ns (Hfi.wire hfis.(0));
              o_wait = Pico_engine.Resource.total_wait_ns (Hfi.wire hfis.(0));
              o_served = Pico_engine.Resource.total_served (Hfi.wire hfis.(0));
              o_elided = Sim.events_elided sim },
            fs.Fabric.fs_parks,
            fs.Fabric.fs_park_ns,
            Hfi.train_aborts hfis.(0) )))

let test_batching_midtrain_link_park () =
  let lens = List.init 10 (fun _ -> 8192) in
  let pp, pp_parks, pp_park_ns, _ = run_ft_park_scenario ~batching:false lens in
  let b, b_parks, b_park_ns, b_aborts = run_ft_park_scenario ~batching:true lens in
  Alcotest.(check bool) "a down window parked train packets" true (pp_parks > 0);
  Alcotest.(check int) "parks are results: batched = per-packet" pp_parks
    b_parks;
  Alcotest.(check (float 0.)) "park wait is a result too" pp_park_ns b_park_ns;
  Alcotest.(check bool) "the park aborted the batched train" true (b_aborts > 0);
  let exact = Alcotest.(check (float 0.)) in
  exact "park: end time" pp.o_end b.o_end;
  exact "park: completion" pp.o_complete b.o_complete;
  exact "park: wire busy" pp.o_busy b.o_busy;
  exact "park: wire wait" pp.o_wait b.o_wait;
  Alcotest.(check int) "park: packets" pp.o_packets b.o_packets;
  Alcotest.(check int) "park: bytes" pp.o_bytes b.o_bytes;
  Alcotest.(check int) "park: served" pp.o_served b.o_served

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "nic"
    [ ("fabric",
       [ Alcotest.test_case "latency" `Quick test_fabric_latency;
         Alcotest.test_case "loopback" `Quick test_fabric_loopback_faster;
         Alcotest.test_case "unattached" `Quick test_fabric_unattached;
         Alcotest.test_case "detach" `Quick test_fabric_detach;
         Alcotest.test_case "double attach" `Quick test_fabric_double_attach;
         Alcotest.test_case "in-order delivery" `Quick
           test_fabric_in_order_delivery ]);
      ("sdma",
       [ Alcotest.test_case "oversize rejected" `Quick test_sdma_oversize_rejected;
         Alcotest.test_case "bad tx moves no counter" `Quick
           test_sdma_bad_tx_moves_nothing;
         Alcotest.test_case "empty rejected" `Quick test_sdma_empty_rejected;
         Alcotest.test_case "halt parks engine" `Quick
           test_sdma_halt_parks_engine;
         Alcotest.test_case "same channel serializes" `Quick
           test_sdma_same_channel_serializes;
         Alcotest.test_case "channels overlap" `Quick
           test_sdma_different_channels_overlap;
         Alcotest.test_case "stats" `Quick test_sdma_stats;
         Alcotest.test_case "ring backpressure" `Quick test_sdma_ring_backpressure ]);
      ("rcvarray",
       [ Alcotest.test_case "program/lookup" `Quick test_rcvarray_program_lookup;
         Alcotest.test_case "run and free" `Quick test_rcvarray_run_and_free;
         Alcotest.test_case "full" `Quick test_rcvarray_full;
         Alcotest.test_case "double unprogram" `Quick test_rcvarray_double_unprogram;
         Alcotest.test_case "bad unprogram moves nothing" `Quick
           test_rcvarray_bad_unprogram_moves_nothing;
         Alcotest.test_case "entries of run" `Quick test_rcvarray_entries_of_run;
         qc prop_rcvarray_first_fit ]);
      ("extent", [ qc prop_extent_cuts ]);
      ("user_api",
       [ Alcotest.test_case "sdma roundtrip" `Quick test_user_api_sdma_roundtrip;
         Alcotest.test_case "tid roundtrip" `Quick test_user_api_tid_roundtrip;
         Alcotest.test_case "bad input" `Quick test_user_api_bad_input;
         Alcotest.test_case "wire header" `Quick test_user_api_wire_header;
         qc prop_user_api_roundtrip ]);
      ("hfi",
       [ Alcotest.test_case "contexts" `Quick test_hfi_contexts;
         Alcotest.test_case "pio fragments" `Quick test_hfi_pio_eager_fragments;
         Alcotest.test_case "sdma expected e2e" `Quick
           test_hfi_sdma_expected_end_to_end;
         Alcotest.test_case "wire serialized" `Quick test_hfi_wire_is_serialized ]);
      ("batching",
       [ Alcotest.test_case "sdma equivalence" `Quick test_batching_sdma_equiv;
         Alcotest.test_case "mid-train sweep" `Quick test_batching_midtrain_sweep;
         Alcotest.test_case "mid-train halt sweep" `Quick
           test_batching_midtrain_halt;
         qc prop_batching_midtrain;
         qc prop_batching_midtrain_halt;
         Alcotest.test_case "fat-tree equivalence" `Quick
           test_batching_fat_tree_equiv;
         Alcotest.test_case "fat-tree contention aborts train" `Quick
           test_batching_fat_tree_contention_abort;
         Alcotest.test_case "mid-train link park aborts train" `Quick
           test_batching_midtrain_link_park ]) ]
