open Nic_import

type tx = {
  tx_id : int;
  channel : int;
  requests : Extent.t;
  total_bytes : int;
  on_complete : unit -> unit;
  (* Latency ledger of the submitting operation ([Ledger.null] unless
     breakdown recording is on): the engine process marks queue wait,
     halt dwell and service on the submitter's behalf. *)
  lg : Ledger.h;
}

type engine = {
  idx : int;
  ring : tx Mailbox.t;
  slots : Semaphore.t;
  (* Per-engine occupancy: what the paper's per-flow engine selection
     trades off (one hot flow serialises on one engine). *)
  mutable e_requests : int;
  mutable e_bytes : int;
  mutable e_busy : float;
  (* Fault injection: a halted engine stops fetching descriptors.  A tx
     already in service drains (hardware finishes the active descriptor
     train); queued txs stay in the ring and the engine process parks
     between txs until [recover].  Submitters are only affected through
     the usual slot back-pressure. *)
  mutable halted : bool;
  mutable halt_waiter : (unit -> unit) option;
  mutable halted_at : float;
  mutable e_halts : int;
  mutable e_halted_ns : float;
}

type t = {
  sim : Sim.t;
  engines : engine array;
  transmit : pa:Addr.t -> len:int -> unit;
  (* [batch tx] may process the whole request train of [tx] in one event
     (charging the exact per-request arithmetic in closed form) and return
     true; returning false falls back to the per-request path.  Installed
     by the HFI, which owns the wire-contention knowledge. *)
  mutable batch : tx -> bool;
  mutable requests_submitted : int;
  mutable bytes_submitted : int;
  mutable txs_completed : int;
  mutable in_flight : int;
  mutable max_request : int;
  mutable busy : float;
}

let engine_loop t e () =
  (* Engines run forever; simulations end when no more work is queued,
     which leaves the engine blocked in Mailbox.get — harmless. *)
  let rec loop () =
    let tx = Mailbox.get e.ring in
    (* Ledger boundaries sit on result-determined instants only: ring
       pickup, halt resume and completion are bit-identical between the
       batched and per-packet service paths and between the sharded and
       unsharded engines (the busy counters derived from them are part
       of the identity gate), so breakdown output stays byte-identical
       across engine modes. *)
    Ledger.mark t.sim tx.lg ~phase:"ring_wait";
    while e.halted do
      Sim.suspend t.sim (fun resume -> e.halt_waiter <- Some resume)
    done;
    Ledger.mark t.sim tx.lg ~phase:"fault_halt_wait";
    let started = Sim.now t.sim in
    let sp = Span.begin_ t.sim ~cat:"sdma" ~name:"tx" in
    Ledger.step t.sim ~series:"sdma/busy_engines" 1;
    if not (t.batch tx) then
      for i = 0 to Extent.count tx.requests - 1 do
        Sim.delay t.sim (Costs.current ()).sdma_request_overhead;
        t.transmit ~pa:(Extent.pa tx.requests i) ~len:(Extent.len tx.requests i)
      done;
    let took = Sim.now t.sim -. started in
    Ledger.step t.sim ~series:"sdma/busy_engines" (-1);
    Ledger.mark t.sim tx.lg ~phase:"engine_service";
    t.busy <- t.busy +. took;
    e.e_busy <- e.e_busy +. took;
    t.txs_completed <- t.txs_completed + 1;
    Ledger.step t.sim ~series:"sdma/inflight" (-1);
    t.in_flight <- t.in_flight - 1;
    Span.end_with t.sim sp (fun () ->
        [ ("tx", string_of_int tx.tx_id);
          ("engine", string_of_int e.idx);
          ("reqs", string_of_int (Extent.count tx.requests));
          ("bytes", string_of_int tx.total_bytes) ]);
    Semaphore.release e.slots;
    tx.on_complete ();
    loop ()
  in
  loop ()

let create sim ~n_engines ~ring_slots ~transmit =
  if n_engines <= 0 then invalid_arg "Sdma.create: n_engines must be > 0";
  if ring_slots <= 0 then invalid_arg "Sdma.create: ring_slots must be > 0";
  let t =
    { sim;
      engines =
        Array.init n_engines (fun idx ->
            { idx; ring = Mailbox.create sim;
              slots = Semaphore.create sim ring_slots;
              e_requests = 0; e_bytes = 0; e_busy = 0.;
              halted = false; halt_waiter = None; halted_at = 0.;
              e_halts = 0; e_halted_ns = 0. });
      transmit;
      batch = (fun _ -> false);
      requests_submitted = 0;
      bytes_submitted = 0;
      txs_completed = 0;
      in_flight = 0;
      max_request = 0;
      busy = 0. }
  in
  Array.iteri
    (fun i e -> Sim.spawn sim ~name:(Printf.sprintf "sdma-engine-%d" i)
        (engine_loop t e))
    t.engines;
  t

(* Validate every request of a tx against the hardware maximum and total
   them, in one pass: [(requests, bytes, largest request)]. *)
let scan_requests reqs =
  let max_len = (Costs.current ()).sdma_max_request in
  let a = (reqs : Extent.t :> int array) in
  let n = Extent.count reqs in
  let rec go i bytes largest =
    if i >= n then (n, bytes, largest)
    else begin
      let len = a.((2 * i) + 1) in
      if len <= 0 then invalid_arg "Sdma.submit: empty request";
      if len > max_len then
        invalid_arg
          (Printf.sprintf
             "Sdma.submit: request of %d bytes exceeds hardware max %d" len
             max_len);
      go (i + 1) (bytes + len) (Int.max largest len)
    end
  in
  go 0 0 0

let submit t tx =
  (* Every check runs before the slot wait: a bad tx raises with no
     counter moved. *)
  let n, bytes, largest = scan_requests tx.requests in
  (* Engine selection is per flow (context), like the hfi1 selector:
     one flow's descriptors are processed serially by one engine. *)
  let e = t.engines.(tx.channel mod Array.length t.engines) in
  Semaphore.acquire e.slots;
  Ledger.mark t.sim tx.lg ~phase:"slot_wait";
  Ledger.step t.sim ~series:"sdma/inflight" 1;
  t.in_flight <- t.in_flight + 1;
  t.requests_submitted <- t.requests_submitted + n;
  t.bytes_submitted <- t.bytes_submitted + bytes;
  t.max_request <- Int.max t.max_request largest;
  e.e_requests <- e.e_requests + n;
  e.e_bytes <- e.e_bytes + bytes;
  Mailbox.put e.ring tx

let set_batch t f = t.batch <- f

let halt t ~engine =
  let e = t.engines.(engine) in
  if not e.halted then begin
    e.halted <- true;
    e.halted_at <- Sim.now t.sim;
    e.e_halts <- e.e_halts + 1
  end

let recover t ~engine =
  let e = t.engines.(engine) in
  if e.halted then begin
    e.halted <- false;
    e.e_halted_ns <- e.e_halted_ns +. (Sim.now t.sim -. e.halted_at);
    match e.halt_waiter with
    | None -> ()
    | Some resume -> e.halt_waiter <- None; resume ()
  end

let engine_halted t ~engine = t.engines.(engine).halted

let halts t =
  Array.fold_left (fun acc e -> acc + e.e_halts) 0 t.engines

let halted_ns t =
  (* Content-stable left fold over the fixed engine order; closed halt
     windows only (an engine still halted at the end of a run reports the
     time accumulated by its recoveries so far). *)
  Array.fold_left (fun acc e -> acc +. e.e_halted_ns) 0. t.engines

let in_flight t = t.in_flight

let n_engines t = Array.length t.engines

let requests_submitted t = t.requests_submitted

let bytes_submitted t = t.bytes_submitted

let txs_completed t = t.txs_completed

let max_request_bytes t = t.max_request

let busy_ns t = t.busy

let engine_stats t =
  Array.map (fun e -> (e.e_requests, e.e_bytes, e.e_busy)) t.engines
