open Nic_import

type rx_event =
  | Rx_packet of Wire.packet
  | Rx_expected of {
      tid_base : int;
      msg_id : int;
      offset : int;
      frag_len : int;
      msg_len : int;
      src_rank : int;
    }

type ctx = {
  id : int;
  events : rx_event Mailbox.t;
  rcv : Rcvarray.t;
}

(* A batched SDMA request train in progress (see the batching note below):
   the engine process sleeps until [t2.(n-1)] while the train's wire
   occupancy exists only as this precomputed schedule.  Any process that
   wants the wire mid-train calls {!maybe_abort_train}, which converts the
   not-yet-elapsed tail of the train back to per-packet processing at the
   exact boundary the per-packet path would be at. *)
type train = {
  tr_t1 : float array; (* wire acquire instant of request i *)
  tr_t2 : float array; (* wire release instant of request i *)
  mutable tr_gen : int; (* guard generation: stale wake-ups are no-ops *)
  mutable tr_resume : (unit -> unit) option;
  mutable tr_abort_i : int; (* -1 while unaborted *)
  mutable tr_abort_gap : bool;
}

type t = {
  sim : Sim.t;
  node : Node.t;
  fabric : Fabric.t;
  carry_payload : bool;
  rcv_entries : int;
  wire : Resource.t;
  sdma : Sdma.t;
  contexts : (int, ctx) Hashtbl.t;
  mutable next_ctx : int;
  mutable next_tx : int;
  completions : (unit -> unit) Queue.t;
  mutable eager_rx : int;
  mutable expected_rx : int;
  mutable pio_packets : int;
  mutable pio_bytes : int;
  mutable train : train option;
  (* Wire CRC fault hook: consulted once per packet put on the wire (and
     once per replay).  [None] in the sunny-day model; installing it also
     disables packet-train batching, since a train's closed form cannot
     know which of its packets would be corrupted. *)
  mutable crc_corrupt : (unit -> bool) option;
  mutable crc_retransmits : int;
  mutable train_aborts : int;
}

let sdma_irq_vector = 42

(* Device BARs live far above any DRAM/MCDRAM domain. *)
let bar_region_base = 0x3F00_0000_0000

let bar_region_stride = Addr.gib 1

let bar_ctx_window = Addr.mib 2

let bar_pa t = bar_region_base + (t.node.Node.id * bar_region_stride)

let wire_time len =
  float_of_int (len + (Costs.current ()).packet_overhead_bytes)
  /. (Costs.current ()).link_bandwidth

let place_expected t ctx ~tid_base ~offset ~frag_len ~payload =
  (* Walk the programmed run, skipping [offset] bytes, writing the
     fragment across entry boundaries. *)
  match payload with
  | None -> ()
  | Some data ->
    let run = Rcvarray.entries_of_run ctx.rcv ~tid_base in
    let rec go i skip written =
      if written >= frag_len then ()
      else if i >= Extent.count run then
        invalid_arg "Hfi: expected fragment overruns TID registration"
      else begin
        let len = Extent.len run i in
        if skip >= len then go (i + 1) (skip - len) written
        else begin
          let room = len - skip in
          let chunk = min room (frag_len - written) in
          Node.write_sub t.node (Extent.pa run i + skip) data ~off:written
            ~len:chunk;
          go (i + 1) 0 (written + chunk)
        end
      end
    in
    go 0 offset 0

let rx_dispatch t (p : Wire.packet) =
  match Hashtbl.find_opt t.contexts p.dst_ctx with
  | None -> () (* context closed while packet in flight: hardware drops *)
  | Some ctx ->
    (match p.header with
     | Wire.Eager _ | Wire.Ctrl _ ->
       t.eager_rx <- t.eager_rx + 1;
       Mailbox.put ctx.events (Rx_packet p)
     | Wire.Expected { tid_base; msg_id; offset; frag_len; msg_len; src_rank } ->
       t.expected_rx <- t.expected_rx + 1;
       (* [offset] is message-relative (PSM bookkeeping); the TID run was
          registered for exactly this window, so placement starts at the
          run's beginning. *)
       place_expected t ctx ~tid_base ~offset:0 ~frag_len ~payload:p.payload;
       Mailbox.put ctx.events
         (Rx_expected { tid_base; msg_id; offset; frag_len; msg_len; src_rank }))

(* --- Packet-train batching ------------------------------------------------

   When an SDMA request train is provably alone on this HFI — at most
   one open context, the wire [Resource] idle, no other SDMA transfer in
   flight and no fabric link busy — its per-request delays are
   deterministic, so the train can be charged in closed form: one event
   at the train's end, computed with the {e exact} sequence of float
   additions the per-request path performs (float [+.] is not
   associative, so no n*x shortcuts).  Per-packet wire overhead
   ([packet_overhead_bytes] in {!wire_time}) and per-request engine
   overhead are still charged for every request of the train, and the
   wire resource is held for the train's duration, so contention
   semantics and the paper's 4 kB/10 kB request-size gap are untouched;
   any wire user that arrives mid-train aborts it back onto the
   per-request path ({!maybe_abort_train}).  PIO sends are per-packet
   only: a closed-form PIO fragment train measured slower than the loop
   it shadowed (it added more processed events than it elided). *)

(* Test hook: byte-identity of batched vs per-packet execution is checked
   by running both settings (test_nic); never mutated inside a sweep. *)
let batching = ref true

let train_alone t =
  Hashtbl.length t.contexts <= 1 && Resource.idle t.wire

(* Wake the sleeping engine process of train [tr] at absolute [time] —
   unless the train has been re-targeted since ([tr_gen] mismatch), in
   which case this guard is stale and fires as a no-op. *)
let schedule_guard t (tr : train) gen time =
  Sim.at t.sim time (fun () ->
      if tr.tr_gen = gen then
        match tr.tr_resume with
        | Some r ->
          tr.tr_resume <- None;
          r ()
        | None -> ())

(* A process wants this HFI's wire while a batched SDMA train is in
   flight: convert the train's remaining tail back to per-packet
   processing, positioned exactly where the per-packet path would be at
   this instant.  Requests that already finished (strictly before now)
   are booked here, in schedule order, so the wire's accounting stream is
   the same as per-packet; the engine is re-targeted to wake at the
   current per-packet boundary — end of the in-service request (wire
   stays held until then, so the caller queues like any waiter), or end
   of the in-progress engine overhead gap (wire released now, as the
   per-packet engine would not be holding it). *)
let maybe_abort_train t =
  match t.train with
  | None -> ()
  | Some tr ->
    t.train_aborts <- t.train_aborts + 1;
    let now = Sim.now t.sim in
    let n = Array.length tr.tr_t2 in
    let rec find i =
      if i >= n then n - 1 (* at train end: the engine wake is still pending *)
      else if tr.tr_t2.(i) > now then i
      else find (i + 1)
    in
    let i = find 0 in
    let gap = now < tr.tr_t1.(i) in
    Resource.account_many t.wire ~n:i ~starts:tr.tr_t1 ~ends:tr.tr_t2;
    tr.tr_abort_i <- i;
    tr.tr_abort_gap <- gap;
    if gap then Resource.release t.wire;
    tr.tr_gen <- tr.tr_gen + 1;
    schedule_guard t tr tr.tr_gen (if gap then tr.tr_t1.(i) else tr.tr_t2.(i));
    t.train <- None

let abort_train = maybe_abort_train

(* The link-transfer protocol detects a corrupted packet's CRC and
   replays it from the send buffer: the replay pays full wire occupancy
   (and may itself be corrupted again) but no fresh engine/CPU overhead —
   the descriptor was already processed.  Runs in the sending process's
   context, after the original [Resource.use] of the packet. *)
let rec crc_replay t ~work =
  match t.crc_corrupt with
  | None -> ()
  | Some bad ->
    if bad () then begin
      t.crc_retransmits <- t.crc_retransmits + 1;
      Resource.use t.wire ~work (fun () -> ());
      crc_replay t ~work
    end

(* Engine-context hook: charge a whole SDMA request train in closed form.
   Mirrors [Sdma.engine_loop]'s per-request path — delay
   [sdma_request_overhead], then occupy the wire for [wire_time len] —
   with the exact same sequence of float additions.  The engine sleeps
   until the train's end behind a movable guard; if any process touches
   the wire mid-train, {!maybe_abort_train} rewinds the uncommitted tail
   to per-packet processing, so contention is byte-identical too.  The
   schedule is built in one pass over the request train, with the cost
   knobs read once per train, and allocates nothing per request beyond
   its two float-array slots. *)
let sdma_batch t (tx : Sdma.tx) =
  if
    not
      (!batching
       && train_alone t
       && Sdma.in_flight t.sdma = 1
       && t.train = None
       && Option.is_none t.crc_corrupt
       && Fabric.quiet t.fabric
       && Extent.count tx.Sdma.requests > 0)
  then false
  else begin
    let c = Costs.current () in
    let req_overhead = c.Costs.sdma_request_overhead in
    let pkt_overhead = c.Costs.packet_overhead_bytes in
    let bw = c.Costs.link_bandwidth in
    ignore (Resource.acquire t.wire);
    let start = Sim.now t.sim in
    let reqs = tx.Sdma.requests in
    let ext = (reqs :> int array) in
    let n = Extent.count reqs in
    let t1 = Array.create_float n in
    let t2 = Array.create_float n in
    (* The per-request path's additions in its order, with [wire_time]'s
       expression verbatim, so every instant has the same bits. *)
    for i = 0 to n - 1 do
      let a = (if i = 0 then start else t2.(i - 1)) +. req_overhead in
      t1.(i) <- a;
      t2.(i) <- a +. (float_of_int (ext.((2 * i) + 1) + pkt_overhead) /. bw)
    done;
    let tr =
      { tr_t1 = t1; tr_t2 = t2; tr_gen = 0;
        tr_resume = None; tr_abort_i = -1; tr_abort_gap = false }
    in
    t.train <- Some tr;
    Sim.suspend t.sim (fun resume ->
        tr.tr_resume <- Some resume;
        schedule_guard t tr 0 t2.(n - 1));
    (match tr.tr_abort_i with
     | -1 ->
       (* Committed untouched: book every request, in order, and hand the
          wire back at the exact instant the last request would end. *)
       Resource.account_many t.wire ~n ~starts:t1 ~ends:t2;
       t.train <- None;
       Resource.release t.wire;
       Sim.note_elided t.sim ((2 * n) - 2)
     | i ->
       (* Aborted: [t.train] was already cleared; we woke at the exact
          per-packet boundary and continue with the real per-packet code
          (wire contention with the aborter included). *)
       let per_packet j =
         Resource.use t.wire ~work:(wire_time (Extent.len reqs j)) (fun () -> ())
       in
       let rest first =
         for j = first to n - 1 do
           Sim.delay t.sim (Costs.current ()).Costs.sdma_request_overhead;
           per_packet j
         done
       in
       if tr.tr_abort_gap then begin
         (* Woke at t1.(i): request [i]'s engine overhead has elapsed and
            the wire was released at abort time; send it per-packet. *)
         per_packet i;
         rest (i + 1);
         Sim.note_elided t.sim ((2 * i) - 2)
       end
       else begin
         (* Woke at t2.(i): request [i] just left the wire; book it and
            hand the wire to whoever queued during it. *)
         Resource.account t.wire ~waited:0. ~busy:(t2.(i) -. t1.(i));
         Resource.release t.wire;
         rest (i + 1);
         Sim.note_elided t.sim ((2 * i) - 1)
       end);
    true
  end

let create sim ~node ~fabric ?(carry_payload = false)
    ?(rcv_entries = 2048) () =
  let wire =
    Resource.create sim
      ~name:(Printf.sprintf "hfi%d-wire" node.Node.id)
      ~capacity:1
  in
  (* [transmit] is handed to [Sdma.create] before [t] exists; the forward
     reference lets per-packet engines abort a sibling engine's batched
     train before contending for the wire. *)
  let tref = ref None in
  let transmit ~pa:_ ~len =
    (match !tref with Some t -> maybe_abort_train t | None -> ());
    Resource.use wire ~work:(wire_time len) (fun () -> ());
    match !tref with
    | Some t -> crc_replay t ~work:(wire_time len)
    | None -> ()
  in
  let t =
    { sim; node; fabric; carry_payload; rcv_entries; wire;
      sdma =
        Sdma.create sim ~n_engines:(Costs.current ()).sdma_engines ~ring_slots:64
          ~transmit;
      contexts = Hashtbl.create 64;
      next_ctx = 0;
      next_tx = 0;
      completions = Queue.create ();
      eager_rx = 0;
      expected_rx = 0;
      pio_packets = 0;
      pio_bytes = 0;
      train = None;
      crc_corrupt = None;
      crc_retransmits = 0;
      train_aborts = 0 }
  in
  tref := Some t;
  Fabric.attach fabric ~node_id:node.Node.id ~rx:(rx_dispatch t);
  (* Mid-flight link contention (fat-tree topologies only) must rewind
     any batched train to per-packet processing, per the batching
     invariant; the hook never fires under the flat topology. *)
  Fabric.set_train_abort fabric ~node_id:node.Node.id
    ~abort:(fun () -> maybe_abort_train t);
  Sdma.set_batch t.sdma (sdma_batch t);
  t

let node_id t = t.node.Node.id

(* Fabric fault-domain passthroughs for the transport layers (lib/psm
   depends on this facade, not on Fabric directly). *)
let path_armed t = Fabric.faults_armed t.fabric

let path_reachable t ~dst_node ~dst_ctx =
  Fabric.path_reachable t.fabric ~src:(node_id t) ~dst:dst_node ~dst_ctx

let note_path_retry t = Fabric.note_retry t.fabric

let note_path_degraded t = Fabric.note_degraded t.fabric

let fabric_fault_stats t = Fabric.fault_stats t.fabric

let open_context t =
  let id = t.next_ctx in
  t.next_ctx <- id + 1;
  let ctx =
    { id; events = Mailbox.create t.sim;
      rcv = Rcvarray.create t.sim ~n_entries:t.rcv_entries }
  in
  Hashtbl.add t.contexts id ctx;
  ctx

let close_context t ctx = Hashtbl.remove t.contexts ctx.id

let ctx_id ctx = ctx.id

let context t id = Hashtbl.find_opt t.contexts id

let rx_events ctx = ctx.events

let rcvarray ctx = ctx.rcv

let rewrite_eager_hdr hdr ~offset ~frag_len =
  match hdr with
  | Wire.Eager e -> Wire.Eager { e with offset = e.offset + offset; frag_len }
  | Wire.Expected e ->
    Wire.Expected { e with offset = e.offset + offset; frag_len }
  | Wire.Ctrl _ as c -> c

let slice_payload payload ~offset ~len =
  match payload with
  | None -> None
  | Some b -> Some (Bytes.sub b offset len)

let pio_send t ~dst_node ~dst_ctx ~hdr ~len ?payload () =
  let c = Costs.current () in
  let sp = Span.begin_ t.sim ~cat:"pio" ~name:"pio_send" in
  (* Single-phase ledger: one [send] segment from the call to the last
     fragment's egress, whatever the fragment count, so the breakdown's
     pio/send keys do not depend on the message size. *)
  let lg = Ledger.begin_ t.sim ~op:"pio/send" in
  (* Loopback (shared-memory-style) traffic never touches the link. *)
  let use_wire work =
    if dst_node <> node_id t then begin
      maybe_abort_train t;
      Resource.use t.wire ~work (fun () -> ());
      crc_replay t ~work
    end
  in
  if len = 0 then begin
    (* Zero-byte message: a single header-only packet. *)
    Sim.delay t.sim c.pio_packet_overhead;
    use_wire (wire_time 0);
    t.pio_packets <- t.pio_packets + 1;
    Fabric.send t.fabric
      { src_node = node_id t; dst_node; dst_ctx; wire_len = Wire.header_bytes;
        header = hdr; payload = None }
  end
  else begin
    let rec go offset =
      if offset < len then begin
        let frag = min c.pio_packet_size (len - offset) in
        (* CPU stores the payload into the device send buffer. *)
        Sim.delay t.sim
          (c.pio_packet_overhead
           +. (float_of_int frag /. c.pio_cpu_bandwidth));
        use_wire (wire_time frag);
        t.pio_packets <- t.pio_packets + 1;
        t.pio_bytes <- t.pio_bytes + frag;
        let payload =
          if t.carry_payload then slice_payload payload ~offset ~len:frag
          else None
        in
        Fabric.send t.fabric
          { src_node = node_id t; dst_node; dst_ctx;
            wire_len = frag + Wire.header_bytes;
            header = rewrite_eager_hdr hdr ~offset ~frag_len:frag;
            payload };
        go (offset + frag)
      end
    in
    go 0
  end;
  Span.end_with t.sim sp (fun () ->
      [ ("dst", string_of_int dst_node); ("len", string_of_int len) ]);
  Ledger.close t.sim lg ~phase:"send"

let read_requests t reqs ~total =
  let buf = Bytes.create total in
  let off = ref 0 in
  for i = 0 to Extent.count reqs - 1 do
    let len = Extent.len reqs i in
    Node.read_into t.node (Extent.pa reqs i) buf ~off:!off ~len;
    off := !off + len
  done;
  buf

let sdma_submit t ~channel ~dst_node ~dst_ctx ~hdr ~reqs ~on_complete () =
  let total = Extent.bytes reqs in
  let tx_id = t.next_tx in
  t.next_tx <- tx_id + 1;
  let payload =
    if t.carry_payload then Some (read_requests t reqs ~total) else None
  in
  let lg = Ledger.begin_ t.sim ~op:"sdma/tx" in
  let finish () =
    (* DMA done: packet leaves for the destination, and the completion
       IRQ fires on this node. *)
    Fabric.send t.fabric
      { src_node = node_id t; dst_node; dst_ctx;
        wire_len = total + Wire.header_bytes; header = hdr; payload };
    Queue.add on_complete t.completions;
    Irq.raise_irq t.node.Node.irq ~vector:sdma_irq_vector;
    Ledger.close t.sim lg ~phase:"completion"
  in
  Sdma.submit t.sdma
    { tx_id; channel; requests = reqs; total_bytes = total;
      on_complete = finish; lg }

let sdma t = t.sdma

let set_crc_fault t f = t.crc_corrupt <- f

let crc_retransmits t = t.crc_retransmits

let train_aborts t = t.train_aborts

let wire t = t.wire

let eager_packets_rx t = t.eager_rx

let expected_msgs_rx t = t.expected_rx

let pio_packets t = t.pio_packets

let pio_bytes t = t.pio_bytes

(* The completion queue is drained by the driver's IRQ handler. *)
let drain_completions t =
  let rec go acc =
    match Queue.take_opt t.completions with
    | Some cb -> go (cb :: acc)
    | None -> List.rev acc
  in
  go []
