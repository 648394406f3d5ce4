open Psm_import

type os = {
  sim : Sim.t;
  rank : int;
  hfi : Hfi.t;
  ctx : Hfi.ctx;
  carry_payload : bool;
  writev : Vfs.iovec list -> int;
  ioctl : cmd:int -> arg:Addr.t -> int;
  mmap_anon : int -> Addr.t;
  munmap : Addr.t -> unit;
  write_user : Addr.t -> bytes -> unit;
  read_user : Addr.t -> int -> bytes;
  compute : float -> unit;
  (** Idle-wait yield (Intel-MPI-style nanosleep); profiled as a system
      call by the owning kernel. *)
  nanosleep : float -> unit;
}

exception Truncated of { src : int; tag : int64; msg_len : int; buf_len : int }

let () =
  Printexc.register_printer (function
    | Truncated { src; tag; msg_len; buf_len } ->
      Some
        (Printf.sprintf
           "Endpoint.Truncated: a %d B message from rank %d (tag %#Lx) \
            matched a %d B receive"
           msg_len src tag buf_len)
    | _ -> None)

(* --- request state machines -------------------------------------------- *)

type window = {
  w_off : int;
  w_len : int;
  w_tid_base : int;
  w_tid_count : int;
}

type send_st = {
  s_dst : int;
  s_tag : int64;
  s_va : Addr.t;
  s_len : int;
  s_msg_id : int;
  mutable s_submitted : int; (* bytes written to the device so far *)
}

type recv_st = {
  mutable r_src : int option;
  r_tag : int64;
  r_mask : int64;
  r_va : Addr.t;
  r_len : int;
  mutable r_msg_id : int;     (* -1 until matched *)
  mutable r_msg_len : int;    (* -1 until known *)
  mutable r_got_tag : int64;  (* wire tag of the matched message *)
  mutable r_done : int;       (* bytes placed/copied *)
  mutable r_next_off : int;   (* next window to register (rendezvous) *)
  mutable r_windows : window list;
  mutable r_rndv : bool;
}

type kind = Send of send_st | Recv of recv_st

type req = {
  kind : kind;
  mutable complete : bool;
  (* Latency ledger of this message ([Ledger.null] unless breakdown
     recording is on).  All marks happen in the owning rank's process at
     event-arrival instants, so attribution is deterministic. *)
  lg : Ledger.h;
}

(* Unexpected message accumulator (eager data or an RTS parked until a
   matching receive is posted). *)
type unexp = {
  u_msg_id : int;
  u_msg_len : int;
  u_rndv : bool;
  mutable u_frags : (int * int * bytes option) list; (* offset, len, data *)
  mutable u_bytes : int;
}

type t = {
  os : os;
  mutable peers : (int * int) array;
  mq : (req, unexp) Mq.t;
  (* active receives by (src_rank, msg_id): eager continuations, rndv
     placement *)
  active : (int * int, req) Hashtbl.t;
  (* outstanding sends by msg_id, waiting for CTS *)
  sends : (int, req) Hashtbl.t;
  (* unexpected accumulators by (src_rank, msg_id) *)
  accum : (int * int, unexp) Hashtbl.t;
  (* receiver-side TID registration cache (Config.tid_cache) *)
  tids : (int * int, int * int) Hashtbl.t; (* (va, len) -> (base, count) *)
  scratch : Addr.t;
  mutable next_msg_id : int;
  mutable n_eager : int;
  mutable n_rndv : int;
}

let create os =
  { os;
    peers = [||];
    mq = Mq.create ();
    active = Hashtbl.create 64;
    sends = Hashtbl.create 64;
    accum = Hashtbl.create 64;
    tids = Hashtbl.create 64;
    scratch = os.mmap_anon Addr.page_size;
    next_msg_id = 0;
    n_eager = 0;
    n_rndv = 0 }

let connect t ~peers = t.peers <- peers

let rank t = t.os.rank

let os t = t.os

let peer t r =
  if r < 0 || r >= Array.length t.peers then
    invalid_arg (Printf.sprintf "Endpoint: unknown rank %d" r);
  t.peers.(r)

let fresh_msg_id t =
  let id = t.next_msg_id in
  t.next_msg_id <- id + 1;
  id

let completed req = req.complete

let recv_info req =
  match req.kind with
  | Recv r ->
    ((match r.r_src with Some s -> s | None -> -1),
     if r.r_msg_len >= 0 then r.r_msg_len else 0)
  | Send _ -> invalid_arg "recv_info: not a receive"

let recv_tag req =
  match req.kind with
  | Recv r -> r.r_got_tag
  | Send _ -> invalid_arg "recv_tag: not a receive"

let sends_eager t = t.n_eager

let sends_rndv t = t.n_rndv

let unexpected_now t = Mq.unexpected_count t.mq

(* --- sending ------------------------------------------------------------ *)

(* Offsets inside the scratch page. *)
let scratch_hdr = 0

let scratch_arg = 256

let send_ctrl t ~dst ctrl =
  let dst_node, dst_ctx = peer t dst in
  Hfi.pio_send t.os.hfi ~dst_node ~dst_ctx ~hdr:(Wire.Ctrl ctrl)
    ~len:Proto.ctrl_bytes ()

let eager_send t st =
  t.n_eager <- t.n_eager + 1;
  let dst_node, dst_ctx = peer t st.s_dst in
  let payload =
    if t.os.carry_payload && st.s_len > 0 then
      Some (t.os.read_user st.s_va st.s_len)
    else None
  in
  let hdr =
    Wire.Eager
      { tag = st.s_tag; msg_id = st.s_msg_id; offset = 0; frag_len = st.s_len;
        msg_len = st.s_len; src_rank = t.os.rank }
  in
  Hfi.pio_send t.os.hfi ~dst_node ~dst_ctx ~hdr ~len:st.s_len ?payload ()

(* One rendezvous window granted by a CTS: build the user_sdma_request in
   the scratch page and hand it to the driver via writev. *)
let sdma_window t st ~offset ~win_len ~tid_base =
  let dst_node, dst_ctx = peer t st.s_dst in
  let kind =
    if tid_base < 0 then User_api.Sdma_eager else User_api.Sdma_expected
  in
  let req =
    { User_api.dst_node; dst_ctx; kind; tag = st.s_tag;
      msg_id = st.s_msg_id; offset; msg_len = st.s_len;
      tid_base = (if tid_base < 0 then 0 else tid_base);
      src_rank = t.os.rank }
  in
  t.os.write_user (t.scratch + scratch_hdr) (User_api.encode_sdma_req req);
  let iovs =
    [ { Vfs.iov_base = t.scratch + scratch_hdr;
        iov_len = User_api.sdma_req_bytes };
      { Vfs.iov_base = st.s_va + offset; iov_len = win_len } ]
  in
  let wrote = t.os.writev iovs in
  ignore wrote;
  st.s_submitted <- st.s_submitted + win_len

let same_node t dst =
  let dst_node, _ = peer t dst in
  dst_node = Hfi.node_id t.os.hfi

let isend t ~dst ~tag ~va ~len =
  let st =
    { s_dst = dst; s_tag = tag; s_va = va; s_len = len;
      s_msg_id = fresh_msg_id t; s_submitted = 0 }
  in
  let req =
    { kind = Send st; complete = false;
      lg = Ledger.begin_ t.os.sim ~op:"psm/send" }
  in
  (* Transport-level recovery (armed only when a fabric fault injector
     is installed): a cross-node send whose flow has no all-up route in
     the current failure epoch backs off linearly — the wait is a
     profiled nanosleep, so each OS kind pays its own syscall shape —
     and retries up to [fabric_max_retries] times.  On exhaustion the
     flow counts as degraded and the send proceeds anyway: the fabric
     parks the packets at egress until a link returns, so the message is
     late, never lost, and nothing hangs. *)
  if (not (same_node t dst)) && Hfi.path_armed t.os.hfi then begin
    let dst_node, dst_ctx = peer t dst in
    let c = Costs.current () in
    let rec ladder n =
      if not (Hfi.path_reachable t.os.hfi ~dst_node ~dst_ctx) then begin
        if n >= c.Costs.fabric_max_retries then
          Hfi.note_path_degraded t.os.hfi
        else begin
          let sp = Span.begin_ t.os.sim ~cat:"psm" ~name:"retry" in
          t.os.nanosleep (c.Costs.fabric_retry_backoff *. float_of_int (n + 1));
          Span.end_with t.os.sim sp (fun () ->
              [ ("attempt", string_of_int (n + 1)) ]);
          Hfi.note_path_retry t.os.hfi;
          Ledger.mark t.os.sim req.lg ~phase:"fabric_retry";
          ladder (n + 1)
        end
      end
    in
    ladder 0
  end;
  (* Intra-node traffic goes through PSM's shared-memory transport: plain
     copies, no NIC and no driver — which is why single-node runs are
     immune to the offloading penalty (paper Fig. 6). *)
  if len <= Config.eager_threshold || same_node t dst then begin
    eager_send t st;
    req.complete <- true;
    Ledger.close t.os.sim req.lg ~phase:"eager_send"
  end
  else begin
    t.n_rndv <- t.n_rndv + 1;
    Hashtbl.replace t.sends st.s_msg_id req;
    send_ctrl t ~dst
      (Proto.Rts
         { tag; msg_id = st.s_msg_id; msg_len = len; src_rank = t.os.rank });
    Ledger.mark t.os.sim req.lg ~phase:"rts_send"
  end;
  req

(* --- receiving ----------------------------------------------------------- *)

let memcpy_charge t len =
  if len > 0 then
    Sim.delay t.os.sim (float_of_int len /. (Costs.current ()).memcpy_bandwidth)

(* Register one window of the receive buffer and grant it to the sender. *)
let register_window t ~va ~len =
  let key = (va, len) in
  match
    if !Config.tid_cache then Hashtbl.find_opt t.tids key else None
  with
  | Some cached -> cached
  | None ->
    t.os.write_user (t.scratch + scratch_arg)
      (User_api.encode_tid_update { User_api.tu_va = va; tu_len = len });
    let ret =
      t.os.ioctl ~cmd:User_api.ioctl_tid_update ~arg:(t.scratch + scratch_arg)
    in
    let entry = if ret < 0 then (-1, 0) else (ret land 0xffff, ret lsr 16) in
    if !Config.tid_cache && fst entry >= 0 then Hashtbl.replace t.tids key entry;
    entry

let grant_window t (r : recv_st) ~src =
  let offset = r.r_next_off in
  let win_len = min Config.window_size (r.r_msg_len - offset) in
  if win_len > 0 then begin
    let tid_base, tid_count =
      register_window t ~va:(r.r_va + offset) ~len:win_len
    in
    r.r_next_off <- offset + win_len;
    r.r_windows <-
      { w_off = offset; w_len = win_len; w_tid_base = tid_base;
        w_tid_count = tid_count }
      :: r.r_windows;
    send_ctrl t ~dst:src
      (Proto.Cts
         { msg_id = r.r_msg_id; offset; win_len; tid_base;
           dst_rank = t.os.rank })
  end

let start_rendezvous t req (r : recv_st) ~src =
  r.r_rndv <- true;
  Hashtbl.replace t.active (src, r.r_msg_id) req;
  let rec go n =
    if n > 0 && r.r_next_off < r.r_msg_len then begin
      grant_window t r ~src;
      go (n - 1)
    end
  in
  go Config.pipeline_depth;
  Ledger.mark t.os.sim req.lg ~phase:"window_grant"

(* MPI_ERR_TRUNCATE under errors-are-fatal: a message longer than the
   receive it matched fails at match time, before any byte is placed or
   any TID window registered.  So a matched message always fits. *)
let check_fits (r : recv_st) ~src ~tag ~msg_len =
  if msg_len > r.r_len then
    raise (Truncated { src; tag; msg_len; buf_len = r.r_len })

(* Copy one eager fragment into the user buffer. *)
let place_fragment t (r : recv_st) ~offset ~frag_len ~payload =
  (match payload with
   | Some data when frag_len > 0 ->
     t.os.write_user (r.r_va + offset) (Bytes.sub data 0 frag_len)
   | _ -> ());
  memcpy_charge t frag_len;
  r.r_done <- r.r_done + frag_len

let maybe_complete t req (r : recv_st) =
  if r.r_msg_len >= 0 && r.r_done >= r.r_msg_len then begin
    req.complete <- true;
    Ledger.close t.os.sim req.lg ~phase:"recv_complete"
  end

(* An eager fragment (or rendezvous eager-fallback data) for an already
   matched receive.  For a rendezvous that fell back to eager windows
   (RcvArray exhaustion), arriving data is also the cue to grant the next
   window — without it a >pipeline-depth transfer would stall. *)
let continue_active t req ~src ~offset ~frag_len ~payload =
  match req.kind with
  | Recv r ->
    Ledger.mark t.os.sim req.lg ~phase:"data_wait";
    place_fragment t r ~offset ~frag_len ~payload;
    Ledger.mark t.os.sim req.lg ~phase:"copy";
    if r.r_rndv && r.r_next_off < r.r_msg_len then begin
      grant_window t r ~src;
      Ledger.mark t.os.sim req.lg ~phase:"window_grant"
    end;
    maybe_complete t req r
  | Send _ -> assert false

let adopt_unexpected t req (r : recv_st) ~src (u : unexp) =
  check_fits r ~src ~tag:r.r_got_tag ~msg_len:u.u_msg_len;
  r.r_src <- Some src;
  r.r_msg_id <- u.u_msg_id;
  r.r_msg_len <- u.u_msg_len;
  if u.u_rndv then begin
    Hashtbl.remove t.accum (src, u.u_msg_id);
    start_rendezvous t req r ~src
  end
  else begin
    List.iter
      (fun (offset, frag_len, payload) ->
        place_fragment t r ~offset ~frag_len ~payload)
      (List.rev u.u_frags);
    Ledger.mark t.os.sim req.lg ~phase:"copy";
    maybe_complete t req r;
    if req.complete then Hashtbl.remove t.accum (src, u.u_msg_id)
    else
      (* More fragments still in flight: register for continuation. *)
      Hashtbl.replace t.active (src, u.u_msg_id) req
  end

let irecv t ~src ~tag ?(mask = -1L) ~va ~len () =
  let r =
    { r_src = src; r_tag = tag; r_mask = mask; r_va = va; r_len = len;
      r_msg_id = -1; r_msg_len = -1; r_got_tag = 0L; r_done = 0;
      r_next_off = 0; r_windows = []; r_rndv = false }
  in
  let req =
    { kind = Recv r; complete = false;
      lg = Ledger.begin_ t.os.sim ~op:"psm/recv" }
  in
  (match Mq.match_unexpected t.mq ~src ~tag ~mask with
   | Some (u_src, u_tag, u) ->
     r.r_got_tag <- u_tag;
     adopt_unexpected t req r ~src:u_src u
   | None -> Mq.post t.mq ~src ~tag ~mask req);
  req

(* --- event handling ------------------------------------------------------ *)

let accum_for t ~src ~msg_id ~msg_len ~rndv =
  match Hashtbl.find_opt t.accum (src, msg_id) with
  | Some u -> u
  | None ->
    let u =
      { u_msg_id = msg_id; u_msg_len = msg_len; u_rndv = rndv; u_frags = [];
        u_bytes = 0 }
    in
    Hashtbl.add t.accum (src, msg_id) u;
    u

let handle_eager t (e : Wire.header) (payload : bytes option) =
  match e with
  | Wire.Eager { tag; msg_id; offset; frag_len; msg_len; src_rank } ->
    (match Hashtbl.find_opt t.active (src_rank, msg_id) with
     | Some req ->
       continue_active t req ~src:src_rank ~offset ~frag_len ~payload;
       if req.complete then begin
         Hashtbl.remove t.active (src_rank, msg_id);
         Hashtbl.remove t.accum (src_rank, msg_id)
       end
     | None ->
       (match Mq.match_posted t.mq ~src:src_rank ~tag with
        | Some req ->
          (match req.kind with
           | Recv r ->
             check_fits r ~src:src_rank ~tag ~msg_len;
             r.r_src <- Some src_rank;
             r.r_msg_id <- msg_id;
             r.r_msg_len <- msg_len;
             r.r_got_tag <- tag;
             Ledger.mark t.os.sim req.lg ~phase:"data_wait";
             place_fragment t r ~offset ~frag_len ~payload;
             Ledger.mark t.os.sim req.lg ~phase:"copy";
             maybe_complete t req r;
             if not req.complete then
               Hashtbl.replace t.active (src_rank, msg_id) req
           | Send _ -> assert false)
        | None ->
          (* Unexpected: buffer in library memory. *)
          let u = accum_for t ~src:src_rank ~msg_id ~msg_len ~rndv:false in
          u.u_frags <- (offset, frag_len, payload) :: u.u_frags;
          u.u_bytes <- u.u_bytes + frag_len;
          if List.length u.u_frags = 1 then
            Mq.add_unexpected t.mq ~src:src_rank ~tag u))
  | _ -> assert false

let handle_rts t (tag, msg_id, msg_len, src_rank) =
  match Mq.match_posted t.mq ~src:src_rank ~tag with
  | Some req ->
    (match req.kind with
     | Recv r ->
       check_fits r ~src:src_rank ~tag ~msg_len;
       r.r_src <- Some src_rank;
       r.r_msg_id <- msg_id;
       r.r_msg_len <- msg_len;
       r.r_got_tag <- tag;
       start_rendezvous t req r ~src:src_rank
     | Send _ -> assert false)
  | None ->
    let u = accum_for t ~src:src_rank ~msg_id ~msg_len ~rndv:true in
    Mq.add_unexpected t.mq ~src:src_rank ~tag u

let handle_cts t (msg_id, offset, win_len, tid_base) =
  match Hashtbl.find_opt t.sends msg_id with
  | None -> () (* stale CTS for a cancelled send: drop *)
  | Some req ->
    (match req.kind with
     | Send st ->
       Ledger.mark t.os.sim req.lg ~phase:"cts_wait";
       sdma_window t st ~offset ~win_len ~tid_base;
       Ledger.mark t.os.sim req.lg ~phase:"window_submit";
       if st.s_submitted >= st.s_len then begin
         req.complete <- true;
         Hashtbl.remove t.sends msg_id;
         Ledger.close t.os.sim req.lg ~phase:"window_submit"
       end
     | Recv _ -> assert false)

let free_window t (w : window) =
  (* With the cache on, registrations persist for reuse. *)
  if (not !Config.tid_cache) && w.w_tid_base >= 0 && w.w_tid_count > 0 then begin
    t.os.write_user (t.scratch + scratch_arg)
      (User_api.encode_tid_free
         { User_api.tf_tid_base = w.w_tid_base; tf_count = w.w_tid_count });
    ignore
      (t.os.ioctl ~cmd:User_api.ioctl_tid_free ~arg:(t.scratch + scratch_arg))
  end

let handle_expected t ~src_rank ~msg_id ~offset ~frag_len =
  match Hashtbl.find_opt t.active (src_rank, msg_id) with
  | None -> () (* duplicate completion *)
  | Some req ->
    (match req.kind with
     | Recv r ->
       r.r_done <- r.r_done + frag_len;
       Ledger.mark t.os.sim req.lg ~phase:"data_wait";
       (match List.find_opt (fun w -> w.w_off = offset) r.r_windows with
        | Some w ->
          r.r_windows <- List.filter (fun x -> x.w_off <> offset) r.r_windows;
          free_window t w
        | None -> ());
       (* Keep the pipeline full. *)
       if r.r_next_off < r.r_msg_len then grant_window t r ~src:src_rank;
       Ledger.mark t.os.sim req.lg ~phase:"window_grant";
       maybe_complete t req r;
       if req.complete then Hashtbl.remove t.active (src_rank, msg_id)
     | Send _ -> assert false)

let handle_event t (ev : Hfi.rx_event) =
  match ev with
  | Hfi.Rx_packet p ->
    (match p.Wire.header with
     | Wire.Eager _ as e -> handle_eager t e p.Wire.payload
     | Wire.Ctrl (Proto.Rts { tag; msg_id; msg_len; src_rank }) ->
       handle_rts t (tag, msg_id, msg_len, src_rank)
     | Wire.Ctrl (Proto.Cts { msg_id; offset; win_len; tid_base; _ }) ->
       handle_cts t (msg_id, offset, win_len, tid_base)
     | Wire.Ctrl _ -> ()
     | Wire.Expected _ ->
       (* Expected data is delivered as Rx_expected by the hardware. *)
       assert false)
  | Hfi.Rx_expected { msg_id; offset; frag_len; src_rank; _ } ->
    handle_expected t ~src_rank ~msg_id ~offset ~frag_len

let progress t =
  let events = Hfi.rx_events t.os.ctx in
  let rec drain () =
    match Mailbox.get_opt events with
    | Some ev -> handle_event t ev; drain ()
    | None -> ()
  in
  drain ()

let wait t req =
  progress t;
  let events = Hfi.rx_events t.os.ctx in
  while not req.complete do
    let ev = Mailbox.get events in
    handle_event t ev
  done

(* Block for exactly one rx event and handle it (plus anything already
   queued).  Progress-thread-style loops (one pump process per rank,
   e.g. lib/serve) use this so completions are observed at their exact
   delivery instants without racing a second blocking getter. *)
let wait_event t =
  let ev = Mailbox.get (Hfi.rx_events t.os.ctx) in
  handle_event t ev;
  progress t

let test t req =
  progress t;
  req.complete
