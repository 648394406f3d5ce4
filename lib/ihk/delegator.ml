open Ihk_import

(* Per-syscall-name round-trip latency, LWK perspective: request IKC
   message to response IKC message, queueing included.  This is the
   offload half of the paper's Figure 8/9 argument, so it is always on
   (the registry update is host work, never simulated time). *)
type stat = {
  latency : Stats.Summary.t;
  hist : Stats.Histogram.t;
}

exception Offload_timeout of { syscall : string; attempts : int }

type t = {
  sim : Sim.t;
  lkernel : Lkernel.t;
  mutable proxies : int;
  mutable calls : int;
  mutable queueing : float;
  stats : (string, stat) Hashtbl.t;
  (* IKC drop fault hook: consulted once per request message sent.  [None]
     in the sunny-day model, where the offload path is the legacy
     straight-line sequence with no timeout machinery at all. *)
  mutable drop : (unit -> bool) option;
  mutable drops : int;
  mutable retries : int;
}

let create sim ~linux =
  { sim; lkernel = linux; proxies = 0; calls = 0; queueing = 0.;
    stats = Hashtbl.create 8;
    drop = None; drops = 0; retries = 0 }

(* With many more proxy processes than Linux service CPUs, every offload
   pays scheduler wake-up and context-switch costs on the oversubscribed
   cores — the "high contention on a few Linux CPUs" of Section 4.3. *)
let dispatch_cost t =
  let c = Costs.current () in
  let capacity = Resource.capacity t.lkernel.Lkernel.service_cpus in
  let ratio = float_of_int t.proxies /. float_of_int capacity in
  if ratio <= 1.0 then c.proxy_dispatch
  else c.proxy_dispatch +. (c.proxy_oversub_penalty *. (ratio -. 1.0))

let linux t = t.lkernel

let make_proxy t ~lwk_pt =
  t.proxies <- t.proxies + 1;
  let pid = Lkernel.next_pid t.lkernel in
  let proxy = Uproc.create ~node:t.lkernel.Lkernel.node ~pid in
  (* The proxy provides the LWK process's user mappings to Linux: share
     the page table rather than copying it. *)
  { proxy with Uproc.pt = lwk_pt }

let stat_of t name =
  match Hashtbl.find_opt t.stats name with
  | Some s -> s
  | None ->
    let s = { latency = Stats.Summary.create ();
              hist = Stats.Histogram.create () } in
    Hashtbl.add t.stats name s;
    s

let note_round_trip t name dt =
  let s = stat_of t name in
  Stats.Summary.add s.latency dt;
  Stats.Histogram.add s.hist dt

let offload t ~name f =
  t.calls <- t.calls + 1;
  let started = Sim.now t.sim in
  let sp = Span.begin_ t.sim ~cat:"offload" ~name in
  let lg = Ledger.begin_prefixed t.sim ~prefix:"offload/" ~name in
  let c = Costs.current () in
  (* Everything after the request message arrives on the Linux side. *)
  let serve () =
    (* Wait for a Linux CPU; the delegator thread and proxy run there. *)
    Ledger.step t.sim ~series:"offload/queue_depth" 1;
    let waited = Resource.acquire t.lkernel.Lkernel.service_cpus in
    Ledger.step t.sim ~series:"offload/queue_depth" (-1);
    Ledger.mark t.sim lg ~phase:"linux_queue";
    t.queueing <- t.queueing +. waited;
    let finish () = Resource.release t.lkernel.Lkernel.service_cpus in
    match
      (* Wake the proxy, enter the Linux syscall path, run the call while
         holding the CPU. *)
      Sim.delay t.sim (dispatch_cost t +. c.linux_syscall);
      Ledger.mark t.sim lg ~phase:"linux_dispatch";
      f ()
    with
    | v ->
      finish ();
      Ledger.mark t.sim lg ~phase:"linux_service";
      (* Response message back to the LWK. *)
      Sim.delay t.sim c.ikc_message;
      note_round_trip t name (Sim.now t.sim -. started);
      Span.end_with t.sim sp (fun () ->
          [ ("queued_ns", Printf.sprintf "%.0f" waited) ]);
      Ledger.close t.sim lg ~phase:"ikc_response";
      v
    | exception e ->
      finish ();
      note_round_trip t name (Sim.now t.sim -. started);
      Span.end_ t.sim sp;
      Ledger.close t.sim lg ~phase:"linux_service";
      raise e
  in
  match t.drop with
  | None ->
    (* Request message to Linux. *)
    Sim.delay t.sim c.ikc_message;
    Ledger.mark t.sim lg ~phase:"ikc_request";
    serve ()
  | Some dropped ->
    (* Robust variant: each request message may be lost.  The requester
       waits out the round-trip timeout, backs off deterministically
       (linearly in the attempt number) and resends; [f] never ran for a
       dropped attempt, so resending cannot double-execute the call. *)
    let rec attempt n =
      Sim.delay t.sim c.ikc_message;
      if not (dropped ()) then begin
        Ledger.mark t.sim lg ~phase:"ikc_request";
        serve ()
      end
      else begin
        t.drops <- t.drops + 1;
        Ledger.mark t.sim lg ~phase:"ikc_request";
        let dsp = Span.begin_ t.sim ~cat:"fault" ~name:"ikc_drop" in
        Sim.delay t.sim c.ikc_timeout;
        Span.end_with t.sim dsp (fun () ->
            [ ("syscall", name); ("attempt", string_of_int (n + 1)) ]);
        Ledger.mark t.sim lg ~phase:"fault_drop_timeout";
        if n + 1 >= c.ikc_max_retries then begin
          note_round_trip t name (Sim.now t.sim -. started);
          Span.end_ t.sim sp;
          Ledger.close t.sim lg ~phase:"fault_drop_timeout";
          raise (Offload_timeout { syscall = name; attempts = n + 1 })
        end;
        t.retries <- t.retries + 1;
        Sim.delay t.sim (c.ikc_retry_backoff *. float_of_int (n + 1));
        Ledger.mark t.sim lg ~phase:"fault_retry_backoff";
        attempt (n + 1)
      end
    in
    attempt 0

let set_fault_drop t hook = t.drop <- hook

let ikc_drops t = t.drops

let ikc_retries t = t.retries

let offloaded_calls t = t.calls

let offload_stats t =
  Hashtbl.fold (fun k s acc -> (k, s.latency, s.hist) :: acc) t.stats []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let queueing_ns t = t.queueing

let proxy_count t = t.proxies
