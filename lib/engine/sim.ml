exception Not_in_process

(* Hot-path events are resumptions of processes blocked in [delay]; those
   go through a [cell] taken from a per-simulator free list, so the
   steady-state event loop allocates no closure per event.  [Call] covers
   everything else (spawn, [at]/[after] callbacks, suspend wake-ups). *)
type event =
  | Call of (unit -> unit)
  | Resume of cell

and cell = {
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable cname : string option;
  boxed : event; (* [Resume self], allocated once per cell *)
}

(* One traced interval of simulated time (see Span for the user API).
   The simulator only stores spans; it never reads them. *)
type span = {
  sp_cat : string;
  sp_name : string;
  sp_track : string;
  sp_begin : float;
  mutable sp_end : float; (* nan until ended *)
  mutable sp_args : (string * string) list;
}

(* One phase-attributed latency ledger (see Ledger for the user API).
   Phases are contiguous [(name, seg_start, seg_end)] segments sharing
   boundary timestamps, so they partition [ld_begin, ld_end] with no
   gaps or overlaps by construction; [ld_total] is the running float sum
   of segment durations folded in record order, so re-summing the stored
   segments reproduces it bit-exactly.  The simulator only stores
   ledgers; it never reads them. *)
type ledger = {
  ld_op : string;
  ld_track : string;
  ld_begin : float;
  mutable ld_cursor : float;
  mutable ld_end : float; (* nan until closed *)
  mutable ld_phases : (string * float * float) list; (* reverse order *)
  mutable ld_total : float;
}

(* Conservative event sharding (off by default, see [shard_init]): the
   event population is partitioned into per-shard heaps with per-shard
   sequence counters, clocks and resume-cell pools.  Shards run in
   epoch-barrier rounds of [lookahead] simulated nanoseconds; an event
   scheduled into another shard is buffered on the source shard and
   merged at the next barrier in content order — sorted by
   [(key, src_shard, src_order)], which no shard execution schedule can
   perturb — so a sharded run is deterministic by construction and
   byte-identical to the same run with sharding off. *)
type shard = {
  sh_id : int;
  sh_queue : event Heap.t;
  mutable sh_seq : int;
  mutable sh_now : float;
  mutable sh_processed : int;
  mutable sh_peak : int;
  mutable sh_pool : cell array;
  mutable sh_pool_n : int;
  mutable sh_reused : int;
  (* outgoing cross-shard events of the current epoch, reverse order *)
  mutable sh_out : pending list;
  mutable sh_order : int;
}

and pending = {
  p_key : float;
  p_src : int;
  p_ord : int;
  p_dst : int;
  p_ev : event;
}

type t = {
  mutable now : float;
  queue : event Heap.t;
  mutable seq : int;
  mutable processed : int;
  mutable current : string option;
  mutable running : bool; (* a process frame is on the stack *)
  (* free list of resume cells, as a stack *)
  mutable pool : cell array;
  mutable pool_n : int;
  (* observability *)
  mutable peak_heap : int;
  mutable elided : int;
  mutable reused : int;
  (* span tracing (empty unless Span.set_on true) *)
  mutable spans : span list; (* reverse begin order *)
  mutable dropped_spans : int; (* still-open spans discarded by take_spans *)
  (* latency ledgers and timeline steps (empty unless Ledger.set_on true) *)
  mutable ledgers : ledger list; (* closed ledgers, reverse close order *)
  mutable steps : (string * float * int) list; (* series, time, +/-delta *)
  mutable label : string;
  (* sharding ([shards] empty = off, the default) *)
  mutable shards : shard array;
  mutable exec : shard option; (* shard whose event is executing *)
  mutable ambient : shard option; (* build-time binding, see [with_shard] *)
  mutable engaged : bool; (* epoch-barrier mode active *)
  mutable engage_req : bool;
  mutable lookahead : float;
  mutable epoch_end : float;
  mutable barrier_rounds : int;
  mutable epochs_elided : int;
  mutable xshard : int;
}

type _ Effect.t +=
  | Delay : t * float -> unit Effect.t
  | Until : t * float -> unit Effect.t
  | Suspend : t * ((unit -> unit) -> unit) -> unit Effect.t

let create () =
  { now = 0.; queue = Heap.create (); seq = 0; processed = 0;
    current = None; running = false; pool = [||]; pool_n = 0;
    peak_heap = 0; elided = 0; reused = 0; spans = []; dropped_spans = 0;
    ledgers = []; steps = []; label = "";
    shards = [||]; exec = None; ambient = None; engaged = false;
    engage_req = false; lookahead = 0.; epoch_end = 0.;
    barrier_rounds = 0; epochs_elided = 0; xshard = 0 }

let now t = t.now

let sharded t = Array.length t.shards > 0

let shard_init t ~shards ~lookahead =
  if sharded t then invalid_arg "Sim.shard_init: already sharded";
  if t.seq > 0 || not (Heap.is_empty t.queue) then
    invalid_arg "Sim.shard_init: events already scheduled";
  if shards <= 0 then invalid_arg "Sim.shard_init: shards must be > 0";
  if not (Float.is_finite lookahead) || lookahead <= 0. then
    invalid_arg "Sim.shard_init: lookahead must be positive";
  t.lookahead <- lookahead;
  t.shards <-
    Array.init shards (fun sh_id ->
        { sh_id; sh_queue = Heap.create (); sh_seq = 0; sh_now = 0.;
          sh_processed = 0; sh_peak = 0; sh_pool = [||]; sh_pool_n = 0;
          sh_reused = 0; sh_out = []; sh_order = 0 })

let shard_engage t = if sharded t then t.engage_req <- true

let with_shard t i f =
  if not (sharded t) then f ()
  else begin
    let saved = t.ambient in
    t.ambient <- Some t.shards.(i);
    Fun.protect ~finally:(fun () -> t.ambient <- saved) f
  end

let make_cell () =
  let rec c = { cont = None; cname = None; boxed = Resume c } in
  c

let acquire_cell t =
  match t.exec with
  | None ->
    if t.pool_n = 0 then make_cell ()
    else begin
      t.pool_n <- t.pool_n - 1;
      t.reused <- t.reused + 1;
      t.pool.(t.pool_n)
    end
  | Some sh ->
    if sh.sh_pool_n = 0 then make_cell ()
    else begin
      sh.sh_pool_n <- sh.sh_pool_n - 1;
      sh.sh_reused <- sh.sh_reused + 1;
      sh.sh_pool.(sh.sh_pool_n)
    end

let release_cell t c =
  match t.exec with
  | None ->
    let cap = Array.length t.pool in
    if t.pool_n = cap then begin
      let ncap = if cap = 0 then 32 else cap * 2 in
      let np = Array.make ncap c in
      Array.blit t.pool 0 np 0 cap;
      t.pool <- np
    end;
    t.pool.(t.pool_n) <- c;
    t.pool_n <- t.pool_n + 1
  | Some sh ->
    let cap = Array.length sh.sh_pool in
    if sh.sh_pool_n = cap then begin
      let ncap = if cap = 0 then 32 else cap * 2 in
      let np = Array.make ncap c in
      Array.blit sh.sh_pool 0 np 0 cap;
      sh.sh_pool <- np
    end;
    sh.sh_pool.(sh.sh_pool_n) <- c;
    sh.sh_pool_n <- sh.sh_pool_n + 1

(* Tail-of-instant band: an event scheduled with [~tail:true] sorts
   after every normally-scheduled event at the same instant in the same
   heap, no matter when it was pushed — even after events pushed later,
   which take fresh (sub-band) sequence numbers.  Sequence counters
   never come near the band (2^40 events per heap), and tail events
   keep push order among themselves.  Both engines thus agree that a
   tail event runs once its instant is otherwise exhausted, which is
   what makes the fabric's same-instant arrival batches (Fabric,
   [~ordered:true]) independent of the heap-insertion schedule. *)
let tail_band = 1 lsl 40

(* Push into one shard's heap, clamping to the executing clock exactly
   like the unsharded path. *)
let push_shard ?(tail = false) t sh time ev =
  let time = if time < t.now then t.now else time in
  let seq = if tail then sh.sh_seq lor tail_band else sh.sh_seq in
  Heap.push sh.sh_queue ~key:time ~seq ev;
  sh.sh_seq <- sh.sh_seq + 1;
  let d = Heap.length sh.sh_queue in
  if d > sh.sh_peak then sh.sh_peak <- d

(* Deliver [ev] to shard [sh].  In epoch mode a cross-shard event is
   buffered on the source shard for the barrier merge; the lookahead
   contract (every cross-shard latency >= [lookahead]) guarantees it
   cannot be due before the next barrier. *)
let schedule_to ?(tail = false) t sh time ev =
  match t.exec with
  | Some src when t.engaged && src != sh ->
    if tail then
      invalid_arg "Sim: tail event must target the executing shard";
    if time < t.epoch_end then
      invalid_arg
        (Printf.sprintf
           "Sim: cross-shard event at %.1f below the lookahead horizon %.1f"
           time t.epoch_end);
    src.sh_out <-
      { p_key = time; p_src = src.sh_id; p_ord = src.sh_order;
        p_dst = sh.sh_id; p_ev = ev }
      :: src.sh_out;
    src.sh_order <- src.sh_order + 1
  | _ -> push_shard ~tail t sh time ev

(* Default target for an event with no explicit shard: the executing
   shard, else the build-time ambient binding, else shard 0. *)
let default_shard t =
  match t.exec with
  | Some sh -> sh
  | None -> (match t.ambient with Some sh -> sh | None -> t.shards.(0))

let schedule_event ?(tail = false) t time ev =
  if Array.length t.shards = 0 then begin
    let time = if time < t.now then t.now else time in
    let seq = if tail then t.seq lor tail_band else t.seq in
    Heap.push t.queue ~key:time ~seq ev;
    t.seq <- t.seq + 1;
    let d = Heap.length t.queue in
    if d > t.peak_heap then t.peak_heap <- d
  end
  else schedule_to ~tail t (default_shard t) time ev

let schedule t time f = schedule_event t time (Call f)

let at t ?shard ?(tail = false) time f =
  match shard with
  | Some i when Array.length t.shards > 0 ->
    schedule_to ~tail t t.shards.(i) time (Call f)
  | _ -> schedule_event ~tail t time (Call f)

let after t dt f = schedule t (t.now +. dt) f

let in_process t = t.running

let current_name t = t.current

(* Run [f] as a process body: install the effect handler that turns Delay,
   Until and Suspend into event-queue operations. *)
let handle_process t name f =
  let open Effect.Deep in
  let some_name = Some name in
  match_with
    (fun () ->
      t.running <- true;
      t.current <- some_name;
      f ())
    ()
    {
      retc = (fun () -> t.running <- false; t.current <- None);
      exnc = (fun e -> t.running <- false; t.current <- None; raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay (t', dt) when t' == t ->
            Some
              (fun (k : (a, _) continuation) ->
                let c = acquire_cell t in
                c.cont <- Some k;
                c.cname <- some_name;
                schedule_event t (t.now +. dt) c.boxed;
                t.running <- false;
                t.current <- None)
          | Until (t', time) when t' == t ->
            Some
              (fun (k : (a, _) continuation) ->
                let c = acquire_cell t in
                c.cont <- Some k;
                c.cname <- some_name;
                schedule_event t time c.boxed;
                t.running <- false;
                t.current <- None)
          | Suspend (t', register) when t' == t ->
            Some
              (fun (k : (a, _) continuation) ->
                (* A process's continuation belongs to its home shard:
                   resume from wherever lands the wake-up event where the
                   process suspended, never where the resumer runs. *)
                let home = t.exec in
                let resumed = ref false in
                let resume () =
                  if !resumed then
                    invalid_arg "Sim.suspend: resume called twice";
                  resumed := true;
                  let wake () =
                    t.running <- true;
                    t.current <- some_name;
                    continue k ()
                  in
                  match home with
                  | None -> schedule t t.now wake
                  | Some sh -> schedule_to t sh t.now (Call wake)
                in
                register resume;
                t.running <- false;
                t.current <- None)
          | _ -> None);
    }

let spawn t ?(name = "proc") ?shard f =
  let ev = Call (fun () -> handle_process t name f) in
  if Array.length t.shards = 0 then schedule_event t t.now ev
  else
    let sh =
      match shard with Some i -> t.shards.(i) | None -> default_shard t
    in
    schedule_to t sh t.now ev

let delay t dt =
  if not t.running then raise Not_in_process;
  if not (Float.is_finite dt) || dt < 0. then
    invalid_arg "Sim.delay: negative or non-finite delay";
  Effect.perform (Delay (t, dt))

let delay_until t time =
  if not t.running then raise Not_in_process;
  if not (Float.is_finite time) then
    invalid_arg "Sim.delay_until: non-finite time";
  Effect.perform (Until (t, time))

let suspend t register =
  if not t.running then raise Not_in_process;
  Effect.perform (Suspend (t, register))

let yield t = delay t 0.

let exec_event t ev =
  match ev with
  | Call f -> f ()
  | Resume c ->
    let k = match c.cont with Some k -> k | None -> assert false in
    let nm = c.cname in
    c.cont <- None;
    c.cname <- None;
    release_cell t c;
    t.running <- true;
    t.current <- nm;
    Effect.Deep.continue k ()

let run_unsharded ?until t =
  let count = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if Heap.is_empty t.queue then continue_ := false
    else begin
      let key = Heap.top_key t.queue in
      match until with
      | Some limit when key > limit ->
        t.now <- limit;
        continue_ := false
      | _ ->
        t.now <- key;
        t.processed <- t.processed + 1;
        incr count;
        exec_event t (Heap.pop t.queue)
    end
  done;
  !count

(* Lowest-keyed shard, ties to the lowest shard id: the merged order the
   prologue executes in.  Returns [(-1, infinity)] when all drained. *)
let min_shard t =
  let best = ref (-1) and bk = ref infinity in
  Array.iter
    (fun sh ->
      if not (Heap.is_empty sh.sh_queue) then begin
        let k = Heap.top_key sh.sh_queue in
        if k < !bk then begin
          bk := k;
          best := sh.sh_id
        end
      end)
    t.shards;
  (!best, !bk)

(* Barrier: merge every shard's buffered cross-shard events in content
   order — (key, source shard, per-source order) is a total order no
   execution schedule can perturb — assigning destination sequence
   numbers in that merged order. *)
let merge_pending t =
  let pend =
    Array.fold_left
      (fun acc sh ->
        let out = sh.sh_out in
        sh.sh_out <- [];
        List.rev_append out acc)
      [] t.shards
  in
  match pend with
  | [] -> ()
  | _ ->
    let sorted =
      List.sort
        (fun a b ->
          let c = Float.compare a.p_key b.p_key in
          if c <> 0 then c
          else begin
            let c = compare a.p_src b.p_src in
            if c <> 0 then c else compare a.p_ord b.p_ord
          end)
        pend
    in
    List.iter
      (fun p ->
        let dst = t.shards.(p.p_dst) in
        Heap.push dst.sh_queue ~key:p.p_key ~seq:dst.sh_seq p.p_ev;
        dst.sh_seq <- dst.sh_seq + 1;
        let d = Heap.length dst.sh_queue in
        if d > dst.sh_peak then dst.sh_peak <- d;
        t.xshard <- t.xshard + 1)
      sorted

let run_sharded ?until t =
  let count = ref 0 in
  let continue_ = ref true in
  (* Merged prologue: one global time-ordered loop over all shard heaps.
     Zero-latency cross-shard couplings (the init syncpoint) are legal
     here; [shard_engage] switches to epoch rounds once initialisation
     has completed and only lookahead-bounded couplings remain. *)
  while !continue_ && not (t.engaged || t.engage_req) do
    let i, key = min_shard t in
    if i < 0 then continue_ := false
    else begin
      match until with
      | Some limit when key > limit ->
        t.now <- limit;
        continue_ := false
      | _ ->
        let sh = t.shards.(i) in
        t.now <- key;
        sh.sh_now <- key;
        t.processed <- t.processed + 1;
        sh.sh_processed <- sh.sh_processed + 1;
        incr count;
        t.exec <- Some sh;
        exec_event t (Heap.pop sh.sh_queue);
        t.exec <- None
    end
  done;
  if !continue_ && t.engage_req then begin
    if not t.engaged then begin
      t.engaged <- true;
      Array.iter (fun sh -> sh.sh_now <- t.now) t.shards
    end;
    let epoch_base = ref t.now in
    while !continue_ do
      let eend = !epoch_base +. t.lookahead in
      t.epoch_end <- eend;
      Array.iter
        (fun sh ->
          t.exec <- Some sh;
          t.now <- sh.sh_now;
          let go = ref true in
          while !go do
            if Heap.is_empty sh.sh_queue then go := false
            else begin
              let k = Heap.top_key sh.sh_queue in
              if
                k >= eend
                || (match until with Some u -> k > u | None -> false)
              then go := false
              else begin
                t.now <- k;
                sh.sh_now <- k;
                t.processed <- t.processed + 1;
                sh.sh_processed <- sh.sh_processed + 1;
                incr count;
                exec_event t (Heap.pop sh.sh_queue)
              end
            end
          done)
        t.shards;
      t.exec <- None;
      t.barrier_rounds <- t.barrier_rounds + 1;
      merge_pending t;
      let _, mk = min_shard t in
      match until with
      | Some limit when mk > limit ->
        t.now <- limit;
        continue_ := false
      | _ ->
        if mk = infinity then begin
          continue_ := false;
          t.now <-
            Array.fold_left (fun a sh -> Float.max a sh.sh_now) t.now t.shards
        end
        else begin
          (* Skip empty epochs: jump the next round to the first due
             event.  Partition choice only — event times are untouched. *)
          if mk > eend then
            t.epochs_elided <-
              t.epochs_elided + int_of_float ((mk -. eend) /. t.lookahead);
          epoch_base := Float.max eend mk
        end
    done
  end;
  !count

let run ?until t =
  if Array.length t.shards = 0 then run_unsharded ?until t
  else run_sharded ?until t

let events_processed t = t.processed

let note_elided t n = if n > 0 then t.elided <- t.elided + n

let events_elided t = t.elided

let peak_heap_depth t =
  Array.fold_left (fun a sh -> max a sh.sh_peak) t.peak_heap t.shards

let cells_reused t =
  Array.fold_left (fun a sh -> a + sh.sh_reused) t.reused t.shards

let shard_count t = Array.length t.shards

let shard_events t = Array.map (fun sh -> sh.sh_processed) t.shards

let barrier_rounds t = t.barrier_rounds

let epochs_elided t = t.epochs_elided

let xshard_events t = t.xshard

let set_label t l = t.label <- l

let label t = t.label

let span_begin t ~cat ~name =
  let sp =
    { sp_cat = cat; sp_name = name;
      sp_track = (match t.current with Some n -> n | None -> "<callback>");
      sp_begin = t.now; sp_end = Float.nan; sp_args = [] }
  in
  t.spans <- sp :: t.spans;
  sp

let span_end t ?(args = []) sp =
  if Float.is_nan sp.sp_end then begin
    sp.sp_end <- t.now;
    sp.sp_args <- args
  end

let take_spans t =
  let still_open, ended =
    List.partition (fun sp -> Float.is_nan sp.sp_end) t.spans
  in
  t.dropped_spans <- t.dropped_spans + List.length still_open;
  t.spans <- [];
  List.rev ended

let take_dropped_spans t =
  let n = t.dropped_spans in
  t.dropped_spans <- 0;
  n

let ledger_begin t ~op =
  { ld_op = op;
    ld_track = (match t.current with Some n -> n | None -> "<callback>");
    ld_begin = t.now; ld_cursor = t.now; ld_end = Float.nan;
    ld_phases = []; ld_total = 0. }

(* Attribute the segment [cursor, now] to [phase] and advance the cursor.
   Zero-length segments are skipped, so an unconditional mark on a path
   that may not have consumed time (e.g. an SDMA halt wait) records
   nothing unless it did.  Time within one process is monotone, so after
   a non-skipped mark the cursor always equals the current time. *)
let ledger_mark t ld ~phase =
  if Float.is_nan ld.ld_end && t.now > ld.ld_cursor then begin
    ld.ld_phases <- (phase, ld.ld_cursor, t.now) :: ld.ld_phases;
    ld.ld_total <- ld.ld_total +. (t.now -. ld.ld_cursor);
    ld.ld_cursor <- t.now
  end

let ledger_close t ld ~phase =
  if Float.is_nan ld.ld_end then begin
    ledger_mark t ld ~phase;
    ld.ld_end <- t.now;
    t.ledgers <- ld :: t.ledgers
  end

let take_ledgers t =
  let closed = t.ledgers in
  t.ledgers <- [];
  List.rev closed

let step_note t ~series delta =
  t.steps <- (series, t.now, delta) :: t.steps

let take_steps t =
  let steps = t.steps in
  t.steps <- [];
  List.rev steps

let us x = x *. 1e3

let ms x = x *. 1e6

let s x = x *. 1e9
