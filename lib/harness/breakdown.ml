open H_import

(* Request-level latency attribution behind [picobench --breakdown] /
   [PICO_BREAKDOWN_JSON].  While {!Pico_engine.Ledger.on} is set, every
   finished simulation's closed ledgers and timeline steps are gathered
   here ({!note_sim}, called from {!Engine_obs.note_sim}) and folded per
   figure by {!flush} into a metric registry of its own, written as a
   separate JSON file.

   Determinism: simulations finish on pool worker domains in
   nondeterministic order, and a sharded run closes the same ledgers in
   a different host order than the unsharded run — so {e nothing} here
   may fold floats in arrival or close order.  Every fold happens at
   flush time over ledgers sorted by a canonical content key (and over
   duration arrays sorted ascending), making the emitted file a pure
   function of the simulated results: byte-identical at any [-j], across
   re-runs, and between shard-on and shard-off runs. *)

let mutex = Mutex.create ()

type snap = {
  sn_label : string;
  sn_horizon : float; (* Sim.now at drain: the world's end time *)
  sn_ledgers : Sim.ledger list;
  sn_steps : (string * float * int) list;
}

let acc : snap list ref = ref []

let note_sim sim =
  if Ledger.on () then begin
    let ledgers = Ledger.drain sim in
    let steps = Ledger.drain_steps sim in
    if ledgers <> [] || steps <> [] then begin
      let label = match Sim.label sim with "" -> "sim" | l -> l in
      let sn =
        { sn_label = label; sn_horizon = Sim.now sim;
          sn_ledgers = ledgers; sn_steps = steps }
      in
      Mutex.lock mutex;
      acc := sn :: !acc;
      Mutex.unlock mutex
    end
  end

let take () =
  Mutex.lock mutex;
  let snaps = !acc in
  acc := [];
  Mutex.unlock mutex;
  snaps

(* Canonical content key of one tagged ledger: every field, floats via
   %h (exact).  Two identical ledgers compare equal — harmless, their
   contributions are identical too. *)
let ledger_key label (ld : Sim.ledger) =
  let b = Buffer.create 128 in
  Printf.bprintf b "%s|%s|%s|%h|%h|%h" label ld.Sim.ld_op ld.Sim.ld_track
    ld.Sim.ld_begin ld.Sim.ld_end ld.Sim.ld_total;
  List.iter
    (fun (p, s, e) -> Printf.bprintf b "|%s,%h,%h" p s e)
    (List.rev ld.Sim.ld_phases);
  Buffer.contents b

let step_key (label, series, time, delta) =
  Printf.sprintf "%s|%s|%h|%d" series label time delta

(* The raw window, serialized in canonical order — the shard-identity
   tests compare this across shard-on/off runs. *)
let fingerprint_of snaps =
  let ledgers =
    List.concat_map
      (fun sn -> List.map (ledger_key sn.sn_label) sn.sn_ledgers)
      snaps
  and steps =
    List.concat_map
      (fun sn ->
        List.map (fun (s, t, d) -> step_key (sn.sn_label, s, t, d))
        sn.sn_steps)
      snaps
  and horizons =
    List.map (fun sn -> Printf.sprintf "%s|%h" sn.sn_label sn.sn_horizon)
      snaps
  in
  let b = Buffer.create 4096 in
  List.iter (fun k -> Buffer.add_string b k; Buffer.add_char b '\n')
    (List.sort compare ledgers);
  Buffer.add_string b "--steps--\n";
  List.iter (fun k -> Buffer.add_string b k; Buffer.add_char b '\n')
    (List.sort compare steps);
  Buffer.add_string b "--worlds--\n";
  List.iter (fun k -> Buffer.add_string b k; Buffer.add_char b '\n')
    (List.sort compare horizons);
  Digest.to_hex (Digest.string (Buffer.contents b))

let take_fingerprint () = fingerprint_of (take ())

let take_ledgers () =
  List.concat_map
    (fun sn -> List.map (fun ld -> (sn.sn_label, ld)) sn.sn_ledgers)
    (take ())
  |> List.sort (fun (l1, a) (l2, b) ->
         compare (ledger_key l1 a) (ledger_key l2 b))

let size () =
  Mutex.lock mutex;
  let n =
    List.fold_left (fun n sn -> n + List.length sn.sn_ledgers) 0 !acc
  in
  Mutex.unlock mutex;
  n

(* --- the breakdown metric registry (mirrors Report, separate file) --- *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 256

let record ~figure ~metric v =
  Mutex.lock mutex;
  Hashtbl.replace metrics (figure ^ "/" ^ metric) v;
  Mutex.unlock mutex

let clear () =
  Mutex.lock mutex;
  Hashtbl.reset metrics;
  acc := [];
  Mutex.unlock mutex

let dump () =
  Mutex.lock mutex;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) metrics [] in
  Mutex.unlock mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) l

(* No wall-clock, no jobs count, no host identity: the file is a pure
   function of the simulated worlds, so check.sh byte-diffs it unmasked. *)
let to_json () = Report.render_json ~schema:"picodriver-breakdown-v1" (dump ())

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ()))

(* --- flush: fold one figure's window into the registry --------------- *)

(* Exact nearest-rank sample quantile over an ascending array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let target =
      int_of_float (Float.max 1. (Float.round (q *. float_of_int n)))
    in
    sorted.(min n target - 1)
  end

(* Group values under string keys, preserving insertion order of both
   keys and values (callers insert in canonically sorted order). *)
let group () =
  let tbl : (string, float list ref) Hashtbl.t = Hashtbl.create 64 in
  let order : string list ref = ref [] in
  let add k v =
    match Hashtbl.find_opt tbl k with
    | Some r -> r := v :: !r
    | None ->
      Hashtbl.replace tbl k (ref [ v ]);
      order := k :: !order
  in
  let iter f =
    List.iter (fun k -> f k (List.rev !(Hashtbl.find tbl k)))
      (List.rev !order)
  in
  (add, iter)

let phases_of (ld : Sim.ledger) = List.rev ld.Sim.ld_phases

let sanitize_label l = String.map (fun c -> if c = '/' then ':' else c) l

let timeline_buckets = 16

let flush ~figure =
  let snaps = take () in
  if snaps <> [] then begin
    let rec_ metric v = record ~figure ~metric v in
    (* Canonically sorted ledger population: every fold below walks this
       order (or a sorted-duration refinement of it), never close or
       arrival order. *)
    let tagged =
      List.concat_map
        (fun sn -> List.map (fun ld -> (sn.sn_label, ld)) sn.sn_ledgers)
        snaps
      |> List.sort (fun (l1, a) (l2, b) ->
             compare (ledger_key l1 a) (ledger_key l2 b))
    in
    (* (a) per-phase latency distributions, pooled across OS configs:
       lat/<op>/<phase>/{count,total_ns,mean_ns,p50_ns,p99_ns,p999_ns},
       plus the reserved pseudo-phase end_to_end for whole-op latency. *)
    let add, iter_groups = group () in
    List.iter
      (fun (_, ld) ->
        add (ld.Sim.ld_op ^ "/end_to_end") ld.Sim.ld_total;
        List.iter (fun (p, s, e) -> add (ld.Sim.ld_op ^ "/" ^ p) (e -. s))
          (phases_of ld))
      tagged;
    iter_groups (fun key durs ->
        let a = Array.of_list durs in
        Array.sort Float.compare a;
        let n = Array.length a in
        let total = Array.fold_left ( +. ) 0. a in
        let p = "lat/" ^ key ^ "/" in
        rec_ (p ^ "count") (float_of_int n);
        rec_ (p ^ "total_ns") total;
        rec_ (p ^ "mean_ns") (if n = 0 then 0. else total /. float_of_int n);
        rec_ (p ^ "p50_ns") (quantile a 0.5);
        rec_ (p ^ "p99_ns") (quantile a 0.99);
        rec_ (p ^ "p999_ns") (quantile a 0.999));
    (* (b) critical path per OS config and op: each phase's share of the
       op's total simulated latency, over all requests and over the tail
       (requests whose end-to-end latency is >= the op's p99).  The
       dominant phase of each column is the critical path — comparing
       the two columns shows when the tail is dominated by a different
       phase (queueing, faults) than the median. *)
    List.sort_uniq compare (List.map (fun (l, ld) -> (l, ld.Sim.ld_op)) tagged)
    |> List.iter (fun (label, op) ->
           let ours =
             List.filter_map
               (fun (l, ld) ->
                 if l = label && ld.Sim.ld_op = op then Some ld else None)
               tagged
           in
           let totals =
             Array.of_list (List.map (fun ld -> ld.Sim.ld_total) ours)
           in
           Array.sort Float.compare totals;
           let thresh = quantile totals 0.99 in
           let grand = Array.fold_left ( +. ) 0. totals in
           let tail_grand =
             Array.fold_left
               (fun s t -> if t >= thresh then s +. t else s)
               0. totals
           in
           let addp, iter_phases = group () in
           List.iter
             (fun ld ->
               List.iter
                 (fun (ph, s, e) ->
                   addp ph (e -. s);
                   if ld.Sim.ld_total >= thresh then
                     addp (ph ^ "\x00tail") (e -. s))
                 (phases_of ld))
             ours;
           let share part whole =
             let v = if whole > 0. then part /. whole else 0. in
             if Float.is_finite v then v else 0.
           in
           let pre =
             Printf.sprintf "critpath/%s/%s/" (sanitize_label label) op
           in
           iter_phases (fun ph durs ->
               let sum = List.fold_left ( +. ) 0. durs in
               match String.index_opt ph '\x00' with
               | Some i ->
                 rec_
                   (pre ^ String.sub ph 0 i ^ "/tail_share")
                   (share sum tail_grand)
               | None -> rec_ (pre ^ ph ^ "/share") (share sum grand)))
    |> ignore;
    (* (c) time-bucketed timelines: step series (instrumented instants
       are result-determined, see Ledger) with every world's steps
       merged by simulated time over [0, H], where H is the longest
       world's end time; each bucket reports the time-weighted mean
       level summed over worlds, plus the overall mean and the peak
       level.  Times compare as floats: their %h keys do not sort by
       value. *)
    let horizon =
      List.fold_left (fun h sn -> Float.max h sn.sn_horizon) 0. snaps
    in
    let steps =
      List.concat_map
        (fun sn ->
          List.map (fun (s, t, d) -> (sn.sn_label, s, t, d)) sn.sn_steps)
        snaps
      |> List.sort (fun (l1, s1, t1, d1) (l2, s2, t2, d2) ->
             match String.compare s1 s2 with
             | 0 -> (
               match Float.compare t1 t2 with
               | 0 -> compare (l1, d1) (l2, d2)
               | c -> c)
             | c -> c)
    in
    if steps <> [] && horizon > 0. then begin
      let width = horizon /. float_of_int timeline_buckets in
      let series = List.sort_uniq compare (List.map (fun (_, s, _, _) -> s) steps) in
      List.iter
        (fun name ->
          let integral = Array.make timeline_buckets 0. in
          let level = ref 0 and t_prev = ref 0. and peak = ref 0 in
          let settle upto =
            (* charge [level] over [t_prev, upto) into the buckets *)
            let t0 = !t_prev and t1 = Float.min upto horizon in
            if t1 > t0 && !level <> 0 then begin
              let l = float_of_int !level in
              let b0 = int_of_float (t0 /. width)
              and b1 = int_of_float (t1 /. width) in
              for i = max 0 b0 to min (timeline_buckets - 1) b1 do
                let s0 = Float.max t0 (float_of_int i *. width)
                and s1 = Float.min t1 (float_of_int (i + 1) *. width) in
                if s1 > s0 then integral.(i) <- integral.(i) +. (l *. (s1 -. s0))
              done
            end;
            if upto > !t_prev then t_prev := upto
          in
          List.iter
            (fun (_, s, t, d) ->
              if s = name then begin
                if t > !t_prev then begin
                  (* a new instant: every delta of the previous one has
                     been applied, so its level is the one that held *)
                  if !level > !peak then peak := !level;
                  settle t
                end;
                level := !level + d
              end)
            steps;
          if !level > !peak then peak := !level;
          settle horizon;
          let p = "timeline/" ^ name ^ "/" in
          let total = Array.fold_left ( +. ) 0. integral in
          rec_ (p ^ "mean") (total /. horizon);
          rec_ (p ^ "peak") (float_of_int !peak);
          Array.iteri
            (fun i v ->
              rec_ (Printf.sprintf "%sbucket%02d" p i) (v /. width))
            integral)
        series
    end
  end
