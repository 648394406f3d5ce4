(* Fabric fault schedules: per-link down windows, bandwidth-derate
   windows and corrupt-and-replay Bernoulli streams, all drawn up front
   from one seed-derived RNG (DESIGN.md section 14).

   Everything here is a pure function of (seed stream, topology,
   n_nodes, cost knobs): queries never mutate except the Bernoulli
   [corrupt] draws, which advance their per-link (fat-tree) or per-src
   (flat) stream — callers must draw them at result-determined points of
   the packet timeline so sharded and batched executions consume the
   streams in the same order. *)

open Fabric_import

type windows = {
  downs : (float * float) array;    (* disjoint, sorted [start, stop) *)
  derates : (float * float) array;  (* disjoint, sorted [start, stop) *)
}

type t = {
  topo : Topology.t;
  factor : float;                   (* remaining bandwidth in a derate *)
  corrupt_p : float;
  by_hop : (Route.hop, windows) Hashtbl.t;    (* fat-tree links *)
  by_node : windows array;                    (* flat ingress, by dst *)
  corrupt_hop : (Route.hop, Rng.t) Hashtbl.t;
  corrupt_node : Rng.t array;                 (* flat, by src *)
  epochs : float array;             (* sorted distinct down boundaries *)
}

let no_windows = { downs = [||]; derates = [||] }

(* Exponential inter-arrival gaps, fixed-length windows, next gap drawn
   from the previous window's end so windows never overlap; everything
   past the horizon is dropped. *)
let draw_windows rng ~interval ~duration ~horizon =
  if interval <= 0. || duration <= 0. || horizon <= 0. then [||]
  else begin
    let acc = ref [] in
    let t = ref 0. in
    let fin = ref false in
    while not !fin do
      let s = !t +. Rng.exponential rng ~mean:interval in
      if s >= horizon then fin := true
      else begin
        let e = s +. duration in
        acc := (s, e) :: !acc;
        t := e
      end
    done;
    Array.of_list (List.rev !acc)
  end

(* Deterministic directed-link enumeration: flat worlds get one ingress
   pseudo-link per node; fat-tree worlds get Host links by node, then Up
   links by (leaf, spine), then Down links by (spine, leaf).  Up/Down
   links only exist once a second leaf does. *)
let draw ~rng ~n_nodes topo =
  Topology.validate topo;
  if n_nodes <= 0 then invalid_arg "Linkfault.draw: n_nodes must be > 0";
  let c = Costs.current () in
  let factor = c.Costs.fault_link_derate_factor in
  if not (factor > 0. && factor <= 1.) then
    invalid_arg
      (Printf.sprintf
         "Linkfault.draw: fault_link_derate_factor %g must be in (0, 1]"
         factor);
  let horizon = c.Costs.fault_horizon in
  let windows_of lrng =
    let down_rng = Rng.split lrng in
    let derate_rng = Rng.split lrng in
    let downs =
      draw_windows down_rng ~interval:c.Costs.fault_link_down_interval
        ~duration:c.Costs.fault_link_down_duration ~horizon
    and derates =
      draw_windows derate_rng ~interval:c.Costs.fault_link_derate_interval
        ~duration:c.Costs.fault_link_derate_duration ~horizon
    in
    let w =
      if Array.length downs = 0 && Array.length derates = 0 then no_windows
      else { downs; derates }
    in
    (w, Rng.split lrng)
  in
  let by_hop = Hashtbl.create 64 in
  let corrupt_hop = Hashtbl.create 64 in
  let by_node = Array.make n_nodes no_windows in
  let corrupt_node = ref [||] in
  (match topo with
   | Topology.Flat ->
     let streams =
       Array.init n_nodes (fun node ->
           let w, crng = windows_of (Rng.split rng) in
           by_node.(node) <- w;
           crng)
     in
     corrupt_node := streams
   | Topology.Fat_tree { radix; _ } ->
     let n_leaves = ((n_nodes - 1) / radix) + 1 in
     let spines = Topology.n_spines topo in
     let add hop =
       let w, crng = windows_of (Rng.split rng) in
       if w != no_windows then Hashtbl.replace by_hop hop w;
       Hashtbl.replace corrupt_hop hop crng
     in
     for node = 0 to n_nodes - 1 do
       add { Route.tier = Route.Host;
             a = Topology.leaf_of_node topo node; b = node }
     done;
     if n_leaves >= 2 then begin
       for leaf = 0 to n_leaves - 1 do
         for spine = 0 to spines - 1 do
           add { Route.tier = Route.Up; a = leaf; b = spine }
         done
       done;
       for spine = 0 to spines - 1 do
         for leaf = 0 to n_leaves - 1 do
           add { Route.tier = Route.Down; a = spine; b = leaf }
         done
       done
     end);
  (* Routing epochs: every down-window boundary of every fat-tree link,
     sorted and distinct.  Link up/down state is constant inside one
     epoch, so route_avoiding keyed on the epoch index is pure. *)
  let bounds = ref [] in
  Hashtbl.iter
    (fun _ w ->
       Array.iter (fun (s, e) -> bounds := s :: e :: !bounds) w.downs)
    by_hop;
  let epochs =
    let a = Array.of_list (List.sort_uniq compare !bounds) in
    a
  in
  { topo; factor; corrupt_p = c.Costs.fault_link_corrupt;
    by_hop; by_node; corrupt_hop; corrupt_node = !corrupt_node; epochs }

let factor t = t.factor

(* [window_at ws ~time] is the [Some stop] of the window containing
   [time] (half-open [start, stop)), else [None]. *)
let window_at ws ~time =
  let n = Array.length ws in
  if n = 0 then None
  else begin
    (* binary search for the last window starting at or before [time] *)
    let lo = ref 0 and hi = ref (n - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let s, _ = ws.(mid) in
      if s <= time then begin found := mid; lo := mid + 1 end
      else hi := mid - 1
    done;
    if !found < 0 then None
    else
      let _, e = ws.(!found) in
      if time < e then Some e else None
  end

let hop_windows t hop =
  match Hashtbl.find_opt t.by_hop hop with
  | Some w -> w
  | None -> no_windows

let down_at t hop ~time = window_at (hop_windows t hop).downs ~time

let derate_at t hop ~time = window_at (hop_windows t hop).derates ~time

let flat_down_at t ~dst ~time = window_at t.by_node.(dst).downs ~time

let flat_derate_at t ~dst ~time = window_at t.by_node.(dst).derates ~time

let epoch_count t = Array.length t.epochs + 1

(* Number of boundaries at or before [time]: boundary i opens epoch
   i + 1, so epoch e covers [epochs.(e-1), epochs.(e)). *)
let epoch_at t ~time =
  let n = Array.length t.epochs in
  let lo = ref 0 and hi = ref (n - 1) and count = ref 0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.epochs.(mid) <= time then begin count := mid + 1; lo := mid + 1 end
    else hi := mid - 1
  done;
  !count

let epoch_start t e =
  if e <= 0 then 0. else t.epochs.(e - 1)

let down_in_epoch t ~epoch hop =
  match down_at t hop ~time:(epoch_start t epoch) with
  | Some _ -> true
  | None -> false

let corrupt_armed t = t.corrupt_p > 0.

let corrupt t hop =
  t.corrupt_p > 0.
  && (match Hashtbl.find_opt t.corrupt_hop hop with
      | Some rng -> Rng.float rng < t.corrupt_p
      | None -> false)

let flat_corrupt t ~src =
  t.corrupt_p > 0. && Rng.float t.corrupt_node.(src) < t.corrupt_p

(* Scheduled downtime per tier, clipped to [0, until]; flat ingress
   pseudo-links count under "host".  Pure fold over the drawn windows in
   deterministic link order — never reads simulation state. *)
let downtime_by_tier t ~until =
  let clip (s, e) = Float.max 0. (Float.min e until -. s) in
  let sum ws = Array.fold_left (fun acc w -> acc +. clip w) 0. ws in
  match t.topo with
  | Topology.Flat ->
    let host = Array.fold_left (fun acc w -> acc +. sum w.downs) 0. t.by_node in
    if host > 0. then [ ("host", host) ] else []
  | Topology.Fat_tree _ ->
    let tiers = [| 0.; 0.; 0. |] in
    let idx = function Route.Up -> 0 | Route.Down -> 1 | Route.Host -> 2 in
    (* deterministic accumulation order: rebuild from the enumeration
       order is unnecessary — per-tier sums of the same multiset of
       window lengths are order-sensitive in floats, so fold hops in
       sorted order *)
    let hops =
      Hashtbl.fold (fun hop w acc -> (hop, w) :: acc) t.by_hop []
      |> List.sort compare
    in
    List.iter
      (fun (hop, w) ->
         let i = idx hop.Route.tier in
         tiers.(i) <- tiers.(i) +. sum w.downs)
      hops;
    List.filter
      (fun (_, v) -> v > 0.)
      [ ("up", tiers.(0)); ("down", tiers.(1)); ("host", tiers.(2)) ]
