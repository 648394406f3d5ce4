open Serve_import

type request = {
  at : float;
  req_bytes : int;
  resp_bytes : int;
  key : int;
}

type plan = request array

let armed () =
  let c = Costs.current () in
  c.Costs.serve_horizon > 0. && c.Costs.serve_arrival_interval > 0.

(* Inverse CDF of the bounded Pareto on [lo, hi] with shape [alpha].
   The powers depend on the knobs only, so a plan takes them once; each
   draw keeps every operand of the closed form. *)
let bounded_pareto ~lo ~hi ~alpha =
  if hi <= lo then fun _ -> lo
  else begin
    let l = float_of_int lo and h = float_of_int hi in
    let la = l ** alpha and ha = h ** alpha in
    let hala = ha *. la and expo = -1. /. alpha in
    fun rng ->
      let u = Rng.float rng in
      let x = (-.(u *. ha -. u *. la -. ha) /. hala) ** expo in
      min hi (max lo (int_of_float x))
  end

(* Burst episodes: exponential gaps between windows of fixed duration.
   Returned newest-last, so sorted and disjoint by construction (each
   window starts at or after the previous one's end); [at] instants
   inside a window use the boosted arrival rate. *)
let burst_windows rng ~horizon =
  let c = Costs.current () in
  if c.Costs.serve_burst_interval <= 0. then []
  else begin
    let rec go t acc =
      let s = t +. Rng.exponential rng ~mean:c.Costs.serve_burst_interval in
      if s >= horizon then List.rev acc
      else
        let e = s +. c.Costs.serve_burst_duration in
        go e ((s, e) :: acc)
    in
    go 0. []
  end

(* The windows not over at [t].  Windows are sorted and disjoint and
   the instants asked about only grow, so one that ends at or before
   [t] holds no later instant either, and only the head can hold [t]. *)
let rec unexpired t = function
  | (_, e) :: rest when e <= t -> unexpired t rest
  | ws -> ws

let plan ~split () =
  if not (armed ()) then [||]
  else begin
    let c = Costs.current () in
    let rng = split () in
    (* Fixed-order sub-streams: toggling one knob class (e.g. bursts)
       never shifts the draws of another. *)
    let arr_rng = Rng.split rng in
    let size_rng = Rng.split rng in
    let key_rng = Rng.split rng in
    let burst_rng = Rng.split rng in
    let horizon = c.Costs.serve_horizon in
    let windows = burst_windows burst_rng ~horizon in
    let interval = c.Costs.serve_arrival_interval in
    let boosted = interval /. Float.max 1. c.Costs.serve_burst_factor in
    let req_mean = Float.max 1. (float_of_int (c.Costs.serve_req_bytes - 64)) in
    let req_cap = max 64 (min 16_384 (4 * c.Costs.serve_req_bytes)) in
    let draw_resp =
      bounded_pareto ~lo:c.Costs.serve_resp_min ~hi:c.Costs.serve_resp_max
        ~alpha:c.Costs.serve_resp_alpha
    in
    (* One pass over arrivals and windows: [ws] is a cursor that only
       moves forward. *)
    let rec go t ws acc =
      let ws = unexpired t ws in
      let mean =
        match ws with
        | (s, e) :: _ when t >= s && t < e -> boosted
        | _ -> interval
      in
      let t = t +. Rng.exponential arr_rng ~mean in
      if t >= horizon then List.rev acc
      else begin
        let req_bytes =
          min req_cap (64 + int_of_float (Rng.exponential size_rng ~mean:req_mean))
        in
        let resp_bytes = draw_resp size_rng in
        let key = Rng.int key_rng 0x3FFF_FFFF in
        go t ws ({ at = t; req_bytes; resp_bytes; key } :: acc)
      end
    in
    Array.of_list (go 0. windows [])
  end
