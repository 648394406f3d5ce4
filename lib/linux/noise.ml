open Linux_import

type src = Pure | Noisy of { rng : Rng.t; interval : float; duration : float }

type t = {
  sim : Sim.t;
  src : src;
  mutable injected : float;
  (* Time left until the next noise event fires, carried across compute
     calls so short computations still accumulate their fair share. *)
  mutable to_next : float;
}

let create sim ~rng ~nohz_full =
  let c = Costs.current () in
  let factor = if nohz_full then c.nohz_full_factor else 1.0 in
  let interval = c.noise_interval in
  let duration = c.noise_duration *. factor in
  let t =
    { sim; src = Noisy { rng; interval; duration }; injected = 0.;
      to_next = 0. }
  in
  (match t.src with
   | Noisy { rng; interval; _ } -> t.to_next <- Rng.exponential rng ~mean:interval
   | Pure -> ());
  t

let pure sim = { sim; src = Pure; injected = 0.; to_next = infinity }

let compute t d =
  if d < 0. then invalid_arg "Noise.compute: negative duration";
  match t.src with
  | Pure -> Sim.delay t.sim d
  | Noisy { rng; interval; duration } ->
    let remaining = ref d in
    while !remaining > 0. do
      if t.to_next >= !remaining then begin
        t.to_next <- t.to_next -. !remaining;
        Sim.delay t.sim !remaining;
        remaining := 0.
      end
      else begin
        Sim.delay t.sim t.to_next;
        remaining := !remaining -. t.to_next;
        let hit = Rng.exponential rng ~mean:duration in
        t.injected <- t.injected +. hit;
        Sim.delay t.sim hit;
        t.to_next <- Rng.exponential rng ~mean:interval
      end
    done

let injected_ns t = t.injected

let expected_overhead t =
  match t.src with
  | Pure -> 0.
  | Noisy { interval; duration; _ } -> duration /. interval
