type t = {
  sim : Sim.t;
  name : string;
  capacity : int;
  mutable in_use : int;
  pending : (unit -> unit) Queue.t;
  mutable total_served : int;
  mutable total_wait : float;
  mutable total_busy : float;
  mutable stats_since : float;
}

let create sim ~name ~capacity =
  if capacity <= 0 then invalid_arg "Resource.create: capacity must be > 0";
  { sim; name; capacity; in_use = 0; pending = Queue.create ();
    total_served = 0; total_wait = 0.; total_busy = 0.;
    stats_since = Sim.now sim }

let capacity r = r.capacity

let in_use r = r.in_use

let queue_length r = Queue.length r.pending

let acquire r =
  let start = Sim.now r.sim in
  if r.in_use < r.capacity then r.in_use <- r.in_use + 1
  else Sim.suspend r.sim (fun resume -> Queue.add resume r.pending);
  let waited = Sim.now r.sim -. start in
  r.total_wait <- r.total_wait +. waited;
  waited

let release r =
  match Queue.take_opt r.pending with
  | Some resume ->
    (* Hand the server directly to the next waiter: in_use unchanged. *)
    resume ()
  | None -> r.in_use <- r.in_use - 1

let use r ~work f =
  let _waited = acquire r in
  let started = Sim.now r.sim in
  Sim.delay r.sim work;
  let finish () =
    r.total_busy <- r.total_busy +. (Sim.now r.sim -. started);
    r.total_served <- r.total_served + 1;
    release r
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let idle r = r.in_use = 0 && Queue.is_empty r.pending

let account r ~waited ~busy =
  r.total_wait <- r.total_wait +. waited;
  r.total_busy <- r.total_busy +. busy;
  r.total_served <- r.total_served + 1

let account_many r ~n ~starts ~ends =
  let busy = ref r.total_busy in
  for i = 0 to n - 1 do
    busy := !busy +. (ends.(i) -. starts.(i))
  done;
  r.total_busy <- !busy;
  r.total_served <- r.total_served + n

let total_served r = r.total_served

let total_wait_ns r = r.total_wait

let total_busy_ns r = r.total_busy

let mean_wait_ns r =
  if r.total_served = 0 then 0. else r.total_wait /. float_of_int r.total_served

let utilisation r =
  let elapsed = Sim.now r.sim -. r.stats_since in
  if elapsed <= 0. then 0.
  else r.total_busy /. (elapsed *. float_of_int r.capacity)

let reset_stats r =
  r.total_served <- 0;
  r.total_wait <- 0.;
  r.total_busy <- 0.;
  r.stats_since <- Sim.now r.sim
