open H_import

type t = {
  sim : Sim.t;
  parties : int;
  mutable count : int;
  mutable waiters : (unit -> unit) list;
}

let create sim ~parties =
  if parties <= 0 then invalid_arg "Syncpoint.create: parties must be > 0";
  { sim; parties; count = 0; waiters = [] }

let release t =
  let ws = t.waiters in
  t.waiters <- [];
  List.iter (fun w -> w ()) ws

let arrive t =
  t.count <- t.count + 1;
  if t.count >= t.parties then release t
  else Sim.suspend t.sim (fun resume -> t.waiters <- resume :: t.waiters)

let arrived t = t.count
