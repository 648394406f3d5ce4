type t = {
  sim : Sim.t;
  mutable count : int;
  pending : (unit -> unit) Queue.t;
}

let create sim n =
  if n < 0 then invalid_arg "Semaphore.create: negative count";
  { sim; count = n; pending = Queue.create () }

let acquire s =
  if s.count > 0 then s.count <- s.count - 1
  else Sim.suspend s.sim (fun resume -> Queue.add resume s.pending)

let try_acquire s =
  if s.count > 0 then begin
    s.count <- s.count - 1;
    true
  end else false

let release s =
  match Queue.take_opt s.pending with
  | Some resume -> resume ()
  | None -> s.count <- s.count + 1

let count s = s.count

let with_sem s f =
  acquire s;
  match f () with
  | v -> release s; v
  | exception e -> release s; raise e
