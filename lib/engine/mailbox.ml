type 'a t = {
  sim : Sim.t;
  items : 'a Queue.t;
  pending : ('a -> unit) Queue.t;
}

let create sim = { sim; items = Queue.create (); pending = Queue.create () }

let put mb v =
  match Queue.take_opt mb.pending with
  | Some deliver -> deliver v
  | None -> Queue.add v mb.items

let get mb =
  match Queue.take_opt mb.items with
  | Some v -> v
  | None ->
    let slot = ref None in
    Sim.suspend mb.sim (fun resume ->
        Queue.add (fun v -> slot := Some v; resume ()) mb.pending);
    (match !slot with
     | Some v -> v
     | None -> assert false)

let get_opt mb = Queue.take_opt mb.items

let length mb = Queue.length mb.items
