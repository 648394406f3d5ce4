open Ihk_import

type 'a channel = {
  sim : Sim.t;
  ch_name : string;
  queue : 'a Mailbox.t;
  mutable sent : int;
}

let create sim ~name = { sim; ch_name = name; queue = Mailbox.create sim; sent = 0 }

let send ch v =
  ch.sent <- ch.sent + 1;
  Sim.after ch.sim (Costs.current ()).ikc_message (fun () -> Mailbox.put ch.queue v)

let recv ch = Mailbox.get ch.queue

let sent_total ch = ch.sent

type ('req, 'resp) pair = {
  to_linux : 'req channel;
  to_lwk : 'resp channel;
}

let create_pair sim ~name =
  { to_linux = create sim ~name:(name ^ ":to-linux");
    to_lwk = create sim ~name:(name ^ ":to-lwk") }
