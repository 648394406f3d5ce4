(* Latency-ledger recording policy over Sim's storage: the same
   discipline as Span.  One global flag guards every begin; a disabled
   [begin_] is a single ref read returning [null], and [mark]/[close] on
   [null] are a single match — zero float ops while off.  Ledgers are
   host-side state keyed by simulated time: recording one never adds
   simulated time, so arming the flag cannot perturb results. *)

let flag = ref false

let on () = !flag

let set_on v = flag := v

type h = Sim.ledger option

let null : h = None

let begin_ sim ~op = if !flag then Some (Sim.ledger_begin sim ~op) else None

let begin_prefixed sim ~prefix ~name =
  if !flag then Some (Sim.ledger_begin sim ~op:(prefix ^ name)) else None

let mark sim h ~phase =
  match h with None -> () | Some ld -> Sim.ledger_mark sim ld ~phase

let close sim h ~phase =
  match h with None -> () | Some ld -> Sim.ledger_close sim ld ~phase

let drain sim = Sim.take_ledgers sim

let step sim ~series delta = if !flag then Sim.step_note sim ~series delta

let drain_steps sim = Sim.take_steps sim
