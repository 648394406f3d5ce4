open Mpi_import

type t = {
  rank : int;
  size : int;
  ep : Endpoint.t;
  profile : Stats.Registry.t;
  sim : Sim.t;
  mutable coll_seq : int;
  mutable scratch_send : Addr.t;
  mutable scratch_send_len : int;
  mutable scratch_recv : Addr.t;
  mutable scratch_recv_len : int;
  mutable start_time : float;
}

let create ep ~size =
  let os = Endpoint.os ep in
  { rank = Endpoint.rank ep; size; ep;
    profile = Stats.Registry.create ();
    sim = os.Endpoint.sim;
    coll_seq = 0;
    scratch_send = 0; scratch_send_len = 0;
    scratch_recv = 0; scratch_recv_len = 0;
    start_time = Sim.now os.Endpoint.sim }

let derive t = { t with profile = Stats.Registry.create () }

let profiled t name f =
  let started = Sim.now t.sim in
  (* One end-to-end ledger per MPI call (collective step or pt2pt): the
     finer-grained attribution lives in the PSM/syscall/SDMA ledgers the
     call fans out into. *)
  let lg = Ledger.begin_prefixed t.sim ~prefix:"mpi/" ~name in
  let finish () =
    Stats.Registry.add t.profile name (Sim.now t.sim -. started);
    Ledger.close t.sim lg ~phase:"call"
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* Tag layout: bit 62 set for collectives; user tags live in the low 32
   bits. *)
let user_tag tag = Int64.of_int (tag land 0xFFFF_FFFF)

let coll_tag ~seq ~round =
  Int64.logor 0x4000_0000_0000_0000L
    (Int64.of_int (((seq land 0x3F_FFFF) lsl 8) lor (round land 0xFF)))

let next_coll t =
  let s = t.coll_seq in
  t.coll_seq <- s + 1;
  s

let grow current_va current_len want ~alloc =
  if want <= current_len then (current_va, current_len)
  else begin
    let len = max want (max 4096 (current_len * 2)) in
    (alloc len, len)
  end

let send_scratch t len =
  let os = Endpoint.os t.ep in
  let va, l =
    grow t.scratch_send t.scratch_send_len len ~alloc:os.Endpoint.mmap_anon
  in
  t.scratch_send <- va;
  t.scratch_send_len <- l;
  va

let recv_scratch t len =
  let os = Endpoint.os t.ep in
  let va, l =
    grow t.scratch_recv t.scratch_recv_len len ~alloc:os.Endpoint.mmap_anon
  in
  t.scratch_recv <- va;
  t.scratch_recv_len <- l;
  va

let runtime_ns t = Sim.now t.sim -. t.start_time

let reset_profile t =
  Stats.Registry.reset t.profile;
  t.start_time <- Sim.now t.sim
