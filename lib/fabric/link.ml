open Fabric_import

type t = {
  res : Resource.t;
  name : string;
  tier : string;
  mutable packets : int;
  mutable bytes : int;
  mutable peak_queue : int;
  mutable contended : int;
  mutable parks : int;
  mutable park_ns : float;
  mutable replays : int;
}

let create sim ~name ~tier =
  { res = Resource.create sim ~name ~capacity:1; name; tier;
    packets = 0; bytes = 0; peak_queue = 0; contended = 0;
    parks = 0; park_ns = 0.; replays = 0 }

let name l = l.name

let tier l = l.tier

let idle l = Resource.idle l.res

let transit l ~bytes ~work =
  if not (Resource.idle l.res) then begin
    l.contended <- l.contended + 1;
    (* in service + already queued + the arriving packet *)
    let depth = Resource.in_use l.res + Resource.queue_length l.res + 1 in
    if depth > l.peak_queue then l.peak_queue <- depth
  end;
  Resource.use l.res ~work (fun () -> ());
  l.packets <- l.packets + 1;
  l.bytes <- l.bytes + bytes

let packets l = l.packets

let bytes l = l.bytes

let busy_ns l = Resource.total_busy_ns l.res

let peak_queue l = l.peak_queue

let contended l = l.contended

let note_park l ~wait =
  l.parks <- l.parks + 1;
  l.park_ns <- l.park_ns +. wait

let note_replay l = l.replays <- l.replays + 1

let parks l = l.parks

let park_ns l = l.park_ns

let replays l = l.replays
