(* Tests for the topology-aware interconnect: fat-tree shapes, pure
   deterministic routing, per-link serialization/contention and the
   Nic.Fabric facade on top.  The flat model's behaviour is pinned by
   test_nic.ml; here we pin everything the fat-tree adds. *)

open Pico_nic
module Topology = Pico_fabric.Topology
module Route = Pico_fabric.Route
module Link = Pico_fabric.Link
module Sim = Pico_engine.Sim
module Node = Pico_hw.Node
module Costs = Pico_costs.Costs

let () = Costs.reset ()

let check_float = Alcotest.(check (float 1e-9))

type Wire.ctrl += Test_ctrl of int

let mk_packet ?(src = 0) ?(dst = 1) ?(ctx = 0) ?(len = 100) () =
  { Wire.src_node = src; dst_node = dst; dst_ctx = ctx; wire_len = len;
    header = Wire.Ctrl (Test_ctrl 0); payload = None }

let ft ~radix ~oversub = Topology.Fat_tree { radix; oversub }

(* The facade's per-hop store-and-forward arrival time. *)
let hop_time len =
  let c = Costs.current () in
  c.Costs.switch_latency
  +. (float_of_int (len + c.Costs.packet_overhead_bytes)
      /. c.Costs.link_bandwidth)

(* --- Topology --------------------------------------------------------------- *)

let test_topology_validate () =
  Topology.validate Topology.Flat;
  Topology.validate (ft ~radix:4 ~oversub:2);
  let raises t =
    try Topology.validate t; false with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "radix 0 raises" true (raises (ft ~radix:0 ~oversub:1));
  Alcotest.(check bool) "oversub 0 raises" true
    (raises (ft ~radix:4 ~oversub:0))

let test_topology_shape () =
  Alcotest.(check int) "flat has no spines" 0 (Topology.n_spines Topology.Flat);
  Alcotest.(check int) "full bisection" 4
    (Topology.n_spines (ft ~radix:4 ~oversub:1));
  Alcotest.(check int) "2:1 oversub" 2
    (Topology.n_spines (ft ~radix:4 ~oversub:2));
  Alcotest.(check int) "never below one spine" 1
    (Topology.n_spines (ft ~radix:2 ~oversub:8));
  Alcotest.(check int) "leaf of node" 2
    (Topology.leaf_of_node (ft ~radix:4 ~oversub:1) 11);
  Alcotest.(check bool) "describe nonempty" true
    (String.length (Topology.describe (ft ~radix:4 ~oversub:2)) > 0)

(* --- Routing ---------------------------------------------------------------- *)

let test_route_shapes () =
  let t = ft ~radix:2 ~oversub:1 in
  Alcotest.(check int) "flat route is empty" 0
    (List.length (Route.route Topology.Flat ~src:0 ~dst:5 ~dst_ctx:1));
  Alcotest.(check int) "loopback route is empty" 0
    (List.length (Route.route t ~src:3 ~dst:3 ~dst_ctx:0));
  (match Route.route t ~src:0 ~dst:1 ~dst_ctx:0 with
   | [ { Route.tier = Route.Host; a = 0; b = 1 } ] -> ()
   | _ -> Alcotest.fail "same-leaf route must be the Host hop only");
  match Route.route t ~src:0 ~dst:3 ~dst_ctx:0 with
  | [ { Route.tier = Route.Up; a = 0; b = s1 };
      { Route.tier = Route.Down; a = s2; b = 1 };
      { Route.tier = Route.Host; a = 1; b = 3 } ] ->
    Alcotest.(check int) "same spine up and down" s1 s2;
    Alcotest.(check bool) "spine in range" true
      (s1 >= 0 && s1 < Topology.n_spines t)
  | _ -> Alcotest.fail "cross-leaf route must be Up; Down; Host"

let test_route_spines_in_range () =
  let t = ft ~radix:4 ~oversub:2 in
  let n = Topology.n_spines t in
  for src = 0 to 15 do
    for dst = 0 to 15 do
      List.iter
        (fun h ->
          match h.Route.tier with
          | Route.Up ->
            Alcotest.(check bool) "spine bound" true (h.Route.b >= 0 && h.b < n)
          | Route.Down ->
            Alcotest.(check bool) "spine bound" true (h.Route.a >= 0 && h.a < n)
          | Route.Host -> ())
        (Route.route t ~src ~dst ~dst_ctx:(src + dst))
    done
  done

(* Routing must be a pure function of the flow triple: identical across
   re-evaluation and across worker domains (no RNG, no hidden state). *)
let test_route_deterministic_across_domains () =
  let t = ft ~radix:4 ~oversub:1 in
  let triples =
    List.concat_map
      (fun src -> List.map (fun dst -> (src, dst, src * 7)) [ 0; 3; 9; 14 ])
      [ 0; 5; 8; 13 ]
  in
  let routes () =
    List.map (fun (src, dst, ctx) -> Route.route t ~src ~dst ~dst_ctx:ctx)
      triples
  in
  let here = routes () in
  let there = Domain.join (Domain.spawn routes) in
  Alcotest.(check bool) "same routes on another domain" true (here = there);
  Alcotest.(check bool) "same routes on re-evaluation" true (here = routes ())

let test_flow_hash_spreads () =
  let t = ft ~radix:8 ~oversub:1 in
  let spine src dst ctx =
    match Route.route t ~src ~dst ~dst_ctx:ctx with
    | { Route.tier = Route.Up; b; _ } :: _ -> b
    | _ -> Alcotest.fail "expected a cross-leaf route"
  in
  let spines =
    List.concat_map
      (fun src -> List.map (fun ctx -> spine src (8 + (src mod 8)) ctx)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "flows spread over more than one spine" true
    (List.length spines > 1)

(* --- Failover routing (DESIGN.md section 14) -------------------------------- *)

let no_down _ = false

(* With no link down anywhere, failover routing IS the legacy route:
   k = 0 in the ECMP probe order is the flow-hashed spine, bit for bit. *)
let test_failover_no_down_identical () =
  let t = ft ~radix:4 ~oversub:2 in
  for src = 0 to 15 do
    for dst = 0 to 15 do
      let dst_ctx = src + (3 * dst) in
      let hops, rerouted = Route.route_avoiding t ~down:no_down ~src ~dst ~dst_ctx in
      Alcotest.(check bool) "no reroute without downs" false rerouted;
      Alcotest.(check bool) "identical to Route.route" true
        (hops = Route.route t ~src ~dst ~dst_ctx)
    done
  done

let test_failover_avoids_down_spine () =
  let t = ft ~radix:8 ~oversub:1 in
  let src = 0 and dst = 9 and dst_ctx = 4 in
  match Route.route t ~src ~dst ~dst_ctx with
  | ({ Route.tier = Route.Up; b = spine0; _ } as up0) :: _ ->
    let down h = h = up0 in
    let hops, rerouted = Route.route_avoiding t ~down ~src ~dst ~dst_ctx in
    Alcotest.(check bool) "rerouted" true rerouted;
    (match hops with
     | [ { Route.tier = Route.Up; a = l1; b = s1 };
         { Route.tier = Route.Down; a = s2; b = l2 };
         { Route.tier = Route.Host; _ } ] ->
       Alcotest.(check bool) "avoided the down spine" true (s1 <> spine0);
       Alcotest.(check int) "same spine up/down" s1 s2;
       (* The winner is the NEXT ECMP candidate, deterministically. *)
       let h = Route.flow_hash ~src ~dst ~dst_ctx in
       Alcotest.(check int) "k=1 candidate" ((h + 1) mod 8) s1;
       Alcotest.(check int) "same source leaf" (Topology.leaf_of_node t src) l1;
       Alcotest.(check int) "same dest leaf" (Topology.leaf_of_node t dst) l2
     | _ -> Alcotest.fail "expected Up; Down; Host")
  | _ -> Alcotest.fail "expected a cross-leaf default route"

let test_failover_unreachable () =
  let t = ft ~radix:2 ~oversub:1 in
  let raises down src dst =
    try ignore (Route.route_avoiding t ~down ~src ~dst ~dst_ctx:0); false
    with Route.Fabric_unreachable { src = s; dst = d; _ } ->
      s = src && d = dst
  in
  (* Dead destination host link partitions the pair outright. *)
  Alcotest.(check bool) "host link down -> unreachable" true
    (raises (fun h -> h.Route.tier = Route.Host) 0 3);
  (* Every spine cut partitions cross-leaf pairs only. *)
  Alcotest.(check bool) "all spines down -> cross-leaf unreachable" true
    (raises (fun h -> h.Route.tier = Route.Up) 0 3);
  let hops, rerouted =
    Route.route_avoiding t ~down:(fun h -> h.Route.tier = Route.Up) ~src:0
      ~dst:1 ~dst_ctx:0
  in
  Alcotest.(check bool) "same-leaf unaffected by spine cuts" true
    (hops = Route.route t ~src:0 ~dst:1 ~dst_ctx:0 && not rerouted)

let test_memo_epoch () =
  let t = ft ~radix:8 ~oversub:1 in
  let m = Route.Memo.create t in
  let src = 0 and dst = 9 and dst_ctx = 4 in
  let legacy = Route.route t ~src ~dst ~dst_ctx in
  Alcotest.(check bool) "epoch 0 = legacy route" true
    (Route.Memo.route_epoch m ~epoch:0 ~down:no_down ~src ~dst ~dst_ctx
     = (legacy, false));
  let up0 = List.hd legacy in
  let down1 h = h = up0 in
  let hops1, rr1 =
    Route.Memo.route_epoch m ~epoch:1 ~down:down1 ~src ~dst ~dst_ctx
  in
  Alcotest.(check bool) "epoch 1 reroutes around its down set" true
    (rr1 && hops1 <> legacy);
  (* Epochs are independent cache keys: epoch 0 still serves the legacy
     route after epoch 1 was populated, and vice versa. *)
  Alcotest.(check bool) "epoch 0 unchanged" true
    (Route.Memo.route_epoch m ~epoch:0 ~down:no_down ~src ~dst ~dst_ctx
     = (legacy, false));
  Alcotest.(check bool) "epoch 1 cached" true
    (Route.Memo.route_epoch m ~epoch:1 ~down:down1 ~src ~dst ~dst_ctx
     = (hops1, rr1));
  (* Unreachable is never memoized: it raises afresh on every probe. *)
  let all_down _ = true in
  let raises () =
    try
      ignore
        (Route.Memo.route_epoch m ~epoch:2 ~down:all_down ~src ~dst ~dst_ctx);
      false
    with Route.Fabric_unreachable _ -> true
  in
  Alcotest.(check bool) "unreachable raises" true (raises ());
  Alcotest.(check bool) "unreachable raises again (not memoized)" true
    (raises ())

(* Failover routing purity: identical (topology, down set, src, dst,
   dst_ctx) yields identical routes on this domain, on another domain,
   and on re-evaluation — and an empty down set is bit-identical to
   today's route.  The down set is itself a pure function of the
   generated salt, standing in for a failure epoch's link state. *)
let failover_purity_law =
  QCheck2.Test.make ~name:"failover routing is epoch-pure" ~count:100
    QCheck2.Gen.(
      tup5 (int_range 2 8) (int_range 1 4) (int_range 0 23)
        (tup2 (int_range 0 23) (int_range 0 15)) (int_range 0 1000))
    (fun (radix, oversub, src, (dst, dst_ctx), salt) ->
      let topo = ft ~radix ~oversub in
      let down h =
        salt mod 7 <> 0 && Hashtbl.hash (salt, h.Route.tier, h.a, h.b) mod 4 = 0
      in
      let eval () =
        try Ok (Route.route_avoiding topo ~down ~src ~dst ~dst_ctx)
        with Route.Fabric_unreachable _ -> Error ()
      in
      let here = eval () in
      let there = Domain.join (Domain.spawn eval) in
      here = there
      && here = eval ()
      && Route.route_avoiding topo ~down:no_down ~src ~dst ~dst_ctx
         = (Route.route topo ~src ~dst ~dst_ctx, false))

(* --- Fat-tree delivery through the facade ----------------------------------- *)

let test_fat_tree_arrival_times () =
  let c = Costs.current () in
  let run ~src ~dst ~hops =
    let sim = Sim.create () in
    let f = Fabric.create ~topology:(ft ~radix:2 ~oversub:1) sim in
    let at = ref nan in
    Fabric.attach f ~node_id:dst ~rx:(fun _ -> at := Sim.now sim);
    if src <> dst then Fabric.attach f ~node_id:src ~rx:(fun _ -> ());
    Fabric.send f (mk_packet ~src ~dst ~len:100 ());
    ignore (Sim.run sim);
    check_float "store-and-forward arrival"
      (c.Costs.link_latency +. (float_of_int hops *. hop_time 100))
      !at
  in
  run ~src:0 ~dst:3 ~hops:3;
  run ~src:0 ~dst:1 ~hops:1;
  (* Loopback never touches the tree. *)
  let sim = Sim.create () in
  let f = Fabric.create ~topology:(ft ~radix:2 ~oversub:1) sim in
  let at = ref nan in
  Fabric.attach f ~node_id:0 ~rx:(fun _ -> at := Sim.now sim);
  Fabric.send f (mk_packet ~src:0 ~dst:0 ());
  ignore (Sim.run sim);
  check_float "loopback latency" c.Costs.loopback_latency !at

let test_fat_tree_attach_errors () =
  let sim = Sim.create () in
  let f = Fabric.create ~topology:(ft ~radix:2 ~oversub:1) sim in
  Fabric.attach f ~node_id:0 ~rx:(fun _ -> ());
  Alcotest.(check bool) "double attach raises" true
    (try Fabric.attach f ~node_id:0 ~rx:(fun _ -> ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unattached destination raises" true
    (try Fabric.send f (mk_packet ~src:0 ~dst:3 ()); false
     with Invalid_argument _ -> true);
  Fabric.attach f ~node_id:3 ~rx:(fun _ -> ());
  Fabric.detach f ~node_id:3;
  Alcotest.(check (list int)) "detached" [ 0 ] (Fabric.attached f)

(* Ordered arrivals exist for the sharded engine, and only flat worlds
   shard: asking for them on a fat-tree is a build-time error, and so is
   a cluster built that way. *)
let test_ordered_needs_flat () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "ordered fat-tree fabric raises" true
    (raises (fun () ->
         Fabric.create ~topology:(ft ~radix:2 ~oversub:1) ~ordered:true
           (Sim.create ())));
  Alcotest.(check bool) "ordered fat-tree cluster raises" true
    (raises (fun () ->
         Pico_harness.Cluster.build Pico_harness.Cluster.Linux ~n_nodes:2
           ~topology:(ft ~radix:2 ~oversub:1) ~ordered_arrivals:true ()));
  Alcotest.(check bool) "ordered flat fabric is fine" false
    (raises (fun () -> Fabric.create ~ordered:true (Sim.create ())))

let test_fat_tree_in_order_per_flow () =
  let sim = Sim.create () in
  let f = Fabric.create ~topology:(ft ~radix:2 ~oversub:1) sim in
  let got = ref [] in
  Fabric.attach f ~node_id:0 ~rx:(fun _ -> ());
  Fabric.attach f ~node_id:3 ~rx:(fun p -> got := p.Wire.wire_len :: !got);
  for i = 1 to 10 do
    Fabric.send f (mk_packet ~src:0 ~dst:3 ~len:i ())
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo along the flow's path"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !got)

let test_contention_counters () =
  let sim = Sim.create () in
  let f = Fabric.create ~topology:(ft ~radix:2 ~oversub:1) sim in
  let arrivals = ref [] in
  Fabric.attach f ~node_id:0 ~rx:(fun _ -> ());
  Fabric.attach f ~node_id:1 ~rx:(fun _ -> ());
  Fabric.attach f ~node_id:3 ~rx:(fun p ->
      arrivals := (p.Wire.src_node, Sim.now sim) :: !arrivals);
  (* Two sources on leaf 0 converge on the one l1->n3 host link. *)
  Fabric.send f (mk_packet ~src:0 ~dst:3 ~len:4096 ());
  Fabric.send f (mk_packet ~src:1 ~dst:3 ~len:4096 ());
  ignore (Sim.run sim);
  Alcotest.(check int) "both delivered" 2 (List.length !arrivals);
  let host =
    List.find (fun s -> s.Fabric.ts_tier = "host") (Fabric.tier_stats f)
  in
  Alcotest.(check int) "host-link packets" 2 host.Fabric.ts_packets;
  Alcotest.(check int) "host-link bytes" 8192 host.Fabric.ts_bytes;
  Alcotest.(check bool) "one packet found the link busy" true
    (host.Fabric.ts_contended >= 1);
  Alcotest.(check bool) "queue depth observed" true
    (host.Fabric.ts_peak_queue >= 2);
  match List.sort compare (List.map snd !arrivals) with
  | [ t1; t2 ] ->
    (* The loser serialises behind the winner for one wire time. *)
    let c = Costs.current () in
    let wire =
      float_of_int (4096 + c.Costs.packet_overhead_bytes)
      /. c.Costs.link_bandwidth
    in
    Alcotest.(check bool) "second arrival strictly later" true
      (t2 -. t1 >= wire *. 0.999)
  | _ -> Alcotest.fail "expected two arrivals"

let test_flat_has_no_links () =
  let sim = Sim.create () in
  let f = Fabric.create sim in
  Fabric.attach f ~node_id:0 ~rx:(fun _ -> ());
  Fabric.attach f ~node_id:1 ~rx:(fun _ -> ());
  Fabric.send f (mk_packet ~src:0 ~dst:1 ());
  ignore (Sim.run sim);
  Alcotest.(check int) "no links instantiated" 0
    (List.length (Fabric.tier_stats f));
  Alcotest.(check bool) "flat fabric is always quiet" true (Fabric.quiet f)

(* --- Conservation (qcheck) -------------------------------------------------- *)

(* Whatever enters the tree leaves it: packets/bytes sent = delivered,
   and the per-tier link byte counters each carry the full cross-leaf
   byte volume exactly once. *)
let conservation_law =
  QCheck2.Test.make ~name:"fat-tree conserves packets and bytes" ~count:50
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (triple (int_range 0 8) (int_range 0 8) (int_range 1 9000)))
    (fun sends ->
      let topo = ft ~radix:3 ~oversub:2 in
      let sim = Sim.create () in
      let f = Fabric.create ~topology:topo sim in
      let got_packets = ref 0 and got_bytes = ref 0 in
      for n = 0 to 8 do
        Fabric.attach f ~node_id:n ~rx:(fun p ->
            incr got_packets;
            got_bytes := !got_bytes + p.Wire.wire_len)
      done;
      List.iter
        (fun (src, dst, len) -> Fabric.send f (mk_packet ~src ~dst ~len ()))
        sends;
      ignore (Sim.run sim);
      let sent_bytes = List.fold_left (fun a (_, _, l) -> a + l) 0 sends in
      let host_tier_bytes =
        List.fold_left
          (fun acc s ->
            if s.Fabric.ts_tier = "host" then acc + s.Fabric.ts_bytes else acc)
          0 (Fabric.tier_stats f)
      in
      let off_node_bytes =
        List.fold_left
          (fun a (src, dst, l) -> if src <> dst then a + l else a)
          0 sends
      in
      !got_packets = List.length sends
      && !got_bytes = sent_bytes
      && Fabric.packets_delivered f = List.length sends
      && Fabric.bytes_delivered f = sent_bytes
      && host_tier_bytes = off_node_bytes)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "fabric"
    [ ("topology",
       [ Alcotest.test_case "validate" `Quick test_topology_validate;
         Alcotest.test_case "shape" `Quick test_topology_shape ]);
      ("routing",
       [ Alcotest.test_case "shapes" `Quick test_route_shapes;
         Alcotest.test_case "spine bounds" `Quick test_route_spines_in_range;
         Alcotest.test_case "deterministic across domains" `Quick
           test_route_deterministic_across_domains;
         Alcotest.test_case "flow hash spreads" `Quick test_flow_hash_spreads ]);
      ("failover",
       [ Alcotest.test_case "no downs = legacy route" `Quick
           test_failover_no_down_identical;
         Alcotest.test_case "avoids down spine" `Quick
           test_failover_avoids_down_spine;
         Alcotest.test_case "unreachable" `Quick test_failover_unreachable;
         Alcotest.test_case "memo epochs" `Quick test_memo_epoch;
         qc failover_purity_law ]);
      ("delivery",
       [ Alcotest.test_case "arrival times" `Quick test_fat_tree_arrival_times;
         Alcotest.test_case "attach errors" `Quick test_fat_tree_attach_errors;
         Alcotest.test_case "ordered needs flat" `Quick test_ordered_needs_flat;
         Alcotest.test_case "in order per flow" `Quick
           test_fat_tree_in_order_per_flow;
         Alcotest.test_case "contention counters" `Quick
           test_contention_counters;
         Alcotest.test_case "flat has no links" `Quick test_flat_has_no_links;
         qc conservation_law ]) ]
