type tier = Up | Down | Host

type hop = {
  tier : tier;
  a : int;
  b : int;
}

(* FNV-1a-style mix: deterministic in the inputs alone (the paper's
   fabric uses static routes configured by the subnet manager, not
   adaptive per-packet decisions), and masked positive so [mod] picks a
   valid spine. *)
let mix h k = (h lxor k) * 0x100000001b3 land max_int

let flow_hash ~src ~dst ~dst_ctx =
  mix (mix (mix 0x50696346 src) dst) dst_ctx

let route topo ~src ~dst ~dst_ctx =
  match topo with
  | Topology.Flat -> []
  | Topology.Fat_tree _ ->
    if src = dst then []
    else begin
      let src_leaf = Topology.leaf_of_node topo src in
      let dst_leaf = Topology.leaf_of_node topo dst in
      let host = { tier = Host; a = dst_leaf; b = dst } in
      if src_leaf = dst_leaf then [ host ]
      else begin
        let spine = flow_hash ~src ~dst ~dst_ctx mod Topology.n_spines topo in
        [ { tier = Up; a = src_leaf; b = spine };
          { tier = Down; a = spine; b = dst_leaf };
          host ]
      end
    end

let tier_name = function Up -> "up" | Down -> "down" | Host -> "host"

exception Fabric_unreachable of { src : int; dst : int; dst_ctx : int }

(* Failover routing: same pure shape as [route], but ECMP re-hashes
   around dead links — spine candidates are probed in the deterministic
   order (flow_hash + k) mod n_spines, k = 0, 1, ..., so with no link
   down the k = 0 route is bit-identical to [route].  The [down]
   predicate must itself be pure over the caller's failure epoch.
   Returns the hop list and whether the flow was re-routed (k > 0); a
   fully partitioned pair raises {!Fabric_unreachable}. *)
let route_avoiding topo ~down ~src ~dst ~dst_ctx =
  match topo with
  | Topology.Flat -> ([], false)
  | Topology.Fat_tree _ ->
    if src = dst then ([], false)
    else begin
      let src_leaf = Topology.leaf_of_node topo src in
      let dst_leaf = Topology.leaf_of_node topo dst in
      let host = { tier = Host; a = dst_leaf; b = dst } in
      if down host then raise (Fabric_unreachable { src; dst; dst_ctx });
      if src_leaf = dst_leaf then ([ host ], false)
      else begin
        let spines = Topology.n_spines topo in
        let h = flow_hash ~src ~dst ~dst_ctx in
        let rec probe k =
          if k >= spines then
            raise (Fabric_unreachable { src; dst; dst_ctx })
          else begin
            let spine = (h + k) mod spines in
            let up = { tier = Up; a = src_leaf; b = spine } in
            let dn = { tier = Down; a = spine; b = dst_leaf } in
            if down up || down dn then probe (k + 1)
            else ([ up; dn; host ], k > 0)
          end
        in
        probe 0
      end
    end

module Memo = struct
  (* Routing is pure in (src, dst, dst_ctx) by invariant, so the FNV mix
     and hop-list construction can leave the per-packet hot path.  The
     table is per-instance (one per fabric): module-level memo state
     would couple sweep points and break parallel byte-identity. *)
  (* Keys carry the failure epoch: epoch 0 is the immortal fabric (no
     link ever down there — the first epoch boundary is the first down
     window's start), so the legacy [route] entry point reads the same
     slot layout fault-armed runs do. *)
  type route_memo = {
    topo : Topology.t;
    tbl : (int * int * int * int, hop list * bool) Hashtbl.t;
  }

  type t = route_memo

  let create topo = { topo; tbl = Hashtbl.create 256 }

  let route_epoch m ~epoch ~down ~src ~dst ~dst_ctx =
    match m.topo with
    | Topology.Flat -> ([], false)
    | Topology.Fat_tree _ ->
      let key = (src, dst, dst_ctx, epoch) in
      (match Hashtbl.find_opt m.tbl key with
       | Some r -> r
       | None ->
         (* never memoize Fabric_unreachable: let it propagate so the
            caller's parking logic sees it fresh each probe *)
         let r = route_avoiding m.topo ~down ~src ~dst ~dst_ctx in
         Hashtbl.add m.tbl key r;
         r)

  let no_down _ = false

  let route m ~src ~dst ~dst_ctx =
    fst (route_epoch m ~epoch:0 ~down:no_down ~src ~dst ~dst_ctx)
end

let describe_hop { tier; a; b } =
  match tier with
  | Up -> Printf.sprintf "up:l%d-s%d" a b
  | Down -> Printf.sprintf "down:s%d-l%d" a b
  | Host -> Printf.sprintf "host:l%d-n%d" a b
