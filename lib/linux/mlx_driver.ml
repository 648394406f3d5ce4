open Linux_import

let ioctl_reg_mr = 0x11

let ioctl_dereg_mr = 0x12

let ioctl_query_device = 0x13

let ioctl_create_qp = 0x14

type reg_mr = {
  mr_va : Addr.t;
  mr_len : int;
}

let reg_mr_bytes = 16

let encode_reg_mr r =
  let b = Bytes.make reg_mr_bytes '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int r.mr_va);
  Bytes.set_int64_le b 8 (Int64.of_int r.mr_len);
  b

let decode_reg_mr b =
  if Bytes.length b < reg_mr_bytes then
    invalid_arg "Mlx_driver.decode_reg_mr: short buffer";
  { mr_va = Int64.to_int (Bytes.get_int64_le b 0);
    mr_len = Int64.to_int (Bytes.get_int64_le b 8) }

type mr = {
  lkey : int;
  mr_mtt : Extent.t;
  mr_pinned_pages : int;
}

type t = {
  sim : Sim.t;
  node : Node.t;
  slab : Slab.t;
  gup : Gup.t;
  lock : Spinlock.t;
  mrs : (int, mr * Addr.t array) Hashtbl.t;
  mutable next_lkey : int;
  mutable reg_calls : int;
  mutable dereg_calls : int;
}

let dev_name unit_no = Printf.sprintf "uverbs%d" unit_no

(* Programming one MTT entry into the HCA. *)
let mtt_entry_write = 25.

let misc_work = 700.

let install_mr t ~mtt ~pinned_pages =
  let lkey = t.next_lkey in
  t.next_lkey <- lkey + 1;
  if Sim.in_process t.sim then
    Sim.delay t.sim (float_of_int (Extent.count mtt) *. mtt_entry_write);
  Hashtbl.replace t.mrs lkey
    ({ lkey; mr_mtt = mtt; mr_pinned_pages = pinned_pages }, [||]);
  lkey

let lookup_mr t ~lkey =
  Option.map fst (Hashtbl.find_opt t.mrs lkey)

let remove_mr t ~lkey =
  match Hashtbl.find_opt t.mrs lkey with
  | Some (mr, pages) ->
    Hashtbl.remove t.mrs lkey;
    if Array.length pages > 0 then Gup.put_pages t.gup pages;
    if Sim.in_process t.sim then
      Sim.delay t.sim (float_of_int (Extent.count mr.mr_mtt) *. mtt_entry_write);
    mr
  | None -> invalid_arg (Printf.sprintf "Mlx_driver: unknown lkey %d" lkey)

let mr_count t = Hashtbl.length t.mrs

let reg_calls t = t.reg_calls

let dereg_calls t = t.dereg_calls

let mr_lock t = t.lock

(* The Linux slow path: copy the command, gup the buffer, build one MTT
   entry per 4 kB page. *)
let do_reg_mr t (caller : Vfs.caller) ~arg =
  t.reg_calls <- t.reg_calls + 1;
  Umem.charge_copy t.sim reg_mr_bytes;
  let cmd =
    decode_reg_mr
      (Umem.copy_from_user t.node ~pt:caller.Vfs.pt ~va:arg ~len:reg_mr_bytes)
  in
  let pages =
    Gup.get_user_pages t.gup ~pt:caller.Vfs.pt ~va:cmd.mr_va ~len:cmd.mr_len
  in
  (* MTT entries map whole pages: the range runs to the end of the last
     pinned page. *)
  let mtt =
    Extent.of_cut
      (Extent.Pages
         { pages; va = cmd.mr_va;
           len =
             (Array.length pages * Addr.page_size)
             - Addr.offset_in_page cmd.mr_va })
  in
  Spinlock.with_lock t.lock (fun () ->
      let lkey = t.next_lkey in
      t.next_lkey <- lkey + 1;
      Sim.delay t.sim (float_of_int (Extent.count mtt) *. mtt_entry_write);
      Hashtbl.replace t.mrs lkey
        ({ lkey; mr_mtt = mtt; mr_pinned_pages = Array.length pages }, pages);
      lkey)

let do_dereg_mr t ~arg:lkey =
  t.dereg_calls <- t.dereg_calls + 1;
  Spinlock.with_lock t.lock (fun () -> ignore (remove_mr t ~lkey));
  0

let do_ioctl t _file caller ~cmd ~arg =
  if cmd = ioctl_reg_mr then do_reg_mr t caller ~arg
  else if cmd = ioctl_dereg_mr then do_dereg_mr t ~arg
  else if cmd = ioctl_query_device || cmd = ioctl_create_qp then begin
    Sim.delay t.sim misc_work;
    0
  end
  else -22

let probe sim ~node ~slab ~gup ~vfs =
  let t =
    { sim; node; slab; gup;
      lock = Spinlock.create sim ~name:"mlx-mr";
      mrs = Hashtbl.create 64;
      next_lkey = 1;
      reg_calls = 0;
      dereg_calls = 0 }
  in
  Vfs.register_device vfs ~name:(dev_name node.Node.id)
    ~ops:{ Vfs.default_ops with fop_ioctl = do_ioctl t };
  t
