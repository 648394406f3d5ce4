open Pd_import
module Mlx_driver = Pico_linux.Mlx_driver

type t = {
  mck : Mck.t;
  linux_driver : Mlx_driver.t;
  mutable reg_fast : int;
  mutable dereg_fast : int;
  mutable entries_saved : int;
}

let reg_fast t = t.reg_fast

let dereg_fast t = t.dereg_fast

let entries_saved t = t.entries_saved

let walk_cost segs =
  float_of_int (List.length segs) *. (Costs.current ()).ptwalk_per_page

let fast_reg_mr t (p : Mck.pctx) (_file : Vfs.file) ~arg =
  t.reg_fast <- t.reg_fast + 1;
  let sim = Mck.sim t.mck in
  let cmd =
    Mlx_driver.decode_reg_mr
      (Proc.read p.Mck.proc arg Mlx_driver.reg_mr_bytes)
  in
  let segs =
    Pagetable.phys_segments p.Mck.proc.Proc.pt ~va:cmd.Mlx_driver.mr_va
      ~len:cmd.Mlx_driver.mr_len
  in
  Sim.delay sim (walk_cost segs);
  List.iter
    (fun (_, _, flags) ->
      if not (Pagetable.Flags.has flags Pagetable.Flags.pinned) then
        invalid_arg "mlx-pico: REG_MR of non-pinned mapping")
    segs;
  (* One MTT entry per contiguous run (vs one per page in Linux). *)
  let mtt = Extent.of_cut (Extent.Chop { cap = max_int; segs }) in
  let pages =
    Pico_hw.Addr.pages_spanned ~addr:cmd.Mlx_driver.mr_va
      ~len:cmd.Mlx_driver.mr_len
  in
  t.entries_saved <- t.entries_saved + (pages - Extent.count mtt);
  Spinlock.with_lock (Mlx_driver.mr_lock t.linux_driver) (fun () ->
      Mlx_driver.install_mr t.linux_driver ~mtt ~pinned_pages:0)

let fast_dereg_mr t (_p : Mck.pctx) (_file : Vfs.file) ~arg:lkey =
  t.dereg_fast <- t.dereg_fast + 1;
  Spinlock.with_lock (Mlx_driver.mr_lock t.linux_driver) (fun () ->
      ignore (Mlx_driver.remove_mr t.linux_driver ~lkey));
  0

let attach mck ~linux_driver =
  (* Same precondition as the HFI1 PicoDriver: the unified layout. *)
  match Unified_vspace.require (Mck.vspace mck) with
  | exception Unified_vspace.Layout_unsuitable _ ->
    Error "mlx-pico: unified address space layout required"
  | () ->
    let t =
      { mck; linux_driver; reg_fast = 0; dereg_fast = 0; entries_saved = 0 }
    in
    let dev = Mlx_driver.dev_name (Mck.node mck).Pico_hw.Node.id in
    ignore
      (Framework.install mck
         { Framework.pd_name = "mlx-picodriver";
           pd_dev = dev;
           pd_writev = None (* IB data movement is already OS-bypass *);
           pd_ioctls =
             [ (Mlx_driver.ioctl_reg_mr, fast_reg_mr t);
               (Mlx_driver.ioctl_dereg_mr, fast_dereg_mr t) ] });
    Ok t
