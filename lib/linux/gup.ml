open Linux_import

type t = {
  sim : Sim.t;
  mutable pinned : int;
  mutable total : int;
}

let create sim = { sim; pinned = 0; total = 0 }

let charge t cost = if Sim.in_process t.sim then Sim.delay t.sim cost

let get_user_pages t ~pt ~va ~len =
  if len <= 0 then invalid_arg "Gup.get_user_pages: len must be > 0";
  let first = Addr.align_down va Addr.page_size in
  let n = Addr.pages_spanned ~addr:va ~len in
  let sp = Span.begin_ t.sim ~cat:"gup" ~name:"get_user_pages" in
  (* Own op rather than a phase of the enclosing syscall ledger: GUP
     runs nested inside writev/ioctl service, and ledgers attribute each
     op's own [begin, end] interval. *)
  let lg = Ledger.begin_ t.sim ~op:"gup/get_user_pages" in
  charge t (float_of_int n *. (Costs.current ()).gup_per_page);
  let pages = Pagetable.page_pas pt ~va:first ~n in
  t.pinned <- t.pinned + n;
  t.total <- t.total + n;
  Span.end_with t.sim sp (fun () -> [ ("pages", string_of_int n) ]);
  Ledger.close t.sim lg ~phase:"pin";
  pages

let put_pages t pages =
  let n = Array.length pages in
  charge t (float_of_int n *. ((Costs.current ()).gup_per_page /. 4.));
  t.pinned <- t.pinned - n

let pinned t = t.pinned

let total_pinned t = t.total
