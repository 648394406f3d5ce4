let render ~header rows =
  let all = header :: rows in
  let cols =
    List.fold_left (fun acc r -> max acc (List.length r)) 0 all
  in
  let width i =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row i with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let line row =
    List.mapi
      (fun i w ->
        let cell = Option.value ~default:"" (List.nth_opt row i) in
        let pad = String.make (max 0 (w - String.length cell)) ' ' in
        pad ^ cell)
      widths
    |> String.concat "  "
  in
  let sep =
    List.map (fun w -> String.make w '-') widths |> String.concat "  "
  in
  let body = List.map line rows in
  String.concat "\n" ((line header :: sep :: body) @ [ "" ])

let pct x = Printf.sprintf "%.1f%%" (x *. 100.)

let ns x =
  if x >= 1e9 then Printf.sprintf "%.2f s" (x /. 1e9)
  else if x >= 1e6 then Printf.sprintf "%.2f ms" (x /. 1e6)
  else if x >= 1e3 then Printf.sprintf "%.2f us" (x /. 1e3)
  else Printf.sprintf "%.0f ns" x

let bar ?(width = 30) ~value ~scale () =
  let n =
    if scale <= 0. then 0
    else
      let frac = Float.max 0. (Float.min 1. (value /. scale)) in
      int_of_float (Float.round (frac *. float_of_int width))
  in
  String.make n '#' ^ String.make (width - n) ' '
