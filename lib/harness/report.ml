let mutex = Mutex.create ()

let metrics : (string, float) Hashtbl.t = Hashtbl.create 256

let with_lock f =
  Mutex.lock mutex;
  match f () with
  | v -> Mutex.unlock mutex; v
  | exception e -> Mutex.unlock mutex; raise e

let record ~figure ~metric v =
  with_lock (fun () -> Hashtbl.replace metrics (figure ^ "/" ^ metric) v)

let dump () =
  with_lock (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) metrics [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let float_lit v =
  if Float.is_finite v then Printf.sprintf "%.12g" v else "null"

let escape = Pico_engine.Span.escape

let render_json ~schema ?(extra = []) entries =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"schema\": \"%s\"" (escape schema));
  List.iter
    (fun (k, v) ->
      Buffer.add_string b
        (Printf.sprintf ",\n  \"%s\": \"%s\"" (escape k) (escape v)))
    extra;
  Buffer.add_string b ",\n  \"metrics\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    \"%s\": %s" (escape k) (float_lit v)))
    entries;
  if entries <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "}\n}\n";
  Buffer.contents b

let to_json ?extra () =
  render_json ~schema:"picodriver-bench-v1" ?extra (dump ())

let write ?extra path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ?extra ()))
