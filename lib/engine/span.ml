(* Span recording policy over Sim's storage: a single global flag guards
   every begin, so the disabled hot path pays one ref read. *)

let flag = ref false

let on () = !flag

let set_on v = flag := v

type h = Sim.span option

let null : h = None

let begin_ sim ~cat ~name =
  if !flag then Some (Sim.span_begin sim ~cat ~name) else None

let end_ sim ?args h =
  match h with None -> () | Some sp -> Sim.span_end sim ?args sp

let end_with sim h argf =
  match h with None -> () | Some sp -> Sim.span_end sim ~args:(argf ()) sp

let drain sim = Sim.take_spans sim

(* --- Chrome trace-event JSON -------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Timestamps are simulated ns rendered as the microseconds the format
   expects; fixed %.3f keeps every emission byte-stable. *)
let us ns = Printf.sprintf "%.3f" (ns /. 1000.)

let event_json b ~pid ~tid (sp : Sim.span) =
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\
        \"pid\":%d,\"tid\":%d"
       (escape sp.Sim.sp_name) (escape sp.Sim.sp_cat) (us sp.Sim.sp_begin)
       (us (sp.Sim.sp_end -. sp.Sim.sp_begin))
       pid tid);
  (match sp.Sim.sp_args with
   | [] -> ()
   | args ->
     Buffer.add_string b ",\"args\":{";
     List.iteri
       (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         Buffer.add_string b
           (Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v)))
       args;
     Buffer.add_char b '}');
  Buffer.add_char b '}'

let meta_json b ~what ~pid ?tid name =
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d" what pid);
  (match tid with
   | Some tid -> Buffer.add_string b (Printf.sprintf ",\"tid\":%d" tid)
   | None -> ());
  Buffer.add_string b
    (Printf.sprintf ",\"args\":{\"name\":\"%s\"}}" (escape name))

let to_json ?(label = "sim") spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  meta_json b ~what:"process_name" ~pid:1 label;
  let tids = Hashtbl.create 8 in
  let tracks =
    List.sort_uniq compare (List.map (fun sp -> sp.Sim.sp_track) spans)
  in
  List.iteri
    (fun i tr ->
      Hashtbl.replace tids tr (i + 1);
      Buffer.add_string b ",\n";
      meta_json b ~what:"thread_name" ~pid:1 ~tid:(i + 1) tr)
    tracks;
  List.iter
    (fun sp ->
      Buffer.add_string b ",\n";
      event_json b ~pid:1 ~tid:(Hashtbl.find tids sp.Sim.sp_track) sp)
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
