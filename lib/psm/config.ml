let eager_threshold = ref 65536

let window_size = ref (1024 * 1024)

let pipeline_depth = ref 2

let tid_cache = ref false

let with_tid_cache on f =
  let saved = !tid_cache in
  tid_cache := on;
  Fun.protect ~finally:(fun () -> tid_cache := saved) f

let reset () =
  eager_threshold := 65536;
  window_size := 1024 * 1024;
  pipeline_depth := 2;
  tid_cache := false
