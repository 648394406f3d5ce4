let eager_threshold = 65536

let window_size = 1024 * 1024

let pipeline_depth = 2

let tid_cache = ref false

let with_tid_cache on f =
  let saved = !tid_cache in
  tid_cache := on;
  Fun.protect ~finally:(fun () -> tid_cache := saved) f
