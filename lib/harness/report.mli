(** Machine-readable results: a process-wide collector of named numeric
    figures of merit, dumped as JSON so the performance trajectory of the
    reproduction can be tracked across runs (and PRs).

    Thread-safety: [record] may be called from any domain (the parallel
    harness workers record from inside jobs); the collector is
    mutex-protected and the JSON output is sorted by key, so emission
    order never depends on the parallel schedule. *)

(** [record ~figure ~metric v] stores [v] under ["figure/metric"],
    overwriting any previous value for that key. *)
val record : figure:string -> metric:string -> float -> unit

(** All recorded metrics, sorted by key. *)
val dump : unit -> (string * float) list

(** [render_json ~schema ?extra entries] is the one JSON layout of both
    metric registries (this one and {!Breakdown}'s): a [schema] marker,
    the [extra] string fields in order, and a ["metrics"] object of
    [entries] in the order given (callers pass them sorted by key), with
    non-finite values written as [null]. *)
val render_json :
  schema:string -> ?extra:(string * string) list -> (string * float) list ->
  string

(** {!render_json} of the recorded metrics, schema
    [picodriver-bench-v1]. *)
val to_json : ?extra:(string * string) list -> unit -> string

(** [write ?extra path] writes {!to_json} to [path] (trailing newline
    included). *)
val write : ?extra:(string * string) list -> string -> unit
