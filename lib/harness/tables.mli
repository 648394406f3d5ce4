(** Plain-text rendering of result tables (the benchmark harness prints
    the same rows/series the paper's figures and tables report). *)

(** [render ~header rows] — column-aligned text table. *)
val render : header:string list -> string list list -> string

(** Percentage formatting: [pct 0.934] = ["93.4%"]. *)
val pct : float -> string

(** Nanoseconds to a human unit (µs/ms/s) with 2 decimals. *)
val ns : float -> string

(** An ASCII bar of [width] cells filled proportionally to
    [value/scale]. *)
val bar : ?width:int -> value:float -> scale:float -> unit -> string
