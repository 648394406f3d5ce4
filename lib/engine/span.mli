(** Deterministic span tracing over simulated time.

    Spans are begin/end intervals with a category, a name and optional
    key/value args, recorded into the per-{!Sim.t} buffer and rendered
    as Chrome trace-event JSON (loadable in Perfetto or
    [chrome://tracing], with simulated microseconds as the timeline).

    Recording is gated by one process-wide flag ({!set_on}), off by
    default: a disabled [begin_] is a single ref read returning {!null},
    and [end_ null] is a no-op, so instrumented hot paths pay only a
    flag check.  [picobench
    --trace PATH] (or [PICO_TRACE_JSON=PATH]) switches it on.

    Everything recorded derives from simulated time and deterministic
    counters, so a traced run produces a byte-identical file when
    repeated. *)

(** Is span recording enabled? *)
val on : unit -> bool

val set_on : bool -> unit

(** Span handle.  {!begin_} returns a live handle when tracing is on and
    {!null} when it is off. *)
type h

(** The no-op handle: ending it does nothing.  Also what an [end] with no
    matching recorded [begin] operates on. *)
val null : h

(** [begin_ sim ~cat ~name] opens a span at the current simulated time
    (category conventions: ["offload"], ["sdma"], ["pio"], ["lock"],
    ["syscall"], ["gup"], ["fault"], ["recovery"] — see DESIGN.md
    section 9). *)
val begin_ : Sim.t -> cat:string -> name:string -> h

(** [end_ sim ?args h] closes the span at the current simulated time,
    attaching [args].  No-op on {!null} or an already-ended handle, so
    end-without-begin and double-end are safe. *)
val end_ : Sim.t -> ?args:(string * string) list -> h -> unit

(** [end_with sim h argf] — like [end_], but [argf] is only evaluated
    when [h] is a live handle, so arg rendering costs nothing while
    tracing is off. *)
val end_with : Sim.t -> h -> (unit -> (string * string) list) -> unit

(** All closed spans of [sim] in begin order; clears the buffer.
    Still-open spans are dropped. *)
val drain : Sim.t -> Sim.span list

(** [to_json ~label spans] renders one simulation's spans as a Chrome
    trace-event JSON object ([{"traceEvents": [...]}]): one process
    track named [label], one thread per distinct beginning process.
    The multi-simulation variant used by [picobench --trace] lives in
    the harness ([Tracefile]). *)
val to_json : ?label:string -> Sim.span list -> string

(** {2 Rendering helpers for the harness collector} *)

(** Append one complete ("ph":"X") event. *)
val event_json : Buffer.t -> pid:int -> tid:int -> Sim.span -> unit

(** Append one metadata ("ph":"M") event naming a process or thread
    track ([what] is ["process_name"] or ["thread_name"]). *)
val meta_json : Buffer.t -> what:string -> pid:int -> ?tid:int -> string -> unit

(** JSON string escaping shared by the emitters. *)
val escape : string -> string
