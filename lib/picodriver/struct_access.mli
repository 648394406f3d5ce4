(** DWARF-driven access to Linux driver structures from the LWK.

    An accessor set is built {e exclusively} from the DWARF sections of the
    vendor module binary — never from the driver's source declarations —
    so a driver update only requires re-extraction (paper: "the porting
    effort has been on the order of hours").

    Reads traverse the unified direct map, so they fault (raise) under the
    original McKernel layout. *)

open Pd_import

type t

(** [load_parsed parsed ~struct_name ~fields] runs dwarf-extract-struct
    over already-parsed sections and wraps the result.  A driver that
    needs several structures parses the module once and loads each from
    the same parse, as the paper's tool reads the binary once. *)
val load_parsed :
  Encode.parsed ->
  struct_name:string ->
  fields:string list ->
  (t, string) result

(** [load sections ~struct_name ~fields] is [load_parsed] on
    [Encode.parse sections]. *)
val load :
  Encode.sections ->
  struct_name:string ->
  fields:string list ->
  (t, string) result

val struct_name : t -> string

val byte_size : t -> int

(** [offset t field]
    @raise Not_found *)
val offset : t -> string -> int

val field_size : t -> string -> int

(** The generated Listing-1-style header for documentation/debugging. *)
val c_header : t -> string

(** {2 Reads through the unified address space}

    [base_va] is a Linux kernel pointer (direct map).  All check the
    layout via {!Unified_vspace.require} semantics. *)

val read_u32 :
  t -> node:Node.t -> vs:Vspace.t -> base_va:Addr.t -> string -> int32

val read_u64 :
  t -> node:Node.t -> vs:Vspace.t -> base_va:Addr.t -> string -> int64

(** Read a pointer field and return it as a kernel VA. *)
val read_ptr :
  t -> node:Node.t -> vs:Vspace.t -> base_va:Addr.t -> string -> Addr.t

val write_u32 :
  t -> node:Node.t -> vs:Vspace.t -> base_va:Addr.t -> string -> int32 -> unit
