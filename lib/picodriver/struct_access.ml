open Pd_import

type t = { ex : Extract.extraction }

let load_parsed parsed ~struct_name ~fields =
  Result.map (fun ex -> { ex }) (Extract.extract parsed ~struct_name ~fields)

let load sections ~struct_name ~fields =
  load_parsed (Encode.parse sections) ~struct_name ~fields

let struct_name t = t.ex.Extract.e_struct

let byte_size t = t.ex.Extract.e_byte_size

let offset t field = (Extract.field t.ex field).Extract.f_offset

let field_size t field = (Extract.field t.ex field).Extract.f_size

let c_header t = Extract.render_c_header t.ex

let pa_of_field t ~vs ~base_va field =
  let pa = Unified_vspace.translate_linux_pointer vs base_va in
  pa + offset t field

let read_u32 t ~node ~vs ~base_va field =
  Node.read_u32 node (pa_of_field t ~vs ~base_va field)

let read_u64 t ~node ~vs ~base_va field =
  Node.read_u64 node (pa_of_field t ~vs ~base_va field)

let read_ptr t ~node ~vs ~base_va field =
  Int64.to_int (read_u64 t ~node ~vs ~base_va field)

let write_u32 t ~node ~vs ~base_va field v =
  Node.write_u32 node (pa_of_field t ~vs ~base_va field) v
