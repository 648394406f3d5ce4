type ctrl = ..

type header =
  | Eager of {
      tag : int64;
      msg_id : int;
      offset : int;
      frag_len : int;
      msg_len : int;
      src_rank : int;
    }
  | Expected of {
      tid_base : int;
      msg_id : int;
      offset : int;
      frag_len : int;
      msg_len : int;
      src_rank : int;
    }
  | Ctrl of ctrl

type packet = {
  src_node : int;
  dst_node : int;
  dst_ctx : int;
  wire_len : int;
  header : header;
  payload : bytes option;
}

let header_bytes = 64
