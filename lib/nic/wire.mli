(** On-the-wire packet format of the simulated OmniPath fabric.

    Three traffic classes, mirroring the real PSM/HFI split:
    - {e eager} packets carry small/medium messages into library-internal
      receive buffers (no handshake);
    - {e expected} packets are placed directly into user buffers that were
      registered ahead of time through TID entries (RcvArray);
    - {e control} packets carry PSM rendezvous handshakes (RTS/CTS); the
      payload type is extensible so upper layers define their own
      vocabulary without this library depending on them. *)

(** Extended by the PSM layer (e.g. RTS/CTS). *)
type ctrl = ..

type header =
  | Eager of {
      tag : int64;
      msg_id : int;       (** sender-unique message id *)
      offset : int;       (** offset of this fragment *)
      frag_len : int;
      msg_len : int;      (** total message length *)
      src_rank : int;     (** sender's PSM endpoint identity *)
    }
  | Expected of {
      tid_base : int;     (** first RcvArray entry of the registration *)
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
  dst_ctx : int;          (** HFI receive context at the destination *)
  wire_len : int;         (** bytes occupying the link (payload + header) *)
  header : header;
  payload : bytes option; (** carried only when content fidelity is on *)
}

(** Protocol header bytes added to every fragment. *)
val header_bytes : int
