(** Length-prefixed socket message protocol between the coordinator and
    its worker processes.

    Every message travels in one frame: [u32 length | payload | u32
    FNV-1a(payload)], with the payload's first byte a message tag.  A
    frame is written with a single [write] sequence and verified on
    receipt.  A frame that fails its checksum reads exactly like EOF
    ({!Closed}): the connection is dropped and the session
    requeue/rejoin path is the only recovery, so a worker dying
    mid-send, a damaged frame and a lost connection are one case.

    Work accounting is crash-consistent by construction: a worker holds
    at most one in-flight {e item} (a serialized frontier), reports
    terminated paths and the registry counts of the work behind them
    only in the single [Result] or [Checkpoint] message that retires
    the item, and answers a [Steal] by checkpointing its
    {e entire} remaining frontier in one atomic message.  If the process
    dies at any point before that message, the coordinator requeues the
    original item blob and no path can be double-counted or lost. *)

module Obs = S2e_obs
module Fault = S2e_fault.Fault
open Codec.Wire

exception Closed
(** Peer hung up (EOF/EPIPE/reset), sent a damaged frame, or stopped
    mid-frame — on a worker fd this means the session is lost. *)

(* v9: Welcome grants the worker its id space; snapshots (codec v6)
   carry ids as i64. *)
let version = 9

(** A terminated path, reduced to what the coordinator reports: the
    status string and the canonical test case. *)
type path = {
  p_status : string;
  p_case : (string * int64) list;
}

type msg =
  | Hello of { version : int; pid : int }
      (** worker → coordinator, once, immediately after spawn *)
  | Work of { item : int; budget : float; cases : bool; blob : string }
      (** coordinator → worker: explore this serialized state;
          [budget <= 0.] means unlimited.  [cases] asks for canonical
          test cases to be solved for each terminated path — off by
          default because it costs one cold solver query per path. *)
  | Steal  (** coordinator → worker: give back your surplus frontier *)
  | Ping  (** coordinator → worker: liveness probe *)
  | Shutdown  (** coordinator → worker: checkpoint, report and exit *)
  | Heartbeat of { pid : int; frontier : int; now : float; trace : string }
      (** worker → coordinator: alive, with current frontier size.  [now]
          is the worker's wall clock at send time (the coordinator derives
          a per-worker clock offset from it) and [trace] a drained
          {!Obs.Trace} chunk — [""] when tracing is off. *)
  | Nak of { item : int }
      (** worker → coordinator: steal declined (frontier too small) *)
  | Result of { item : int; paths : path list; obs : Obs.Metrics.snapshot }
      (** worker → coordinator: item fully drained.  [obs] is the
          worker registry's {!Obs.Metrics.delta} since its last report,
          so a worker's counters reach the coordinator with the work
          that produced them. *)
  | Checkpoint of {
      item : int;
      paths : path list;
      obs : Obs.Metrics.snapshot;
      states : string list;  (** serialized unexplored frontier *)
    }
      (** worker → coordinator: item retired early (steal, shutdown or
          budget); paths/obs cover work done so far, [states] is the
          whole remaining frontier *)
  | Bye of { obs : Obs.Metrics.snapshot; now : float; trace : string }
      (** worker → coordinator: the registry delta since the last
          report plus the last trace chunk, sent just before exit *)
  | Welcome of {
      wid : int;
      token : string;
      lease : float;
      resume : bool;
      space : int;
    }
      (** coordinator → worker: admission over TCP.  [wid]/[token]
          identify the session for later {!Rejoin}; [lease] is the
          liveness window in seconds (a worker silent past it is
          presumed dead and its item requeued).  [resume] tells a
          rejoining worker to carry on with the item it holds; without
          it the worker discards that item's frontier.  [space] is the
          session's id space, the same on every rejoin. *)
  | Rejoin of {
      wid : int;
      token : string;
      pid : int;
      held : int option;
    }
      (** worker → coordinator: a returning worker re-authenticates its
          session (in place of [Hello]) after a connection loss.
          [held] is the item it has not retired yet.  The coordinator
          answers with a fresh [Welcome], resuming that item if the
          session still holds it and requeueing the session's item
          otherwise. *)
  | Deny of { reason : string }
      (** coordinator → worker: admission or rejoin refused (version or
          token mismatch, at capacity, draining); the worker exits. *)

(* ------------------------------------------------------------------ *)
(* Payload encoding                                                    *)
(* ------------------------------------------------------------------ *)

let encode_path b p =
  str b p.p_status;
  list b
    (fun (name, v) ->
      str b name;
      i64 b v)
    p.p_case

let decode_path r =
  let p_status = rstr r in
  let p_case =
    rlist r (fun r ->
        let name = rstr r in
        let v = ri64 r in
        (name, v))
  in
  { p_status; p_case }

let encode_obs_value b (v : Obs.Metrics.value) =
  match v with
  | Int n ->
      u8 b 0;
      i64 b (Int64.of_int n)
  | Float f ->
      u8 b 1;
      f64 b f
  | Hist { bounds; counts; sum } ->
      u8 b 2;
      u32 b (Array.length bounds);
      Array.iter (f64 b) bounds;
      u32 b (Array.length counts);
      Array.iter (fun c -> i64 b (Int64.of_int c)) counts;
      f64 b sum

let decode_obs_value r : Obs.Metrics.value =
  match ru8 r with
  | 0 -> Int (Int64.to_int (ri64 r))
  | 1 -> Float (rf64 r)
  | 2 ->
      let nb = ru32 r in
      if nb > 4096 then raise (Codec.Error "histogram bounds out of range");
      let bounds = Array.of_list (read_n r nb rf64) in
      let nc = ru32 r in
      if nc > 4096 then raise (Codec.Error "histogram counts out of range");
      let counts =
        Array.of_list (read_n r nc (fun r -> Int64.to_int (ri64 r)))
      in
      let sum = rf64 r in
      Hist { bounds; counts; sum }
  | t -> raise (Codec.Error (Printf.sprintf "unknown obs value tag %d" t))

let encode_obs b (snap : Obs.Metrics.snapshot) =
  list b
    (fun (name, v) ->
      str b name;
      encode_obs_value b v)
    snap

let decode_obs r : Obs.Metrics.snapshot =
  rlist r (fun r ->
      let name = rstr r in
      let v = decode_obs_value r in
      (name, v))

let encode_msg m =
  let b = create () in
  (match m with
  | Hello { version; pid } ->
      u8 b 0;
      u32 b version;
      u32 b pid
  | Work { item; budget; cases; blob } ->
      u8 b 1;
      u32 b item;
      f64 b budget;
      u8 b (if cases then 1 else 0);
      str b blob
  | Steal -> u8 b 2
  | Ping -> u8 b 3
  | Shutdown -> u8 b 4
  | Heartbeat { pid; frontier; now; trace } ->
      u8 b 5;
      u32 b pid;
      u32 b frontier;
      f64 b now;
      str b trace
  | Nak { item } ->
      u8 b 6;
      u32 b item
  | Result { item; paths; obs } ->
      u8 b 7;
      u32 b item;
      list b (encode_path b) paths;
      encode_obs b obs
  | Checkpoint { item; paths; obs; states } ->
      u8 b 8;
      u32 b item;
      list b (encode_path b) paths;
      encode_obs b obs;
      list b (str b) states
  | Bye { obs; now; trace } ->
      u8 b 9;
      encode_obs b obs;
      f64 b now;
      str b trace
  | Welcome { wid; token; lease; resume; space } ->
      u8 b 10;
      u32 b wid;
      str b token;
      f64 b lease;
      u8 b (if resume then 1 else 0);
      u32 b space
  | Rejoin { wid; token; pid; held } ->
      u8 b 11;
      u32 b wid;
      str b token;
      u32 b pid;
      (match held with
      | None -> u8 b 0
      | Some item ->
          u8 b 1;
          u32 b item)
  | Deny { reason } ->
      u8 b 12;
      str b reason);
  contents b

(* Strict inverse of [encode_msg] for a payload in [r] that ends exactly
   at [stop]. *)
let decode_msg r ~stop =
  let m =
    match ru8 r with
    | 0 ->
        let version = ru32 r in
        let pid = ru32 r in
        Hello { version; pid }
    | 1 ->
        let item = ru32 r in
        let budget = rf64 r in
        let cases = ru8 r <> 0 in
        let blob = rstr r in
        Work { item; budget; cases; blob }
    | 2 -> Steal
    | 3 -> Ping
    | 4 -> Shutdown
    | 5 ->
        let pid = ru32 r in
        let frontier = ru32 r in
        let now = rf64 r in
        let trace = rstr r in
        Heartbeat { pid; frontier; now; trace }
    | 6 -> Nak { item = ru32 r }
    | 7 ->
        let item = ru32 r in
        let paths = rlist r decode_path in
        let obs = decode_obs r in
        Result { item; paths; obs }
    | 8 ->
        let item = ru32 r in
        let paths = rlist r decode_path in
        let obs = decode_obs r in
        let states = rlist r rstr in
        Checkpoint { item; paths; obs; states }
    | 9 ->
        let obs = decode_obs r in
        let now = rf64 r in
        let trace = rstr r in
        Bye { obs; now; trace }
    | 10 ->
        let wid = ru32 r in
        let token = rstr r in
        let lease = rf64 r in
        let resume = ru8 r <> 0 in
        let space = ru32 r in
        Welcome { wid; token; lease; resume; space }
    | 11 ->
        let wid = ru32 r in
        let token = rstr r in
        let pid = ru32 r in
        let held = if ru8 r = 0 then None else Some (ru32 r) in
        Rejoin { wid; token; pid; held }
    | 12 -> Deny { reason = rstr r }
    | t -> raise (Codec.Error (Printf.sprintf "unknown message tag %d" t))
  in
  if pos r <> stop then raise (Codec.Error "trailing bytes after message");
  m

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let max_frame = 256 * 1024 * 1024

(* Transport-frame trace events: tag byte + payload length per frame. *)
let t_frame_send = Obs.Trace.intern "frame.send"
let t_frame_recv = Obs.Trace.intern "frame.recv"

let rec write_all fd buf ofs len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf ofs len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> raise Closed
    in
    write_all fd buf (ofs + n) (len - n)
  end

(* EAGAIN is a receive timeout ({!accept} sets one): the peer stopped
   mid-frame. *)
let rec read_exact fd buf ofs len =
  if len > 0 then begin
    let n =
      try Unix.read fd buf ofs len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> -1
      | Unix.Unix_error
          ((Unix.ECONNRESET | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          raise Closed
    in
    if n = 0 then raise Closed
    else if n < 0 then read_exact fd buf ofs len (* EINTR: retry *)
    else read_exact fd buf (ofs + n) (len - n)
  end

(* Which side sends a message and what kind it is, as
   ["coordinator.work"] or ["worker.result"]: every kind travels one way. *)
let frame_name = function
  | Work _ -> "coordinator.work"
  | Steal -> "coordinator.steal"
  | Ping -> "coordinator.ping"
  | Shutdown -> "coordinator.shutdown"
  | Welcome _ -> "coordinator.welcome"
  | Deny _ -> "coordinator.deny"
  | Hello _ -> "worker.hello"
  | Heartbeat _ -> "worker.heartbeat"
  | Nak _ -> "worker.nak"
  | Result _ -> "worker.result"
  | Checkpoint _ -> "worker.checkpoint"
  | Bye _ -> "worker.bye"
  | Rejoin _ -> "worker.rejoin"

let send fd m =
  let payload = encode_msg m in
  let len = String.length payload in
  if len > max_frame then raise (Codec.Error "frame too large");
  if Obs.Trace.enabled () then
    Obs.Trace.instant ~a:(Char.code payload.[0]) ~b:len t_frame_send;
  let frame = Bytes.create (len + 8) in
  Bytes.set_int32_le frame 0 (Int32.of_int len);
  Bytes.blit_string payload 0 frame 4 len;
  Bytes.set_int32_le frame (len + 4)
    (Int32.of_int (Codec.fnv32 payload ~pos:0 ~len));
  (* The fault plan flips one payload byte and leaves the length intact,
     so the receiver reads the whole frame and its checksum catches the
     damage.  A [dist.corrupted.<side>.<kind>] counter names each
     damaged frame, so a chaos run that misbehaves says which frames its
     faults hit. *)
  if Fault.(fire Proto_corrupt) then begin
    Obs.Metrics.incr (Obs.Metrics.counter ("dist.corrupted." ^ frame_name m));
    let off = 4 + (len / 2) in
    Bytes.set frame off (Char.chr (Char.code (Bytes.get frame off) lxor 0x40))
  end;
  write_all fd frame 0 (len + 8)

(* The payload and its checksum are read into one buffer and decoded in
   place: snapshot-carrying frames exceed the minor heap's size limit, so
   every extra copy is a major-heap allocation. *)
let recv fd =
  let hdr = Bytes.create 4 in
  read_exact fd hdr 0 4;
  let len = Int32.to_int (Bytes.get_int32_le hdr 0) land 0xFFFFFFFF in
  if len > max_frame then raise Closed;
  let body = Bytes.create (len + 4) in
  read_exact fd body 0 (len + 4);
  let frame = Bytes.unsafe_to_string body in
  if ru32 (reader ~pos:len frame) <> Codec.fnv32 frame ~pos:0 ~len then
    raise Closed;
  if Obs.Trace.enabled () && len > 0 then
    Obs.Trace.instant ~a:(Char.code frame.[0]) ~b:len t_frame_recv;
  decode_msg (reader frame) ~stop:len

let recv_opt fd ~timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> None
  | _ -> Some (recv fd)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None

(* Unix.file_descr is an int on Unix systems. *)
external fd_of_int : int -> Unix.file_descr = "%identity"

(* ------------------------------------------------------------------ *)
(* TCP transport                                                       *)
(* ------------------------------------------------------------------ *)

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> raise Not_found
    | h -> h.Unix.h_addr_list.(0))

(* The protocol is request/response at heartbeat granularity; Nagle +
   delayed ACK would add ~40ms to every exchange, so disable it. *)
let nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let listen ~host ~port =
  let addr = resolve host in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (addr, port));
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> invalid_arg "Proto.bound_port: not an inet socket"

(* A peer that stops mid-frame must not freeze the coordinator's
   single-threaded loop: a read on an accepted socket that waits this
   long for its next byte raises {!Closed}.  Within the coordinator's
   5 s handshake deadline. *)
let read_timeout = 2.

let accept lfd =
  let fd, peer = Unix.accept lfd in
  nodelay fd;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout;
  let addr =
    match peer with
    | Unix.ADDR_INET (a, p) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
    | Unix.ADDR_UNIX s -> s
  in
  (fd, addr)

let dial ~host ~port =
  let addr = resolve host in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (addr, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  nodelay fd;
  fd
