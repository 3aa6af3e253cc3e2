(** Length-prefixed socket message protocol between the coordinator and
    its worker processes.

    Every message travels in one frame: [u32 length | payload | u32
    checksum], with the payload's first byte a message tag.  A frame is
    written with a single [write] sequence and verified on receipt, so a
    worker dying mid-send surfaces as {!Closed} or a checksum
    {!Codec.Error} — never as a silently half-read message.

    Work accounting is crash-consistent by construction: a worker holds
    at most one in-flight {e item} (a serialized frontier), reports
    terminated paths only in the single [Result] or [Checkpoint] message
    that retires the item, and answers a [Steal] by checkpointing its
    {e entire} remaining frontier in one atomic message.  If the process
    dies at any point before that message, the coordinator requeues the
    original item blob and no path can be double-counted or lost. *)

module Solver = S2e_solver.Solver
module Obs = S2e_obs
module Executor = S2e_core.Executor
module Fault = S2e_fault.Fault
open Codec.Wire

exception Closed
(** Peer hung up (EOF/EPIPE/reset) — on a worker fd this means the
    process died or exited. *)

(* v5: solver stats carry incremental-reuse and learned-clause fields. *)
let version = 5

(** A terminated path, reduced to what the coordinator reports: the
    status string and the canonical test case. *)
type path = {
  p_status : string;
  p_case : (string * int64) list;
}

type msg =
  | Hello of { version : int; pid : int; jobs : int }
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
  | Result of {
      item : int;
      paths : path list;
      stats : Executor.stats;
      solver : Solver.stats;
    }  (** worker → coordinator: item fully drained *)
  | Checkpoint of {
      item : int;
      paths : path list;
      stats : Executor.stats;
      solver : Solver.stats;
      states : string list;  (** serialized unexplored frontier *)
    }
      (** worker → coordinator: item retired early (steal, shutdown or
          budget); paths/stats cover work done so far, [states] is the
          whole remaining frontier *)
  | Bye of { obs : Obs.Metrics.snapshot; now : float; trace : string }
      (** worker → coordinator: final telemetry plus the last trace
          chunk, sent just before exit *)
  | Resend of { from : int }
      (** either direction: frames from sequence number [from] onwards
          were damaged or lost; retransmit them.  Control traffic — never
          delivered to the application, never fault-injected. *)
  | Welcome of { wid : int; token : string; lease : float; baseline : string }
      (** coordinator → worker: admission over TCP.  [wid]/[token]
          identify the session for later {!Rejoin}; [lease] is the
          liveness window in seconds (a worker silent past it is
          presumed dead and its item requeued); [baseline] the shared
          baseline snapshot blob for {!Codec.encode_delta}. *)
  | Rejoin of { wid : int; token : string; pid : int; jobs : int }
      (** worker → coordinator: a returning worker re-authenticates its
          session (in place of [Hello]) after a connection loss.  The
          coordinator requeues whatever item the session held — the
          worker discarded its in-flight frontier — and answers with a
          fresh [Welcome]. *)
  | Deny of { reason : string }
      (** coordinator → worker: admission or rejoin refused (version or
          token mismatch, at capacity, draining); the worker exits. *)

(* ------------------------------------------------------------------ *)
(* Payload encoding                                                    *)
(* ------------------------------------------------------------------ *)

let encode_exec_stats b (s : Executor.stats) =
  i64 b (Int64.of_int s.states_created);
  i64 b (Int64.of_int s.states_completed);
  i64 b (Int64.of_int s.max_live_states);
  i64 b (Int64.of_int s.forks);
  i64 b (Int64.of_int s.concrete_instret);
  i64 b (Int64.of_int s.sym_instret);
  i64 b (Int64.of_int s.footprint_watermark);
  i64 b (Int64.of_int s.concretizations);
  i64 b (Int64.of_int s.aborts);
  i64 b (Int64.of_int s.degradations)

let decode_exec_stats r : Executor.stats =
  let n () = Int64.to_int (ri64 r) in
  let states_created = n () in
  let states_completed = n () in
  let max_live_states = n () in
  let forks = n () in
  let concrete_instret = n () in
  let sym_instret = n () in
  let footprint_watermark = n () in
  let concretizations = n () in
  let aborts = n () in
  let degradations = n () in
  {
    Executor.states_created;
    states_completed;
    max_live_states;
    forks;
    concrete_instret;
    sym_instret;
    footprint_watermark;
    concretizations;
    aborts;
    degradations;
  }

let encode_solver_stats b (s : Solver.stats) =
  i64 b (Int64.of_int s.queries);
  i64 b (Int64.of_int s.sat_queries);
  i64 b (Int64.of_int s.cache_hits);
  i64 b (Int64.of_int s.unknowns);
  f64 b s.total_time;
  f64 b s.max_time;
  i64 b (Int64.of_int s.prefix_reused);
  f64 b s.prefix_reused_time;
  i64 b (Int64.of_int s.inc_hits);
  i64 b (Int64.of_int s.inc_partials);
  i64 b (Int64.of_int s.sat_learned);
  i64 b (Int64.of_int s.sat_kept)

let decode_solver_stats r : Solver.stats =
  let queries = Int64.to_int (ri64 r) in
  let sat_queries = Int64.to_int (ri64 r) in
  let cache_hits = Int64.to_int (ri64 r) in
  let unknowns = Int64.to_int (ri64 r) in
  let total_time = rf64 r in
  let max_time = rf64 r in
  let prefix_reused = Int64.to_int (ri64 r) in
  let prefix_reused_time = rf64 r in
  let inc_hits = Int64.to_int (ri64 r) in
  let inc_partials = Int64.to_int (ri64 r) in
  let sat_learned = Int64.to_int (ri64 r) in
  let sat_kept = Int64.to_int (ri64 r) in
  { Solver.queries; sat_queries; cache_hits; unknowns; total_time; max_time;
    prefix_reused; prefix_reused_time; inc_hits; inc_partials; sat_learned;
    sat_kept }

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
  | Hello { version; pid; jobs } ->
      u8 b 0;
      u32 b version;
      u32 b pid;
      u32 b jobs
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
  | Result { item; paths; stats; solver } ->
      u8 b 7;
      u32 b item;
      list b (encode_path b) paths;
      encode_exec_stats b stats;
      encode_solver_stats b solver
  | Checkpoint { item; paths; stats; solver; states } ->
      u8 b 8;
      u32 b item;
      list b (encode_path b) paths;
      encode_exec_stats b stats;
      encode_solver_stats b solver;
      list b (str b) states
  | Bye { obs; now; trace } ->
      u8 b 9;
      encode_obs b obs;
      f64 b now;
      str b trace
  | Resend { from } ->
      u8 b 10;
      u32 b from
  | Welcome { wid; token; lease; baseline } ->
      u8 b 11;
      u32 b wid;
      str b token;
      f64 b lease;
      str b baseline
  | Rejoin { wid; token; pid; jobs } ->
      u8 b 12;
      u32 b wid;
      str b token;
      u32 b pid;
      u32 b jobs
  | Deny { reason } ->
      u8 b 13;
      str b reason);
  contents b

let decode_msg payload =
  let r = reader payload in
  let m =
    match ru8 r with
    | 0 ->
        let version = ru32 r in
        let pid = ru32 r in
        let jobs = ru32 r in
        Hello { version; pid; jobs }
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
        let stats = decode_exec_stats r in
        let solver = decode_solver_stats r in
        Result { item; paths; stats; solver }
    | 8 ->
        let item = ru32 r in
        let paths = rlist r decode_path in
        let stats = decode_exec_stats r in
        let solver = decode_solver_stats r in
        let states = rlist r rstr in
        Checkpoint { item; paths; stats; solver; states }
    | 9 ->
        let obs = decode_obs r in
        let now = rf64 r in
        let trace = rstr r in
        Bye { obs; now; trace }
    | 10 -> Resend { from = ru32 r }
    | 11 ->
        let wid = ru32 r in
        let token = rstr r in
        let lease = rf64 r in
        let baseline = rstr r in
        Welcome { wid; token; lease; baseline }
    | 12 ->
        let wid = ru32 r in
        let token = rstr r in
        let pid = ru32 r in
        let jobs = ru32 r in
        Rejoin { wid; token; pid; jobs }
    | 13 -> Deny { reason = rstr r }
    | t -> raise (Codec.Error (Printf.sprintf "unknown message tag %d" t))
  in
  if pos r <> String.length payload then
    raise (Codec.Error "trailing bytes after message");
  m

(* ------------------------------------------------------------------ *)
(* Framing and retransmission                                          *)
(* ------------------------------------------------------------------ *)

let max_frame = 256 * 1024 * 1024

(* Retransmit window: recent frames kept for Resend service.  A peer
   that falls further behind than this has desynchronized for real and
   is handled by the crash/requeue path. *)
let window_frames = 32

(* Consecutive damaged/out-of-order frames tolerated before the
   connection is declared unrecoverable. *)
let max_bad_streak = 64

(* Process-wide transport-recovery telemetry: counted on both ends, so
   the coordinator's merged snapshot accounts for worker-side recoveries
   too (they arrive with the worker's [Bye] snapshot). *)
let m_naks = Obs.Metrics.counter "dist.naks"
let m_retransmits = Obs.Metrics.counter "dist.retransmits"

(* Transport-frame trace events: tag byte + payload length per frame, and
   instants for the recovery traffic. *)
let t_frame_send = Obs.Trace.intern "frame.send"
let t_frame_recv = Obs.Trace.intern "frame.recv"
let t_frame_nak = Obs.Trace.intern "frame.nak"
let t_frame_retransmit = Obs.Trace.intern "frame.retransmit"

(** One end of a coordinator↔worker socket.  Frames carry sequence
    numbers ([u32 len | u32 seq | payload | u32 checksum]); the receiver
    delivers strictly in order, answering a damaged or out-of-order
    frame with [Resend] and dropping duplicates, so a frame corrupted in
    flight (or by the [proto.corrupt] fault plan) is recovered without
    losing or double-delivering a message. *)
type conn = {
  fd : Unix.file_descr;
  mutable tx_seq : int;  (* last sequence number sent *)
  mutable rx_seq : int;  (* last sequence number accepted in order *)
  window : (int * string) Queue.t;  (* clean recent frames, oldest first *)
  mutable naks : int;  (* Resend requests we sent *)
  mutable retransmits : int;  (* frames we re-sent on peer request *)
  mutable injected : int;  (* corruptions injected by the fault plan *)
  mutable streak : int;  (* consecutive bad frames seen *)
}

let connect fd =
  {
    fd;
    tx_seq = 0;
    rx_seq = 0;
    window = Queue.create ();
    naks = 0;
    retransmits = 0;
    injected = 0;
    streak = 0;
  }

let rec write_all fd buf ofs len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf ofs len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> raise Closed
    in
    write_all fd buf (ofs + n) (len - n)
  end

let rec read_exact fd buf ofs len =
  if len > 0 then begin
    let n =
      try Unix.read fd buf ofs len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> -1
      | Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Closed
    in
    if n = 0 then raise Closed
    else if n < 0 then read_exact fd buf ofs len (* EINTR: retry *)
    else read_exact fd buf (ofs + n) (len - n)
  end

let frame_of ~seq payload =
  let b = create () in
  u32 b (String.length payload);
  u32 b seq;
  raw b payload;
  u32 b (Codec.fnv32 payload lxor seq);
  contents b

let write_frame c frame =
  write_all c.fd (Bytes.unsafe_of_string frame) 0 (String.length frame)

(* Flip one payload byte of a copy of the frame.  The length/seq header
   stays intact so the receiver still reads whole frames off the stream;
   the checksum catches the damage and triggers retransmission.  (Truly
   torn frames — partial writes from a dying peer — desynchronize the
   stream and are exercised by the worker-kill path instead.) *)
let corrupted frame =
  let b = Bytes.of_string frame in
  let off = 8 + ((Bytes.length b - 12) / 2) in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  Bytes.to_string b

let send c m =
  let payload = encode_msg m in
  if String.length payload > max_frame then
    raise (Codec.Error "frame too large");
  if Obs.Trace.enabled () then
    Obs.Trace.instant ~a:(Char.code payload.[0]) ~b:(String.length payload)
      t_frame_send;
  c.tx_seq <- c.tx_seq + 1;
  let seq = c.tx_seq in
  let frame = frame_of ~seq payload in
  Queue.push (seq, frame) c.window;
  if Queue.length c.window > window_frames then ignore (Queue.pop c.window);
  let wire =
    (* Resend frames are exempt from injection, and retransmissions are
       served verbatim from the window: recovery itself always makes
       progress, even at corruption probability 1. *)
    match m with
    | Resend _ -> frame
    | _ ->
        if Fault.(fire Proto_corrupt) then begin
          c.injected <- c.injected + 1;
          corrupted frame
        end
        else frame
  in
  write_frame c wire

(* The peer reported a gap starting at [from]: re-send every windowed
   frame from there on, verbatim (original seq, no fault injection).
   The receiver's in-order discipline drops whatever it already had. *)
let serve_resend c ~from =
  if from <= c.tx_seq then begin
    (match Queue.peek_opt c.window with
    | Some (first, _) when from < first ->
        raise (Codec.Error "resend request beyond retransmit window")
    | _ -> ());
    Queue.iter
      (fun (seq, frame) ->
        if seq >= from then begin
          c.retransmits <- c.retransmits + 1;
          Obs.Metrics.incr m_retransmits;
          Obs.Trace.instant ~a:seq t_frame_retransmit;
          write_frame c frame
        end)
      c.window
  end

let request_resend c =
  c.streak <- c.streak + 1;
  if c.streak > max_bad_streak then
    raise (Codec.Error "unrecoverable frame corruption");
  c.naks <- c.naks + 1;
  Obs.Metrics.incr m_naks;
  Obs.Trace.instant ~a:(c.rx_seq + 1) t_frame_nak;
  send c (Resend { from = c.rx_seq + 1 })

(* One frame off the wire; [Error] on a checksum mismatch. *)
let read_frame c =
  let hdr = Bytes.create 8 in
  read_exact c.fd hdr 0 8;
  let r = reader (Bytes.to_string hdr) in
  let plen = ru32 r in
  if plen > max_frame then raise (Codec.Error "frame length out of range");
  let seq = ru32 r in
  let body = Bytes.create (plen + 4) in
  read_exact c.fd body 0 (plen + 4);
  let body = Bytes.to_string body in
  let payload = String.sub body 0 plen in
  let expect = ru32 (reader ~pos:plen body) in
  if expect = Codec.fnv32 payload lxor seq then Ok (seq, payload)
  else Error ()

(* Process one incoming frame.  [Some m] delivers a message; [None]
   means the frame was control traffic, a duplicate, or damaged (the
   latter answered with a Resend request). *)
let process c =
  match read_frame c with
  | Error () ->
      request_resend c;
      None
  | Ok (seq, payload) ->
      if seq <= c.rx_seq then None (* duplicate of an accepted frame *)
      else if seq > c.rx_seq + 1 then begin
        (* gap: an earlier frame never checked out *)
        request_resend c;
        None
      end
      else begin
        c.rx_seq <- seq;
        c.streak <- 0;
        if Obs.Trace.enabled () && String.length payload > 0 then
          Obs.Trace.instant ~a:(Char.code payload.[0])
            ~b:(String.length payload) t_frame_recv;
        match decode_msg payload with
        | Resend { from } ->
            serve_resend c ~from;
            None
        | m -> Some m
      end

let rec recv c = match process c with Some m -> m | None -> recv c

(** Wait up to [timeout] seconds for a frame; [None] on timeout or when
    the frame was consumed as control/recovery traffic.  [timeout = 0.]
    polls. *)
let recv_opt c ~timeout =
  match Unix.select [ c.fd ] [] [] timeout with
  | [], _, _ -> None
  | _ -> process c
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

let accept lfd =
  let fd, peer = Unix.accept lfd in
  nodelay fd;
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
