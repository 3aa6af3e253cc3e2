(** Length-prefixed, checksummed, sequence-numbered socket message
    protocol between the coordinator and its worker processes.

    Frame layout: [u32 payload-length | u32 seq | payload | u32
    (FNV-1a(payload) lxor seq)].  Each direction numbers its frames
    1, 2, 3, …; the receiver delivers strictly in order.  A damaged
    frame (checksum mismatch) or a sequence gap is answered with a
    [Resend] request and the sender retransmits the missing frames
    verbatim from a small window — so a corrupted frame (in flight, or
    injected by the [proto.corrupt] fault plan) is recovered without
    losing or double-delivering a message.  Only an unrecoverable
    stream (a resend reaching beyond the window, or a long streak of
    bad frames) raises {!Codec.Error}; a dead peer raises {!Closed}.

    The work-accounting state machine is crash-consistent: a worker
    holds at most one in-flight item, retires it with exactly one
    [Result] (frontier drained) or [Checkpoint] (steal / shutdown /
    budget: remaining frontier returned whole, in one atomic message),
    and a worker death before that message simply requeues the original
    item blob — no path is lost or double-counted. *)

module Solver = S2e_solver.Solver
module Obs = S2e_obs
module Executor = S2e_core.Executor

exception Closed
(** Peer hung up: EOF, EPIPE or connection reset. *)

val version : int
(** Protocol version carried in [Hello]; a mismatch is fatal. *)

(** A terminated path as the coordinator reports it. *)
type path = {
  p_status : string;
      (** {!S2e_core.State.report_string} of the end state (includes the
          [incomplete] marker for degraded paths) *)
  p_case : (string * int64) list;
      (** canonical test case ({!S2e_core.Parallel.test_case}); [[]]
          when the run did not request test cases *)
}

type msg =
  | Hello of { version : int; pid : int; jobs : int }
  | Work of { item : int; budget : float; cases : bool; blob : string }
  | Steal
  | Ping
  | Shutdown
  | Heartbeat of { pid : int; frontier : int; now : float; trace : string }
      (** [now] is the worker's wall clock at send time (for per-worker
          clock-offset normalization) and [trace] a drained
          {!Obs.Trace} chunk — [""] when tracing is off *)
  | Nak of { item : int }
  | Result of {
      item : int;
      paths : path list;
      stats : Executor.stats;
      solver : Solver.stats;
    }
  | Checkpoint of {
      item : int;
      paths : path list;
      stats : Executor.stats;
      solver : Solver.stats;
      states : string list;
    }
  | Bye of { obs : Obs.Metrics.snapshot; now : float; trace : string }
  | Resend of { from : int }
      (** transport-recovery control traffic: "retransmit every frame
          from sequence number [from]".  Handled inside {!recv}/
          {!recv_opt}, never delivered to the application, and never
          fault-injected (recovery always makes progress). *)
  | Welcome of { wid : int; token : string; lease : float; baseline : string }
      (** coordinator → worker: TCP admission.  [wid]/[token] name the
          session for {!Rejoin}; [lease] the liveness window in
          seconds; [baseline] the shared snapshot blob deltas are
          encoded against. *)
  | Rejoin of { wid : int; token : string; pid : int; jobs : int }
      (** worker → coordinator: re-authenticate an existing session
          after a connection loss (in place of [Hello]) *)
  | Deny of { reason : string }
      (** coordinator → worker: admission/rejoin refused; worker exits *)

val encode_msg : msg -> string
(** Payload bytes (no frame header); exposed for tests. *)

val decode_msg : string -> msg
(** Strict inverse of {!encode_msg}.  @raise Codec.Error on malformed
    payloads. *)

type conn = {
  fd : Unix.file_descr;
  mutable tx_seq : int;  (** last sequence number sent *)
  mutable rx_seq : int;  (** last sequence number accepted in order *)
  window : (int * string) Queue.t;
      (** clean recent frames kept for retransmission, oldest first *)
  mutable naks : int;  (** [Resend] requests this end sent *)
  mutable retransmits : int;  (** frames re-sent on peer request *)
  mutable injected : int;  (** corruptions injected by the fault plan *)
  mutable streak : int;  (** consecutive bad frames seen *)
}
(** One end of a coordinator↔worker socket: the fd plus the sequencing
    and retransmission state.  Counter fields are exposed so the
    coordinator can fold per-connection recovery telemetry into its
    final report. *)

val connect : Unix.file_descr -> conn
(** Wrap a connected socket.  Both ends must wrap the same stream
    exactly once; sequence numbers start at 1. *)

val send : conn -> msg -> unit
(** Frame, window and write the whole message; injection point of the
    [proto.corrupt] fault plan.  @raise Closed if the peer died. *)

val recv : conn -> msg
(** Block until one application message is delivered in order (recovery
    traffic is serviced internally).  @raise Closed on EOF,
    @raise Codec.Error on an unrecoverable stream. *)

val recv_opt : conn -> timeout:float -> msg option
(** Wait up to [timeout] seconds ([0.] polls); [None] on timeout or when
    the frame read was consumed as recovery/control traffic (duplicate,
    damaged-and-NAKed, or [Resend] service). *)

val fd_of_int : int -> Unix.file_descr
(** Unix file descriptors are ints; lets a freshly forked process close
    every descriptor it inherited by number. *)

val listen : host:string -> port:int -> Unix.file_descr
(** Bind and listen on [host:port] (with [SO_REUSEADDR]); [port = 0]
    picks an ephemeral port, recovered with {!bound_port}.  [host] may
    be a dotted quad or a resolvable name. *)

val bound_port : Unix.file_descr -> int
(** Local port of a bound socket. *)

val accept : Unix.file_descr -> Unix.file_descr * string
(** Accept one pending connection off a {!listen} socket; returns the
    connected fd (with [TCP_NODELAY] set) and a printable peer
    address. *)

val dial : host:string -> port:int -> Unix.file_descr
(** Connect to a coordinator at [host:port]; [TCP_NODELAY] set.
    Raises the underlying [Unix.Unix_error] on failure (callers retry
    with backoff). *)
