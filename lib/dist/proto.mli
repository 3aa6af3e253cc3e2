(** Length-prefixed, checksummed socket message protocol between the
    coordinator and its worker processes.

    Frame layout: [u32 payload-length | payload | u32 FNV-1a(payload)].
    A damaged frame (checksum mismatch, in flight or injected by the
    [proto.corrupt] fault plan) reads exactly like EOF: {!recv} raises
    {!Closed}, the connection is dropped, and the session
    requeue/rejoin path is the one recovery for every loss.

    The work-accounting state machine is crash-consistent: a worker
    holds at most one in-flight item, retires it with exactly one
    [Result] (frontier drained) or [Checkpoint] (steal / shutdown /
    budget: remaining frontier returned whole, in one atomic message),
    and ships its counters, as a registry delta, in that same message.
    A session lost before that message either resumes the item on
    rejoin, if the coordinator still holds it for that worker, or
    requeues the original item blob — no path is lost or
    double-counted. *)

module Obs = S2e_obs

exception Closed
(** The connection is lost: EOF, EPIPE, connection reset, a frame that
    fails its checksum, or (on an {!accept}ed socket) a peer silent
    mid-frame past a fixed receive timeout. *)

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
  | Hello of { version : int; pid : int }
  | Work of { item : int; budget : float; cases : bool; blob : string }
  | Steal
  | Ping
  | Shutdown
  | Heartbeat of { pid : int; frontier : int; now : float; trace : string }
      (** [now] is the worker's wall clock at send time (for per-worker
          clock-offset normalization) and [trace] a drained
          {!Obs.Trace} chunk — [""] when tracing is off *)
  | Nak of { item : int }
  | Result of { item : int; paths : path list; obs : Obs.Metrics.snapshot }
      (** [obs]: the worker registry's delta since its last report *)
  | Checkpoint of {
      item : int;
      paths : path list;
      obs : Obs.Metrics.snapshot;
      states : string list;
    }
  | Bye of { obs : Obs.Metrics.snapshot; now : float; trace : string }
      (** [obs]: the registry delta since the last [Result] or
          [Checkpoint] *)
  | Welcome of {
      wid : int;
      token : string;
      lease : float;
      resume : bool;
      space : int;
    }
      (** coordinator → worker: TCP admission.  [wid]/[token] name the
          session for {!Rejoin}; [lease] the liveness window in seconds;
          [resume] lets a rejoining worker carry on with its held
          item; [space] is the session's id space
          ({!S2e_core.State.enter_id_space}), fresh per worker process
          and kept across rejoins. *)
  | Rejoin of {
      wid : int;
      token : string;
      pid : int;
      held : int option;
    }
      (** worker → coordinator: re-authenticate an existing session
          after a connection loss (in place of [Hello]); [held] is the
          item the worker has not retired yet *)
  | Deny of { reason : string }
      (** coordinator → worker: admission/rejoin refused; worker exits *)

val send : Unix.file_descr -> msg -> unit
(** Frame and write the whole message; injection point of the
    [proto.corrupt] fault plan.  @raise Closed if the peer died. *)

val recv : Unix.file_descr -> msg
(** Block until one message arrives.  @raise Closed on EOF or a damaged
    frame, @raise Codec.Error on a well-formed frame that does not
    decode. *)

val recv_opt : Unix.file_descr -> timeout:float -> msg option
(** Wait up to [timeout] seconds ([0.] polls) for a frame, then {!recv}
    it; [None] on timeout. *)

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
    connected fd and a printable peer address.  The fd has [TCP_NODELAY]
    and a fixed 2 s receive timeout, so a peer that stops mid-frame
    surfaces as {!Closed} instead of blocking its reader. *)

val dial : host:string -> port:int -> Unix.file_descr
(** Connect to a coordinator at [host:port]; [TCP_NODELAY] set.
    Raises the underlying [Unix.Unix_error] on failure (callers retry
    with backoff). *)
