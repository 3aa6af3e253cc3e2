(** Coordinator: multi-process and multi-host distribution of the
    exploration frontier with crash-tolerant work accounting, one TCP
    admission path for spawned and remote workers (leases, session
    rejoin), delta-encoded snapshot shipping, coordinator-solo
    degradation, and merged telemetry.  See {!explore}. *)

module Executor = S2e_core.Executor
module State = S2e_core.State
module Solver = S2e_solver.Solver
module Obs = S2e_obs

(** How to start an owned worker process.  Either way the worker dials
    the coordinator's listener and is admitted like any other. *)
type spawn =
  | Fork of { jobs : int; slice : float; make_engine : unit -> Executor.t }
      (** [Unix.fork] and run {!Worker.serve_tcp} in the child.  Only
          safe while no OCaml domain has been spawned in this process. *)
  | Exec of { argv : string array }
      (** Spawn [argv @ ["--connect"; "HOST:PORT"]] (typically
          [s2e_cli worker ...]). *)

(** Scheduling events, exposed for logging and fault-injection tests. *)
type event =
  | Spawned of { pid : int; slot : int }
  | Dispatched of { pid : int; item : int }
  | Completed of { pid : int; item : int; paths : int }
  | Checkpointed of { pid : int; item : int; states : int }
  | Crashed of { pid : int; requeued : bool }
  | Respawned of { pid : int; slot : int }
  | Joined of { wid : int; addr : string }
      (** a remote worker completed its [Hello] handshake and was
          admitted *)
  | Rejoined of { wid : int; pid : int }
      (** a lost session re-authenticated with its token and resumed *)
  | Left of { wid : int; requeued : bool }
      (** a remote worker's connection died (EOF or expired lease); its
          session is kept so it may still [Rejoin] *)
  | Solo of { item : int }
      (** no workers left: the coordinator started exploring this item
          itself *)

type result = {
  procs : int;
  paths : Proto.path list;
      (** every terminated path, with its test case when [cases] was set *)
  stats : Executor.stats;  (** merged over workers + the local boot *)
  solver_stats : Solver.stats;
  obs : Obs.Metrics.snapshot;  (** merged worker registries + local *)
  steals : int;  (** checkpoints triggered by steal requests *)
  requeues : int;  (** in-flight items recovered from dead workers *)
  restarts : int;  (** owned worker processes respawned *)
  abandoned : (int * int) list;
      (** items given up after [max_item_attempts] worker deaths each:
          (item id, attempts).  Non-empty means exploration lost work —
          callers should report it and exit distinctly. *)
  naks : int;
      (** damaged/out-of-order frames NAKed (both directions, merged
          from the telemetry snapshots) *)
  retransmits : int;  (** frames re-sent on NAK, both directions *)
  injected : int;
      (** transport corruptions injected by the [proto.corrupt] fault
          plan, both directions *)
  unexplored : int;
      (** frontier states left when the run stopped, including one per
          abandoned item *)
  wall_seconds : float;
  joins : int;  (** remote workers admitted over the run *)
  reconnects : int;  (** remote sessions resumed via [Rejoin] *)
  leaves : int;
      (** remote worker connection losses (EOF or expired lease); a
          rejoining worker contributes one leave and one reconnect *)
  solo_paths : int;
      (** paths explored by the coordinator itself while degraded to
          solo mode *)
  delta_bytes : int;
      (** snapshot bytes actually shipped after delta encoding against
          the shared baseline (both directions, merged) *)
  delta_full_bytes : int;
      (** what the same snapshots would have cost shipped whole; the
          ratio [delta_bytes /. delta_full_bytes] is the compressor's
          report card *)
  trace : Obs.Trace.event list;
      (** merged event timeline (empty unless {!Obs.Trace} was enabled):
          worker trace chunks shipped over heartbeats and [Bye] frames,
          clock-offset normalized onto the coordinator's timeline and
          stamped with the worker's pid, interleaved with the
          coordinator's own events, sorted by timestamp *)
  trace_dropped : int;  (** trace-ring overwrites across all processes *)
}

val explore :
  ?procs:int ->
  ?limits:Executor.run_limits ->
  ?max_restarts:int ->
  ?max_item_attempts:int ->
  ?heartbeat_timeout:float ->
  ?cases:bool ->
  ?handle_sigint:bool ->
  ?listener:Unix.file_descr ->
  ?max_workers:int ->
  ?on_event:(event -> unit) ->
  spawn:spawn ->
  make_engine:(unit -> Executor.t) ->
  boot:(Executor.t -> State.t) ->
  unit ->
  result
(** [explore ~spawn ~make_engine ~boot ()] boots the initial state on a
    local engine, spawns [procs] owned worker processes (default 2), and
    drives the distributed frontier to exhaustion or until [limits] is
    hit.

    {b One transport.}  Every worker joins over TCP.  The coordinator
    listens on [listener] (a socket from {!Proto.listen}) when one is
    given, else on a loopback port of its own; owned workers dial that
    address (127.0.0.1 for a listener bound to any address), and remote
    workers ([s2e_cli worker --connect]) may dial [listener] and join or
    leave mid-run.  Each worker is admitted by a [Hello]/[Welcome]
    handshake that grants a session (wid + token), a liveness {e lease}
    of [heartbeat_timeout] seconds (default 10) and the run's shared
    baseline snapshot; work items ship whole, and checkpointed states
    come back delta-encoded against that baseline.  A [Hello] whose pid
    matches a spawned slot admits that owned worker, which is exempt
    from the [max_workers] cap (default 64) that limits admissions while
    that many workers are alive.

    Work items (serialized fork-point states) are dispatched one per
    worker with a budget of a few seconds scaled by the worker's
    observed throughput, so slow workers return their remainder early;
    when the queue runs dry the busiest worker is asked to
    [Steal]-checkpoint its frontier, which re-enters the queue.  With
    [cases] workers additionally solve the canonical test case of every
    terminated path (one cold solver query per path, amortized across
    slices); otherwise [p_case] fields come back empty.  When
    [handle_sigint] is set, Ctrl-C triggers a graceful drain: busy
    workers checkpoint, and the returned [unexplored] counts what was
    left.  [on_event] observes scheduling decisions (used by the
    fault-injection tests).

    {b Session loss} (EOF, an unrecoverable stream, or silence past the
    lease) always requeues the worker's in-flight item; the rest depends
    on process ownership alone.  An owned worker is killed, reaped,
    charged one attempt on its item (at most [max_item_attempts]
    attempts per item, default 3, before the item is abandoned) and
    respawned with backoff (at most [max_restarts] times, default 8).
    A remote worker's item is requeued {e without} charging an attempt —
    transport loss is presumed chaos, not a poison item — and the worker
    may resume its session by reconnecting with [Rejoin] and its token.

    {b Degradation ladder.}  When {e no} worker is alive for 0.35 s, the
    coordinator explores queued items itself on a serial worker slicer
    (solo mode) in short slices, still polling the listener so a
    late-joining worker can take over.  [procs = 0] runs solo unless a
    remote worker joins.  The run only abandons work for items that
    repeatedly kill owned workers, or when its own budget expires.

    The result merges every worker's paths, executor and solver stats,
    and metrics-registry snapshot with the coordinator's own.  The
    caller owns [listener] and closes it after [explore] returns. *)
