(** Coordinator: multi-process and multi-host distribution of the
    exploration frontier with crash-tolerant work accounting, one TCP
    admission path for spawned and remote workers (leases, session
    rejoin as the one recovery path, a private id space per worker
    process), coordinator-solo degradation, and merged telemetry.  See
    {!explore}. *)

module Executor = S2e_core.Executor
module State = S2e_core.State
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
      (** a worker whose connection was lost was admitted again and
          resumed its session *)
  | Left of { wid : int; requeued : bool }
      (** a worker's connection died (EOF, a damaged frame, or a remote
          worker's expired lease); its session is kept so it may
          rejoin *)
  | Solo of { item : int }
      (** no workers left: the coordinator started exploring this item
          itself *)

type result = {
  procs : int;
  paths : Proto.path list;
      (** every terminated path, with its test case when [cases] was set *)
  stats : Executor.stats;
      (** {!Executor.stats_of_obs} of exactly this run: the local
          registry's counts since [explore] began plus every worker
          delta received.  The two watermarks are maxima over the
          workers and this process's registry, which is not reset. *)
  obs : Obs.Metrics.snapshot;
      (** the local registry (cumulative over the process) merged with
          every worker delta received *)
  steals : int;  (** checkpoints triggered by steal requests *)
  requeues : int;  (** in-flight items recovered from dead workers *)
  restarts : int;  (** owned worker processes respawned *)
  abandoned : (int * int) list;
      (** items given up after [max_item_attempts] worker deaths each:
          (item id, attempts).  Non-empty means exploration lost work —
          callers should report it and exit distinctly. *)
  retransmits : int;
      (** always 0: a damaged frame is a disconnect, never re-sent.
          Kept for readers of the result record. *)
  injected : int;
      (** transport corruptions injected by the [proto.corrupt] fault
          plan, both directions *)
  unexplored : int;
      (** frontier states left when the run stopped, including one per
          abandoned item *)
  wall_seconds : float;
  joins : int;  (** remote workers admitted over the run *)
  reconnects : int;
      (** sessions, owned or remote, resumed after a connection loss *)
  leaves : int;
      (** connection losses of any worker (EOF, damaged frame, or a
          remote worker's expired lease); a rejoining worker
          contributes one leave and one reconnect *)
  solo_paths : int;
      (** paths explored by the coordinator itself while degraded to
          solo mode *)
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
    handshake that grants a session (wid + token), a liveness
    {e lease} of [heartbeat_timeout] seconds (default 10) and an id
    space ({!State.enter_id_space}): fresh for every spawned, respawned
    or remote process and never reused in this process, kept on
    [Rejoin].  The coordinator itself mints in space 0, so no two
    processes mint the same variable or state id.  Work items and
    checkpointed states ship whole.  A [Hello] or [Rejoin] whose pid
    matches a live spawned slot, from the address owned workers dial
    from, admits that owned worker, whatever the slot's state; a peer
    elsewhere is a remote worker whatever its pid.  Owned workers are
    exempt from the [max_workers] cap
    (default 64) that limits admissions while that many workers are
    alive.

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

    {b One loss rule.}  A lost connection (EOF or a damaged frame,
    which {!Proto} reports alike) never kills a worker: transport loss
    is presumed chaos, not a poison item, and the worker reconnects with
    [Rejoin].  A remote worker's in-flight item is requeued at once
    {e without} charging an attempt.  An owned worker keeps its item
    until it rejoins (its [Welcome] resumes the item when the [Rejoin]
    names it as still held; otherwise the item is requeued uncounted),
    is found dead by a non-blocking [waitpid] once its connection is
    gone (the frames it sent before exiting are read first), or stays
    silent past its lease (it is then killed).  A dead owned worker is reaped, charged one attempt on its
    item (at most [max_item_attempts] attempts per item, default 3,
    before the item is abandoned) and respawned with backoff (at most
    [max_restarts] times, default 8).  A remote worker silent past its
    lease loses its connection like any other.

    {b Degradation ladder.}  When {e no} worker is alive for 0.35 s, the
    coordinator explores queued items itself on a one-engine
    {!S2e_core.Parallel.pool} (solo mode) in short slices, still polling the listener so a
    late-joining worker can take over.  [procs = 0] runs solo unless a
    remote worker joins.  The run only abandons work for items that
    repeatedly kill owned workers, or when its own budget expires.

    The result merges every worker's paths and counters with the
    coordinator's own.  Counters arrive as registry deltas in the
    messages that retire items ([Result], [Checkpoint]) and in the
    final [Bye]; a requeued item's discarded work is counted by no one
    but the worker that finishes it.  The caller owns [listener] and
    closes it after [explore] returns. *)
