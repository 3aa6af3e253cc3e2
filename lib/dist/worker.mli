(** Worker-process side of distributed exploration: decode items, slice
    exploration through {!S2e_core.Parallel.explore_frontier}, service
    steal/shutdown/liveness between slices, and retire each item with
    one atomic [Result] or [Checkpoint]. *)

module Executor = S2e_core.Executor
module State = S2e_core.State
module Solver = S2e_solver.Solver

val serve :
  ?jobs:int ->
  ?slice:float ->
  ?heartbeat:float ->
  fd:Unix.file_descr ->
  make_engine:(unit -> Executor.t) ->
  unit ->
  unit
(** [serve ~fd ~make_engine ()] runs the worker loop on coordinator
    socket [fd] until a [Shutdown] arrives or the coordinator hangs up.

    [jobs] is the domains-per-process fan-out each slice uses (default
    1); [slice] the wall-clock seconds per exploration slice between
    control polls (default 0.05); [heartbeat] the liveness interval in
    seconds (default 0.25).  [make_engine] must return a fully
    configured engine whose loaded base image matches the
    coordinator's — snapshots pin the image fingerprint and a mismatch
    is a decode error.  Resets the default metrics registry on entry so
    the final [Bye] snapshot covers exactly this worker's work; ignores
    SIGINT/SIGPIPE (the coordinator owns shutdown). *)

val serve_tcp :
  ?jobs:int ->
  ?slice:float ->
  ?heartbeat:float ->
  ?max_retries:int ->
  host:string ->
  port:int ->
  make_engine:(unit -> Executor.t) ->
  unit ->
  unit
(** [serve_tcp ~host ~port ~make_engine ()] joins (and keeps rejoining)
    a TCP coordinator started with [s2e_cli serve --listen].

    The worker dials with exponential backoff plus jitter (50ms
    doubling to a 2s ceiling, at most [max_retries] consecutive
    failures, default 10), sends [Hello] and waits for a [Welcome]
    carrying its session id + token, its lease, and the shared baseline
    snapshot.  Item blobs arriving as deltas are expanded against the
    baseline; checkpointed frontier states ship back as deltas.  The
    heartbeat interval is clamped to a quarter of the granted lease.

    On a connection loss mid-run the half-explored frontier is
    discarded (the coordinator requeues the item when the lease
    expires), and the worker reconnects with [Rejoin], re-presenting
    its session token — the engine and its warm caches survive the
    reconnect.  A [Deny] (bad token, capacity, draining coordinator) or
    an orderly [Shutdown] ends the worker. *)

(** {2 Shared helpers}

    Exposed for the coordinator's solo-degradation mode (exploring
    items on its own boot engine when every worker is gone) and for
    tests. *)

val paths_of_state : cases:bool -> State.t -> Proto.path list
(** Reportable paths of a terminated state: one per case-tree leaf when
    [cases] is set (each model solved with one cold query), else a single
    status-only entry. *)

val copy_exec_stats : Executor.stats -> Executor.stats
val copy_solver_stats : Solver.stats -> Solver.stats

val exec_delta : prev:Executor.stats -> Executor.stats -> Executor.stats
(** Since-mark stats delta: counters subtract, watermarks pass through
    (the receiver merges watermarks with max). *)

val solver_delta : prev:Solver.stats -> Solver.stats -> Solver.stats
