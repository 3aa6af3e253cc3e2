(** Worker-process side of distributed exploration: decode items into
    one persistent {!S2e_core.Parallel.pool}, run it in slices, service
    steal/shutdown/liveness between slices, and retire each item with
    one atomic [Result] or [Checkpoint]. *)

module Executor = S2e_core.Executor
module Parallel = S2e_core.Parallel
module State = S2e_core.State

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
    a coordinator's TCP listener: one started with [s2e_cli serve
    --listen], or the loopback listener {!Coordinator.explore} opens for
    the worker processes it spawns itself ([--procs]).

    [jobs] is the number of engines in the worker's pool, each run on
    its own domain during a slice when [jobs > 1] (default 1); [slice]
    the wall-clock seconds per exploration slice between control polls
    (default 0.05); [heartbeat] the liveness interval in
    seconds (default 0.25), clamped to a quarter of the granted lease.
    [make_engine] must return a fully configured engine whose loaded
    base image matches the coordinator's — snapshots pin the image
    fingerprint and a mismatch is a decode error.

    The worker dials with exponential backoff plus jitter (50ms
    doubling to a 2s ceiling, at most [max_retries] consecutive
    failed dials, default 10), sends [Hello] and waits for a [Welcome]
    carrying its session id + token, its lease and its id space, which
    it enters ({!State.enter_id_space}) before any item arrives.  A handshake lost
    after a successful dial (a damaged frame) is retried after the
    shortest backoff and does not count toward [max_retries].
    Checkpointed frontier states ship back whole.

    On a connection loss mid-run (EOF, a damaged frame, or an injected
    [proto.disconnect]) the worker keeps the item it has not retired and
    reconnects with [Rejoin], re-presenting its session token and naming
    that item — the pool and its warm caches survive the reconnect, and
    the session keeps its id space.
    If the coordinator still holds the item for this session (an owned
    worker), its [Welcome] resumes it; otherwise the item was requeued
    and the worker discards the half-explored frontier, and the
    registry counts it has not reported, so no path or count is
    double-counted.  Owned and remote workers rejoin the same way.  A [Deny] (bad token, capacity, draining coordinator) or
    an orderly [Shutdown] ends the worker.

    Counters travel with work: each [Result] or [Checkpoint] carries the
    default registry's delta since the previous report, and the final
    [Bye] the remainder.  Resets the registry and trace rings on entry
    so those deltas cover exactly this worker's work; ignores
    SIGINT/SIGPIPE (the coordinator owns shutdown). *)

(** {2 Shared with the coordinator}

    The coordinator explores items on its own when no worker is alive
    (solo mode) on a one-engine pool it slices the same way. *)

val paths_of_state : cases:bool -> State.t -> Proto.path list
(** Reportable paths of a terminated state: one per case-tree leaf when
    [cases] is set (each model solved with one cold query), else a single
    status-only entry. *)

val run_slice : Parallel.pool -> slice:float -> deadline:float -> unit
(** Run the pool for at most [slice] seconds, ending no later than
    [deadline] (a [Unix.gettimeofday] time). *)
