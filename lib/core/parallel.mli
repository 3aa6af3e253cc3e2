(** Parallel multi-path exploration over OCaml 5 domains.

    The live-state frontier is partitioned across [jobs] workers.  Each
    worker owns a private {!Executor.t} — hence a private {!Searcher.t},
    translation cache, event bus and {!S2e_solver.Solver.ctx} — and the
    workers cooperate through a single mutex-protected steal pool: a
    worker donates frontier states at fork points while peers are idle
    (oldest fork points first, the richest unexplored subtrees), and an
    idle worker adopts a pooled state in O(1).

    Guarantees: [jobs = 1] is bit-for-bit the serial {!Executor.run};
    [jobs = N] terminates with the same *set* of completed paths and the
    same fork/termination totals as serial exploration (scheduling order
    and order-dependent aggregates such as the live-state high watermark
    may differ).  See {!test_case} for the canonical per-path witness
    used to compare runs. *)

type result = {
  jobs : int;
  completed : State.t list;  (** terminated states from every worker *)
  frontier : State.t list;
      (** states still live when a limit fired; empty on a drained run *)
  stats : Executor.stats;  (** aggregated over workers *)
  steals : int;  (** states adopted from the steal pool *)
  wall_seconds : float;
}

val explore :
  ?jobs:int ->
  ?limits:Executor.run_limits ->
  make_engine:(unit -> Executor.t) ->
  boot:(Executor.t -> State.t) ->
  unit ->
  result
(** [explore ~jobs ~make_engine ~boot ()] runs [make_engine] once per
    worker (each returned engine must be fully configured: image loaded,
    unit declared, plugins attached; it is then given a private solver
    context), boots the initial state from the first worker's engine via
    [boot], and explores until the frontier drains or a limit fires.
    @raise Invalid_argument if [jobs < 1]. *)

val explore_frontier :
  ?jobs:int ->
  ?limits:Executor.run_limits ->
  make_engine:(unit -> Executor.t) ->
  State.t list ->
  result
(** {!explore} over a frontier of already-created states instead of a
    fresh boot — the resumption primitive distributed workers use on
    states decoded from a coordinator snapshot.  The result's [frontier]
    holds whatever was still live when a limit fired, so exploration can
    be sliced: run with a small [max_seconds], service control messages,
    resume on [frontier].
    @raise Invalid_argument if [jobs < 1]. *)

val test_case : State.t -> (string * int64) list
(** Canonical concrete input assignment for a terminated path: every
    named symbolic variable in the path constraints bound under the
    deterministic cold-context model, sorted.  Equal across serial and
    parallel explorations of the same tree. *)

val test_cases : State.t -> (string * int64) list list
(** All test cases a terminated state stands for.  A never-merged state
    yields exactly [[test_case s]].  A state produced by [--merge]
    ite-joins expands its case tree — each join recorded both sides'
    original constraint suffixes — back into the enumerated paths'
    constraint lists and solves each, dropping unsatisfiable
    combinations, so sorted case lists compare equal between merged and
    enumerated exploration.  Each call solves on a private context. *)

val test_case_to_string : (string * int64) list -> string
(** ["name=value,..."] rendering of {!test_case}. *)
