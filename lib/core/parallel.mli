(** Parallel multi-path exploration over OCaml 5 domains.

    One {!pool} of [jobs] persistent engines drives every mode: {!explore}
    (a pool, a boot, one run), distributed workers (one pool per process,
    run in slices) and a coordinator exploring on its own.  Each engine
    is a private {!Executor.t} — hence a private {!Searcher.t},
    translation cache, event bus and {!S2e_solver.Solver.ctx}.  With
    [jobs > 1] a run spawns one domain per engine, and the domains
    cooperate through a single mutex-protected steal pool: a worker
    donates frontier states at fork points while peers are idle (oldest
    fork points first, the richest unexplored subtrees), and an idle
    worker adopts a pooled state in O(1).

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

type pool
(** [jobs] engines with their event hooks registered, kept across runs:
    translation caches and solver contexts stay warm from one run (or
    slice) to the next. *)

val pool : jobs:int -> make_engine:(unit -> Executor.t) -> pool
(** [make_engine] runs once per engine and must return a fully
    configured engine (image loaded, unit declared, plugins attached);
    each is then given a private solver context.
    @raise Invalid_argument if [jobs < 1]. *)

val engine : pool -> Executor.t
(** The first engine: boots initial states and holds the base image
    decoded states are rebuilt over. *)

val adopt : pool -> State.t -> unit
(** Add a state to the frontier (engines take adopted states in turn). *)

val run : ?limits:Executor.run_limits -> pool -> unit
(** Explore until the frontier drains or a limit fires.  With one engine
    this is {!Executor.run_loop}, whose instruction and completion
    limits count over the engine's life; with more, each run spawns one
    domain per engine, its limits count from the run's start, and states
    left in the steal pool are adopted back when it ends. *)

val frontier : pool -> State.t list
(** Live states of every engine: empty once a run drained. *)

val drain : pool -> State.t list
(** States terminated since the last drain, oldest first per engine. *)

val drop : pool -> unit
(** Remove the whole frontier without terminating it (after it was
    shipped elsewhere). *)

val quiesce : pool -> unit
(** Call every engine's [quiesce] hook: release merge-parked states and
    strip engine-local rendezvous ids before the frontier leaves the
    pool. *)

val explore :
  ?jobs:int ->
  ?limits:Executor.run_limits ->
  make_engine:(unit -> Executor.t) ->
  boot:(Executor.t -> State.t) ->
  unit ->
  result
(** [explore ~jobs ~make_engine ~boot ()] builds a {!pool}, boots the
    initial state on its first engine via [boot], and runs until the
    frontier drains or a limit fires.
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
