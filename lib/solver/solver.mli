(** High-level constraint solver used by the symbolic execution engine.

    Sits above {!Bitblast}/{!Sat} and adds the optimizations KLEE/STP give
    the paper's prototype: independent-constraint slicing, a model cache
    (recent satisfying assignments re-tried by evaluation before any SAT
    call), an unsatisfiable-set cache, and statistics for the Fig. 9
    benchmarks.

    All mutable solver state lives in an explicit {!ctx}; every query
    function takes an optional [?ctx] defaulting to {!default_ctx}, so
    legacy single-threaded callers are unaffected while parallel workers
    ({!S2e_core.Parallel}) thread a private context each. *)

open S2e_expr

type result = Sat of Expr.model | Unsat | Unknown

(** SAT-core strategy for verdict queries ([--solver=...]):
    [Incremental] keeps a small ring of live SAT instances keyed on
    constraint-prefix hashes — a query whose prefix matches a live
    instance pops back to the common ancestor assumption level and asserts
    only the suffix, reusing the variable table, Tseitin encodings and
    learned clauses.  [Fresh] solves every query on a cold instance (the
    escape hatch and differential baseline).

    Value-producing queries ({!get_value}, {!check_model}) solve cold in
    every mode, so the concrete values the engine pins — and hence the
    explored path set and emitted test cases — are mode-independent. *)
type mode = Fresh | Incremental

val mode_name : mode -> string
val mode_of_string : string -> mode option

type stats = {
  mutable queries : int;
  mutable sat_queries : int; (** queries that reached the SAT core *)
  mutable cache_hits : int;
  mutable unknowns : int;
      (** queries answered [Unknown] — conflict budget or wall-clock
          watchdog exhausted, or an injected solver fault.  Counted
          separately so value-picking callers returning [None] on
          [Unknown] never silently masquerade as unsatisfiable. *)
  mutable total_time : float;
  mutable max_time : float;
  mutable prefix_reused : int;
      (** queries whose constraint prefix — the assumption stack below the
          query-specific condition, hashed with the interned per-node
          hashes — this context had already seen.  The share of
          [total_time] spent in such queries bounds what an incremental
          (assumption-stack) solver could save. *)
  mutable prefix_reused_time : float;
  mutable inc_hits : int;
      (** realized incremental reuse: probes answered on a live instance
          whose assumption stack matched the query's whole prefix *)
  mutable inc_partials : int;
      (** probes that popped a live instance to a common ancestor and
          asserted only a suffix *)
  mutable sat_learned : int;
      (** SAT-core learned clauses created, summed over instances *)
  mutable sat_kept : int;
      (** learned clauses currently live in the instance ring — the pool
          future prefix-matching queries reuse *)
}

type model_ring
(** Bounded ring of recently found models, most recent first.  Inspect
    through {!models} / {!latest_model}; drop through {!clear_caches}. *)

type instance
(** A live SAT instance of the incremental ring: a persistent
    {!Sat.t}/{!Bitblast.ctx} pair plus the constraint stack currently
    asserted as retractable assumption frames. *)

type ctx = {
  ctx_stats : stats;
  model_cache : model_ring;
  unsat_cache : (int, Expr.t list list) Hashtbl.t;
      (** Keyed by a mix of the constraints' interned hashes; both the
          per-key entry list and the key population are bounded. *)
  seen_prefixes : (int, unit) Hashtbl.t;
      (** Constraint-prefix hashes this context has queried before; feeds
          [stats.prefix_reused].  Bounded like the unsat cache. *)
  max_conflicts : int ref;
      (** SAT-core conflict budget per query; exceeding it yields
          [Unknown]. *)
  timeout_ms : float option ref;
      (** Wall-clock watchdog per SAT-core call ([--solver-timeout-ms]);
          exceeding it yields [Unknown]. *)
  mode : mode ref;  (** SAT-core strategy for verdict queries *)
  insts : instance option array;
      (** The incremental instance ring (LRU, bounded size and per-instance
          clause budget).  Empty in [Fresh] mode. *)
  mutable inst_tick : int;
}
(** One solver context: caches + statistics + budgets.  A context is
    single-threaded; concurrent domains must each own one. *)

val create_ctx :
  ?max_conflicts:int -> ?timeout_ms:float -> ?mode:mode -> unit -> ctx
(** A fresh context with empty caches and zeroed statistics.
    [timeout_ms] defaults to {!default_timeout_ms}'s current value and
    [mode] to {!default_mode}'s. *)

val default_timeout_ms : float option ref
(** Watchdog inherited by every context {!create_ctx} makes afterwards
    (parallel/distributed workers create contexts internally).  Set it
    through {!set_default_timeout_ms}. *)

val set_default_timeout_ms : float option -> unit
(** Set {!default_timeout_ms} and retrofit {!default_ctx}. *)

val default_mode : mode ref
(** Strategy inherited by contexts created afterwards ([--solver=...]).
    Defaults to [Incremental].  Set through {!set_default_mode}. *)

val set_default_mode : mode -> unit
(** Set {!default_mode} and retrofit {!default_ctx}. *)

val default_ctx : ctx
(** The context used when [?ctx] is omitted — the process-wide solver
    state legacy callers share. *)

val new_stats : unit -> stats

val reset_stats : ?ctx:ctx -> unit -> unit
(** Zero the context's statistics (default: {!default_ctx}'s). *)

val clear_caches : ctx -> unit
(** Drop the model and unsat caches (statistics are untouched). *)

val merge_stats : into:stats -> stats -> unit
(** Accumulate [src] into [into]: sums counters and times, maxes
    [max_time].  Used to fold per-worker statistics into an aggregate. *)

val stats : stats
(** = [default_ctx.ctx_stats]. *)

val models : ctx -> Expr.model list
(** The context's cached models, most recent first.  Used by the cache
    ablation and tests. *)

val latest_model : ctx -> Expr.model option
(** The most recently found model, if any — what graceful degradation
    concretizes with when a fork-point query times out. *)

val max_conflicts : int ref
(** = [default_ctx.max_conflicts]. *)

val slice : seed_vars:Expr.Int_set.t -> Expr.t list -> Expr.t list
(** Keep only constraints transitively sharing variables with
    [seed_vars]. *)

val check : ?ctx:ctx -> Expr.t list -> result
(** Is the conjunction satisfiable?  Returns a model on success. *)

val check_with : ?ctx:ctx -> constraints:Expr.t list -> Expr.t -> result
(** Satisfiability of [constraints ∧ cond], slicing [constraints] around
    [cond]'s variables: the branch-feasibility query. *)

val check_model : ?ctx:ctx -> Expr.t list -> result
(** Like {!check} but pristine: bypasses the model cache and solves on a
    cold SAT instance in every {!mode}, so the returned model is a pure
    function of the constraint set.  Test-case extraction
    ({!S2e_core.Parallel.model_of}) uses this to keep case bytes identical
    across serial / parallel / incremental / fresh runs. *)

val check_branch :
  ?ctx:ctx -> constraints:Expr.t list -> Expr.t -> result * result
(** Feasibility of both sides of a fork: [(check (cond ∧ C), check (¬cond
    ∧ C))] over a single shared slice.  In incremental mode the two probes
    land on the same live SAT instance — the second reuses the first's
    encoding and learned clauses. *)

val get_value : ?ctx:ctx -> constraints:Expr.t list -> Expr.t -> int64 option
(** A concrete value for the expression consistent with the constraints.
    The pick is a pure function of the constraint set (the model cache is
    bypassed), so serial and parallel exploration concretize
    identically. *)

val get_unique_value :
  ?ctx:ctx -> constraints:Expr.t list -> Expr.t -> int64 option
(** The expression's value when the constraints determine it uniquely. *)

val get_values :
  ?ctx:ctx -> constraints:Expr.t list -> limit:int -> Expr.t -> int64 list
(** Up to [limit] distinct feasible values, deterministically
    enumerated. *)
