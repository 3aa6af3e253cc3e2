(** A CDCL SAT solver: two-watched-literal propagation, first-UIP clause
    learning, activity-based decisions and geometric restarts — with an
    incremental assumption-stack interface that keeps the variable table,
    watched-literal structures, and learned clauses alive across queries.
    The backend of {!Bitblast}, playing the role STP's SAT core plays in
    the paper's prototype. *)

type lit = int

val pos : int -> lit
(** Positive literal of a variable. *)

val neg : int -> lit
(** Negative literal of a variable. *)

val lit_var : lit -> int
val lit_neg : lit -> lit
val lit_sign : lit -> bool
(** [true] for positive literals. *)

type t

val create : unit -> t

val reset : t -> unit
(** Return an instance to exactly the state {!create} gives — no
    variables, clauses, frames, learned clauses or counters, and the same
    initial activity increments and learned-clause limit — while keeping
    its storage, so a caller solving many cold problems in a row
    allocates the arena and watch vectors once.  Every later decision is
    the one a fresh instance would make. *)

val new_var : t -> int
(** Allocate a fresh variable; returns its index. *)

val add_clause : t -> lit array -> unit
(** Add a permanent problem clause.  Tautologies and clauses satisfied at
    decision level 0 are dropped; an empty clause makes the instance
    unsatisfiable.  Safe to call between incremental solves: the trail
    the last solve left stays in place unless the clause is false under
    it.  The array is copied, not kept. *)

val push : t -> unit
(** Open a retractable assumption frame — a decision-level checkpoint. *)

val assume : t -> lit -> unit
(** Assert a literal within the current top frame: it holds in every
    subsequent {!solve} until the frame is {!pop}ped.  Unlike
    [add_clause [| l |]], the assertion is a search-time decision, not a
    clause, so it can be retracted in O(1). *)

val pop : t -> unit
(** Retract the top assumption frame, backtracking the trail to the
    remaining assumptions' levels.  Learned clauses are retained: every
    clause learned under assumptions is implied by the permanent clause set
    alone (assumption literals enter learned clauses as ordinary literals,
    never as resolved-away premises), so retention is sound at level 0.
    @raise Invalid_argument if no frame is open. *)

val frames : t -> int
(** Number of open assumption frames. *)

type result = Sat | Unsat | Unknown

val solve : ?max_conflicts:int -> ?deadline:float -> t -> result
(** Solve the permanent clause set under the stacked assumptions.
    [Unsat] under a non-empty assumption stack does not poison the
    instance — popping back and solving again works.  Each call starts
    from the trail the last one left, kept up to the first decision level
    whose assumption differs from this call's, so a query under a mostly
    unchanged stack re-propagates only what changed.  [Unknown] is
    returned when the conflict budget is exhausted or the wall-clock
    [deadline] (an absolute [Unix.gettimeofday] value) passes — the
    solver watchdog. *)

val solve_assuming :
  ?max_conflicts:int -> ?deadline:float -> t -> lit list -> result
(** {!solve} with extra assumption literals for this call only: the probe
    literals are retracted automatically when the call returns, without
    touching the frame stack. *)

val model_value : t -> int -> bool
(** Value of a variable in the model found by the last successful
    {!solve}. *)

val size : t -> int
(** Current clause count — a memory-footprint proxy for retiring
    long-lived incremental instances. *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learned : int;  (** learned clauses ever created (excluding units) *)
  learned_kept : int;
      (** learned clauses currently live, i.e. surviving reduction/pops *)
  vars : int;  (** variables created *)
  clauses : int;
      (** problem clauses stored: those {!add_clause} kept with two or more
          literals after level-0 simplification *)
}

val stats : t -> stats

(** {2 Test-only entry points}

    For checking the branching order from outside; the engine uses none
    of them. *)

val on_pick : t -> (int -> unit) option -> unit
(** Install (or, with [None], remove) an observer called with every
    branching pick of {!solve}, before the variable is assigned: the
    picked variable, or -1 when every variable is assigned.  It survives
    {!reset}. *)

val activity : t -> int -> float
(** A variable's branching activity. *)

val assigned : t -> int -> bool
(** Whether a variable is assigned on the current trail. *)

val set_var_inc : t -> float -> unit
(** Set the activity increment the next conflict's bumps add, e.g. to
    force an activity rescale. *)
