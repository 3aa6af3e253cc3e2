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

val new_var : t -> int
(** Allocate a fresh variable; returns its index. *)

val add_clause : t -> lit list -> unit
(** Add a permanent problem clause (at decision level 0).  Tautologies are
    dropped; an empty clause makes the instance unsatisfiable.  Safe to
    call between incremental solves. *)

val push : t -> unit
(** Open a retractable assumption frame — a decision-level checkpoint. *)

val assume : t -> lit -> unit
(** Assert a literal within the current top frame: it holds in every
    subsequent {!solve} until the frame is {!pop}ped.  Unlike
    [add_clause [l]], the assertion is a search-time decision, not a
    clause, so it can be retracted in O(1). *)

val pop : t -> unit
(** Retract the top assumption frame.  Learned clauses are retained: every
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
    instance — popping back and solving again works.  [Unknown] is
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
}

val stats : t -> stats
