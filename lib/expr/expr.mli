(** Hash-consed bitvector expressions for the symbolic execution engine.

    Expressions model guest machine words of widths 1, 8, 16 and 32 bits.
    Construction goes through smart constructors which perform constant
    folding and local algebraic simplification, so fully-concrete
    computation never builds deep trees; the deeper bitfield-theory
    simplifier lives in {!Simplifier}.

    Every node is interned in a domain-local weak table at construction:
    within one domain, structurally equal expressions are physically
    equal, and each node carries precomputed metadata — a strong mixing
    hash, tree node count and free-variable id set — so {!equal} is
    (almost always) a pointer comparison and {!hash}, {!size} and {!vars}
    are O(1).  Expressions received from another domain or process must
    be re-interned ({!interner}, {!Raw}) before the physical-equality
    shortcut applies; {!equal} remains correct either way via a
    hash-guarded structural fallback.

    The representation is exposed for pattern matching (plugins and tools
    match on [Var] to identify symbolic inputs) but is [private]:
    building values outside the constructors below is a compile error,
    which is what keeps the interning and folding invariants sound. *)

type unop =
  | Neg  (** two's-complement negation *)
  | Bnot (** bitwise complement *)

type binop =
  | Add
  | Sub
  | Mul
  | Udiv (** unsigned; division by zero yields all-ones, as in SMT-LIB *)
  | Urem (** unsigned; remainder by zero yields the dividend *)
  | And
  | Or
  | Xor
  | Shl  (** shift amount taken modulo the width *)
  | Lshr
  | Ashr

type cmpop = Eq | Ult | Ule | Slt | Sle

module Int_map : Map.S with type key = int
module Int_set : Set.S with type elt = int

type meta
(** Per-node interned metadata (unique id, hash, size, variable set).
    Opaque; read it through {!node_id}, {!hash}, {!size} and {!vars}. *)

type t = private
  | Const of { value : int64; width : int; meta : meta }
  | Var of { id : int; name : string; width : int; meta : meta }
  | Unop of { op : unop; arg : t; width : int; meta : meta }
  | Binop of { op : binop; lhs : t; rhs : t; width : int; meta : meta }
  | Cmp of { op : cmpop; lhs : t; rhs : t; meta : meta }
  | Ite of { cond : t; then_ : t; else_ : t; width : int; meta : meta }
  | Extract of { hi : int; lo : int; arg : t; meta : meta }
  | Concat of { high : t; low : t; width : int; meta : meta }
  | Zext of { arg : t; width : int; meta : meta }
  | Sext of { arg : t; width : int; meta : meta }

val width : t -> int

val mask : int -> int64
(** All-ones value of a width. *)

val sext64 : int64 -> int -> int64
(** Sign-extend the low [w] bits to a full int64. *)

val norm : int64 -> int -> int64
(** Truncate to a width. *)

(** {1 Interned metadata} *)

val node_id : t -> int
(** Process-unique node id, assigned at interning and never reused.
    Structurally equal nodes interned in the same domain share one id;
    suitable as a memo-table key. *)

val hash : t -> int
(** Strong structural mixing hash, computed once at construction.  Equal
    expressions have equal hashes regardless of which domain built
    them. *)

val size : t -> int
(** Tree node count (shared subtrees counted per occurrence), O(1). *)

val vars : t -> Int_set.t
(** Free-variable id set, O(1) — cached at construction. *)

(** {1 Construction} *)

val const : ?width:int -> int64 -> t
(** Defaults to width 32; the value is truncated to the width.  A
    per-domain cache of recently built constants answers most calls
    without allocating; a hit returns the same interned node. *)

val bool_t : t
val bool_f : t
val of_bool : bool -> t

val fresh_var : ?width:int -> string -> t
(** A fresh symbolic variable with a unique id. *)

val bump_var_counter : int -> unit
(** Raise the fresh-variable counter to at least the given value.  Used
    when adopting variables serialized by another process so locally
    minted ids never collide with decoded ones. *)

val is_const : t -> bool
val to_const : t -> int64 option

val equal : t -> t -> bool
(** Structural equality.  O(1) for expressions interned in the same
    domain (pointer comparison both ways); cross-domain comparisons are
    rejected in O(1) by hash mismatch or confirmed by a structural
    walk. *)

(** {1 Smart constructors} *)

val unop : unop -> t -> t
val neg : t -> t
val bnot : t -> t

val binop : binop -> t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val udiv : t -> t -> t
val urem : t -> t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t

val cmp : cmpop -> t -> t -> t
val eq : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val slt : t -> t -> t
val sle : t -> t -> t
val ne : t -> t -> t

val log_and : t -> t -> t
(** Width-1 conjunction. *)

val log_or : t -> t -> t
val log_not : t -> t

val ite : t -> t -> t -> t
val extract : hi:int -> lo:int -> t -> t
val concat : high:t -> low:t -> t
val zext : width:int -> t -> t
val sext : width:int -> t -> t

(** {1 Raw construction and re-interning} *)

(** Structure-preserving constructors: intern but never fold or
    simplify.  For deserializers that must reproduce a wire structure
    exactly (the dist codec's determinism contract) and for tests that
    need a specific shape.  Width invariants are still asserted. *)
module Raw : sig
  val const : width:int -> int64 -> t
  val var : id:int -> name:string -> width:int -> t
  val unop : unop -> t -> t
  val binop : binop -> t -> t -> t
  val cmp : cmpop -> t -> t -> t
  val ite : t -> t -> t -> t
  val extract : hi:int -> lo:int -> t -> t
  val concat : high:t -> low:t -> t
  val zext : width:int -> t -> t
  val sext : width:int -> t -> t
end

val intern_expr : t -> t
(** Re-intern an expression (built by another domain) into the current
    domain's table, structure-preserving.  Returns the canonical local
    node; afterwards the physical-equality fast path applies against
    locally built expressions. *)

val interner : unit -> t -> t
(** Like {!intern_expr} with a memo shared across calls, so a batch of
    expressions (a whole execution state) re-interns each shared subtree
    once and keeps its internal sharing. *)

(** {1 Evaluation} *)

val eval_unop : unop -> int64 -> int -> int64
val eval_binop : binop -> int64 -> int64 -> int -> int64
val eval_cmp : cmpop -> int64 -> int64 -> int -> bool

type model = int64 Int_map.t
(** Variable id → concrete value.  Unbound variables read as 0. *)

val eval : model -> t -> int64

val eval_int : model -> t -> int
(** [eval] on native ints, without boxing: equal to
    [Int64.to_int (eval m e)] for expressions of width at most 62.
    Subterms wider than 62 bits (under a comparison or an extract) are
    evaluated by {!eval}.  Raises [Invalid_argument] on a wider [e]. *)

(** {1 Inspection} *)

val fold_vars : ('a -> int -> string -> int -> 'a) -> 'a -> t -> 'a
(** Fold over (id, name, width) of every variable occurrence. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
