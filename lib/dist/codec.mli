(** Versioned, dependency-free binary snapshot codec for fork-point
    execution states.

    A snapshot carries everything a path owns privately — registers, the
    copy-on-write symbolic-memory overlay, the path constraint set,
    device state and plugin-visible metadata — plus a fingerprint
    (length + checksum) of the shared base image, which is {e not}
    shipped: both sides load the same guest, and a fingerprint mismatch
    is a hard decode error.

    A snapshot is [magic | version | payload | u32 FNV-1a(payload)].
    Decoding is strict: truncation, corruption (the trailing checksum),
    a wrong magic or version, unknown tags, malformed widths or trailing
    bytes all raise {!Error}.  Expressions are rebuilt with raw constructors —
    never re-simplified — and variable/state ids are preserved verbatim,
    with the local fresh-id counters bumped past every decoded id. *)

open S2e_expr
open S2e_core

exception Error of string
(** Raised on any malformed input; decoding never returns a partial or
    best-effort state. *)

val version : int
(** Current snapshot format version, embedded in every encoding. *)

val fnv32 : string -> pos:int -> len:int -> int
(** 32-bit FNV-1a checksum of [len] bytes from [pos] (also used by
    {!Proto} frames). *)

(** Little-endian wire primitives shared with {!Proto}.  Writers append
    to a growable buffer; readers consume a string left-to-right and
    raise {!Error} on underrun. *)
module Wire : sig
  type w

  val create : unit -> w
  val contents : w -> string
  val u8 : w -> int -> unit
  val u32 : w -> int -> unit
  val i64 : w -> int64 -> unit
  val f64 : w -> float -> unit
  val bool : w -> bool -> unit
  val str : w -> string -> unit
  val raw : w -> string -> unit
  val list : w -> ('a -> unit) -> 'a list -> unit

  type r

  val reader : ?pos:int -> string -> r
  val pos : r -> int
  val ru8 : r -> int
  val ru32 : r -> int
  val ri64 : r -> int64
  val rf64 : r -> float
  val rbool : r -> bool
  val rstr : r -> string
  val rlist : r -> (r -> 'a) -> 'a list

  val read_n : r -> int -> (r -> 'a) -> 'a list
  (** Read exactly [n] elements, strictly left-to-right. *)
end

val encode_expr : Expr.t -> string
(** Structural serialization; widths derivable from subexpressions are
    not stored. *)

val decode_expr : string -> Expr.t
(** Exact structural inverse of {!encode_expr} (no re-simplification),
    bumping the fresh-variable counter past every decoded id.
    @raise Error on malformed input. *)

val encode_state : State.t -> string
(** Self-contained snapshot of one execution state. *)

val decode_state : base:Bytes.t -> string -> State.t
(** Rebuild a state over the local [base] image.  The snapshot's base
    fingerprint must match [base]; variable and state id counters are
    bumped past every decoded id so later local forks cannot collide.
    @raise Error on malformed input or base-image mismatch. *)
