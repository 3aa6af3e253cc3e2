(** Dynamic binary translator: on-demand translation of guest code into
    cached straight-line translation blocks, with per-instruction marking
    (the cheap onInstrTranslation / onInstrExecution split of paper
    section 4.2) and invalidation on writes into translated code. *)

open S2e_isa

type tb = {
  tb_start : int;
  insns : (int * Insn.t) array; (** (address, instruction) pairs *)
  mutable exec_count : int;
}

type t

val create : ?max_block:int -> unit -> t

val mark : t -> int -> unit
(** Request an onInstrExecution notification for this address. *)

val unmark : t -> int -> unit
val is_marked : t -> int -> bool

val translate :
  t -> fetch:(int -> int) -> on_translate:(int -> Insn.t -> unit) -> int -> tb
(** Translation block starting at the given pc; cached, so [on_translate]
    fires once per instruction per (re-)translation. *)

val invalidate : t -> int -> unit
(** A guest write hit this address: drop any block covering it.  A write
    to a code page no block was translated on since the last {!flush}
    costs one bitmap test. *)

val may_hold_code : t -> int -> bool
(** [false] proves no block translated since the last {!flush} covers
    the address (its code page was never translated); [true] may be a
    false positive.  Addresses outside guest RAM always answer [true]. *)

val cut : t -> int -> unit
(** Force a permanent block boundary before this address: no translation
    block extends past it, so the address always starts its own block and
    execution pauses there between blocks.  Cached blocks already spanning
    the address are dropped.  Used to make merge points schedulable. *)

val flush : t -> unit
(** Drop every cached block and clear the code-page bitmap.  The
    translation count, the registry counter [dbt.tb_misses], stays
    monotone across a flush. *)

val cached_blocks : t -> int
(** Blocks currently cached. *)
