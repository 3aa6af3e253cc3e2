(** Copy-on-write symbolic memory: an immutable concrete base image shared
    by all paths plus a persistent per-path overlay of written bytes, kept
    in aligned 8-byte chunks — the shared machine-state representation at
    the heart of the paper's prototype (section 5).  All update operations
    are persistent: they return a new memory sharing structure with the
    old one. *)

open S2e_expr

type t

exception Fault of string
(** Raised on out-of-range accesses. *)

val create : base:Bytes.t -> t
(** The base image must not be mutated afterwards. *)

val overlay_size : t -> int
(** Number of privately written bytes: a per-path footprint proxy. *)

val base : t -> Bytes.t
(** The shared concrete base image (do not mutate). *)

val fold_overlay : (int -> Expr.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over overlay bytes in increasing address order; used by the
    distribution codec to serialize the copy-on-write layer. *)

val map_overlay : (Expr.t -> Expr.t) -> t -> t
(** Rewrite every overlay byte, in increasing address order (structurally
    persistent); used to re-intern a state adopted from another domain. *)

val of_overlay : base:Bytes.t -> (int * Expr.t) list -> t
(** Rebuild a memory from a base image plus decoded overlay entries; a
    later entry for an address replaces an earlier one. *)

val read_byte : t -> int -> Expr.t
(** Width-8 expression. *)

val write_byte : t -> int -> Expr.t -> t
(** Returns the memory itself when the overlay already holds this very
    node at the address. *)

val read_word : t -> int -> Expr.t
(** Little-endian 32-bit read; adjacent concrete bytes re-fuse into a
    constant. *)

val write_word : t -> int -> Expr.t -> t

val concrete_byte : t -> int -> int option
(** [None] when the byte is symbolic. *)

val read_byte_sym :
  t -> page_size:int -> anchor:int -> Expr.t -> Expr.t * Expr.t
(** Symbolic-pointer read: an if-then-else chain over the solver page
    containing [anchor].  Returns (value, page-bounds constraint); the
    caller must add the constraint to the path.  [page_size] is the
    paper's configurable solver-page split (section 5). *)

val read_word_sym :
  t -> page_size:int -> anchor:int -> Expr.t -> Expr.t * Expr.t

val blit_concrete : t -> int -> int array -> t
(** Copy a concrete buffer in (device DMA, image patching). *)

val read_cstring : ?max_len:int -> t -> int -> string
(** NUL-terminated concrete string; stops at symbolic bytes. *)
