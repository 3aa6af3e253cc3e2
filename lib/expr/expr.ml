(** Hash-consed bitvector expressions for the symbolic execution engine.

    Expressions model guest machine words of widths 1, 8, 16 and 32 bits.
    Construction goes through smart constructors which perform constant
    folding and local algebraic simplification, so that the common case of
    fully-concrete computation never allocates deep trees.  The deeper
    bitfield-theory simplifier from the paper (known-bits / demanded-bits
    propagation, S2E paper section 5) lives in {!Simplifier}.

    Every node is {e interned} in a domain-local weak table: within one
    domain, structurally equal expressions built through the constructors
    below are physically equal, so equality is (almost always) a pointer
    comparison.  Each node also carries metadata computed once at
    construction — a strong 64-bit mixing hash, the tree node count, and
    the free-variable id set — making {!hash}, {!size} and {!vars} O(1).
    The solver's query-key computation, independent-constraint slicing and
    per-node memo tables (simplifier, bit-blasting) are built on these.

    Interning is per-domain (OCaml 5 [Domain.DLS]) so parallel workers
    stay lock-free; only the node-id counter refills from a shared atomic,
    in blocks.  Expressions that cross domains (stolen states) or
    processes (snapshot decode) are {e re-interned} into the receiving
    side's table ({!interner}, {!Raw}) rather than assumed physically
    unique; {!equal} keeps a hash-guarded structural fallback so
    mixed-provenance comparisons stay correct either way. *)

type unop =
  | Neg  (** two's-complement negation *)
  | Bnot (** bitwise complement *)

type binop =
  | Add
  | Sub
  | Mul
  | Udiv (** unsigned division; division by zero yields all-ones, as SMT-LIB *)
  | Urem (** unsigned remainder; remainder by zero yields the dividend *)
  | And
  | Or
  | Xor
  | Shl  (** left shift, shift amount taken modulo width *)
  | Lshr (** logical right shift *)
  | Ashr (** arithmetic right shift *)

type cmpop =
  | Eq
  | Ult
  | Ule
  | Slt
  | Sle

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

(** Per-node metadata, computed once when the node is interned. *)
type meta = {
  uid : int;       (* process-unique node id (never reused) *)
  mhash : int;     (* strong structural hash *)
  msize : int;     (* tree node count (shared subtrees counted per use) *)
  mvars : Int_set.t; (* free-variable id set *)
}

type t =
  | Const of { value : int64; width : int; meta : meta }
  | Var of { id : int; name : string; width : int; meta : meta }
  | Unop of { op : unop; arg : t; width : int; meta : meta }
  | Binop of { op : binop; lhs : t; rhs : t; width : int; meta : meta }
  | Cmp of { op : cmpop; lhs : t; rhs : t; meta : meta } (* width 1 *)
  | Ite of { cond : t; then_ : t; else_ : t; width : int; meta : meta }
  | Extract of { hi : int; lo : int; arg : t; meta : meta }
      (* width = hi - lo + 1 *)
  | Concat of { high : t; low : t; width : int; meta : meta }
  | Zext of { arg : t; width : int; meta : meta }
  | Sext of { arg : t; width : int; meta : meta }

let width = function
  | Const { width; _ } | Var { width; _ } | Unop { width; _ }
  | Binop { width; _ } | Ite { width; _ } | Concat { width; _ }
  | Zext { width; _ } | Sext { width; _ } ->
      width
  | Cmp _ -> 1
  | Extract { hi; lo; _ } -> hi - lo + 1

let meta = function
  | Const { meta; _ } | Var { meta; _ } | Unop { meta; _ }
  | Binop { meta; _ } | Cmp { meta; _ } | Ite { meta; _ }
  | Extract { meta; _ } | Concat { meta; _ } | Zext { meta; _ }
  | Sext { meta; _ } ->
      meta

let node_id e = (meta e).uid
let hash e = (meta e).mhash
let size e = (meta e).msize
let vars e = (meta e).mvars

let[@inline] mask w =
  if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

(* Sign-extend the low [w] bits of [v] to a full int64. *)
let[@inline] sext64 v w =
  if w >= 64 then v
  else
    let shift = 64 - w in
    Int64.shift_right (Int64.shift_left v shift) shift

let[@inline] norm v w = Int64.logand v (mask w)

let is_const = function Const _ -> true | _ -> false

let to_const = function Const { value; _ } -> Some value | _ -> None

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

(* Splitmix-style mixing over the native 63-bit int.  Constants fit in
   OCaml's int literal range (< 2^62). *)
let mix h k =
  let h = (h lxor k) * 0x27d4eb2f165667c5 in
  h lxor (h lsr 29)

(* Fold a 64-bit value into a native int without losing the top bit. *)
let[@inline] i64h v = Int64.to_int v lxor Int64.to_int (Int64.shift_right_logical v 32)

let unop_tag = function Neg -> 0 | Bnot -> 1

let binop_tag = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Udiv -> 3 | Urem -> 4 | And -> 5
  | Or -> 6 | Xor -> 7 | Shl -> 8 | Lshr -> 9 | Ashr -> 10

let cmpop_tag = function Eq -> 0 | Ult -> 1 | Ule -> 2 | Slt -> 3 | Sle -> 4

(* Shallow structural equality: children are compared physically, which is
   exact for candidates built over already-interned subtrees — the only
   shape the intern table ever probes with. *)
let shallow_equal a b =
  match a, b with
  | Const a, Const b -> a.value = b.value && a.width = b.width
  | Var a, Var b -> a.id = b.id
  | Unop a, Unop b -> a.op = b.op && a.arg == b.arg
  | Binop a, Binop b -> a.op = b.op && a.lhs == b.lhs && a.rhs == b.rhs
  | Cmp a, Cmp b -> a.op = b.op && a.lhs == b.lhs && a.rhs == b.rhs
  | Ite a, Ite b ->
      a.cond == b.cond && a.then_ == b.then_ && a.else_ == b.else_
  | Extract a, Extract b -> a.hi = b.hi && a.lo = b.lo && a.arg == b.arg
  | Concat a, Concat b -> a.high == b.high && a.low == b.low
  | Zext a, Zext b -> a.width = b.width && a.arg == b.arg
  | Sext a, Sext b -> a.width = b.width && a.arg == b.arg
  | ( ( Const _ | Var _ | Unop _ | Binop _ | Cmp _ | Ite _ | Extract _
      | Concat _ | Zext _ | Sext _ ),
      _ ) ->
      false

module HC = Weak.Make (struct
  type nonrec t = t

  let hash e = (meta e).mhash land max_int
  let equal = shallow_equal
end)

(* Domain-local intern table: workers never contend on it, and a dying
   domain's table is simply collected. *)
let table_key : HC.t Domain.DLS.key = Domain.DLS.new_key (fun () -> HC.create 4096)

(* Node ids are process-unique (memo tables key on them across stolen /
   decoded expressions) but handed out in domain-local blocks so the hot
   construction path never touches the shared atomic. *)
let uid_block = 1024
let uid_source = Atomic.make 0

type uid_alloc = { mutable next : int; mutable limit : int }

let uid_key : uid_alloc Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { next = 0; limit = 0 })

let next_uid () =
  let a = Domain.DLS.get uid_key in
  if a.next >= a.limit then begin
    a.next <- Atomic.fetch_and_add uid_source uid_block;
    a.limit <- a.next + uid_block
  end;
  let id = a.next in
  a.next <- id + 1;
  id

let intern node = HC.merge (Domain.DLS.get table_key) node

(* Interning raw constructors: compute metadata, then find-or-add.  On a
   hit the candidate (and its uid) is discarded; uids may have gaps. *)

let mk_const value width =
  let mhash = mix (mix 1 (i64h value)) width in
  intern
    (Const
       { value; width; meta = { uid = next_uid (); mhash; msize = 1; mvars = Int_set.empty } })

let mk_var id name width =
  (* Hash and shallow equality key on the variable id alone: ids are
     globally unique, so name/width are attributes, not identity. *)
  let mhash = mix 2 id in
  intern
    (Var
       { id; name; width;
         meta = { uid = next_uid (); mhash; msize = 1; mvars = Int_set.singleton id } })

let mk_unop op arg width =
  let am = meta arg in
  let mhash = mix (mix 3 (unop_tag op)) am.mhash in
  intern
    (Unop
       { op; arg; width;
         meta = { uid = next_uid (); mhash; msize = 1 + am.msize; mvars = am.mvars } })

let mk_binop op lhs rhs width =
  let lm = meta lhs and rm = meta rhs in
  let mhash = mix (mix (mix 4 (binop_tag op)) lm.mhash) rm.mhash in
  intern
    (Binop
       { op; lhs; rhs; width;
         meta =
           { uid = next_uid (); mhash; msize = 1 + lm.msize + rm.msize;
             mvars = Int_set.union lm.mvars rm.mvars } })

let mk_cmp op lhs rhs =
  let lm = meta lhs and rm = meta rhs in
  let mhash = mix (mix (mix 5 (cmpop_tag op)) lm.mhash) rm.mhash in
  intern
    (Cmp
       { op; lhs; rhs;
         meta =
           { uid = next_uid (); mhash; msize = 1 + lm.msize + rm.msize;
             mvars = Int_set.union lm.mvars rm.mvars } })

let mk_ite cond then_ else_ width =
  let cm = meta cond and tm = meta then_ and em = meta else_ in
  let mhash = mix (mix (mix 6 cm.mhash) tm.mhash) em.mhash in
  intern
    (Ite
       { cond; then_; else_; width;
         meta =
           { uid = next_uid (); mhash; msize = 1 + cm.msize + tm.msize + em.msize;
             mvars = Int_set.union cm.mvars (Int_set.union tm.mvars em.mvars) } })

let mk_extract hi lo arg =
  let am = meta arg in
  let mhash = mix (mix (mix 7 hi) lo) am.mhash in
  intern
    (Extract
       { hi; lo; arg;
         meta = { uid = next_uid (); mhash; msize = 1 + am.msize; mvars = am.mvars } })

let mk_concat high low width =
  let hm = meta high and lm = meta low in
  let mhash = mix (mix 8 hm.mhash) lm.mhash in
  intern
    (Concat
       { high; low; width;
         meta =
           { uid = next_uid (); mhash; msize = 1 + hm.msize + lm.msize;
             mvars = Int_set.union hm.mvars lm.mvars } })

let mk_zext arg width =
  let am = meta arg in
  let mhash = mix (mix 9 width) am.mhash in
  intern
    (Zext
       { arg; width;
         meta = { uid = next_uid (); mhash; msize = 1 + am.msize; mvars = am.mvars } })

let mk_sext arg width =
  let am = meta arg in
  let mhash = mix (mix 10 width) am.mhash in
  intern
    (Sext
       { arg; width;
         meta = { uid = next_uid (); mhash; msize = 1 + am.msize; mvars = am.mvars } })

(* ------------------------------------------------------------------ *)
(* Basic constructors                                                  *)
(* ------------------------------------------------------------------ *)

(* Per-domain direct-mapped cache of interned constants.  Concrete
   execution builds a constant for nearly every operand and result, and
   each [mk_const] allocates a node plus its metadata only to find the
   existing node in the weak table.  A slot holds the node [intern]
   returned for its (value, width), so a hit returns exactly the node a
   miss would (physical identity holds), and the slot's strong reference
   keeps that node in the weak table.  A hit consumes no uid: uids only
   key memo tables, so gaps and skipped ids change nothing. *)
let const_slots = 4096

(* Fills empty slots; width 0 matches no real constant. *)
let no_const =
  Const
    { value = 0L; width = 0;
      meta = { uid = -1; mhash = 0; msize = 1; mvars = Int_set.empty } }

let const_cache_key : t array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make const_slots no_const)

(* The cache lookup behind every constant.  It is also [const] without
   the optional argument, which would allocate a [Some] at every folding
   site below. *)
let[@inline] constw width value =
  let value = norm value width in
  let slots = Domain.DLS.get const_cache_key in
  let i = (i64h value * 0x9e3779b1 + width) land (const_slots - 1) in
  let n = Array.unsafe_get slots i in
  match n with
  | Const c when c.value = value && c.width = width -> n
  | _ ->
      let n = mk_const value width in
      Array.unsafe_set slots i n;
      n

let const ?(width = 32) value = constw width value
let bool_t = constw 1 1L
let bool_f = constw 1 0L
let of_bool b = if b then bool_t else bool_f

(* Atomic so parallel exploration workers can mint variables
   concurrently without duplicating ids. *)
let var_counter = Atomic.make 0

let fresh_var ?(width = 32) name =
  mk_var (Atomic.fetch_and_add var_counter 1 + 1) name width

(* Raise the counter to at least [n] so variables decoded from another
   process never collide with locally minted ones. *)
let rec bump_var_counter n =
  let cur = Atomic.get var_counter in
  if cur < n && not (Atomic.compare_and_set var_counter cur n) then
    bump_var_counter n

(* Equality: pointer comparison resolves same-domain comparisons (both
   ways — interning makes structurally equal nodes physically equal);
   the cached hashes reject unequal nodes in O(1); only cross-provenance
   equal pairs pay a structural walk. *)
let rec equal a b =
  a == b
  || hash a = hash b
     &&
     match a, b with
     | Const a, Const b -> a.value = b.value && a.width = b.width
     | Var a, Var b -> a.id = b.id
     | Unop a, Unop b -> a.op = b.op && equal a.arg b.arg
     | Binop a, Binop b -> a.op = b.op && equal a.lhs b.lhs && equal a.rhs b.rhs
     | Cmp a, Cmp b -> a.op = b.op && equal a.lhs b.lhs && equal a.rhs b.rhs
     | Ite a, Ite b ->
         equal a.cond b.cond && equal a.then_ b.then_ && equal a.else_ b.else_
     | Extract a, Extract b -> a.hi = b.hi && a.lo = b.lo && equal a.arg b.arg
     | Concat a, Concat b -> equal a.high b.high && equal a.low b.low
     | Zext a, Zext b -> a.width = b.width && equal a.arg b.arg
     | Sext a, Sext b -> a.width = b.width && equal a.arg b.arg
     | ( ( Const _ | Var _ | Unop _ | Binop _ | Cmp _ | Ite _ | Extract _
         | Concat _ | Zext _ | Sext _ ),
         _ ) ->
         false

let[@inline] eval_unop op v w =
  match op with
  | Neg -> norm (Int64.neg v) w
  | Bnot -> norm (Int64.lognot v) w

let[@inline] eval_binop op a b w =
  let m = mask w in
  match op with
  | Add -> norm (Int64.add a b) w
  | Sub -> norm (Int64.sub a b) w
  | Mul -> norm (Int64.mul a b) w
  | Udiv -> if b = 0L then m else norm (Int64.unsigned_div a b) w
  | Urem -> if b = 0L then a else norm (Int64.unsigned_rem a b) w
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl ->
      let s = Int64.to_int b mod w in
      norm (Int64.shift_left a s) w
  | Lshr ->
      let s = Int64.to_int b mod w in
      norm (Int64.shift_right_logical a s) w
  | Ashr ->
      let s = Int64.to_int b mod w in
      norm (Int64.shift_right (sext64 a w) s) w

let eval_cmp op a b w =
  match op with
  | Eq -> a = b
  | Ult -> Int64.unsigned_compare a b < 0
  | Ule -> Int64.unsigned_compare a b <= 0
  | Slt -> Int64.compare (sext64 a w) (sext64 b w) < 0
  | Sle -> Int64.compare (sext64 a w) (sext64 b w) <= 0

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let unop op arg =
  let w = width arg in
  match arg with
  | Const { value; _ } -> constw w (eval_unop op value w)
  | Unop { op = op'; arg = inner; _ } when op = op' -> inner
  | _ -> mk_unop op arg w

let neg e = unop Neg e
let bnot e = unop Bnot e

let is_zero = function Const { value = 0L; _ } -> true | _ -> false
let is_all_ones = function
  | Const { value; width; _ } -> value = mask width
  | _ -> false

let rec binop op lhs rhs =
  let w = width lhs in
  assert (width rhs = w);
  match lhs, rhs with
  | Const { value = a; _ }, Const { value = b; _ } ->
      constw w (eval_binop op a b w)
  | _ -> (
      match op with
      | Add when is_zero lhs -> rhs
      | Add when is_zero rhs -> lhs
      | Sub when is_zero rhs -> lhs
      | Sub when equal lhs rhs -> constw w 0L
      | Mul when is_zero lhs || is_zero rhs -> constw w 0L
      | Mul when to_const lhs = Some 1L -> rhs
      | Mul when to_const rhs = Some 1L -> lhs
      | And when is_zero lhs || is_zero rhs -> constw w 0L
      | And when is_all_ones rhs -> lhs
      | And when is_all_ones lhs -> rhs
      | And when equal lhs rhs -> lhs
      | Or when is_zero lhs -> rhs
      | Or when is_zero rhs -> lhs
      | Or when is_all_ones lhs || is_all_ones rhs ->
          constw w (mask w)
      | Or when equal lhs rhs -> lhs
      | Xor when is_zero lhs -> rhs
      | Xor when is_zero rhs -> lhs
      | Xor when equal lhs rhs -> constw w 0L
      | (Shl | Lshr | Ashr) when is_zero rhs -> lhs
      | (Shl | Lshr) when is_zero lhs -> lhs
      (* Reassociate (x + c1) + c2 into x + (c1+c2): the DBT emits long
         chains of address arithmetic that this collapses. *)
      | Add -> (
          match lhs, rhs with
          | Binop { op = Add; lhs = x; rhs = Const c1; _ }, Const c2 ->
              binop Add x (constw w (Int64.add c1.value c2.value))
          | Const _, _ -> binop Add rhs lhs
          | _ -> mk_binop op lhs rhs w)
      | _ -> mk_binop op lhs rhs w)

let add a b = binop Add a b
let sub a b = binop Sub a b
let mul a b = binop Mul a b
let udiv a b = binop Udiv a b
let urem a b = binop Urem a b
let band a b = binop And a b
let bor a b = binop Or a b
let bxor a b = binop Xor a b
let shl a b = binop Shl a b
let lshr a b = binop Lshr a b
let ashr a b = binop Ashr a b

let cmp op lhs rhs =
  let w = width lhs in
  assert (width rhs = w);
  match lhs, rhs with
  | Const { value = a; _ }, Const { value = b; _ } ->
      of_bool (eval_cmp op a b w)
  | _ ->
      if equal lhs rhs then
        of_bool (match op with Eq | Ule | Sle -> true | Ult | Slt -> false)
      else mk_cmp op lhs rhs

let eq a b = cmp Eq a b
let ult a b = cmp Ult a b
let ule a b = cmp Ule a b
let slt a b = cmp Slt a b
let sle a b = cmp Sle a b
let ne a b =
  match eq a b with
  | Const { value; _ } -> of_bool (value = 0L)
  | e -> mk_cmp Eq e bool_f

(* Boolean operations are just width-1 bitvector operations. *)
let log_and a b = band a b
let log_or a b = bor a b
let log_not a =
  assert (width a = 1);
  bxor a bool_t

let ite cond then_ else_ =
  assert (width cond = 1);
  let w = width then_ in
  assert (width else_ = w);
  match cond with
  | Const { value = 1L; _ } -> then_
  | Const { value = 0L; _ } -> else_
  | _ -> if equal then_ else_ then then_ else mk_ite cond then_ else_ w

let rec extract ~hi ~lo arg =
  let w = width arg in
  assert (0 <= lo && lo <= hi && hi < w);
  if lo = 0 && hi = w - 1 then arg
  else
    match arg with
    | Const { value; _ } ->
        constw (hi - lo + 1) (Int64.shift_right_logical value lo)
    | Extract { lo = lo'; arg = inner; _ } ->
        mk_extract (hi + lo') (lo + lo') inner
    | Concat { high = _; low; _ } when hi < width low -> extract ~hi ~lo low
    | Concat { high; low; _ } when lo >= width low ->
        extract ~hi:(hi - width low) ~lo:(lo - width low) high
    | Zext { arg = inner; _ } when hi < width inner -> extract ~hi ~lo inner
    | Zext { arg = inner; _ } when lo >= width inner ->
        constw (hi - lo + 1) 0L
    | _ -> mk_extract hi lo arg

let concat ~high ~low =
  let w = width high + width low in
  assert (w <= 64);
  match high, low with
  | Const { value = vh; _ }, Const { value = vl; _ } ->
      constw w (Int64.logor (Int64.shift_left vh (width low)) vl)
  | _, _ ->
      (* Re-fuse adjacent extracts of the same expression. *)
      (match high, low with
      | ( Extract { hi = h2; lo = l2; arg = a2; _ },
          Extract { hi = h1; lo = l1; arg = a1; _ } )
        when l2 = h1 + 1 && a1 == a2 ->
          extract ~hi:h2 ~lo:l1 a1
      | _ -> mk_concat high low w)

let zext ~width:w arg =
  let aw = width arg in
  assert (w >= aw);
  if w = aw then arg
  else
    match arg with
    | Const { value; _ } -> constw w value
    | _ -> mk_zext arg w

let sext ~width:w arg =
  let aw = width arg in
  assert (w >= aw);
  if w = aw then arg
  else
    match arg with
    | Const { value; _ } -> constw w (sext64 value aw)
    | _ -> mk_sext arg w

(* ------------------------------------------------------------------ *)
(* Raw interning constructors and re-interning                         *)
(* ------------------------------------------------------------------ *)

(* Structure-preserving constructors for deserialization: they intern (so
   decoded expressions join the local table) but never simplify — the
   distribution codec's determinism argument requires a decoded state to
   carry exactly the constraint structure the fork point had. *)
module Raw = struct
  let const ~width value = constw width value
  let var ~id ~name ~width = mk_var id name width

  let unop op arg = mk_unop op arg (width arg)

  let binop op lhs rhs =
    assert (width lhs = width rhs);
    mk_binop op lhs rhs (width lhs)

  let cmp op lhs rhs =
    assert (width lhs = width rhs);
    mk_cmp op lhs rhs

  let ite cond then_ else_ =
    assert (width cond = 1 && width then_ = width else_);
    mk_ite cond then_ else_ (width then_)

  let extract ~hi ~lo arg =
    assert (0 <= lo && lo <= hi && hi < width arg);
    mk_extract hi lo arg

  let concat ~high ~low = mk_concat high low (width high + width low)

  let zext ~width:w arg =
    assert (w >= width arg);
    mk_zext arg w

  let sext ~width:w arg =
    assert (w >= width arg);
    mk_sext arg w
end

(* Re-intern an expression built by another domain into the current
   domain's table, preserving structure exactly.  The memo table is keyed
   by node id so shared subtrees (DAGs) are walked once; an [interner]
   shares its memo across calls, letting a whole execution state (regs,
   overlay, constraints) re-intern with full sharing. *)
let rec intern_into memo e =
  match Hashtbl.find_opt memo (node_id e) with
  | Some e' -> e'
  | None ->
      let e' =
        match e with
        | Const { value; width; _ } -> constw width value
        | Var { id; name; width; _ } -> mk_var id name width
        | Unop { op; arg; width; _ } -> mk_unop op (intern_into memo arg) width
        | Binop { op; lhs; rhs; width; _ } ->
            mk_binop op (intern_into memo lhs) (intern_into memo rhs) width
        | Cmp { op; lhs; rhs; _ } ->
            mk_cmp op (intern_into memo lhs) (intern_into memo rhs)
        | Ite { cond; then_; else_; width; _ } ->
            mk_ite (intern_into memo cond) (intern_into memo then_)
              (intern_into memo else_) width
        | Extract { hi; lo; arg; _ } -> mk_extract hi lo (intern_into memo arg)
        | Concat { high; low; width; _ } ->
            mk_concat (intern_into memo high) (intern_into memo low) width
        | Zext { arg; width; _ } -> mk_zext (intern_into memo arg) width
        | Sext { arg; width; _ } -> mk_sext (intern_into memo arg) width
      in
      Hashtbl.replace memo (node_id e) e';
      e'

let interner () =
  let memo = Hashtbl.create 64 in
  fun e -> intern_into memo e

let intern_expr e = intern_into (Hashtbl.create 16) e

(* ------------------------------------------------------------------ *)
(* Evaluation under a model                                            *)
(* ------------------------------------------------------------------ *)

(** A model maps variable ids to concrete values. *)
type model = int64 Int_map.t

let rec eval (m : model) e =
  match e with
  | Const { value; _ } -> value
  | Var { id; width = w; _ } -> (
      match Int_map.find_opt id m with Some v -> norm v w | None -> 0L)
  | Unop { op; arg; width = w; _ } -> eval_unop op (eval m arg) w
  | Binop { op; lhs; rhs; width = w; _ } ->
      eval_binop op (eval m lhs) (eval m rhs) w
  | Cmp { op; lhs; rhs; _ } ->
      if eval_cmp op (eval m lhs) (eval m rhs) (width lhs) then 1L else 0L
  | Ite { cond; then_; else_; _ } ->
      if eval m cond = 1L then eval m then_ else eval m else_
  | Extract { hi; lo; arg; _ } ->
      norm (Int64.shift_right_logical (eval m arg) lo) (hi - lo + 1)
  | Concat { high; low; _ } ->
      Int64.logor (Int64.shift_left (eval m high) (width low)) (eval m low)
  | Zext { arg; _ } -> eval m arg
  | Sext { arg; width = w; _ } -> norm (sext64 (eval m arg) (width arg)) w

(* [eval] on native ints, for the solver's model-cache probes: [eval]
   boxes an int64 at every node.  A value of width w <= 62 fits a
   non-negative OCaml int, and OCaml int arithmetic wraps modulo 2^63, so
   add, sub, mul and neg masked to w bits agree with the int64 results.
   Wider nodes are evaluated by [eval] and narrowed where a <= 62-bit
   parent (a comparison, an extract) consumes them. *)
let int_width_max = 62

let[@inline] imask w = (1 lsl w) - 1

(* Sign-extend the low [w] bits (w <= 62) to the native 63-bit int. *)
let[@inline] isext v w = (v lsl (63 - w)) asr (63 - w)

let rec eval_int (m : model) e =
  match e with
  | Const { value; _ } -> Int64.to_int value
  | Var { id; width = w; _ } -> (
      match Int_map.find id m with
      | v -> Int64.to_int v land imask w
      | exception Not_found -> 0)
  | Unop { op; arg; width = w; _ } -> (
      let a = eval_int m arg in
      match op with Neg -> -a land imask w | Bnot -> lnot a land imask w)
  | Binop { op; lhs; rhs; width = w; _ } -> (
      let a = eval_int m lhs and b = eval_int m rhs in
      match op with
      | Add -> (a + b) land imask w
      | Sub -> (a - b) land imask w
      | Mul -> a * b land imask w
      | Udiv -> if b = 0 then imask w else a / b
      | Urem -> if b = 0 then a else a mod b
      | And -> a land b
      | Or -> a lor b
      | Xor -> a lxor b
      | Shl -> (a lsl (b mod w)) land imask w
      | Lshr -> a lsr (b mod w)
      | Ashr -> (isext a w asr (b mod w)) land imask w)
  | Cmp { op; lhs; rhs; _ } ->
      let w = width lhs in
      if w > int_width_max then
        Bool.to_int (eval_cmp op (eval m lhs) (eval m rhs) w)
      else
        let a = eval_int m lhs and b = eval_int m rhs in
        Bool.to_int
          (match op with
          | Eq -> a = b
          | Ult -> a < b
          | Ule -> a <= b
          | Slt -> isext a w < isext b w
          | Sle -> isext a w <= isext b w)
  | Ite { cond; then_; else_; _ } ->
      if eval_int m cond = 1 then eval_int m then_ else eval_int m else_
  | Extract { hi; lo; arg; _ } ->
      if width arg > int_width_max then
        Int64.to_int (norm (Int64.shift_right_logical (eval m arg) lo) (hi - lo + 1))
      else (eval_int m arg lsr lo) land imask (hi - lo + 1)
  | Concat { high; low; _ } -> (eval_int m high lsl width low) lor eval_int m low
  | Zext { arg; _ } -> eval_int m arg
  | Sext { arg; width = w; _ } -> isext (eval_int m arg) (width arg) land imask w

let eval_int m e =
  if width e > int_width_max then
    invalid_arg (Printf.sprintf "Expr.eval_int: width %d > %d" (width e) int_width_max);
  eval_int m e

(* ------------------------------------------------------------------ *)
(* Variable collection, printing                                       *)
(* ------------------------------------------------------------------ *)

(* Occurrence fold, kept for callers that need variable names/widths (the
   id set alone is cached in the metadata — prefer {!vars}). *)
let rec fold_vars f acc = function
  | Const _ -> acc
  | Var { id; name; width; _ } -> f acc id name width
  | Unop { arg; _ } | Extract { arg; _ } | Zext { arg; _ } | Sext { arg; _ } ->
      fold_vars f acc arg
  | Binop { lhs; rhs; _ } | Cmp { lhs; rhs; _ } ->
      fold_vars f (fold_vars f acc lhs) rhs
  | Ite { cond; then_; else_; _ } ->
      fold_vars f (fold_vars f (fold_vars f acc cond) then_) else_
  | Concat { high; low; _ } -> fold_vars f (fold_vars f acc high) low

let unop_name = function Neg -> "neg" | Bnot -> "not"

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Udiv -> "udiv"
  | Urem -> "urem" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"

let cmpop_name = function
  | Eq -> "eq" | Ult -> "ult" | Ule -> "ule" | Slt -> "slt" | Sle -> "sle"

let rec pp ppf e =
  match e with
  | Const { value; width; _ } -> Fmt.pf ppf "%Ld:%d" value width
  | Var { name; id; _ } -> Fmt.pf ppf "%s#%d" name id
  | Unop { op; arg; _ } -> Fmt.pf ppf "(%s %a)" (unop_name op) pp arg
  | Binop { op; lhs; rhs; _ } ->
      Fmt.pf ppf "(%s %a %a)" (binop_name op) pp lhs pp rhs
  | Cmp { op; lhs; rhs; _ } ->
      Fmt.pf ppf "(%s %a %a)" (cmpop_name op) pp lhs pp rhs
  | Ite { cond; then_; else_; _ } ->
      Fmt.pf ppf "(ite %a %a %a)" pp cond pp then_ pp else_
  | Extract { hi; lo; arg; _ } -> Fmt.pf ppf "%a[%d:%d]" pp arg hi lo
  | Concat { high; low; _ } -> Fmt.pf ppf "(%a @@ %a)" pp high pp low
  | Zext { arg; width; _ } -> Fmt.pf ppf "(zext%d %a)" width pp arg
  | Sext { arg; width; _ } -> Fmt.pf ppf "(sext%d %a)" width pp arg

let to_string e = Fmt.str "%a" pp e
