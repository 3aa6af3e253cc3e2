(** Bitfield-theory expression simplifier (S2E paper, section 5).

    The dynamic translator produces many bit-level operations (flag
    extraction, masking, shifting).  This simplifier implements the two
    passes the paper describes:

    - a bottom-up {e known-bits} analysis: for every sub-expression compute
      which bits are statically known and their values; if all bits are
      known the sub-expression is replaced by a constant;
    - a top-down {e demanded-bits} analysis: propagate which bits of a
      sub-expression are actually observed by its context; operations that
      only affect ignored bits are removed. *)

open Expr

(** Known-bits lattice element: [kmask] has a 1 for every bit whose value is
    statically known; [kval] holds those bits' values (zero elsewhere). *)
type bits = { kmask : int64; kval : int64 }

let unknown = { kmask = 0L; kval = 0L }

let all_known w v = { kmask = mask w; kval = norm v w }

let is_fully_known w b = b.kmask = mask w

(* Known-bits transfer functions.  Conservative: returning [unknown] is
   always sound. *)
let known_and w a b =
  (* A bit is known if it is known-zero on either side, or known on both. *)
  let zero_a = Int64.logand a.kmask (Int64.lognot a.kval) in
  let zero_b = Int64.logand b.kmask (Int64.lognot b.kval) in
  let both = Int64.logand a.kmask b.kmask in
  let kmask =
    norm (Int64.logor (Int64.logor zero_a zero_b) both) w
  in
  let kval = Int64.logand (Int64.logand a.kval b.kval) kmask in
  { kmask; kval }

let known_or w a b =
  let one_a = Int64.logand a.kmask a.kval in
  let one_b = Int64.logand b.kmask b.kval in
  let both = Int64.logand a.kmask b.kmask in
  let kmask = norm (Int64.logor (Int64.logor one_a one_b) both) w in
  let kval = Int64.logand (Int64.logor a.kval b.kval) kmask in
  { kmask; kval }

let known_xor w a b =
  let kmask = norm (Int64.logand a.kmask b.kmask) w in
  let kval = Int64.logand (Int64.logxor a.kval b.kval) kmask in
  { kmask; kval }

let known_not w a =
  { kmask = a.kmask; kval = Int64.logand (norm (Int64.lognot a.kval) w) a.kmask }

let known_shl w a s =
  {
    kmask =
      norm (Int64.logor (Int64.shift_left a.kmask s) (mask s)) w;
    kval = norm (Int64.shift_left a.kval s) w;
  }

let known_lshr w a s =
  (* The vacated high bits become known zeros. *)
  let high_zeros =
    Int64.logand (mask w)
      (Int64.lognot (Int64.shift_right_logical (mask w) s))
  in
  {
    kmask = Int64.logor (Int64.shift_right_logical a.kmask s) high_zeros;
    kval = Int64.shift_right_logical a.kval s;
  }

(* Memo tables, keyed by interned node id.  Node ids are process-unique
   and never reused, and both analyses are pure per-node functions, so a
   hit can never be stale.  Tables are domain-local (parallel workers
   never contend) and bounded: past [memo_cap] live entries they are
   reset — cheap amnesia beats an unbounded table on long runs. *)
let memo_cap = 1 lsl 17

let kb_memo : (int, bits) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

let simplify_memo : (int, Expr.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

(* Toggled off by [simplify_uncached] so differential tests exercise a
   genuinely memo-free path. *)
let memo_enabled = Domain.DLS.new_key (fun () -> true)

let memo_store tbl key v =
  if Hashtbl.length tbl >= memo_cap then Hashtbl.reset tbl;
  Hashtbl.replace tbl key v

(* [known_bits] memoizes only nodes of at least this size: it is called
   once per level of [replace_known]'s descent, so the memo exists to kill
   that quadratic behaviour on deep address-arithmetic chains, and on a
   tiny flag test the lookup costs about what it saves.  The cached
   [Expr.size] makes the gate O(1). *)
let memo_min_size = 16

(* Bottom-up known-bits computation.  [replace_known] queries it at every
   level of its descent, so without the memo the overall pass is
   quadratic in expression depth. *)
let rec known_bits e : bits =
  match e with
  | Const _ | Var _ | Cmp _ -> known_bits_raw e
  | _ ->
      if size e >= memo_min_size && Domain.DLS.get memo_enabled then begin
        let tbl = Domain.DLS.get kb_memo in
        match Hashtbl.find_opt tbl (node_id e) with
        | Some b -> b
        | None ->
            let b = known_bits_raw e in
            memo_store tbl (node_id e) b;
            b
      end
      else known_bits_raw e

and known_bits_raw e : bits =
  let w = width e in
  match e with
  | Const { value; _ } -> all_known w value
  | Var _ -> unknown
  | Unop { op = Bnot; arg; _ } -> known_not w (known_bits arg)
  | Unop { op = Neg; _ } -> unknown
  | Binop { op; lhs; rhs; _ } -> (
      let a = known_bits lhs and b = known_bits rhs in
      match op with
      | And -> known_and w a b
      | Or -> known_or w a b
      | Xor -> known_xor w a b
      | Shl -> (
          match to_const rhs with
          | Some s -> known_shl w a (Int64.to_int s mod w)
          | None -> unknown)
      | Lshr -> (
          match to_const rhs with
          | Some s -> known_lshr w a (Int64.to_int s mod w)
          | None -> unknown)
      | Add | Sub | Mul | Udiv | Urem | Ashr -> unknown)
  | Cmp _ -> unknown
  | Ite { then_; else_; _ } ->
      let a = known_bits then_ and b = known_bits else_ in
      let kmask =
        Int64.logand (Int64.logand a.kmask b.kmask)
          (Int64.lognot (Int64.logxor a.kval b.kval))
      in
      { kmask; kval = Int64.logand a.kval kmask }
  | Extract { hi = _; lo; arg; _ } ->
      let a = known_bits arg in
      {
        kmask = norm (Int64.shift_right_logical a.kmask lo) w;
        kval = norm (Int64.shift_right_logical a.kval lo) w;
      }
  | Concat { high; low; _ } ->
      let a = known_bits high and b = known_bits low in
      let lw = width low in
      {
        kmask = Int64.logor (Int64.shift_left a.kmask lw) b.kmask;
        kval = Int64.logor (Int64.shift_left a.kval lw) b.kval;
      }
  | Zext { arg; _ } ->
      let a = known_bits arg in
      let aw = width arg in
      let high_zeros = Int64.logand (mask w) (Int64.lognot (mask aw)) in
      { kmask = Int64.logor a.kmask high_zeros; kval = a.kval }
  | Sext { arg; _ } ->
      let a = known_bits arg in
      { kmask = Int64.logand a.kmask (mask (width arg)); kval = a.kval }

(* Ite rewriting beyond the smart constructor's constant-condition and
   equal-arms folds.  Inside the then-arm the condition is known true and
   inside the else-arm known false, so a nested ite on the same condition
   (or its negation) collapses to the matching arm:
   ite c (ite c a b) d = ite c a d, and dually on the else side.  The
   state-merging join nests exactly this shape — each join wraps cells in
   ite(guard, ...), and re-merging along the same guard re-wraps them —
   so the collapse keeps merged expressions linear instead of exponential
   in the number of joins. *)
let rec ite_arm cond ~in_then e =
  match e with
  | Ite { cond = c; then_; else_; _ } when equal c cond ->
      ite_arm cond ~in_then (if in_then then then_ else else_)
  | Ite { cond = c; then_; else_; _ } when equal c (log_not cond) ->
      ite_arm cond ~in_then (if in_then then else_ else then_)
  | _ -> e

let ite_s cond then_ else_ =
  ite cond
    (ite_arm cond ~in_then:true then_)
    (ite_arm cond ~in_then:false else_)

(* Top-down demanded-bits rewriting.  [demanded] is the set of bits of [e]
   the context observes; bits outside it may take any value. *)
let rec demand e demanded =
  let w = width e in
  let demanded = Int64.logand demanded (mask w) in
  if demanded = 0L then const ~width:w 0L
  else
    match e with
    | Const _ | Var _ | Cmp _ -> e
    | Unop { op = Bnot; arg; _ } -> bnot (demand arg demanded)
    | Unop { op = Neg; _ } -> e
    | Binop { op = And; lhs; rhs; _ } -> (
        let kb_l = known_bits lhs and kb_r = known_bits rhs in
        (* Drop a mask operand that is known-one on every demanded bit. *)
        let ones b = Int64.logand b.kmask b.kval in
        if Int64.logand demanded (Int64.lognot (ones kb_r)) = 0L then
          demand lhs demanded
        else if Int64.logand demanded (Int64.lognot (ones kb_l)) = 0L then
          demand rhs demanded
        else
          (* Bits known-zero on one side are not demanded of the other. *)
          let zeros b = Int64.logand b.kmask (Int64.lognot b.kval) in
          band
            (demand lhs (Int64.logand demanded (Int64.lognot (zeros kb_r))))
            (demand rhs (Int64.logand demanded (Int64.lognot (zeros kb_l)))))
    | Binop { op = Or; lhs; rhs; _ } -> (
        let kb_l = known_bits lhs and kb_r = known_bits rhs in
        let zeros b = Int64.logand b.kmask (Int64.lognot b.kval) in
        if Int64.logand demanded (Int64.lognot (zeros kb_r)) = 0L then
          demand lhs demanded
        else if Int64.logand demanded (Int64.lognot (zeros kb_l)) = 0L then
          demand rhs demanded
        else
          (* Bits known-one on one side dominate the other's contribution. *)
          let ones b = Int64.logand b.kmask b.kval in
          bor
            (demand lhs (Int64.logand demanded (Int64.lognot (ones kb_r))))
            (demand rhs (Int64.logand demanded (Int64.lognot (ones kb_l)))))
    | Binop { op = Xor; lhs; rhs; _ } ->
        bxor (demand lhs demanded) (demand rhs demanded)
    | Binop { op = Shl; lhs; rhs; _ } -> (
        match to_const rhs with
        | Some s ->
            let s = Int64.to_int s mod w in
            shl (demand lhs (Int64.shift_right_logical demanded s)) rhs
        | None -> e)
    | Binop { op = Lshr; lhs; rhs; _ } -> (
        match to_const rhs with
        | Some s ->
            let s = Int64.to_int s mod w in
            lshr (demand lhs (norm (Int64.shift_left demanded s) w)) rhs
        | None -> e)
    | Binop { op = Add | Sub; _ } ->
        (* Addition only propagates carries upward: bits above the highest
           demanded bit never influence demanded bits below them, so the
           operands only need bits up to the highest demanded one. *)
        let rec highest_bit i = if i < 0 then -1
          else if Int64.logand demanded (Int64.shift_left 1L i) <> 0L then i
          else highest_bit (i - 1) in
        let hb = highest_bit (w - 1) in
        if hb < 0 then const ~width:w 0L
        else
          let low_mask = mask (hb + 1) in
          (match e with
          | Binop { op; lhs; rhs; _ } ->
              binop op (demand lhs low_mask) (demand rhs low_mask)
          | _ -> e)
    | Binop _ -> e
    | Ite { cond; then_; else_; _ } ->
        ite_s cond (demand then_ demanded) (demand else_ demanded)
    | Extract { hi; lo; arg; _ } ->
        extract ~hi ~lo (demand arg (norm (Int64.shift_left demanded lo) (width arg)))
    | Concat { high; low; _ } ->
        let lw = width low in
        concat
          ~high:(demand high (Int64.shift_right_logical demanded lw))
          ~low:(demand low (Int64.logand demanded (mask lw)))
    | Zext { arg; width = w'; _ } ->
        zext ~width:w' (demand arg demanded)
    | Sext _ -> e

(* Full simplification: demanded-bits rewrite with everything demanded,
   then constant-replacement of fully-known sub-expressions. *)
let rec replace_known e =
  let w = width e in
  let kb = known_bits e in
  if is_fully_known w kb then const ~width:w kb.kval
  else
    match e with
    | Const _ | Var _ -> e
    | Unop { op; arg; _ } -> unop op (replace_known arg)
    | Binop { op; lhs; rhs; _ } ->
        binop op (replace_known lhs) (replace_known rhs)
    | Cmp { op; lhs; rhs; _ } ->
        let lhs = replace_known lhs and rhs = replace_known rhs in
        (* Use known bits to decide comparisons without a solver. *)
        let ka = known_bits lhs and kb' = known_bits rhs in
        let decided =
          match op with
          | Eq ->
              let both = Int64.logand ka.kmask kb'.kmask in
              if
                Int64.logand (Int64.logxor ka.kval kb'.kval) both <> 0L
              then Some false
              else None
          | Ult | Ule | Slt | Sle -> None
        in
        (match decided with Some b -> of_bool b | None -> cmp op lhs rhs)
    | Ite { cond; then_; else_; _ } ->
        ite_s (replace_known cond) (replace_known then_) (replace_known else_)
    | Extract { hi; lo; arg; _ } -> extract ~hi ~lo (replace_known arg)
    | Concat { high; low; _ } ->
        concat ~high:(replace_known high) ~low:(replace_known low)
    | Zext { arg; width = w'; _ } -> zext ~width:w' (replace_known arg)
    | Sext { arg; width = w'; _ } -> sext ~width:w' (replace_known arg)

let simplify_raw e =
  let e = demand e (mask (width e)) in
  replace_known e

(* Memoized by node id, every non-leaf node regardless of size: the
   solver re-simplifies every constraint of every query, so a path
   condition's constraints come back once per query on that path, and a
   hit is one table lookup where even a small constraint's recomputation
   rebuilds it through the interning constructors. *)
let simplify e =
  match e with
  | Const _ | Var _ -> e
  | _ -> (
      let tbl = Domain.DLS.get simplify_memo in
      match Hashtbl.find tbl (node_id e) with
      | e' -> e'
      | exception Not_found ->
          let e' = simplify_raw e in
          memo_store tbl (node_id e) e';
          e')

let simplify_uncached e =
  Domain.DLS.set memo_enabled false;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set memo_enabled true)
    (fun () -> simplify_raw e)
