(** Tseitin bit-blasting of {!S2e_expr.Expr} bitvector expressions to CNF.

    Each bitvector expression is lowered to a vector of SAT literals, one
    per bit (index 0 = least-significant).  Gates allocate fresh SAT
    variables and emit their defining clauses into the underlying
    {!Sat.t} instance. *)

open S2e_expr

(* The per-query memo keeps structural semantics (so a query mixing
   same-shape expressions of different provenance — a stolen state's
   constraints next to locally built ones — still blasts each shape
   once, which keeps the CNF and hence the found model a pure function
   of the constraint structure), but both hashing and equality are O(1)
   in the interned common case: the cached node hash replaces the
   tree-walking polymorphic [Hashtbl.hash], and [Expr.equal] starts
   with a pointer comparison. *)
module Expr_tbl = Hashtbl.Make (struct
  type t = Expr.t

  let hash e = Expr.hash e land max_int
  let equal = Expr.equal
end)

type ctx = {
  sat : Sat.t;
  true_lit : Sat.lit;
  false_lit : Sat.lit;
  (* Expression variable id -> per-bit SAT literals. *)
  var_bits : (int, Sat.lit array) Hashtbl.t;
  (* Memoization of already-blasted sub-expressions (structural). *)
  cache : Sat.lit array Expr_tbl.t;
  (* Remember variable widths so models can be extracted. *)
  var_width : (int, int) Hashtbl.t;
}

let create sat =
  let t = Sat.new_var sat in
  Sat.add_clause sat [| Sat.pos t |];
  {
    sat;
    true_lit = Sat.pos t;
    false_lit = Sat.neg t;
    var_bits = Hashtbl.create 64;
    cache = Expr_tbl.create 256;
    var_width = Hashtbl.create 64;
  }

let lit_of_bool ctx b = if b then ctx.true_lit else ctx.false_lit

let fresh ctx = Sat.pos (Sat.new_var ctx.sat)

(* --- gates ----------------------------------------------------------- *)

let gate_and ctx a b =
  if a = ctx.false_lit || b = ctx.false_lit then ctx.false_lit
  else if a = ctx.true_lit then b
  else if b = ctx.true_lit then a
  else if a = b then a
  else if a = Sat.lit_neg b then ctx.false_lit
  else begin
    let o = fresh ctx in
    Sat.add_clause ctx.sat [| Sat.lit_neg o; a |];
    Sat.add_clause ctx.sat [| Sat.lit_neg o; b |];
    Sat.add_clause ctx.sat [| o; Sat.lit_neg a; Sat.lit_neg b |];
    o
  end

let gate_or ctx a b = Sat.lit_neg (gate_and ctx (Sat.lit_neg a) (Sat.lit_neg b))

let gate_xor ctx a b =
  if a = ctx.false_lit then b
  else if b = ctx.false_lit then a
  else if a = ctx.true_lit then Sat.lit_neg b
  else if b = ctx.true_lit then Sat.lit_neg a
  else if a = b then ctx.false_lit
  else if a = Sat.lit_neg b then ctx.true_lit
  else begin
    let o = fresh ctx in
    Sat.add_clause ctx.sat [| Sat.lit_neg o; a; b |];
    Sat.add_clause ctx.sat [| Sat.lit_neg o; Sat.lit_neg a; Sat.lit_neg b |];
    Sat.add_clause ctx.sat [| o; Sat.lit_neg a; b |];
    Sat.add_clause ctx.sat [| o; a; Sat.lit_neg b |];
    o
  end

(* o = if c then a else b *)
let gate_ite ctx c a b =
  if c = ctx.true_lit then a
  else if c = ctx.false_lit then b
  else if a = b then a
  else begin
    let o = fresh ctx in
    Sat.add_clause ctx.sat [| Sat.lit_neg o; Sat.lit_neg c; a |];
    Sat.add_clause ctx.sat [| Sat.lit_neg o; c; b |];
    Sat.add_clause ctx.sat [| o; Sat.lit_neg c; Sat.lit_neg a |];
    Sat.add_clause ctx.sat [| o; c; Sat.lit_neg b |];
    o
  end

let gate_maj ctx a b c =
  gate_or ctx (gate_and ctx a b) (gate_or ctx (gate_and ctx a c) (gate_and ctx b c))

(* --- arithmetic circuits --------------------------------------------- *)

(* Ripple-carry a + b + [cin], bit 0 first, each bit's sum gates before
   its majority.  Only what the caller reads is built: the sum bits when
   [sum] is set (else [out] stays empty), and the top bit's carry out when
   [carry_out] is.  A dropped gate would only have been created after its
   inputs and read by nothing, so propagation assigns it before the
   lowest-index branching rule reaches it and it never enters conflict
   analysis: dropping it changes no decision (DESIGN.md §12). *)
let ripple ctx ~sum ~carry_out cin a b =
  let w = Array.length a in
  let out = Array.make (if sum then w else 0) ctx.false_lit in
  let carry = ref cin in
  for i = 0 to w - 1 do
    if sum then out.(i) <- gate_xor ctx (gate_xor ctx a.(i) b.(i)) !carry;
    if carry_out || i < w - 1 then carry := gate_maj ctx a.(i) b.(i) !carry
  done;
  (out, !carry)

let adder ctx a b = fst (ripple ctx ~sum:true ~carry_out:false ctx.false_lit a b)

let negate_bits a = Array.map Sat.lit_neg a

(* a - b = a + ~b + 1; its carry out is 1 iff nothing borrows (a >= b
   unsigned). *)
let subtractor ctx ~carry_out a b =
  ripple ctx ~sum:true ~carry_out ctx.true_lit a (negate_bits b)

let mux_vec ctx c a b = Array.init (Array.length a) (fun i -> gate_ite ctx c a.(i) b.(i))

let const_bits ctx w v =
  Array.init w (fun i ->
      lit_of_bool ctx (Int64.logand (Int64.shift_right_logical v i) 1L = 1L))

let multiplier ctx a b =
  let w = Array.length a in
  let acc = ref (const_bits ctx w 0L) in
  for i = 0 to w - 1 do
    (* partial product: (a << i) masked by b.(i) *)
    let shifted =
      Array.init w (fun j -> if j < i then ctx.false_lit else a.(j - i))
    in
    let masked = Array.map (fun l -> gate_and ctx b.(i) l) shifted in
    acc := adder ctx !acc masked
  done;
  !acc

(* Restoring division: computes quotient and remainder.  With b = 0 this
   naturally yields q = all-ones and r = a, matching the SMT-LIB semantics
   used by {!Expr.eval_binop}. *)
let divider ctx a b =
  let w = Array.length a in
  (* Remainder register is w+1 bits to hold the shifted-in bit safely. *)
  let bw = Array.append b [| ctx.false_lit |] in
  let r = ref (const_bits ctx (w + 1) 0L) in
  let q = Array.make w ctx.false_lit in
  for i = w - 1 downto 0 do
    (* r = (r << 1) | a_i *)
    let shifted = Array.init (w + 1) (fun j -> if j = 0 then a.(i) else !r.(j - 1)) in
    let diff, no_borrow = subtractor ctx ~carry_out:true shifted bw in
    q.(i) <- no_borrow;
    r := mux_vec ctx no_borrow diff shifted
  done;
  (q, Array.sub !r 0 w)

let barrel_shift ctx dir a amount =
  (* [amount] is taken modulo the width (widths are powers of two). *)
  let w = Array.length a in
  let stages = int_of_float (ceil (log (float_of_int w) /. log 2.)) in
  let res = ref a in
  for s = 0 to stages - 1 do
    let k = 1 lsl s in
    let ctrl = amount.(s) in
    let shifted =
      match dir with
      | `Left -> Array.init w (fun i -> if i < k then ctx.false_lit else !res.(i - k))
      | `Lshr -> Array.init w (fun i -> if i + k >= w then ctx.false_lit else !res.(i + k))
      | `Ashr ->
          let sign = a.(w - 1) in
          Array.init w (fun i -> if i + k >= w then sign else !res.(i + k))
    in
    res := mux_vec ctx ctrl shifted !res
  done;
  !res

let eq_bits ctx a b =
  let w = Array.length a in
  let acc = ref ctx.true_lit in
  for i = 0 to w - 1 do
    acc := gate_and ctx !acc (Sat.lit_neg (gate_xor ctx a.(i) b.(i)))
  done;
  !acc

(* a < b unsigned iff a - b borrows: the borrow chain of a + ~b + 1 alone,
   one majority gate per bit and no sum bit. *)
let ult_bits ctx a b =
  Sat.lit_neg
    (snd (ripple ctx ~sum:false ~carry_out:true ctx.true_lit a (negate_bits b)))

let slt_bits ctx a b =
  let w = Array.length a in
  let sa = a.(w - 1) and sb = b.(w - 1) in
  (* signs differ: a < b iff a negative; same sign: unsigned compare. *)
  gate_ite ctx (gate_xor ctx sa sb) sa (ult_bits ctx a b)

(* --- expression lowering --------------------------------------------- *)

let rec blast ctx (e : Expr.t) : Sat.lit array =
  match Expr_tbl.find_opt ctx.cache e with
  | Some bits -> bits
  | None ->
      (* [e] is not among its own subterms, so the miss still holds after
         blasting them: [add] needs no second lookup. *)
      let bits = blast_uncached ctx e in
      Expr_tbl.add ctx.cache e bits;
      bits

and blast_uncached ctx e =
  let w = Expr.width e in
  match e with
  | Const { value; _ } -> const_bits ctx w value
  | Var { id; width; _ } -> (
      match Hashtbl.find_opt ctx.var_bits id with
      | Some bits -> bits
      | None ->
          let bits = Array.init width (fun _ -> fresh ctx) in
          Hashtbl.replace ctx.var_bits id bits;
          Hashtbl.replace ctx.var_width id width;
          bits)
  | Unop { op = Bnot; arg; _ } -> negate_bits (blast ctx arg)
  | Unop { op = Neg; arg; _ } ->
      let a = negate_bits (blast ctx arg) in
      adder ctx a (const_bits ctx w 1L)
  | Binop { op; lhs; rhs; _ } -> (
      let a = blast ctx lhs and b = blast ctx rhs in
      match op with
      | Add -> adder ctx a b
      | Sub -> fst (subtractor ctx ~carry_out:false a b)
      | Mul -> multiplier ctx a b
      | Udiv -> fst (divider ctx a b)
      | Urem -> snd (divider ctx a b)
      | And -> Array.init w (fun i -> gate_and ctx a.(i) b.(i))
      | Or -> Array.init w (fun i -> gate_or ctx a.(i) b.(i))
      | Xor -> Array.init w (fun i -> gate_xor ctx a.(i) b.(i))
      | Shl -> barrel_shift ctx `Left a b
      | Lshr -> barrel_shift ctx `Lshr a b
      | Ashr -> barrel_shift ctx `Ashr a b)
  | Cmp { op; lhs; rhs; _ } -> (
      let a = blast ctx lhs and b = blast ctx rhs in
      match op with
      | Eq -> [| eq_bits ctx a b |]
      | Ult -> [| ult_bits ctx a b |]
      | Ule -> [| Sat.lit_neg (ult_bits ctx b a) |]
      | Slt -> [| slt_bits ctx a b |]
      | Sle -> [| Sat.lit_neg (slt_bits ctx b a) |])
  | Ite { cond; then_; else_; _ } ->
      let c = (blast ctx cond).(0) in
      mux_vec ctx c (blast ctx then_) (blast ctx else_)
  | Extract { hi = _; lo; arg; _ } ->
      let a = blast ctx arg in
      Array.sub a lo w
  | Concat { high; low; _ } -> Array.append (blast ctx low) (blast ctx high)
  | Zext { arg; _ } ->
      let a = blast ctx arg in
      Array.init w (fun i -> if i < Array.length a then a.(i) else ctx.false_lit)
  | Sext { arg; _ } ->
      let a = blast ctx arg in
      let aw = Array.length a in
      Array.init w (fun i -> if i < aw then a.(i) else a.(aw - 1))

(** Assert a width-1 expression to be true. *)
let assert_true ctx e =
  assert (Expr.width e = 1);
  let bits = blast ctx e in
  Sat.add_clause ctx.sat [| bits.(0) |]

(** The SAT literal equivalent to a width-1 expression: the Tseitin
    encoding is (re)used from the per-context persistent CNF map, so the
    same interned node yields the same literal for the context's lifetime.
    Asserting the literal as a {!Sat.assume} probe instead of a unit
    clause is what makes constraints retractable. *)
let literal ctx e =
  assert (Expr.width e = 1);
  (blast ctx e).(0)

(** Extract a model for all blasted expression variables after a
    satisfiable {!Sat.solve}. *)
let model ctx : Expr.model =
  Hashtbl.fold
    (fun id bits acc ->
      let v = ref 0L in
      Array.iteri
        (fun i l ->
          if Sat.model_value ctx.sat (Sat.lit_var l) = Sat.lit_sign l then
            v := Int64.logor !v (Int64.shift_left 1L i))
        bits;
      Expr.Int_map.add id !v acc)
    ctx.var_bits Expr.Int_map.empty
