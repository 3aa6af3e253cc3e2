(* The concrete fast path keeps every result of the code it replaced:
   native-int evaluation against [Expr.eval], the constant cache against
   interning, the allocation-free [Solver.slice] against the pair-list
   version, the model cache's verdict memo against a plain scan, DFS lazy
   popping against whole-stack filtering, the chunked memory overlay
   against a per-byte map, the O(1) overlay count and constraint
   measurements against recounts, and the DBT code-page
   bitmap against exact block invalidation. *)

open S2e_core
module Expr = S2e_expr.Expr
module Solver = S2e_solver.Solver
module Dbt = S2e_dbt.Dbt
module Insn = S2e_isa.Insn

(* ------------------------------------------------------------------ *)
(* Expr.eval_int                                                       *)
(* ------------------------------------------------------------------ *)

let var_pool = Hashtbl.create 64

(* Three variables per width, minted once so trees share them. *)
let var_of rng w =
  let vs =
    match Hashtbl.find_opt var_pool w with
    | Some vs -> vs
    | None ->
        let vs =
          Array.init 3 (fun i -> Expr.fresh_var ~width:w (Printf.sprintf "e%d_%d" w i))
        in
        Hashtbl.replace var_pool w vs;
        vs
  in
  vs.(Random.State.int rng 3)

let random_value rng w =
  match Random.State.int rng 5 with
  | 0 -> 0L
  | 1 -> 1L
  | 2 -> Expr.mask w
  | 3 -> Int64.of_int (w + Random.State.int rng 70) (* shift amounts >= w *)
  | _ -> Expr.norm (Random.State.bits64 rng) w

let binops = Expr.[ Add; Sub; Mul; Udiv; Urem; And; Or; Xor; Shl; Lshr; Ashr ]
let cmpops = Expr.[ Eq; Ult; Ule; Slt; Sle ]
let pick rng l = List.nth l (Random.State.int rng (List.length l))
let any_width rng = 1 + Random.State.int rng 64

(* A random expression of exactly [w] bits.  Half the interior nodes use
   the structure-preserving [Raw] constructors, so constant operands
   (division by zero, oversized shifts) reach the evaluator unfolded. *)
let rec gen rng w depth =
  let raw = Random.State.bool rng in
  if depth = 0 || Random.State.int rng 8 = 0 then leaf rng w
  else
    match Random.State.int rng 9 with
    | 0 ->
        let op = pick rng Expr.[ Neg; Bnot ] in
        let a = gen rng w (depth - 1) in
        if raw then Expr.Raw.unop op a else Expr.unop op a
    | 1 | 2 ->
        let op = pick rng binops in
        let a = gen rng w (depth - 1) and b = gen rng w (depth - 1) in
        if raw then Expr.Raw.binop op a b else Expr.binop op a b
    | 3 ->
        let c = gen rng 1 (depth - 1) in
        let a = gen rng w (depth - 1) and b = gen rng w (depth - 1) in
        if raw then Expr.Raw.ite c a b else Expr.ite c a b
    | 4 when w < 64 ->
        let wa = w + 1 + Random.State.int rng (64 - w) in
        let lo = Random.State.int rng (wa - w + 1) in
        let a = gen rng wa (depth - 1) in
        if raw then Expr.Raw.extract ~hi:(lo + w - 1) ~lo a
        else Expr.extract ~hi:(lo + w - 1) ~lo a
    | 5 when w > 1 ->
        let wh = 1 + Random.State.int rng (w - 1) in
        let high = gen rng wh (depth - 1) and low = gen rng (w - wh) (depth - 1) in
        if raw then Expr.Raw.concat ~high ~low else Expr.concat ~high ~low
    | 6 when w > 1 ->
        let wa = 1 + Random.State.int rng (w - 1) in
        let a = gen rng wa (depth - 1) in
        (match Random.State.int rng 4 with
        | 0 -> Expr.Raw.zext ~width:w a
        | 1 -> Expr.Raw.sext ~width:w a
        | 2 -> Expr.zext ~width:w a
        | _ -> Expr.sext ~width:w a)
    | 7 when w = 1 ->
        let wa = any_width rng in
        let op = pick rng cmpops in
        let a = gen rng wa (depth - 1) and b = gen rng wa (depth - 1) in
        if raw then Expr.Raw.cmp op a b else Expr.cmp op a b
    | _ ->
        let op = pick rng binops in
        let a = gen rng w (depth - 1) and b = gen rng w (depth - 1) in
        if raw then Expr.Raw.binop op a b else Expr.binop op a b

and leaf rng w =
  if Random.State.bool rng then Expr.const ~width:w (random_value rng w)
  else var_of rng w

(* Bind most variables; the rest read as 0 in both evaluators. *)
let random_model rng e =
  Expr.fold_vars
    (fun m id _ w ->
      if Random.State.int rng 5 = 0 then m
      else Expr.Int_map.add id (random_value rng w) m)
    Expr.Int_map.empty e

let check_eval_int m e =
  let w = Expr.width e in
  if w <= 62 then begin
    let expect = Int64.to_int (Expr.eval m e) and got = Expr.eval_int m e in
    if expect <> got then
      Alcotest.failf "eval_int %d <> eval %d (width %d): %s" got expect w
        (Expr.to_string e)
  end
  else
    match Expr.eval_int m e with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "eval_int accepted width %d" w

let test_eval_int_random () =
  let rng = Random.State.make [| 0xE7A1; 62 |] in
  for _ = 1 to 3000 do
    let w = if Random.State.int rng 3 = 0 then 1 else any_width rng in
    let e = gen rng w (1 + Random.State.int rng 5) in
    for _ = 1 to 3 do
      check_eval_int (random_model rng e) e
    done
  done

(* The cases the random trees hit only by chance, spelled out. *)
let test_eval_int_edges () =
  let x8 = Expr.fresh_var ~width:8 "x8" and x64 = Expr.fresh_var ~width:64 "x64" in
  let id = function Expr.Var { id; _ } -> id | _ -> assert false in
  let m =
    Expr.Int_map.(empty |> add (id x8) 0x9cL |> add (id x64) 0xfedcba9876543210L)
  in
  let c w v = Expr.Raw.const ~width:w v in
  let cases =
    [
      Expr.Raw.binop Udiv x8 (c 8 0L);
      Expr.Raw.binop Urem x8 (c 8 0L);
      Expr.Raw.binop Udiv (c 8 7L) (c 8 0L);
      Expr.Raw.binop Urem (c 8 7L) (c 8 0L);
      Expr.Raw.binop Shl x8 (c 8 8L);
      Expr.Raw.binop Shl x8 (c 8 13L);
      Expr.Raw.binop Lshr x8 (c 8 9L);
      Expr.Raw.binop Ashr x8 (c 8 15L);
      Expr.Raw.binop Ashr x8 (c 8 3L);
      Expr.Raw.sext ~width:32 x8;
      Expr.Raw.sext ~width:62 x8;
      Expr.Raw.binop Ashr (Expr.Raw.const ~width:62 (Int64.shift_left 1L 61)) (c 62 5L);
      Expr.Raw.binop Mul (c 62 (Expr.mask 62)) (c 62 (Expr.mask 62));
      Expr.Raw.binop Add (c 62 (Expr.mask 62)) (c 62 1L);
      Expr.Raw.extract ~hi:62 ~lo:1 x64;
      Expr.Raw.extract ~hi:63 ~lo:60 x64;
      Expr.Raw.cmp Ult x64 (c 64 1L);
      Expr.Raw.cmp Slt x64 (c 64 1L);
      Expr.Raw.cmp Sle (c 64 (Expr.mask 64)) x64;
      Expr.Raw.cmp Slt (Expr.Raw.sext ~width:62 x8) (c 62 0L);
      Expr.Raw.concat ~high:x8 ~low:(Expr.Raw.extract ~hi:53 ~lo:0 x64);
      x64 (* wider than 62: rejected *);
    ]
  in
  List.iter (check_eval_int m) cases

(* ------------------------------------------------------------------ *)
(* Constant cache                                                      *)
(* ------------------------------------------------------------------ *)

let test_const_cache_identity () =
  let c = Expr.const ~width:16 0x1234L in
  Alcotest.(check bool) "repeat hit" true (Expr.const ~width:16 0x1234L == c);
  Alcotest.(check bool) "raw constructor agrees" true
    (Expr.Raw.const ~width:16 0x1234L == c);
  Alcotest.(check bool) "re-interning agrees" true (Expr.intern_expr c == c);
  Alcotest.(check bool) "folding agrees" true
    (Expr.add (Expr.const ~width:16 0x1000L) (Expr.const ~width:16 0x234L) == c);
  Alcotest.(check bool) "width is part of the key" false
    (Expr.const ~width:32 0x1234L == c);
  Gc.full_major ();
  Alcotest.(check bool) "after a full major GC" true (Expr.const ~width:16 0x1234L == c);
  (* Evict every slot, then miss: interning must return the live node. *)
  for i = 0 to 20_000 do
    ignore (Expr.const ~width:16 (Int64.of_int i))
  done;
  Gc.full_major ();
  Alcotest.(check bool) "after eviction" true (Expr.const ~width:16 0x1234L == c)

(* A state built in one domain and re-interned in another holds the
   second domain's constant nodes, and the cache there hands out the
   same ones. *)
let test_const_cache_reintern_domain () =
  let s =
    State.create
      ~mem:(Symmem.create ~base:(Bytes.make 64 '\000'))
      ~devices:(S2e_vm.Devices.create ()) ~pc:0
  in
  State.set_reg s 1 (Expr.const 0xABCDEFL);
  State.set_reg s 2 (Expr.const ~width:32 7L);
  let here = State.get_reg s 1 in
  let ok =
    Domain.join
      (Domain.spawn (fun () ->
           State.reintern s;
           let r1 = State.get_reg s 1 and r2 = State.get_reg s 2 in
           Gc.full_major ();
           r1 == Expr.const 0xABCDEFL
           && r2 == Expr.const 7L
           && r1 != here
           && Expr.equal r1 here))
  in
  Alcotest.(check bool) "second domain's cache returns its interned node" true ok;
  State.reintern s;
  Alcotest.(check bool) "back home" true (State.get_reg s 1 == Expr.const 0xABCDEFL)

(* ------------------------------------------------------------------ *)
(* Solver.slice                                                        *)
(* ------------------------------------------------------------------ *)

(* The pair-list implementation [Solver.slice] replaced. *)
let reference_slice ~seed_vars constraints =
  let remaining = ref (List.map (fun c -> (c, Expr.vars c)) constraints) in
  let relevant = ref [] in
  let frontier = ref seed_vars in
  let changed = ref true in
  while !changed do
    changed := false;
    let keep, rest =
      List.partition
        (fun (_, vs) -> not (Expr.Int_set.disjoint vs !frontier))
        !remaining
    in
    if keep <> [] then begin
      changed := true;
      List.iter
        (fun (c, vs) ->
          relevant := c :: !relevant;
          frontier := Expr.Int_set.union !frontier vs)
        keep;
      remaining := rest
    end
  done;
  !relevant

let test_slice_matches_reference () =
  let rng = Random.State.make [| 0x511CE |] in
  let vars = Array.init 12 (fun i -> Expr.fresh_var ~width:8 (Printf.sprintf "s%d" i)) in
  let some_var () = vars.(Random.State.int rng (Array.length vars)) in
  let constr () =
    match Random.State.int rng 4 with
    | 0 -> Expr.ult (some_var ()) (Expr.const ~width:8 (Random.State.int64 rng 256L))
    | 1 -> Expr.eq (Expr.add (some_var ()) (some_var ())) (Expr.const ~width:8 3L)
    | 2 ->
        Expr.ne (Expr.bxor (some_var ()) (Expr.band (some_var ()) (some_var ())))
          (Expr.const ~width:8 0L)
    | _ -> Expr.ule (some_var ()) (some_var ())
  in
  for _ = 1 to 2000 do
    let cs = List.init (Random.State.int rng 30) (fun _ -> constr ()) in
    let seed_vars =
      List.fold_left
        (fun acc v -> Expr.Int_set.union acc (Expr.vars v))
        Expr.Int_set.empty
        (List.init (Random.State.int rng 3) (fun _ -> some_var ()))
    in
    let expect = reference_slice ~seed_vars cs
    and got = Solver.slice ~seed_vars cs in
    if not (List.equal ( == ) expect got) then
      Alcotest.failf "slice differs from the pair-list slice (%d vs %d constraints)"
        (List.length expect) (List.length got)
  done

(* A query the model cache answers must get the most recent remembered
   model that satisfies it, whatever verdicts the cache kept from earlier
   scans of the same models. *)
let test_model_cache_scan () =
  let rng = Random.State.make [| 0x40DE1 |] in
  let vars = Array.init 6 (fun i -> Expr.fresh_var ~width:8 (Printf.sprintf "mc%d" i)) in
  (* More constraints than the memo has slots per model, so verdicts
     collide on the slot index. *)
  let pool =
    Array.init 300 (fun _ ->
        let v = vars.(Random.State.int rng 6) and w = vars.(Random.State.int rng 6) in
        let k = Expr.const ~width:8 (Random.State.int64 rng 256L) in
        match Random.State.int rng 3 with
        | 0 -> Expr.ult v k
        | 1 -> Expr.ule k (Expr.add v w)
        | _ -> Expr.ne (Expr.band v k) (Expr.const ~width:8 0L))
  in
  let ctx = Solver.create_ctx () in
  let hits = ref 0 in
  for _ = 1 to 3000 do
    let cs =
      List.init (1 + Random.State.int rng 5) (fun _ ->
          pool.(Random.State.int rng (Array.length pool)))
    in
    let before = Solver.models ctx in
    let holds m = List.for_all (fun c -> Expr.eval m c = 1L) cs in
    match List.find_opt holds before, Solver.check ~ctx cs with
    | Some m, Solver.Sat m' ->
        incr hits;
        if m != m' then Alcotest.fail "cache hit returned another model"
    | Some _, _ -> Alcotest.fail "a remembered model satisfies the query"
    | None, _ -> ()
  done;
  Alcotest.(check bool) "the cache answered some queries" true (!hits > 100)

(* ------------------------------------------------------------------ *)
(* DFS selection                                                       *)
(* ------------------------------------------------------------------ *)

let fresh_state () =
  State.create
    ~mem:(Symmem.create ~base:(Bytes.create 16))
    ~devices:(S2e_vm.Devices.create ()) ~pc:0x1000

(* Random adds, kills (dead states left in place, at any depth) and
   removals: every select must return what filtering the whole stack
   would put on top. *)
let test_dfs_lazy_pop () =
  let rng = Random.State.make [| 0xDF5 |] in
  for _ = 1 to 200 do
    let d = Searcher.dfs () in
    let model = ref [] (* newest first, dead states kept *) in
    for _ = 1 to 60 do
      (match Random.State.int rng 5 with
      | 0 | 1 ->
          let s = fresh_state () in
          d.add s;
          model := s :: !model
      | 2 -> (
          match !model with
          | [] -> ()
          | l -> (List.nth l (Random.State.int rng (List.length l))).State.status <- State.Halted)
      | 3 -> (
          match !model with
          | [] -> ()
          | l ->
              let s = List.nth l (Random.State.int rng (List.length l)) in
              d.remove s;
              model := List.filter (fun s' -> s' != s) !model)
      | _ -> ());
      let expect = List.find_opt State.is_active !model in
      let got = d.select () in
      (match expect, got with
      | None, None -> ()
      | Some e, Some g when e == g -> ()
      | _ -> Alcotest.fail "dfs select differs from whole-stack filtering");
      Alcotest.(check int) "size counts live states"
        (List.length (List.filter State.is_active !model)) (d.size ())
    done
  done

(* ------------------------------------------------------------------ *)
(* Symmem overlay count and State measurements                         *)
(* ------------------------------------------------------------------ *)

let recount m = Symmem.fold_overlay (fun _ _ n -> n + 1) m 0

let test_overlay_count () =
  let rng = Random.State.make [| 0x0CE |] in
  let base = Bytes.make 256 '\000' in
  let m = ref (Symmem.create ~base) in
  let sym = Expr.fresh_var ~width:8 "ov" in
  for i = 1 to 2000 do
    let a = Random.State.int rng 250 in
    (match Random.State.int rng 4 with
    | 0 -> m := Symmem.write_word !m a (Expr.const (Random.State.int64 rng 0x1_0000_0000L))
    | 1 -> m := Symmem.write_byte !m a sym
    | 2 -> m := Symmem.write_byte !m a (Expr.const ~width:8 (Int64.of_int (i land 0xff)))
    | _ -> m := Symmem.map_overlay (fun e -> e) !m);
    Alcotest.(check int) "count after write" (recount !m) (Symmem.overlay_size !m)
  done;
  let entries =
    List.init 300 (fun _ ->
        (Random.State.int rng 256, Expr.const ~width:8 (Random.State.int64 rng 256L)))
  in
  let m' = Symmem.of_overlay ~base entries in
  Alcotest.(check int) "of_overlay with repeated addresses" (recount m')
    (Symmem.overlay_size m');
  let m'' = Symmem.map_overlay (fun _ -> sym) m' in
  Alcotest.(check int) "map_overlay" (recount m'') (Symmem.overlay_size m'')

(* The chunked overlay against a plain per-byte map, driven through
   random writes (aligned, unaligned and chunk-crossing words, symbolic
   values, rewrites of the byte already there), rewrites of every byte
   and rebuilds from an entry list.  Every read, the byte count and the
   ordered fold must agree after each step. *)
module Byte_map = Map.Make (Int)

type mem_op =
  | Byte of int * int (* address, value pick *)
  | Word of int * int
  | Rewrite_byte of int (* store the byte read back at this address *)
  | Rewrite_word of int
  | Map_overlay
  | Of_overlay of int (* shuffle seed *)

let pp_mem_op = function
  | Byte (a, v) -> Printf.sprintf "Byte(%d,%d)" a v
  | Word (a, v) -> Printf.sprintf "Word(%d,%d)" a v
  | Rewrite_byte a -> Printf.sprintf "Rewrite_byte %d" a
  | Rewrite_word a -> Printf.sprintf "Rewrite_word %d" a
  | Map_overlay -> "Map_overlay"
  | Of_overlay k -> Printf.sprintf "Of_overlay %d" k

let model_size = 64
let model_sym8 = Expr.fresh_var ~width:8 "mb"
let model_sym32 = Expr.fresh_var ~width:32 "mw"

(* Few distinct constants, so stores often repeat what a slot holds. *)
let model_byte v =
  match v mod 6 with
  | 4 -> model_sym8
  | 5 -> Expr.extract ~hi:15 ~lo:8 model_sym32
  | c -> Expr.const ~width:8 (Int64.of_int c)

let model_word v =
  match v mod 5 with
  | 3 -> model_sym32
  | 4 -> Expr.add model_sym32 (Expr.const (Int64.of_int v))
  | c -> Expr.const (Int64.of_int (c * 0x01000100))

let gen_mem_op =
  let open QCheck2.Gen in
  let addr = int_bound (model_size - 1) and waddr = int_bound (model_size - 4) in
  frequency
    [
      (4, map2 (fun a v -> Byte (a, v)) addr nat);
      (4, map2 (fun a v -> Word (a, v)) waddr nat);
      (2, map (fun a -> Rewrite_byte a) addr);
      (1, map (fun a -> Rewrite_word a) waddr);
      (1, pure Map_overlay);
      (1, map (fun k -> Of_overlay k) nat);
    ]

let model_base = Bytes.init model_size (fun i -> Char.chr (i mod 3))

let model_read_byte r a =
  match Byte_map.find_opt a r with
  | Some e -> e
  | None -> Expr.const ~width:8 (Int64.of_int (Char.code (Bytes.get model_base a)))

let model_write_word r a v =
  let byte i = Expr.extract ~hi:((8 * i) + 7) ~lo:(8 * i) v in
  List.fold_left (fun r i -> Byte_map.add (a + i) (byte i) r) r [ 0; 1; 2; 3 ]

let check_model_mem m r =
  let ok = ref (Symmem.overlay_size m = Byte_map.cardinal r) in
  ok := !ok && Symmem.fold_overlay (fun a e acc -> (a, e) :: acc) m [] = List.rev (Byte_map.bindings r);
  ok := !ok && Symmem.base m == model_base;
  for a = 0 to model_size - 1 do
    let e = model_read_byte r a in
    ok := !ok && Expr.equal (Symmem.read_byte m a) e;
    ok :=
      !ok
      && Symmem.concrete_byte m a
         = Option.map Int64.to_int (Expr.to_const e)
  done;
  for a = 0 to model_size - 4 do
    let b i = model_read_byte r (a + i) in
    let w =
      Expr.concat ~high:(Expr.concat ~high:(b 3) ~low:(b 2))
        ~low:(Expr.concat ~high:(b 1) ~low:(b 0))
    in
    ok := !ok && Expr.equal (Symmem.read_word m a) w
  done;
  !ok

let step_mem_op (m, r) = function
  | Byte (a, v) ->
      let e = model_byte v in
      (Symmem.write_byte m a e, Byte_map.add a e r)
  | Word (a, v) ->
      let e = model_word v in
      (Symmem.write_word m a e, model_write_word r a e)
  | Rewrite_byte a ->
      let e = Symmem.read_byte m a in
      let m' = Symmem.write_byte m a e in
      if Byte_map.mem a r && m' != m then
        QCheck2.Test.fail_reportf "rewriting byte %d built a new memory" a;
      (m', Byte_map.add a e r)
  | Rewrite_word a ->
      let e = Symmem.read_word m a in
      (Symmem.write_word m a e, model_write_word r a e)
  | Map_overlay ->
      (* [f] must see the bytes in increasing address order. *)
      let seen = ref [] and want = ref [] in
      let f e = Expr.add e (Expr.const ~width:8 1L) in
      let m' = Symmem.map_overlay (fun e -> seen := e :: !seen; f e) m in
      let r' = Byte_map.map (fun e -> want := e :: !want; f e) r in
      if not (List.equal ( == ) !seen !want) then
        QCheck2.Test.fail_report "map_overlay visited bytes out of order";
      (m', r')
  | Of_overlay k ->
      (* Shuffled, with a repeated address whose later entry wins. *)
      let rng = Random.State.make [| k |] in
      let entries =
        Byte_map.bindings r
        |> List.map (fun b -> (Random.State.bits rng, b))
        |> List.sort compare |> List.map snd
      in
      let entries = entries @ [ (k mod model_size, model_byte k) ] in
      ( Symmem.of_overlay ~base:model_base entries,
        List.fold_left (fun r (a, e) -> Byte_map.add a e r) Byte_map.empty entries )

let prop_symmem_model =
  QCheck2.Test.make ~count:300 ~name:"chunked overlay matches a per-byte map"
    ~print:(fun ops -> String.concat "; " (List.map pp_mem_op ops))
    QCheck2.Gen.(list_size (int_range 1 40) gen_mem_op)
    (fun ops ->
      let m = Symmem.create ~base:model_base in
      let rec go st i = function
        | [] -> true
        | op :: rest ->
            let ((m, r) as st) = step_mem_op st op in
            if not (check_model_mem m r) then
              QCheck2.Test.fail_reportf "diverged after op %d (%s)" i (pp_mem_op op);
            go st (i + 1) rest
      in
      go (m, Byte_map.empty) 0 ops)

let test_state_measure () =
  let rng = Random.State.make [| 0x5A7E |] in
  let s = fresh_state () in
  let x = Expr.fresh_var ~width:32 "m" in
  let child = ref None in
  for _ = 1 to 500 do
    (match Random.State.int rng 6 with
    | 0 | 1 | 2 ->
        State.add_constraint s
          (Expr.ult x (Expr.const (Int64.of_int (Random.State.int rng 1000))))
    | 3 -> s.constraints <- List.filteri (fun i _ -> i mod 2 = 0) s.constraints
    | 4 -> child := Some (State.fork s)
    | _ -> ( match !child with Some c -> s.constraints <- c.constraints | None -> ()));
    Alcotest.(check int) "constraint_count" (List.length s.constraints)
      (State.constraint_count s);
    Alcotest.(check int) "footprint"
      (Array.length s.regs + Symmem.overlay_size s.mem
      + List.fold_left (fun acc c -> acc + Expr.size c) 0 s.constraints)
      (State.footprint s)
  done

(* ------------------------------------------------------------------ *)
(* DBT code-page bitmap                                                *)
(* ------------------------------------------------------------------ *)

let block_bytes n =
  let buf = Bytes.make (n * Insn.insn_size) '\000' in
  for i = 0 to n - 2 do
    Insn.encode (Insn.Li { rd = 1; imm = Int32.of_int i }) buf (i * Insn.insn_size)
  done;
  Insn.encode Insn.Halt buf ((n - 1) * Insn.insn_size);
  buf

let translate dbt code origin pc =
  Dbt.translate dbt
    ~fetch:(fun a -> Char.code (Bytes.get code (a - origin)))
    ~on_translate:(fun _ _ -> ())
    pc

let test_dbt_code_pages () =
  let origin = 0x4000 in
  let code = block_bytes 4 in
  let dbt = Dbt.create () in
  let far = 0x20000 in
  Alcotest.(check bool) "nothing translated yet" false (Dbt.may_hold_code dbt origin);
  ignore (translate dbt code origin origin);
  Alcotest.(check bool) "translated page marked" true (Dbt.may_hold_code dbt origin);
  Alcotest.(check bool) "last byte's page marked" true
    (Dbt.may_hold_code dbt (origin + Bytes.length code - 1));
  Alcotest.(check bool) "other page clear" false (Dbt.may_hold_code dbt far);
  Dbt.invalidate dbt far;
  Alcotest.(check int) "store to an untranslated page drops nothing" 1 (Dbt.cached_blocks dbt);
  (* Same page, outside the block: the bit is set, the exact search
     still keeps the block. *)
  Dbt.invalidate dbt (origin + Bytes.length code);
  Alcotest.(check int) "store beside the block keeps it" 1 (Dbt.cached_blocks dbt);
  Dbt.invalidate dbt (origin + 9);
  Alcotest.(check int) "store into the block drops it" 0 (Dbt.cached_blocks dbt);
  ignore (translate dbt code origin origin);
  Alcotest.(check int) "retranslated" 1 (Dbt.cached_blocks dbt);
  Dbt.flush dbt;
  Alcotest.(check bool) "flush clears the bitmap" false (Dbt.may_hold_code dbt origin);
  (* A block crossing a page boundary marks both pages. *)
  let cross = origin + 0x100 - (2 * Insn.insn_size) in
  ignore (translate dbt code cross cross);
  Alcotest.(check bool) "first page" true (Dbt.may_hold_code dbt cross);
  Alcotest.(check bool) "second page" true (Dbt.may_hold_code dbt (origin + 0x100));
  Dbt.invalidate dbt (origin + 0x100 + 4);
  Alcotest.(check int) "store in the second page drops the block" 0 (Dbt.cached_blocks dbt);
  Alcotest.(check bool) "addresses outside RAM take the exact search" true
    (Dbt.may_hold_code dbt (-8) && Dbt.may_hold_code dbt S2e_vm.Layout.ram_size)

let tests =
  [
    Alcotest.test_case "eval_int equals eval on random trees" `Quick test_eval_int_random;
    Alcotest.test_case "eval_int edge cases" `Quick test_eval_int_edges;
    Alcotest.test_case "const cache returns the interned node" `Quick
      test_const_cache_identity;
    Alcotest.test_case "const cache after reintern in a second domain" `Quick
      test_const_cache_reintern_domain;
    Alcotest.test_case "slice equals the pair-list slice" `Quick test_slice_matches_reference;
    Alcotest.test_case "model cache returns the most recent satisfying model" `Quick
      test_model_cache_scan;
    Alcotest.test_case "dfs lazy pop selects as filtering does" `Quick test_dfs_lazy_pop;
    Alcotest.test_case "overlay count equals a recount" `Quick test_overlay_count;
    QCheck_alcotest.to_alcotest prop_symmem_model;
    Alcotest.test_case "constraint count and footprint equal a recount" `Quick
      test_state_measure;
    Alcotest.test_case "dbt code-page bitmap" `Quick test_dbt_code_pages;
  ]
