(* Tests for the SAT core, the bit-blaster and the high-level solver. *)

open S2e_expr
open S2e_solver

let test_sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [| Sat.pos a; Sat.pos b |];
  Sat.add_clause s [| Sat.neg a |];
  (match Sat.solve s with
  | Sat.Sat ->
      assert (not (Sat.model_value s a));
      assert (Sat.model_value s b)
  | _ -> Alcotest.fail "expected sat");
  Sat.add_clause s [| Sat.neg b |];
  (match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat")

let test_sat_pigeonhole () =
  (* 3 pigeons, 2 holes: classic small unsat instance exercising learning. *)
  let s = Sat.create () in
  let v = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Sat.new_var s)) in
  for p = 0 to 2 do
    Sat.add_clause s [| Sat.pos v.(p).(0); Sat.pos v.(p).(1) |]
  done;
  for h = 0 to 1 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 2 do
        Sat.add_clause s [| Sat.neg v.(p1).(h); Sat.neg v.(p2).(h) |]
      done
    done
  done;
  match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole should be unsat"

let x32 () = Expr.fresh_var ~width:32 "x"

let test_solver_simple () =
  let x = x32 () in
  (* x + 1 = 10 *)
  let c = Expr.eq (Expr.add x (Expr.const 1L)) (Expr.const 10L) in
  match Solver.check [ c ] with
  | Solver.Sat m -> Alcotest.(check int64) "x" 9L (Expr.eval m x)
  | _ -> Alcotest.fail "expected sat"

let test_solver_unsat () =
  let x = x32 () in
  let c1 = Expr.ult x (Expr.const 5L) in
  let c2 = Expr.ult (Expr.const 10L) x in
  match Solver.check [ c1; c2 ] with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_solver_mul () =
  let x = x32 () in
  let c = Expr.eq (Expr.mul x (Expr.const 6L)) (Expr.const 42L) in
  match Solver.check [ c ] with
  | Solver.Sat m ->
      let v = Expr.eval m x in
      Alcotest.(check int64) "6x=42" 42L
        (Int64.logand (Int64.mul v 6L) 0xFFFFFFFFL)
  | _ -> Alcotest.fail "expected sat"

let test_solver_div () =
  let x = Expr.fresh_var ~width:8 "d" in
  let c = Expr.eq (Expr.udiv (Expr.const ~width:8 100L) x) (Expr.const ~width:8 7L) in
  match Solver.check [ c ] with
  | Solver.Sat m ->
      let v = Expr.eval m x in
      Alcotest.(check int64) "100/x=7" 7L (Int64.unsigned_div 100L v)
  | _ -> Alcotest.fail "expected sat"

let test_solver_signed () =
  let x = x32 () in
  let c1 = Expr.slt x (Expr.const 0L) in
  let c2 = Expr.slt (Expr.const (-10L)) x in
  match Solver.check [ c1; c2 ] with
  | Solver.Sat m ->
      let v = Expr.sext64 (Expr.eval m x) 32 in
      assert (v < 0L && v > -10L)
  | _ -> Alcotest.fail "expected sat"

let test_solver_shift () =
  let x = Expr.fresh_var ~width:8 "s" in
  (* (1 << x) = 16  ==> x = 4 *)
  let c = Expr.eq (Expr.shl (Expr.const ~width:8 1L) x) (Expr.const ~width:8 16L) in
  match Solver.check [ c ] with
  | Solver.Sat m -> Alcotest.(check int64) "x" 4L (Int64.logand (Expr.eval m x) 7L)
  | _ -> Alcotest.fail "expected sat"

let test_get_values () =
  let x = Expr.fresh_var ~width:8 "v" in
  let c = Expr.ult x (Expr.const ~width:8 3L) in
  let vs = Solver.get_values ~constraints:[ c ] ~limit:10 x in
  Alcotest.(check int) "3 values" 3 (List.length vs);
  List.iter (fun v -> assert (Int64.unsigned_compare v 3L < 0)) vs

let test_get_unique () =
  let x = x32 () in
  let c = Expr.eq x (Expr.const 77L) in
  (match Solver.get_unique_value ~constraints:[ c ] x with
  | Some 77L -> ()
  | _ -> Alcotest.fail "expected unique 77");
  let c2 = Expr.ult x (Expr.const 100L) in
  match Solver.get_unique_value ~constraints:[ c2 ] x with
  | None -> ()
  | Some _ -> Alcotest.fail "not unique"

let test_slicing () =
  (* Unrelated constraints must not affect the query result. *)
  let x = x32 () and y = x32 () in
  let cx = Expr.eq x (Expr.const 1L) in
  let cy = Expr.ult y (Expr.const 50L) in
  let sliced = Solver.slice ~seed_vars:(Expr.vars x) [ cx; cy ] in
  Alcotest.(check int) "only x constraint kept" 1 (List.length sliced)

(* Property: every model returned by the solver satisfies the constraints. *)
let prop_models_satisfy =
  QCheck2.Test.make ~count:60 ~name:"solver models satisfy constraints"
    QCheck2.Gen.(
      quad (int_bound 255) (int_bound 255) (int_bound 3) (int_bound 3))
    (fun (a, b, op1, op2) ->
      let x = Expr.fresh_var ~width:8 "qx" in
      let mk op c =
        let c = Expr.const ~width:8 (Int64.of_int c) in
        match op with
        | 0 -> Expr.ult x c
        | 1 -> Expr.ule c x
        | 2 -> Expr.eq (Expr.band x (Expr.const ~width:8 0x0fL)) (Expr.band c (Expr.const ~width:8 0x0fL))
        | _ -> Expr.ne x c
      in
      let cs = [ mk op1 a; mk op2 b ] in
      match Solver.check cs with
      | Solver.Sat m -> List.for_all (fun c -> Expr.eval m c = 1L) cs
      | Solver.Unsat ->
          (* Cross-check against brute force over the 8-bit domain. *)
          let xid = match x with Expr.Var { id; _ } -> id | _ -> assert false in
          let exists = ref false in
          for v = 0 to 255 do
            let m = Expr.Int_map.singleton xid (Int64.of_int v) in
            if List.for_all (fun c -> Expr.eval m c = 1L) cs then exists := true
          done;
          not !exists
      | Solver.Unknown -> true)

(* Property: solver agrees with brute force on arbitrary 8-bit formulas. *)
let prop_solver_vs_brute =
  QCheck2.Test.make ~count:40 ~name:"solver agrees with brute force"
    QCheck2.Gen.(triple (int_bound 255) (int_bound 7) (int_bound 255))
    (fun (k, shift, m8) ->
      let x = Expr.fresh_var ~width:8 "bx" in
      let lhs =
        Expr.bxor
          (Expr.shl x (Expr.const ~width:8 (Int64.of_int shift)))
          (Expr.const ~width:8 (Int64.of_int m8))
      in
      let c = Expr.eq lhs (Expr.const ~width:8 (Int64.of_int k)) in
      let xid = match x with Expr.Var { id; _ } -> id | _ -> assert false in
      let brute = ref false in
      for v = 0 to 255 do
        let m = Expr.Int_map.singleton xid (Int64.of_int v) in
        if Expr.eval m c = 1L then brute := true
      done;
      match Solver.check [ c ] with
      | Solver.Sat _ -> !brute
      | Solver.Unsat -> not !brute
      | Solver.Unknown -> true)

(* --- solver-context / cache soundness ------------------------------- *)

let verdict_tag = function
  | Solver.Sat _ -> "sat"
  | Solver.Unsat -> "unsat"
  | Solver.Unknown -> "unknown"

(* Randomized overlapping query sequences on one warm context: cache hits
   (model cache and unsat cache) must never flip a verdict relative to a
   cold context.  Queries deliberately repeat and share sub-conjunctions
   so the caches actually fire. *)
let test_cache_soundness () =
  let rng = Random.State.make [| 0xCAC4E; 7 |] in
  let xs = Array.init 3 (fun i -> Expr.fresh_var ~width:8 (Printf.sprintf "cs%d" i)) in
  let pool =
    (* A mix of satisfiable, contradictory and overlapping constraints. *)
    [
      Expr.ult xs.(0) (Expr.const ~width:8 10L);
      Expr.ult (Expr.const ~width:8 20L) xs.(0);
      Expr.eq xs.(1) (Expr.add xs.(0) (Expr.const ~width:8 1L));
      Expr.eq (Expr.band xs.(2) (Expr.const ~width:8 3L)) (Expr.const ~width:8 2L);
      Expr.ne xs.(2) xs.(1);
      Expr.ule xs.(1) (Expr.const ~width:8 200L);
      Expr.eq xs.(0) (Expr.const ~width:8 5L);
    ]
  in
  let pool = Array.of_list pool in
  let warm = Solver.create_ctx () in
  (* Fresh contexts have empty caches: every registry cache hit below is
     the warm context's. *)
  let before = S2e_obs.Metrics.snapshot () in
  for _ = 1 to 60 do
    let n = 1 + Random.State.int rng 4 in
    let cs =
      List.init n (fun _ -> pool.(Random.State.int rng (Array.length pool)))
    in
    let w = Solver.check ~ctx:warm cs in
    let c = Solver.check ~ctx:(Solver.create_ctx ()) cs in
    Alcotest.(check string)
      "warm verdict = cold verdict" (verdict_tag c) (verdict_tag w);
    (* Any Sat model — cached or fresh — must actually satisfy. *)
    match w with
    | Solver.Sat m ->
        List.iter (fun cst -> Alcotest.(check int64) "model satisfies" 1L (Expr.eval m cst)) cs
    | _ -> ()
  done;
  (* The sequence above repeats queries: the warm context must have hits,
     otherwise this test exercises nothing. *)
  Alcotest.(check bool) "warm cache was exercised" true
    (S2e_obs.Metrics.(get_int (delta ~before (snapshot ())) "solver.cache_hits")
    > 0)

(* Contexts are isolated: queries on one leave another's (and the
   default's) caches untouched, and clear acts per-context. *)
let test_ctx_isolation () =
  let a = Solver.create_ctx () and b = Solver.create_ctx () in
  let x = Expr.fresh_var ~width:8 "iso" in
  let c = Expr.ult x (Expr.const ~width:8 4L) in
  let default_before = Solver.models Solver.default_ctx in
  (match Solver.check ~ctx:a [ c ] with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected sat");
  Alcotest.(check bool) "ctx a cached a model" true (Solver.models a <> []);
  Alcotest.(check bool) "ctx b cache empty" true (Solver.models b = []);
  Alcotest.(check bool) "default ctx untouched" true
    (List.equal ( == ) default_before (Solver.models Solver.default_ctx));
  Solver.clear_caches a;
  Alcotest.(check bool) "clear_caches empties model cache" true (Solver.models a = []);
  Alcotest.(check int) "clear_caches keeps unsat cache empty too" 0
    (Hashtbl.length a.Solver.unsat_cache)

(* Concretization picks bypass the model cache, so a warm context returns
   the same value as a cold one regardless of query history. *)
let test_get_value_warm_vs_cold () =
  let x = Expr.fresh_var ~width:8 "gv" in
  let cs = [ Expr.ult x (Expr.const ~width:8 100L) ] in
  let warm = Solver.create_ctx () in
  (* Pollute the warm cache with models from different constraint sets. *)
  ignore (Solver.check ~ctx:warm [ Expr.eq x (Expr.const ~width:8 42L) ]);
  ignore (Solver.check ~ctx:warm [ Expr.ult (Expr.const ~width:8 50L) x ]);
  let vw = Solver.get_value ~ctx:warm ~constraints:cs x in
  let vc = Solver.get_value ~ctx:(Solver.create_ctx ()) ~constraints:cs x in
  (match (vw, vc) with
  | Some a, Some b -> Alcotest.(check int64) "warm pick = cold pick" b a
  | _ -> Alcotest.fail "expected values");
  let vsw = Solver.get_values ~ctx:warm ~constraints:cs ~limit:5 x in
  let vsc = Solver.get_values ~ctx:(Solver.create_ctx ()) ~constraints:cs ~limit:5 x in
  Alcotest.(check (list int64)) "get_values history-independent" vsc vsw

(* --- incremental assumption stack ----------------------------------- *)

let with_mode mode f =
  let saved = !Solver.default_mode in
  Solver.set_default_mode mode;
  Fun.protect ~finally:(fun () -> Solver.set_default_mode saved) f

let result_tag = function
  | Sat.Sat -> "sat"
  | Sat.Unsat -> "unsat"
  | Sat.Unknown -> "unknown"

(* Property: a long-lived instance driven through a random push /
   solve_assuming / pop script answers exactly like a throwaway solver
   handed the same clauses plus the stacked assumptions as units, and
   every Sat model satisfies all clauses and currently-live
   assumptions.  This is the soundness contract that lets the solver
   retain learned clauses across pops. *)
let test_sat_incremental_vs_fresh () =
  let rng = Random.State.make [| 0x51AC; 11 |] in
  for _round = 1 to 25 do
    let nvars = 5 + Random.State.int rng 7 in
    let inc = Sat.create () in
    for _ = 1 to nvars do
      ignore (Sat.new_var inc)
    done;
    let rand_lit () =
      let v = Random.State.int rng nvars in
      if Random.State.bool rng then Sat.pos v else Sat.neg v
    in
    let nclauses = 8 + Random.State.int rng 16 in
    let clauses =
      List.init nclauses (fun _ ->
          List.init (1 + Random.State.int rng 3) (fun _ -> rand_lit ()))
    in
    List.iter (fun c -> Sat.add_clause inc (Array.of_list c)) clauses;
    let stack = ref [] in
    for _step = 1 to 10 do
      (if !stack = [] || Random.State.bool rng then begin
         let l = rand_lit () in
         Sat.push inc;
         Sat.assume inc l;
         stack := l :: !stack
       end
       else begin
         Sat.pop inc;
         stack := List.tl !stack
       end);
      let extra = if Random.State.bool rng then [ rand_lit () ] else [] in
      let fresh = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var fresh)
      done;
      List.iter (fun c -> Sat.add_clause fresh (Array.of_list c)) clauses;
      List.iter (fun l -> Sat.add_clause fresh [| l |]) (!stack @ extra);
      let ri = Sat.solve_assuming inc extra in
      let rf = Sat.solve fresh in
      Alcotest.(check string)
        "incremental verdict = fresh verdict" (result_tag rf) (result_tag ri);
      match ri with
      | Sat.Sat ->
          let lit_true l =
            Sat.model_value inc (Sat.lit_var l) = Sat.lit_sign l
          in
          List.iter
            (fun c ->
              Alcotest.(check bool)
                "model satisfies" true
                (List.exists lit_true c))
            (clauses @ List.map (fun l -> [ l ]) (!stack @ extra))
      | _ -> ()
    done;
    Alcotest.(check int) "frame bookkeeping" (List.length !stack)
      (Sat.frames inc)
  done

(* --- retained trail -------------------------------------------------- *)

(* A growing gate-structured instance: the clauses it was given, kept so a
   throwaway instance can be handed the same problem. *)
type gates = { g_sat : Sat.t; mutable g_clauses : Sat.lit list list }

let gate_clause g c =
  g.g_clauses <- c :: g.g_clauses;
  Sat.add_clause g.g_sat (Array.of_list c)

(* A fresh output [o] with the Tseitin clauses of [o = a AND b],
   [o = a XOR b] or [o = (a ? b : c)]. *)
let add_gate rng g lit =
  let o = Sat.pos (Sat.new_var g.g_sat) in
  let a = lit () and b = lit () and n = Sat.lit_neg in
  (match Random.State.int rng 3 with
  | 0 ->
      gate_clause g [ n o; a ];
      gate_clause g [ n o; b ];
      gate_clause g [ o; n a; n b ]
  | 1 ->
      gate_clause g [ n o; a; b ];
      gate_clause g [ n o; n a; n b ];
      gate_clause g [ o; n a; b ];
      gate_clause g [ o; a; n b ]
  | _ ->
      let c = lit () in
      gate_clause g [ n o; n a; b ];
      gate_clause g [ n o; a; c ];
      gate_clause g [ o; n a; n b ];
      gate_clause g [ o; a; n c ]);
  o

(* Property: one instance driven through random push / assume / pop,
   clause intake and [solve_assuming] probes, so that later solves start
   from the trail earlier ones left, answers every probe like a fresh
   instance handed the same clauses with the assumptions as unit clauses,
   and every model it returns satisfies every clause and assumption.  The
   intake between solves adds gates (whose fresh output is unit under the
   kept trail), clauses the last model satisfies, clauses unit under it
   on a fresh variable, and now and then a clause it falsifies. *)
let prop_retained_trail =
  QCheck2.Test.make ~count:150 ~name:"retained trail answers like a fresh instance"
    QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| 0x7A11; seed |] in
      let g = { g_sat = Sat.create (); g_clauses = [] } in
      let s = g.g_sat in
      let vars = ref 0 in
      let new_var () =
        incr vars;
        Sat.new_var s
      in
      let lit () =
        let v = Random.State.int rng !vars in
        if Random.State.bool rng then Sat.pos v else Sat.neg v
      in
      let gate () =
        ignore (add_gate rng g lit);
        incr vars
      in
      for _ = 1 to 3 + Random.State.int rng 4 do
        ignore (new_var ())
      done;
      for _ = 1 to 5 + Random.State.int rng 15 do
        gate ()
      done;
      let model = ref None in
      let stack = ref [] in
      let lit_true m l = m.(Sat.lit_var l) = Sat.lit_sign l in
      (* A literal of a variable the last model gave [value]. *)
      let model_lit m value =
        let v = Random.State.int rng (Array.length m) in
        if m.(v) = value then Sat.pos v else Sat.neg v
      in
      for _step = 1 to 40 do
        match Random.State.int rng 8 with
        | 0 | 1 ->
            let l = lit () in
            Sat.push s;
            Sat.assume s l;
            stack := l :: !stack
        | 2 when !stack <> [] ->
            Sat.pop s;
            stack := List.tl !stack
        | 3 -> gate ()
        | 4 -> (
            match !model with
            | Some m -> (
                match Random.State.int rng 8 with
                | 0 -> gate_clause g [ model_lit m false; model_lit m false ]
                | 1 | 2 | 3 ->
                    gate_clause g [ model_lit m true; lit (); lit () ]
                | _ ->
                    let f = Sat.pos (new_var ()) in
                    gate_clause g
                      [ model_lit m false; model_lit m false;
                        (if Random.State.bool rng then f else Sat.lit_neg f) ])
            | None -> gate ())
        | _ ->
            let extra = List.init (Random.State.int rng 3) (fun _ -> lit ()) in
            let r = Sat.solve_assuming s extra in
            let fresh = Sat.create () in
            for _ = 1 to !vars do
              ignore (Sat.new_var fresh)
            done;
            List.iter (fun c -> Sat.add_clause fresh (Array.of_list c)) g.g_clauses;
            List.iter (fun l -> Sat.add_clause fresh [| l |]) (!stack @ extra);
            let rf = Sat.solve fresh in
            if result_tag r <> result_tag rf then
              QCheck2.Test.fail_reportf "step verdict %s, fresh instance %s"
                (result_tag r) (result_tag rf);
            (match r with
            | Sat.Sat ->
                let m = Array.init !vars (Sat.model_value s) in
                List.iter
                  (fun c ->
                    if not (List.exists (lit_true m) c) then
                      QCheck2.Test.fail_reportf "model falsifies a clause")
                  (g.g_clauses @ List.map (fun l -> [ l ]) (!stack @ extra));
                model := Some m
            | _ -> model := None)
      done;
      Sat.frames s = List.length !stack)

(* The trail survives between solves: probing the two sides of a branch
   on a 40-frame stack, the second probe re-decides only its own level.
   Every gate is a function of the 40 assumed inputs, so the first probe
   propagates the whole instance; restarting the second from level 0
   would propagate it all again. *)
let test_retained_trail_probe_pair () =
  let rng = Random.State.make [| 0xC0; 40 |] in
  let g = { g_sat = Sat.create (); g_clauses = [] } in
  let s = g.g_sat in
  let outs = ref [] in
  let inputs = Array.init 40 (fun _ -> Sat.pos (Sat.new_var s)) in
  let pick () =
    let l = List.nth !outs (Random.State.int rng (List.length !outs)) in
    if Random.State.bool rng then l else Sat.lit_neg l
  in
  Array.iteri
    (fun i x ->
      outs := x :: !outs;
      for _ = 1 to 10 do
        let first = ref true in
        let lit () =
          if !first then begin
            first := false;
            inputs.(i)
          end
          else pick ()
        in
        outs := add_gate rng g lit :: !outs
      done)
    inputs;
  Array.iter
    (fun x ->
      Sat.push s;
      Sat.assume s (if Random.State.bool rng then x else Sat.lit_neg x))
    inputs;
  (* The branch condition: a free variable with gates hanging off it. *)
  let c = Sat.pos (Sat.new_var s) in
  for _ = 1 to 4 do
    let first = ref true in
    let lit () =
      if !first then begin
        first := false;
        c
      end
      else pick ()
    in
    ignore (add_gate rng g lit)
  done;
  (* The inputs and their gates, [c] and its four gates. *)
  let nvars = List.length !outs + 5 in
  Alcotest.(check string) "first probe" "sat"
    (result_tag (Sat.solve_assuming s [ c ]));
  let before = (Sat.stats s).Sat.propagations in
  Alcotest.(check string) "second probe" "sat"
    (result_tag (Sat.solve_assuming s [ Sat.lit_neg c ]));
  let props = (Sat.stats s).Sat.propagations - before in
  Alcotest.(check bool)
    (Printf.sprintf "second probe propagated %d of %d variables" props nvars)
    true
    (props * 10 < nvars)

(* A persistent bit-blast context must map structurally equal expression
   nodes to the identical SAT literal — across separate calls and across
   a push/solve/pop cycle — or prefix matching on a live instance would
   silently re-encode (and re-constrain) nothing-new terms. *)
let test_bitblast_literal_stable () =
  let sat = Sat.create () in
  let bctx = Bitblast.create sat in
  let x = Expr.fresh_var ~width:8 "bl" in
  let mk () =
    Expr.ult (Expr.add x (Expr.const ~width:8 3L)) (Expr.const ~width:8 10L)
  in
  let l1 = Bitblast.literal bctx (mk ()) in
  let l2 = Bitblast.literal bctx (mk ()) in
  Alcotest.(check int) "structurally equal nodes share a literal" l1 l2;
  Sat.push sat;
  Sat.assume sat l1;
  (match Sat.solve sat with
  | Sat.Sat -> ()
  | _ -> Alcotest.fail "expected sat under assumption");
  Sat.pop sat;
  let l3 = Bitblast.literal bctx (mk ()) in
  Alcotest.(check int) "literal stable across push/solve/pop" l1 l3;
  let other = Expr.ult x (Expr.const ~width:8 9L) in
  Alcotest.(check bool) "distinct nodes get distinct literals" true
    (Bitblast.literal bctx other <> l1)

(* The instance ring's order contract: a live stack holds its path oldest
   constraint first, so along a growing path each branch check lands on
   its parent's instance and pushes only the constraint added since, and
   a [check] handed the same path newest-first, as [State.constraints]
   holds it, lands on that same stack.  Every [¬cond] below is
   unsatisfiable under [x < 100], so no cached model answers it and each
   step reaches the SAT core. *)
let test_ring_stacks_path_order () =
  let ctx = Solver.create_ctx ~mode:Solver.Incremental () in
  let x = Expr.fresh_var ~width:8 "ring" in
  let k8 v = Expr.const ~width:8 (Int64.of_int v) in
  let counts f =
    let before = S2e_obs.Metrics.snapshot () in
    f ();
    let d = S2e_obs.Metrics.(delta ~before (snapshot ())) in
    S2e_obs.Metrics.
      ( get_int d "solver.inc_frames",
        get_int d "solver.inc_instances",
        get_int d "solver.sat_queries" )
  in
  let path = ref [ Expr.ult x (k8 100) ] in
  for step = 0 to 11 do
    let cond = Expr.ne x (k8 (100 + step)) in
    let frames, instances, sat =
      counts (fun () ->
          match Solver.check_branch ~ctx ~constraints:!path cond with
          | Solver.Sat _, Solver.Unsat -> ()
          | _ -> Alcotest.fail "expected a sat taken side, an unsat fall side")
    in
    Alcotest.(check bool) "the step reached the SAT core" true (sat >= 1);
    Alcotest.(check int) "one frame pushed per branch check" 1 frames;
    Alcotest.(check int) "instances created"
      (if step = 0 then 1 else 0)
      instances;
    path := cond :: !path
  done;
  let frames, instances, sat =
    counts (fun () ->
        match Solver.check ~ctx (Expr.eq x (k8 200) :: !path) with
        | Solver.Unsat -> ()
        | _ -> Alcotest.fail "expected unsat")
  in
  Alcotest.(check int) "check reached the SAT core" 1 sat;
  Alcotest.(check int) "check pushes only the newest constraint" 1 frames;
  Alcotest.(check int) "check opens no instance" 0 instances;
  let frames, instances, _ =
    counts (fun () ->
        match Solver.check ~ctx (Expr.eq x (k8 201) :: !path) with
        | Solver.Unsat -> ()
        | _ -> Alcotest.fail "expected unsat")
  in
  Alcotest.(check int) "same path again: nothing pushed" 0 frames;
  Alcotest.(check int) "same path again: no instance" 0 instances

(* Whole-engine differential: every solver mode must explore the same
   tree and emit byte-identical sorted case sets, serially and with
   domain-parallel workers (each worker gets a private instance ring, so
   jobs > 1 exercises ring isolation). *)
let explore_cases mode jobs =
  with_mode mode (fun () ->
      let r =
        S2e_core.Parallel.explore ~jobs
          ~limits:
            {
              S2e_core.Executor.max_instructions = None;
              max_seconds = Some 60.;
              max_completed = None;
            }
          ~make_engine:(Test_dist.make_engine_for Test_dist.workload_32)
          ~boot:(fun eng -> S2e_core.Executor.boot eng ~entry:0x1000 ())
          ()
      in
      List.map
        (fun s ->
          S2e_core.Parallel.test_case_to_string
            (S2e_core.Parallel.test_case s))
        r.S2e_core.Parallel.completed
      |> List.sort compare)

let test_mode_differential () =
  let fresh = explore_cases Solver.Fresh 1 in
  Alcotest.(check int) "32 paths" 32 (List.length fresh);
  Alcotest.(check (list string))
    "incremental serial = fresh" fresh
    (explore_cases Solver.Incremental 1);
  Alcotest.(check (list string))
    "incremental jobs=4 = fresh" fresh
    (explore_cases Solver.Incremental 4)

(* The same differential on the stock urlparse workload (8 symbolic input
   bytes, far too many paths to drain): the first 500 paths of a serial
   run, with the status and every test case of each, as `explore --cases`
   prints them. *)
let urlparse_cases mode =
  let module Guest = S2e_guest.Guest in
  let open S2e_core in
  with_mode mode (fun () ->
      let img =
        Guest.build
          ~driver:("nulldrv", S2e_guest.Drivers_src.nulldrv)
          ~workload:("urlparse", S2e_guest.Workloads_src.urlparse)
          ()
      in
      let make_engine () =
        let config = Executor.default_config () in
        config.consistency <- Consistency.LC;
        config.symbolic_hardware_ports <-
          [ (S2e_vm.Layout.port_netdev, S2e_vm.Layout.port_netdev + 16) ];
        let engine = Executor.create ~config () in
        Guest.load_into_engine engine img;
        Executor.set_unit engine [ "nulldrv"; "urlparse" ];
        engine
      in
      let r =
        Parallel.explore ~jobs:1
          ~limits:
            {
              Executor.max_instructions = None;
              max_seconds = Some 120.;
              max_completed = Some 500;
            }
          ~make_engine
          ~boot:(fun eng -> Executor.boot eng ~entry:img.Guest.entry ())
          ()
      in
      List.concat_map
        (fun s ->
          List.map
            (fun tc ->
              State.report_string s ^ " | " ^ Parallel.test_case_to_string tc)
            (Parallel.test_cases s))
        r.Parallel.completed
      |> List.sort compare)

let test_urlparse_mode_differential () =
  let fresh = urlparse_cases Solver.Fresh in
  Alcotest.(check int) "500 case lines" 500 (List.length fresh);
  Alcotest.(check (list string))
    "incremental = fresh" fresh
    (urlparse_cases Solver.Incremental)

(* --- cold-solve trajectory lock ---------------------------------------- *)

(* Emitted case bytes are a function of the cold solve's CNF and of its
   search trajectory, so a change to clause intake, branching order or
   simplification that moves a single decision can change the bytes.
   This golden test pins the trajectory on a fixed seeded corpus: random
   CNFs driven through [Sat] directly (with duplicate and complementary
   literals, incremental frames, clauses added after a solve, and one
   instance long enough to rescale the activities), plus random width-1
   [Expr] constraint lists through [Solver.check_model].  Every verdict,
   model, decisions/conflicts/propagations count and clause count feeds
   one digest, recorded before the solver's fixed costs were cut. *)

let sat_trace buf tag s nvars r =
  let st = Sat.stats s in
  Printf.bprintf buf "%s %s d%d c%d p%d r%d l%d n%d " tag (result_tag r)
    st.Sat.decisions st.Sat.conflicts st.Sat.propagations st.Sat.restarts
    st.Sat.learned (Sat.size s);
  if r = Sat.Sat then
    for v = 0 to nvars - 1 do
      Buffer.add_char buf (if Sat.model_value s v then '1' else '0')
    done;
  Buffer.add_char buf '\n'

let rand_lit rng nvars =
  let v = Random.State.int rng nvars in
  if Random.State.bool rng then Sat.pos v else Sat.neg v

let random_cnf rng s nvars nclauses =
  for _ = 1 to nclauses do
    let c = List.init 3 (fun _ -> rand_lit rng nvars) in
    let c =
      match Random.State.int rng 16 with
      | 0 -> List.hd c :: c (* duplicate literal *)
      | 1 -> Sat.lit_neg (List.hd c) :: c (* tautology *)
      | _ -> c
    in
    Sat.add_clause s (Array.of_list c)
  done

(* Pigeonhole 8 into 7 (56 variables, unsatisfiable). *)
let pigeonhole_8_7 s =
  let v = Array.init 8 (fun _ -> Array.init 7 (fun _ -> Sat.new_var s)) in
  Array.iter (fun row -> Sat.add_clause s (Array.map Sat.pos row)) v;
  for h = 0 to 6 do
    for p1 = 0 to 7 do
      for p2 = p1 + 1 to 7 do
        Sat.add_clause s [| Sat.neg v.(p1).(h); Sat.neg v.(p2).(h) |]
      done
    done
  done

let cnf_corpus buf =
  let rng = Random.State.make [| 0x7EA; 12 |] in
  for i = 1 to 24 do
    let nvars = 30 + Random.State.int rng 60 in
    let s = Sat.create () in
    for _ = 1 to nvars do
      ignore (Sat.new_var s)
    done;
    random_cnf rng s nvars (nvars * 4);
    let tag = Printf.sprintf "cnf%d" i in
    sat_trace buf tag s nvars (Sat.solve s);
    for _ = 1 to 3 do
      Sat.push s;
      Sat.assume s (rand_lit rng nvars);
      sat_trace buf tag s nvars (Sat.solve_assuming s [ rand_lit rng nvars ]);
      Sat.pop s
    done;
    random_cnf rng s nvars 4;
    sat_trace buf tag s nvars (Sat.solve s)
  done;
  (* Pigeonhole 8 into 7 takes over 4500 conflicts, past which the
     activity increment (growing 1/0.95 per conflict) overflows 1e100 and
     every activity is rescaled, which can tie variables that were
     distinct. *)
  let s = Sat.create () in
  pigeonhole_8_7 s;
  sat_trace buf "php8" s 56 (Sat.solve s);
  (Sat.stats s).Sat.conflicts

let rec random_bool rng vars depth =
  let leaf () =
    let v = vars.(Random.State.int rng (Array.length vars)) in
    if Random.State.bool rng then v else Expr.log_not v
  in
  if depth = 0 || Random.State.int rng 4 = 0 then leaf ()
  else
    let sub () = random_bool rng vars (depth - 1) in
    match Random.State.int rng 6 with
    | 0 | 1 -> Expr.bor (sub ()) (sub ())
    | 2 -> Expr.band (sub ()) (sub ())
    | 3 -> Expr.bxor (sub ()) (sub ())
    | 4 -> Expr.ite (sub ()) (sub ()) (sub ())
    | _ -> Expr.eq (sub ()) (sub ())

(* The cold solve [Solver.check_model] runs, replayed step by step so its
   [Sat.stats] can be read. *)
let replay_cold constraints =
  let cs = List.map Simplifier.simplify constraints in
  if List.exists (fun c -> Expr.equal c Expr.bool_f) cs then None
  else
    let cs = List.filter (fun c -> not (Expr.equal c Expr.bool_t)) cs in
    let sat = Sat.create () in
    let bctx = Bitblast.create sat in
    List.iter (Bitblast.assert_true bctx) cs;
    let r = Sat.solve ~max_conflicts:200_000 sat in
    Some (sat, bctx, r)

(* The replay answers as [check_model] did: same verdict, same model. *)
let check_replay r bctx sr =
  match (r, sr) with
  | Solver.Sat m, Sat.Sat ->
      Alcotest.(check bool) "replay finds check_model's model" true
        (Expr.Int_map.equal Int64.equal m (Bitblast.model bctx))
  | _ ->
      Alcotest.(check string) "replay verdict = check_model verdict"
        (verdict_tag r) (result_tag sr)

let expr_corpus buf =
  let rng = Random.State.make [| 0xE1; 12 |] in
  for i = 1 to 30 do
    let nvars = 12 + Random.State.int rng 16 in
    let vars =
      Array.init nvars (fun j -> Expr.fresh_var ~width:1 (Printf.sprintf "t%d" j))
    in
    (* Disjunctions of three random subformulas: each holds on ~7/8 of
       the assignments, so lists of 3n to 9n of them straddle the
       sat/unsat threshold and the solves take real conflicts. *)
    let constraints =
      List.init ((3 * nvars) + Random.State.int rng (6 * nvars)) (fun _ ->
          Expr.bor
            (Expr.bor (random_bool rng vars 2) (random_bool rng vars 2))
            (random_bool rng vars 2))
    in
    let ctx = Solver.create_ctx ~max_conflicts:200_000 () in
    let before = S2e_obs.Metrics.snapshot () in
    let r = Solver.check_model ~ctx constraints in
    Printf.bprintf buf "expr%d %s l%d " i (verdict_tag r)
      S2e_obs.Metrics.(
        get_int (delta ~before (snapshot ())) "solver.sat_learned");
    (match r with
    | Solver.Sat m ->
        Array.iter
          (fun v ->
            let id = match v with Expr.Var { id; _ } -> id | _ -> assert false in
            match Expr.Int_map.find_opt id m with
            | Some b -> Printf.bprintf buf "%Ld" b
            | None -> Buffer.add_char buf '-')
          vars
    | Solver.Unsat | Solver.Unknown -> ());
    Buffer.add_char buf '\n';
    match replay_cold constraints with
    | None -> ()
    | Some (sat, bctx, sr) ->
        check_replay r bctx sr;
        sat_trace buf (Printf.sprintf "expr%d" i) sat 0 sr
  done

let test_trajectory_lock () =
  let buf = Buffer.create 4096 in
  let big_conflicts = cnf_corpus buf in
  Alcotest.(check bool) "corpus rescales activities" true (big_conflicts > 4500);
  expr_corpus buf;
  Alcotest.(check string) "cold-solve trajectory digest"
    "9cee5f02dc2bc7fe027997494c089eda"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The lock above blasts width-1 operators only, so it cannot see how
   comparisons and adders are encoded.  This one pins the cold trajectory
   on seeded 8/16/32-bit constraint lists mixing unsigned and signed
   comparisons, their negations, and sums and differences against
   constants and between variables.  Its digest covers verdicts, models,
   decisions, conflicts, restarts and learned clauses, recorded before
   the comparison circuits lost their unread sum gates; propagation and
   clause counts are left out, since dropping a gate nothing reads lowers
   them without moving a decision. *)

let arith_const rng w =
  Expr.const ~width:w (Random.State.int64 rng (Int64.shift_left 1L w))

let arith_term rng vars w =
  let var () = vars.(Random.State.int rng (Array.length vars)) in
  match Random.State.int rng 6 with
  | 0 | 1 -> var ()
  | 2 -> Expr.add (var ()) (arith_const rng w)
  | 3 -> Expr.sub (var ()) (arith_const rng w)
  | 4 -> Expr.add (var ()) (var ())
  | _ -> Expr.sub (var ()) (var ())

let arith_constraint rng vars w =
  let lhs = arith_term rng vars w in
  let rhs =
    if Random.State.int rng 3 = 0 then arith_const rng w
    else arith_term rng vars w
  in
  let cmp =
    match Random.State.int rng 4 with
    | 0 -> Expr.ult
    | 1 -> Expr.ule
    | 2 -> Expr.slt
    | _ -> Expr.sle
  in
  let c = cmp lhs rhs in
  if Random.State.int rng 3 = 0 then Expr.log_not c else c

let arith_corpus buf =
  let rng = Random.State.make [| 0xA717; 27 |] in
  let solves = ref 0 and conflicting = ref 0 in
  for i = 1 to 90 do
    let w = [| 8; 16; 32 |].(i mod 3) in
    let nvars = 2 + Random.State.int rng 4 in
    let vars =
      Array.init nvars (fun j -> Expr.fresh_var ~width:w (Printf.sprintf "a%d" j))
    in
    let constraints =
      List.init (4 + Random.State.int rng 12) (fun _ -> arith_constraint rng vars w)
    in
    let ctx = Solver.create_ctx ~max_conflicts:200_000 () in
    let before = S2e_obs.Metrics.snapshot () in
    let r = Solver.check_model ~ctx constraints in
    let d = S2e_obs.Metrics.(delta ~before (snapshot ())) in
    let get = S2e_obs.Metrics.get_int d in
    Printf.bprintf buf "arith%d %s d%d c%d l%d " i (verdict_tag r)
      (get "solver.decisions") (get "solver.conflicts") (get "solver.sat_learned");
    (match r with
    | Solver.Sat m ->
        Array.iter
          (fun v ->
            let id = match v with Expr.Var { id; _ } -> id | _ -> assert false in
            match Expr.Int_map.find_opt id m with
            | Some b -> Printf.bprintf buf "%Ld," b
            | None -> Buffer.add_char buf '-')
          vars
    | Solver.Unsat | Solver.Unknown -> ());
    Buffer.add_char buf '\n';
    match replay_cold constraints with
    | None -> ()
    | Some (sat, bctx, sr) ->
        check_replay r bctx sr;
        let st = Sat.stats sat in
        Printf.bprintf buf "replay %s d%d c%d r%d l%d\n" (result_tag sr)
          st.Sat.decisions st.Sat.conflicts st.Sat.restarts st.Sat.learned;
        incr solves;
        if st.Sat.conflicts > 0 then incr conflicting
  done;
  (!solves, !conflicting)

let test_arith_trajectory_lock () =
  let buf = Buffer.create 8192 in
  let solves, conflicting = arith_corpus buf in
  Alcotest.(check bool) "at least 30% of the solves conflict" true
    (10 * conflicting >= 3 * solves);
  Alcotest.(check string) "cold-solve arithmetic trajectory digest"
    "482ebed502626dfd24be850b8edb5733"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- branching order ----------------------------------------------- *)

(* The variable a linear scan over the [nvars] unassigned variables
   keeps: the first strict maximum of activity, so the lowest index among
   ties; -1 when every variable is assigned. *)
let scan_pick s nvars =
  let best = ref (-1) in
  for v = 0 to nvars - 1 do
    if
      (not (Sat.assigned s v))
      && (!best < 0 || Sat.activity s v > Sat.activity s !best)
    then best := v
  done;
  !best

(* Property: at every decision, [Sat]'s two-tier branching order (a heap
   of the bumped variables, an index cursor for the rest) picks the
   variable the linear scan picks.  One instance is driven through random
   3-CNFs near the satisfiability threshold (so solves conflict),
   assumption frames and probes, clause and variable intake between
   solves, and [Sat.reset] reuse.  The activity increment is set now and
   then to 1e-300, so the next bumps leave tiny activities, and to 1e101,
   so the next bump rescales every activity by 1e-100 and the tiny ones
   underflow to 0.0, back among the never-bumped variables. *)
let prop_branch_order =
  QCheck2.Test.make ~count:120
    ~name:"every branch is a linear scan's first strict maximum" QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| 0xB4A; seed |] in
      let s = Sat.create () in
      let nvars = ref 0 in
      let new_vars k =
        for _ = 1 to k do
          ignore (Sat.new_var s)
        done;
        nvars := !nvars + k
      in
      let picks = ref 0 in
      let bad = ref None in
      Sat.on_pick s
        (Some
           (fun v ->
             incr picks;
             let w = scan_pick s !nvars in
             if v <> w && !bad = None then bad := Some (!picks, v, w)));
      for round = 1 to 3 do
        if round > 1 then begin
          Sat.reset s;
          nvars := 0
        end;
        new_vars (20 + Random.State.int rng 30);
        if Random.State.bool rng then Sat.set_var_inc s 1e-300;
        random_cnf rng s !nvars (!nvars * 4);
        let frames = ref 0 in
        for _step = 1 to 24 do
          match Random.State.int rng 10 with
          | 0 | 1 ->
              Sat.push s;
              Sat.assume s (rand_lit rng !nvars);
              incr frames
          | 2 when !frames > 0 ->
              Sat.pop s;
              decr frames
          | 3 -> random_cnf rng s !nvars (1 + Random.State.int rng 4)
          | 4 ->
              new_vars (1 + Random.State.int rng 5);
              random_cnf rng s !nvars 6
          | 5 ->
              Sat.set_var_inc s
                (match Random.State.int rng 3 with
                | 0 -> 1e-300
                | 1 -> 1e101
                | _ -> 1.0)
          | _ ->
              let extra =
                List.init (Random.State.int rng 3) (fun _ -> rand_lit rng !nvars)
              in
              ignore (Sat.solve_assuming s extra)
        done
      done;
      match !bad with
      | Some (i, v, w) ->
          QCheck2.Test.fail_reportf "pick %d: branched on %d, the scan keeps %d"
            i v w
      | None -> !picks > 0)

(* --- cold-instance reuse ------------------------------------------------ *)

(* One seeded problem, replayed identically on whatever instance it is
   handed: a random 3-CNF near the satisfiability threshold (so solves
   take conflicts) with a solve, three stacked assumption frames probed
   and popped, clauses added after a solve, and a final solve left under
   an open frame; or, for [nvars] = 0, pigeonhole 8 into 7, long enough
   to reduce the learned-clause database and rescale the activities.
   Returns every verdict, model and [Sat.stats] field in order. *)
let reuse_problem seed nvars s =
  let buf = Buffer.create 256 in
  let trace nv r =
    let st = Sat.stats s in
    Printf.bprintf buf "%s d%d c%d p%d r%d l%d k%d n%d f%d " (result_tag r)
      st.Sat.decisions st.Sat.conflicts st.Sat.propagations st.Sat.restarts
      st.Sat.learned st.Sat.learned_kept (Sat.size s) (Sat.frames s);
    if r = Sat.Sat then
      for v = 0 to nv - 1 do
        Buffer.add_char buf (if Sat.model_value s v then '1' else '0')
      done;
    Buffer.add_char buf '\n'
  in
  if nvars = 0 then begin
    pigeonhole_8_7 s;
    trace 56 (Sat.solve s)
  end
  else begin
    let rng = Random.State.make [| 0x5E7; seed |] in
    for _ = 1 to nvars do
      ignore (Sat.new_var s)
    done;
    random_cnf rng s nvars ((nvars * 4) + Random.State.int rng (nvars / 4));
    trace nvars (Sat.solve s);
    for _ = 1 to 3 do
      Sat.push s;
      Sat.assume s (rand_lit rng nvars);
      trace nvars (Sat.solve_assuming s [ rand_lit rng nvars ])
    done;
    for _ = 1 to 3 do
      Sat.pop s
    done;
    random_cnf rng s nvars 4;
    Sat.push s;
    Sat.assume s (rand_lit rng nvars);
    trace nvars (Sat.solve s)
  end;
  Buffer.contents buf

(* [Sat.reset] must leave an instance exactly as [Sat.create] does: one
   instance reset between problems of growing and shrinking size, after
   conflicts, open frames, a learned-clause reduction and an activity
   rescale, answers every problem with the verdicts, models and counters
   of a fresh instance.  Pigeonhole runs twice in a row: a second run that
   inherited the first's activity increments or learned-clause limit
   would rescale and reduce at other conflicts. *)
let test_sat_reset_is_create () =
  let shared = Sat.create () in
  let conflicts = ref 0 in
  List.iteri
    (fun seed nvars ->
      let fresh = reuse_problem seed nvars (Sat.create ()) in
      Sat.reset shared;
      let reused = reuse_problem seed nvars shared in
      conflicts := !conflicts + (Sat.stats shared).Sat.conflicts;
      Alcotest.(check string)
        (Printf.sprintf "problem %d (%d vars): reset = create" seed nvars)
        fresh reused)
    [ 50; 120; 0; 0; 30; 200; 10; 80 ];
  Alcotest.(check bool) "the problems take conflicts" true (!conflicts > 4500)

(* [check_model] solves on its domain's one reused cold instance.  A
   constraint list solved right after a larger query on that domain must
   get the model it gets on a domain that has solved nothing before. *)
let test_check_model_after_larger_query () =
  let x = Expr.fresh_var ~width:16 "cm_x" and y = Expr.fresh_var ~width:16 "cm_y" in
  let b = Expr.fresh_var ~width:8 "cm_b" in
  let larger =
    [
      Expr.eq (Expr.mul x y) (Expr.const ~width:16 0x1234L);
      Expr.ult y (Expr.const ~width:16 0x100L);
      Expr.ne x (Expr.const ~width:16 1L);
      Expr.ne y (Expr.const ~width:16 1L);
    ]
  in
  let small =
    [
      Expr.ult (Expr.add b (Expr.const ~width:8 3L)) (Expr.const ~width:8 200L);
      Expr.ne (Expr.band b (Expr.const ~width:8 0x0fL)) (Expr.const ~width:8 0L);
    ]
  in
  let ctx = Solver.create_ctx () in
  (match Solver.check_model ~ctx larger with
  | Solver.Sat m ->
      Alcotest.(check int64) "larger query solved" 0x1234L
        (Expr.eval m (Expr.mul x y))
  | _ -> Alcotest.fail "larger query should be sat");
  let here = Solver.check_model ~ctx small in
  let there =
    Domain.join
      (Domain.spawn (fun () ->
           let intern = Expr.interner () in
           Solver.check_model ~ctx:(Solver.create_ctx ())
             (List.map intern small)))
  in
  match (here, there) with
  | Solver.Sat m, Solver.Sat m' ->
      Alcotest.(check bool) "same model as a fresh domain" true
        (Expr.Int_map.equal Int64.equal m m')
  | _ -> Alcotest.fail "small query should be sat on both domains"

let tests =
  [
    Alcotest.test_case "sat basic" `Quick test_sat_basic;
    Alcotest.test_case "sat pigeonhole (learning)" `Quick test_sat_pigeonhole;
    Alcotest.test_case "solver linear" `Quick test_solver_simple;
    Alcotest.test_case "solver unsat interval" `Quick test_solver_unsat;
    Alcotest.test_case "solver multiplication" `Quick test_solver_mul;
    Alcotest.test_case "solver division" `Quick test_solver_div;
    Alcotest.test_case "solver signed compare" `Quick test_solver_signed;
    Alcotest.test_case "solver symbolic shift" `Quick test_solver_shift;
    Alcotest.test_case "get_values enumerates" `Quick test_get_values;
    Alcotest.test_case "get_unique_value" `Quick test_get_unique;
    Alcotest.test_case "independent slicing" `Quick test_slicing;
    Alcotest.test_case "cache soundness (warm vs cold verdicts)" `Quick
      test_cache_soundness;
    Alcotest.test_case "solver context isolation" `Quick test_ctx_isolation;
    Alcotest.test_case "get_value warm vs cold" `Quick
      test_get_value_warm_vs_cold;
    Alcotest.test_case "incremental push/pop answers like fresh" `Quick
      test_sat_incremental_vs_fresh;
    Alcotest.test_case "retained trail: probe pair re-decides one level"
      `Quick test_retained_trail_probe_pair;
    Alcotest.test_case "bitblast literals stable in a context" `Quick
      test_bitblast_literal_stable;
    Alcotest.test_case "ring stacks paths oldest-first" `Quick
      test_ring_stacks_path_order;
    Alcotest.test_case "solver modes explore identical case sets" `Quick
      test_mode_differential;
    Alcotest.test_case "urlparse: incremental == fresh cases" `Quick
      test_urlparse_mode_differential;
    Alcotest.test_case "cold-solve trajectory lock" `Quick test_trajectory_lock;
    Alcotest.test_case "cold-solve arithmetic trajectory lock" `Quick
      test_arith_trajectory_lock;
    Alcotest.test_case "Sat.reset answers like Sat.create" `Quick
      test_sat_reset_is_create;
    Alcotest.test_case "check_model after a larger query = fresh domain"
      `Quick test_check_model_after_larger_query;
    QCheck_alcotest.to_alcotest prop_models_satisfy;
    QCheck_alcotest.to_alcotest prop_solver_vs_brute;
    QCheck_alcotest.to_alcotest prop_retained_trail;
    QCheck_alcotest.to_alcotest prop_branch_order;
  ]
