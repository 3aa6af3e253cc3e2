(* Tests for the SAT core, the bit-blaster and the high-level solver. *)

open S2e_expr
open S2e_solver

let test_sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a; Sat.pos b ];
  Sat.add_clause s [ Sat.neg a ];
  (match Sat.solve s with
  | Sat.Sat ->
      assert (not (Sat.model_value s a));
      assert (Sat.model_value s b)
  | _ -> Alcotest.fail "expected sat");
  Sat.add_clause s [ Sat.neg b ];
  (match Sat.solve s with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat")

let test_sat_pigeonhole () =
  (* 3 pigeons, 2 holes: classic small unsat instance exercising learning. *)
  let s = Sat.create () in
  let v = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Sat.new_var s)) in
  for p = 0 to 2 do
    Sat.add_clause s [ Sat.pos v.(p).(0); Sat.pos v.(p).(1) ]
  done;
  for h = 0 to 1 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 2 do
        Sat.add_clause s [ Sat.neg v.(p1).(h); Sat.neg v.(p2).(h) ]
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
    (warm.Solver.ctx_stats.Solver.cache_hits > 0)

(* Contexts are isolated: queries on one leave another (and the default)
   untouched, and reset/clear act per-context. *)
let test_ctx_isolation () =
  let a = Solver.create_ctx () and b = Solver.create_ctx () in
  Alcotest.(check int) "fresh ctx starts at zero" 0 a.Solver.ctx_stats.Solver.queries;
  let x = Expr.fresh_var ~width:8 "iso" in
  let c = Expr.ult x (Expr.const ~width:8 4L) in
  let default_before = Solver.stats.Solver.queries in
  (match Solver.check ~ctx:a [ c ] with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected sat");
  Alcotest.(check int) "ctx a counted its query" 1 a.Solver.ctx_stats.Solver.queries;
  Alcotest.(check int) "ctx b untouched" 0 b.Solver.ctx_stats.Solver.queries;
  Alcotest.(check int) "default ctx untouched" default_before Solver.stats.Solver.queries;
  Alcotest.(check bool) "ctx a cached a model" true (Solver.models a <> []);
  Alcotest.(check bool) "ctx b cache empty" true (Solver.models b = []);
  Solver.reset_stats ~ctx:a ();
  Alcotest.(check int) "reset zeroes only ctx a" 0 a.Solver.ctx_stats.Solver.queries;
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
    List.iter (Sat.add_clause inc) clauses;
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
      List.iter (Sat.add_clause fresh) clauses;
      List.iter (fun l -> Sat.add_clause fresh [ l ]) (!stack @ extra);
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
    Sat.add_clause s c
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
  let v = Array.init 8 (fun _ -> Array.init 7 (fun _ -> Sat.new_var s)) in
  Array.iter (fun row -> Sat.add_clause s (Array.to_list (Array.map Sat.pos row))) v;
  for h = 0 to 6 do
    for p1 = 0 to 7 do
      for p2 = p1 + 1 to 7 do
        Sat.add_clause s [ Sat.neg v.(p1).(h); Sat.neg v.(p2).(h) ]
      done
    done
  done;
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
    let r = Solver.check_model ~ctx constraints in
    Printf.bprintf buf "expr%d %s l%d " i (verdict_tag r)
      ctx.Solver.ctx_stats.Solver.sat_learned;
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
        (match (r, sr) with
        | Solver.Sat m, Sat.Sat ->
            Alcotest.(check bool) "replay finds check_model's model" true
              (Expr.Int_map.equal Int64.equal m (Bitblast.model bctx))
        | _ ->
            Alcotest.(check string) "replay verdict = check_model verdict"
              (verdict_tag r) (result_tag sr));
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
    Alcotest.test_case "bitblast literals stable in a context" `Quick
      test_bitblast_literal_stable;
    Alcotest.test_case "solver modes explore identical case sets" `Quick
      test_mode_differential;
    Alcotest.test_case "cold-solve trajectory lock" `Quick test_trajectory_lock;
    QCheck_alcotest.to_alcotest prop_models_satisfy;
    QCheck_alcotest.to_alcotest prop_solver_vs_brute;
  ]
