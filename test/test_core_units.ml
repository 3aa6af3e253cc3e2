(* Unit tests for the engine's data structures: symbolic memory, searchers,
   the module map, the translator cache, and the consistency-model
   taxonomy (paper Table 1). *)

open S2e_core
module Expr = S2e_expr.Expr

(* --- Symmem --- *)

let mk_mem () =
  let base = Bytes.make 4096 '\000' in
  Bytes.set base 100 '\x42';
  Symmem.create ~base

let test_symmem_base_read () =
  let m = mk_mem () in
  Alcotest.(check (option int)) "base byte" (Some 0x42) (Symmem.concrete_byte m 100);
  Alcotest.(check (option int)) "zero byte" (Some 0) (Symmem.concrete_byte m 0)

let test_symmem_overlay () =
  let m = mk_mem () in
  let m' = Symmem.write_byte m 100 (Expr.const ~width:8 0x99L) in
  (* persistent: the original is unchanged *)
  Alcotest.(check (option int)) "original" (Some 0x42) (Symmem.concrete_byte m 100);
  Alcotest.(check (option int)) "updated" (Some 0x99) (Symmem.concrete_byte m' 100);
  Alcotest.(check int) "overlay size" 1 (Symmem.overlay_size m')

let test_symmem_word_roundtrip () =
  let m = mk_mem () in
  let m = Symmem.write_word m 200 (Expr.const 0xCAFEBABEL) in
  match Expr.to_const (Symmem.read_word m 200) with
  | Some 0xCAFEBABEL -> ()
  | v ->
      Alcotest.failf "roundtrip failed: %s"
        (match v with Some v -> Int64.to_string v | None -> "symbolic")

let prop_symmem_read_after_write =
  QCheck2.Test.make ~count:200 ~name:"symmem word read-after-write"
    QCheck2.Gen.(pair (int_bound 4000) (int_bound 0xFFFFFF))
    (fun (addr, v) ->
      let m = mk_mem () in
      let m = Symmem.write_word m addr (Expr.const (Int64.of_int v)) in
      Expr.to_const (Symmem.read_word m addr) = Some (Int64.of_int v))

let prop_symmem_disjoint_writes =
  QCheck2.Test.make ~count:100 ~name:"symmem disjoint writes don't interfere"
    QCheck2.Gen.(pair (int_bound 1000) (int_bound 1000))
    (fun (a, b) ->
      let a = a * 4 and b = 4000 + (b * 4) mod 80 in
      let m = mk_mem () in
      let m = Symmem.write_word m a (Expr.const 1L) in
      let m = Symmem.write_word m b (Expr.const 2L) in
      a + 4 > b
      || Expr.to_const (Symmem.read_word m a) = Some 1L)

let test_symmem_symbolic_read () =
  (* An ITE chain over a page resolves correctly under a model. *)
  let base = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let m = Symmem.create ~base in
  let idx = Expr.fresh_var ~width:32 "idx" in
  let e, in_page = Symmem.read_byte_sym m ~page_size:32 ~anchor:64 idx in
  let id = match idx with Expr.Var { id; _ } -> id | _ -> assert false in
  (* idx = 70 -> byte 70 *)
  let model = Expr.Int_map.singleton id 70L in
  Alcotest.(check int64) "chain picks byte 70" 70L (Expr.eval model e);
  Alcotest.(check int64) "in-page holds" 1L (Expr.eval model in_page);
  let outside = Expr.Int_map.singleton id 200L in
  Alcotest.(check int64) "outside page excluded" 0L (Expr.eval outside in_page)

let test_symmem_fault () =
  let m = mk_mem () in
  (match Symmem.read_byte m 5000 with
  | exception Symmem.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault");
  match Symmem.write_word m (-4) (Expr.const 0L) with
  | exception Symmem.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault"

(* --- Searchers --- *)

let dummy_state id =
  let s =
    State.create
      ~mem:(Symmem.create ~base:(Bytes.create 16))
      ~devices:(S2e_vm.Devices.create ())
      ~pc:0x1000
  in
  ignore id;
  s

let test_searcher_dfs_lifo () =
  let s1 = dummy_state 1 and s2 = dummy_state 2 in
  let d = Searcher.dfs () in
  d.add s1;
  d.add s2;
  (match d.select () with
  | Some s -> Alcotest.(check int) "most recent first" s2.State.id s.State.id
  | None -> Alcotest.fail "empty");
  d.remove s2;
  match d.select () with
  | Some s -> Alcotest.(check int) "then older" s1.State.id s.State.id
  | None -> Alcotest.fail "empty"

let test_searcher_bfs_fifo () =
  let s1 = dummy_state 1 and s2 = dummy_state 2 in
  let b = Searcher.bfs () in
  b.add s1;
  b.add s2;
  match b.select () with
  | Some s -> Alcotest.(check int) "oldest first" s1.State.id s.State.id
  | None -> Alcotest.fail "empty"

let test_searcher_skips_dead () =
  let s1 = dummy_state 1 and s2 = dummy_state 2 in
  s1.State.status <- State.Halted;
  let d = Searcher.dfs () in
  d.add s2;
  d.add s1;
  match d.select () with
  | Some s -> Alcotest.(check int) "dead state skipped" s2.State.id s.State.id
  | None -> Alcotest.fail "empty"

let test_searcher_scored () =
  let s1 = dummy_state 1 and s2 = dummy_state 2 in
  s2.State.depth <- 9;
  let sc = Searcher.scored (fun s -> s.State.depth) in
  sc.add s1;
  sc.add s2;
  match sc.select () with
  | Some s -> Alcotest.(check int) "max score wins" s2.State.id s.State.id
  | None -> Alcotest.fail "empty"

let test_searcher_of_name () =
  (* Every published selector name resolves. *)
  List.iter
    (fun name -> ignore (Searcher.of_name name))
    Searcher.selector_names;
  Alcotest.(check bool) "scored accepted" true
    (List.mem "scored" Searcher.selector_names);
  (* maxcov is backed by scored with the shallowest-first default score. *)
  let shallow = dummy_state 1 and deep = dummy_state 2 in
  deep.State.depth <- 5;
  let mc = Searcher.of_name "maxcov" in
  mc.add deep;
  mc.add shallow;
  (match mc.select () with
  | Some s -> Alcotest.(check int) "maxcov prefers shallow" shallow.State.id s.State.id
  | None -> Alcotest.fail "empty");
  (* Unknown names raise Invalid_argument enumerating valid selectors. *)
  match Searcher.of_name "coverage-first" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      List.iter
        (fun name ->
          let contained =
            let ln = String.length name and lm = String.length msg in
            let rec scan i =
              i + ln <= lm && (String.sub msg i ln = name || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "error lists %S" name)
            true contained)
        Searcher.selector_names

(* --- Module map --- *)

let test_module_map () =
  let mm = Module_map.create () in
  Module_map.add mm ~name:"a" ~code_start:0x1000 ~code_end:0x2000 ~data_end:0x3000;
  Module_map.add mm ~name:"b" ~code_start:0x3000 ~code_end:0x4000 ~data_end:0x4000;
  (match Module_map.find mm 0x2800 with
  | Some e -> Alcotest.(check string) "data belongs to module" "a" e.name
  | None -> Alcotest.fail "not found");
  (match Module_map.find_code mm 0x2800 with
  | Some _ -> Alcotest.fail "data is not code"
  | None -> ());
  match Module_map.find_code mm 0x3800 with
  | Some e -> Alcotest.(check string) "code lookup" "b" e.name
  | None -> Alcotest.fail "not found"

(* --- DBT --- *)

let test_dbt_cache_and_marks () =
  let dbt = S2e_dbt.Dbt.create () in
  let buf = Bytes.make 64 '\000' in
  S2e_isa.Insn.encode (S2e_isa.Insn.Li { rd = 0; imm = 5l }) buf 0;
  S2e_isa.Insn.encode S2e_isa.Insn.Halt buf 8;
  let fetch i = Char.code (Bytes.get buf i) in
  let translations = ref 0 in
  let tb1 =
    S2e_dbt.Dbt.translate dbt ~fetch ~on_translate:(fun _ _ -> incr translations) 0
  in
  let tb2 =
    S2e_dbt.Dbt.translate dbt ~fetch ~on_translate:(fun _ _ -> incr translations) 0
  in
  Alcotest.(check bool) "cached" true (tb1 == tb2);
  Alcotest.(check int) "translated each insn once" 2 !translations;
  Alcotest.(check int) "block length" 2 (Array.length tb1.insns);
  S2e_dbt.Dbt.mark dbt 8;
  Alcotest.(check bool) "mark" true (S2e_dbt.Dbt.is_marked dbt 8);
  (* Self-modifying write invalidates the block. *)
  S2e_dbt.Dbt.invalidate dbt 8;
  let tb3 =
    S2e_dbt.Dbt.translate dbt ~fetch ~on_translate:(fun _ _ -> incr translations) 0
  in
  Alcotest.(check bool) "retranslated" true (tb3 != tb1)

(* --- Consistency taxonomy (paper Table 1) --- *)

let test_consistency_table () =
  let open Consistency in
  (* consistency column *)
  List.iter
    (fun (m, expected) ->
      Alcotest.(check bool) (name m ^ " consistency") expected (is_consistent m))
    [ (SC_CE, true); (SC_UE, true); (SC_SE, true); (LC, true);
      (RC_OC, false); (RC_CC, false) ];
  (* completeness column *)
  List.iter
    (fun (m, expected) ->
      Alcotest.(check bool) (name m ^ " completeness") expected (is_complete m))
    [ (SC_CE, false); (SC_UE, false); (SC_SE, true); (LC, false);
      (RC_OC, true); (RC_CC, true) ];
  (* only SC-SE forks inside the environment *)
  List.iter
    (fun m ->
      Alcotest.(check bool) (name m ^ " env fork") (m = SC_SE) (fork_in_env m))
    all;
  (* RC-CC is the only model skipping feasibility checks *)
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (name m ^ " feasibility")
        (m <> RC_CC)
        (check_feasibility m))
    all;
  (* name round-trip *)
  List.iter (fun m -> Alcotest.(check bool) "roundtrip" true (of_name (name m) = m)) all

(* --- State --- *)

let test_state_fork_isolation () =
  let s = dummy_state 0 in
  State.set_reg s 3 (Expr.const 7L);
  let child = State.fork s in
  State.set_reg child 3 (Expr.const 9L);
  Alcotest.(check bool) "parent unchanged" true
    (Expr.to_const (State.get_reg s 3) = Some 7L);
  Alcotest.(check bool) "child diverged" true
    (Expr.to_const (State.get_reg child 3) = Some 9L);
  Alcotest.(check int) "depth bumped" (s.State.depth + 1) child.State.depth;
  Alcotest.(check int) "parent recorded" s.State.id child.State.parent

let test_zero_register () =
  let s = dummy_state 0 in
  State.set_reg s S2e_isa.Insn.reg_zero (Expr.const 99L);
  Alcotest.(check bool) "zr stays zero" true
    (Expr.to_const (State.get_reg s S2e_isa.Insn.reg_zero) = Some 0L)

let tests =
  [
    Alcotest.test_case "symmem base read" `Quick test_symmem_base_read;
    Alcotest.test_case "symmem persistent overlay" `Quick test_symmem_overlay;
    Alcotest.test_case "symmem word roundtrip" `Quick test_symmem_word_roundtrip;
    QCheck_alcotest.to_alcotest prop_symmem_read_after_write;
    QCheck_alcotest.to_alcotest prop_symmem_disjoint_writes;
    Alcotest.test_case "symmem symbolic pointer read" `Quick test_symmem_symbolic_read;
    Alcotest.test_case "symmem fault" `Quick test_symmem_fault;
    Alcotest.test_case "searcher dfs" `Quick test_searcher_dfs_lifo;
    Alcotest.test_case "searcher bfs" `Quick test_searcher_bfs_fifo;
    Alcotest.test_case "searcher skips dead" `Quick test_searcher_skips_dead;
    Alcotest.test_case "searcher scored" `Quick test_searcher_scored;
    Alcotest.test_case "searcher of_name selectors" `Quick test_searcher_of_name;
    Alcotest.test_case "module map" `Quick test_module_map;
    Alcotest.test_case "dbt cache, marks, smc invalidation" `Quick
      test_dbt_cache_and_marks;
    Alcotest.test_case "consistency taxonomy (Table 1)" `Quick test_consistency_table;
    Alcotest.test_case "state fork isolation" `Quick test_state_fork_isolation;
    Alcotest.test_case "zero register" `Quick test_zero_register;
  ]
