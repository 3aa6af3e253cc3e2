(* Integration tests for the selective symbolic execution engine. *)

open S2e_cc
open S2e_core
module Expr = S2e_expr.Expr

let runtime =
  {|
__start:
  li sp, 0xFFFF0
  jal main
  li r1, 0x900
  sw r0, 0(r1)
  halt
|}

(* Build an engine from MC modules; [unit_modules] are explored
   symbolically. *)
let make_engine ?config ~unit_modules mods =
  let linked = Cc.link ~runtime_asm:runtime mods in
  let engine = Executor.create ?config () in
  Executor.load engine
    {
      Executor.l_origin = linked.image.origin;
      l_code = linked.image.code;
      l_modules =
        List.map
          (fun (m : Cc.module_range) -> (m.m_name, m.m_start, m.m_code_end, m.m_end))
          linked.modules;
    };
  Executor.set_unit engine unit_modules;
  (engine, linked)

let collect_results engine =
  let results = ref [] in
  Events.reg_state_end engine.Executor.events (fun s -> results := s :: !results);
  results

let test_concrete_run () =
  (* A fully concrete program must execute exactly one path. *)
  let engine, _ =
    make_engine ~unit_modules:[ "prog" ]
      [ ("prog", {| int main() { int x = 5; if (x > 3) return 10; return 20; } |}) ]
  in
  let results = collect_results engine in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  let completed = Executor.run engine s0 in
  Alcotest.(check int) "one path" 1 completed;
  match !results with
  | [ s ] ->
      Alcotest.(check bool) "halted" true (s.State.status = State.Halted);
      (match Expr.to_const (S2e_core.Symmem.read_word s.mem 0x900) with
      | Some 10L -> ()
      | v -> Alcotest.failf "wrong result: %s" (match v with Some v -> Int64.to_string v | None -> "symbolic"))
  | _ -> Alcotest.fail "expected one result"

let test_symbolic_fork () =
  (* A symbolic input with one branch must explore two paths. *)
  let engine, _ =
    make_engine ~unit_modules:[ "prog" ]
      [
        ( "prog",
          {|
int main() {
  int x = __s2e_sym_int(1);
  if (x > 100) return 1;
  return 2;
} |}
        );
      ]
  in
  let results = collect_results engine in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  let completed = Executor.run engine s0 in
  Alcotest.(check int) "two paths" 2 completed;
  let outcomes =
    List.filter_map
      (fun (s : State.t) ->
        match Expr.to_const (S2e_core.Symmem.read_word s.mem 0x900) with
        | Some v -> Some (Int64.to_int v)
        | None -> None)
      !results
    |> List.sort compare
  in
  Alcotest.(check (list int)) "both outcomes" [ 1; 2 ] outcomes

let test_magic_value () =
  (* The engine must find the 'magic' input via constraint solving. *)
  let engine, _ =
    make_engine ~unit_modules:[ "prog" ]
      [
        ( "prog",
          {|
int main() {
  int x = __s2e_sym_int(1);
  if (x * 3 + 7 == 52) return 1;  // x = 15
  return 0;
} |}
        );
      ]
  in
  let results = collect_results engine in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  ignore (Executor.run engine s0);
  let winning =
    List.find_opt
      (fun (s : State.t) ->
        Expr.to_const (S2e_core.Symmem.read_word s.mem 0x900) = Some 1L)
      !results
  in
  match winning with
  | None -> Alcotest.fail "did not find the magic path"
  | Some s -> (
      (* Solve the path constraints: the input must be 15. *)
      match S2e_solver.Solver.check s.constraints with
      | S2e_solver.Solver.Sat m ->
          let x =
            S2e_expr.Expr.Int_map.fold (fun _ v acc -> if acc = None then Some v else acc) m None
          in
          Alcotest.(check (option int64)) "x = 15" (Some 15L) x
      | _ -> Alcotest.fail "path constraints unsat")

let test_loop_forking () =
  (* Symbolic loop bound: N iterations produce N+1 paths. *)
  let engine, _ =
    make_engine ~unit_modules:[ "prog" ]
      [
        ( "prog",
          {|
int main() {
  int n = __s2e_sym_int(1);
  if (n < 0) return 0;
  if (n > 4) return 0;
  int sum = 0;
  for (int i = 0; i < n; i = i + 1) sum = sum + i;
  return sum;
} |}
        );
      ]
  in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  let completed = Executor.run engine s0 in
  (* paths: n<0, n>4, and n in {0..4} -> 7 *)
  Alcotest.(check int) "seven paths" 7 completed

let test_multipath_toggle () =
  (* Disabling multipath makes symbolic branches concretize instead of
     forking. *)
  let engine, _ =
    make_engine ~unit_modules:[ "prog" ]
      [
        ( "prog",
          {|
int main() {
  int x = __s2e_sym_int(1);
  __s2e_disable();
  if (x > 100) return 1;
  return 2;
} |}
        );
      ]
  in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  let completed = Executor.run engine s0 in
  Alcotest.(check int) "single path" 1 completed

let test_symbolic_memory () =
  (* Symbolic buffer bytes drive branches. *)
  let engine, _ =
    make_engine ~unit_modules:[ "prog" ]
      [
        ( "prog",
          {|
char buf[4];
int main() {
  __s2e_sym_mem(buf, 4, 2);
  if (buf[0] == 'A' && buf[1] == 'B') return 1;
  return 0;
} |}
        );
      ]
  in
  let results = collect_results engine in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  let completed = Executor.run engine s0 in
  Alcotest.(check bool) "several paths" true (completed >= 2);
  let winning =
    List.exists
      (fun (s : State.t) ->
        Expr.to_const (S2e_core.Symmem.read_word s.mem 0x900) = Some 1L)
      !results
  in
  Alcotest.(check bool) "found AB path" true winning

let test_cow_isolation () =
  (* Forked paths must not see each other's writes (the non-VM tools
     problem the paper describes: paths clobbering each other's state). *)
  let engine, _ =
    make_engine ~unit_modules:[ "prog" ]
      [
        ( "prog",
          {|
int g = 0;
int main() {
  int x = __s2e_sym_int(1);
  if (x == 7) { g = 111; } else { g = 222; }
  return g;
} |}
        );
      ]
  in
  let results = collect_results engine in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  ignore (Executor.run engine s0);
  let outcomes =
    List.filter_map
      (fun (s : State.t) ->
        Expr.to_const (S2e_core.Symmem.read_word s.mem 0x900)
        |> Option.map Int64.to_int)
      !results
    |> List.sort compare
  in
  Alcotest.(check (list int)) "isolated globals" [ 111; 222 ] outcomes

let test_sc_ce_single_path () =
  (* Under SC-CE the symbolic-data opcodes are inert: one concrete path. *)
  let config = Executor.default_config () in
  config.consistency <- Consistency.SC_CE;
  let engine, _ =
    make_engine ~config ~unit_modules:[ "prog" ]
      [
        ( "prog",
          {|
int main() {
  int x = __s2e_sym_int(1);
  if (x > 100) return 1;
  return 2;
} |}
        );
      ]
  in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  let completed = Executor.run engine s0 in
  Alcotest.(check int) "single concrete path" 1 completed

let test_instr_marking () =
  (* onInstrTranslation marking triggers onInstrExecution. *)
  let engine, linked =
    make_engine ~unit_modules:[ "prog" ]
      [ ("prog", {| int work(int k) { return k + 1; }
int main() { int s = 0; for (int i = 0; i < 5; i = i + 1) s = work(s); return s; } |}) ]
  in
  let work_addr = S2e_isa.Asm.symbol linked.image "work" in
  let executions = ref 0 in
  Events.reg_instr_translate engine.Executor.events (fun addr _ ->
      if addr = work_addr then S2e_dbt.Dbt.mark engine.Executor.dbt addr);
  Events.reg_instr_execute engine.Executor.events (fun _ addr _ ->
      if addr = work_addr then incr executions);
  let s0 = Executor.boot engine ~entry:0x1000 () in
  ignore (Executor.run engine s0);
  Alcotest.(check int) "work executed 5 times" 5 !executions

let test_env_boundary_lc_abort () =
  (* Under LC, the environment branching on unit-provided symbolic data
     aborts the path. *)
  let engine, _ =
    make_engine ~unit_modules:[ "unit" ]
      [
        ( "env",
          {| int env_check(int v) { if (v > 5) return 1; return 0; } |} );
        ( "unit",
          {|
int main() {
  int x = __s2e_sym_int(1);
  return env_check(x);
} |}
        );
      ]
  in
  let results = collect_results engine in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  ignore (Executor.run engine s0);
  let aborted =
    List.exists
      (fun (s : State.t) ->
        match s.status with State.Aborted _ -> true | _ -> false)
      !results
  in
  Alcotest.(check bool) "LC aborts env symbolic branch" true aborted

let test_env_boundary_scse_forks () =
  (* Under SC-SE the same program forks inside the environment instead. *)
  let config = Executor.default_config () in
  config.consistency <- Consistency.SC_SE;
  let engine, _ =
    make_engine ~config ~unit_modules:[ "unit" ]
      [
        ("env", {| int env_check(int v) { if (v > 5) return 1; return 0; } |});
        ("unit", {|
int main() {
  int x = __s2e_sym_int(1);
  return env_check(x);
} |});
      ]
  in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  let completed = Executor.run engine s0 in
  Alcotest.(check int) "two paths under SC-SE" 2 completed

let test_sc_ue_concretizes () =
  (* Under SC-UE, calling the environment pins the symbolic argument. *)
  let config = Executor.default_config () in
  config.consistency <- Consistency.SC_UE;
  let engine, _ =
    make_engine ~config ~unit_modules:[ "unit" ]
      [
        ("env", {| int env_id(int v) { return v; } |});
        ("unit", {|
int main() {
  int x = __s2e_sym_int(1);
  int y = env_id(x);
  if (x > 100) return 1;   // dead after concretization to a single value
  return 2;
} |});
      ]
  in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  let completed = Executor.run engine s0 in
  (* x was pinned by the env call, so the later branch cannot fork. *)
  Alcotest.(check int) "one path under SC-UE" 1 completed

let test_rc_oc_unconstrained_return () =
  (* Under RC-OC, env return values are unconstrained: both assert outcomes
     are explored, including the locally infeasible one (paper Fig. 4). *)
  let config = Executor.default_config () in
  config.consistency <- Consistency.RC_OC;
  let engine, _ =
    make_engine ~config ~unit_modules:[ "unit" ]
      [
        ("env", {| int env_flag() { return 0; } |});
        ("unit", {|
int main() {
  int st = env_flag();
  if (st == 0) return 1;
  return 2;     // infeasible in reality: env_flag always returns 0
} |});
      ]
  in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  let completed = Executor.run engine s0 in
  Alcotest.(check int) "two paths under RC-OC" 2 completed

let test_rc_cc_no_solver () =
  (* RC-CC follows both CFG edges even when one is infeasible. *)
  let config = Executor.default_config () in
  config.consistency <- Consistency.RC_CC;
  let engine, _ =
    make_engine ~config ~unit_modules:[ "prog" ]
      [
        ("prog", {|
int main() {
  int x = __s2e_sym_int(1);
  if (x > 10) {
    if (x < 5) return 99;   // infeasible edge, still explored under RC-CC
    return 1;
  }
  return 2;
} |});
      ]
  in
  let results = collect_results engine in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  ignore (Executor.run engine s0);
  let outcomes =
    List.filter_map
      (fun (s : State.t) ->
        Expr.to_const (S2e_core.Symmem.read_word s.mem 0x900)
        |> Option.map Int64.to_int)
      !results
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "all CFG edges" [ 1; 2; 99 ] outcomes

let test_rc_cc_fork_counts_live () =
  (* RC-CC forks go through the engine's one birth path, and [run] adopts
     its initial state: the live watermark sees both. *)
  let config = Executor.default_config () in
  config.consistency <- Consistency.RC_CC;
  let engine, _ =
    make_engine ~config ~unit_modules:[ "prog" ]
      [
        ("prog", {|
int main() {
  int x = __s2e_sym_int(1);
  if (x > 10) {
    if (x < 5) return 99;
    return 1;
  }
  return 2;
} |});
      ]
  in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  ignore (Executor.run engine s0);
  let st = engine.Executor.stats in
  Alcotest.(check bool)
    (Printf.sprintf "max_live_states %d >= 2" st.max_live_states)
    true (st.max_live_states >= 2);
  Alcotest.(check int) "every live state ended" 0 st.live_states

let test_kill_state_counts_incomplete () =
  (* A killed path that was marked incomplete counts as one, as an
     ended one does. *)
  let engine, _ =
    make_engine ~unit_modules:[ "prog" ]
      [ ("prog", {| int main() { return 0; } |}) ]
  in
  let s = Executor.boot engine ~entry:0x1000 () in
  Executor.adopt engine s;
  s.State.incomplete <- true;
  let before = S2e_obs.Metrics.snapshot () in
  Executor.kill_state engine s "test";
  Executor.flush engine;
  let d = S2e_obs.Metrics.(delta ~before (snapshot ())) in
  Alcotest.(check int) "engine.incomplete_paths + 1" 1
    (S2e_obs.Metrics.get_int d "engine.incomplete_paths");
  Alcotest.(check int) "engine.states_completed + 1" 1
    (S2e_obs.Metrics.get_int d "engine.states_completed");
  Alcotest.(check int) "record counts it too" 1
    engine.Executor.stats.incomplete_paths;
  Alcotest.(check (list int)) "left the frontier" []
    (List.map (fun (s : State.t) -> s.id) engine.Executor.live)

let test_assert_bug_detection () =
  let engine, _ =
    make_engine ~unit_modules:[ "prog" ]
      [
        ("prog", {|
int main() {
  int x = __s2e_sym_int(1);
  if (x < 10) {
    __s2e_assert(x != 3);   // can fail
  }
  return 0;
} |});
      ]
  in
  let bugs = ref [] in
  Events.reg_bug engine.Executor.events (fun b -> bugs := b :: !bugs);
  let s0 = Executor.boot engine ~entry:0x1000 () in
  ignore (Executor.run engine s0);
  Alcotest.(check int) "one bug found" 1 (List.length !bugs);
  match !bugs with
  | [ b ] -> Alcotest.(check string) "kind" "assertion" b.Events.bug_kind
  | _ -> ()

let tests =
  [
    Alcotest.test_case "concrete run" `Quick test_concrete_run;
    Alcotest.test_case "symbolic fork" `Quick test_symbolic_fork;
    Alcotest.test_case "magic value" `Quick test_magic_value;
    Alcotest.test_case "loop forking" `Quick test_loop_forking;
    Alcotest.test_case "multipath toggle" `Quick test_multipath_toggle;
    Alcotest.test_case "symbolic memory" `Quick test_symbolic_memory;
    Alcotest.test_case "copy-on-write isolation" `Quick test_cow_isolation;
    Alcotest.test_case "SC-CE single path" `Quick test_sc_ce_single_path;
    Alcotest.test_case "instruction marking" `Quick test_instr_marking;
    Alcotest.test_case "LC env abort" `Quick test_env_boundary_lc_abort;
    Alcotest.test_case "SC-SE env fork" `Quick test_env_boundary_scse_forks;
    Alcotest.test_case "SC-UE concretize at call" `Quick test_sc_ue_concretizes;
    Alcotest.test_case "RC-OC unconstrained return" `Quick test_rc_oc_unconstrained_return;
    Alcotest.test_case "RC-CC ignores feasibility" `Quick test_rc_cc_no_solver;
    Alcotest.test_case "assertion bug detection" `Quick test_assert_bug_detection;
    Alcotest.test_case "RC-CC fork counts live states" `Quick
      test_rc_cc_fork_counts_live;
    Alcotest.test_case "kill_state counts an incomplete path" `Quick
      test_kill_state_counts_incomplete;
  ]
