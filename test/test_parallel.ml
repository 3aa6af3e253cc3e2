(* Differential tests for Parallel.explore: a multi-worker run must
   terminate with the same set of paths — identified by their canonical
   test cases — and the same fork/termination totals as the serial run. *)

open S2e_cc
open S2e_core
module Solver = S2e_solver.Solver

let runtime =
  {|
__start:
  li sp, 0xFFFF0
  jal main
  li r1, 0x900
  sw r0, 0(r1)
  halt
|}

(* 2^5 = 32 paths from the loop, collapsed to two exit codes: enough
   parallelism for the steal pool to engage, small enough to stay quick. *)
let workload =
  {|
int main() {
  int x = __s2e_sym_int(1);
  int acc = 0;
  for (int i = 0; i < 5; i = i + 1) {
    if ((x >> i) & 1) acc = acc + (i * 3 + 1);
  }
  if (acc > 20) return 1;
  return 0;
} |}

let make_engine () =
  let linked = Cc.link ~runtime_asm:runtime [ ("prog", workload) ] in
  let engine = Executor.create () in
  Executor.load engine
    {
      Executor.l_origin = linked.image.origin;
      l_code = linked.image.code;
      l_modules =
        List.map
          (fun (m : Cc.module_range) -> (m.m_name, m.m_start, m.m_code_end, m.m_end))
          linked.modules;
    };
  Executor.set_unit engine [ "prog" ];
  engine

let explore jobs =
  Parallel.explore ~jobs ~make_engine
    ~boot:(fun engine -> Executor.boot engine ~entry:0x1000 ())
    ()

let case_set (r : Parallel.result) =
  List.map
    (fun (s : State.t) -> Parallel.test_case_to_string (Parallel.test_case s))
    r.Parallel.completed
  |> List.sort compare

let test_serial_matches_executor_run () =
  (* jobs = 1 must behave exactly like a plain Executor.run. *)
  let engine = make_engine () in
  let s0 = Executor.boot engine ~entry:0x1000 () in
  let completed = Executor.run engine s0 in
  let r = explore 1 in
  Alcotest.(check int) "same path count" completed r.Parallel.stats.Executor.states_completed;
  Alcotest.(check int) "32 paths" 32 (List.length r.Parallel.completed);
  Alcotest.(check int) "31 forks" 31 r.Parallel.stats.Executor.forks;
  Alcotest.(check int) "no steals at jobs=1" 0 r.Parallel.steals

(* [explore], with the states it created read from the registry. *)
let explore_created jobs =
  let before = S2e_obs.Metrics.snapshot () in
  let r = explore jobs in
  ( r,
    S2e_obs.Metrics.(
      get_int (delta ~before (snapshot ())) "engine.states_created") )

let test_parallel_same_path_set () =
  let serial, serial_created = explore_created 1 in
  let par, par_created = explore_created 4 in
  Alcotest.(check int) "jobs recorded" 4 par.Parallel.jobs;
  Alcotest.(check (list string))
    "identical test-case sets" (case_set serial) (case_set par);
  Alcotest.(check int) "same fork count"
    serial.Parallel.stats.Executor.forks par.Parallel.stats.Executor.forks;
  Alcotest.(check int) "same completion count"
    serial.Parallel.stats.Executor.states_completed
    par.Parallel.stats.Executor.states_completed;
  Alcotest.(check int) "same creation count" serial_created par_created;
  (* Each path fixes all five tested bits, so the 32 witnesses must be
     distinct. *)
  let cases = case_set par in
  Alcotest.(check int) "distinct witnesses" (List.length cases)
    (List.length (List.sort_uniq compare cases))

let test_parallel_solver_isolation () =
  (* Worker solver contexts are private: a parallel run must not touch
     the process-wide default context's caches. *)
  let models = Solver.models Solver.default_ctx in
  let before = S2e_obs.Metrics.snapshot () in
  ignore (explore 2);
  Alcotest.(check bool) "default solver ctx untouched" true
    (List.equal ( == ) models (Solver.models Solver.default_ctx));
  Alcotest.(check bool) "worker contexts did the solving" true
    (S2e_obs.Metrics.(get_int (delta ~before (snapshot ())) "solver.queries")
    > 0)

let test_parallel_footprint_sampled () =
  (* Both loops share the engine's between-block step, so a jobs=2 drain
     samples the live states' footprint as a serial one does. *)
  let r = explore 2 in
  Alcotest.(check bool) "footprint watermark above 0" true
    (r.Parallel.stats.Executor.footprint_watermark > 0)

let tests =
  [
    Alcotest.test_case "jobs=1 equals Executor.run" `Quick
      test_serial_matches_executor_run;
    Alcotest.test_case "jobs=4 same path set as serial" `Quick
      test_parallel_same_path_set;
    Alcotest.test_case "worker solver contexts isolated" `Quick
      test_parallel_solver_isolation;
    Alcotest.test_case "jobs=2 samples the footprint" `Quick
      test_parallel_footprint_sampled;
  ]
