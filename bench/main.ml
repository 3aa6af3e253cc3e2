(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 6), plus the ablations called out in DESIGN.md and
   the three measurements the end-to-end benchmark (bench/e2e) has no
   workload for: parallel, chaos and oracle.

   Usage:  dune exec bench/main.exe [-- experiment ...]
   Experiments: oracle chaos table4 table5 fig6 table6 fig7 fig8 fig9 ddt
   profs-url profs-ping overhead pagesize ablate parallel all (default:
   all).  The per-run budget can be scaled with S2E_BENCH_SECONDS
   (default 12). *)

open S2e_core
open S2e_tools
module Guest = S2e_guest.Guest
module Solver = S2e_solver.Solver
module Expr = S2e_expr.Expr
module Obs = S2e_obs

(* What the solver did since [before] (a registry snapshot): a snapshot
   delta, read with [Obs.Metrics.get_int]/[get_float].  The
   [solver.query_s] histogram's sum is the total solver time. *)
let since before = Obs.Metrics.delta ~before (Obs.Metrics.snapshot ())

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let budget =
  match Sys.getenv_opt "S2E_BENCH_SECONDS" with
  | Some s -> float_of_string s
  | None -> 12.0

(* ---------------------------------------------------------------- *)
(* Table 4: comparative productivity (tool LOC on top of the platform) *)
(* ---------------------------------------------------------------- *)

let count_loc path =
  try
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if
           line <> ""
           && not (String.length line >= 2 && String.sub line 0 2 = "(*")
         then incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  with Sys_error _ -> 0

let dir_loc dir =
  try
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.fold_left (fun acc f -> acc + count_loc (Filename.concat dir f)) 0
  with Sys_error _ -> 0

let table4 () =
  section "Table 4: productivity — tool complexity with vs without the platform";
  let platform =
    List.fold_left
      (fun acc d -> acc + dir_loc (Filename.concat "lib" d))
      0
      [ "expr"; "solver"; "isa"; "vm"; "dbt"; "cc"; "core"; "plugins";
        "cachesim"; "guest" ]
  in
  let tools =
    [
      ("Testing of device drivers (DDT+)", "lib/tools/ddt.ml");
      ("Reverse engineering (REV+)", "lib/tools/rev.ml");
      ("Multi-path performance profiling (PROFS)", "lib/tools/profs.ml");
    ]
  in
  Printf.printf "%-45s %10s %14s\n" "Use case" "tool LOC" "platform LOC";
  List.iter
    (fun (name, path) ->
      Printf.printf "%-45s %10d %14d\n" name (count_loc path) platform)
    tools;
  Printf.printf
    "\nPaper's shape: each tool built on the platform is orders of magnitude\n\
     smaller than a from-scratch implementation (47-57 KLOC in the paper);\n\
     here each tool is a few hundred lines over a %d-line platform.\n"
    platform

(* ---------------------------------------------------------------- *)
(* Table 5 + Fig 6: REV+ coverage vs the RevNIC baseline, over time   *)
(* ---------------------------------------------------------------- *)

let rev_drivers = [ "pcnet"; "rtl8029"; "c111"; "rtl8139" ]

let table5 () =
  section "Table 5: basic-block coverage, RevNIC baseline vs REV+ (same budget)";
  Printf.printf "%-10s %10s %10s %14s\n" "Driver" "RevNIC" "REV+" "Improvement";
  List.iter
    (fun driver ->
      let base = Rev.run ~max_seconds:budget ~mode:`Revnic_baseline ~driver () in
      let plus = Rev.run ~max_seconds:budget ~mode:`Rev_plus ~driver () in
      Printf.printf "%-10s %9.0f%% %9.0f%% %+13.0f%%\n%!"
        (Guest.driver_display_name driver)
        (100. *. base.coverage) (100. *. plus.coverage)
        (100. *. (plus.coverage -. base.coverage)))
    rev_drivers;
  Printf.printf
    "\nPaper's shape: REV+ >= RevNIC on every driver (paper: +2 to +7%%).\n"

let fig6 () =
  section "Figure 6: basic-block coverage over time for REV+ (per driver)";
  List.iter
    (fun driver ->
      let r = Rev.run ~max_seconds:budget ~driver () in
      Printf.printf "\n%s (%d/%d insns covered):\n"
        (Guest.driver_display_name driver)
        r.covered_insns r.total_insns;
      let tl = r.timeline in
      let n = List.length tl in
      let step = max 1 (n / 12) in
      List.iteri
        (fun i (instret, cov) ->
          if i mod step = 0 || i = n - 1 then
            Printf.printf "  %10d instrs  %5.1f%%\n" instret (100. *. cov))
        tl;
      Printf.printf "%!")
    rev_drivers;
  Printf.printf
    "\nPaper's shape: coverage rises steeply then plateaus; PCnet plateaus\n\
     lowest among the four drivers.\n"

(* ---------------------------------------------------------------- *)
(* Table 6 + Figs 7, 8, 9: consistency-model trade-offs               *)
(* ---------------------------------------------------------------- *)

let model_targets = [ `Driver "c111"; `Driver "pcnet"; `Mua ]
let models = Consistency.[ RC_OC; LC; SC_SE; SC_UE ]

let run_target target model =
  match target, model with
  | `Mua, Consistency.SC_UE -> None (* the paper leaves this cell empty *)
  | `Mua, _ -> Some (Model_exp.run_mua ~max_seconds:budget ~consistency:model ())
  | `Driver d, _ ->
      Some (Model_exp.run_driver ~max_seconds:budget ~driver:d ~consistency:model ())

let collect_measurements () =
  List.map
    (fun target ->
      let name =
        match target with
        | `Driver d -> Guest.driver_display_name d
        | `Mua -> "Mua"
      in
      ( name,
        List.filter_map
          (fun m -> run_target target m |> Option.map (fun r -> (m, r)))
          models ))
    model_targets

let measurements = lazy (collect_measurements ())

let table6 () =
  section "Table 6: time (s) to finish the exploration experiment per model";
  let ms = Lazy.force measurements in
  Printf.printf "%-12s" "Model";
  List.iter (fun (name, _) -> Printf.printf " %14s" name) ms;
  print_newline ();
  List.iter
    (fun model ->
      Printf.printf "%-12s" (Consistency.name model);
      List.iter
        (fun (_, results) ->
          match List.assoc_opt model results with
          | Some r ->
              Printf.printf " %12.1f%s" r.Model_exp.seconds
                (if r.finished then " " else "*")
          | None -> Printf.printf " %14s" "-")
        ms;
      print_newline ())
    models;
  Printf.printf
    "(* = budget cap reached)\n\
     Paper's shape: RC-OC/LC/SC-SE take the same order of magnitude;\n\
     SC-UE finishes almost immediately because the driver fails to load.\n"

let fig7 () =
  section "Figure 7: effect of consistency models on basic-block coverage";
  let ms = Lazy.force measurements in
  Printf.printf "%-12s" "Model";
  List.iter (fun (name, _) -> Printf.printf " %10s" name) ms;
  print_newline ();
  List.iter
    (fun model ->
      Printf.printf "%-12s" (Consistency.name model);
      List.iter
        (fun (_, results) ->
          match List.assoc_opt model results with
          | Some r -> Printf.printf " %9.1f%%" (100. *. r.Model_exp.coverage)
          | None -> Printf.printf " %10s" "-")
        ms;
      print_newline ())
    models;
  Printf.printf
    "Paper's shape: weaker models reach higher driver coverage; SC-UE is\n\
     dramatically worse (the driver fails to load); for the interpreter,\n\
     LC wins (it bypasses the lexer) and RC-OC lags (crash paths).\n"

let fig8 () =
  section "Figure 8: effect of consistency models on memory usage";
  let ms = Lazy.force measurements in
  Printf.printf "%-12s" "Model";
  List.iter (fun (name, _) -> Printf.printf " %12s" name) ms;
  print_newline ();
  List.iter
    (fun model ->
      Printf.printf "%-12s" (Consistency.name model);
      List.iter
        (fun (_, results) ->
          match List.assoc_opt model results with
          | Some r -> Printf.printf " %12d" r.Model_exp.mem_watermark
          | None -> Printf.printf " %12s" "-")
        ms;
      print_newline ())
    models;
  Printf.printf
    "(state-footprint words, high watermark over live states)\n\
     Paper's shape: LC keeps more state alive than RC-OC on PCnet;\n\
     SC-UE uses almost nothing.\n"

let fig9 () =
  section "Figure 9: impact of consistency models on constraint solving";
  let ms = Lazy.force measurements in
  Printf.printf "%-12s" "Model";
  List.iter (fun (name, _) -> Printf.printf " %22s" name) ms;
  print_newline ();
  Printf.printf "%-12s" "";
  List.iter (fun _ -> Printf.printf " %12s %9s" "solver%" "ms/query") ms;
  print_newline ();
  List.iter
    (fun model ->
      Printf.printf "%-12s" (Consistency.name model);
      List.iter
        (fun (_, results) ->
          match List.assoc_opt model results with
          | Some r ->
              Printf.printf " %11.0f%% %9.3f"
                (100. *. r.Model_exp.solver_fraction)
                r.Model_exp.avg_query_ms
          | None -> Printf.printf " %12s %9s" "-" "-")
        ms;
      print_newline ())
    models;
  Printf.printf
    "Paper's shape: stricter models restrict symbolic data, lowering the\n\
     solver share; the interpreter spends most of its time in the solver.\n"

(* ---------------------------------------------------------------- *)
(* Section 6.1.1: DDT+ bug finding                                    *)
(* ---------------------------------------------------------------- *)

let ddt () =
  section "Section 6.1.1: DDT+ on PCnet and RTL8029 (seeded-bug recall)";
  let total model =
    List.fold_left
      (fun acc driver ->
        let r = Ddt.run ~max_seconds:(budget *. 2.) ~driver ~consistency:model () in
        Printf.printf "\n%s under %s: %d paths in %.1fs, %.0f%% coverage\n"
          (Guest.driver_display_name driver)
          (Consistency.name model) r.paths r.seconds (100. *. r.coverage);
        List.iter
          (fun (b : Ddt.bug_report) ->
            Printf.printf "  [%s] pc=0x%x  %s\n" b.kind b.pc b.message)
          r.bugs;
        acc + Ddt.seeded_bug_count r)
      0 [ "pcnet"; "rtl8029" ]
  in
  let scse = total Consistency.SC_SE in
  let lc = total Consistency.LC in
  Printf.printf
    "\nTotal distinct bugs: %d under SC-SE, %d under LC.\n\
     Paper: 7 bugs; 2 findable under SC-SE, relaxing to LC finds 5 more.\n"
    scse lc

(* ---------------------------------------------------------------- *)
(* Section 6.1.3: PROFS                                               *)
(* ---------------------------------------------------------------- *)

let profs_url () =
  section "Section 6.1.3: PROFS on the URL parser (multi-path profile)";
  let r =
    Profs.run ~max_seconds:(budget *. 2.)
      ~workload:("urlparse", S2e_guest.Workloads_src.urlparse)
      ()
  in
  let done_paths = Profs.completed r in
  Printf.printf "explored %d paths (%d completed) in %.1fs (%.1fs in solver)\n"
    (List.length r.paths) (List.length done_paths) r.seconds r.solver_seconds;
  let pts =
    List.map
      (fun p ->
        ( float_of_int (Profs.count_input_byte p ~prefix:"sym1" (Char.code '/')),
          float_of_int p.Profs.p_instructions ))
      done_paths
  in
  (match Profs.regression pts with
  | Some (slope, intercept) ->
      Printf.printf "instructions(path) ~= %.1f * (#'/' chars) + %.0f\n" slope
        intercept
  | None -> print_endline "regression unavailable");
  let misses =
    List.map (fun p -> p.Profs.p_i1_misses + p.Profs.p_d1_misses) done_paths
  in
  (match misses with
  | [] -> ()
  | m :: _ ->
      let lo = List.fold_left min m misses
      and hi = List.fold_left max m misses in
      let mean =
        float_of_int (List.fold_left ( + ) 0 misses)
        /. float_of_int (List.length misses)
      in
      Printf.printf "L1 cache misses per path: %.0f +- %d (range %d..%d)\n" mean
        ((hi - lo) / 2) lo hi);
  Printf.printf
    "Paper's shape: a fixed extra instruction cost per '/' character (10 in\n\
     the paper) and a near-constant cache-miss count across paths.\n"

let profs_ping () =
  section "Section 6.1.3: PROFS on ping (performance envelope + loop bug)";
  let reply = Array.make 28 0 in
  reply.(0) <- 0x45;
  let driver = ("pcnet", List.assoc "pcnet" Guest.drivers) in
  let buggy =
    Profs.run ~max_seconds:(budget *. 2.) ~driver ~frames:[ reply ]
      ~workload:("ping", S2e_guest.Workloads_src.ping ~buggy:true)
      ()
  in
  Printf.printf "unpatched ping: %d paths, %d killed, infinite loop %s\n"
    (List.length buggy.paths) buggy.killed_paths
    (if buggy.unbounded then "DETECTED (record-route option, length < 4)"
     else "not detected");
  let fixed =
    Profs.run ~max_seconds:(budget *. 2.) ~driver ~frames:[ reply ]
      ~workload:("ping", S2e_guest.Workloads_src.ping ~buggy:false)
      ()
  in
  (match Profs.envelope fixed with
  | Some (lo, hi) ->
      Printf.printf
        "patched ping: %d paths, performance envelope [%d, %d] instructions\n"
        (List.length fixed.paths) lo hi
  | None -> print_endline "patched ping: no completed paths");
  let pf =
    List.fold_left
      (fun acc p -> max acc p.Profs.p_page_faults)
      0 (Profs.completed fixed)
  in
  Printf.printf "max page faults on any path: %d\n" pf;
  Printf.printf
    "Paper's shape: the unpatched client has no execution-time bound (a\n\
     malicious host can hang it); after the patch the envelope is finite\n\
     (paper: [1645, 129086] instructions).\n"

(* ---------------------------------------------------------------- *)
(* Section 6.2: runtime overhead (Bechamel microbenchmarks)           *)
(* ---------------------------------------------------------------- *)

(* Constant symbolic work per iteration (each value derives from the input
   by a bounded expression), so the measurement reflects per-instruction
   interpretation cost rather than unbounded expression growth. *)
let overhead_workload symbolic =
  Printf.sprintf
    {|
char sink[8];
int main() {
  int x = %s;
  for (int i = 0; i < 400; i = i + 1) {
    int t = ((x >> (i & 7)) ^ i) * 3;
    t = t ^ (t >> 3);
    // In symbolic mode this branch needs a solver feasibility check (the
    // taken side is infeasible); in concrete mode the condition folds to
    // a constant for free.
    if ((i & 15) == 0 && (t & 0xFF) > 300) sink[0] = 1;
    sink[i & 7] = t;
  }
  return sink[0] & 0;
}
|}
    (if symbolic then "__s2e_sym_int(1)" else "17")

let build_concrete_machine () =
  let img =
    Guest.build
      ~driver:("nulldrv", S2e_guest.Drivers_src.nulldrv)
      ~workload:("bench", overhead_workload false)
      ()
  in
  fun () ->
    let m = S2e_vm.Machine.create () in
    Guest.load_into_machine m img;
    ignore (S2e_vm.Machine.run ~fuel:100_000 m)

let build_engine_runner symbolic =
  let img =
    Guest.build
      ~driver:("nulldrv", S2e_guest.Drivers_src.nulldrv)
      ~workload:("bench", overhead_workload symbolic)
      ()
  in
  fun () ->
    let config = Executor.default_config () in
    config.consistency <- Consistency.LC;
    let engine = Executor.create ~config () in
    Guest.load_into_engine engine img;
    Executor.set_unit engine [ "bench" ];
    let s0 = Executor.boot engine ~entry:img.entry () in
    ignore
      (Executor.run
         ~limits:
           {
             Executor.max_instructions = Some 100_000;
             max_seconds = Some 10.0;
             max_completed = None;
           }
         engine s0)

let overhead () =
  section "Section 6.2: runtime overhead (vanilla VM vs engine modes)";
  let open Bechamel in
  let vanilla = build_concrete_machine () in
  let concrete = build_engine_runner false in
  let symbolic = build_engine_runner true in
  let tests =
    Test.make_grouped ~name:"overhead" ~fmt:"%s %s"
      [
        Test.make ~name:"vanilla-vm" (Staged.stage vanilla);
        Test.make ~name:"engine-concrete" (Staged.stage concrete);
        Test.make ~name:"engine-symbolic" (Staged.stage symbolic);
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:(Some 50) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let time_of name =
    match Hashtbl.find_opt results ("overhead " ^ name) with
    | Some est -> (
        match Analyze.OLS.estimates est with Some [ t ] -> t | _ -> nan)
    | None -> nan
  in
  let t_vanilla = time_of "vanilla-vm" in
  let t_concrete = time_of "engine-concrete" in
  let t_symbolic = time_of "engine-symbolic" in
  Printf.printf "%-18s %14s %10s\n" "Configuration" "ns/run" "overhead";
  Printf.printf "%-18s %14.0f %10s\n" "vanilla VM" t_vanilla "1.0x";
  Printf.printf "%-18s %14.0f %9.1fx\n" "engine, concrete" t_concrete
    (t_concrete /. t_vanilla);
  Printf.printf "%-18s %14.0f %9.1fx\n" "engine, symbolic" t_symbolic
    (t_symbolic /. t_vanilla);
  Printf.printf
    "\nPaper's shape: ~6x overhead in concrete mode, ~78x in symbolic mode.\n\
     Exact factors depend on the substrate; the ordering and the gap\n\
     between the modes are the reproducible part.\n"

(* ---------------------------------------------------------------- *)
(* Section 6.2: symbolic-pointer solver page size                     *)
(* ---------------------------------------------------------------- *)

let pagesize_workload =
  {|
char table[256];
int main() {
  for (int i = 0; i < 256; i = i + 1) table[i] = (i * 37) & 0xFF;
  int x = __s2e_sym_int(1);
  int acc = 0;
  for (int k = 0; k < 6; k = k + 1) {
    int idx = (x >> (k * 4)) & 0xFF;
    acc = acc + table[idx];
    if ((acc & 3) == 0) acc = acc + 1;
  }
  return acc;
}
|}

let pagesize () =
  section "Section 6.2: symbolic-pointer cost vs solver page size";
  Printf.printf "%-10s %8s %10s %12s %12s\n" "page (B)" "paths" "queries"
    "ms/query" "solver s";
  List.iter
    (fun page ->
      let before = Obs.Metrics.snapshot () in
      let img =
        Guest.build
          ~driver:("nulldrv", S2e_guest.Drivers_src.nulldrv)
          ~workload:("ptr", pagesize_workload)
          ()
      in
      let config = Executor.default_config () in
      config.consistency <- Consistency.LC;
      config.page_size <- page;
      let engine = Executor.create ~config () in
      Guest.load_into_engine engine img;
      Executor.set_unit engine [ "ptr" ];
      let s0 = Executor.boot engine ~entry:img.entry () in
      ignore
        (Executor.run
           ~limits:
             {
               Executor.max_instructions = None;
               max_seconds = Some budget;
               max_completed = None;
             }
           engine s0);
      let d = since before in
      let queries = Obs.Metrics.get_int d "solver.queries" in
      let solver_s = Obs.Metrics.get_float d "solver.query_s" in
      Printf.printf "%-10d %8d %10d %12.3f %12.2f\n%!" page
        engine.Executor.stats.states_completed queries
        (if queries > 0 then 1000. *. solver_s /. float_of_int queries else 0.)
        solver_s)
    [ 64; 128; 256; 512; 1024 ];
  Printf.printf
    "\nPaper's shape: smaller solver pages mean less symbolic memory per\n\
     query, faster queries and more paths in the same budget (paper: 7082\n\
     paths @256B pages vs 2000 @4KB).\n"

(* ---------------------------------------------------------------- *)
(* Ablations (DESIGN.md section 4)                                    *)
(* ---------------------------------------------------------------- *)

let ablate () =
  section "Ablations: simplifier, slicing, lazy concretization";
  (* Conditions that only known-bits reasoning can fold: with the
     simplifier each branch collapses to a constant and never reaches the
     solver; without it every one costs a feasibility query. *)
  let bitfield_workload =
    {|
int main() {
  int x = __s2e_sym_int(1);
  int hits = 0;
  for (int i = 0; i < 24; i = i + 1) {
    int m = (x << i) | (1 << i);
    if ((m >> i) & 1) hits = hits + 1;
  }
  if (x > 1000) return hits;
  return hits + 1;
}
|}
  in
  let run_simplifier on =
    let before = Obs.Metrics.snapshot () in
    let img =
      Guest.build
        ~driver:("nulldrv", S2e_guest.Drivers_src.nulldrv)
        ~workload:("bits", bitfield_workload)
        ()
    in
    let config = Executor.default_config () in
    config.use_simplifier <- on;
    let engine = Executor.create ~config () in
    Guest.load_into_engine engine img;
    Executor.set_unit engine [ "bits" ];
    let s0 = Executor.boot engine ~entry:img.entry () in
    let t0 = Unix.gettimeofday () in
    ignore
      (Executor.run
         ~limits:
           {
             Executor.max_instructions = None;
             max_seconds = Some budget;
             max_completed = None;
           }
         engine s0);
    let d = since before in
    ( Unix.gettimeofday () -. t0,
      Obs.Metrics.get_int d "solver.queries",
      Obs.Metrics.get_float d "solver.query_s",
      engine.Executor.stats.states_completed )
  in
  let t_on, q_on, s_on, p_on = run_simplifier true in
  let t_off, q_off, s_off, p_off = run_simplifier false in
  Printf.printf
    "bitfield simplifier ON : %.2fs, %d queries, %.2fs solving, %d paths\n"
    t_on q_on s_on p_on;
  Printf.printf
    "bitfield simplifier OFF: %.2fs, %d queries, %.2fs solving, %d paths\n"
    t_off q_off s_off p_off;
  (* (b) independent-constraint slicing: solver-level microbenchmark *)
  let x = Expr.fresh_var ~width:32 "ax" in
  let unrelated =
    List.init 24 (fun i ->
        let y = Expr.fresh_var ~width:32 (Printf.sprintf "u%d" i) in
        Expr.ult y (Expr.const (Int64.of_int (100 + i))))
  in
  let query = Expr.eq (Expr.mul x (Expr.const 7L)) (Expr.const 91L) in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 50 do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  let with_slicing =
    time (fun () ->
        Solver.clear_caches Solver.default_ctx;
        ignore (Solver.check_with ~constraints:unrelated query))
  in
  let without_slicing =
    time (fun () ->
        Solver.clear_caches Solver.default_ctx;
        ignore (Solver.check (query :: unrelated)))
  in
  Printf.printf
    "constraint slicing: %.2f ms/query sliced vs %.2f ms/query unsliced\n"
    (with_slicing *. 20.) (without_slicing *. 20.);
  (* (c) lazy vs eager concretization at the boundary *)
  let lazy_workload =
    {|
char shuttle[8];
int main() {
  __s2e_sym_mem(shuttle, 8, 1);
  char out[8];
  kmemcpy(out, shuttle, 8);
  if (out[0] == 'Z') return 1;
  return 0;
}
|}
  in
  let run_lazy on =
    let img =
      Guest.build
        ~driver:("nulldrv", S2e_guest.Drivers_src.nulldrv)
        ~workload:("shuttle", lazy_workload)
        ()
    in
    let config = Executor.default_config () in
    config.lazy_concretization <- on;
    config.consistency <- Consistency.SC_UE;
    let engine = Executor.create ~config () in
    Guest.load_into_engine engine img;
    Executor.set_unit engine [ "shuttle" ];
    let s0 = Executor.boot engine ~entry:img.entry () in
    Executor.run
      ~limits:
        {
          Executor.max_instructions = Some 2_000_000;
          max_seconds = Some budget;
          max_completed = None;
        }
      engine s0
  in
  Printf.printf
    "lazy concretization: %d paths lazy vs %d paths eager (eager pins the\n\
     buffer at the kmemcpy boundary call, losing the 'Z' path)\n"
    (run_lazy true) (run_lazy false)

(* ---------------------------------------------------------------- *)
(* Parallel exploration: serial vs N workers (ROADMAP scaling item)   *)
(* ---------------------------------------------------------------- *)

(* Here rather than in bench/e2e because it is the only measurement of
   --jobs: every e2e workload is serial or crosses processes (--procs).

   Solver-heavy multi-path workload: every iteration branches on a
   multiplication of the symbolic inputs, so each of the ~2^9 paths pays
   real SAT time — the component the per-worker solver contexts
   parallelize. *)
let parallel_workload =
  {|
int main() {
  int x = __s2e_sym_int(1);
  int y = __s2e_sym_int(2);
  int acc = 0;
  for (int i = 0; i < 9; i = i + 1) {
    int lhs = (x * 13 + i * 7) & 0xFF;
    int rhs = (y * 11 >> (i & 3)) & 0x7F;
    if (lhs > rhs) acc = acc + i;
    else acc = acc - 1;
  }
  return acc;
}
|}

let parallel () =
  section "Parallel exploration: wall-clock speedup vs worker count";
  let img =
    Guest.build
      ~driver:("nulldrv", S2e_guest.Drivers_src.nulldrv)
      ~workload:("pbench", parallel_workload)
      ()
  in
  let make_engine () =
    let config = Executor.default_config () in
    config.consistency <- Consistency.LC;
    let engine = Executor.create ~config () in
    Guest.load_into_engine engine img;
    Executor.set_unit engine [ "pbench" ];
    engine
  in
  (* The run and its solver seconds, summed over the worker domains. *)
  let run jobs =
    let before = Obs.Metrics.snapshot () in
    let r =
      Parallel.explore ~jobs
        ~limits:
          {
            Executor.max_instructions = None;
            max_seconds = Some (budget *. 4.);
            max_completed = None;
          }
        ~make_engine
        ~boot:(fun eng -> Executor.boot eng ~entry:img.entry ())
        ()
    in
    (r, Obs.Metrics.get_float (since before) "solver.query_s")
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "available cores: %d\n" cores;
  Printf.printf "%-8s %10s %8s %8s %10s %10s\n" "jobs" "wall (s)" "paths"
    "steals" "solver (s)" "speedup";
  let serial, serial_solver_s = run 1 in
  let report (r : Parallel.result) solver_s =
    Printf.printf "%-8d %10.2f %8d %8d %10.2f %9.2fx\n%!" r.jobs r.wall_seconds
      r.stats.Executor.states_completed r.steals solver_s
      (serial.wall_seconds /. r.wall_seconds)
  in
  report serial serial_solver_s;
  let results =
    List.map
      (fun jobs ->
        let r, solver_s = run jobs in
        report r solver_s;
        (* The parallel determinism guarantee: same path set as serial. *)
        if
          r.stats.states_completed <> serial.stats.Executor.states_completed
          || r.stats.forks <> serial.stats.forks
        then
          Printf.printf
            "WARNING: worker count changed the explored path set (%d/%d paths, \
             %d/%d forks)\n"
            r.stats.states_completed serial.stats.Executor.states_completed
            r.stats.forks serial.stats.forks;
        r)
      [ 2; 4 ]
  in
  List.iter
    (fun (r : Parallel.result) ->
      Bench_json.emit ~name:"parallel_explore"
        [
          ("jobs", Bench_json.Int r.jobs);
          ("cores", Bench_json.Int cores);
          ("serial_s", Bench_json.Float (serial.wall_seconds, 3));
          ("parallel_s", Bench_json.Float (r.wall_seconds, 3));
          ("speedup", Bench_json.Float (serial.wall_seconds /. r.wall_seconds, 3));
          ("paths", Bench_json.Int r.stats.Executor.states_completed);
          ("steals", Bench_json.Int r.steals);
        ])
    results;
  Printf.printf
    "\nEach worker owns a private searcher + solver context; the only\n\
     shared structure is the steal pool.  Speedup tracks the machine's\n\
     core count (this container reports %d); on a single core the domains\n\
     time-slice and the run degenerates to ~1x or below.\n"
    cores

(* ---------------------------------------------------------------- *)
(* Chaos: resilience under an armed fault plan                        *)
(* ---------------------------------------------------------------- *)

(* Here rather than in bench/e2e because it measures the open lib/dist
   recovery item (ROADMAP), and no e2e workload arms a fault plan.

   The parallel workload over two worker processes, run clean and then
   with the fault injector armed at every boundary (guest hardware,
   solver, transport): what the chaos costs in drained-path throughput,
   and how fast the coordinator turns a crashed worker back into a
   working one.  Its workers are forked, so it is listed before any
   experiment spins up domains. *)
let chaos () =
  section "Chaos: distributed exploration under an armed fault plan";
  let module Coordinator = S2e_dist.Coordinator in
  let module Fault = S2e_fault.Fault in
  let img =
    Guest.build
      ~driver:("nulldrv", S2e_guest.Drivers_src.nulldrv)
      ~workload:("pbench", parallel_workload)
      ()
  in
  let make_engine () =
    let config = Executor.default_config () in
    config.consistency <- Consistency.LC;
    let engine = Executor.create ~config () in
    Guest.load_into_engine engine img;
    Executor.set_unit engine [ "pbench" ];
    engine
  in
  let seconds = Float.min 2.0 (budget /. 5.) in
  let run ?plan () =
    (match plan with
    | None -> Fault.disarm ()
    | Some p -> (
        match Fault.parse_plan p with
        | Ok pl -> Fault.install ~seed:7 pl
        | Error msg -> failwith msg));
    (* Crashed -> Respawned latency: the coordinator's recovery time for
       a dead worker (backoff included). *)
    let crashed = ref [] in
    let recoveries = ref [] in
    let on_event = function
      | Coordinator.Crashed _ -> crashed := Unix.gettimeofday () :: !crashed
      | Coordinator.Respawned _ -> (
          match !crashed with
          | t :: rest ->
              crashed := rest;
              recoveries := (Unix.gettimeofday () -. t) :: !recoveries
          | [] -> ())
      | _ -> ()
    in
    let r =
      Coordinator.explore ~procs:2 ~heartbeat_timeout:1.0 ~on_event
        ~limits:
          {
            Executor.max_instructions = None;
            max_seconds = Some seconds;
            max_completed = None;
          }
        ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.02; make_engine })
        ~make_engine
        ~boot:(fun eng -> Executor.boot eng ~entry:img.entry ())
        ()
    in
    Fault.disarm ();
    (r, !recoveries)
  in
  let rate (r : Coordinator.result) =
    if r.wall_seconds > 0. then
      float_of_int r.stats.Executor.states_completed /. r.wall_seconds
    else 0.
  in
  let plan =
    (* The pbench run exchanges only a handful of frames (workers finish
       their item internally and report one Result), so the corruption
       probability is high to guarantee the disconnect/rejoin path is
       actually exercised. *)
    "dev.read=err:0.02,dma=drop:0.01,irq=spurious:0.01,solver=unknown:0.02,\
     solver=latency:0.05,proto=corrupt:0.6,proto=delay:0.3"
  in
  Printf.printf "per-run budget: %.1f s, plan: %s\n" seconds plan;
  let base, _ = run () in
  let faulted, recoveries = run ~plan () in
  let injected =
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | Obs.Metrics.Int n
          when String.length name > 6 && String.sub name 0 6 = "fault." ->
            acc + n
        | _ -> acc)
      0 faulted.Coordinator.obs
  in
  let mean_recovery_ms =
    match recoveries with
    | [] -> 0.
    | l -> 1000. *. List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  Printf.printf "%-10s %10s %10s %9s %9s %9s\n" "run" "paths/s" "paths"
    "requeues" "restarts" "injected";
  Printf.printf "%-10s %10.1f %10d %9d %9d %9d\n" "baseline" (rate base)
    base.stats.Executor.states_completed base.Coordinator.requeues
    base.Coordinator.restarts 0;
  Printf.printf "%-10s %10.1f %10d %9d %9d %9d\n%!" "faulted" (rate faulted)
    faulted.stats.Executor.states_completed faulted.Coordinator.requeues
    faulted.Coordinator.restarts injected;
  Printf.printf "transport: %d reconnects; degradations: %d; abandoned: %d\n"
    faulted.Coordinator.reconnects faulted.stats.Executor.degradations
    (List.length faulted.Coordinator.abandoned);
  if recoveries <> [] then
    Printf.printf "crash recovery: %d respawns, mean %.0f ms\n"
      (List.length recoveries) mean_recovery_ms;
  Bench_json.emit ~name:"chaos"
    [
      ("base_paths_per_s", Bench_json.Float (rate base, 3));
      ("paths_per_s", Bench_json.Float (rate faulted, 3));
      ( "throughput_frac",
        Bench_json.Float
          ((if rate base > 0. then rate faulted /. rate base else 0.), 3) );
      ("injected", Bench_json.Int injected);
      ("reconnects", Bench_json.Int faulted.Coordinator.reconnects);
      ("degradations", Bench_json.Int faulted.stats.Executor.degradations);
      ("requeues", Bench_json.Int faulted.Coordinator.requeues);
      ("restarts", Bench_json.Int faulted.Coordinator.restarts);
      ("abandoned", Bench_json.Int (List.length faulted.Coordinator.abandoned));
      ("mean_recovery_ms", Bench_json.Float (mean_recovery_ms, 1));
    ];
  Printf.printf
    "\nThe faulted run trades throughput for the recovery machinery\n\
     visibly doing its job: disconnect and rejoin on corrupt frames,\n\
     requeue/respawn on silent workers, degradation instead of hangs on\n\
     solver faults -- with no silently lost work (abandoned items, if\n\
     any, are reported above).\n"

(* ---------------------------------------------------------------- *)
(* Executable ISA oracle: differential-testing throughput            *)
(* ---------------------------------------------------------------- *)

(* Here rather than in bench/e2e because the oracle is a separate
   subsystem from the symbolic engine that e2e measures. *)

let oracle () =
  section "ORACLE: reference interpreter vs DBT differential throughput";
  let module O = S2e_oracle.Oracle in
  let module I = S2e_oracle.Interp in
  let module G = S2e_oracle.Gen in
  let module D = S2e_oracle.Dbt_exec in
  let n = int_of_float (2000. *. max 1. (budget /. 12.)) in
  (* Component throughputs over one shared generated case set. *)
  let g = G.create ~seed:1 in
  let cases = List.init n (fun _ -> G.next g) in
  let it = I.create () in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (c : G.case) -> ignore (I.run it c.G.c_pre)) cases;
  let t_interp = Unix.gettimeofday () -. t0 in
  let dx = D.create () in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (c : G.case) ->
      D.flush dx;
      ignore (D.run dx c.G.c_pre))
    cases;
  let t_dbt = Unix.gettimeofday () -. t0 in
  (* End-to-end differential run, corpus replay included when the seed
     manifest is checked out. *)
  let corpus =
    if Sys.file_exists "examples/oracle/urlparse.corpus" then
      snd (S2e_oracle.Corpus.load "examples/oracle/urlparse.corpus")
    else []
  in
  let t0 = Unix.gettimeofday () in
  let r =
    O.run ~seed:2 ~count:n ~corpus
      ~repro_dir:(Filename.get_temp_dir_name ())
      ()
  in
  let t_diff = Unix.gettimeofday () -. t0 in
  let per t = float_of_int n /. t in
  let diff_rate = float_of_int r.O.r_blocks /. t_diff in
  Printf.printf "cases: %d generated, %d corpus block(s) replayed\n" n
    (List.length corpus);
  Printf.printf "reference interpreter: %8.0f blocks/s\n" (per t_interp);
  Printf.printf "dbt fast path (cold):  %8.0f blocks/s\n" (per t_dbt);
  Printf.printf
    "differential harness:  %8.0f blocks/s (ref + cold dbt + hot dbt per \
     case)\n"
    diff_rate;
  Printf.printf "divergences: %d\n" (List.length r.O.r_divergences);
  Bench_json.emit ~name:"oracle"
    [
      ("blocks", Bench_json.Int r.O.r_blocks);
      ("corpus_blocks", Bench_json.Int (List.length corpus));
      ("interp_blocks_per_s", Bench_json.Float (per t_interp, 0));
      ("dbt_blocks_per_s", Bench_json.Float (per t_dbt, 0));
      ("diff_blocks_per_s", Bench_json.Float (diff_rate, 0));
      ("divergences", Bench_json.Int (List.length r.O.r_divergences));
    ]

let experiments =
  [
    ("oracle", oracle);
    ("chaos", chaos);
    ("table4", table4);
    ("table5", table5);
    ("fig6", fig6);
    ("table6", table6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("ddt", ddt);
    ("profs-url", profs_url);
    ("profs-ping", profs_ping);
    ("overhead", overhead);
    ("pagesize", pagesize);
    ("ablate", ablate);
    ("parallel", parallel);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: (_ :: _ as rest) -> rest | _ -> [ "all" ]
  in
  let requested =
    if List.mem "all" args then List.map fst experiments else args
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s all\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested
