(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 6), plus the ablations called out in DESIGN.md.

   Usage:  dune exec bench/main.exe [-- experiment ...]
   Experiments: table4 table5 table6 fig6 fig7 fig8 fig9 ddt profs-url
   profs-ping overhead pagesize ablate parallel merge breakdown solver dist
   chaos expr oracle all (default: all).  The per-run budget can be scaled
   with S2E_BENCH_SECONDS (default 12). *)

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

(* Solver-heavy multi-path workload: every iteration branches on a
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
(* State merging: path reduction at identical case discovery          *)
(* ---------------------------------------------------------------- *)

(* The stock urlparse workload makes 8 input bytes symbolic, far too
   many for plain enumeration to drain (hundreds of thousands of paths)
   — and without the enumerated baseline there is no case set to compare
   the merged run against.  Narrow the symbolic window so both modes
   drain inside the budget while exercising the same parser code the
   merge controller collapses. *)
let merge_narrow_urlparse bytes =
  let src = S2e_guest.Workloads_src.urlparse in
  let wide = "__s2e_sym_mem(url + 8, 8, 1);" in
  let narrow = Printf.sprintf "__s2e_sym_mem(url + 8, %d, 1);" bytes in
  let wl = String.length wide in
  let rec find i =
    if i + wl > String.length src then failwith "urlparse pattern not found"
    else if String.sub src i wl = wide then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i ^ narrow
  ^ String.sub src (i + wl) (String.length src - i - wl)

let merge () =
  section "State merging: completed paths, merged vs enumerated";
  let run img name mode =
    let make_engine () =
      let config = Executor.default_config () in
      config.consistency <- Consistency.LC;
      let engine = Executor.create ~config () in
      Guest.load_into_engine engine img;
      Executor.set_unit engine [ "nulldrv"; name ];
      ignore (S2e_merge.Controller.install ~mode engine);
      engine
    in
    Parallel.explore ~jobs:1 ~make_engine
      ~boot:(fun eng -> Executor.boot eng ~entry:img.Guest.entry ())
      ()
  in
  let case_set (r : Parallel.result) =
    List.concat_map Parallel.test_cases r.Parallel.completed
    |> List.map Parallel.test_case_to_string
    |> List.sort compare
  in
  let fields =
    List.concat_map
      (fun (name, src) ->
        let img =
          Guest.build
            ~driver:("nulldrv", S2e_guest.Drivers_src.nulldrv)
            ~workload:(name, src) ()
        in
        let off = run img name S2e_merge.Policy.Off in
        let auto = run img name S2e_merge.Policy.Auto in
        let po = List.length off.Parallel.completed in
        let pa = List.length auto.Parallel.completed in
        let co = case_set off and ca = case_set auto in
        let equal = co = ca in
        let reduction = float_of_int po /. float_of_int (max 1 pa) in
        Printf.printf
          "%-10s off: %4d paths  auto: %3d paths  %5.1fx fewer  %4d cases %s\n"
          name po pa reduction (List.length co)
          (if equal then "identical" else "DIVERGED");
        [
          (name ^ "_paths_off", Bench_json.Int po);
          (name ^ "_paths_auto", Bench_json.Int pa);
          (name ^ "_reduction", Bench_json.Float (reduction, 1));
          (name ^ "_cases", Bench_json.Int (List.length co));
          (name ^ "_cases_equal", Bench_json.Bool equal);
        ])
      [
        ("urlparse", merge_narrow_urlparse 2);
        ("symloop", S2e_guest.Workloads_src.symloop);
      ]
  in
  Printf.printf
    "\nurlparse runs with a narrowed 2-byte symbolic window so the\n\
     enumerated baseline drains; the merged run must reproduce its case\n\
     set exactly while completing an order of magnitude fewer paths.\n";
  Bench_json.emit ~name:"merge" ~artifact:"merge" fields

(* ---------------------------------------------------------------- *)
(* Telemetry breakdown: Table-5-of-DBT-papers-style time accounting   *)
(* ---------------------------------------------------------------- *)

(* Where does a run's wall-clock go?  Replays the parallel workload
   serially with the lib/obs registry reset, then reads the phase spans'
   exclusive times out of the final snapshot.  The solver fraction is the
   number the paper's Fig. 9 tracks per consistency model. *)
let breakdown () =
  section "Telemetry: per-phase time breakdown of a multi-path run";
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
  Obs.Metrics.reset ();
  let t0 = Unix.gettimeofday () in
  let r =
    Parallel.explore ~jobs:1
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
  let wall = Unix.gettimeofday () -. t0 in
  let snap = Obs.Metrics.snapshot () in
  let phases =
    List.filter_map
      (fun (name, v) ->
        let n = String.length name in
        if
          n > 8
          && String.sub name 0 6 = "phase."
          && String.sub name (n - 2) 2 = "_s"
        then
          match v with
          | Obs.Metrics.Float s -> Some (String.sub name 6 (n - 8), s)
          | _ -> None
        else None)
      snap
  in
  let accounted = List.fold_left (fun a (_, s) -> a +. s) 0. phases in
  Printf.printf "%d paths in %.2fs wall (%.2fs accounted by phase spans)\n"
    r.stats.Executor.states_completed wall accounted;
  Printf.printf "%-12s %8s %8s\n" "phase" "self (s)" "share";
  List.iter
    (fun (name, s) ->
      Printf.printf "%-12s %8.3f %7.1f%%\n" name s
        (if accounted > 0. then 100. *. s /. accounted else 0.))
    (List.sort (fun (_, a) (_, b) -> compare b a) phases);
  let solver_s =
    try List.assoc "solver" phases with Not_found -> 0.
  in
  let instr = Obs.Metrics.get_int snap "engine.instructions" in
  (* Realized incremental reuse: the share of SAT-core queries answered
     on a live instance whose assumption stack matched part or all of the
     query's constraint prefix. *)
  let inc_reuse =
    let n = Obs.Metrics.get_int snap in
    if n "solver.sat_queries" > 0 then
      float_of_int (n "solver.inc_hits" + n "solver.inc_partials")
      /. float_of_int (n "solver.sat_queries")
    else 0.
  in
  Bench_json.emit ~name:"breakdown"
    [
      ("paths", Bench_json.Int r.stats.Executor.states_completed);
      ("wall_s", Bench_json.Float (wall, 3));
      ("accounted_s", Bench_json.Float (accounted, 3));
      ( "solver_frac",
        Bench_json.Float ((if accounted > 0. then solver_s /. accounted else 0.), 4) );
      ( "instr_per_sec",
        Bench_json.Float ((if wall > 0. then float_of_int instr /. wall else 0.), 0) );
      ("queries", Bench_json.Int (Obs.Metrics.get_int snap "solver.queries"));
      ( "tb_hit_rate",
        Bench_json.Float
          ( (let h = float_of_int (Obs.Metrics.get_int snap "dbt.tb_hits") in
             let m = float_of_int (Obs.Metrics.get_int snap "dbt.tb_misses") in
             if h +. m > 0. then h /. (h +. m) else 0.),
            4 ) );
      ("inc_reuse", Bench_json.Float (inc_reuse, 4));
    ];
  Printf.printf
    "\nThe solver share dominating a symbolic workload (and execute\n\
     dominating a concrete one) is the paper's Fig. 9 shape; phase spans\n\
     subtract nested time, so the shares sum to ~100%%.\n"

(* ---------------------------------------------------------------- *)
(* Solver: fresh vs incremental SAT core on the breakdown workload    *)
(* ---------------------------------------------------------------- *)

(* The incremental acceptance experiment: the same serial multi-path run
   once with per-query throwaway SAT instances (--solver=fresh) and once
   with the assumption-stack instance ring (--solver=incremental).  Both
   runs must complete the identical path set with byte-identical test
   cases; the headline number is the solver-wall ratio, backed by the
   realized reuse rate (queries that popped a live instance back to a
   shared prefix instead of rebuilding). *)
let solver_exp () =
  section "Solver: fresh vs incremental (assumption-stack clause reuse)";
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
  let run mode =
    Solver.set_default_mode mode;
    let before = Obs.Metrics.snapshot () in
    let t0 = Unix.gettimeofday () in
    let r =
      Parallel.explore ~jobs:1
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
    let wall = Unix.gettimeofday () -. t0 in
    (* The exploration's solver work, before case extraction adds its own. *)
    let d = since before in
    let cases =
      List.map Parallel.test_case r.completed |> List.sort compare
    in
    (r, wall, cases, Obs.Metrics.get_int d, Obs.Metrics.get_float d "solver.query_s")
  in
  let fresh, fresh_wall, fresh_cases, fn, fresh_s = run Solver.Fresh in
  let inc, inc_wall, inc_cases, n, inc_s = run Solver.Incremental in
  Solver.set_default_mode Solver.Incremental;
  let ratio = if fresh_s > 0. then inc_s /. fresh_s else 1. in
  let reuse_rate =
    if n "solver.sat_queries" > 0 then
      float_of_int (n "solver.inc_hits" + n "solver.inc_partials")
      /. float_of_int (n "solver.sat_queries")
    else 0.
  in
  let kept_rate =
    if n "solver.sat_learned" > 0 then
      float_of_int (n "solver.sat_kept") /. float_of_int (n "solver.sat_learned")
    else 0.
  in
  let cases_equal = fresh_cases = inc_cases in
  Printf.printf "%-14s %8s %10s %12s %8s\n" "mode" "paths" "wall (s)"
    "solver (s)" "queries";
  Printf.printf "%-14s %8d %10.2f %12.3f %8d\n" "fresh"
    fresh.Parallel.stats.Executor.states_completed fresh_wall fresh_s
    (fn "solver.queries");
  Printf.printf "%-14s %8d %10.2f %12.3f %8d\n" "incremental"
    inc.Parallel.stats.Executor.states_completed inc_wall inc_s
    (n "solver.queries");
  Printf.printf
    "solver wall ratio (inc/fresh): %.3f; reuse: %d full + %d partial of %d \
     SAT-core queries (%.1f%%)\n"
    ratio (n "solver.inc_hits") (n "solver.inc_partials")
    (n "solver.sat_queries") (100. *. reuse_rate);
  Printf.printf "learned clauses: %d learned, %d kept live (%.1f%%)\n"
    (n "solver.sat_learned") (n "solver.sat_kept") (100. *. kept_rate);
  if not cases_equal then
    Printf.printf "WARNING: incremental case set diverged from fresh\n";
  Bench_json.emit ~name:"solver" ~artifact:"solver"
    [
      ("paths", Bench_json.Int inc.Parallel.stats.Executor.states_completed);
      ("fresh_solver_s", Bench_json.Float (fresh_s, 3));
      ("inc_solver_s", Bench_json.Float (inc_s, 3));
      ("inc_over_fresh", Bench_json.Float (ratio, 3));
      ("reuse_rate", Bench_json.Float (reuse_rate, 4));
      ("inc_hits", Bench_json.Int (n "solver.inc_hits"));
      ("inc_partials", Bench_json.Int (n "solver.inc_partials"));
      ("learned", Bench_json.Int (n "solver.sat_learned"));
      ("learned_kept", Bench_json.Int (n "solver.sat_kept"));
      ("kept_rate", Bench_json.Float (kept_rate, 4));
      ("cases_equal", Bench_json.Bool cases_equal);
    ];
  Printf.printf
    "\nThe ratio is the tentpole number: feasibility siblings and case-tree\n\
     expansions land on live instances whose learned clauses carry over,\n\
     so the SAT core re-derives nothing it already proved on the shared\n\
     constraint prefix.\n"

(* ---------------------------------------------------------------- *)
(* Tracing overhead: the same multi-path run with and without the      *)
(* event tracer, checked byte-identical                                *)
(* ---------------------------------------------------------------- *)

let trace_overhead () =
  section "Tracing: event-tracer overhead on a multi-path run";
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
  (* One full serial drain of the fork tree; the run is deterministic, so
     the only difference between the two passes is the tracer. *)
  let run () =
    Obs.Metrics.reset ();
    Obs.Trace.reset ();
    let t0 = Unix.gettimeofday () in
    let r =
      Parallel.explore ~jobs:1
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
    let wall = Unix.gettimeofday () -. t0 in
    (* The paths-and-cases identity of the run, sorted: tracing must not
       change what was explored, byte for byte. *)
    let cases =
      List.sort compare
        (List.map
           (fun (s : State.t) ->
             State.report_string s ^ " | "
             ^ Parallel.test_case_to_string (Parallel.test_case s))
           r.completed)
    in
    (r.stats.Executor.states_completed, wall, cases)
  in
  Obs.Trace.set_enabled false;
  let base_paths, base_wall, base_cases = run () in
  Obs.Trace.set_enabled true;
  let traced_paths, traced_wall, traced_cases = run () in
  let events, dropped = Obs.Trace.drain () in
  Obs.Trace.set_enabled false;
  Obs.Trace.reset ();
  let overhead =
    if base_wall > 0. then (traced_wall -. base_wall) /. base_wall else 0.
  in
  let cases_equal = base_cases = traced_cases && base_paths = traced_paths in
  Printf.printf "untraced: %d paths in %.3fs\n" base_paths base_wall;
  Printf.printf "traced:   %d paths in %.3fs (%d events, %d dropped)\n"
    traced_paths traced_wall (List.length events) dropped;
  Printf.printf "overhead: %+.1f%%; path/case sets %s\n" (100. *. overhead)
    (if cases_equal then "identical" else "DIFFERENT (BUG)");
  Bench_json.emit ~name:"trace"
    [
      ("paths", Bench_json.Int traced_paths);
      ("base_wall_s", Bench_json.Float (base_wall, 3));
      ("traced_wall_s", Bench_json.Float (traced_wall, 3));
      ("overhead_frac", Bench_json.Float (overhead, 4));
      ("events", Bench_json.Int (List.length events));
      ("dropped", Bench_json.Int dropped);
      ("cases_equal", Bench_json.Bool cases_equal);
    ];
  Printf.printf
    "\nThe emit path is one array store into the domain's own ring, so\n\
     tracing stays within a few percent of the untraced run while the\n\
     exploration itself (paths and test cases) is unchanged.\n"

(* ---------------------------------------------------------------- *)
(* Distributed exploration: multi-process throughput                  *)
(* ---------------------------------------------------------------- *)

(* Same solver-heavy workload as the `parallel` experiment, distributed
   across worker processes instead of domains.  Runs with a fixed
   per-run wall budget and compares drained-path throughput.  Listed
   FIRST in [experiments]: Fork-mode workers must be spawned before any
   experiment has spun up OCaml domains. *)
let dist () =
  section "Distributed exploration: multi-process throughput";
  let module Coordinator = S2e_dist.Coordinator in
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
  let run procs =
    Coordinator.explore ~procs
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
  Printf.printf "per-run budget: %.1f s, workload: pbench (solver-heavy)\n"
    seconds;
  Printf.printf "%-8s %10s %8s %10s %8s %9s %10s\n" "procs" "wall (s)" "paths"
    "paths/s" "steals" "requeues" "speedup";
  let rate (r : Coordinator.result) =
    if r.wall_seconds > 0. then
      float_of_int r.stats.Executor.states_completed /. r.wall_seconds
    else 0.
  in
  let serial = run 1 in
  let report (r : Coordinator.result) =
    Printf.printf "%-8d %10.2f %8d %10.1f %8d %9d %9.2fx\n%!" r.procs
      r.wall_seconds r.stats.Executor.states_completed (rate r) r.steals
      r.requeues
      (if rate serial > 0. then rate r /. rate serial else 0.)
  in
  report serial;
  let results = List.map (fun procs -> let r = run procs in report r; r) [ 2; 4 ] in
  List.iter
    (fun (r : Coordinator.result) ->
      Bench_json.emit ~name:"dist_explore"
        [
          ("procs", Bench_json.Int r.procs);
          ("serial_paths_per_s", Bench_json.Float (rate serial, 3));
          ("paths_per_s", Bench_json.Float (rate r, 3));
          ( "speedup",
            Bench_json.Float
              ((if rate serial > 0. then rate r /. rate serial else 0.), 3) );
          ("paths", Bench_json.Int r.stats.Executor.states_completed);
          ("steals", Bench_json.Int r.steals);
          ("requeues", Bench_json.Int r.requeues);
          ("restarts", Bench_json.Int r.restarts);
          ("unexplored", Bench_json.Int r.unexplored);
        ])
    results;
  (* Remote-worker leg: the same workload with no owned workers and 2
     remote workers dialing a caller-owned listener, pricing the
     admission and lease machinery. *)
  let fork_tcp_worker ~port =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        for fd = 3 to 255 do
          try Unix.close (S2e_dist.Proto.fd_of_int fd)
          with Unix.Unix_error _ -> ()
        done;
        (try
           S2e_dist.Worker.serve_tcp ~jobs:1 ~slice:0.02 ~heartbeat:0.05
             ~host:"127.0.0.1" ~port ~make_engine ()
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  let lfd = S2e_dist.Proto.listen ~host:"127.0.0.1" ~port:0 in
  let port = S2e_dist.Proto.bound_port lfd in
  let pids = [ fork_tcp_worker ~port; fork_tcp_worker ~port ] in
  let rt =
    Coordinator.explore ~procs:0 ~listener:lfd
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
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    pids;
  Printf.printf
    "tcp x2   %10.2f %8d %10.1f %8d %9d %9.2fx\n%!" rt.wall_seconds
    rt.stats.Executor.states_completed (rate rt) rt.steals rt.requeues
    (if rate serial > 0. then rate rt /. rate serial else 0.);
  Printf.printf "tcp leg: %d joins, %d reconnects, %d solo paths\n%!"
    rt.Coordinator.joins rt.Coordinator.reconnects rt.Coordinator.solo_paths;
  Bench_json.emit ~name:"dist_explore"
    [
      ("procs", Bench_json.Int 0);
      ("tcp_workers", Bench_json.Int 2);
      ("serial_paths_per_s", Bench_json.Float (rate serial, 3));
      ("paths_per_s", Bench_json.Float (rate rt, 3));
      ( "speedup",
        Bench_json.Float
          ((if rate serial > 0. then rate rt /. rate serial else 0.), 3) );
      ("paths", Bench_json.Int rt.stats.Executor.states_completed);
      ("joins", Bench_json.Int rt.Coordinator.joins);
      ("reconnects", Bench_json.Int rt.Coordinator.reconnects);
      ("solo_paths", Bench_json.Int rt.Coordinator.solo_paths);
      ("unexplored", Bench_json.Int rt.unexplored);
    ];
  Printf.printf
    "\nEach worker process rebuilds the engine stack and decodes serialized\n\
     fork-point states; on a single core the processes time-slice and\n\
     throughput stays ~1x (this machine reports %d core(s)).\n"
    (Domain.recommended_domain_count ())

(* ---------------------------------------------------------------- *)
(* Chaos: resilience under an armed fault plan                        *)
(* ---------------------------------------------------------------- *)

(* The dist workload re-run with the fault injector armed at every
   boundary (guest hardware, solver, transport): what the chaos costs in
   drained-path throughput, and how fast the coordinator turns a crashed
   worker back into a working one.  Fork-mode like `dist`, so it is
   listed right after it, before any experiment spins up domains. *)
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
(* Expression interning: O(1) identity vs structural reference        *)
(* ---------------------------------------------------------------- *)

(* Microbenchmark of the hash-consing layer: equality, hash and
   independent-constraint slicing against reference implementations that
   recompute structurally — what every consumer paid before interning.
   Then an end-to-end serial run of the parallel workload to put the
   solver-side effect on record. *)
let expr_intern () =
  section "Expression interning: cached identity vs structural recomputation";
  (* Deterministic tree pool over a shared variable set; depth is high
     enough that tree walks dominate the reference timings, mirroring the
     address-arithmetic chains the DBT emits. *)
  let rng = Random.State.make [| 0x51E; 7; 2026 |] in
  let vars = Array.init 8 (fun i -> Expr.fresh_var (Printf.sprintf "b%d" i)) in
  let rec gen depth =
    if depth = 0 then
      if Random.State.bool rng then vars.(Random.State.int rng 8)
      else Expr.const (Random.State.int64 rng 1024L)
    else
      match Random.State.int rng 5 with
      | 0 -> Expr.add (gen (depth - 1)) (gen (depth - 1))
      | 1 -> Expr.bxor (gen (depth - 1)) (gen (depth - 1))
      | 2 -> Expr.band (gen (depth - 1)) (Expr.bor (gen (depth - 1)) (gen (depth - 1)))
      | 3 -> Expr.mul (gen (depth - 1)) (vars.(Random.State.int rng 8))
      | _ -> Expr.sub (gen (depth - 1)) (gen (depth - 1))
  in
  let pool = Array.init 64 (fun _ -> gen 8) in
  (* A second generation from the same seed: structurally identical trees,
     which interning makes physically identical. *)
  let rng2 = Random.State.make [| 0x51E; 7; 2026 |] in
  let vars2 = vars in
  let rec gen2 depth =
    if depth = 0 then
      if Random.State.bool rng2 then vars2.(Random.State.int rng2 8)
      else Expr.const (Random.State.int64 rng2 1024L)
    else
      match Random.State.int rng2 5 with
      | 0 -> Expr.add (gen2 (depth - 1)) (gen2 (depth - 1))
      | 1 -> Expr.bxor (gen2 (depth - 1)) (gen2 (depth - 1))
      | 2 -> Expr.band (gen2 (depth - 1)) (Expr.bor (gen2 (depth - 1)) (gen2 (depth - 1)))
      | 3 -> Expr.mul (gen2 (depth - 1)) (vars2.(Random.State.int rng2 8))
      | _ -> Expr.sub (gen2 (depth - 1)) (gen2 (depth - 1))
  in
  let pool2 = Array.init 64 (fun _ -> gen2 8) in
  (* Reference implementations: what the pre-interning representation
     computed on every use. *)
  let rec ref_equal (a : Expr.t) (b : Expr.t) =
    match a, b with
    | Const a, Const b -> a.value = b.value && a.width = b.width
    | Var a, Var b -> a.id = b.id
    | Unop a, Unop b -> a.op = b.op && ref_equal a.arg b.arg
    | Binop a, Binop b ->
        a.op = b.op && ref_equal a.lhs b.lhs && ref_equal a.rhs b.rhs
    | Cmp a, Cmp b -> a.op = b.op && ref_equal a.lhs b.lhs && ref_equal a.rhs b.rhs
    | Ite a, Ite b ->
        ref_equal a.cond b.cond && ref_equal a.then_ b.then_
        && ref_equal a.else_ b.else_
    | Extract a, Extract b -> a.hi = b.hi && a.lo = b.lo && ref_equal a.arg b.arg
    | Concat a, Concat b -> ref_equal a.high b.high && ref_equal a.low b.low
    | Zext a, Zext b -> a.width = b.width && ref_equal a.arg b.arg
    | Sext a, Sext b -> a.width = b.width && ref_equal a.arg b.arg
    | _, _ -> false
  in
  let ref_vars e =
    Expr.fold_vars (fun acc id _ _ -> Expr.Int_set.add id acc) Expr.Int_set.empty e
  in
  let ref_slice ~seed_vars constraints =
    let remaining = ref (List.map (fun c -> (c, ref_vars c)) constraints) in
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
  in
  (* Per-op timing with adaptive repetition (cheap ops need millions of
     iterations for a stable clock read). *)
  let per_op f =
    let rec go reps =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do f () done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < 0.2 && reps < 50_000_000 then go (reps * 4) else dt /. float_of_int reps
    in
    ignore (go 64);
    go 256
  in
  let n = Array.length pool in
  let idx = ref 0 in
  let next () = let i = !idx in idx := (i + 1) mod n; i in
  let sink = ref false and isink = ref 0 in
  let t_equal_cached =
    per_op (fun () -> let i = next () in sink := Expr.equal pool.(i) pool2.(i))
  in
  let t_equal_ref =
    per_op (fun () -> let i = next () in sink := ref_equal pool.(i) pool2.(i))
  in
  let t_hash_cached = per_op (fun () -> isink := Expr.hash pool.(next ())) in
  let t_hash_ref = per_op (fun () -> isink := Hashtbl.hash pool.(next ())) in
  (* Slicing: chained constraints (each shares a variable with the next)
     so the transitive closure does real work. *)
  let constraints =
    List.init 48 (fun i ->
        Expr.ult
          (Expr.add pool.(i mod n) vars.(i mod 8))
          (Expr.add pool.((i + 1) mod n) vars.((i + 1) mod 8)))
  in
  let seed_vars = Expr.vars pool.(0) in
  let lsink = ref [] in
  let t_slice_cached =
    per_op (fun () -> lsink := Solver.slice ~seed_vars constraints)
  in
  let t_slice_ref =
    per_op (fun () -> lsink := ref_slice ~seed_vars constraints)
  in
  ignore !sink; ignore !isink; ignore !lsink;
  let safe_div a b = if b > 0. then a /. b else 0. in
  let s_equal = safe_div t_equal_ref t_equal_cached in
  let s_hash = safe_div t_hash_ref t_hash_cached in
  let s_slice = safe_div t_slice_ref t_slice_cached in
  Printf.printf "%-10s %14s %14s %9s\n" "op" "interned (ns)" "reference (ns)"
    "speedup";
  let row name c r s =
    Printf.printf "%-10s %14.1f %14.1f %8.1fx\n" name (c *. 1e9) (r *. 1e9) s
  in
  row "equal" t_equal_cached t_equal_ref s_equal;
  row "hash" t_hash_cached t_hash_ref s_hash;
  row "slice" t_slice_cached t_slice_ref s_slice;
  (* End-to-end: the breakdown workload run serially; solver time is where
     identity-keyed caches and O(1) slicing land. *)
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
  let before = Obs.Metrics.snapshot () in
  let t0 = Unix.gettimeofday () in
  let r =
    Parallel.explore ~jobs:1
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
  let wall = Unix.gettimeofday () -. t0 in
  let d = since before in
  let solver_s = Obs.Metrics.get_float d "solver.query_s" in
  let queries = Obs.Metrics.get_int d "solver.queries" in
  Printf.printf
    "end-to-end (serial pbench): %d paths, %.2fs wall, %.2fs solver, %d queries\n"
    r.stats.Executor.states_completed wall solver_s queries;
  Bench_json.emit ~name:"expr_intern" ~artifact:"expr"
    [
      ("equal_speedup", Bench_json.Float (s_equal, 2));
      ("hash_speedup", Bench_json.Float (s_hash, 2));
      ("slice_speedup", Bench_json.Float (s_slice, 2));
      ("equal_ns", Bench_json.Float (t_equal_cached *. 1e9, 1));
      ("hash_ns", Bench_json.Float (t_hash_cached *. 1e9, 1));
      ("slice_ns", Bench_json.Float (t_slice_cached *. 1e9, 1));
      ("e2e_paths", Bench_json.Int r.stats.Executor.states_completed);
      ("e2e_wall_s", Bench_json.Float (wall, 3));
      ("e2e_solver_s", Bench_json.Float (solver_s, 3));
      ("e2e_queries", Bench_json.Int queries);
    ];
  Printf.printf
    "\nInterned equality is a pointer comparison and slicing reads the\n\
     per-node cached variable sets, so both are independent of tree\n\
     depth; the reference columns walk the structure the way the\n\
     pre-interning representation had to on every query.\n"

(* ---------------------------------------------------------------- *)
(* Executable ISA oracle: differential-testing throughput            *)
(* ---------------------------------------------------------------- *)

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
    ("expr", expr_intern);
    ("oracle", oracle);
    ("dist", dist);
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
    ("merge", merge);
    ("breakdown", breakdown);
    ("solver", solver_exp);
    ("trace", trace_overhead);
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
