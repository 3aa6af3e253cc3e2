(* What the benchmark runs and what it reports: the workloads, the
   end-to-end metrics with their regression bounds, and the per-layer
   metrics. *)

type mode =
  | Serial
  | Merged  (** Serial with the merge controller in Auto mode *)
  | Procs of int  (** Coordinator.explore over this many forked workers *)

type check =
  | Cases of string
      (** emitted case lines against this expected file: the multiset the
          workload's serial run emits, to its bound or drained *)
  | Fingerprint of string
      (** no cases: paths, instructions, forks and statuses against this
          file *)

type workload = {
  name : string;
  why : string;
  program : Drive.program;
  mode : mode;
  cases : bool;  (** extract test cases (Parallel.test_cases) *)
  max_completed : int option;  (** stop after this many completed paths *)
  check : check;
  timed : bool;  (** false: a test-only workload, not benchmarked *)
}

let exerciser driver = Drive.program ~driver ~workload:"exerciser"
let urlparse = Drive.program ~driver:"nulldrv" ~workload:"urlparse"

(* Units are sized to about a second: the host's speed drifts by ~10%
   over tens of seconds, and a 20-second window of many short units gives
   a steadier median than a few long ones.  Bounded serial runs are
   deterministic (DFS) prefixes of the full drain. *)
let workloads =
  [
    {
      name = "solver-pcnet";
      why =
        "deepest path conditions; the SAT core takes most of exploration, \
         so solver changes show here";
      program = exerciser "pcnet";
      mode = Serial;
      cases = true;
      max_completed = Some 150;
      check = Cases "pcnet-exerciser.cases";
      timed = true;
    };
    {
      name = "exec-urlparse";
      why =
        "largest execute share, queries answered by the model cache, no \
         case extraction; retained states grow the heap with paths (Fig. 8)";
      program = urlparse;
      mode = Serial;
      cases = false;
      max_completed = Some 4000;
      check = Fingerprint "nulldrv-urlparse.fingerprint";
      timed = true;
    };
    {
      name = "cases-rtl8029";
      why =
        "case extraction dominates: many small cold check_model queries, \
         the opposite solver use from solver-pcnet";
      program = exerciser "rtl8029";
      mode = Serial;
      cases = true;
      max_completed = Some 500;
      check = Cases "rtl8029-exerciser.cases";
      timed = true;
    };
    {
      name = "merge-url2";
      why =
        "the only workload merging states: 7 merged paths expand back to \
         the 103 enumerated cases exactly";
      program = Drive.narrow_urlparse 2 urlparse;
      mode = Merged;
      cases = true;
      max_completed = None;
      check = Cases "nulldrv-urlparse2.cases";
      timed = true;
    };
    {
      name = "procs-url3";
      why =
        "the only workload crossing lib/dist: two forked workers explore \
         and solve cases, drained to the serial case count";
      program = Drive.narrow_urlparse 3 urlparse;
      mode = Procs 2;
      cases = true;
      max_completed = None;
      check = Cases "nulldrv-urlparse3.cases";
      timed = true;
    };
    {
      name = "symloop";
      why = "test-only smoke workload: 32 paths in well under a second";
      program = Drive.program ~driver:"nulldrv" ~workload:"symloop";
      mode = Serial;
      cases = true;
      max_completed = None;
      check = Cases "nulldrv-symloop.cases";
      timed = false;
    };
  ]

let benchmarked = List.filter (fun w -> w.timed) workloads
let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* ---------------- end-to-end metrics ---------------- *)

type better = Lower | Higher

type metric = {
  m_name : string;
  unit : string;
  better : better;
  bound_rel : float;  (** share of the parent's median *)
  bound_abs : float;  (** floor on the bound, for near-zero medians *)
  zero_ok : bool;
      (** the value is 0 on some workloads; such metrics stay in the
          table and the report but are not handed to a harness that
          needs every metric non-zero *)
}

let metric ?(bound_abs = 0.) ?(zero_ok = false) m_name unit better bound_rel =
  { m_name; unit; better; bound_rel; bound_abs; zero_ok }

(* Time bounds are 25%: ten 20-second runs on a two-core VM whose speed
   drifts with its host's load spread by up to ~20% of the median (see
   README.md, "Stability").  Heap peaks are deterministic to <1%.  One
   unit's set-up in a fresh process varies by ~3 ms around ~9 ms, hence
   its absolute floor. *)
let e2e_metrics =
  [
    metric "setup_s" "s" Lower 0.25 ~bound_abs:0.005;
    metric "total_s" "s" Lower 0.25 ~bound_abs:0.05;
    metric "explore_s" "s" Lower 0.25 ~bound_abs:0.05;
    metric "cases_s" "s" Lower 0.25 ~bound_abs:0.05 ~zero_ok:true;
    metric "insns_per_s" "insn/s" Higher 0.25;
    metric "peak_heap_mb" "MB" Lower 0.10 ~bound_abs:5.;
    (* any increase is a failure *)
    metric "failed_frac" "ratio" Lower 0. ~zero_ok:true;
  ]

let find_metric name = List.find_opt (fun m -> m.m_name = name) e2e_metrics

(* ---------------- per-layer metrics ---------------- *)

(* Grouped by the lib/ module (or runtime) each one measures; README.md
   maps every metric to the end-to-end metric it should move, and where. *)
type layer_metric = { l_name : string; l_unit : string; l_better : better }

let layer_metrics =
  List.map
    (fun (l_name, l_unit, l_better) -> { l_name; l_unit; l_better })
    [
      (* guest *)
      ("guest.build_s", "s", Lower);
      (* core/executor *)
      ("executor.create_s", "s", Lower);
      ("executor.execute_s", "s", Lower);
      ("executor.ns_per_insn", "ns", Lower);
      ("executor.fork_s", "s", Lower);
      ("executor.concretize_s", "s", Lower);
      ("executor.residual_s", "s", Lower);
      ("executor.forks", "count", Lower);
      ("executor.sym_insn_frac", "ratio", Lower);
      (* dbt *)
      ("dbt.translate_s", "s", Lower);
      ("dbt.tb_miss_rate", "ratio", Lower);
      ("dbt.invalidations", "count", Lower);
      (* core/searcher *)
      ("searcher.select_s", "s", Lower);
      ("searcher.add_s", "s", Lower);
      ("searcher.selects", "count", Lower);
      (* solver *)
      ("solver.explore_s", "s", Lower);
      ("solver.queries", "count", Lower);
      ("solver.sat_frac", "ratio", Lower);
      ("solver.cache_hit_rate", "ratio", Higher);
      ("solver.inc_reuse_rate", "ratio", Higher);
      ("solver.mean_us", "us", Lower);
      ("solver.p99_us", "us", Lower);
      ("solver.unknowns", "count", Lower);
      ("solver.max_constraints", "count", Lower);
      (* core/parallel *)
      ("cases.s", "s", Lower);
      ("cases.state_p50_ms", "ms", Lower);
      ("cases.state_p99_ms", "ms", Lower);
      ("cases.solver_s", "s", Lower);
      ("cases.queries", "count", Lower);
      ("cases.per_state", "count", Higher);
      (* merge *)
      ("merge.merges", "count", Higher);
      ("merge.rejected", "count", Lower);
      ("merge.carrier_aborts", "count", Lower);
      ("merge.lost_cases", "count", Lower);
      (* dist *)
      ("dist.worker_busy_frac", "ratio", Higher);
      ("dist.steals", "count", Lower);
      ("dist.requeues", "count", Lower);
      ("dist.retransmits", "count", Lower);
      (* ocaml runtime *)
      ("gc.alloc_gb", "GB", Lower);
      ("gc.major_collections", "count", Lower);
      (* core/executor *)
      ("mem.max_live_states", "count", Lower);
      ("mem.footprint_words", "words", Lower);
      (* bench *)
      ("trace.overhead_frac", "ratio", Lower);
    ]

let better_string = function Lower -> "lower" | Higher -> "higher"
