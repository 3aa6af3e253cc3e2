(* Command-line front end for the platform: run guest stacks concretely,
   hunt driver bugs (DDT+), reverse engineer drivers (REV+), profile
   workloads (PROFS) and compare consistency models.

   dune exec bin/s2e_cli.exe -- <command> --help *)

open Cmdliner
open S2e_tools
module Guest = S2e_guest.Guest
module Obs = S2e_obs
module Fault = S2e_fault.Fault

let driver_arg =
  let names = List.map fst Guest.drivers in
  let doc =
    Printf.sprintf "Driver to analyze: one of %s." (String.concat ", " names)
  in
  Arg.(value & opt string "pcnet" & info [ "driver" ] ~docv:"NAME" ~doc)

let model_arg =
  let doc = "Execution consistency model: SC-CE, SC-UE, SC-SE, LC, RC-OC or RC-CC." in
  Arg.(value & opt string "LC" & info [ "model" ] ~docv:"MODEL" ~doc)

let seconds_arg =
  let doc = "Wall-clock exploration budget in seconds." in
  Arg.(value & opt float 20.0 & info [ "seconds" ] ~docv:"S" ~doc)

let check_driver name =
  if not (List.mem_assoc name Guest.drivers) then begin
    Fmt.epr "unknown driver %S (have: %s)@." name
      (String.concat ", " (List.map fst Guest.drivers));
    exit 2
  end

(* --- run: boot a guest stack concretely on the reference VM --- *)

let run_cmd =
  let workload_arg =
    let doc = "Workload: exerciser, urlparse, ping, ping-buggy or mua." in
    Arg.(value & opt string "exerciser" & info [ "workload" ] ~docv:"W" ~doc)
  in
  let run driver workload =
    check_driver driver;
    let wl =
      match workload with
      | "exerciser" -> ("exerciser", S2e_guest.Workloads_src.exerciser)
      | "urlparse" -> ("urlparse", S2e_guest.Workloads_src.urlparse)
      | "ping" -> ("ping", S2e_guest.Workloads_src.ping ~buggy:false)
      | "ping-buggy" -> ("ping", S2e_guest.Workloads_src.ping ~buggy:true)
      | "mua" -> ("mua", S2e_guest.Workloads_src.mua)
      | w ->
          Fmt.epr "unknown workload %S@." w;
          exit 2
    in
    let img = Guest.build ~driver:(driver, List.assoc driver Guest.drivers) ~workload:wl () in
    let m = S2e_vm.Machine.create () in
    Guest.load_into_machine m img;
    ignore (S2e_vm.Netdev.inject_frame m.devices.netdev (Array.init 28 (fun i -> i)));
    let status = S2e_vm.Machine.run m in
    Fmt.pr "status: %s@."
      (match status with
      | S2e_vm.Machine.Halted -> "halted"
      | S2e_vm.Machine.Faulted f -> "faulted: " ^ f
      | S2e_vm.Machine.Running -> "still running (out of fuel)");
    Fmt.pr "instructions: %d@." m.instret;
    Fmt.pr "result: 0x%x@." (S2e_vm.Machine.read32 m Guest.result_addr);
    let out = S2e_vm.Machine.console_output m in
    if out <> "" then Fmt.pr "console: %s@." out
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Boot a guest stack concretely on the reference VM")
    Term.(const run $ driver_arg $ workload_arg)

(* --- ddt --- *)

let ddt_cmd =
  let run driver model seconds =
    check_driver driver;
    let consistency = S2e_core.Consistency.of_name model in
    let r = Ddt.run ~max_seconds:seconds ~driver ~consistency () in
    Fmt.pr "%a" Ddt.pp_result r
  in
  Cmd.v
    (Cmd.info "ddt" ~doc:"Test a driver for bugs (DDT+, paper section 6.1.1)")
    Term.(const run $ driver_arg $ model_arg $ seconds_arg)

(* --- rev --- *)

let rev_cmd =
  let listing_arg =
    let doc = "Print the synthesized driver listing." in
    Arg.(value & flag & info [ "listing" ] ~doc)
  in
  let baseline_arg =
    let doc = "Use the RevNIC-style baseline configuration." in
    Arg.(value & flag & info [ "baseline" ] ~doc)
  in
  let run driver seconds listing baseline =
    check_driver driver;
    let mode = if baseline then `Revnic_baseline else `Rev_plus in
    let r = Rev.run ~max_seconds:seconds ~mode ~driver () in
    Fmt.pr "coverage: %d/%d instructions (%.1f%%), %d blocks recovered@."
      r.covered_insns r.total_insns (100. *. r.coverage)
      (List.length r.cfg.blocks);
    if listing then print_string (Rev.synthesize r.cfg)
  in
  Cmd.v
    (Cmd.info "rev"
       ~doc:"Reverse engineer a driver binary (REV+, paper section 6.1.2)")
    Term.(const run $ driver_arg $ seconds_arg $ listing_arg $ baseline_arg)

(* --- profs --- *)

let profs_cmd =
  let workload_arg =
    let doc = "Workload to profile: urlparse, ping or ping-buggy." in
    Arg.(value & opt string "urlparse" & info [ "workload" ] ~docv:"W" ~doc)
  in
  let run workload seconds =
    let wl, frames, driver =
      let reply = Array.make 28 0 in
      reply.(0) <- 0x45;
      match workload with
      | "urlparse" ->
          ( ("urlparse", S2e_guest.Workloads_src.urlparse),
            [],
            ("nulldrv", S2e_guest.Drivers_src.nulldrv) )
      | "ping" ->
          ( ("ping", S2e_guest.Workloads_src.ping ~buggy:false),
            [ reply ],
            ("pcnet", List.assoc "pcnet" Guest.drivers) )
      | "ping-buggy" ->
          ( ("ping", S2e_guest.Workloads_src.ping ~buggy:true),
            [ reply ],
            ("pcnet", List.assoc "pcnet" Guest.drivers) )
      | w ->
          Fmt.epr "unknown workload %S@." w;
          exit 2
    in
    let r = Profs.run ~max_seconds:seconds ~driver ~frames ~workload:wl () in
    Fmt.pr "%d paths (%d completed), %d killed%s@." (List.length r.paths)
      (List.length (Profs.completed r))
      r.killed_paths
      (if r.unbounded then ", INFINITE LOOP DETECTED" else "");
    (match Profs.envelope r with
    | Some (lo, hi) -> Fmt.pr "instruction envelope: [%d, %d]@." lo hi
    | None -> ());
    List.iteri
      (fun i p ->
        if i < 12 then
          Fmt.pr "  path %4d: %6d instrs, %4d L1 misses, %3d TLB, %2d faults (%s)@."
            p.Profs.p_id p.p_instructions
            (p.p_i1_misses + p.p_d1_misses)
            p.p_tlb_misses p.p_page_faults p.p_status)
      r.paths
  in
  Cmd.v
    (Cmd.info "profs"
       ~doc:"Multi-path performance profiling (PROFS, paper section 6.1.3)")
    Term.(const run $ workload_arg $ seconds_arg)

(* --- explore: (parallel / distributed) multi-path exploration --- *)

(* Engine specification shared by `explore` (coordinator side) and the
   internal `worker` entry point: both must build bit-identical engines
   or state snapshots would not decode (the codec pins the base-image
   fingerprint). *)

let workload_names =
  [ "exerciser"; "urlparse"; "ping"; "ping-buggy"; "mua"; "symloop" ]

let workload_src = function
  | "exerciser" -> Some ("exerciser", S2e_guest.Workloads_src.exerciser)
  | "urlparse" -> Some ("urlparse", S2e_guest.Workloads_src.urlparse)
  | "ping" -> Some ("ping", S2e_guest.Workloads_src.ping ~buggy:false)
  | "ping-buggy" -> Some ("ping", S2e_guest.Workloads_src.ping ~buggy:true)
  | "mua" -> Some ("mua", S2e_guest.Workloads_src.mua)
  | "symloop" -> Some ("symloop", S2e_guest.Workloads_src.symloop)
  | _ -> None

(* Validate every exploration argument before any engine setup starts,
   with one consistent error shape: `s2e <cmd>: <problem>` to stderr,
   exit code 2. *)
let validate_explore_args ~cmd ~driver ~workload ~model ~searcher ~merge ~jobs
    ~procs ~seconds ~stats_interval =
  let fail msg =
    Fmt.epr "s2e %s: %s@." cmd msg;
    exit 2
  in
  if driver <> "nulldrv" && not (List.mem_assoc driver Guest.drivers) then
    fail
      (Printf.sprintf "unknown driver %S (have: nulldrv, %s)" driver
         (String.concat ", " (List.map fst Guest.drivers)));
  if workload_src workload = None then
    fail
      (Printf.sprintf "unknown workload %S (have: %s)" workload
         (String.concat ", " workload_names));
  (match S2e_core.Consistency.of_name model with
  | _ -> ()
  | exception Invalid_argument msg -> fail msg);
  (match S2e_core.Searcher.of_name searcher with
  | _ -> ()
  | exception Invalid_argument msg -> fail msg);
  (match S2e_merge.Policy.mode_of_string merge with
  | Ok _ -> ()
  | Error msg -> fail msg);
  if jobs < 1 then fail (Printf.sprintf "--jobs must be >= 1 (got %d)" jobs);
  if procs < 1 then fail (Printf.sprintf "--procs must be >= 1 (got %d)" procs);
  if seconds <= 0. then
    fail (Printf.sprintf "--seconds must be > 0 (got %g)" seconds);
  if stats_interval <= 0. then
    fail
      (Printf.sprintf "--stats-interval must be > 0 (got %g)" stats_interval)

(* Image + engine factory for a validated (driver, workload, model,
   searcher) spec.  The image is built once, outside the closure. *)
let engine_factory ~driver ~workload ~model ~searcher ~merge =
  let open S2e_core in
  let driver_src =
    if driver = "nulldrv" then S2e_guest.Drivers_src.nulldrv
    else List.assoc driver Guest.drivers
  in
  let wl = Option.get (workload_src workload) in
  let consistency = Consistency.of_name model in
  let img = Guest.build ~driver:(driver, driver_src) ~workload:wl () in
  let netdev_ports =
    (S2e_vm.Layout.port_netdev, S2e_vm.Layout.port_netdev + 16)
  in
  let merge_mode =
    match S2e_merge.Policy.mode_of_string merge with
    | Ok m -> m
    | Error msg -> invalid_arg msg
  in
  let make_engine () =
    let config = Executor.default_config () in
    config.consistency <- consistency;
    config.symbolic_hardware_ports <- [ netdev_ports ];
    let engine = Executor.create ~config () in
    engine.Executor.searcher <- Searcher.of_name searcher;
    Guest.load_into_engine engine img;
    Executor.set_unit engine [ driver; fst wl ];
    (* After the searcher: the controller wraps whatever is installed. *)
    ignore (S2e_merge.Controller.install ~mode:merge_mode engine);
    engine
  in
  (img, make_engine)

(* One "kind":"final" JSONL line from an already-merged snapshot (the
   distributed path: worker registries arrive as Bye snapshots, not as
   local shards, so the periodic reporter cannot see them). *)
let write_merged_stats path snap ~elapsed =
  let open Obs in
  let line =
    Jsonl.Obj
      ([ ("kind", Jsonl.Str "final"); ("elapsed_s", Jsonl.Num elapsed) ]
      @ Reporter.snapshot_fields snap)
  in
  let oc = open_out path in
  output_string oc (Jsonl.to_string line);
  output_char oc '\n';
  close_out oc

(* Resilience knobs, shared by `explore` and the internal `worker` entry
   point (the coordinator forwards them verbatim so every process in a
   distributed run injects from the same declarative plan). *)

let fault_plan_arg =
  let doc =
    "Deterministic fault-injection plan: comma-separated \
     $(i,site)=$(i,kind):$(i,prob)[#$(i,cap)] rules, e.g. \
     'dev.read=err:0.05,dma=drop:0.01,solver=unknown:0.02,\
     proto=corrupt:0.03'.  Sites: dev.read, dma, irq, solver (kinds \
     unknown/latency), proto (kinds corrupt/delay/disconnect/stall).  \
     A corrupted frame reads as a disconnect: the connection drops and \
     the worker, owned or remote, rejoins.  Empty disables injection."
  in
  Arg.(value & opt string "" & info [ "fault-plan" ] ~docv:"PLAN" ~doc)

let fault_seed_arg =
  let doc =
    "Seed for the fault plan's per-site deterministic streams: the same \
     plan + seed fires the same faults at the same injection-site draws."
  in
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N" ~doc)

let solver_timeout_arg =
  let doc =
    "Wall-clock watchdog per SAT-core call, in milliseconds; a query \
     past it returns Unknown and the engine degrades the fork \
     (follow-the-concrete, path marked incomplete).  0 disables the \
     watchdog."
  in
  Arg.(value & opt float 0. & info [ "solver-timeout-ms" ] ~docv:"MS" ~doc)

let solver_mode_arg =
  let doc =
    "SAT-core strategy for branch-feasibility queries: \
     $(b,incremental) (default — a ring of live SAT instances keyed on \
     constraint-prefix hashes; a query matching a live instance pops to \
     the common ancestor and asserts only the suffix, reusing encodings \
     and learned clauses), or $(b,fresh) (one cold instance per query; \
     the escape hatch and differential baseline).  Test-case models are \
     always solved cold, so case sets are identical across modes."
  in
  Arg.(value & opt string "incremental" & info [ "solver" ] ~docv:"MODE" ~doc)

(* Validate and arm the resilience knobs; exits 2 on a malformed plan. *)
let setup_resilience ~cmd ?(solver_mode = "incremental") ~fault_plan
    ~fault_seed ~solver_timeout_ms () =
  (match S2e_solver.Solver.mode_of_string solver_mode with
  | Some m -> S2e_solver.Solver.set_default_mode m
  | None ->
      Fmt.epr "s2e %s: --solver must be incremental or fresh (got %S)@." cmd
        solver_mode;
      exit 2);
  if solver_timeout_ms < 0. then begin
    Fmt.epr "s2e %s: --solver-timeout-ms must be >= 0 (got %g)@." cmd
      solver_timeout_ms;
    exit 2
  end;
  if solver_timeout_ms > 0. then
    S2e_solver.Solver.set_default_timeout_ms (Some solver_timeout_ms);
  if fault_plan <> "" then
    match Fault.parse_plan fault_plan with
    | Ok plan -> Fault.install ~seed:fault_seed plan
    | Error msg ->
        Fmt.epr "s2e %s: bad --fault-plan: %s@." cmd msg;
        exit 2

(* "HOST:PORT" (split on the last ':' so a future bracketed v6 literal
   stays parseable); exits 2 on malformed input. *)
let parse_hostport ~cmd s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 ->
          ((if host = "" then "127.0.0.1" else host), p)
      | _ ->
          Fmt.epr "s2e %s: bad port in %S@." cmd s;
          exit 2)
  | None ->
      Fmt.epr "s2e %s: expected HOST:PORT, got %S@." cmd s;
      exit 2

(* The engine and solver lines of every run surface, read from one
   registry snapshot: the `explore`/`serve` summary and `stats FILE`
   print them through these two functions, and bin/ci.sh parses them. *)
let print_engine_lines obs =
  let n = Obs.Metrics.get_int obs in
  Fmt.pr "paths completed: %d@." (n "engine.states_completed");
  Fmt.pr "states created: %d@." (n "engine.states_created");
  Fmt.pr "forks: %d@." (n "engine.forks");
  Fmt.pr "instructions: %d (%d symbolic)@." (n "engine.instructions")
    (n "engine.sym_instructions");
  Fmt.pr
    "engine: %d aborted, %d live (max %d), %d concretizations, max \
     constraint set %d, %d steals, %d donations, %.1f MB top heap@."
    (n "engine.aborts") (n "engine.live_states") (n "engine.max_live_states")
    (n "engine.concretizations") (n "engine.max_constraint_set")
    (n "parallel.steals") (n "parallel.donations")
    (float_of_int (n "gc.top_heap_words" * (Sys.word_size / 8)) /. 1e6)

let print_solver_lines obs =
  let n = Obs.Metrics.get_int obs in
  Fmt.pr
    "solver: %d queries, %d to SAT core, %d cache hits, %d unknowns, %.2fs@."
    (n "solver.queries") (n "solver.sat_queries") (n "solver.cache_hits")
    (n "solver.unknowns")
    (Obs.Metrics.get_float obs "solver.query_s");
  if n "solver.sat_queries" > 0 then begin
    Fmt.pr "sat search: %d decisions, %d conflicts@." (n "solver.decisions")
      (n "solver.conflicts");
    Fmt.pr "cnf: %d variables, %d clauses@." (n "solver.sat_vars")
      (n "solver.sat_clauses")
  end;
  if n "solver.inc_hits" + n "solver.inc_partials" > 0 then
    Fmt.pr
      "incremental: %d full prefix hits, %d partial, %d clauses learned \
       (%d kept live), %d frames pushed, %d instances created, %d \
       propagations@."
      (n "solver.inc_hits") (n "solver.inc_partials") (n "solver.sat_learned")
      (n "solver.sat_kept") (n "solver.inc_frames") (n "solver.inc_instances")
      (n "solver.inc_propagations");
  (* Printed only when something actually happened (timeouts,
     degradations, injected faults at any fault.* site), so fault-free
     runs keep their exact historical output. *)
  let injected =
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | Obs.Metrics.Int k when String.starts_with ~prefix:"fault." name ->
            acc + k
        | _ -> acc)
      0 obs
  in
  let degradations = n "engine.degradations"
  and incomplete = n "engine.incomplete_paths"
  and unknowns = n "solver.unknowns"
  and timeouts = n "solver.timeouts" in
  if degradations + incomplete + unknowns + timeouts + injected > 0 then
    Fmt.pr
      "resilience: %d degradations, %d incomplete paths, %d solver unknowns \
       (%d timeouts), %d injected faults@."
      degradations incomplete unknowns timeouts injected

(* The run summary of `explore` (any --procs) and `serve`, every count
   read from [obs], a registry snapshot of exactly this run: a delta
   around it in-process, the merged registries of every process in a
   distributed run.  [sched] are the execution mode's scheduling lines;
   [cases] the case lines, printed sorted. *)
let print_summary ~procs ~jobs ~wall ~sched ~cases obs =
  Fmt.pr "procs: %d@." procs;
  Fmt.pr "jobs: %d@." jobs;
  Fmt.pr "wall seconds: %.2f@." wall;
  print_engine_lines obs;
  List.iter (Fmt.pr "%s@.") sched;
  print_solver_lines obs;
  List.iter (Fmt.pr "%s@.") (List.sort compare cases)

(* A distributed run's summary, shared by `explore --procs` and `serve`.
   The cluster line appears only when remote workers or solo mode were
   involved. *)
let print_dist_result ~jobs ~cases (r : S2e_dist.Coordinator.result) =
  let sched =
    Printf.sprintf "steals: %d, requeues: %d, restarts: %d" r.steals
      r.requeues r.restarts
    :: (if r.joins + r.reconnects + r.leaves + r.solo_paths > 0 then
          [
            Printf.sprintf "cluster: %d joins, %d reconnects, %d leaves, %d \
                            solo paths"
              r.joins r.reconnects r.leaves r.solo_paths;
          ]
        else [])
    @ (if r.unexplored > 0 then
         [ Printf.sprintf "unexplored states: %d" r.unexplored ]
       else [])
    @ List.map
        (fun (id, attempts) ->
          Printf.sprintf "abandoned item %d after %d attempts" id attempts)
        r.abandoned
  in
  let cases =
    if cases then
      List.map
        (fun (p : S2e_dist.Proto.path) ->
          Printf.sprintf "%s | %s" p.p_status
            (S2e_core.Parallel.test_case_to_string p.p_case))
        r.paths
    else []
  in
  print_summary ~procs:r.procs ~jobs ~wall:r.wall_seconds ~sched ~cases r.obs

(* The argv an exec'd worker process is spawned with: rebuilds the same
   engine spec and resilience plan from scratch (exec'd workers don't
   inherit memory). *)
let worker_argv ~driver ~workload ~model ~searcher ~merge ~jobs ~fault_plan
    ~fault_seed ~solver_timeout_ms ~solver_mode ~trace =
  Array.of_list
    ([
       Sys.executable_name;
       "worker";
       "--driver";
       driver;
       "--workload";
       workload;
       "--model";
       model;
       "--searcher";
       searcher;
       "--merge";
       merge;
       "--jobs";
       string_of_int jobs;
       "--fault-plan";
       fault_plan;
       "--fault-seed";
       string_of_int fault_seed;
       "--solver-timeout-ms";
       string_of_float solver_timeout_ms;
       "--solver";
       solver_mode;
     ]
    @ if trace then [ "--trace" ] else [])

let jobs_arg =
  let doc =
    "Parallel exploration workers (OCaml domains) per process.  Each worker \
     owns a private searcher and solver context; 1 reproduces the serial \
     engine bit-for-bit, N>1 explores the same path set in parallel."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let explore_workload_arg =
  let doc =
    Printf.sprintf "Workload: one of %s." (String.concat ", " workload_names)
  in
  Arg.(value & opt string "exerciser" & info [ "workload" ] ~docv:"W" ~doc)

let merge_arg =
  let doc =
    "State merging at post-dominator merge points: $(b,off) (plain \
     enumeration, the default), $(b,auto) (ite-join sibling states when \
     the predicted expression blow-up fits the node budget), or \
     $(b,always) (join unconditionally).  Merging trades path count for \
     expression size; unmergeable pairs (pending DMA, differing device or \
     interrupt state) always fall back to enumeration.  Note that merging \
     rendezvouses sibling states on their home worker, so it serializes \
     some of the parallelism --jobs buys."
  in
  Arg.(value & opt string "off" & info [ "merge" ] ~docv:"MODE" ~doc)

let searcher_arg =
  let doc =
    Printf.sprintf "Path selector per worker: one of %s."
      (String.concat ", " S2e_core.Searcher.selector_names)
  in
  Arg.(value & opt string "dfs" & info [ "searcher" ] ~docv:"SEL" ~doc)

let explore_cmd =
  let open S2e_core in
  let procs_arg =
    let doc =
      "Distribute exploration across $(docv) worker processes, spawned as \
       $(b,s2e_cli worker) children that join the coordinator over a \
       loopback TCP listener.  Composes with --jobs: each process runs \
       that many domains.  1 keeps everything in-process."
    in
    Arg.(value & opt int 1 & info [ "procs" ] ~docv:"N" ~doc)
  in
  let cases_arg =
    let doc =
      "Print one line per completed path (sorted): status plus the \
       canonical test case.  Identical across --jobs and --procs values by \
       construction; diff two runs to verify."
    in
    Arg.(value & flag & info [ "cases" ] ~doc)
  in
  let stats_out_arg =
    let doc =
      "Stream run statistics to $(docv) as JSONL: one snapshot object per \
       line, ['kind':'periodic'] while exploring plus an exact \
       ['kind':'final'] line after all workers join (with --procs > 1, only \
       the merged final line is written).  Render with the $(b,stats) \
       subcommand."
    in
    Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE" ~doc)
  in
  let stats_interval_arg =
    let doc = "Seconds between periodic snapshots (with $(b,--stats-out))." in
    Arg.(value & opt float 0.5 & info [ "stats-interval" ] ~docv:"SEC" ~doc)
  in
  let trace_out_arg =
    let doc =
      "Record a low-overhead event trace (path lifecycle, solver queries \
       with constraint-prefix attribution, phases, faults, transport \
       frames) to $(docv) as Chrome trace_event JSON — load it in \
       Perfetto/chrome://tracing, or render it with the $(b,trace) \
       subcommand.  With --procs > 1, worker timelines are shipped over \
       heartbeats and merged onto the coordinator's clock.  The ring \
       buffer is bounded: oldest events are dropped first (the file \
       records how many)."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let run driver workload model jobs procs seconds searcher merge cases
      stats_out stats_interval trace_out fault_plan fault_seed
      solver_timeout_ms solver_mode =
    validate_explore_args ~cmd:"explore" ~driver ~workload ~model ~searcher
      ~merge ~jobs ~procs ~seconds ~stats_interval;
    setup_resilience ~cmd:"explore" ~solver_mode ~fault_plan ~fault_seed
      ~solver_timeout_ms ();
    if trace_out <> None then begin
      Obs.Trace.set_enabled true;
      Obs.Trace.reset ()
    end;
    let write_trace path events ~dropped =
      let oc = open_out path in
      Obs.Trace.write_json oc ~dropped events;
      close_out oc;
      Fmt.pr "trace: %d events -> %s%s@." (List.length events) path
        (if dropped > 0 then Printf.sprintf " (%d dropped)" dropped else "")
    in
    let img, make_engine =
      engine_factory ~driver ~workload ~model ~searcher ~merge
    in
    let limits =
      {
        Executor.max_instructions = None;
        max_seconds = Some seconds;
        max_completed = None;
      }
    in
    let boot eng = Executor.boot eng ~entry:img.entry () in
    if procs = 1 then begin
      let run_explore () = Parallel.explore ~jobs ~limits ~make_engine ~boot () in
      (* With --stats-out, zero the registry so the final JSONL line holds
         exactly this run's totals (the registry is process-wide). *)
      if stats_out <> None then Obs.Metrics.reset ();
      let before = Obs.Metrics.snapshot () in
      let r =
        match stats_out with
        | None -> run_explore ()
        | Some path ->
            (* The reporter is stopped through [with_reporter] so the exact
               "final" line is flushed even when exploration raises. *)
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                Obs.Reporter.with_reporter ~interval:stats_interval oc
                  run_explore)
      in
      (match trace_out with
      | None -> ()
      | Some path ->
          let events, dropped = Obs.Trace.drain () in
          write_trace path events ~dropped);
      (* One line per test case: a state merged from N enumerated paths
         expands to N lines, so merged and enumerated case sets diff
         clean.  Solved before the summary's snapshot, so the solver line
         counts case extraction as a distributed run's does. *)
      let cases =
        if cases then
          List.concat_map
            (fun (s : State.t) ->
              let status = State.report_string s in
              List.map
                (fun tc ->
                  Printf.sprintf "%s | %s" status
                    (Parallel.test_case_to_string tc))
                (Parallel.test_cases s))
            r.completed
        else []
      in
      print_summary ~procs:1 ~jobs:r.jobs ~wall:r.wall_seconds
        ~sched:[ Printf.sprintf "steals: %d" r.steals ]
        ~cases
        (Obs.Metrics.delta ~before (Obs.Metrics.snapshot ()))
    end
    else begin
      (* Distributed: `s2e_cli worker` children dial the coordinator's
         loopback listener, each re-building the same engine spec from
         these arguments. *)
      let argv =
        worker_argv ~driver ~workload ~model ~searcher ~merge ~jobs
          ~fault_plan ~fault_seed ~solver_timeout_ms ~solver_mode
          ~trace:(trace_out <> None)
      in
      Obs.Metrics.reset ();
      let r =
        S2e_dist.Coordinator.explore ~procs ~limits ~cases
          ~handle_sigint:true
          ~spawn:(S2e_dist.Coordinator.Exec { argv })
          ~make_engine ~boot ()
      in
      (match stats_out with
      | None -> ()
      | Some path ->
          write_merged_stats path r.S2e_dist.Coordinator.obs
            ~elapsed:r.wall_seconds);
      (match trace_out with
      | None -> ()
      | Some path ->
          write_trace path r.S2e_dist.Coordinator.trace
            ~dropped:r.trace_dropped);
      print_dist_result ~jobs ~cases r;
      (* Completed-with-abandoned-work is distinguishable from a clean
         run: lost coverage must not look like exhaustive exploration. *)
      if r.abandoned <> [] then exit 3
    end
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Explore a guest workload multi-path, optionally across parallel \
          workers (--jobs) and worker processes (--procs)")
    Term.(
      const run $ driver_arg $ explore_workload_arg $ model_arg $ jobs_arg
      $ procs_arg $ seconds_arg $ searcher_arg $ merge_arg $ cases_arg
      $ stats_out_arg $ stats_interval_arg $ trace_out_arg $ fault_plan_arg
      $ fault_seed_arg $ solver_timeout_arg $ solver_mode_arg)

(* --- serve: TCP cluster coordinator --- *)

let serve_cmd =
  let open S2e_core in
  let listen_arg =
    let doc =
      "Listen address for TCP workers, HOST:PORT.  Port 0 picks an \
       ephemeral port; the chosen one is printed as 'listening on \
       HOST:PORT' before exploration starts."
    in
    Arg.(
      value & opt string "127.0.0.1:0" & info [ "listen" ] ~docv:"HOST:PORT" ~doc)
  in
  let procs_arg =
    let doc =
      "Also spawn $(docv) owned worker processes locally; they dial this \
       listener's address (127.0.0.1 when it is bound to any address).  \
       An owned worker that dies is respawned and its item charged one \
       attempt; a lost connection only makes a worker rejoin.  0 \
       relies entirely on remote workers; until one joins, the \
       coordinator explores solo."
    in
    Arg.(value & opt int 0 & info [ "procs" ] ~docv:"N" ~doc)
  in
  let max_workers_arg =
    let doc = "Admission cap: TCP workers alive at once." in
    Arg.(value & opt int 64 & info [ "max-workers" ] ~docv:"N" ~doc)
  in
  let lease_arg =
    let doc =
      "Worker liveness lease in seconds: a worker silent past it is \
       presumed dead, its in-flight item requeued.  Granted to every \
       worker at admission (they heartbeat at a quarter of it)."
    in
    Arg.(value & opt float 10. & info [ "lease" ] ~docv:"SEC" ~doc)
  in
  let cases_arg =
    let doc =
      "Print one line per completed path (sorted): status plus the \
       canonical test case; diff against a serial run to verify the \
       cluster lost nothing."
    in
    Arg.(value & flag & info [ "cases" ] ~doc)
  in
  let run driver workload model jobs procs seconds searcher merge cases
      listen max_workers lease fault_plan fault_seed solver_timeout_ms
      solver_mode =
    validate_explore_args ~cmd:"serve" ~driver ~workload ~model ~searcher
      ~merge ~jobs ~procs:1 ~seconds ~stats_interval:1.;
    setup_resilience ~cmd:"serve" ~solver_mode ~fault_plan ~fault_seed
      ~solver_timeout_ms ();
    if procs < 0 then begin
      Fmt.epr "s2e serve: --procs must be >= 0 (got %d)@." procs;
      exit 2
    end;
    if lease <= 0. then begin
      Fmt.epr "s2e serve: --lease must be > 0 (got %g)@." lease;
      exit 2
    end;
    let host, port = parse_hostport ~cmd:"serve" listen in
    let lfd =
      try S2e_dist.Proto.listen ~host ~port
      with Unix.Unix_error (e, _, _) ->
        Fmt.epr "s2e serve: cannot listen on %s: %s@." listen
          (Unix.error_message e);
        exit 2
    in
    (* Flushed before the run so scripts can scrape the ephemeral port. *)
    Fmt.pr "listening on %s:%d@." host (S2e_dist.Proto.bound_port lfd);
    let img, make_engine =
      engine_factory ~driver ~workload ~model ~searcher ~merge
    in
    let limits =
      {
        Executor.max_instructions = None;
        max_seconds = Some seconds;
        max_completed = None;
      }
    in
    let boot eng = Executor.boot eng ~entry:img.entry () in
    let argv =
      worker_argv ~driver ~workload ~model ~searcher ~merge ~jobs ~fault_plan
        ~fault_seed ~solver_timeout_ms ~solver_mode ~trace:false
    in
    Obs.Metrics.reset ();
    let r =
      S2e_dist.Coordinator.explore ~procs ~limits ~cases ~handle_sigint:true
        ~heartbeat_timeout:lease ~listener:lfd ~max_workers
        ~spawn:(S2e_dist.Coordinator.Exec { argv })
        ~make_engine ~boot ()
    in
    (try Unix.close lfd with Unix.Unix_error _ -> ());
    print_dist_result ~jobs ~cases r;
    if r.S2e_dist.Coordinator.abandoned <> [] then exit 3
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Coordinate an exploration cluster over TCP: workers \
          ($(b,s2e_cli worker --connect)) join and leave mid-run; the \
          coordinator leases them work, recovers from their crashes, and \
          degrades to exploring solo when none are left")
    Term.(
      const run $ driver_arg $ explore_workload_arg $ model_arg $ jobs_arg
      $ procs_arg $ seconds_arg $ searcher_arg $ merge_arg $ cases_arg
      $ listen_arg $ max_workers_arg $ lease_arg $ fault_plan_arg
      $ fault_seed_arg $ solver_timeout_arg $ solver_mode_arg)

(* --- worker: joins a coordinator's listener (`serve`, or the loopback
   one `explore --procs` spawns it against) --- *)

let worker_cmd =
  let slice_arg =
    let doc = "Wall-clock seconds per exploration slice between control polls." in
    Arg.(value & opt float 0.05 & info [ "slice" ] ~docv:"SEC" ~doc)
  in
  let trace_flag_arg =
    let doc =
      "Record trace events and ship drained chunks to the coordinator over \
       heartbeats (set by explore --trace-out)."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let connect_arg =
    let doc =
      "Join the coordinator listening at $(docv) ($(b,s2e_cli serve), or \
       the loopback listener of $(b,explore --procs), which passes it).  \
       The worker keeps reconnecting with exponential backoff and \
       resumes its session after connection losses."
    in
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
  in
  let run driver workload model jobs searcher merge slice trace connect
      fault_plan fault_seed solver_timeout_ms solver_mode =
    validate_explore_args ~cmd:"worker" ~driver ~workload ~model ~searcher
      ~merge ~jobs ~procs:1 ~seconds:1. ~stats_interval:1.;
    setup_resilience ~cmd:"worker" ~solver_mode ~fault_plan ~fault_seed
      ~solver_timeout_ms ();
    if trace then Obs.Trace.set_enabled true;
    if slice <= 0. then begin
      Fmt.epr "s2e worker: --slice must be > 0 (got %g)@." slice;
      exit 2
    end;
    let _img, make_engine =
      engine_factory ~driver ~workload ~model ~searcher ~merge
    in
    let host, port = parse_hostport ~cmd:"worker" connect in
    S2e_dist.Worker.serve_tcp ~jobs ~slice ~host ~port ~make_engine ()
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Exploration worker process: joins the coordinator at \
          $(b,--connect) (a $(b,serve) cluster, or the owned workers of \
          explore --procs)")
    Term.(
      const run $ driver_arg $ explore_workload_arg $ model_arg $ jobs_arg
      $ searcher_arg $ merge_arg $ slice_arg $ trace_flag_arg $ connect_arg
      $ fault_plan_arg $ fault_seed_arg $ solver_timeout_arg
      $ solver_mode_arg)

(* --- stats: render a run-stats JSONL file --- *)

let stats_cmd =
  let file_arg =
    let doc = "Run-stats JSONL file written by $(b,explore --stats-out)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let lines =
      match open_in file with
      | exception Sys_error msg ->
          Fmt.epr "%s@." msg;
          exit 2
      | ic ->
          let rec go acc =
            match input_line ic with
            | line -> go (if String.trim line = "" then acc else line :: acc)
            | exception End_of_file ->
                close_in ic;
                List.rev acc
          in
          go []
    in
    if lines = [] then begin
      Fmt.epr "%s: no snapshots (empty stats file)@." file;
      exit 2
    end;
    let parsed =
      List.mapi
        (fun i line ->
          match Obs.Jsonl.parse line with
          | Ok j -> j
          | Error msg ->
              Fmt.epr "%s: line %d unparsable: %s@." file (i + 1) msg;
              exit 2)
        lines
    in
    (* Prefer the exact post-join "final" snapshot; a run cut short still
       renders from its last periodic line. *)
    let final =
      match
        List.find_opt
          (fun j -> Obs.Jsonl.str_member "kind" j = Some "final")
          (List.rev parsed)
      with
      | Some j -> j
      | None -> List.nth parsed (List.length parsed - 1)
    in
    let obs = Obs.Reporter.snapshot_of_fields final in
    let f = Obs.Metrics.get_float obs and n = Obs.Metrics.get_int obs in
    (* Metrics whose names extend [prefix], with the prefix cut off. *)
    let under prefix =
      List.filter_map
        (fun (name, _) ->
          if String.starts_with ~prefix name && name <> prefix then
            Some (String.sub name (String.length prefix)
                    (String.length name - String.length prefix))
          else None)
        obs
    in
    let elapsed =
      Option.value ~default:0. (Obs.Jsonl.num_member "elapsed_s" final)
    in
    let periodic =
      List.length
        (List.filter
           (fun j -> Obs.Jsonl.str_member "kind" j = Some "periodic")
           parsed)
    in
    let pct part whole = if whole <= 0. then 0. else 100. *. part /. whole in
    Fmt.pr "run: %.2f s, %d periodic snapshot(s)%s, %d worker(s), %.0f instr/s@."
      elapsed periodic
      (if Obs.Jsonl.str_member "kind" final = Some "final" then " + final"
       else " (no final line: run was cut short)")
      (max 1 (n "parallel.workers"))
      (if elapsed > 0. then f "engine.instructions" /. elapsed else 0.);
    print_engine_lines obs;
    print_solver_lines obs;
    (* SAT-core time by layer, over every cold and incremental call. *)
    if f "solver.blast_s" +. f "solver.search_s" > 0. then
      Fmt.pr "solver layers: %.3f s building CNF (bitblast), %.3f s SAT search@."
        (f "solver.blast_s") (f "solver.search_s");
    Fmt.pr "tb cache: %.1f%% hits (%d hits, %d misses), %d invalidations@."
      (pct (f "dbt.tb_hits") (f "dbt.tb_hits" +. f "dbt.tb_misses"))
      (n "dbt.tb_hits") (n "dbt.tb_misses") (n "dbt.tb_invalidations");
    (* State merging (--merge): join/reject totals plus the unmergeable
       taxonomy, whose counters are registered dynamically per reason. *)
    if n "merge.merges" + n "merge.rejected_cost" + n "merge.parked" > 0 then begin
      Fmt.pr
        "merge: %d merges, %d cost-rejected, %d parked, %d released (%d \
         forced), %d without merge point@."
        (n "merge.merges") (n "merge.rejected_cost") (n "merge.parked")
        (n "merge.released") (n "merge.released_forced") (n "merge.no_point");
      let unmergeable =
        List.filter_map
          (fun reason ->
            let k = n ("merge.unmergeable." ^ reason) in
            if k > 0 then Some (reason, k) else None)
          (under "merge.unmergeable.")
      in
      if unmergeable <> [] then
        Fmt.pr "  unmergeable: %s@."
          (String.concat ", "
             (List.map
                (fun (reason, k) -> Printf.sprintf "%s %d" reason k)
                (List.sort (fun (_, a) (_, b) -> compare b a) unmergeable)));
      if n "merge.carrier_aborts" > 0 then
        Fmt.pr
          "  carrier aborts: %d (each drops its carried paths' cases; see \
           DESIGN.md on LC environment hazards)@."
          (n "merge.carrier_aborts")
    end;
    (* Phase breakdown: every "phase.<name>_s" fcounter holds that phase's
       exclusive (self) time, so fractions of their sum add up to ~100%. *)
    let phases =
      List.filter_map
        (fun name ->
          if String.ends_with ~suffix:"_s" name then
            let phase = String.sub name 0 (String.length name - 2) in
            Some (phase, f ("phase." ^ name))
          else None)
        (under "phase.")
    in
    let total_phase = List.fold_left (fun a (_, s) -> a +. s) 0. phases in
    if phases <> [] then begin
      Fmt.pr "phase breakdown (self time, %.2f s accounted):@." total_phase;
      List.iter
        (fun (name, secs) ->
          Fmt.pr "  %-12s %5.1f%%  %8.3f s  (%d enters)@." name
            (pct secs total_phase) secs
            (n (Printf.sprintf "phase.%s_count" name)))
        (List.sort (fun (_, a) (_, b) -> compare b a) phases)
    end;
    (* Solver query latency histogram. *)
    (match Obs.Metrics.find obs "solver.query_s" with
    | Some (Obs.Metrics.Hist { bounds; counts; sum }) ->
        let total = Array.fold_left ( + ) 0 counts in
        if total > 0 then begin
          Fmt.pr "solver query latency (%d queries, %.3f s total):@." total sum;
          Array.iteri
            (fun i c ->
              if c > 0 then
                let label =
                  if i < Array.length bounds then
                    Printf.sprintf "<= %gs" bounds.(i)
                  else "overflow"
                in
                Fmt.pr "  %-10s %6d  (%.1f%%)@." label c
                  (pct (float_of_int c) (float_of_int total)))
            counts
        end
    | _ -> ());
    (* Per-worker breakdown from the per-shard views: live domains' own
       shards and the retired shard. *)
    (match Obs.Jsonl.member "shards" final with
    | Some (Obs.Jsonl.Arr shards) when List.length shards > 1 ->
        Fmt.pr "per-worker (registry shard):@.";
        List.iter
          (fun sh ->
            let g = Obs.Metrics.get_int (Obs.Reporter.snapshot_of_fields sh) in
            let id =
              Option.value ~default:(-1.) (Obs.Jsonl.num_member "shard" sh)
            in
            (* Shard -1 holds every exited domain's counts. *)
            Fmt.pr "  %s: %d instr, %d paths, %d forks, %d steals@."
              (if id < 0. then "retired" else Printf.sprintf "shard %.0f" id)
              (g "engine.instructions")
              (g "engine.states_completed")
              (g "engine.forks") (g "parallel.steals"))
          shards
    | _ -> ())
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Render the final breakdown of a run-stats JSONL file (explore \
          --stats-out)")
    Term.(const run $ file_arg)

(* --- trace: render a trace_event JSON file --- *)

let trace_cmd =
  let file_arg =
    let doc = "Trace JSON file written by $(b,explore --trace-out)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let top_arg =
    let doc = "Hottest constraint-prefix groups to list." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let depth_arg =
    let doc = "Fork-tree levels to print (deeper subtrees are summarized)." in
    Arg.(value & opt int 4 & info [ "depth" ] ~docv:"N" ~doc)
  in
  let run file top depth =
    let contents =
      match In_channel.with_open_bin file In_channel.input_all with
      | s -> s
      | exception Sys_error msg ->
          Fmt.epr "%s@." msg;
          exit 2
    in
    let root =
      match Obs.Jsonl.parse (String.trim contents) with
      | Ok j -> j
      | Error msg ->
          Fmt.epr "%s: unparsable: %s@." file msg;
          exit 2
    in
    let events =
      match
        Option.bind (Obs.Jsonl.member "traceEvents" root) Obs.Jsonl.to_arr
      with
      | Some evs -> evs
      | None ->
          Fmt.epr "%s: no traceEvents array (not an explore --trace-out file)@."
            file;
          exit 2
    in
    let num ?(default = 0.) name j =
      Option.value ~default (Obs.Jsonl.num_member name j)
    in
    let dropped =
      match Obs.Jsonl.member "s2e" root with
      | Some meta -> int_of_float (num "dropped" meta)
      | None -> 0
    in
    (* One pass over the events: prefix groups for the solver-attribution
       report, start/end/own-cost tables for the fork tree. *)
    let starts = Hashtbl.create 256 in (* (pid, path) -> parent path *)
    let ends = Hashtbl.create 256 in (* (pid, path) -> (status, incomplete) *)
    let own = Hashtbl.create 256 in (* (pid, path) -> (queries, seconds) *)
    let groups = Hashtbl.create 256 in
    (* prefix -> (count, seconds, cache hits, incremental reuses) *)
    let total_q = ref 0 and total_qs = ref 0. and total_inc = ref 0 in
    List.iter
      (fun ev ->
        let name = Option.value ~default:"" (Obs.Jsonl.str_member "name" ev) in
        let pid = int_of_float (num "pid" ev) in
        let args =
          Option.value ~default:(Obs.Jsonl.Obj []) (Obs.Jsonl.member "args" ev)
        in
        let path = int_of_float (num ~default:(-1.) "path" args) in
        match name with
        | "path_start" ->
            Hashtbl.replace starts (pid, path)
              (int_of_float (num ~default:(-1.) "parent" args))
        | "path_end" ->
            Hashtbl.replace ends (pid, path)
              (int_of_float (num "status" args), num "incomplete" args <> 0.)
        | "solver_query" ->
            let dur = num "dur" ev /. 1e6 in
            let prefix =
              Option.value ~default:"0x0" (Obs.Jsonl.str_member "prefix" args)
            in
            let cached = Obs.Jsonl.str_member "cache" args <> Some "miss" in
            (* Realized incremental reuse: the query popped a live SAT
               instance back to a shared prefix instead of rebuilding. *)
            let inc =
              match Obs.Jsonl.str_member "incremental" args with
              | Some ("hit" | "partial") -> true
              | _ -> false
            in
            incr total_q;
            total_qs := !total_qs +. dur;
            if inc then incr total_inc;
            let c, s, h, ic =
              Option.value ~default:(0, 0., 0, 0)
                (Hashtbl.find_opt groups prefix)
            in
            Hashtbl.replace groups prefix
              ( c + 1,
                s +. dur,
                (h + if cached then 1 else 0),
                (ic + if inc then 1 else 0) );
            let qc, qs =
              Option.value ~default:(0, 0.) (Hashtbl.find_opt own (pid, path))
            in
            Hashtbl.replace own (pid, path) (qc + 1, qs +. dur)
        | _ -> ())
      events;
    Fmt.pr "trace: %d events, %d solver queries, %.3f s solver time%s@."
      (List.length events) !total_q !total_qs
      (if dropped > 0 then Printf.sprintf ", %d dropped" dropped else "");
    (* (a) hottest queries grouped by constraint-prefix hash. *)
    let glist =
      Hashtbl.fold (fun p (c, s, h, ic) acc -> (p, c, s, h, ic) :: acc) groups
        []
    in
    let reused_time =
      List.fold_left
        (fun acc (_, c, s, _, _) -> if c > 1 then acc +. s else acc)
        0. glist
    in
    Fmt.pr
      "constraint prefixes: %d distinct; %.1f%% of solver time in reused \
       prefixes; %d queries reused a live SAT instance@."
      (List.length glist)
      (if !total_qs > 0. then 100. *. reused_time /. !total_qs else 0.)
      !total_inc;
    if glist <> [] then begin
      Fmt.pr "hottest prefixes (top %d by solver time):@." top;
      Fmt.pr "  %-20s %8s %8s %8s %8s %12s@." "prefix" "queries" "reused"
        "cached" "inc" "seconds";
      List.iteri
        (fun i (p, c, s, h, ic) ->
          if i < top then
            Fmt.pr "  %-20s %8d %8d %8d %8d %12.4f@." p c (c - 1) h ic s)
        (List.sort
           (fun (_, _, a, _, _) (_, _, b, _, _) -> compare (b : float) a)
           glist)
    end;
    (* (b) the fork tree, each node annotated with its subtree's solver
       cost; children sorted hottest-subtree first. *)
    let children = Hashtbl.create 256 in
    let roots = ref [] in
    Hashtbl.iter
      (fun (pid, path) parent ->
        if parent >= 0 && Hashtbl.mem starts (pid, parent) then
          Hashtbl.replace children (pid, parent)
            ((pid, path)
            :: Option.value ~default:[]
                 (Hashtbl.find_opt children (pid, parent)))
        else roots := (pid, path) :: !roots)
      starts;
    let rec subtree key =
      let qc, qs = Option.value ~default:(0, 0.) (Hashtbl.find_opt own key) in
      List.fold_left
        (fun (c, s, n) k ->
          let c', s', n' = subtree k in
          (c + c', s +. s', n + n'))
        (qc, qs, 1)
        (Option.value ~default:[] (Hashtbl.find_opt children key))
    in
    let status_name key =
      match Hashtbl.find_opt ends key with
      | Some (st, inc) ->
          (match st with
          | 0 -> "active"
          | 1 -> "halted"
          | 2 -> "killed"
          | 3 -> "faulted"
          | 4 -> "aborted"
          | _ -> "?")
          ^ if inc then " incomplete" else ""
      | None -> "live"
    in
    let multi_pid =
      List.length
        (List.sort_uniq compare
           (Hashtbl.fold (fun (pid, _) _ acc -> pid :: acc) starts []))
      > 1
    in
    if Hashtbl.length starts > 0 then begin
      Fmt.pr "fork tree (per-subtree solver cost):@.";
      let rec print_node indent d key =
        let qc, qs, paths = subtree key in
        let oqc, oqs =
          Option.value ~default:(0, 0.) (Hashtbl.find_opt own key)
        in
        let pid, path = key in
        let kids =
          List.sort
            (fun a b ->
              let _, sa, _ = subtree a and _, sb, _ = subtree b in
              compare sb sa)
            (Option.value ~default:[] (Hashtbl.find_opt children key))
        in
        Fmt.pr "%spath %d%s [%s]  subtree %.4f s / %d queries%s@." indent path
          (if multi_pid then Printf.sprintf "@p%d" pid else "")
          (status_name key) qs qc
          (if oqc > 0 && kids <> [] then
             Printf.sprintf "  (own %.4f s / %d)" oqs oqc
           else "");
        if d + 1 >= depth && kids <> [] then
          Fmt.pr "%s  ... %d more path(s) below@." indent (paths - 1)
        else List.iter (print_node (indent ^ "  ") (d + 1)) kids
      in
      List.iter (print_node "  " 0) (List.sort compare !roots)
    end;
    let un_c, un_s =
      Hashtbl.fold
        (fun (_, p) (c, s) (ac, asum) ->
          if p < 0 then (ac + c, asum +. s) else (ac, asum))
        own (0, 0.)
    in
    if un_c > 0 then
      Fmt.pr "unattributed: %d queries, %.4f s (emitted outside any path)@."
        un_c un_s
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Render a trace file (explore --trace-out): hottest solver queries \
          by constraint prefix, and the fork tree with per-subtree solver \
          cost")
    Term.(const run $ file_arg $ top_arg $ depth_arg)

(* --- models --- *)

let models_cmd =
  let target_arg =
    let doc = "Target: a driver name or 'mua'." in
    Arg.(value & opt string "c111" & info [ "target" ] ~docv:"T" ~doc)
  in
  let run target seconds =
    let models = S2e_core.Consistency.[ RC_OC; LC; SC_SE; SC_UE ] in
    List.iter
      (fun model ->
        let m =
          if target = "mua" then
            if model = S2e_core.Consistency.SC_UE then None
            else Some (Model_exp.run_mua ~max_seconds:seconds ~consistency:model ())
          else begin
            check_driver target;
            Some (Model_exp.run_driver ~max_seconds:seconds ~driver:target ~consistency:model ())
          end
        in
        match m with
        | Some m -> Fmt.pr "%a@." Model_exp.pp_measurement m
        | None -> ())
      models
  in
  Cmd.v
    (Cmd.info "models"
       ~doc:"Compare execution consistency models (paper section 6.3)")
    Term.(const run $ target_arg $ seconds_arg)

(* --- oracle: differential ISA testing of the DBT against a reference
   interpreter --- *)

let oracle_cmd =
  let module Oracle = S2e_oracle.Oracle in
  let seed_arg =
    let doc = "Deterministic seed: same seed, byte-identical run." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let count_arg =
    let doc = "Number of generated blocks to run differentially." in
    Arg.(value & opt int 10_000 & info [ "count" ] ~docv:"N" ~doc)
  in
  let corpus_arg =
    let doc = "Corpus manifest to replay (written by --corpus-out)." in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"FILE" ~doc)
  in
  let capture_arg =
    let doc =
      Printf.sprintf
        "Capture a fresh corpus by exploring this workload (one of %s) \
         before replaying it."
        (String.concat ", " workload_names)
    in
    Arg.(value & opt (some string) None & info [ "capture" ] ~docv:"W" ~doc)
  in
  let corpus_out_arg =
    let doc = "Write the captured corpus manifest here." in
    Arg.(value & opt (some string) None & info [ "corpus-out" ] ~docv:"FILE" ~doc)
  in
  let repro_dir_arg =
    let doc = "Directory for divergence repro dumps." in
    Arg.(value & opt string "." & info [ "repro-dir" ] ~docv:"DIR" ~doc)
  in
  let run seed count corpus capture driver seconds corpus_out repro_dir =
    let captured =
      match capture with
      | None -> None
      | Some w ->
          if workload_src w = None then begin
            Fmt.epr "s2e oracle: unknown workload %S (have: %s)@." w
              (String.concat ", " workload_names);
            exit 2
          end;
          if driver <> "nulldrv" then check_driver driver;
          Fmt.pr "capturing corpus: workload %s, driver %s, %.0fs budget...@."
            w driver seconds;
          let cap = S2e_oracle.Corpus.capture ~driver ~seconds ~workload:w () in
          Fmt.pr "captured %d block(s), %d symbolic state(s)@."
            (List.length cap.cap_entries)
            (List.length cap.cap_sym);
          (match corpus_out with
          | Some path ->
              S2e_oracle.Corpus.save path ~workload:w cap.cap_entries;
              Fmt.pr "corpus manifest -> %s@." path
          | None -> ());
          Some cap
    in
    let loaded =
      match corpus with
      | None -> []
      | Some path ->
          let wl, entries = S2e_oracle.Corpus.load path in
          Fmt.pr "corpus %s: %d block(s) from workload %s@." path
            (List.length entries) wl;
          entries
    in
    let entries =
      loaded
      @ match captured with Some c -> c.cap_entries | None -> []
    in
    let sym = match captured with Some c -> c.cap_sym | None -> [] in
    let r =
      Oracle.run ~seed ~count ~corpus:entries ~sym ~repro_dir
        ~log:(fun m -> Fmt.epr "%s@." m)
        ()
    in
    Fmt.pr
      "oracle: %d differential block run(s) (%d generated, %d corpus, %d \
       sym), seed %d@."
      r.Oracle.r_blocks r.r_generated r.r_corpus r.r_sym seed;
    Fmt.pr "digest: %016Lx@." r.r_digest;
    if r.r_generated > 0 then begin
      let covered = List.filter (fun (_, n) -> n > 0) r.r_coverage in
      Fmt.pr "coverage: %d/%d constructors in generated corpus%s@."
        (List.length covered)
        (List.length r.r_coverage)
        (if r.r_missing = [] then ""
         else " (missing: " ^ String.concat ", " r.r_missing ^ ")")
    end;
    if r.r_divergences = [] then Fmt.pr "divergences: none@."
    else begin
      Fmt.pr "divergences: %d@." (List.length r.r_divergences);
      List.iter
        (fun (d : Oracle.divergence) ->
          Fmt.pr "  [%s/%s] %s%s@."
            (Oracle.source_name d.d_source)
            d.d_phase
            (String.concat "; " d.d_diff)
            (match d.d_file with Some f -> " -> " ^ f | None -> ""))
        r.r_divergences;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:
         "Differentially test the DBT fast path against a naive reference \
          interpreter")
    Term.(
      const run $ seed_arg $ count_arg $ corpus_arg $ capture_arg $ driver_arg
      $ seconds_arg $ corpus_out_arg $ repro_dir_arg)

let () =
  let doc = "in-vivo multi-path analysis platform (S2E reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "s2e" ~doc)
          [
            run_cmd; ddt_cmd; rev_cmd; profs_cmd; models_cmd; explore_cmd;
            serve_cmd; worker_cmd; stats_cmd; trace_cmd; oracle_cmd;
          ]))
