(** DDT+: automated testing of (closed-source) device drivers
    (paper section 6.1.1).

    Glues together the CodeSelector (the driver module is the unit),
    MemoryChecker, DataRaceDetector, BugCheck and ExecutionTracer plugins,
    with the kernel/driver interface annotations that implement local
    consistency: allocation failure injection at [alloc] returns, registry
    value injection at [reg_query_int] returns, and symbolic arguments for
    the query/set entry points.  Without annotations (e.g. under SC-SE) the
    only symbolic input comes from the simulated hardware. *)

open S2e_core
open S2e_plugins
module Expr = S2e_expr.Expr
module Guest = S2e_guest.Guest

type bug_report = {
  kind : string;
  pc : int;
  message : string; (* first occurrence *)
}

type result = {
  driver : string;
  consistency : Consistency.t;
  bugs : bug_report list; (* distinct by (kind, pc) *)
  paths : int;
  seconds : float;
  coverage : float; (* of the driver module *)
  instructions : int;
}

(* Netdev port range treated as symbolic hardware. *)
let netdev_ports = (S2e_vm.Layout.port_netdev, S2e_vm.Layout.port_netdev + 16)

let build_engine ~driver ~consistency =
  let driver_src = List.assoc driver Guest.drivers in
  let img =
    Guest.build ~driver:(driver, driver_src)
      ~workload:("exerciser", S2e_guest.Workloads_src.exerciser)
      ()
  in
  let config = Executor.default_config () in
  config.consistency <- consistency;
  config.symbolic_hardware_ports <- [ netdev_ports ];
  config.max_fork_depth <- 96;
  let engine = Executor.create ~config () in
  Guest.load_into_engine engine img;
  Executor.set_unit engine [ driver ];
  (engine, img)

(* The LC interface annotations (the "720 LOC of glue" of the paper's DDT+,
   in miniature). *)
let install_lc_annotations engine img checker =
  let alloc_addr = Guest.symbol img "alloc" in
  (* Allocation failure injection: fork a path in which alloc returned
     NULL, and forget the region on that path. *)
  Annotation.on_return engine ~callee:alloc_addr (fun t s ->
      match Expr.to_const (State.get_reg s 0) with
      | Some base when base <> 0L ->
          let child = Executor.plugin_fork t s in
          State.set_reg child 0 (Expr.const 0L);
          Memchecker.forget_region checker child (Int64.to_int base)
      | _ -> ());
  (* Registry value injection. *)
  let reg = Registry.attach engine ~query_entry:(Guest.symbol img "reg_query_int") in
  Registry.watch reg ~key:"CardType" ~values:[ 1; 2; 7 ];
  Registry.watch reg ~key:"TxMode" ~values:[ 1; 2 ];
  Registry.watch reg ~key:"Promisc" ~values:[ 0; 1; 2 ];
  Registry.watch reg ~key:"Mtu" ~values:[ 1500; 9000 ];
  (* Symbolic arguments for the information handlers (the paper's
     QueryInformationHandler / SetInformationHandler). *)
  Annotation.value_at engine
    ~addr:(Guest.symbol img "driver_query")
    ~reg:0 ~name:"query_code" ~lo:0 ~hi:(1 lsl 20);
  Annotation.value_at engine
    ~addr:(Guest.symbol img "driver_set")
    ~reg:0 ~name:"set_code" ~lo:0 ~hi:255

(** Test [driver] under [consistency].  Returns the distinct bugs found. *)
let run ?(max_seconds = 20.0) ?(max_instructions = 3_000_000) ~driver
    ~consistency () =
  let engine, img = build_engine ~driver ~consistency in
  let coverage = Coverage.attach engine in
  let checker =
    Memchecker.attach engine
      ~alloc_addr:(Guest.symbol img "alloc")
      ~free_addr:(Guest.symbol img "kfree")
      ~unit_name:driver
  in
  let _races = Race_detector.attach engine in
  let _bugcheck = Bugcheck.attach engine ~panic_addr:(Guest.symbol img "panic") in
  let _killer = Path_killer.attach ~max_repeats:3000 engine in
  let bugs = ref [] in
  Events.reg_bug engine.Executor.events (fun b ->
      if
        not
          (List.exists
             (fun r -> r.kind = b.Events.bug_kind && r.pc = b.bug_pc)
             !bugs)
      then
        bugs :=
          { kind = b.bug_kind; pc = b.bug_pc; message = b.bug_message } :: !bugs);
  (match consistency with
  | Consistency.LC | Consistency.RC_OC -> install_lc_annotations engine img checker
  | Consistency.SC_CE | Consistency.SC_UE | Consistency.SC_SE | Consistency.RC_CC
    ->
      ());
  let s0 = Executor.boot engine ~entry:img.entry () in
  (* Deliver one frame so receive paths have concrete traffic too. *)
  ignore
    (S2e_vm.Netdev.inject_frame s0.State.devices.netdev
       (Array.init 24 (fun i -> (i * 7) land 0xff)));
  let started = Unix.gettimeofday () in
  let paths =
    Executor.run
      ~limits:
        {
          Executor.max_instructions = Some max_instructions;
          max_seconds = Some max_seconds;
          max_completed = None;
        }
      engine s0
  in
  let seconds = Unix.gettimeofday () -. started in
  {
    driver;
    consistency;
    bugs = List.rev !bugs;
    paths;
    seconds;
    coverage = Coverage.module_coverage coverage driver;
    instructions = engine.Executor.stats.concrete_instret;
  }

(* Filter to the seeded memory/race bug classes (ignores duplicate fault
   reports for the same root cause). *)
let seeded_bug_count r =
  List.length
    (List.filter (fun b -> b.kind = "memory" || b.kind = "race") r.bugs)

let pp_result ppf r =
  Fmt.pf ppf "%s under %s: %d paths, %.1fs, %.0f%% coverage, %d bugs@."
    r.driver
    (Consistency.name r.consistency)
    r.paths r.seconds (100. *. r.coverage)
    (List.length r.bugs);
  List.iter
    (fun b -> Fmt.pf ppf "  [%s] pc=0x%x %s@." b.kind b.pc b.message)
    r.bugs
