(** The execution-consistency-model trade-off experiments of paper section
    6.3: explore two drivers and the Mua interpreter under RC-OC / LC /
    SC-SE / SC-UE, measuring time to finish, basic-block coverage, memory
    high-watermark and constraint-solving time.  Feeds Table 6 and
    Figures 7, 8 and 9. *)

open S2e_core
open S2e_plugins
module Expr = S2e_expr.Expr
module Obs = S2e_obs
module Guest = S2e_guest.Guest

type measurement = {
  target : string;
  consistency : Consistency.t;
  seconds : float;
  finished : bool; (* exploration drained before the budget *)
  coverage : float;
  paths : int;
  mem_watermark : int; (* state-footprint words, high watermark *)
  solver_fraction : float;
  avg_query_ms : float;
  solver_queries : int;
  instructions : int;
}

let netdev_ports = (S2e_vm.Layout.port_netdev, S2e_vm.Layout.port_netdev + 16)

(* [before]: the registry when the measurement began. *)
let finish_measurement ~target ~consistency ~started ~before ~finished
    ~coverage ~paths engine =
  let seconds = Unix.gettimeofday () -. started in
  let d = Obs.Metrics.delta ~before (Obs.Metrics.snapshot ()) in
  let solver_s = Obs.Metrics.get_float d "solver.query_s" in
  let queries = Obs.Metrics.get_int d "solver.queries" in
  {
    target;
    consistency;
    seconds;
    finished;
    coverage;
    paths;
    mem_watermark = engine.Executor.stats.footprint_watermark;
    solver_fraction = (if seconds > 0. then solver_s /. seconds else 0.);
    avg_query_ms =
      (if queries > 0 then 1000. *. solver_s /. float_of_int queries else 0.);
    solver_queries = queries;
    instructions = engine.Executor.stats.concrete_instret;
  }

(** Explore [driver] under [consistency] until exploration drains or the
    budget runs out. *)
let run_driver ?(max_seconds = 20.0) ?(max_instructions = 4_000_000) ~driver
    ~consistency () =
  let before = Obs.Metrics.snapshot () in
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
  let coverage = Coverage.attach engine in
  let _killer = Path_killer.attach ~max_repeats:3000 engine in
  (* The LC interface annotations (registry and allocation injection). *)
  (match consistency with
  | Consistency.LC | Consistency.RC_OC ->
      let reg =
        Registry.attach engine ~query_entry:(Guest.symbol img "reg_query_int")
      in
      Registry.watch reg ~key:"CardType" ~values:[ 1; 2; 7 ];
      Registry.watch reg ~key:"TxMode" ~values:[ 1; 2 ];
      Registry.watch reg ~key:"Promisc" ~values:[ 0; 1; 2 ];
      Registry.watch reg ~key:"Mtu" ~values:[ 1500; 9000 ];
      let alloc_addr = Guest.symbol img "alloc" in
      Annotation.on_return engine ~callee:alloc_addr (fun t s ->
          match Expr.to_const (State.get_reg s 0) with
          | Some base when base <> 0L ->
              let child = Executor.plugin_fork t s in
              State.set_reg child 0 (Expr.const 0L)
          | _ -> ())
  | Consistency.SC_CE | Consistency.SC_UE | Consistency.SC_SE
  | Consistency.RC_CC ->
      ());
  let s0 = Executor.boot engine ~entry:img.entry () in
  ignore
    (S2e_vm.Netdev.inject_frame s0.State.devices.netdev
       (Array.init 20 (fun i -> (i * 3) land 0xff)));
  let started = Unix.gettimeofday () in
  let limits =
    {
      Executor.max_instructions = Some max_instructions;
      max_seconds = Some max_seconds;
      max_completed = None;
    }
  in
  ignore (Executor.run ~limits engine s0);
  let finished = engine.Executor.searcher.select () = None in
  finish_measurement ~target:driver ~consistency ~started ~before ~finished
    ~coverage:(Coverage.module_coverage coverage driver)
    ~paths:engine.Executor.stats.states_completed engine

(* Inject symbolic Mua opcodes into [mua_code] when the interpreter starts,
   once per path: the paper's "suitably constrained symbolic Lua opcodes
   after the parser stage" (LC) or completely unconstrained ones (RC-OC). *)
let inject_opcodes engine img ~count ~constrain =
  let interp_addr = Guest.symbol img "mua_interp" in
  let code_addr = Guest.symbol img "mua_code" in
  let injected = Hashtbl.create 16 in
  Events.reg_instr_translate engine.Executor.events (fun addr _ ->
      if addr = interp_addr then S2e_dbt.Dbt.mark engine.Executor.dbt addr);
  Events.reg_instr_execute engine.Executor.events (fun s addr _ ->
      if addr = interp_addr && not (Hashtbl.mem injected s.State.id) then begin
        Hashtbl.replace injected s.State.id ();
        for i = 0 to count - 1 do
          let v = Expr.fresh_var ~width:8 (Printf.sprintf "mua_op_%d" i) in
          if constrain then
            State.add_constraint s
              (Expr.log_and
                 (Expr.ule (Expr.const ~width:8 1L) v)
                 (Expr.ule v (Expr.const ~width:8 12L)));
          s.State.mem <- Symmem.write_byte s.State.mem (code_addr + i) v
        done
      end);
  Events.reg_fork engine.Executor.events (fun parent child _ ->
      if Hashtbl.mem injected parent.State.id then
        Hashtbl.replace injected child.State.id ())

(** Explore the Mua interpreter under [consistency].  The unit is the
    interpreter (and main); the lexer/parser runs in the concrete domain,
    which is the selective-symbolic-execution benefit the paper highlights
    for Lua. *)
let run_mua ?(max_seconds = 20.0) ?(max_instructions = 4_000_000) ~consistency
    () =
  let before = Obs.Metrics.snapshot () in
  let sym_source =
    match consistency with Consistency.SC_SE -> "1" | _ -> "0"
  in
  let img =
    Guest.build
      ~registry:(("MuaSym", sym_source) :: Guest.default_registry)
      ~driver:("nulldrv", S2e_guest.Drivers_src.nulldrv)
      ~workload:("mua", S2e_guest.Workloads_src.mua)
      ()
  in
  let config = Executor.default_config () in
  config.consistency <- consistency;
  config.max_fork_depth <- 96;
  (* Symbolic Mua opcodes become symbolic jump offsets and stack slots:
     small solver pages keep the resulting ITE chains tractable (the
     page-splitting optimization of paper section 5). *)
  config.page_size <- 32;
  let engine = Executor.create ~config () in
  engine.Executor.searcher <- Searcher.bfs ();
  Guest.load_into_engine engine img;
  (* Unit: the interpreter loop and main, not the lexer/parser. *)
  let mua = S2e_cc.Cc.module_range img.linked "mua" in
  let interp_addr = Guest.symbol img "mua_interp" in
  Executor.add_unit_range engine interp_addr mua.m_code_end;
  (match consistency with
  | Consistency.LC -> inject_opcodes engine img ~count:6 ~constrain:true
  | Consistency.RC_OC -> inject_opcodes engine img ~count:6 ~constrain:false
  | Consistency.SC_SE ->
      (* symbolic program text: the unit must include the whole module so
         the parser's forks are followed (system-level consistency) *)
      Executor.add_unit_range engine mua.m_start mua.m_code_end
  | Consistency.SC_CE | Consistency.SC_UE | Consistency.RC_CC -> ());
  let coverage = Coverage.attach engine in
  let _killer = Path_killer.attach ~max_repeats:3000 engine in
  let s0 = Executor.boot engine ~entry:img.entry () in
  let started = Unix.gettimeofday () in
  let limits =
    {
      Executor.max_instructions = Some max_instructions;
      max_seconds = Some max_seconds;
      max_completed = None;
    }
  in
  ignore (Executor.run ~limits engine s0);
  let finished = engine.Executor.searcher.select () = None in
  (* Coverage of the interpreter range. *)
  let total = (mua.m_code_end - interp_addr) / S2e_isa.Insn.insn_size in
  let covered = Coverage.covered_in_range coverage interp_addr mua.m_code_end in
  finish_measurement ~target:"mua" ~consistency ~started ~before ~finished
    ~coverage:(float_of_int covered /. float_of_int total)
    ~paths:engine.Executor.stats.states_completed engine

let pp_measurement ppf m =
  Fmt.pf ppf
    "%-8s %-6s %7.2fs%s  cov %5.1f%%  paths %5d  mem %7d  solver %4.0f%% (%.2f ms/query)"
    m.target
    (Consistency.name m.consistency)
    m.seconds
    (if m.finished then " (done)" else " (cap) ")
    (100. *. m.coverage) m.paths m.mem_watermark
    (100. *. m.solver_fraction)
    m.avg_query_ms
