(** The selective symbolic execution engine (paper sections 2 and 5).

    Executes guest code over {!State.t}s whose registers and memory hold
    {!S2e_expr.Expr.t} values.  Instructions whose operands are concrete
    fold to constants through the expression smart constructors, so
    concrete-mode execution runs "natively" (modulo the engine's
    bookkeeping — which is precisely the concrete-mode overhead the paper
    measures in section 6.2).  When a branch condition is symbolic and the
    program counter is inside the unit, execution forks; outside the unit
    the active {!Consistency} model decides between forking, concretizing
    and aborting.  Symbolic⇄concrete conversions are lazy: values flow
    through the environment unconcretized until something actually branches
    on them or they reach a device. *)

open S2e_expr
open S2e_isa
module Vm = S2e_vm
module Dbt = S2e_dbt.Dbt
module Solver = S2e_solver.Solver
module Obs = S2e_obs

(* Telemetry (lib/obs): the engine's counter store across domains,
   processes and every CLI surface.  The per-engine [stats] record below
   keeps only the few counts one engine's readers need, set at the same
   sites as their registry twins. *)
let m_instructions = Obs.Metrics.counter "engine.instructions"
let m_sym_instructions = Obs.Metrics.counter "engine.sym_instructions"
let m_forks = Obs.Metrics.counter "engine.forks"
let m_states_created = Obs.Metrics.counter "engine.states_created"
let m_states_completed = Obs.Metrics.counter "engine.states_completed"
let m_concretizations = Obs.Metrics.counter "engine.concretizations"
let m_aborts = Obs.Metrics.counter "engine.aborts"
let m_degradations = Obs.Metrics.counter "engine.degradations"
let m_incomplete = Obs.Metrics.counter "engine.incomplete_paths"
let m_live = Obs.Metrics.gauge ~merge:Obs.Metrics.Sum "engine.live_states"
let m_max_live = Obs.Metrics.gauge ~merge:Obs.Metrics.Max "engine.max_live_states"
let m_footprint = Obs.Metrics.gauge ~merge:Obs.Metrics.Max "engine.footprint_words"

let m_max_constraints =
  Obs.Metrics.gauge ~merge:Obs.Metrics.Max "engine.max_constraint_set"

let execute_phase = Obs.Span.phase "execute"
let fork_phase = Obs.Span.phase "fork"
let concretize_phase = Obs.Span.phase "concretize"

type config = {
  mutable consistency : Consistency.t;
  mutable page_size : int; (* solver page split for symbolic pointers *)
  mutable max_fork_depth : int;
  mutable use_simplifier : bool; (* ablation: bitfield simplifier on/off *)
  mutable lazy_concretization : bool; (* ablation: eager concretize at boundary *)
  mutable timer_divisor : int; (* virtual-clock slowdown in symbolic mode *)
  mutable symbolic_hardware_ports : (int * int) list; (* [lo, hi) ranges *)
  mutable max_states : int;
}

let default_config () =
  {
    consistency = Consistency.LC;
    page_size = 128;
    max_fork_depth = 64;
    use_simplifier = true;
    lazy_concretization = true;
    timer_divisor = 8;
    symbolic_hardware_ports = [];
    max_states = 8192;
  }

(* What one engine's readers need of its own counts: the run limits, the
   {!Parallel} merge, tools and benchmarks.  Every other engine count
   lives only in the registry above. *)
type stats = {
  mutable states_completed : int;
  mutable forks : int;
  mutable concrete_instret : int;
  mutable max_live_states : int;
  mutable footprint_watermark : int; (* sum of live state footprints, max *)
}

let new_stats () =
  {
    states_completed = 0;
    forks = 0;
    concrete_instret = 0;
    max_live_states = 0;
    footprint_watermark = 0;
  }

(** The record of a registry snapshot: what a run summed over processes
    (a distributed run's merged registries) reports in place of a merge
    of per-engine records. *)
let stats_of_obs obs =
  let n = Obs.Metrics.get_int obs in
  {
    states_completed = n "engine.states_completed";
    forks = n "engine.forks";
    concrete_instret = n "engine.instructions";
    max_live_states = n "engine.max_live_states";
    footprint_watermark = n "engine.footprint_words";
  }

(** Fold [src] into [into]: counters add, high watermarks take the max.
    {!Parallel}'s aggregation across its domain workers. *)
let merge_stats ~(into : stats) (src : stats) =
  into.states_completed <- into.states_completed + src.states_completed;
  into.forks <- into.forks + src.forks;
  into.concrete_instret <- into.concrete_instret + src.concrete_instret;
  if src.max_live_states > into.max_live_states then
    into.max_live_states <- src.max_live_states;
  if src.footprint_watermark > into.footprint_watermark then
    into.footprint_watermark <- src.footprint_watermark

type t = {
  config : config;
  events : Events.t;
  dbt : Dbt.t;
  modules : Module_map.t;
  mutable unit_ranges : (int * int) list; (* code ranges of the unit *)
  mutable searcher : Searcher.t;
  stats : stats;
  (* Solver context this engine threads through every query.  Defaults to
     the process-wide [Solver.default_ctx]; parallel workers install a
     private context each so caches and statistics never race. *)
  mutable solver : Solver.ctx;
  mutable live : State.t list;
  mutable base_mem : Bytes.t;
  (* LC interface annotations, keyed by environment function address. *)
  annotations : (int, t -> State.t -> unit) Hashtbl.t;
  mutable var_tags : (int * string) list; (* symbolic variable provenance *)
  mutable quiesce : unit -> unit;
      (* Release any deferred scheduling state (e.g. states parked at
         merge points) back into the searcher so [live] is
         self-describing.  Installed by the merge controller; called
         before snapshotting the frontier for another process. *)
}

let create ?(config = default_config ()) ?(solver = Solver.default_ctx) () =
  {
    config;
    events = Events.create ();
    dbt = Dbt.create ();
    modules = Module_map.create ();
    unit_ranges = [];
    searcher = Searcher.dfs ();
    stats = new_stats ();
    solver;
    live = [];
    base_mem = Bytes.create 0;
    annotations = Hashtbl.create 16;
    var_tags = [];
    quiesce = (fun () -> ());
  }

(** A view of a linked guest image: origin, raw code bytes, and module
    ranges [(name, code_start, code_end, data_end)].  Kept structural so the
    engine does not depend on the compiler. *)
type image_view = {
  l_origin : int;
  l_code : Bytes.t;
  l_modules : (string * int * int * int) list;
}

(** Load a linked guest image, registering its modules. *)
let load t (linked : image_view) =
  let mem = Bytes.make Vm.Layout.ram_size '\000' in
  Bytes.blit linked.l_code 0 mem linked.l_origin (Bytes.length linked.l_code);
  t.base_mem <- mem;
  List.iter
    (fun (name, code_start, code_end, data_end) ->
      Module_map.add t.modules ~name ~code_start ~code_end ~data_end)
    linked.l_modules

(** Declare which modules form the unit (multi-path domain): the
    CodeSelector configuration. *)
let set_unit t names =
  t.unit_ranges <-
    List.filter_map
      (fun name ->
        match Module_map.entry t.modules name with
        | Some e -> Some (e.code_start, e.code_end)
        | None -> None)
      names

let add_unit_range t lo hi = t.unit_ranges <- (lo, hi) :: t.unit_ranges

let in_unit t pc = List.exists (fun (lo, hi) -> pc >= lo && pc < hi) t.unit_ranges

let annotate t ~callee f = Hashtbl.replace t.annotations callee f

(** Create the initial execution state at the image entry point. *)
let boot t ?card_id ~entry () =
  let mem = Symmem.create ~base:(Bytes.copy t.base_mem) in
  let devices = Vm.Devices.create ?card_id () in
  let s = State.create ~mem ~devices ~pc:entry in
  Obs.Metrics.incr m_states_created;
  if Obs.Trace.enabled () then Obs.Trace.path_start ~path:s.id ~parent:(-1) ();
  s

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

exception Path_end (* current state stopped executing; scheduler takes over *)

let simplify t e = if t.config.use_simplifier then Simplifier.simplify e else e

let fresh_sym t name width =
  let v = Expr.fresh_var ~width name in
  (match v with
  | Expr.Var { id; _ } -> t.var_tags <- (id, name) :: t.var_tags
  | _ -> ());
  v

(* Numeric status code for the trace stream (see {!Obs.Trace.path_end}). *)
let trace_status = function
  | State.Active -> 0
  | State.Halted -> 1
  | State.Killed _ -> 2
  | State.Faulted _ -> 3
  | State.Aborted _ -> 4

let trace_path_end (s : State.t) =
  if Obs.Trace.enabled () then
    Obs.Trace.path_end ~path:s.id ~status:(trace_status s.status)
      ~incomplete:s.incomplete ()

let end_state t (s : State.t) status =
  s.status <- status;
  trace_path_end s;
  t.stats.states_completed <- t.stats.states_completed + 1;
  Obs.Metrics.incr m_states_completed;
  if s.incomplete then Obs.Metrics.incr m_incomplete;
  (match status with
  | State.Aborted _ -> Obs.Metrics.incr m_aborts
  | _ -> ());
  Events.state_end t.events s;
  t.searcher.remove s;
  t.live <- List.filter (fun s' -> s'.State.id <> s.State.id) t.live;
  Obs.Metrics.set m_live (List.length t.live);
  raise Path_end

let report_bug t (s : State.t) kind message =
  Events.bug t.events
    { bug_state = s; bug_kind = kind; bug_message = message; bug_pc = s.pc }

(* Concretize [e] in [s]: pick a feasible value, add the (soft) constraint
   pinning it, and return the concrete value.  This is the symbolic→concrete
   conversion of section 2.2. *)
let concretize t (s : State.t) e =
  match e with
  | Expr.Const { value; _ } -> value
  | _ ->
      Obs.Metrics.incr m_concretizations;
      Obs.Span.timed concretize_phase (fun () ->
          match Solver.get_value ~ctx:t.solver ~constraints:s.constraints e with
          | Some v ->
              State.add_constraint s
                (Expr.eq e (Expr.const ~width:(Expr.width e) v));
              s.soft_constraints <- s.soft_constraints + 1;
              v
          | None -> end_state t s (State.Aborted "infeasible concretization"))

let concrete_addr t s e = Int64.to_int (concretize t s e) land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let mem_fault t s msg =
  report_bug t s "memory" msg;
  end_state t s (State.Faulted msg)

let do_read t (s : State.t) addr_e size =
  match addr_e with
  | Expr.Const { value; _ } ->
      let a = Int64.to_int value in
      let v =
        try
          if size = 1 then Expr.zext ~width:32 (Symmem.read_byte s.mem a)
          else Symmem.read_word s.mem a
        with Symmem.Fault m -> mem_fault t s m
      in
      if Events.has_memory_access t.events then
        Events.memory_access t.events
          { ma_state = s; ma_addr = addr_e; ma_concrete_addr = a; ma_value = v;
            ma_is_write = false; ma_size = size;
            ma_pre_constraints = s.constraints };
      v
  | _ ->
      (* Symbolic pointer. *)
      if
        (not (in_unit t s.pc))
        && t.config.consistency = Consistency.LC
        && Solver.get_unique_value ~ctx:t.solver ~constraints:s.constraints addr_e = None
      then
        end_state t s
          (State.Aborted "LC: symbolic address dereferenced in environment")
      else begin
        let pre_constraints = s.constraints in
        let anchor = concrete_addr t s addr_e in
        if anchor < 0 || anchor + size > Vm.Layout.ram_size then
          mem_fault t s (Printf.sprintf "symbolic pointer out of range: 0x%x" anchor)
        else begin
          (* Replace the just-added equality soft constraint with the weaker
             page constraint: the paper passes whole solver pages to the
             constraint solver rather than pinning the address. *)
          s.constraints <- pre_constraints;
          let v, in_page =
            try
              if size = 1 then
                let e, c =
                  Symmem.read_byte_sym s.mem ~page_size:t.config.page_size ~anchor addr_e
                in
                (Expr.zext ~width:32 e, c)
              else
                Symmem.read_word_sym s.mem ~page_size:t.config.page_size ~anchor addr_e
            with Symmem.Fault m -> mem_fault t s m
          in
          let v = simplify t v in
          Events.memory_access t.events
            { ma_state = s; ma_addr = addr_e; ma_concrete_addr = anchor;
              ma_value = v; ma_is_write = false; ma_size = size;
              ma_pre_constraints = pre_constraints };
          State.add_constraint s in_page;
          v
        end
      end

let do_write t (s : State.t) addr_e v size =
  let pre_constraints = s.constraints in
  let a =
    match addr_e with
    | Expr.Const { value; _ } -> Int64.to_int value
    | _ ->
        if
          (not (in_unit t s.pc))
          && t.config.consistency = Consistency.LC
          && Solver.get_unique_value ~ctx:t.solver ~constraints:s.constraints addr_e = None
        then
          end_state t s
            (State.Aborted "LC: symbolic address written in environment")
        else concrete_addr t s addr_e
  in
  (try
     if size = 1 then s.mem <- Symmem.write_byte s.mem a (Expr.extract ~hi:7 ~lo:0 v)
     else s.mem <- Symmem.write_word s.mem a v
   with Symmem.Fault m -> mem_fault t s m);
  Dbt.invalidate t.dbt a;
  if Events.has_memory_access t.events then
    Events.memory_access t.events
      { ma_state = s; ma_addr = addr_e; ma_concrete_addr = a; ma_value = v;
        ma_is_write = true; ma_size = size; ma_pre_constraints = pre_constraints }

(* ------------------------------------------------------------------ *)
(* Forking and branches                                                *)
(* ------------------------------------------------------------------ *)

let do_fork t (s : State.t) cond ~taken_pc ~fall_pc =
  Obs.Span.timed fork_phase (fun () ->
      (* Parent takes the branch; child takes the fall-through. *)
      let child = State.fork s in
      t.stats.forks <- t.stats.forks + 1;
      Obs.Metrics.incr m_states_created;
      Obs.Metrics.incr m_forks;
      State.add_constraint s cond;
      State.add_constraint child (Expr.log_not cond);
      s.pc <- taken_pc;
      child.pc <- fall_pc;
      t.live <- child :: t.live;
      let live_count = List.length t.live in
      if live_count > t.stats.max_live_states then
        t.stats.max_live_states <- live_count;
      Obs.Metrics.set m_live live_count;
      Obs.Metrics.set m_max_live live_count;
      if Obs.Trace.enabled () then
        Obs.Trace.path_start ~path:child.id ~parent:s.id ();
      Events.fork t.events s child cond;
      t.searcher.add child;
      child)

(* Graceful degradation on solver Unknown at a fork (watchdog timeout,
   conflict-budget exhaustion or an injected solver fault): instead of
   forking both ways blind — which explodes paths exactly when queries
   get hard — commit to one side, mark the path incomplete, and account
   for the degradation.  [add]/[pc] are the chosen side's constraint and
   target. *)
let degrade_to (s : State.t) ~add ~pc =
  Obs.Metrics.incr m_degradations;
  s.incomplete <- true;
  State.add_constraint s add;
  s.pc <- pc

(* Neither side is known infeasible but at least one is Unknown: follow
   the branch the way the all-zeros model takes it (follow-the-concrete,
   in the spirit of the paper's consistency-model concretizations).  The
   pick is deliberately history-free — the previous heuristic read the
   context's model cache, whose contents depend on the solver strategy, so
   fresh and incremental runs could degrade down different sides and the
   chaos differential (same case set under an injected fault plan) would
   not hold. *)
let degrade_concrete (s : State.t) cond ~taken_pc ~fall_pc =
  if Expr.eval Expr.Int_map.empty cond = 1L then
    degrade_to s ~add:cond ~pc:taken_pc
  else degrade_to s ~add:(Expr.log_not cond) ~pc:fall_pc

(* Decide a branch with a symbolic condition. *)
let symbolic_branch t (s : State.t) cond ~taken_pc ~fall_pc =
  let model = t.config.consistency in
  let unit_here = in_unit t s.pc in
  let multipath = unit_here && s.multipath && model <> Consistency.SC_CE in
  if multipath then begin
    if not (Consistency.check_feasibility model) then begin
      (* RC-CC: follow both CFG edges, no solver, no constraints. *)
      if s.depth < t.config.max_fork_depth && List.length t.live < t.config.max_states
      then begin
        let child = State.fork s in
        t.stats.forks <- t.stats.forks + 1;
        Obs.Metrics.incr m_states_created;
        Obs.Metrics.incr m_forks;
        s.pc <- taken_pc;
        child.pc <- fall_pc;
        t.live <- child :: t.live;
        Obs.Metrics.set m_live (List.length t.live);
        if Obs.Trace.enabled () then
          Obs.Trace.path_start ~path:child.id ~parent:s.id ();
        Events.fork t.events s child cond;
        t.searcher.add child
      end
      else s.pc <- taken_pc
    end
    else begin
      (* One shared-prefix query pair: in incremental solver mode the two
         probes land on the same live SAT instance. *)
      let feas_true, feas_false =
        Solver.check_branch ~ctx:t.solver ~constraints:s.constraints cond
      in
      match feas_true, feas_false with
      | Solver.Sat _, Solver.Unsat ->
          State.add_constraint s cond;
          s.pc <- taken_pc
      | Solver.Unsat, Solver.Sat _ ->
          State.add_constraint s (Expr.log_not cond);
          s.pc <- fall_pc
      | Solver.Unsat, Solver.Unsat ->
          end_state t s (State.Aborted "infeasible path")
      | Solver.Unknown, Solver.Unsat ->
          (* Only one side can possibly be feasible; follow it, but its
             feasibility was never proven. *)
          degrade_to s ~add:cond ~pc:taken_pc
      | Solver.Unsat, Solver.Unknown ->
          degrade_to s ~add:(Expr.log_not cond) ~pc:fall_pc
      | (Solver.Unknown, _ | _, Solver.Unknown) ->
          degrade_concrete s cond ~taken_pc ~fall_pc
      | Solver.Sat _, Solver.Sat _ ->
          if s.depth < t.config.max_fork_depth
             && List.length t.live < t.config.max_states
          then ignore (do_fork t s cond ~taken_pc ~fall_pc)
          else begin
            (* Depth/state budget exhausted: follow one feasible side. *)
            State.add_constraint s cond;
            s.pc <- taken_pc
          end
    end
  end
  else begin
    match if unit_here then Consistency.Concretize else Consistency.env_branch model with
    | Consistency.Follow_symbolic ->
        (* SC-SE in the environment: fork there too. *)
        let feas_true, feas_false =
          Solver.check_branch ~ctx:t.solver ~constraints:s.constraints cond
        in
        (match feas_true, feas_false with
        | Solver.Sat _, Solver.Unsat ->
            State.add_constraint s cond;
            s.pc <- taken_pc
        | Solver.Unknown, Solver.Unsat ->
            degrade_to s ~add:cond ~pc:taken_pc
        | Solver.Unsat, Solver.Unknown ->
            degrade_to s ~add:(Expr.log_not cond) ~pc:fall_pc
        | Solver.Unsat, _ ->
            State.add_constraint s (Expr.log_not cond);
            s.pc <- fall_pc
        | (Solver.Unknown, _ | _, Solver.Unknown) ->
            degrade_concrete s cond ~taken_pc ~fall_pc
        | Solver.Sat _, Solver.Sat _ ->
            if s.depth < t.config.max_fork_depth
               && List.length t.live < t.config.max_states
            then ignore (do_fork t s cond ~taken_pc ~fall_pc)
            else begin
              State.add_constraint s cond;
              s.pc <- taken_pc
            end)
    | Consistency.Abort -> (
        (* LC: a branch on symbolic data in the environment is only an
           inconsistency when the data is genuinely undetermined — values
           pinned by earlier constraints (e.g. a null-checked pointer) are
           followed like concrete ones. *)
        let feas_true, feas_false =
          Solver.check_branch ~ctx:t.solver ~constraints:s.constraints cond
        in
        match feas_true, feas_false with
        | (Solver.Sat _ | Solver.Unknown), Solver.Unsat ->
            State.add_constraint s cond;
            s.pc <- taken_pc
        | Solver.Unsat, (Solver.Sat _ | Solver.Unknown) ->
            State.add_constraint s (Expr.log_not cond);
            s.pc <- fall_pc
        | Solver.Unsat, Solver.Unsat ->
            end_state t s (State.Aborted "infeasible path")
        | _, _ ->
            end_state t s
              (State.Aborted "LC: environment branched on symbolic data"))
    | Consistency.Concretize ->
        let v = concretize t s cond in
        s.pc <- (if v = 1L then taken_pc else fall_pc)
  end

(* ------------------------------------------------------------------ *)
(* Unit/environment boundary                                           *)
(* ------------------------------------------------------------------ *)

let on_call t (s : State.t) ~target ~return_addr ~via_syscall =
  let from_unit = in_unit t s.pc in
  let to_unit = in_unit t target in
  if from_unit && not to_unit then begin
    (* Unit calls into the environment. *)
    if
      Consistency.concretize_at_call t.config.consistency
      || not t.config.lazy_concretization
    then
      (* SC-UE (or the eager-concretization ablation): arguments become
         concrete before the black-box environment sees them. *)
      for r = 0 to 5 do
        let v = State.get_reg s r in
        if not (Expr.is_const v) then begin
          let c = concretize t s v in
          State.set_reg s r (Expr.const c)
        end
      done;
    s.env_frames <-
      { callee = target; return_addr; via_syscall } :: s.env_frames
  end

let apply_return_policy t (s : State.t) (frame : State.env_frame) =
  Events.env_return t.events
    { er_state = s; er_callee = frame.callee; er_via_syscall = frame.via_syscall };
  match Consistency.env_return t.config.consistency with
  | Consistency.Keep -> ()
  | Consistency.Contract -> (
      match Hashtbl.find_opt t.annotations frame.callee with
      | Some f -> f t s
      | None -> () (* unannotated: fall back to the strict behaviour *))
  | Consistency.Unconstrained ->
      (* RC-OC: the environment's result could be anything. *)
      (match Hashtbl.find_opt t.annotations frame.callee with
      | Some f -> f t s
      | None -> State.set_reg s 0 (fresh_sym t "env_ret" 32))

let check_env_return t (s : State.t) =
  match s.env_frames with
  | frame :: rest when s.pc = frame.return_addr ->
      s.env_frames <- rest;
      if in_unit t s.pc then apply_return_policy t s frame
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Instruction semantics                                               *)
(* ------------------------------------------------------------------ *)

let to_expr32 imm = Expr.const (Int64.of_int32 imm)

let alu_expr op a b =
  match op with
  | Insn.Add -> Expr.add a b
  | Insn.Sub -> Expr.sub a b
  | Insn.Mul -> Expr.mul a b
  | Insn.Divu -> Expr.udiv a b
  | Insn.Remu -> Expr.urem a b
  | Insn.And -> Expr.band a b
  | Insn.Or -> Expr.bor a b
  | Insn.Xor -> Expr.bxor a b
  | Insn.Shl -> Expr.shl a (Expr.band b (Expr.const 31L))
  | Insn.Shr -> Expr.lshr a (Expr.band b (Expr.const 31L))
  | Insn.Sar -> Expr.ashr a (Expr.band b (Expr.const 31L))
  | Insn.Slt -> Expr.zext ~width:32 (Expr.slt a b)
  | Insn.Sltu -> Expr.zext ~width:32 (Expr.ult a b)
  | Insn.Seq -> Expr.zext ~width:32 (Expr.eq a b)

let branch_cond cond a b =
  match cond with
  | Insn.Beq -> Expr.eq a b
  | Insn.Bne -> Expr.log_not (Expr.eq a b)
  | Insn.Blt -> Expr.slt a b
  | Insn.Bge -> Expr.log_not (Expr.slt a b)
  | Insn.Bltu -> Expr.ult a b
  | Insn.Bgeu -> Expr.log_not (Expr.ult a b)

let is_symbolic e = not (Expr.is_const e)

let apply_device_actions t (s : State.t) actions =
  List.iter
    (fun action ->
      match action with
      | Vm.Device.Dma_write { addr; data } ->
          s.mem <- Symmem.blit_concrete s.mem addr data;
          Array.iteri (fun i _ -> Dbt.invalidate t.dbt (addr + i)) data
      | Vm.Device.Raise_irq irq -> s.pending_irqs <- s.pending_irqs @ [ irq ])
    actions

let read32c t (s : State.t) addr =
  match Symmem.read_word s.mem addr with
  | Expr.Const { value; _ } -> Int64.to_int value
  | _ -> end_state t s (State.Faulted "symbolic value in vector table")

let do_port_read t (s : State.t) port =
  let default = Vm.Devices.read_port s.devices port in
  let in_sym_range =
    List.exists (fun (lo, hi) -> port >= lo && port < hi)
      t.config.symbolic_hardware_ports
  in
  let initial =
    if
      in_sym_range
      && Consistency.symbolic_hardware t.config.consistency
      && in_unit t s.pc && s.multipath
    then fresh_sym t (Printf.sprintf "hw_port_%x" port) 32
    else if in_sym_range && Consistency.concretized_hardware t.config.consistency
            && in_unit t s.pc then begin
      (* SC-UE: a symbolic hardware value blindly pinned to some concrete
         value (the solver's arbitrary pick), losing the paths other values
         would enable. *)
      let v = fresh_sym t (Printf.sprintf "hw_port_%x" port) 32 in
      Expr.const (concretize t s v)
    end
    else Expr.const (Int64.of_int default)
  in
  let pr = { Events.pr_state = s; pr_port = port; pr_value = initial } in
  Events.port_read t.events pr;
  pr.pr_value

(* Count an instruction that touched symbolic data. *)
let mark_sym (s : State.t) cond = if cond then s.sym_instret <- s.sym_instret + 1

(* Execute one instruction.  Updates [s.pc]. *)
let exec_insn t (s : State.t) addr insn =
  let next = addr + Insn.insn_size in
  s.instret <- s.instret + 1;
  match insn with
  | Insn.Alu { op; rd; rs1; rs2 } ->
      let a = State.get_reg s rs1 and b = State.get_reg s rs2 in
      mark_sym s (is_symbolic a || is_symbolic b);
      State.set_reg s rd (alu_expr op a b);
      s.pc <- next
  | Insn.Alui { op; rd; rs1; imm } ->
      let a = State.get_reg s rs1 in
      mark_sym s (is_symbolic a);
      State.set_reg s rd (alu_expr op a (to_expr32 imm));
      s.pc <- next
  | Insn.Li { rd; imm } ->
      State.set_reg s rd (to_expr32 imm);
      s.pc <- next
  | Insn.Mov { rd; rs1 } ->
      State.set_reg s rd (State.get_reg s rs1);
      s.pc <- next
  | Insn.Lw { rd; base; off } ->
      let addr_e = Expr.add (State.get_reg s base) (to_expr32 off) in
      mark_sym s (is_symbolic addr_e);
      State.set_reg s rd (do_read t s addr_e 4);
      s.pc <- next
  | Insn.Lb { rd; base; off } ->
      let addr_e = Expr.add (State.get_reg s base) (to_expr32 off) in
      mark_sym s (is_symbolic addr_e);
      State.set_reg s rd (do_read t s addr_e 1);
      s.pc <- next
  | Insn.Sw { src; base; off } ->
      let addr_e = Expr.add (State.get_reg s base) (to_expr32 off) in
      mark_sym s (is_symbolic addr_e || is_symbolic (State.get_reg s src));
      do_write t s addr_e (State.get_reg s src) 4;
      s.pc <- next
  | Insn.Sb { src; base; off } ->
      let addr_e = Expr.add (State.get_reg s base) (to_expr32 off) in
      mark_sym s (is_symbolic addr_e || is_symbolic (State.get_reg s src));
      do_write t s addr_e (State.get_reg s src) 1;
      s.pc <- next
  | Insn.Jmp { target } -> s.pc <- Int32.to_int target land 0xFFFFFFFF
  | Insn.Jr { rs1 } ->
      let target = State.get_reg s rs1 in
      mark_sym s (is_symbolic target);
      let dst = concrete_addr t s target in
      (* shadow call stack: a jump back to the innermost pending return
         address is a return *)
      (match s.ret_stack with
      | r :: rest when r = dst -> s.ret_stack <- rest
      | _ -> ());
      s.pc <- dst
  | Insn.Jal { target } ->
      let target = Int32.to_int target land 0xFFFFFFFF in
      State.set_reg s Insn.reg_lr (Expr.const (Int64.of_int next));
      s.ret_stack <- next :: s.ret_stack;
      on_call t s ~target ~return_addr:next ~via_syscall:false;
      s.pc <- target
  | Insn.Jalr { rs1 } ->
      let target = concrete_addr t s (State.get_reg s rs1) in
      State.set_reg s Insn.reg_lr (Expr.const (Int64.of_int next));
      s.ret_stack <- next :: s.ret_stack;
      on_call t s ~target ~return_addr:next ~via_syscall:false;
      s.pc <- target
  | Insn.Branch { cond; rs1; rs2; target } ->
      let a = State.get_reg s rs1 and b = State.get_reg s rs2 in
      let c = simplify t (branch_cond cond a b) in
      let taken_pc = Int32.to_int target land 0xFFFFFFFF in
      (match c with
      | Expr.Const { value = 1L; _ } -> s.pc <- taken_pc
      | Expr.Const _ -> s.pc <- next
      | _ ->
          mark_sym s true;
          symbolic_branch t s c ~taken_pc ~fall_pc:next)
  | Insn.In { rd; port; port_off } ->
      let p =
        Int64.to_int
          (concretize t s (Expr.add (State.get_reg s port) (to_expr32 port_off)))
      in
      let v =
        if p = 0x0f then Expr.const (Int64.of_int s.last_irq)
        else do_port_read t s p
      in
      mark_sym s (is_symbolic v);
      State.set_reg s rd v;
      s.pc <- next
  | Insn.Out { src; port; port_off } ->
      let p =
        Int64.to_int
          (concretize t s (Expr.add (State.get_reg s port) (to_expr32 port_off)))
      in
      (* Analyzers see the un-concretized value: symbolic provenance is how
         the privacy analyzer spots secrets leaving the system. *)
      Events.port_write t.events
        { pw_state = s; pw_port = p; pw_value = State.get_reg s src };
      let v = Int64.to_int (concretize t s (State.get_reg s src)) in
      apply_device_actions t s (Vm.Devices.write_port s.devices p v);
      s.pc <- next
  | Insn.Syscall ->
      Events.syscall t.events s;
      s.sepc <- next;
      let target = read32c t s Vm.Layout.vec_syscall in
      on_call t s ~target ~return_addr:next ~via_syscall:true;
      s.pc <- target
  | Insn.Sysret -> s.pc <- s.sepc
  | Insn.Iret ->
      s.pc <- s.iepc;
      s.in_irq <- false;
      s.irq_enabled <- true
  | Insn.Halt -> end_state t s State.Halted
  | Insn.Cli ->
      s.irq_enabled <- false;
      s.pc <- next
  | Insn.Sti ->
      s.irq_enabled <- true;
      s.pc <- next
  | Insn.Nop -> s.pc <- next
  | Insn.S2e { op; rs1; rs2; imm } ->
      (match op with
      | Insn.Sym_reg ->
          (* Under SC-CE the guest's request for symbolic data is ignored:
             the sample input stays concrete. *)
          if t.config.consistency <> Consistency.SC_CE then
            State.set_reg s rs1 (fresh_sym t (Printf.sprintf "sym%ld" imm) 32)
      | Insn.Sym_mem ->
          if t.config.consistency <> Consistency.SC_CE then begin
            let base = concrete_addr t s (State.get_reg s rs1) in
            let len = Int64.to_int (concretize t s (State.get_reg s rs2)) in
            for i = 0 to len - 1 do
              s.mem <-
                Symmem.write_byte s.mem (base + i)
                  (fresh_sym t (Printf.sprintf "sym%ld_%d" imm i) 8)
            done
          end
      | Insn.Enable_mp -> s.multipath <- true
      | Insn.Disable_mp -> s.multipath <- false
      | Insn.Print -> Events.print t.events s (State.get_reg s rs1)
      | Insn.Kill_path ->
          end_state t s (State.Killed (Printf.sprintf "guest kill (%ld)" imm))
      | Insn.Assert_op -> (
          let c = Expr.ne (State.get_reg s rs1) (Expr.const 0L) in
          match Expr.to_const c with
          | Some 1L -> ()
          | Some _ ->
              report_bug t s "assertion"
                (Printf.sprintf "assertion failed at 0x%x (tag %ld)" addr imm);
              end_state t s (State.Faulted "assertion failed")
          | None -> (
              match Solver.check_with ~ctx:t.solver ~constraints:s.constraints (Expr.log_not c) with
              | Solver.Sat _ ->
                  report_bug t s "assertion"
                    (Printf.sprintf
                       "assertion can fail at 0x%x (tag %ld) for some inputs"
                       addr imm);
                  (* Continue down the passing side if it exists. *)
                  (match Solver.check_with ~ctx:t.solver ~constraints:s.constraints c with
                  | Solver.Sat _ | Solver.Unknown -> State.add_constraint s c
                  | Solver.Unsat ->
                      end_state t s (State.Faulted "assertion always fails"))
              | Solver.Unsat | Solver.Unknown -> State.add_constraint s c))
      | Insn.Concretize ->
          let v = concretize t s (State.get_reg s rs1) in
          State.set_reg s rs1 (Expr.const v)
      | Insn.Disable_irq -> s.irqs_suppressed <- true
      | Insn.Enable_irq -> s.irqs_suppressed <- false);
      s.pc <- next

(* ------------------------------------------------------------------ *)
(* The main loop                                                       *)
(* ------------------------------------------------------------------ *)

let fetch_byte t (s : State.t) addr =
  match Symmem.concrete_byte s.mem addr with
  | Some b -> b
  | None -> end_state t s (State.Faulted "executing symbolic code")

(* Execute one translation block of [s].  The whole block runs inside an
   "execute" phase span; translate/solver/fork/concretize spans nested
   under it subtract themselves, so the span records pure guest-execution
   self time. *)
let exec_tb_body t (s : State.t) =
  Obs.Trace.set_current_path s.id;
  check_env_return t s;
  (* Interrupt delivery between blocks. *)
  (match s.pending_irqs with
  | irq :: rest when s.irq_enabled && (not s.in_irq) && not s.irqs_suppressed ->
      s.pending_irqs <- rest;
      s.last_irq <- irq;
      s.iepc <- s.pc;
      s.in_irq <- true;
      s.irq_enabled <- false;
      Events.interrupt t.events s irq;
      s.pc <- read32c t s Vm.Layout.vec_irq
  | _ -> ());
  let tb =
    Dbt.translate t.dbt
      ~fetch:(fun a -> fetch_byte t s a)
      ~on_translate:(fun a i -> Events.instr_translate t.events a i)
      s.pc
  in
  tb.exec_count <- tb.exec_count + 1;
  let sym_before = s.sym_instret in
  let n = Array.length tb.insns in
  let rec go i =
    if i < n && s.status = State.Active then begin
      let addr, insn = tb.insns.(i) in
      if s.pc <> addr then () (* control left the block (e.g. fork child) *)
      else begin
        if Events.has_before_instr t.events then
          Events.before_instr t.events s addr insn;
        if Events.has_instr_execute t.events && Dbt.is_marked t.dbt addr then
          Events.instr_execute t.events s addr insn;
        exec_insn t s addr insn;
        go (i + 1)
      end
    end
  in
  (try go 0 with Path_end -> ());
  (* Advance virtual time: slower when the block touched symbolic data. *)
  let ticks =
    if s.sym_instret > sym_before then max 1 (n / t.config.timer_divisor) else n
  in
  t.stats.concrete_instret <- t.stats.concrete_instret + n;
  Obs.Metrics.add m_instructions n;
  Obs.Metrics.add m_sym_instructions (s.sym_instret - sym_before);
  Obs.Metrics.set m_max_constraints (State.constraint_count s);
  s.virtual_time <- Int64.add s.virtual_time (Int64.of_int ticks);
  if s.status = State.Active && not s.irqs_suppressed then begin
    let irqs = Vm.Devices.tick s.devices ticks in
    List.iter (fun irq -> s.pending_irqs <- s.pending_irqs @ [ irq ]) irqs
  end

let exec_tb t (s : State.t) =
  Obs.Span.timed execute_phase (fun () -> exec_tb_body t s)

(** Execute one translation block of [s], absorbing path termination.
    Building block for external schedulers ({!Parallel}). *)
let exec_block t s = try exec_tb t s with Path_end -> ()

(** Adopt [s] into this engine's frontier: used when a parallel worker
    receives a state forked (or booted) by another engine. *)
let adopt t (s : State.t) =
  t.live <- s :: t.live;
  let live_count = List.length t.live in
  if live_count > t.stats.max_live_states then t.stats.max_live_states <- live_count;
  Obs.Metrics.set m_live live_count;
  Obs.Metrics.set m_max_live live_count;
  t.searcher.add s

(** Remove [s] from this engine's frontier without terminating it: the
    donation half of work stealing. *)
let disown t (s : State.t) =
  t.searcher.remove s;
  t.live <- List.filter (fun s' -> s'.State.id <> s.State.id) t.live;
  Obs.Metrics.set m_live (List.length t.live)

type run_limits = {
  max_instructions : int option;
  max_seconds : float option;
  max_completed : int option;
}

let no_limits = { max_instructions = None; max_seconds = None; max_completed = None }

(* Drive the searcher until it drains or a limit fires. *)
let run_loop ~(limits : run_limits) t =
  let started = Unix.gettimeofday () in
  let over_budget () =
    (match limits.max_instructions with
    | Some m -> t.stats.concrete_instret > m
    | None -> false)
    || (match limits.max_seconds with
       | Some sec -> Unix.gettimeofday () -. started > sec
       | None -> false)
    ||
    match limits.max_completed with
    | Some m -> t.stats.states_completed >= m
    | None -> false
  in
  (* The fork count of the last footprint sample: the watermark is
     sampled once per 16th fork, not on every block run at that count. *)
  let sampled = ref (-1) in
  let rec loop () =
    if not (over_budget ()) then
      match t.searcher.select () with
      | None -> ()
      | Some s ->
          (try exec_tb t s with Path_end -> ());
          if t.stats.forks land 15 = 0 && t.stats.forks <> !sampled then begin
            sampled := t.stats.forks;
            let fp = List.fold_left (fun acc s -> acc + State.footprint s) 0 t.live in
            if fp > t.stats.footprint_watermark then
              t.stats.footprint_watermark <- fp;
            Obs.Metrics.set m_footprint fp
          end;
          loop ()
  in
  loop ()

(** Explore from [initial] until the searcher drains or a limit is hit.
    Returns the number of completed paths. *)
let run ?(limits = no_limits) t initial =
  t.live <- [ initial ];
  t.searcher.add initial;
  run_loop ~limits t;
  t.stats.states_completed

(** Fork [s] on behalf of a plugin (e.g. to inject alternative concrete
    values at an interface, DDT-style).  The child starts at the same pc;
    the caller is expected to modify its registers or memory afterwards.
    Fork events fire with a [true] condition. *)
let plugin_fork t (s : State.t) =
  let child = State.fork s in
  t.stats.forks <- t.stats.forks + 1;
  Obs.Metrics.incr m_states_created;
  Obs.Metrics.incr m_forks;
  t.live <- child :: t.live;
  let live_count = List.length t.live in
  if live_count > t.stats.max_live_states then t.stats.max_live_states <- live_count;
  Obs.Metrics.set m_live live_count;
  Obs.Metrics.set m_max_live live_count;
  if Obs.Trace.enabled () then
    Obs.Trace.path_start ~path:child.id ~parent:s.id ();
  Events.fork t.events s child Expr.bool_t;
  t.searcher.add child;
  child

(** Kill every live path except [keep] (PathKiller support). *)
let kill_others t keep reason =
  List.iter
    (fun (s : State.t) ->
      if s.id <> keep.State.id && State.is_active s then begin
        s.status <- State.Killed reason;
        trace_path_end s;
        t.stats.states_completed <- t.stats.states_completed + 1;
        Obs.Metrics.incr m_states_completed;
        Events.state_end t.events s;
        t.searcher.remove s
      end)
    t.live;
  t.live <- List.filter State.is_active t.live;
  Obs.Metrics.set m_live (List.length t.live)

let kill_state t (s : State.t) reason =
  if State.is_active s then begin
    s.status <- State.Killed reason;
    trace_path_end s;
    t.stats.states_completed <- t.stats.states_completed + 1;
    Obs.Metrics.incr m_states_completed;
    Events.state_end t.events s;
    t.searcher.remove s;
    t.live <- List.filter State.is_active t.live;
    Obs.Metrics.set m_live (List.length t.live)
  end
