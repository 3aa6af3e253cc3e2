(** High-level constraint solver used by the symbolic execution engine.

    Sits above {!Bitblast}/{!Sat} and adds the optimizations KLEE/STP give
    the S2E prototype: independent-constraint slicing (only the constraints
    sharing variables with the query are sent to the SAT core), a
    counterexample/model cache (recent models are re-tried by evaluation
    before any SAT call), an unsatisfiable-set cache, and the [solver.*]
    registry metrics the Fig. 9 benchmarks report (per-query time, total
    solver time, query counts).

    All mutable solver state — the caches, the instance ring and the
    conflict budget — lives in an explicit {!ctx} record so that parallel
    workers can each own a private solver context ({!S2e_core.Parallel}).
    The module-level [max_conflicts] binding is a view of {!default_ctx}
    for single-threaded callers. *)

open S2e_expr
module Obs = S2e_obs

type result = Sat of Expr.model | Unsat | Unknown

(** SAT-core strategy for verdict queries (branch feasibility, case-tree
    pruning, assertion checks):

    - [Incremental] (default): a small ring of live SAT instances keyed on
      constraint-prefix hashes.  A query whose prefix matches a live
      instance pops back to the common ancestor assumption level and
      asserts only the suffix, keeping the variable table, Tseitin
      encodings and learned clauses alive across queries.
    - [Fresh]: one cold SAT instance per query — the escape hatch and the
      differential baseline.

    Value-producing queries (test-case models, [get_value] picks) always
    run on a cold instance in every mode: the values the engine pins must
    be a pure function of the constraint set, never of solver history, or
    serial/parallel/incremental runs would explore different paths. *)
type mode = Fresh | Incremental

let mode_name = function
  | Fresh -> "fresh"
  | Incremental -> "incremental"

let mode_of_string = function
  | "fresh" -> Some Fresh
  | "incremental" -> Some Incremental
  | _ -> None

(* The solver's counters live in the process-wide registry (lib/obs)
   only: every report reads them from a snapshot, merged across worker
   domains by the registry and across processes by the coordinator. *)
let m_queries = Obs.Metrics.counter "solver.queries"
let m_sat_queries = Obs.Metrics.counter "solver.sat_queries"
let m_cache_hits = Obs.Metrics.counter "solver.cache_hits"
let m_unknowns = Obs.Metrics.counter "solver.unknowns"
let m_timeouts = Obs.Metrics.counter "solver.timeouts"
let m_inc_hits = Obs.Metrics.counter "solver.inc_hits"
let m_inc_partials = Obs.Metrics.counter "solver.inc_partials"

(* Instance-ring occupancy: assumption frames pushed (one per constraint
   asserted above a query's common ancestor) and live instances created.
   Along a path, a child query pushes one frame on its parent's instance;
   a count near the path length per query means prefixes are not shared. *)
let m_inc_frames = Obs.Metrics.counter "solver.inc_frames"
let m_inc_instances = Obs.Metrics.counter "solver.inc_instances"

(* SAT-core clause learning: clauses ever learned, and the learned clauses
   live in the calling domain's instance ring after its last incremental
   query — the pool later prefix-matching queries reuse. *)
let m_sat_learned = Obs.Metrics.counter "solver.sat_learned"
let m_sat_kept = Obs.Metrics.gauge ~merge:Obs.Metrics.Sum "solver.sat_kept"

(* Literals the ring's instances propagated: the per-query cost of
   incremental search, which keeps each instance's trail between solves
   and so re-propagates only the frames that changed (DESIGN.md §12). *)
let m_inc_propagations = Obs.Metrics.counter "solver.inc_propagations"

(* CNF size over every cold and incremental call: SAT variables and
   problem clauses created (the ring's as per-instance deltas). *)
let m_sat_vars = Obs.Metrics.counter "solver.sat_vars"
let m_sat_clauses = Obs.Metrics.counter "solver.sat_clauses"

(* Search effort over every cold and incremental call: branching
   decisions and conflicts.  A solve that never conflicts leaves every
   activity at 0 and branches on the lowest unassigned index alone
   (DESIGN.md §12). *)
let m_decisions = Obs.Metrics.counter "solver.decisions"
let m_conflicts = Obs.Metrics.counter "solver.conflicts"

(* Where SAT-core time goes, over every cold and incremental call:
   building the CNF (bit-blasting, clause intake, assumption frames) and
   searching it.  Plain accumulators, not {!Obs.Span} phases, so the
   "solver" phase keeps its meaning. *)
let m_blast_s = Obs.Metrics.fcounter "solver.blast_s"
let m_search_s = Obs.Metrics.fcounter "solver.search_s"

let m_query_hist =
  Obs.Metrics.histogram
    ~bounds:[| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0 |]
    "solver.query_s"

let solver_phase = Obs.Span.phase "solver"

(** One solver context: caches + instance ring + budget.  Contexts are not
    thread-safe; each domain must use its own. *)
(* Recent models in a fixed-capacity ring, most recent first.  Evaluating
   a candidate model against the constraints is far cheaper than a SAT
   call and hits often because consecutive queries along a path share
   most constraints.  A ring keeps push O(1) with zero allocation, where
   the previous list rebuild copied all [model_cache_limit] cells per
   remembered model. *)
let model_cache_limit = 24

(* Per ring slot, a direct-mapped table of constraint verdicts under the
   slot's model, as [uid * 2 + holds]: consecutive queries along a path
   re-check the same constraints against the same recent models, and a
   verdict is a pure function of the (immutable) model and the
   constraint node, whose uid no other node ever takes.  Cleared when the
   slot takes a new model.  A slot's table is allocated when the slot
   first takes a model: a context that serves a few cold queries (one
   per test-case state) stays as small as before. *)
let verdict_slots = 128

type model_ring = {
  slots : Expr.model array;
  verdicts : int array array; (* per slot; -1 = empty entry *)
  mutable len : int;
  mutable head : int; (* index of the most recent entry; -1 when empty *)
}

let new_ring () =
  {
    slots = Array.make model_cache_limit Expr.Int_map.empty;
    verdicts = Array.make model_cache_limit [||];
    len = 0;
    head = -1;
  }

let ring_push r m =
  r.head <- (r.head + 1) mod model_cache_limit;
  r.slots.(r.head) <- m;
  if Array.length r.verdicts.(r.head) = 0 then
    r.verdicts.(r.head) <- Array.make verdict_slots (-1)
  else Array.fill r.verdicts.(r.head) 0 verdict_slots (-1);
  if r.len < model_cache_limit then r.len <- r.len + 1

let ring_clear r =
  Array.fill r.slots 0 model_cache_limit Expr.Int_map.empty;
  Array.iter (fun v -> Array.fill v 0 (Array.length v) (-1)) r.verdicts;
  r.len <- 0;
  r.head <- -1

(* Does [m] satisfy every constraint?  [verdicts] is the memo of [m]'s
   slot.  Constraints are width-1, so [Expr.eval_int] decides them
   without boxing an int64 per node. *)
let rec satisfies verdicts m = function
  | [] -> true
  | c :: rest ->
      let id = Expr.node_id c in
      let k = id land (verdict_slots - 1) in
      let v = Array.unsafe_get verdicts k in
      (if v lsr 1 = id then v land 1 = 1
       else begin
         let holds = Expr.eval_int m c = 1 in
         Array.unsafe_set verdicts k ((id lsl 1) lor Bool.to_int holds);
         holds
       end)
      && satisfies verdicts m rest

(* The most recent model satisfying [constraints]: a most-recent-first
   scan, mirroring the old list's lookup order. *)
let ring_find_model r constraints =
  let cap = model_cache_limit in
  let rec go i =
    if i >= r.len then None
    else
      let slot = (r.head - i + cap) mod cap in
      let m = r.slots.(slot) in
      if satisfies r.verdicts.(slot) m constraints then Some m else go (i + 1)
  in
  go 0

let ring_to_list r =
  let cap = model_cache_limit in
  List.init r.len (fun i -> r.slots.((r.head - i + cap) mod cap))

(* One live SAT instance of the incremental ring.  [istack] is the
   constraint stack currently asserted, oldest-first; entry [i] is one
   {!Sat.push}ed frame holding one {!Sat.assume}d literal, so popping back
   to a common ancestor is [ilen - k] pops.  The {!Bitblast.ctx} is
   the per-instance persistent CNF map: every interned expression node
   bitblasts once per instance, not once per query. *)
type instance = {
  isat : Sat.t;
  ibctx : Bitblast.ctx;
  mutable istack : Expr.t array;
  mutable ilen : int;
  mutable itick : int; (* LRU clock *)
  mutable ilearned : int; (* Sat learned-total last added to the registry *)
  mutable ipropagated : int; (* Sat propagations last added to the registry *)
  mutable idecisions : int; (* Sat decisions last added to the registry *)
  mutable iconflicts : int; (* Sat conflicts last added to the registry *)
  mutable ivars : int; (* Sat variables last added to the registry *)
  mutable iclauses : int; (* Sat problem clauses last added to the registry *)
}

(* Ring capacity: sibling probes and parent/child chains need very few
   concurrently-live families; a small ring bounds memory while covering
   the interleaving the scheduler produces. *)
let inst_ring_cap = 4

(* Retire an instance once its clause database (problem + surviving
   learned clauses) outgrows this — the memory bound of the ring. *)
let inst_retire_clauses = 300_000

type ctx = {
  model_cache : model_ring;
  (* Unsatisfiable-set cache: loops whose infeasible side is re-queried
     every iteration would otherwise pay a full SAT call each time.  Keyed
     by the interned expressions' cached hashes, verified by structural
     equality (physical in the common case). *)
  unsat_cache : (int, Expr.t list list) Hashtbl.t;
  max_conflicts : int ref;
  timeout_ms : float option ref; (* wall-clock watchdog per SAT-core call *)
  mode : mode ref;
  insts : instance option array; (* the incremental instance ring *)
  mutable inst_tick : int;
}

(* Watchdog inherited by contexts created after it is set: parallel and
   distributed workers call [create_ctx ()] internally, so a CLI-level
   [--solver-timeout-ms] must flow to them without threading a parameter
   through every scheduler. *)
let default_timeout_ms : float option ref = ref None

(* Same inheritance story as the watchdog: contexts created by parallel /
   distributed workers pick up the CLI-selected solver mode without a
   parameter thread. *)
let default_mode : mode ref = ref Incremental

let create_ctx ?(max_conflicts = 200_000) ?timeout_ms ?mode () =
  {
    model_cache = new_ring ();
    unsat_cache = Hashtbl.create 256;
    max_conflicts = ref max_conflicts;
    timeout_ms =
      ref (match timeout_ms with Some _ as t -> t | None -> !default_timeout_ms);
    mode = ref (match mode with Some m -> m | None -> !default_mode);
    insts = Array.make inst_ring_cap None;
    inst_tick = 0;
  }

let default_ctx = create_ctx ()

(* Module-level view of the default context's budget. *)
let max_conflicts = default_ctx.max_conflicts

let models ctx = ring_to_list ctx.model_cache
let latest_model ctx =
  let r = ctx.model_cache in
  if r.len = 0 then None else Some r.slots.(r.head)

(* [default_ctx] predates any CLI flag parsing, so changing the default
   watchdog must also retrofit it. *)
let set_default_timeout_ms t =
  default_timeout_ms := t;
  default_ctx.timeout_ms := t

(* [default_ctx] likewise predates CLI parsing. *)
let set_default_mode m =
  default_mode := m;
  default_ctx.mode := m

let clear_caches ctx =
  ring_clear ctx.model_cache;
  Hashtbl.reset ctx.unsat_cache;
  Array.fill ctx.insts 0 inst_ring_cap None

let remember_model ctx m = ring_push ctx.model_cache m

(* Order-dependent mix of the interned per-node hashes: O(1) per
   constraint where the old [Hashtbl.hash] walked (a depth-limited slice
   of) each tree, and collision-resistant where depth limiting made deep
   distinct trees collide systematically. *)
let mix h k =
  let h = (h lxor k) * 0x27d4eb2f165667c5 in
  h lxor (h lsr 29)

let constraints_key constraints =
  List.fold_left (fun acc c -> mix acc (Expr.hash c)) 17 constraints

let unsat_cached ctx constraints =
  let key = constraints_key constraints in
  match Hashtbl.find_opt ctx.unsat_cache key with
  | None -> false
  | Some entries ->
      List.exists (fun cs -> List.equal Expr.equal cs constraints) entries

(* The per-key entry list is capped, and so is the key population: past
   [unsat_cache_keys] distinct keys the table is reset outright.  Long
   runs previously grew it without bound; brief amnesia is cheaper than
   an eviction policy for what is purely an optimization. *)
let unsat_cache_keys = 1024

let remember_unsat ctx constraints =
  let key = constraints_key constraints in
  if
    Hashtbl.length ctx.unsat_cache >= unsat_cache_keys
    && not (Hashtbl.mem ctx.unsat_cache key)
  then Hashtbl.reset ctx.unsat_cache;
  let entries = Option.value ~default:[] (Hashtbl.find_opt ctx.unsat_cache key) in
  if List.length entries < 8 then
    Hashtbl.replace ctx.unsat_cache key (constraints :: entries)

(* ------------------------------------------------------------------ *)
(* Independent-constraint slicing                                      *)
(* ------------------------------------------------------------------ *)

(* Keep only constraints transitively sharing variables with [seed_vars].
   Constraints mentioning no seed variable cannot affect satisfiability of
   the query (they are satisfiable on their own by path construction).
   [Expr.vars] reads the variable set cached in each interned node, so a
   slice costs set operations only — no tree walks.

   Each round scans the constraints not yet kept, in list order, against
   the frontier as it stood when the round began, and keeps every one
   that shares a variable with it; the kept constraints' variables join
   the frontier for the next round.  The result lists the kept
   constraints newest-kept first: the last round's, last-in-list first,
   down to the first round's.  A kept constraint's variables are unioned
   into the frontier only when one of them is new; along a path whose
   constraints all mention the same input, none is. *)
let slice ~seed_vars constraints =
  let n = List.length constraints in
  let kept = Bytes.make n '\000' in
  let relevant = ref [] in
  let frontier = ref seed_vars in
  (* [Int_set.disjoint] and [Int_set.subset] split and rebuild trees;
     membership tests of a constraint's few variables allocate nothing. *)
  let in_frontier v = Expr.Int_set.mem v !frontier in
  let changed = ref true in
  while !changed do
    changed := false;
    let start = !frontier in
    let in_start v = Expr.Int_set.mem v start in
    List.iteri
      (fun i c ->
        if Bytes.unsafe_get kept i = '\000' then begin
          let vs = Expr.vars c in
          if Expr.Int_set.exists in_start vs then begin
            Bytes.unsafe_set kept i '\001';
            changed := true;
            relevant := c :: !relevant;
            if not (Expr.Int_set.for_all in_frontier vs) then
              frontier := Expr.Int_set.union !frontier vs
          end
        end)
      constraints
  done;
  !relevant

(* ------------------------------------------------------------------ *)
(* Core check                                                          *)
(* ------------------------------------------------------------------ *)

(* Watchdog budget starts before bitblasting so a pathological encoding
   cannot starve the deadline check. *)
let query_deadline ctx =
  Option.map
    (fun ms -> Unix.gettimeofday () +. (ms /. 1000.))
    !(ctx.timeout_ms)

let note_unknown deadline =
  match deadline with
  | Some d when Unix.gettimeofday () >= d -> Obs.Metrics.incr m_timeouts
  | _ -> ()

(* Report an instance's SAT-core learning, propagations, decisions and
   conflicts as deltas (monotone per instance), [kept] as the current live
   pool summed over the ring. *)
let note_sat_stats ctx inst =
  let sst = Sat.stats inst.isat in
  Obs.Metrics.add m_sat_learned (sst.Sat.learned - inst.ilearned);
  inst.ilearned <- sst.Sat.learned;
  Obs.Metrics.add m_inc_propagations (sst.Sat.propagations - inst.ipropagated);
  inst.ipropagated <- sst.Sat.propagations;
  Obs.Metrics.add m_decisions (sst.Sat.decisions - inst.idecisions);
  inst.idecisions <- sst.Sat.decisions;
  Obs.Metrics.add m_conflicts (sst.Sat.conflicts - inst.iconflicts);
  inst.iconflicts <- sst.Sat.conflicts;
  Obs.Metrics.add m_sat_vars (sst.Sat.vars - inst.ivars);
  inst.ivars <- sst.Sat.vars;
  Obs.Metrics.add m_sat_clauses (sst.Sat.clauses - inst.iclauses);
  inst.iclauses <- sst.Sat.clauses;
  Obs.Metrics.set m_sat_kept
    (Array.fold_left
       (fun acc -> function
         | None -> acc
         | Some i -> acc + (Sat.stats i.isat).Sat.learned_kept)
       0 ctx.insts)

(* The cold instance of the calling domain: [run_sat] resets it before
   every query, which leaves it exactly as [Sat.create] would, so reusing
   it changes no decision, only where the clauses are stored. *)
let cold_sat = Domain.DLS.new_key Sat.create

(* One cold SAT instance per query: the [Fresh] strategy, and the only
   strategy value-producing (pristine) queries ever use — the model found
   is a pure function of the constraint set. *)
let run_sat ctx constraints =
  Obs.Metrics.incr m_sat_queries;
  let deadline = query_deadline ctx in
  let t0 = Unix.gettimeofday () in
  let sat = Domain.DLS.get cold_sat in
  Sat.reset sat;
  let bctx = Bitblast.create sat in
  List.iter (Bitblast.assert_true bctx) constraints;
  let t1 = Unix.gettimeofday () in
  let r = Sat.solve ~max_conflicts:!(ctx.max_conflicts) ?deadline sat in
  let t2 = Unix.gettimeofday () in
  Obs.Metrics.fadd m_blast_s (t1 -. t0);
  Obs.Metrics.fadd m_search_s (t2 -. t1);
  (* [reset] zeroed the counters: the instance's totals are this call's. *)
  let sst = Sat.stats sat in
  Obs.Metrics.add m_sat_learned sst.Sat.learned;
  Obs.Metrics.add m_decisions sst.Sat.decisions;
  Obs.Metrics.add m_conflicts sst.Sat.conflicts;
  Obs.Metrics.add m_sat_vars sst.Sat.vars;
  Obs.Metrics.add m_sat_clauses sst.Sat.clauses;
  match r with
  | Sat.Sat ->
      let m = Bitblast.model bctx in
      remember_model ctx m;
      Sat m
  | Sat.Unsat -> Unsat
  | Sat.Unknown ->
      note_unknown deadline;
      Unknown

(* The [Incremental] strategy.  The canonical constraint list's head is
   the query-specific condition; the tail is the path's constraints
   oldest first, and is matched against the ring's live assumption
   stacks.  The best-overlap instance pops back to the common ancestor
   frame and asserts only the suffix; the head is probed as a per-call
   assumption, so sibling feasibility pairs (c, ¬c) are two probes on one
   instance and learned clauses carry across every query the instance
   serves.

   The match only pays if every stack holds its path in that one order:
   then a child query shares its parent's whole stack and pushes only
   its new constraints.  [check_with] and [check_branch] pass a {!slice}
   as it comes, oldest-first (within each slicing round; a later round's
   constraints come before an earlier one's, which costs reuse, never
   soundness); {!check} reverses the tail of its newest-first path.
   [slice]'s own order stays as it is: cold queries blast in it
   (DESIGN.md §12). *)
let run_incremental ctx ~q_inc constraints =
  Obs.Metrics.incr m_sat_queries;
  let probe, base =
    match constraints with
    | p :: tl -> (p, Array.of_list tl)
    | [] -> assert false (* check_ctx answers [] without a SAT call *)
  in
  let nbase = Array.length base in
  let overlap inst =
    let n = min inst.ilen nbase in
    let k = ref 0 in
    while !k < n && Expr.equal inst.istack.(!k) base.(!k) do incr k done;
    !k
  in
  let best = ref None in
  Array.iter
    (function
      | None -> ()
      | Some inst ->
          let k = overlap inst in
          let better =
            match !best with
            | None -> true
            | Some (_, bk, btick) -> k > bk || (k = bk && inst.itick > btick)
          in
          if better then best := Some (inst, k, inst.itick))
    ctx.insts;
  let inst, k =
    match !best with
    | Some (inst, k, _) when k > 0 || nbase = 0 -> (inst, k)
    | _ ->
        (* No live stack shares a prefix: open a new instance in the
           first free slot, or in place of the least recently used one. *)
        let age = function None -> -1 | Some inst -> inst.itick in
        let slot = ref 0 in
        for i = 1 to inst_ring_cap - 1 do
          if age ctx.insts.(i) < age ctx.insts.(!slot) then slot := i
        done;
        let sat = Sat.create () in
        let inst =
          {
            isat = sat;
            ibctx = Bitblast.create sat;
            istack = Array.make (max 8 nbase) Expr.bool_t;
            ilen = 0;
            itick = 0;
            ilearned = 0;
            ipropagated = 0;
            idecisions = 0;
            iconflicts = 0;
            ivars = 0;
            iclauses = 0;
          }
        in
        ctx.insts.(!slot) <- Some inst;
        Obs.Metrics.incr m_inc_instances;
        (inst, 0)
  in
  ctx.inst_tick <- ctx.inst_tick + 1;
  inst.itick <- ctx.inst_tick;
  let t0 = Unix.gettimeofday () in
  (* Pop back to the common ancestor, assert the suffix — one retractable
     frame per constraint, so any later query can land between them. *)
  while inst.ilen > k do
    Sat.pop inst.isat;
    inst.ilen <- inst.ilen - 1
  done;
  if Array.length inst.istack < nbase then begin
    let a = Array.make (max nbase (2 * Array.length inst.istack)) Expr.bool_t in
    Array.blit inst.istack 0 a 0 inst.ilen;
    inst.istack <- a
  end;
  for i = k to nbase - 1 do
    Sat.push inst.isat;
    Sat.assume inst.isat (Bitblast.literal inst.ibctx base.(i));
    inst.istack.(i) <- base.(i)
  done;
  Obs.Metrics.add m_inc_frames (nbase - k);
  inst.ilen <- nbase;
  (* Realized reuse means a nonempty shared prefix survived the pop; a
     new instance reuses nothing, so it stays classified fresh. *)
  if k = 0 then q_inc := 0
  else if k = nbase then begin
    q_inc := 2;
    Obs.Metrics.incr m_inc_hits
  end
  else begin
    q_inc := 1;
    Obs.Metrics.incr m_inc_partials
  end;
  let deadline = query_deadline ctx in
  let plit = Bitblast.literal inst.ibctx probe in
  (* The conflict budget is per query: the bound Sat.solve takes is an
     absolute counter, so offset it by the instance's lifetime total. *)
  let budget = (Sat.stats inst.isat).Sat.conflicts + !(ctx.max_conflicts) in
  let t1 = Unix.gettimeofday () in
  let r = Sat.solve_assuming ~max_conflicts:budget ?deadline inst.isat [ plit ] in
  let t2 = Unix.gettimeofday () in
  Obs.Metrics.fadd m_blast_s (t1 -. t0);
  Obs.Metrics.fadd m_search_s (t2 -. t1);
  let result =
    match r with
    | Sat.Sat ->
        (* The persistent context has blasted every query this instance
           ever served; restrict the model to this query's variables so
           callers see the same domain a fresh per-query context gives. *)
        let vs =
          List.fold_left
            (fun acc c -> Expr.Int_set.union acc (Expr.vars c))
            Expr.Int_set.empty constraints
        in
        let m =
          Expr.Int_map.filter
            (fun v _ -> Expr.Int_set.mem v vs)
            (Bitblast.model inst.ibctx)
        in
        remember_model ctx m;
        Sat m
    | Sat.Unsat -> Unsat
    | Sat.Unknown ->
        note_unknown deadline;
        Unknown
  in
  note_sat_stats ctx inst;
  (* Bound the ring's memory: retire instances whose clause database
     (problem + surviving learned clauses) has outgrown the budget. *)
  if Sat.size inst.isat > inst_retire_clauses then
    Array.iteri
      (fun i -> function
        | Some other when other == inst -> ctx.insts.(i) <- None
        | _ -> ())
      ctx.insts;
  result

(* Simplify every constraint, in order, and drop the ones that became
   [true].  Returns the input list itself when nothing changed (the
   common case: the executor simplifies branch conditions before they
   join a path), so such a query allocates no copy of its constraints. *)
let rec simplify_all = function
  | [] -> []
  | c :: rest as l ->
      let c' = Simplifier.simplify c in
      let rest' = simplify_all rest in
      if Expr.equal c' Expr.bool_t then rest'
      else if c' == c && rest' == rest then l
      else c' :: rest'

(* [use_model_cache:false] makes the returned model a pure function of the
   constraint set (the SAT core is deterministic), independent of any
   queries the context answered before.  Value-picking paths (concretize,
   get_value) rely on this so that serial and parallel exploration pin the
   same concrete values and hence explore the same path set.

   Each query runs inside a "solver" phase span: the span feeds the
   registry's exclusive-time breakdown, and its single pair of clock
   readings also feeds the latency histogram (whose sum is the total
   solver time) and the per-query trace event through [on_elapsed].
   [query] builds the constraint list inside the span, so the slicing
   and reordering callers do is booked as solver time. *)
let check_ctx ~use_model_cache ctx query =
  Obs.Metrics.incr m_queries;
  (* Attribution facts for this query, filled in by the canonicalization
     below and consumed once the span closes. *)
  let q_prefix = ref 0 in
  let q_nodes = ref 0 in
  let q_cache = ref 0 (* 0 miss / 1 model hit / 2 unsat hit *) in
  let q_inc = ref 0 (* 0 fresh / 1 partial prefix hit / 2 full hit *) in
  let q_result = ref 2 (* 0 sat / 1 unsat / 2 unknown *) in
  Obs.Span.timed solver_phase
    ~on_elapsed:(fun dt ->
      Obs.Metrics.observe m_query_hist dt;
      if Obs.Trace.enabled () then
        Obs.Trace.query ~inc:!q_inc ~dur:dt ~prefix:!q_prefix ~nodes:!q_nodes
          ~result:!q_result ~cache:!q_cache ())
    (fun () ->
      let constraints = simplify_all (query ()) in
      if List.exists (fun c -> Expr.equal c Expr.bool_f) constraints then begin
        q_result := 1;
        Unsat
      end
      else if constraints = [] then begin
        q_result := 0;
        Sat Expr.Int_map.empty
      end
      else begin
        (* The canonical list's head is the query-specific condition
           ([check_with] conses it onto the slice); the tail is the
           inherited assumption stack, whose hash groups the trace's
           per-prefix attribution. *)
        if Obs.Trace.enabled () then begin
          (match constraints with
          | _ :: tl -> q_prefix := constraints_key tl
          | [] -> ());
          q_nodes :=
            List.fold_left (fun acc c -> acc + Expr.size c) 0 constraints
        end;
        (* Fault injection fires per canonical query, before any cache
           lookup: cache-hit patterns are solver-history-dependent and
           differ across modes, so firing deeper (per SAT-core call, as
           before) would desynchronize the seeded fault stream between
           incremental and fresh runs and break their differential. *)
        if S2e_fault.Fault.(fire Solver_latency) then Unix.sleepf 0.005;
        if S2e_fault.Fault.(fire Solver_unknown) then begin
          Obs.Metrics.incr m_unknowns;
          Unknown
        end
        else
        let cached_model =
          if use_model_cache then
            ring_find_model ctx.model_cache constraints
          else None
        in
        match cached_model with
        | Some m ->
            Obs.Metrics.incr m_cache_hits;
            q_cache := 1;
            q_result := 0;
            Sat m
        | None ->
            if unsat_cached ctx constraints then begin
              Obs.Metrics.incr m_cache_hits;
              q_cache := 2;
              q_result := 1;
              Unsat
            end
            else begin
              let r =
                (* Pristine (value-producing) queries always solve cold;
                   verdict queries go through the configured strategy. *)
                if not use_model_cache then run_sat ctx constraints
                else
                  match !(ctx.mode) with
                  | Fresh -> run_sat ctx constraints
                  | Incremental -> run_incremental ctx ~q_inc constraints
              in
              (match r with
              | Unsat ->
                  q_result := 1;
                  remember_unsat ctx constraints
              | Unknown ->
                  (* Never silently fold Unknown into Unsat: the
                     value-picking callers below still return [None],
                     but the miss is now visible in run stats. *)
                  Obs.Metrics.incr m_unknowns
              | Sat _ -> q_result := 0);
              r
            end
      end)

(** Is the conjunction of [constraints] satisfiable?  Returns a model on
    success.  [constraints] is in path order, newest first, as
    [State.constraints] holds it; the query keeps the head and lists the
    rest oldest-first, the order {!run_incremental} matches stacks in. *)
let check ?(ctx = default_ctx) constraints =
  check_ctx ~use_model_cache:true ctx (fun () ->
      match constraints with [] -> [] | c :: rest -> c :: List.rev rest)

(** Satisfiability of [constraints ∧ cond]: used to decide branch
    feasibility.  The constraint set is sliced around [cond]'s variables. *)
let check_with ?(ctx = default_ctx) ~constraints cond =
  check_ctx ~use_model_cache:true ctx (fun () ->
      cond :: slice ~seed_vars:(Expr.vars cond) constraints)

(** A model of [constraints] that is a pure function of the constraint
    set: bypasses the model cache and solves on a cold SAT instance in
    every mode.  Test-case extraction uses this so that case bytes are
    identical across serial / parallel / incremental / fresh runs. *)
let check_model ?(ctx = default_ctx) constraints =
  check_ctx ~use_model_cache:false ctx (fun () -> constraints)

(** Feasibility of both sides of a fork in one shared-prefix query pair:
    [cond] and [¬cond] are sliced once (their variable sets coincide up to
    negation) and probed against the same canonical prefix, which in
    incremental mode means two assumption probes on one live SAT instance
    — the second probe reuses the first's encoding and learned clauses. *)
let check_branch ?(ctx = default_ctx) ~constraints cond =
  let neg = Expr.log_not cond in
  (* [neg] is [cond] xor 1: it mentions no variable [cond] does not.  The
     slice is taken inside the first query's span. *)
  let sliced = lazy (slice ~seed_vars:(Expr.vars cond) constraints) in
  let taken =
    check_ctx ~use_model_cache:true ctx (fun () -> cond :: Lazy.force sliced)
  in
  let fall =
    check_ctx ~use_model_cache:true ctx (fun () -> neg :: Lazy.force sliced)
  in
  (taken, fall)

(** A concrete value for [e] consistent with [constraints], if any.  The
    model cache is bypassed so the pick depends only on the constraint set,
    not on the context's history (see {!check_ctx}). *)
let get_value ?(ctx = default_ctx) ~constraints e =
  match Expr.to_const e with
  | Some v -> Some v
  | None -> (
      match
        check_ctx ~use_model_cache:false ctx (fun () ->
            slice ~seed_vars:(Expr.vars e) constraints)
      with
      | Sat m -> Some (Expr.eval m e)
      | Unsat | Unknown -> None)

(** Must [e] evaluate to a single value under [constraints]?  Returns that
    value when it is unique. *)
let get_unique_value ?(ctx = default_ctx) ~constraints e =
  match Expr.to_const e with
  | Some v -> Some v
  | None -> (
      match get_value ~ctx ~constraints e with
      | None -> None
      | Some v ->
          let differs = Expr.ne e (Expr.const ~width:(Expr.width e) v) in
          (match check_with ~ctx ~constraints differs with
          | Unsat -> Some v
          | Sat _ | Unknown -> None))

(** Up to [limit] distinct concrete values for [e] under [constraints].
    Deterministic: enumeration bypasses the model cache. *)
let get_values ?(ctx = default_ctx) ~constraints ~limit e =
  (* The slice depends only on [e]'s variables and the constraint set,
     both loop-invariant: blocking constraints added during enumeration
     mention only variables of [e], which are in the seed already.  It is
     taken inside the first query's span. *)
  let sliced = lazy (slice ~seed_vars:(Expr.vars e) constraints) in
  let rec go acc extra n =
    if n = 0 then List.rev acc
    else
      match
        check_ctx ~use_model_cache:false ctx (fun () ->
            extra @ Lazy.force sliced)
      with
      | Sat m ->
          let v = Expr.eval m e in
          let block = Expr.ne e (Expr.const ~width:(Expr.width e) v) in
          go (v :: acc) (block :: extra) (n - 1)
      | Unsat | Unknown -> List.rev acc
  in
  go [] [] limit
