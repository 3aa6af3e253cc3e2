(** High-level constraint solver used by the symbolic execution engine.

    Sits above {!Bitblast}/{!Sat} and adds the optimizations KLEE/STP give
    the S2E prototype: independent-constraint slicing (only the constraints
    sharing variables with the query are sent to the SAT core), a
    counterexample/model cache (recent models are re-tried by evaluation
    before any SAT call), an unsatisfiable-set cache, and statistics that
    the Fig. 9 benchmarks report (per-query time, total solver time, query
    counts).

    All mutable solver state — the two caches, the statistics and the
    conflict budget — lives in an explicit {!ctx} record so that parallel
    workers can each own a private solver context ({!S2e_core.Parallel}).
    The module-level [stats]/[model_cache]/[max_conflicts]/[reset_stats]
    bindings are thin views of {!default_ctx}, kept so single-threaded
    callers and the existing benchmarks compile unchanged. *)

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

(* Process-wide telemetry (lib/obs).  [ctx_stats] stays the per-context
   view parallel workers aggregate; the registry is the merged live view
   the run-stats reporter streams.  Both are fed from the same sites, so
   they cannot drift. *)
let m_queries = Obs.Metrics.counter "solver.queries"
let m_sat_queries = Obs.Metrics.counter "solver.sat_queries"
let m_cache_hits = Obs.Metrics.counter "solver.cache_hits"
let m_unknowns = Obs.Metrics.counter "solver.unknowns"
let m_timeouts = Obs.Metrics.counter "solver.timeouts"
let m_inc_hits = Obs.Metrics.counter "solver.inc_hits"
let m_inc_partials = Obs.Metrics.counter "solver.inc_partials"

let m_query_hist =
  Obs.Metrics.histogram
    ~bounds:[| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0 |]
    "solver.query_s"

let solver_phase = Obs.Span.phase "solver"

type stats = {
  mutable queries : int;
  mutable sat_queries : int; (* queries that reached the SAT core *)
  mutable cache_hits : int;
  mutable unknowns : int; (* queries answered Unknown (budget/deadline/fault) *)
  mutable total_time : float;
  mutable max_time : float;
  mutable prefix_reused : int;
      (* queries whose constraint prefix (assumption stack below the query
         condition) this context had already seen *)
  mutable prefix_reused_time : float;
  (* Realized incremental reuse (vs [prefix_reused]'s opportunity): *)
  mutable inc_hits : int; (* probes on an instance matching the whole prefix *)
  mutable inc_partials : int; (* popped to a common ancestor, suffix asserted *)
  (* SAT-core clause learning, aggregated over this context's instances: *)
  mutable sat_learned : int; (* learned clauses ever created *)
  mutable sat_kept : int; (* learned clauses live across queries (reuse pool) *)
}

(** One solver context: caches + statistics + budget.  Contexts are not
    thread-safe; each domain must use its own. *)
(* Recent models in a fixed-capacity ring, most recent first.  Evaluating
   a candidate model against the constraints is far cheaper than a SAT
   call and hits often because consecutive queries along a path share
   most constraints.  A ring keeps push O(1) with zero allocation, where
   the previous list rebuild copied all [model_cache_limit] cells per
   remembered model. *)
let model_cache_limit = 24

type model_ring = {
  slots : Expr.model array;
  mutable len : int;
  mutable head : int; (* index of the most recent entry; -1 when empty *)
}

let new_ring () =
  { slots = Array.make model_cache_limit Expr.Int_map.empty; len = 0; head = -1 }

let ring_push r m =
  r.head <- (r.head + 1) mod model_cache_limit;
  r.slots.(r.head) <- m;
  if r.len < model_cache_limit then r.len <- r.len + 1

let ring_clear r =
  Array.fill r.slots 0 model_cache_limit Expr.Int_map.empty;
  r.len <- 0;
  r.head <- -1

(* Most-recent-first scan, mirroring the old list's lookup order. *)
let ring_find r p =
  let cap = model_cache_limit in
  let rec go i =
    if i >= r.len then None
    else
      let m = r.slots.((r.head - i + cap) mod cap) in
      if p m then Some m else go (i + 1)
  in
  go 0

let ring_to_list r =
  let cap = model_cache_limit in
  List.init r.len (fun i -> r.slots.((r.head - i + cap) mod cap))

(* One live SAT instance of the incremental ring.  [istack] is the
   constraint stack currently asserted, oldest-first; entry [i] is one
   {!Sat.push}ed frame holding one {!Sat.assume}d literal, so popping back
   to a common ancestor is [ilen - k] O(1) pops.  The {!Bitblast.ctx} is
   the per-instance persistent CNF map: every interned expression node
   bitblasts once per instance, not once per query. *)
type instance = {
  isat : Sat.t;
  ibctx : Bitblast.ctx;
  mutable istack : Expr.t array;
  mutable ilen : int;
  mutable itick : int; (* LRU clock *)
  mutable ilearned : int; (* Sat learned-total last folded into ctx stats *)
}

(* Ring capacity: sibling probes and parent/child chains need very few
   concurrently-live families; a small ring bounds memory while covering
   the interleaving the scheduler produces. *)
let inst_ring_cap = 4

(* Retire an instance once its clause database (problem + surviving
   learned clauses) outgrows this — the memory bound of the ring. *)
let inst_retire_clauses = 300_000

type ctx = {
  ctx_stats : stats;
  model_cache : model_ring;
  (* Unsatisfiable-set cache: loops whose infeasible side is re-queried
     every iteration would otherwise pay a full SAT call each time.  Keyed
     by the interned expressions' cached hashes, verified by structural
     equality (physical in the common case). *)
  unsat_cache : (int, Expr.t list list) Hashtbl.t;
  (* Constraint-prefix hashes already queried at least once in this
     context: the measurement base for the prefix-reuse share an
     assumption-stack (incremental) solver could exploit. *)
  seen_prefixes : (int, unit) Hashtbl.t;
  max_conflicts : int ref;
  timeout_ms : float option ref; (* wall-clock watchdog per SAT-core call *)
  mode : mode ref;
  insts : instance option array; (* the incremental instance ring *)
  mutable inst_tick : int;
}

let new_stats () =
  {
    queries = 0;
    sat_queries = 0;
    cache_hits = 0;
    unknowns = 0;
    total_time = 0.;
    max_time = 0.;
    prefix_reused = 0;
    prefix_reused_time = 0.;
    inc_hits = 0;
    inc_partials = 0;
    sat_learned = 0;
    sat_kept = 0;
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
    ctx_stats = new_stats ();
    model_cache = new_ring ();
    unsat_cache = Hashtbl.create 256;
    seen_prefixes = Hashtbl.create 256;
    max_conflicts = ref max_conflicts;
    timeout_ms =
      ref (match timeout_ms with Some _ as t -> t | None -> !default_timeout_ms);
    mode = ref (match mode with Some m -> m | None -> !default_mode);
    insts = Array.make inst_ring_cap None;
    inst_tick = 0;
  }

let default_ctx = create_ctx ()

(* Legacy module-level views over the default context. *)
let stats = default_ctx.ctx_stats
let max_conflicts = default_ctx.max_conflicts

let models ctx = ring_to_list ctx.model_cache
let latest_model ctx = ring_find ctx.model_cache (fun _ -> true)

(* [default_ctx] predates any CLI flag parsing, so changing the default
   watchdog must also retrofit it. *)
let set_default_timeout_ms t =
  default_timeout_ms := t;
  default_ctx.timeout_ms := t

(* [default_ctx] likewise predates CLI parsing. *)
let set_default_mode m =
  default_mode := m;
  default_ctx.mode := m

let reset_stats ?(ctx = default_ctx) () =
  let st = ctx.ctx_stats in
  st.queries <- 0;
  st.sat_queries <- 0;
  st.cache_hits <- 0;
  st.unknowns <- 0;
  st.total_time <- 0.;
  st.max_time <- 0.;
  st.prefix_reused <- 0;
  st.prefix_reused_time <- 0.;
  st.inc_hits <- 0;
  st.inc_partials <- 0;
  st.sat_learned <- 0;
  st.sat_kept <- 0

let clear_caches ctx =
  ring_clear ctx.model_cache;
  Hashtbl.reset ctx.unsat_cache;
  Hashtbl.reset ctx.seen_prefixes;
  Array.fill ctx.insts 0 inst_ring_cap None

let merge_stats ~into src =
  into.queries <- into.queries + src.queries;
  into.sat_queries <- into.sat_queries + src.sat_queries;
  into.cache_hits <- into.cache_hits + src.cache_hits;
  into.unknowns <- into.unknowns + src.unknowns;
  into.total_time <- into.total_time +. src.total_time;
  if src.max_time > into.max_time then into.max_time <- src.max_time;
  into.prefix_reused <- into.prefix_reused + src.prefix_reused;
  into.prefix_reused_time <- into.prefix_reused_time +. src.prefix_reused_time;
  into.inc_hits <- into.inc_hits + src.inc_hits;
  into.inc_partials <- into.inc_partials + src.inc_partials;
  into.sat_learned <- into.sat_learned + src.sat_learned;
  into.sat_kept <- into.sat_kept + src.sat_kept

let remember_model ctx m = ring_push ctx.model_cache m

let satisfies m constraints =
  List.for_all (fun c -> Expr.eval m c = 1L) constraints

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
   slice costs set operations only — no tree walks. *)
let slice ~seed_vars constraints =
  let remaining = ref (List.map (fun c -> (c, Expr.vars c)) constraints) in
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

(* Fold an instance's SAT-core learning counters into the context stats.
   [learned] accumulates as a delta (monotone per instance); [kept] is the
   current live pool summed over the ring. *)
let note_sat_stats ctx inst =
  let sst = Sat.stats inst.isat in
  let st = ctx.ctx_stats in
  st.sat_learned <- st.sat_learned + sst.Sat.learned - inst.ilearned;
  inst.ilearned <- sst.Sat.learned;
  st.sat_kept <-
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some i -> acc + (Sat.stats i.isat).Sat.learned_kept)
      0 ctx.insts

(* One cold SAT instance per query: the [Fresh] strategy, and the only
   strategy value-producing (pristine) queries ever use — the model found
   is a pure function of the constraint set. *)
let run_sat ctx constraints =
  ctx.ctx_stats.sat_queries <- ctx.ctx_stats.sat_queries + 1;
  Obs.Metrics.incr m_sat_queries;
  let deadline = query_deadline ctx in
  let sat = Sat.create () in
  let bctx = Bitblast.create sat in
  List.iter (Bitblast.assert_true bctx) constraints;
  let r = Sat.solve ~max_conflicts:!(ctx.max_conflicts) ?deadline sat in
  let st = Sat.stats sat in
  ctx.ctx_stats.sat_learned <- ctx.ctx_stats.sat_learned + st.Sat.learned;
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
   the query-specific condition; the tail (reversed to oldest-first, so
   shared parent path conditions align at the bottom) is matched against
   the ring's live assumption stacks.  The best-overlap instance pops back
   to the common ancestor frame and asserts only the suffix; the head is
   probed as a per-call assumption, so sibling feasibility pairs (c, ¬c)
   are two probes on one instance and learned clauses carry across every
   query the instance serves. *)
let run_incremental ctx ~q_inc constraints =
  ctx.ctx_stats.sat_queries <- ctx.ctx_stats.sat_queries + 1;
  Obs.Metrics.incr m_sat_queries;
  let probe, base =
    match constraints with
    | p :: tl -> (p, Array.of_list (List.rev tl))
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
  let inst, k, created =
    match !best with
    | Some (inst, k, _) when k > 0 || nbase = 0 -> (inst, k, false)
    | _ -> (
        (* No shared prefix anywhere.  Open a new instance only while the
           ring has a free slot; once full, recycle the least recently
           used instance popped back to level 0 instead of evicting it —
           its bit-blast cache still maps the workload's shared subterms
           (no re-encoding) and its learned clauses remain sound, being
           implied by the permanent gate clauses alone. *)
        let free = ref (-1) and lru = ref 0 in
        for i = inst_ring_cap - 1 downto 0 do
          match ctx.insts.(i) with
          | None -> free := i
          | Some inst -> (
              match ctx.insts.(!lru) with
              | Some cur when inst.itick < cur.itick -> lru := i
              | _ -> ())
        done;
        let fresh_in slot =
          let sat = Sat.create () in
          let inst =
            {
              isat = sat;
              ibctx = Bitblast.create sat;
              istack = Array.make (max 8 nbase) Expr.bool_t;
              ilen = 0;
              itick = 0;
              ilearned = 0;
            }
          in
          ctx.insts.(slot) <- Some inst;
          (inst, 0, true)
        in
        if !free >= 0 then fresh_in !free
        else
          match ctx.insts.(!lru) with
          | Some inst ->
              (* Recycling only pays when the instance's CNF map already
                 covers most of this query's encodings.  An instance grown
                 on a different workload (a long-lived process crossing
                 guest images) is pure dead weight — every solve must
                 still assign all its variables — so replace it instead,
                 which also bounds the ring's memory. *)
              let known = ref 0 in
              for i = 0 to nbase - 1 do
                if Bitblast.cached inst.ibctx base.(i) then incr known
              done;
              if 2 * !known >= nbase then (inst, 0, false)
              else fresh_in !lru
          | None -> assert false (* full ring: every slot is Some *))
  in
  ctx.inst_tick <- ctx.inst_tick + 1;
  inst.itick <- ctx.inst_tick;
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
  inst.ilen <- nbase;
  (* Realized reuse means a nonempty shared prefix survived the pop; a
     new instance or a level-0 recycle reuses gates at best, so it stays
     classified fresh. *)
  let st = ctx.ctx_stats in
  if created || k = 0 then q_inc := 0
  else if k = nbase then begin
    q_inc := 2;
    st.inc_hits <- st.inc_hits + 1;
    Obs.Metrics.incr m_inc_hits
  end
  else begin
    q_inc := 1;
    st.inc_partials <- st.inc_partials + 1;
    Obs.Metrics.incr m_inc_partials
  end;
  let deadline = query_deadline ctx in
  let plit = Bitblast.literal inst.ibctx probe in
  (* The conflict budget is per query: the bound Sat.solve takes is an
     absolute counter, so offset it by the instance's lifetime total. *)
  let budget = (Sat.stats inst.isat).Sat.conflicts + !(ctx.max_conflicts) in
  let r = Sat.solve_assuming ~max_conflicts:budget ?deadline inst.isat [ plit ] in
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

(* Bound on the remembered-prefix population, same amnesia policy as the
   unsat cache: reuse attribution is a measurement, not a correctness
   concern. *)
let seen_prefix_keys = 8192

(* [use_model_cache:false] makes the returned model a pure function of the
   constraint set (the SAT core is deterministic), independent of any
   queries the context answered before.  Value-picking paths (concretize,
   get_value) rely on this so that serial and parallel exploration pin the
   same concrete values and hence explore the same path set.

   Each query runs inside a "solver" phase span: the span feeds the
   registry's exclusive-time breakdown, and its single pair of clock
   readings also feeds the per-context totals, the latency histogram, the
   prefix-reuse attribution and the per-query trace event through
   [on_elapsed]. *)
let check_ctx ~use_model_cache ctx constraints =
  let st = ctx.ctx_stats in
  st.queries <- st.queries + 1;
  Obs.Metrics.incr m_queries;
  (* Attribution facts for this query, filled in by the canonicalization
     below and consumed once the span closes. *)
  let q_prefix = ref 0 in
  let q_nodes = ref 0 in
  let q_cache = ref 0 (* 0 miss / 1 model hit / 2 unsat hit *) in
  let q_reused = ref false in
  let q_inc = ref 0 (* 0 fresh / 1 partial prefix hit / 2 full hit *) in
  let q_result = ref 2 (* 0 sat / 1 unsat / 2 unknown *) in
  Obs.Span.timed solver_phase
    ~on_elapsed:(fun dt ->
      st.total_time <- st.total_time +. dt;
      if dt > st.max_time then st.max_time <- dt;
      Obs.Metrics.observe m_query_hist dt;
      if !q_reused then begin
        st.prefix_reused <- st.prefix_reused + 1;
        st.prefix_reused_time <- st.prefix_reused_time +. dt
      end;
      if Obs.Trace.enabled () then
        Obs.Trace.query ~inc:!q_inc ~dur:dt ~prefix:!q_prefix ~nodes:!q_nodes
          ~result:!q_result ~cache:!q_cache ())
    (fun () ->
      let constraints = List.map Simplifier.simplify constraints in
      if List.exists (fun c -> Expr.equal c Expr.bool_f) constraints then begin
        q_result := 1;
        Unsat
      end
      else
        let constraints =
          List.filter (fun c -> not (Expr.equal c Expr.bool_t)) constraints
        in
        if constraints = [] then begin
          q_result := 0;
          Sat Expr.Int_map.empty
        end
        else begin
          (* The canonical list's head is the query-specific condition
             ([check_with] conses it onto the slice); the tail is the
             inherited assumption stack — the prefix an incremental solver
             could keep pushed across sibling queries. *)
          (match constraints with
          | _ :: tl -> q_prefix := constraints_key tl
          | [] -> ());
          q_nodes :=
            List.fold_left (fun acc c -> acc + Expr.size c) 0 constraints;
          q_reused := Hashtbl.mem ctx.seen_prefixes !q_prefix;
          if not !q_reused then begin
            if Hashtbl.length ctx.seen_prefixes >= seen_prefix_keys then
              Hashtbl.reset ctx.seen_prefixes;
            Hashtbl.add ctx.seen_prefixes !q_prefix ()
          end;
          (* Fault injection fires per canonical query, before any cache
             lookup: cache-hit patterns are solver-history-dependent and
             differ across modes, so firing deeper (per SAT-core call, as
             before) would desynchronize the seeded fault stream between
             incremental and fresh runs and break their differential. *)
          if S2e_fault.Fault.(fire Solver_latency) then Unix.sleepf 0.005;
          if S2e_fault.Fault.(fire Solver_unknown) then begin
            st.unknowns <- st.unknowns + 1;
            Obs.Metrics.incr m_unknowns;
            Unknown
          end
          else
          let cached_model =
            if use_model_cache then
              ring_find ctx.model_cache (fun m -> satisfies m constraints)
            else None
          in
          match cached_model with
          | Some m ->
              st.cache_hits <- st.cache_hits + 1;
              Obs.Metrics.incr m_cache_hits;
              q_cache := 1;
              q_result := 0;
              Sat m
          | None ->
              if unsat_cached ctx constraints then begin
                st.cache_hits <- st.cache_hits + 1;
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
                    st.unknowns <- st.unknowns + 1;
                    Obs.Metrics.incr m_unknowns
                | Sat _ -> q_result := 0);
                r
              end
        end)

(** Is the conjunction of [constraints] satisfiable?  Returns a model on
    success. *)
let check ?(ctx = default_ctx) constraints =
  check_ctx ~use_model_cache:true ctx constraints

(** Satisfiability of [constraints ∧ cond]: used to decide branch
    feasibility.  The constraint set is sliced around [cond]'s variables. *)
let check_with ?(ctx = default_ctx) ~constraints cond =
  let sliced = slice ~seed_vars:(Expr.vars cond) constraints in
  check ~ctx (cond :: sliced)

(** A model of [constraints] that is a pure function of the constraint
    set: bypasses the model cache and solves on a cold SAT instance in
    every mode.  Test-case extraction uses this so that case bytes are
    identical across serial / parallel / incremental / fresh runs. *)
let check_model ?(ctx = default_ctx) constraints =
  check_ctx ~use_model_cache:false ctx constraints

(** Feasibility of both sides of a fork in one shared-prefix query pair:
    [cond] and [¬cond] are sliced once (their variable sets coincide up to
    negation) and probed against the same canonical prefix, which in
    incremental mode means two assumption probes on one live SAT instance
    — the second probe reuses the first's encoding and learned clauses. *)
let check_branch ?(ctx = default_ctx) ~constraints cond =
  let neg = Expr.log_not cond in
  let seed_vars = Expr.Int_set.union (Expr.vars cond) (Expr.vars neg) in
  let sliced = slice ~seed_vars constraints in
  let taken = check ~ctx (cond :: sliced) in
  let fall = check ~ctx (neg :: sliced) in
  (taken, fall)

(** A concrete value for [e] consistent with [constraints], if any.  The
    model cache is bypassed so the pick depends only on the constraint set,
    not on the context's history (see {!check_ctx}). *)
let get_value ?(ctx = default_ctx) ~constraints e =
  match Expr.to_const e with
  | Some v -> Some v
  | None -> (
      let sliced = slice ~seed_vars:(Expr.vars e) constraints in
      match check_ctx ~use_model_cache:false ctx sliced with
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
     mention only variables of [e], which are in the seed already. *)
  let sliced = slice ~seed_vars:(Expr.vars e) constraints in
  let rec go acc extra n =
    if n = 0 then List.rev acc
    else
      match check_ctx ~use_model_cache:false ctx (extra @ sliced) with
      | Sat m ->
          let v = Expr.eval m e in
          let block = Expr.ne e (Expr.const ~width:(Expr.width e) v) in
          go (v :: acc) (block :: extra) (n - 1)
      | Unsat | Unknown -> List.rev acc
  in
  go [] [] limit
