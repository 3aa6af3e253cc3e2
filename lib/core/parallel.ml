(** Parallel multi-path exploration over OCaml 5 domains (paper section 3:
    selective symbolic execution is embarrassingly parallel across
    execution-tree subtrees; section 6: "runs as fast as the hardware
    allows").

    A {!pool} holds [jobs] engines for its whole life.  Each owns a
    private {!Executor.t} — and therefore a private {!Searcher.t},
    translation-block cache, event bus and {!S2e_solver.Solver.ctx} — so
    the hot path (decode, expression construction, SAT solving) runs with
    zero shared-state contention, and caches stay warm from one run to
    the next.  {!explore} is a pool, a boot and one run; a distributed
    worker keeps one pool and runs it in short slices between control
    polls.  With [jobs = 1] a run is exactly {!Executor.run_loop}.  With
    [jobs > 1] each run spawns one domain per engine, and the only
    synchronization is a mutex-protected steal pool of states:

    - A worker whose frontier grows donates states at fork points while
      any peer is starving (the pool holds fewer states than there are
      idle workers).  Donated states come from the oldest end of the
      victim's frontier, i.e. the fork points closest to the root, which
      head the richest unexplored subtrees.
    - An idle worker steals from the pool; execution states are
      self-contained (registers, copy-on-write memory overlay, devices,
      constraints), so adoption is O(1).

    Determinism: with [jobs = 1] exploration is bit-for-bit the serial
    {!Executor.run}.  With [jobs = N] the *set* of terminated paths (and
    the fork/termination totals) matches serial exploration, because every
    per-path decision — branch feasibility, concretization picks, symbolic
    pointer anchoring — is a pure function of the path's own constraint
    set: solver contexts cache only answers, never influence them
    ({!S2e_solver.Solver.get_value} bypasses the model cache).  Only
    scheduling order, and order-dependent aggregates like the live-state
    high watermark, may differ. *)

module Solver = S2e_solver.Solver
module Obs = S2e_obs
open S2e_expr

(* Scheduler telemetry.  Steals land in the thief's own registry shard, so
   {!S2e_obs.Metrics.shard_snapshots} gives a per-worker steal count for
   free; "steal" span time is the scheduler-overhead column of a Table-5
   style breakdown (lock waits + idle blocking on the pool). *)
let m_steals = Obs.Metrics.counter "parallel.steals"
let m_donations = Obs.Metrics.counter "parallel.donations"
let m_workers = Obs.Metrics.gauge ~merge:Obs.Metrics.Max "parallel.workers"
let steal_phase = Obs.Span.phase "steal"

type result = {
  jobs : int;
  completed : State.t list;  (** terminated states from every worker *)
  frontier : State.t list;   (** states still live when a limit fired *)
  stats : Executor.stats;    (** aggregated over workers *)
  steals : int;              (** states adopted from the steal pool *)
  wall_seconds : float;
}

(* ------------------------------------------------------------------ *)
(* Shared scheduler state                                              *)
(* ------------------------------------------------------------------ *)

(* The steal pool and its bookkeeping outlive a run; [stop], [idle],
   [outstanding], [completed] and [instret] are reset when one starts. *)
type shared = {
  m : Mutex.t;
  cv : Condition.t;
  pool : State.t Queue.t;       (* stealable frontier states *)
  mutable outstanding : int;    (* live states anywhere in the system *)
  mutable idle : int;           (* workers blocked on [cv] *)
  stop : bool Atomic.t;         (* a budget limit fired *)
  mutable steals : int;
  mutable max_live : int;       (* high watermark of [outstanding] *)
  completed : int Atomic.t;     (* run's completed-path count *)
  instret : int Atomic.t;       (* run's executed-instruction count *)
}

let make_shared () =
  {
    m = Mutex.create ();
    cv = Condition.create ();
    pool = Queue.create ();
    outstanding = 0;
    idle = 0;
    stop = Atomic.make false;
    steals = 0;
    max_live = 0;
    completed = Atomic.make 0;
    instret = Atomic.make 0;
  }

let over_budget (limits : Executor.run_limits) shared ~started =
  (match limits.max_instructions with
  | Some m -> Atomic.get shared.instret > m
  | None -> false)
  || (match limits.max_seconds with
     | Some sec -> Unix.gettimeofday () -. started > sec
     | None -> false)
  ||
  match limits.max_completed with
  | Some m -> Atomic.get shared.completed >= m
  | None -> false

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)
(* ------------------------------------------------------------------ *)

(* A block's births, deaths and absorptions are read off the engine's
   count record between blocks, as growth since the last look, and
   folded into the shared scheduler state there: donating from inside
   the block would race with the executor's own bookkeeping. *)
type worker = {
  eng : Executor.t;
  mutable seen : Executor.stats;  (* the engine's counts at the last look *)
  mutable ended : State.t list;   (* terminations since the last drain *)
}

let look w = w.seen <- { w.eng.Executor.stats with forks = w.eng.stats.forks }

(* The termination collector is registered once per engine. *)
let make_worker eng =
  let w = { eng; seen = Executor.new_stats (); ended = [] } in
  Events.reg_state_end eng.Executor.events (fun s -> w.ended <- s :: w.ended);
  w

(* Fold the block's fork/termination deltas into the scheduler and donate
   frontier states while peers are starving.  A merged-away state leaves
   the system without terminating: no longer outstanding, but not a
   completed path either.  Returns with [shared.m] unlocked. *)
let sync_after_block shared w =
  let st = w.eng.Executor.stats and seen = w.seen in
  let forks = st.forks - seen.forks
  and ends = st.states_completed - seen.states_completed
  and absorbed = st.absorbed_states - seen.absorbed_states in
  look w;
  if ends > 0 then ignore (Atomic.fetch_and_add shared.completed ends);
  Mutex.lock shared.m;
  shared.outstanding <- shared.outstanding + forks - ends - absorbed;
  shared.max_live <- Int.max shared.max_live shared.outstanding;
  if shared.outstanding = 0 then Condition.broadcast shared.cv
  else begin
    (* Donate from the oldest end of our frontier (fork points nearest the
       root) while the pool cannot feed every idle worker. *)
    let rec donate () =
      if
        shared.idle > Queue.length shared.pool
        && w.eng.Executor.stats.live_states > 1
      then begin
        (* States holding a rendezvous are steal-exempt: their merge ids
           are engine-local, and keeping carriers home keeps merging
           per-worker-local (a sibling pair split across workers would
           never meet). *)
        match
          List.find_opt
            (fun (s : State.t) -> s.State.rendezvous = [])
            (List.rev w.eng.Executor.live)
        with
        | None -> ()
        | Some victim ->
            Executor.disown w.eng victim;
            Queue.push victim shared.pool;
            Obs.Metrics.incr m_donations;
            Condition.signal shared.cv;
            donate ()
      end
    in
    donate ()
  end;
  Mutex.unlock shared.m

(* Blocking steal: take a state from the pool, or wait until either work
   appears, the system drains, or a budget limit fires. *)
let steal shared =
  Obs.Span.timed steal_phase (fun () ->
      Mutex.lock shared.m;
      let rec go () =
        if Atomic.get shared.stop then None
        else
          match Queue.take_opt shared.pool with
          | Some s ->
              shared.steals <- shared.steals + 1;
              Obs.Metrics.incr m_steals;
              Some s
          | None ->
              if shared.outstanding = 0 then None
              else begin
                shared.idle <- shared.idle + 1;
                Condition.wait shared.cv shared.m;
                shared.idle <- shared.idle - 1;
                go ()
              end
      in
      let r = go () in
      Mutex.unlock shared.m;
      r)

let request_stop shared =
  Atomic.set shared.stop true;
  Mutex.lock shared.m;
  Condition.broadcast shared.cv;
  Mutex.unlock shared.m

let worker_loop shared (limits : Executor.run_limits) ~started w =
  let eng = w.eng in
  look w;
  let rec loop () =
    if over_budget limits shared ~started then request_stop shared;
    if not (Atomic.get shared.stop) then
      match eng.Executor.searcher.Searcher.select () with
      | Some s ->
          let i0 = eng.Executor.stats.concrete_instret in
          Executor.exec_block eng s;
          ignore
            (Atomic.fetch_and_add shared.instret
               (eng.Executor.stats.concrete_instret - i0));
          Executor.after_block eng;
          sync_after_block shared w;
          loop ()
      | None -> (
          match steal shared with
          | Some s ->
              (* The stolen state's expressions were interned by the
                 victim's domain; fold them into this domain's table so
                 the physical-equality fast paths apply here too. *)
              State.reintern s;
              Executor.adopt eng s;
              loop ()
          | None -> ())
  in
  loop ();
  (* Inside the worker's domain: its shard retires with the counts. *)
  Executor.flush eng

(* ------------------------------------------------------------------ *)
(* Engine pool                                                         *)
(* ------------------------------------------------------------------ *)

type pool = {
  workers : worker array;
  shared : shared;
  mutable next : int;  (* engine the next adopted state joins *)
}

let pool ~jobs ~(make_engine : unit -> Executor.t) =
  if jobs < 1 then invalid_arg "Parallel.pool: jobs must be >= 1";
  Obs.Metrics.set m_workers jobs;
  let workers =
    Array.init jobs (fun _ ->
        let eng = make_engine () in
        eng.Executor.solver <- Solver.create_ctx ();
        make_worker eng)
  in
  { workers; shared = make_shared (); next = 0 }

let engine p = p.workers.(0).eng

let adopt p s =
  Executor.adopt p.workers.(p.next).eng s;
  p.next <- (p.next + 1) mod Array.length p.workers

let frontier p =
  Array.fold_right (fun w acc -> w.eng.Executor.live @ acc) p.workers []

let run ?(limits = Executor.no_limits) p =
  (match p.workers with
  | [| w |] -> Executor.run_loop ~limits w.eng
  | workers ->
      let shared = p.shared in
      let started = Unix.gettimeofday () in
      Atomic.set shared.stop false;
      Atomic.set shared.completed 0;
      Atomic.set shared.instret 0;
      shared.outstanding <- List.length (frontier p);
      shared.max_live <- Int.max shared.max_live shared.outstanding;
      let domains =
        Array.map
          (fun w ->
            Domain.spawn (fun () -> worker_loop shared limits ~started w))
          workers
      in
      Array.iter Domain.join domains;
      (* Donations nobody stole before the limit fired rejoin an engine. *)
      Queue.iter (adopt p) shared.pool;
      Queue.clear shared.pool);
  Obs.Reporter.sample_heap ()

let drain p =
  Array.fold_right
    (fun w acc ->
      let ended = List.rev w.ended in
      w.ended <- [];
      ended @ acc)
    p.workers []

let drop p =
  Array.iter
    (fun w ->
      List.iter (Executor.disown w.eng) w.eng.Executor.live;
      Executor.flush w.eng)
    p.workers

let quiesce p = Array.iter (fun w -> w.eng.Executor.quiesce ()) p.workers

(** Explore the execution tree rooted at [boot (engine pool)] with [jobs]
    workers: a pool, one boot, one run. *)
let explore ?(jobs = 1) ?(limits = Executor.no_limits)
    ~(make_engine : unit -> Executor.t) ~(boot : Executor.t -> State.t) () =
  let p = pool ~jobs ~make_engine in
  adopt p (boot (engine p));
  let started = Unix.gettimeofday () in
  run ~limits p;
  let stats = Executor.new_stats () in
  Array.iter
    (fun w -> Executor.merge_stats ~into:stats w.eng.Executor.stats)
    p.workers;
  stats.max_live_states <- Int.max stats.max_live_states p.shared.max_live;
  {
    jobs;
    completed = drain p;
    frontier = frontier p;
    stats;
    steals = p.shared.steals;
    wall_seconds = Unix.gettimeofday () -. started;
  }

(* ------------------------------------------------------------------ *)
(* Canonical test cases                                                *)
(* ------------------------------------------------------------------ *)

(** The concrete input assignment characterizing a terminated path: every
    named symbolic variable occurring in the path constraints, bound to
    the deterministic model the SAT core produces for that constraint set.
    Independent of worker count, scheduling and solver-cache history, so
    sorted test-case lists compare equal between serial and parallel
    runs. *)
let model_of ?ctx constraints =
  let ctx = match ctx with Some c -> c | None -> Solver.create_ctx () in
  let vars =
    List.fold_left
      (fun acc c ->
        Expr.fold_vars
          (fun acc id name width ->
            if List.mem_assoc id acc then acc else (id, (name, width)) :: acc)
          acc c)
      [] constraints
  in
  (* Pristine check: the model must be a pure function of the constraint
     set, never of the context's cache or live-instance history, or case
     bytes would differ between solver modes and worker schedules. *)
  match Solver.check_model ~ctx constraints with
  | Solver.Sat m ->
      Some
        (vars
        |> List.map (fun (id, (name, width)) ->
               let v =
                 match Expr.Int_map.find_opt id m with
                 | Some v -> Expr.norm v width
                 | None -> 0L
               in
               (name, v))
        |> List.sort compare)
  | Solver.Unsat | Solver.Unknown -> None

let test_case (s : State.t) =
  Obs.Trace.set_current_path s.State.id;
  match model_of s.State.constraints with Some tc -> tc | None -> []

(* Expand a merged state's case tree back into the constraint lists of
   the enumerated paths it subsumes.  Each [Case_split] recorded the
   exact list slot its disjunction occupies — [base_len] constraints from
   the bottom — so substitution is positional: replace the disjunction
   with either side's original suffix and recurse into that side's
   subtree.  The invariant survives nesting because a side's inner splits
   sit inside the suffix being substituted, at the same distance from the
   shared bottom.

   Pruning is load-bearing, not an optimisation: when a merged state
   forks and the copies later re-merge, both sides of the new split carry
   the inherited splits, so the raw tree is a cross-product of suffix
   choices — exponentially more combinations than enumerated paths, and
   almost all of them unsat.  Substituting one side keeps every deeper
   disjunction in place, and a disjunction is weaker than either of its
   refinements, so an Unsat partial assignment soundly kills the whole
   subtree.  The walk then visits O(real paths x tree depth) nodes
   instead of the full product. *)
let rec expand_cases ~ctx constraints (tree : State.case_tree) =
  match tree with
  | State.Case_leaf -> [ constraints ]
  | State.Case_split { disj; base_len; a_suffix; b_suffix; a_tree; b_tree } ->
      let len = List.length constraints in
      let split_at = len - 1 - base_len in
      let rec cut i above = function
        | d :: below when i = 0 ->
            if not (Expr.equal d disj) then
              invalid_arg "Parallel.test_cases: case tree out of sync";
            (List.rev above, below)
        | c :: rest -> cut (i - 1) (c :: above) rest
        | [] -> invalid_arg "Parallel.test_cases: case tree out of sync"
      in
      let above, below = cut split_at [] constraints in
      let side suffix subtree =
        let c = above @ suffix @ below in
        match Solver.check ~ctx c with
        | Solver.Unsat -> []
        | Solver.Sat _ | Solver.Unknown -> expand_cases ~ctx c subtree
      in
      side a_suffix a_tree @ side b_suffix b_tree

(** All test cases a terminated state stands for.  A state that was never
    merged yields exactly [[test_case s]]; a merged state expands its
    case tree into the enumerated paths' constraint lists and solves each
    one, dropping unsatisfiable combinations (suffix pairs that never
    coexisted on a real path).  Sorted case lists therefore compare equal
    between [--merge] and plain enumeration. *)
let test_cases (s : State.t) =
  match s.State.cases with
  | State.Case_leaf -> [ test_case s ]
  | tree ->
      Obs.Trace.set_current_path s.State.id;
      (* One context per state: sibling leaves differ only in the
         substituted suffixes, so in incremental mode their pruning
         queries are assumption probes on the same live SAT instance.
         Sharing one context across states is slower, not faster: on
         merged rtl8029 (40 states, 3378 cases) expanding every state on
         one shared context took 1.5-1.7x as long as a context per state,
         and a two-worker merged run whose workers shared one context per
         session took 11-14 s against 5-6 s.  A shared ring keeps
         instances encoding earlier states, whose variables every solve
         on them must still assign. *)
      let ctx = Solver.create_ctx () in
      expand_cases ~ctx s.State.constraints tree
      |> List.filter_map (model_of ~ctx)

let test_case_to_string tc =
  String.concat ","
    (List.map (fun (name, v) -> Printf.sprintf "%s=%Ld" name v) tc)
