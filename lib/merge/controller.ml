(** The merge controller: wires merge points, joins and policy into one
    engine.

    {b Rendezvous protocol.}  When a fork fires, the controller derives a
    rendezvous — the nearest common post-dominator of the two successor
    pcs ({!Mergepoint}), or the caller's return site when the sides only
    re-converge at function exit — and pushes a [(merge_id, pc, depth)]
    record onto both siblings' rendezvous stacks (shared structurally by
    further forks).  A table entry counts {e outstanding} arrivals: 2 at
    the fork, +1 whenever a carrier forks again (the child inherits the
    stack), −1 when a carrier terminates.  The merge point's pc is
    {!Dbt.cut} so translation blocks end there and carriers return to the
    scheduler exactly at the rendezvous.

    At selection time a state whose topmost rendezvous matches its pc and
    call depth {e arrives}: the first arriver parks (leaves the searcher
    but stays live); later arrivers are ite-joined into it pairwise
    ({!Join.attempt}), and the merged state keeps waiting until the
    entry's outstanding count drains, then resumes.  An unmergeable or
    cost-rejected pair abandons the rendezvous and both sides resume
    enumeration — the fallback is always plain enumeration, never a
    wrong merge.

    {b No deadlocks.}  Merge ids grow monotonically and a state's stack
    is pushed in id order, so a parked state can only be waiting for
    states parked on strictly newer entries; the newest parked entry's
    remaining arrivals are therefore runnable or dead, and every
    termination path fires [state_end], which releases waiters.  A
    drained searcher with parked states left (possible only if that
    accounting ever leaks) force-releases them rather than hanging.

    {b Parallel/dist.}  Carriers are steal-exempt ({!Parallel} skips
    states with a non-empty rendezvous stack when donating), so merging
    is per-worker-local.  {!flush} — installed as the engine's [quiesce]
    hook — releases parked states and strips rendezvous stacks before a
    frontier is snapshotted for another process. *)

module Executor = S2e_core.Executor
module State = S2e_core.State
module Searcher = S2e_core.Searcher
module Events = S2e_core.Events
module Consistency = S2e_core.Consistency
module Expr = S2e_expr.Expr
module Simplifier = S2e_expr.Simplifier
module Dbt = S2e_dbt.Dbt
module Obs = S2e_obs

let m_merges = Obs.Metrics.counter "merge.merges"
let m_rejected = Obs.Metrics.counter "merge.rejected_cost"
let m_parked = Obs.Metrics.counter "merge.parked"
let m_released = Obs.Metrics.counter "merge.released"
let m_forced = Obs.Metrics.counter "merge.released_forced"
let m_no_point = Obs.Metrics.counter "merge.no_point"
let m_carrier_aborts = Obs.Metrics.counter "merge.carrier_aborts"
let t_merge = Obs.Trace.intern "merge"
let t_reject = Obs.Trace.intern "merge.reject"

let m_unmergeable r =
  (* Registration is idempotent and this path is cold (a failed join). *)
  Obs.Metrics.counter ("merge.unmergeable." ^ Join.reason_label r)

type entry = {
  e_pc : int;
  e_depth : int;
  e_base_len : int;
  mutable e_waiting : State.t option; (* parked first-arriver / partial merge *)
  mutable e_outstanding : int;        (* carriers yet to arrive (parked excluded) *)
}

type t = {
  eng : Executor.t;
  budget : int option;
  instret_sensitive : bool;
  mp : Mergepoint.t;
  table : (int, entry) Hashtbl.t;
  mutable inner : Searcher.t; (* the wrapped selection strategy *)
  mutable next_id : int;
  mutable parked : int;
}

let pop_id (s : State.t) id =
  s.rendezvous <- List.filter (fun (i, _, _) -> i <> id) s.rendezvous

let clear_waiting ctl (e : entry) =
  match e.e_waiting with
  | None -> None
  | Some w ->
      e.e_waiting <- None;
      ctl.parked <- ctl.parked - 1;
      Some w

(* Release the parked state (if any) back into the searcher and drop the
   entry when no arrivals remain. *)
let release_entry ctl id e =
  (match clear_waiting ctl e with
  | Some w ->
      pop_id w id;
      ctl.inner.Searcher.add w
  | None -> ());
  if e.e_outstanding <= 0 then Hashtbl.remove ctl.table id

(* One expected arrival will never come (carrier died or was absorbed). *)
let arrival_lost ctl id =
  match Hashtbl.find_opt ctl.table id with
  | None -> ()
  | Some e ->
      e.e_outstanding <- e.e_outstanding - 1;
      if e.e_outstanding <= 0 then begin
        if e.e_waiting <> None then Obs.Metrics.incr m_released;
        release_entry ctl id e
      end

(* The fork's rendezvous: the post-dominator join of the two successor
   pcs, else the caller's return site one frame up. *)
let rendezvous_target ctl (parent : State.t) (child : State.t) =
  match
    Mergepoint.join_point ctl.mp ~modules:ctl.eng.Executor.modules
      ~code:ctl.eng.Executor.base_mem ~a:parent.pc ~b:child.pc
  with
  | Some pc -> Some (pc, List.length parent.ret_stack)
  | None -> (
      match parent.ret_stack with
      | ra :: _ -> Some (ra, List.length parent.ret_stack - 1)
      | [] -> None)

let on_fork ctl (parent : State.t) (child : State.t) cond =
  (* The child inherits every pending rendezvous: one more expected
     arrival each.  This must run even for constraint-less plugin forks,
     whose children carry the stack too. *)
  List.iter
    (fun (id, _, _) ->
      match Hashtbl.find_opt ctl.table id with
      | Some e -> e.e_outstanding <- e.e_outstanding + 1
      | None -> ())
    parent.rendezvous;
  if not (Expr.equal cond Expr.bool_t) then
    match rendezvous_target ctl parent child with
    | None -> Obs.Metrics.incr m_no_point
    | Some (pc, depth) ->
        (* Parent constraints are [cond :: base] at this point. *)
        let base_len = List.length parent.constraints - 1 in
        let id = ctl.next_id in
        ctl.next_id <- id + 1;
        Hashtbl.replace ctl.table id
          {
            e_pc = pc;
            e_depth = depth;
            e_base_len = base_len;
            e_waiting = None;
            e_outstanding = 2;
          };
        Dbt.cut ctl.eng.Executor.dbt pc;
        let rv = (id, pc, depth) in
        parent.rendezvous <- rv :: parent.rendezvous;
        child.rendezvous <- rv :: child.rendezvous

let on_state_end ctl (s : State.t) =
  (* A carrier that aborts (e.g. an LC environment hazard) takes every
     path it carries with it: the cases it would have expanded to are
     reported with the aborted status instead of the per-path outcome
     enumeration would have produced.  Surface that loss in the stats —
     it bounds how far merged case sets can diverge from enumerated
     ones (see DESIGN.md §10). *)
  (match s.status with
  | State.Aborted _ when s.State.cases <> State.Case_leaf ->
      Obs.Metrics.incr m_carrier_aborts
  | _ -> ());
  match s.rendezvous with
  | [] -> ()
  | (top_id, _, _) :: rest ->
      (* A parked state can die (PathKiller, kill_others).  Its arrival
         at the top entry was already counted, so only detach it there;
         the remaining ids lose a future arrival each. *)
      let was_parked =
        match Hashtbl.find_opt ctl.table top_id with
        | Some e when (match e.e_waiting with Some w -> w == s | None -> false)
          ->
            ignore (clear_waiting ctl e);
            if e.e_outstanding <= 0 then Hashtbl.remove ctl.table top_id;
            true
        | _ -> false
      in
      let lost = if was_parked then rest else s.rendezvous in
      s.rendezvous <- [];
      List.iter (fun (id, _, _) -> arrival_lost ctl id) lost

(* Fold the absorbed side [w] out of the engine: it leaves the frontier
   without terminating.  Its future arrivals at outer entries are now
   covered by the surviving merged state, so they are "lost" here. *)
let consume ctl (w : State.t) =
  (match w.rendezvous with
  | _ :: rest -> List.iter (fun (id, _, _) -> arrival_lost ctl id) rest
  | [] -> ());
  w.rendezvous <- [];
  Executor.absorb ctl.eng w

(* Abandon a rendezvous pair-wise: both sides resume enumeration.  The
   entry stays while more arrivals are outstanding — a later pair may
   still merge. *)
let abandon ctl id e (s : State.t) =
  (match clear_waiting ctl e with
  | Some w ->
      pop_id w id;
      ctl.inner.Searcher.add w
  | None -> ());
  pop_id s id;
  if e.e_outstanding <= 0 then Hashtbl.remove ctl.table id

let matches (s : State.t) =
  match s.rendezvous with
  | (_, pc, depth) :: _ -> s.pc = pc && List.length s.ret_stack = depth
  | [] -> false

(* Process [s]'s arrival(s) at its topmost rendezvous.  Returns [Some s]
   when the state should run now, [None] when it parked. *)
let rec handle_arrival ctl (s : State.t) =
  if not (State.is_active s && matches s) then Some s
  else
    match s.rendezvous with
    | [] -> Some s
    | (id, _, _) :: _ -> (
        match Hashtbl.find_opt ctl.table id with
        | None ->
            (* Stale id (table flushed): plain enumeration. *)
            pop_id s id;
            handle_arrival ctl s
        | Some e -> (
            e.e_outstanding <- e.e_outstanding - 1;
            match e.e_waiting with
            | None ->
                if e.e_outstanding <= 0 then begin
                  (* Sole survivor: nothing to merge with. *)
                  Hashtbl.remove ctl.table id;
                  pop_id s id;
                  Obs.Metrics.incr m_released;
                  handle_arrival ctl s
                end
                else begin
                  e.e_waiting <- Some s;
                  ctl.parked <- ctl.parked + 1;
                  Obs.Metrics.incr m_parked;
                  ctl.inner.Searcher.remove s;
                  None
                end
            | Some w -> (
                let suffix_len =
                  List.length w.constraints + List.length s.constraints
                  - (2 * e.e_base_len)
                in
                let simplify =
                  if ctl.eng.Executor.config.use_simplifier then
                    Simplifier.simplify
                  else Fun.id
                in
                match
                  Join.attempt ~simplify ~budget:ctl.budget
                    ~instret_sensitive:ctl.instret_sensitive
                    ~base_len:e.e_base_len ~a:w ~b:s
                with
                | Ok cost ->
                    ignore (clear_waiting ctl e);
                    consume ctl w;
                    Obs.Metrics.incr m_merges;
                    if Obs.Trace.enabled () then
                      Obs.Trace.instant ~path:s.id ~a:suffix_len ~b:cost
                        t_merge;
                    if e.e_outstanding <= 0 then begin
                      Hashtbl.remove ctl.table id;
                      pop_id s id;
                      handle_arrival ctl s
                    end
                    else begin
                      (* Keep waiting for the remaining arrivals. *)
                      e.e_waiting <- Some s;
                      ctl.parked <- ctl.parked + 1;
                      ctl.inner.Searcher.remove s;
                      None
                    end
                | Error (Join.Rejected cost) ->
                    Obs.Metrics.incr m_rejected;
                    if Obs.Trace.enabled () then
                      Obs.Trace.instant ~path:s.id ~a:suffix_len ~b:cost
                        t_reject;
                    abandon ctl id e s;
                    handle_arrival ctl s
                | Error (Join.Unmergeable r) ->
                    Obs.Metrics.incr (m_unmergeable r);
                    abandon ctl id e s;
                    handle_arrival ctl s)))

(* Defensive: reinsert every parked state (used at quiescence and by
   {!flush}). *)
let release_all ctl =
  let ids = Hashtbl.fold (fun id e acc -> (id, e) :: acc) ctl.table [] in
  List.iter (fun (id, e) -> release_entry ctl id e) ids

let flush ctl =
  release_all ctl;
  List.iter (fun (s : State.t) -> s.rendezvous <- []) ctl.eng.Executor.live;
  Hashtbl.reset ctl.table

let wrap ctl (inner : Searcher.t) =
  let rec select () =
    match inner.Searcher.select () with
    | Some s -> (
        match handle_arrival ctl s with
        | Some s' -> Some s'
        | None -> select ())
    | None ->
        if ctl.parked > 0 then begin
          (* The searcher drained with states still parked.  Exact
             accounting should have released them (see the deadlock
             argument above); recover rather than hang. *)
          Obs.Metrics.add m_forced ctl.parked;
          release_all ctl;
          select ()
        end
        else None
  in
  {
    inner with
    Searcher.select;
    size = (fun () -> inner.Searcher.size () + ctl.parked);
  }

(** Install a merge controller on [eng], wrapping its current searcher —
    call after the searcher is configured.  No-op for [Off] and for
    consistency models that never add path constraints (RC-CC), where
    there is nothing to disjoin. *)
let install ?(instret_sensitive = false) ?(cost_budget = Policy.default_budget)
    ~mode (eng : Executor.t) =
  match mode with
  | Policy.Off -> None
  | _ when not (Consistency.check_feasibility eng.Executor.config.consistency)
    ->
      None
  | _ ->
      let ctl =
        {
          eng;
          budget = Policy.budget mode ~cost_budget;
          instret_sensitive;
          mp = Mergepoint.create ();
          table = Hashtbl.create 64;
          inner = eng.Executor.searcher;
          next_id = 1;
          parked = 0;
        }
      in
      eng.Executor.searcher <- wrap ctl ctl.inner;
      Events.reg_fork eng.Executor.events (on_fork ctl);
      Events.reg_state_end eng.Executor.events (on_state_end ctl);
      eng.Executor.quiesce <- (fun () -> flush ctl);
      Some ctl
