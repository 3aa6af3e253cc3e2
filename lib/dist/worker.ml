(** Worker-process side of distributed exploration.

    A worker owns a private {!Executor} stack (engines, searcher,
    translation cache, solver contexts) and explores one {e item} — a
    serialized fork-point state — at a time.  Exploration is sliced:
    each slice runs for a short wall-clock budget, then the control
    socket is polled.  That keeps steal, shutdown and liveness latency
    bounded by the slice length without threading interrupts through the
    engine.

    With [jobs = 1] (the default) the worker drives one {e persistent}
    engine with {!Executor.run_loop} slices, so the translation-block
    cache and the solver context's query cache stay warm across slices
    and items — the distributed hot path matches the serial engine's.
    With [jobs > 1] each slice fans the frontier out across OCaml
    domains via {!S2e_core.Parallel.explore_frontier}.

    Protocol discipline (the crash-consistency contract of {!Proto}):
    terminated paths and stats deltas for an item leave this process
    only in the single [Result] or [Checkpoint] that retires the item,
    and a [Checkpoint] carries the {e entire} remaining frontier.  If
    the process dies before that message, the coordinator still holds
    the original item blob and loses nothing. *)

module Parallel = S2e_core.Parallel
module Executor = S2e_core.Executor
module Events = S2e_core.Events
module State = S2e_core.State
module Solver = S2e_solver.Solver
module Obs = S2e_obs
module Fault = S2e_fault.Fault

(* Shutdown acknowledged: unwind out of the serve loop. *)
exception Done

(* Solving the canonical test case costs a cold solver query per path,
   so it is done only when the coordinator asked for it ([cases] in the
   Work message) — and, crucially, incrementally between slices with
   heartbeats interleaved, never as one silent burst at retire time
   (which would trip the coordinator's liveness timeout on items with
   many terminated paths). *)
(* A merged state ([--merge]) stands for every enumerated path folded
   into it; when the coordinator asked for cases it gets one path per
   case-tree leaf, so merged and enumerated runs report comparable case
   sets. *)
let paths_of_state ~cases (s : State.t) =
  let status = State.report_string s in
  if not cases then [ { Proto.p_status = status; p_case = [] } ]
  else
    match Parallel.test_cases s with
    | [] -> [ { Proto.p_status = status; p_case = [] } ]
    | tcs -> List.map (fun tc -> { Proto.p_status = status; p_case = tc }) tcs

let copy_exec_stats s =
  let c = Executor.new_stats () in
  Executor.merge_stats ~into:c s;
  c

let copy_solver_stats s =
  let c = Solver.new_stats () in
  Solver.merge_stats ~into:c s;
  c

(* Since-mark deltas against a persistent engine's cumulative stats.
   Counters subtract; high-watermark fields report the current watermark
   (the coordinator merges them with max, so this stays an upper bound
   contributed by this worker). *)
let exec_delta ~prev (cur : Executor.stats) : Executor.stats =
  {
    Executor.states_created = cur.Executor.states_created - prev.Executor.states_created;
    states_completed = cur.states_completed - prev.states_completed;
    max_live_states = cur.max_live_states;
    forks = cur.forks - prev.forks;
    concrete_instret = cur.concrete_instret - prev.concrete_instret;
    sym_instret = cur.sym_instret - prev.sym_instret;
    footprint_watermark = cur.footprint_watermark;
    concretizations = cur.concretizations - prev.concretizations;
    aborts = cur.aborts - prev.aborts;
    degradations = cur.degradations - prev.degradations;
  }

let solver_delta ~prev (cur : Solver.stats) : Solver.stats =
  {
    Solver.queries = cur.Solver.queries - prev.Solver.queries;
    sat_queries = cur.sat_queries - prev.sat_queries;
    cache_hits = cur.cache_hits - prev.cache_hits;
    unknowns = cur.unknowns - prev.unknowns;
    total_time = cur.total_time -. prev.total_time;
    max_time = cur.max_time;
    prefix_reused = cur.prefix_reused - prev.prefix_reused;
    prefix_reused_time = cur.prefix_reused_time -. prev.prefix_reused_time;
    inc_hits = cur.inc_hits - prev.inc_hits;
    inc_partials = cur.inc_partials - prev.inc_partials;
    sat_learned = cur.sat_learned - prev.sat_learned;
    (* a live-pool gauge, not a monotone counter: report the current value *)
    sat_kept = cur.sat_kept;
  }

(* One item's exploration, sliced.  The control loop below is written
   once against this interface (and the coordinator's solo mode drives
   the serial one); the two implementations differ in how a slice
   runs. *)
type slicer = {
  sl_base : Bytes.t;  (* local base image, for decoding items *)
  sl_start : State.t -> unit;  (* begin an item at its decoded root *)
  sl_run : deadline:float -> unit;  (* advance exploration one slice *)
  sl_frontier : unit -> State.t list;  (* unexplored remainder *)
  sl_drop : unit -> unit;  (* discard the frontier (after a checkpoint) *)
  sl_drain : unit -> State.t list;
      (* states terminated since the last drain, oldest first *)
  sl_stats : unit -> Executor.stats * Solver.stats;  (* deltas this item *)
  sl_quiesce : unit -> unit;
      (* release merge-parked states and strip engine-local rendezvous
         ids before the frontier leaves this process *)
}

(* jobs = 1: one engine for the whole worker lifetime.  Items are adopted
   into its searcher; slices continue the same run loop, so caches stay
   warm and the engine behaves exactly like a serial run interrupted
   every [slice] seconds. *)
let serial_slicer ~slice ~make_engine () =
  let eng : Executor.t = make_engine () in
  eng.Executor.solver <- Solver.create_ctx ();
  let terminated = ref [] in
  Events.reg_state_end eng.Executor.events (fun s ->
      terminated := s :: !terminated);
  let prev_e = ref (copy_exec_stats eng.Executor.stats) in
  let prev_s = ref (copy_solver_stats eng.Executor.solver.Solver.ctx_stats) in
  {
    sl_base = eng.Executor.base_mem;
    sl_start =
      (fun s0 ->
        terminated := [];
        prev_e := copy_exec_stats eng.Executor.stats;
        prev_s := copy_solver_stats eng.Executor.solver.Solver.ctx_stats;
        Executor.adopt eng s0);
    sl_run =
      (fun ~deadline ->
        let now = Unix.gettimeofday () in
        let limits =
          {
            Executor.max_instructions = None;
            max_seconds = Some (Float.min slice (deadline -. now));
            max_completed = None;
          }
        in
        Executor.run_loop ~limits eng);
    sl_frontier = (fun () -> eng.Executor.live);
    sl_drop =
      (fun () -> List.iter (Executor.disown eng) eng.Executor.live);
    sl_drain =
      (fun () ->
        let pending = List.rev !terminated in
        terminated := [];
        pending);
    sl_stats =
      (fun () ->
        ( exec_delta ~prev:!prev_e eng.Executor.stats,
          solver_delta ~prev:!prev_s eng.Executor.solver.Solver.ctx_stats ));
    sl_quiesce = (fun () -> eng.Executor.quiesce ());
  }

(* jobs > 1: each slice fans the current frontier across domains with
   fresh engines (states are self-contained, adoption is O(1)). *)
let parallel_slicer ~jobs ~slice ~make_engine () =
  let base = (make_engine ()).Executor.base_mem in
  let frontier = ref [] in
  let terminated = ref [] in
  let stats = ref (Executor.new_stats ()) in
  let solver = ref (Solver.new_stats ()) in
  {
    sl_base = base;
    sl_start =
      (fun s0 ->
        frontier := [ s0 ];
        terminated := [];
        stats := Executor.new_stats ();
        solver := Solver.new_stats ());
    sl_run =
      (fun ~deadline ->
        let now = Unix.gettimeofday () in
        let limits =
          {
            Executor.max_instructions = None;
            max_seconds = Some (Float.min slice (deadline -. now));
            max_completed = None;
          }
        in
        let r = Parallel.explore_frontier ~jobs ~limits ~make_engine !frontier in
        terminated := List.rev_append r.Parallel.completed !terminated;
        Executor.merge_stats ~into:!stats r.Parallel.stats;
        Solver.merge_stats ~into:!solver r.Parallel.solver_stats;
        frontier := r.Parallel.frontier;
        (* The slice's engines die here; any rendezvous ids the frontier
           carries are theirs and must not leak into the next slice's
           fresh controllers, whose ids restart. *)
        List.iter (fun (s : State.t) -> s.State.rendezvous <- []) !frontier);
    sl_frontier = (fun () -> !frontier);
    sl_drop = (fun () -> frontier := []);
    sl_drain =
      (fun () ->
        let pending = List.rev !terminated in
        terminated := [];
        pending);
    sl_stats = (fun () -> (!stats, !solver));
    sl_quiesce =
      (fun () ->
        List.iter (fun (s : State.t) -> s.State.rendezvous <- []) !frontier);
  }

(* One admitted session against the coordinator: the idle/item control
   loop.  [lease] is the liveness window granted in [Welcome];
   checkpointed states ship back as deltas against [baseline].  Returns
   [`Shutdown] on an orderly drain and [`Lost] when the connection died
   (the caller reconnects). *)
let run_session ~sl ~heartbeat ~lease ~baseline c =
  let pid = Unix.getpid () in
  (* A worker heartbeating exactly at the lease boundary flaps; keep at
     least four beats per lease. *)
  let heartbeat = Float.min heartbeat (lease /. 4.) in
  (* How long a [proto.stall] freeze must last to overrun the lease. *)
  let stall_seconds = 1.5 *. lease in
  let last_hb = ref (Unix.gettimeofday ()) in
  (* Trace chunks piggyback on the liveness traffic: each heartbeat (and
     the final Bye) carries whatever the rings buffered since the last
     send, so the coordinator can merge a live timeline.  With tracing
     off the chunk is the empty string — zero marginal bytes. *)
  let trace_chunk () =
    if Obs.Trace.enabled () then begin
      let events, dropped = Obs.Trace.drain () in
      if events = [] && dropped = 0 then ""
      else Obs.Trace.encode_chunk events ~dropped
    end
    else ""
  in
  let hb frontier =
    Proto.send c
      (Proto.Heartbeat
         { pid; frontier; now = Unix.gettimeofday (); trace = trace_chunk () });
    last_hb := Unix.gettimeofday ()
  in
  (* Every due heartbeat is a fault-injection point for the three
     liveness chaos kinds.  [proto.stall] freezes the whole process past
     the lease (the coordinator presumes death and requeues; our next
     send then finds the connection torn down or a requeued item —
     either way the recovery path runs for real).  [proto.disconnect]
     severs the socket abruptly, no goodbye: a remote worker reconnects
     and rejoins; the coordinator kills and respawns an owned one. *)
  let hb_probe frontier =
    if Fault.(fire Proto_stall) then begin
      Unix.sleepf stall_seconds;
      hb frontier
    end
    else if Fault.(fire Proto_disconnect) then begin
      (try Unix.shutdown c.Proto.fd Unix.SHUTDOWN_ALL
       with Unix.Unix_error _ -> ());
      raise Proto.Closed
    end
    else if Fault.(fire Proto_delay) then
      (* Fault plan: swallow this heartbeat and pretend it was sent —
         the coordinator's liveness timeout sees a silent worker. *)
      last_hb := Unix.gettimeofday ()
    else hb frontier
  in
  let maybe_hb frontier =
    if Unix.gettimeofday () -. !last_hb >= heartbeat then hb_probe frontier
  in
  let bye () =
    Proto.send c
      (Proto.Bye
         { obs = Obs.Metrics.snapshot (); now = Unix.gettimeofday ();
           trace = trace_chunk () })
  in
  let run_item ~item ~budget ~cases blob =
    let deadline =
      if budget <= 0. then infinity else Unix.gettimeofday () +. budget
    in
    sl.sl_start (Codec.decode_state ~base:sl.sl_base blob);
    let paths = ref [] in
    (* Convert newly terminated states to reportable paths.  With
       [cases] each conversion is a solver query, so keep heartbeating:
       the retire message itself then only has to send bytes. *)
    let drain () =
      match sl.sl_drain () with
      | [] -> ()
      | pending ->
          let frontier = List.length (sl.sl_frontier ()) in
          List.iter
            (fun s ->
              List.iter
                (fun p ->
                  paths := p :: !paths;
                  maybe_hb frontier)
                (paths_of_state ~cases s))
            pending
    in
    let checkpoint () =
      sl.sl_quiesce ();
      drain ();
      let stats, solver = sl.sl_stats () in
      Proto.send c
        (Proto.Checkpoint
           {
             item;
             paths = List.rev !paths;
             stats;
             solver;
             states =
               List.map
                 (fun s -> Codec.encode_delta ~baseline (Codec.encode_state s))
                 (sl.sl_frontier ());
           });
      sl.sl_drop ()
    in
    let finished = ref false in
    while not !finished do
      (* Service control traffic between slices. *)
      (match Proto.recv_opt c ~timeout:0. with
      | Some Proto.Steal ->
          if List.length (sl.sl_frontier ()) >= 2 then begin
            checkpoint ();
            finished := true
          end
          else Proto.send c (Proto.Nak { item })
      | Some Proto.Shutdown ->
          checkpoint ();
          bye ();
          raise Done
      | Some Proto.Ping -> hb (List.length (sl.sl_frontier ()))
      | Some _ | None -> ());
      if not !finished then begin
        if sl.sl_frontier () = [] then begin
          drain ();
          let stats, solver = sl.sl_stats () in
          Proto.send c
            (Proto.Result { item; paths = List.rev !paths; stats; solver });
          finished := true
        end
        else if Unix.gettimeofday () >= deadline then begin
          (* Out of budget: return the unexplored remainder. *)
          checkpoint ();
          finished := true
        end
        else begin
          sl.sl_run ~deadline;
          drain ();
          maybe_hb (List.length (sl.sl_frontier ()))
        end
      end
    done
  in
  try
    let rec idle () =
      match Proto.recv_opt c ~timeout:heartbeat with
      | None ->
          hb_probe 0;
          idle ()
      | Some (Proto.Work { item; budget; cases; blob }) ->
          run_item ~item ~budget ~cases blob;
          idle ()
      | Some Proto.Shutdown -> bye ()
      | Some Proto.Ping ->
          hb 0;
          idle ()
      | Some _ ->
          (* e.g. a Steal that raced our Result: nothing to give; the
             coordinator clears its pending steal on our next message. *)
          idle ()
    in
    idle ();
    `Shutdown
  with
  | Done -> `Shutdown
  | Proto.Closed -> `Lost

let init_process () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A terminal Ctrl-C hits the whole process group; workers must stay
     alive to checkpoint their frontier when the coordinator drains. *)
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  (* A fork-spawned worker inherits the parent's metric shards and trace
     rings; its report must cover only its own work. *)
  Obs.Metrics.reset ();
  Obs.Trace.reset ()

let make_slicer ~jobs ~slice ~make_engine () =
  if jobs = 1 then serial_slicer ~slice ~make_engine ()
  else parallel_slicer ~jobs ~slice ~make_engine ()

(* ------------------------------------------------------------------ *)
(* Dial, join, survive disconnects                                    *)
(* ------------------------------------------------------------------ *)

(* Local splitmix64 for reconnect jitter — deliberately NOT the fault
   plan's seeded streams, which must stay reserved for injection
   decisions. *)
let jitter =
  let mix64 z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
    logxor z (shift_right_logical z 31)
  in
  let seq = ref 0 in
  fun () ->
    incr seq;
    let z =
      mix64
        (Int64.logxor
           (Int64.of_float (Unix.gettimeofday () *. 1e6))
           (Int64.of_int ((Unix.getpid () * 0x9e3779b9) + !seq)))
    in
    Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.

(* Exponential backoff, 50ms doubling to a 2s ceiling, with ±50% jitter
   so a herd of workers reconnecting to a restarted coordinator spreads
   out instead of dog-piling the accept queue. *)
let backoff attempt =
  let base = Float.min 2.0 (0.05 *. (2. ** float_of_int attempt)) in
  base *. (0.5 +. jitter ())

(* Send Hello (fresh) or Rejoin (returning) and wait for the verdict. *)
let handshake c ~session ~jobs =
  let pid = Unix.getpid () in
  (match !session with
  | None -> Proto.send c (Proto.Hello { version = Proto.version; pid; jobs })
  | Some (wid, token) -> Proto.send c (Proto.Rejoin { wid; token; pid; jobs }));
  let give_up = Unix.gettimeofday () +. 10. in
  let rec wait () =
    if Unix.gettimeofday () > give_up then `Lost
    else
      match Proto.recv_opt c ~timeout:0.25 with
      | Some (Proto.Welcome { wid; token; lease; baseline }) ->
          session := Some (wid, token);
          `Welcome (lease, baseline)
      | Some (Proto.Deny { reason }) -> `Denied reason
      | Some _ | None -> wait ()
  in
  try wait () with Proto.Closed | Codec.Error _ -> `Lost

let serve_tcp ?(jobs = 1) ?(slice = 0.05) ?(heartbeat = 0.25)
    ?(max_retries = 10) ~host ~port ~(make_engine : unit -> Executor.t) () =
  init_process ();
  (* One slicer for the whole worker lifetime: caches stay warm across
     reconnects, exactly as they do across items. *)
  let sl = make_slicer ~jobs ~slice ~make_engine () in
  let session = ref None in
  let attempt = ref 0 in
  let stop = ref false in
  let retry () =
    if !attempt >= max_retries then stop := true
    else begin
      incr attempt;
      Unix.sleepf (backoff !attempt)
    end
  in
  while not !stop do
    match Proto.dial ~host ~port with
    | exception _ -> retry ()
    | fd -> (
        let c = Proto.connect fd in
        let close () = try Unix.close fd with Unix.Unix_error _ -> () in
        match handshake c ~session ~jobs with
        | `Denied _reason ->
            (* Not transient (bad token, capacity, draining): exit. *)
            close ();
            stop := true
        | `Lost ->
            close ();
            retry ()
        | `Welcome (lease, baseline) -> (
            (* A successful admission resets the backoff ladder. *)
            attempt := 0;
            match run_session ~sl ~heartbeat ~lease ~baseline c with
            | `Shutdown ->
                close ();
                stop := true
            | `Lost ->
                (* The coordinator presumed us dead and requeued our
                   item; discard the half-explored frontier before
                   rejoining so no path is double-counted. *)
                close ();
                sl.sl_quiesce ();
                ignore (sl.sl_drain ());
                sl.sl_drop ();
                retry ()
            | exception Codec.Error _ ->
                close ();
                stop := true))
  done
