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
    terminated paths and the registry delta since the last report leave
    this process only in the single [Result] or [Checkpoint] that
    retires the item, and a [Checkpoint] carries the {e entire}
    remaining frontier.  If the process dies before that message, the
    coordinator still holds the original item blob and loses nothing:
    neither paths nor counts of unretired work were ever sent. *)

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
  {
    sl_base = eng.Executor.base_mem;
    sl_start =
      (fun s0 ->
        terminated := [];
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
    sl_quiesce = (fun () -> eng.Executor.quiesce ());
  }

(* jobs > 1: each slice fans the current frontier across domains with
   fresh engines (states are self-contained, adoption is O(1)). *)
let parallel_slicer ~jobs ~slice ~make_engine () =
  let base = (make_engine ()).Executor.base_mem in
  let frontier = ref [] in
  let terminated = ref [] in
  {
    sl_base = base;
    sl_start =
      (fun s0 ->
        frontier := [ s0 ];
        terminated := []);
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
    sl_quiesce =
      (fun () ->
        List.iter (fun (s : State.t) -> s.State.rendezvous <- []) !frontier);
  }

(* The item a worker has started and not retired yet.  It outlives a
   lost connection: if the coordinator answers the rejoin with [resume],
   the worker carries on with it. *)
type held = {
  h_item : int;
  h_deadline : float;  (* end of the item's budget *)
  h_cases : bool;
  mutable h_paths : Proto.path list;  (* reportable so far, newest first *)
}

(* One admitted session against the coordinator: the idle/item control
   loop, entered with the [held] item first if there is one.  [lease] is
   the liveness window granted in [Welcome]; [reported] is the registry
   as of the last report, which every retire message and the [Bye]
   subtract.  Returns [`Shutdown] on an orderly drain and [`Lost] when
   the connection died (the caller reconnects, still holding an
   unretired item). *)
let run_session ~sl ~heartbeat ~lease ~held ~reported c =
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
     severs the socket abruptly, no goodbye: every worker, owned or
     remote, reconnects and rejoins. *)
  let hb_probe frontier =
    if Fault.(fire Proto_stall) then begin
      Unix.sleepf stall_seconds;
      hb frontier
    end
    else if Fault.(fire Proto_disconnect) then begin
      (try Unix.shutdown c Unix.SHUTDOWN_ALL
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
  (* The counts since the last report go out with the message, and
     count as reported once it is sent.  Cells the window left at zero
     stay home. *)
  let report mk =
    let snap = Obs.Metrics.snapshot () in
    Obs.Metrics.delta ~before:!reported snap
    |> List.filter (fun (_, v) -> v <> Obs.Metrics.Int 0 && v <> Float 0.)
    |> mk |> Proto.send c;
    reported := snap
  in
  let bye () =
    report (fun obs ->
        Proto.Bye { obs; now = Unix.gettimeofday (); trace = trace_chunk () })
  in
  let work h =
    (* Convert newly terminated states to reportable paths.  With
       [cases] each conversion is a solver query, so keep heartbeating:
       the retire message itself then only has to send bytes.  A
       heartbeat that finds the connection gone is reported only once
       every drained state is converted, so a resumed item misses none. *)
    let drain () =
      match sl.sl_drain () with
      | [] -> ()
      | pending ->
          let frontier = List.length (sl.sl_frontier ()) in
          let lost = ref false in
          List.iter
            (fun s ->
              List.iter
                (fun p ->
                  h.h_paths <- p :: h.h_paths;
                  if not !lost then
                    try maybe_hb frontier with Proto.Closed -> lost := true)
                (paths_of_state ~cases:h.h_cases s))
            pending;
          if !lost then raise Proto.Closed
    in
    (* The item is retired once its last message is sent; a send that
       fails leaves it held, frontier and unreported counts intact. *)
    let retire mk =
      report mk;
      held := None
    in
    let checkpoint () =
      sl.sl_quiesce ();
      drain ();
      let states = List.map Codec.encode_state (sl.sl_frontier ()) in
      retire (fun obs ->
          Proto.Checkpoint
            { item = h.h_item; paths = List.rev h.h_paths; obs; states });
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
          else Proto.send c (Proto.Nak { item = h.h_item })
      | Some Proto.Shutdown ->
          checkpoint ();
          bye ();
          raise Done
      | Some Proto.Ping -> hb (List.length (sl.sl_frontier ()))
      | Some _ | None -> ());
      if not !finished then begin
        if sl.sl_frontier () = [] then begin
          drain ();
          retire (fun obs ->
              Proto.Result { item = h.h_item; paths = List.rev h.h_paths; obs });
          finished := true
        end
        else if Unix.gettimeofday () >= h.h_deadline then begin
          (* Out of budget: return the unexplored remainder. *)
          checkpoint ();
          finished := true
        end
        else begin
          sl.sl_run ~deadline:h.h_deadline;
          drain ();
          maybe_hb (List.length (sl.sl_frontier ()))
        end
      end
    done
  in
  let start ~item ~budget ~cases blob =
    let h_deadline =
      if budget <= 0. then infinity else Unix.gettimeofday () +. budget
    in
    sl.sl_start (Codec.decode_state ~base:sl.sl_base blob);
    let h = { h_item = item; h_deadline; h_cases = cases; h_paths = [] } in
    held := Some h;
    work h
  in
  try
    Option.iter work !held;
    let rec idle () =
      match Proto.recv_opt c ~timeout:heartbeat with
      | None ->
          hb_probe 0;
          idle ()
      | Some (Proto.Work { item; budget; cases; blob }) ->
          start ~item ~budget ~cases blob;
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

(* Send Hello (fresh) or Rejoin (returning, naming the item still
   held) and wait for the verdict. *)
let handshake c ~session ~held =
  let pid = Unix.getpid () in
  (match !session with
  | None -> Proto.send c (Proto.Hello { version = Proto.version; pid })
  | Some (wid, token) ->
      let held = Option.map (fun h -> h.h_item) held in
      Proto.send c (Proto.Rejoin { wid; token; pid; held }));
  let give_up = Unix.gettimeofday () +. 10. in
  let rec wait () =
    if Unix.gettimeofday () > give_up then `Lost
    else
      match Proto.recv_opt c ~timeout:0.25 with
      | Some (Proto.Welcome { wid; token; lease; resume }) ->
          session := Some (wid, token);
          `Welcome (lease, resume)
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
  let held = ref None in
  (* Nothing reported yet: the first report carries everything since the
     reset in [init_process], engine construction included. *)
  let reported = ref [] in
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
        let close () = try Unix.close fd with Unix.Unix_error _ -> () in
        match handshake fd ~session ~held:!held with
        | `Denied _reason ->
            (* Not transient (bad token, capacity, draining): exit. *)
            close ();
            stop := true
        | `Lost ->
            (* The dial worked, so the coordinator is there: a handshake
               lost to a damaged frame is transport noise, retried after
               the shortest backoff without counting toward
               [max_retries]. *)
            close ();
            Unix.sleepf (backoff 0)
        | `Welcome (lease, resume) -> (
            (* A successful admission resets the backoff ladder. *)
            attempt := 0;
            if (not resume) && Option.is_some !held then begin
              (* The coordinator requeued the held item: discard its
                 half-explored frontier, and the counts of that work,
                 so no path or count is double-counted. *)
              sl.sl_quiesce ();
              ignore (sl.sl_drain ());
              sl.sl_drop ();
              held := None;
              reported := Obs.Metrics.snapshot ()
            end;
            match run_session ~sl ~heartbeat ~lease ~held ~reported fd with
            | `Shutdown ->
                close ();
                stop := true
            | `Lost ->
                close ();
                retry ()
            | exception Codec.Error _ ->
                close ();
                stop := true))
  done
