(** Coordinator: multi-process and multi-host distribution of the
    exploration frontier (the ROADMAP's scale step past OCaml-domain
    workers, in the style of Manticore's multiprocessing coordinator).

    The coordinator boots the root state on a local engine, serializes
    it, and feeds a queue of {e items} (one snapshot blob each) to its
    workers.  Every worker joins over TCP: the coordinator listens (on
    a loopback port of its own unless the caller passes a listener), and
    each worker dials in, is admitted with a [Hello]/[Welcome]
    handshake, and ships its checkpointed states back whole.  A worker
    is either {e owned} — a process the coordinator spawned itself
    ([--procs N]), recognised at admission by the pid in its [Hello] or
    [Rejoin] on the address owned workers dial from — or {e remote},
    having dialed in on its own.
    Load balancing is pull-based: when the queue runs dry and a worker
    sits idle, the busiest worker (by last-reported frontier size)
    receives a [Steal] and answers by checkpointing its whole remaining
    frontier, which re-enters the queue as fresh items.  Item budgets
    are sized from each worker's observed paths/sec so slow workers
    return their remainder sooner for fast ones to pick up.

    Crash tolerance rests on the atomic-handoff discipline of {!Proto}:
    a worker's results leave it only in the one message that retires its
    item, so the coordinator can always requeue the item blob it still
    holds.  A lost connection — EOF or a damaged frame, which {!Proto}
    reports alike — never kills a worker: it is presumed transport
    chaos, and the worker rejoins with its session.  A remote worker's
    item is requeued at once without charging an attempt.  An owned
    worker keeps its item until it rejoins (it resumes the item if it
    still holds it, else the item is requeued uncounted), is reaped dead
    once its connection is gone, or outlives its lease; the last two are
    crashes: the process is killed if need be, reaped and respawned
    (bounded restarts with backoff), and the item is charged one
    attempt, so items that repeatedly kill workers are dropped after
    [max_item_attempts].
    When every worker is gone and work remains, the coordinator explores
    items itself (solo mode) on a one-engine pool sliced like a worker's,
    rather than aborting — the bottom rung of the degradation ladder.
    SIGINT (when [handle_sigint]) and wall-clock/path budgets drain
    gracefully: busy workers checkpoint their frontiers, every worker
    reports the rest of its counters in [Bye], and the merged report
    accounts for every path explored plus every state left
    unexplored.

    Counters follow the same discipline as paths: a worker's registry
    delta rides in the message that retires its item, so the counts of
    a worker that dies are those of the work it handed back, and work
    that is requeued is counted once, by the worker that finishes it. *)

module Executor = S2e_core.Executor
module Parallel = S2e_core.Parallel
module State = S2e_core.State
module Obs = S2e_obs

(** How to start an owned worker process. *)
type spawn =
  | Fork of { jobs : int; slice : float; make_engine : unit -> Executor.t }
      (** [Unix.fork] and run {!Worker.serve_tcp} in the child.  Only
          safe while no other domain is (or has been) active in this
          process; tests and benchmarks use this. *)
  | Exec of { argv : string array }
      (** Spawn [argv @ ["--connect"; "HOST:PORT"]] (typically
          [s2e_cli worker ...]). *)

(** Scheduling events, exposed for logging and fault-injection tests. *)
type event =
  | Spawned of { pid : int; slot : int }
  | Dispatched of { pid : int; item : int }
  | Completed of { pid : int; item : int; paths : int }
  | Checkpointed of { pid : int; item : int; states : int }
  | Crashed of { pid : int; requeued : bool }
  | Respawned of { pid : int; slot : int }
  | Joined of { wid : int; addr : string }  (** remote worker admitted *)
  | Rejoined of { wid : int; pid : int }  (** session resumed after loss *)
  | Left of { wid : int; requeued : bool }
      (** connection lost (EOF, damaged frame, or a remote worker's
          lease expiry); session kept *)
  | Solo of { item : int }  (** coordinator exploring an item itself *)

type result = {
  procs : int;
  paths : Proto.path list;
      (** every terminated path, with its test case when [cases] was set *)
  stats : Executor.stats;  (** {!Executor.stats_of_obs} of this run *)
  obs : Obs.Metrics.snapshot;
      (** the local registry plus every worker delta received *)
  steals : int;  (** checkpoints triggered by steal requests *)
  requeues : int;  (** in-flight items recovered from dead workers *)
  restarts : int;  (** owned worker processes respawned *)
  abandoned : (int * int) list;
      (** items given up after [max_item_attempts]: (item id, attempts) *)
  retransmits : int;  (** always 0: a damaged frame is a disconnect *)
  injected : int;  (** transport corruptions injected by the fault plan *)
  unexplored : int;  (** frontier states left when the run stopped *)
  wall_seconds : float;
  joins : int;  (** remote workers admitted over the run *)
  reconnects : int;  (** sessions resumed after a connection loss *)
  leaves : int;  (** connection losses, owned and remote *)
  solo_paths : int;  (** paths the coordinator explored itself *)
  trace : Obs.Trace.event list;
      (** merged timeline (empty unless {!Obs.Trace} was enabled):
          worker chunks shipped over heartbeats/Bye, clock-offset
          normalized and pid-stamped, interleaved with the coordinator's
          own events, sorted by timestamp *)
  trace_dropped : int;  (** ring overwrites across all processes *)
}

type item = { it_id : int; it_blob : string; mutable it_attempts : int }
type wstatus = Starting | Idle | Busy of item

type wkind =
  | Owned  (* spawned by this coordinator; respawnable *)
  | Remote of { token : string }  (* dialed in on its own; can rejoin *)

type wrk = {
  w_id : int;  (* slot for owned workers, wid for remote ones *)
  w_kind : wkind;
  mutable w_pid : int;
  mutable w_conn : Unix.file_descr option;
      (* None until admitted / after loss *)
  mutable w_status : wstatus;
  mutable w_alive : bool;
  mutable w_shutdown : bool;  (* Shutdown already sent *)
  mutable w_last : float;  (* time of last message received *)
  mutable w_steal : float;  (* time Steal was sent; 0. = none pending *)
  mutable w_nak : float;  (* time of last steal refusal (cooldown) *)
  mutable w_frontier : int;  (* last reported frontier size *)
  mutable w_rate : float;  (* EWA of observed paths+states per second *)
  mutable w_dispatched : float;  (* when the current item was sent *)
  mutable w_space : int;  (* id space of the process, kept across rejoins *)
}

(* Id spaces granted to worker processes.  Never reused in this process,
   across runs too, so no two workers — nor the coordinator, which stays
   in space 0 — mint the same variable or state id. *)
let last_space = ref 0

let fresh_space () =
  incr last_space;
  !last_space

(* A TCP connection that has not completed its Hello/Rejoin handshake
   yet; dropped if it stays silent past its deadline. *)
type pending = { p_fd : Unix.file_descr; p_addr : string; p_deadline : float }

(* Start one owned worker dialing [host:port]; returns its pid.  The
   child must not keep [other_fds] (worker sockets, the listener): an
   inherited copy would pin a peer's connection open past its death and
   break EOF detection. *)
let spawn_process spawn ~host ~port ~other_fds =
  match spawn with
  | Fork { jobs; slice; make_engine } -> (
      (* Keep buffered output from being flushed twice. *)
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            other_fds;
          (try Worker.serve_tcp ~jobs ~slice ~host ~port ~make_engine ()
           with _ -> ());
          Unix._exit 0
      | pid -> pid)
  | Exec { argv } ->
      List.iter Unix.set_close_on_exec other_fds;
      let argv =
        Array.append argv [| "--connect"; Printf.sprintf "%s:%d" host port |]
      in
      Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr

(* Session tokens need uniqueness per coordinator, not secrecy against
   an adversary on the socket (the transport is plaintext anyway): they
   fence a rejoining worker from a stale or mistyped wid. *)
let gen_token =
  let mix64 z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
    logxor z (shift_right_logical z 31)
  in
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let a = Int64.of_float (Unix.gettimeofday () *. 1e6) in
    let b = Int64.of_int ((Unix.getpid () * 0x01000193) lxor !ctr) in
    Printf.sprintf "%016Lx" (mix64 (Int64.logxor a (mix64 b)))

let explore ?(procs = 2) ?(limits = Executor.no_limits) ?(max_restarts = 8)
    ?(max_item_attempts = 3) ?(heartbeat_timeout = 10.) ?(cases = false)
    ?(handle_sigint = false) ?listener ?(max_workers = 64)
    ?(on_event = fun (_ : event) -> ()) ~spawn
    ~(make_engine : unit -> Executor.t) ~(boot : Executor.t -> State.t) () =
  if procs < 0 then invalid_arg "Coordinator.explore: procs must be >= 0";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t0 = Unix.gettimeofday () in
  let deadline =
    match limits.Executor.max_seconds with
    | Some s -> t0 +. s
    | None -> infinity
  in
  (* Every worker joins over TCP; without a caller's listener the owned
     workers get a loopback one of their own. *)
  let lfd =
    match listener with
    | Some lfd -> lfd
    | None -> Proto.listen ~host:"127.0.0.1" ~port:0
  in
  (* Owned workers dial the listener's bound address; one bound to any
     address is reachable on loopback. *)
  let dial_host, dial_port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (a, port) ->
        ( (if a = Unix.inet_addr_any then "127.0.0.1"
           else Unix.string_of_inet_addr a),
          port )
    | Unix.ADDR_UNIX _ ->
        invalid_arg "Coordinator.explore: listener is not a TCP socket"
  in
  (* This run's counts are the local registry's since here plus every
     worker delta.  Boot locally: path/fork accounting then matches
     {!Parallel.explore} (boot counts one created state on the
     coordinator side). *)
  let obs0 = Obs.Metrics.snapshot () in
  let eng = make_engine () in
  let s0 = boot eng in
  let paths = ref [] in
  (* Running sum of the registry deltas workers have reported. *)
  let remote = ref [] in
  let absorb obs = remote := Obs.Metrics.merge_snapshots [ !remote; obs ] in
  let run_obs () =
    Obs.Metrics.merge_snapshots
      [ Obs.Metrics.delta ~before:obs0 (Obs.Metrics.snapshot ()); !remote ]
  in
  let trace_events = ref [] in
  let trace_dropped = ref 0 in
  (* A worker's chunk carries its own clock readings; the offset between
     the coordinator's receive time and the worker's send time ([now_w])
     normalizes them onto the coordinator's timeline.  The offset is
     dominated by transit/queueing delay — small and per-chunk, which
     keeps long-lived clock drift out too. *)
  let collect_trace w ~now_w chunk =
    if chunk <> "" then
      match
        Obs.Trace.decode_chunk ~pid:w.w_pid
          ~offset:(Unix.gettimeofday () -. now_w)
          chunk
      with
      | evs, dropped ->
          trace_events := List.rev_append evs !trace_events;
          trace_dropped := !trace_dropped + dropped
      | exception Failure _ -> () (* damaged chunk: telemetry, not work *)
  in
  let queue : item Queue.t = Queue.create () in
  let next_item = ref 0 in
  let enqueue_blob blob =
    Queue.push { it_id = !next_item; it_blob = blob; it_attempts = 0 } queue;
    incr next_item
  in
  enqueue_blob (Codec.encode_state s0);
  let steals = ref 0 in
  let requeues = ref 0 in
  let restarts = ref 0 in
  let abandoned = ref [] in
  let joins = ref 0 in
  let reconnects = ref 0 in
  let leaves = ref 0 in
  let draining = ref false in
  let interrupted = ref false in
  let old_sigint =
    if handle_sigint then
      Some
        (Sys.signal Sys.sigint
           (Sys.Signal_handle (fun _ -> interrupted := true)))
    else None
  in
  let workers : wrk list ref = ref [] in
  let pendings : pending list ref = ref [] in
  let new_wrk ~id ~kind =
    {
      w_id = id;
      w_kind = kind;
      w_pid = 0;
      w_conn = None;
      w_status = Starting;
      w_alive = false;
      w_shutdown = false;
      w_last = 0.;
      w_steal = 0.;
      w_nak = 0.;
      w_frontier = 0;
      w_rate = 0.;
      w_dispatched = 0.;
      w_space = 0;
    }
  in
  workers := List.init procs (fun slot -> new_wrk ~id:slot ~kind:Owned);
  let next_wid = ref procs in
  let live_fds () =
    List.fold_left
      (fun acc w ->
        match w.w_conn with
        | Some fd when w.w_alive -> fd :: acc
        | _ -> acc)
      [] !workers
  in
  (* Every fd a spawned child must NOT inherit: worker sockets, the
     listener, half-shaken handshakes. *)
  let inheritable_fds () =
    List.fold_left
      (fun acc p -> p.p_fd :: acc)
      (lfd :: live_fds ()) !pendings
  in
  (* An owned slot is alive from its spawn on; its connection arrives
     when the process dials in and is admitted. *)
  let do_spawn w =
    let pid =
      spawn_process spawn ~host:dial_host ~port:dial_port
        ~other_fds:(inheritable_fds ())
    in
    w.w_pid <- pid;
    w.w_space <- fresh_space ();
    w.w_status <- Starting;
    w.w_alive <- true;
    w.w_shutdown <- false;
    w.w_last <- Unix.gettimeofday ();
    w.w_steal <- 0.;
    w.w_nak <- 0.;
    w.w_frontier <- 0;
    on_event (Spawned { pid; slot = w.w_id })
  in
  let close_conn w =
    (match w.w_conn with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    w.w_conn <- None
  in
  let reap w =
    close_conn w;
    try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ()
  in
  (* Take a worker out of service without its [Bye]: an owned process is
     killed and reaped (left alone it would keep redialing), a remote
     session just loses its connection. *)
  let discard w =
    w.w_alive <- false;
    match w.w_kind with
    | Owned ->
        (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap w
    | Remote _ -> close_conn w
  in
  (* Recover the in-flight item of a failed worker.  [count_attempt]
     distinguishes process death (evidence the item may be poison) from
     transport loss (chaos; the item is blameless and must not creep
     toward abandonment under disconnect storms). *)
  let requeue_item w ~count_attempt =
    match w.w_status with
    | Busy it ->
        w.w_status <- Idle;
        if count_attempt then it.it_attempts <- it.it_attempts + 1;
        if it.it_attempts > max_item_attempts then begin
          (* Give up on an item that keeps killing workers — but say so:
             it surfaces in the final report, not a silent drop. *)
          abandoned := (it.it_id, it.it_attempts) :: !abandoned;
          false
        end
        else begin
          Queue.push it queue;
          incr requeues;
          true
        end
    | _ -> false
  in
  (* An owned process is gone for good (reaped dead, or killed once its
     lease ran out): charge its item one attempt and respawn it unless
     the run is draining anyway. *)
  let restart w =
    w.w_alive <- false;
    close_conn w;
    let requeued = requeue_item w ~count_attempt:true in
    on_event (Crashed { pid = w.w_pid; requeued });
    if (not !draining) && !restarts < max_restarts then begin
      incr restarts;
      (* brief backoff so a crash-looping configuration cannot spin *)
      Unix.sleepf (Float.min 0.5 (0.05 *. float_of_int !restarts));
      do_spawn w;
      on_event (Respawned { pid = w.w_pid; slot = w.w_id })
    end
  in
  (* A session's connection was lost (EOF, a damaged frame, a failed
     send); the worker will rejoin.  A remote worker's item is requeued
     uncounted now.  An owned worker stays alive holding its item until
     it rejoins, is reaped or its lease expires. *)
  let lose w =
    if w.w_alive && Option.is_some w.w_conn then begin
      incr leaves;
      close_conn w;
      let requeued =
        match w.w_kind with
        | Owned -> false
        | Remote _ ->
            w.w_alive <- false;
            requeue_item w ~count_attempt:false
      in
      on_event (Left { wid = w.w_id; requeued })
    end
  in
  let update_rate w produced =
    let dt = Unix.gettimeofday () -. w.w_dispatched in
    if w.w_dispatched > 0. && dt > 1e-3 then begin
      let inst = float_of_int produced /. dt in
      w.w_rate <-
        (if w.w_rate = 0. then inst else (0.7 *. w.w_rate) +. (0.3 *. inst))
    end
  in
  let handle_msg w (m : Proto.msg) =
    w.w_last <- Unix.gettimeofday ();
    match m with
    | Proto.Heartbeat { frontier; now; trace; _ } ->
        w.w_frontier <- frontier;
        collect_trace w ~now_w:now trace
    | Proto.Nak _ ->
        w.w_steal <- 0.;
        w.w_nak <- Unix.gettimeofday ()
    | Proto.Result { item; paths = ps; obs } ->
        w.w_steal <- 0.;
        w.w_frontier <- 0;
        w.w_status <- Idle;
        update_rate w (List.length ps);
        paths := List.rev_append ps !paths;
        absorb obs;
        on_event (Completed { pid = w.w_pid; item; paths = List.length ps })
    | Proto.Checkpoint { item; paths = ps; obs; states } ->
        let was_steal = w.w_steal > 0. in
        w.w_steal <- 0.;
        w.w_frontier <- 0;
        w.w_status <- Idle;
        update_rate w (List.length ps + List.length states);
        paths := List.rev_append ps !paths;
        absorb obs;
        List.iter enqueue_blob states;
        if was_steal then incr steals;
        on_event
          (Checkpointed { pid = w.w_pid; item; states = List.length states })
    | Proto.Bye { obs; now; trace } ->
        absorb obs;
        collect_trace w ~now_w:now trace;
        w.w_alive <- false;
        (match w.w_kind with Owned -> reap w | Remote _ -> close_conn w)
    | Proto.Hello _ | Proto.Rejoin _ ->
        () (* handshake traffic; only meaningful on a pending conn *)
    | Proto.Work _ | Proto.Steal | Proto.Ping | Proto.Shutdown
    | Proto.Welcome _ | Proto.Deny _ ->
        () (* coordinator-only messages; ignore *)
  in
  (* ---------------- admission ---------------- *)
  let drop_pending p =
    pendings := List.filter (fun q -> q != p) !pendings;
    try Unix.close p.p_fd with Unix.Unix_error _ -> ()
  in
  let deny p reason =
    (try Proto.send p.p_fd (Proto.Deny { reason })
     with Proto.Closed | Codec.Error _ -> ());
    drop_pending p
  in
  let live_count () =
    List.fold_left (fun n w -> if w.w_alive then n + 1 else n) 0 !workers
  in
  (* The handshake's connection becomes [w]'s session, and [w] is
     granted its lease; [false] if the peer died.  With [resume] the
     worker keeps the item it is busy with. *)
  let attach ?(resume = false) p w ~pid ~token =
    pendings := List.filter (fun q -> q != p) !pendings;
    w.w_pid <- pid;
    w.w_conn <- Some p.p_fd;
    if not resume then w.w_status <- Idle;
    w.w_alive <- true;
    w.w_shutdown <- false;
    w.w_last <- Unix.gettimeofday ();
    w.w_steal <- 0.;
    w.w_nak <- 0.;
    w.w_frontier <- 0;
    match
      Proto.send p.p_fd
        (Proto.Welcome
           {
             wid = w.w_id;
             token;
             lease = heartbeat_timeout;
             resume;
             space = w.w_space;
           })
    with
    | () -> true
    | exception (Proto.Closed | Codec.Error _) -> false
  in
  (* An owned worker is recognised by its pid in any slot state: one
     whose [Welcome] was damaged redials with a fresh [Hello] while its
     slot still holds the dead connection.  Only a peer on the address
     owned workers dial from qualifies, so a worker on another host that
     happens to share a pid is admitted as remote instead. *)
  let from_owner p =
    match Unix.getpeername p.p_fd with
    | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a = dial_host
    | Unix.ADDR_UNIX _ -> false
    | exception Unix.Unix_error _ -> false
  in
  let owned p pid w =
    w.w_kind = Owned && w.w_alive && w.w_pid = pid && from_owner p
  in
  let admit p (m : Proto.msg) =
    match m with
    | Proto.Hello { version; _ } when version <> Proto.version ->
        deny p "protocol version mismatch"
    | (Proto.Hello { pid; _ } | Proto.Rejoin { pid; _ })
      when List.exists (owned p pid) !workers ->
        let w = List.find (owned p pid) !workers in
        (* Retire a stale connection first.  A worker still holding the
           slot's item carries on with it; any other item the slot held
           is requeued uncounted (the worker no longer has it). *)
        lose w;
        let again = w.w_status <> Starting in
        let resume =
          match (m, w.w_status) with
          | Proto.Rejoin { held = Some item; _ }, Busy it -> it.it_id = item
          | _ -> false
        in
        if not resume then ignore (requeue_item w ~count_attempt:false);
        (* Already counted in [procs]: exempt from the cap, not a join. *)
        if not (attach ~resume p w ~pid ~token:"") then lose w
        else if again then begin
          incr reconnects;
          on_event (Rejoined { wid = w.w_id; pid })
        end
    | (Proto.Hello _ | Proto.Rejoin _) when !draining ->
        deny p "coordinator is draining"
    | Proto.Hello { pid; _ } ->
        if live_count () >= max_workers then deny p "at capacity"
        else begin
          let wid = !next_wid in
          incr next_wid;
          let token = gen_token () in
          let w = new_wrk ~id:wid ~kind:(Remote { token }) in
          w.w_space <- fresh_space ();
          if attach p w ~pid ~token then begin
            workers := !workers @ [ w ];
            incr joins;
            on_event (Joined { wid; addr = p.p_addr })
          end
          else close_conn w
        end
    | Proto.Rejoin { wid; token; pid; _ } -> (
        let found =
          List.find_opt
            (fun w ->
              w.w_id = wid
              &&
              match w.w_kind with
              | Remote r -> String.equal r.token token
              | Owned -> false)
            !workers
        in
        match found with
        | None -> deny p "unknown session"
        | Some w ->
            (* A still-live session means the old connection has not torn
               down yet (e.g. a stalled worker came back before its lease
               ran out): retire it first, requeueing whatever it held —
               the worker discarded its frontier. *)
            lose w;
            if attach p w ~pid ~token then begin
              incr reconnects;
              on_event (Rejoined { wid; pid })
            end
            else begin
              w.w_alive <- false;
              close_conn w
            end)
    | _ -> deny p "bad handshake"
  in
  let accept_pending () =
    match Proto.accept lfd with
    | fd, addr ->
        pendings :=
          {
            p_fd = fd;
            p_addr = addr;
            p_deadline = Unix.gettimeofday () +. 5.;
          }
          :: !pendings
    | exception Unix.Unix_error _ -> ()
  in
  (* ---------------- solo degradation ---------------- *)
  (* When no worker is alive (remote workers left, owned restarts
     exhausted, or none were ever configured) the coordinator explores
     items itself rather than aborting: slower, but the run completes.
     It slices a one-engine pool, built on first need, the way a
     [jobs = 1] worker does.  Slices stay short so the listener keeps
     being polled; a worker joining mid-item takes over once the solo
     frontier is handed back to the queue. *)
  let solo = lazy (Parallel.pool ~jobs:1 ~make_engine) in
  let solo_item = ref None in
  let solo_paths = ref 0 in
  let solo_drain pool =
    List.iter
      (fun s ->
        List.iter
          (fun p ->
            paths := p :: !paths;
            incr solo_paths)
          (Worker.paths_of_state ~cases s))
      (Parallel.drain pool)
  in
  let solo_start () =
    let it = Queue.pop queue in
    let pool = Lazy.force solo in
    match
      Codec.decode_state ~base:(Parallel.engine pool).Executor.base_mem
        it.it_blob
    with
    | s ->
        Parallel.adopt pool s;
        solo_item := Some it;
        on_event (Solo { item = it.it_id })
    | exception Codec.Error _ ->
        (* own queue, own codec: unreachable short of memory corruption *)
        abandoned := (it.it_id, it.it_attempts) :: !abandoned
  in
  let solo_step it =
    let pool = Lazy.force solo in
    Worker.run_slice pool ~slice:0.05 ~deadline;
    solo_drain pool;
    if Parallel.frontier pool = [] then begin
      solo_item := None;
      on_event (Completed { pid = 0; item = it.it_id; paths = 0 })
    end
  in
  (* Drain or a rejoined worker: hand the solo frontier back to the
     queue, exactly like a worker checkpoint. *)
  let solo_checkpoint () =
    if Option.is_some !solo_item then begin
      let pool = Lazy.force solo in
      Parallel.quiesce pool;
      solo_drain pool;
      List.iter
        (fun s -> enqueue_blob (Codec.encode_state s))
        (Parallel.frontier pool);
      Parallel.drop pool;
      solo_item := None
    end
  in
  (* ---------------- scheduling ---------------- *)
  (* Solo mode waits out a short grace after worker presence is lost (or
     at startup, before anyone has dialed in): a worker needs a moment to
     connect or reconnect, and without the grace a fast workload would be
     fully drained solo before its workers ever join.  A handshake in
     flight extends the wait. *)
  let solo_grace = 0.35 in
  let last_presence = ref t0 in
  (* Item budget: a few seconds, scaled by the worker's observed
     throughput relative to the fastest peer, so a slow worker's
     remainder re-enters the queue while fast workers are hungry. *)
  let budget_for w =
    let best =
      List.fold_left
        (fun acc v -> if v.w_alive then Float.max acc v.w_rate else acc)
        0. !workers
    in
    let b =
      if best > 0. && w.w_rate > 0. then
        Float.max 0.5 (Float.min 4.0 (2.0 *. w.w_rate /. best))
      else 2.0
    in
    if deadline = infinity then b
    else Float.min b (deadline -. Unix.gettimeofday ())
  in
  List.iter do_spawn !workers;
  let completed_enough () =
    match limits.Executor.max_completed, limits.Executor.max_instructions with
    | None, None -> false
    | max_completed, max_instructions -> (
        let st = Executor.stats_of_obs (run_obs ()) in
        (match max_completed with
        | Some m -> st.Executor.states_completed >= m
        | None -> false)
        ||
        match max_instructions with
        | Some m -> st.Executor.concrete_instret > m
        | None -> false)
  in
  let have_busy () =
    List.exists
      (fun w ->
        w.w_alive && match w.w_status with Busy _ -> true | _ -> false)
      !workers
  in
  let send_to w m =
    match w.w_conn with
    | None -> raise Proto.Closed
    | Some fd -> Proto.send fd m
  in
  (* Connected and waiting for work (an owned worker between losing its
     connection and rejoining is alive but not ready). *)
  let ready w = w.w_alive && w.w_status = Idle && Option.is_some w.w_conn in
  let rec loop () =
    let now = Unix.gettimeofday () in
    if (!interrupted || now > deadline || completed_enough ())
       && not !draining
    then begin
      (* Budget hit or Ctrl-C: graceful drain.  Busy workers checkpoint
         their frontiers; nothing new is dispatched. *)
      draining := true;
      solo_checkpoint ();
      List.iter (fun p -> drop_pending p) !pendings
    end;
    (* Every connection is told once, so a worker that rejoins mid-drain
       to resume its item is told too. *)
    if !draining then
      List.iter
        (fun w ->
          if w.w_alive && Option.is_some w.w_conn && not w.w_shutdown then begin
            try
              send_to w Proto.Shutdown;
              w.w_shutdown <- true
            with Proto.Closed | Codec.Error _ -> lose w
          end)
        !workers;
    let continue =
      if !draining then have_busy ()
      else
        (not (Queue.is_empty queue)) || have_busy () || !solo_item <> None
    in
    if continue then begin
      if not !draining then begin
        (* A worker (re)appeared while the coordinator was exploring
           solo: hand the solo frontier back to the queue so the worker
           takes over. *)
        if List.exists ready !workers then solo_checkpoint ();
        (* Dispatch queued items to idle workers. *)
        List.iter
          (fun w ->
            if ready w && not (Queue.is_empty queue) then begin
              let it = Queue.pop queue in
              match
                send_to w
                  (Proto.Work
                     {
                       item = it.it_id;
                       budget = budget_for w;
                       cases;
                       blob = it.it_blob;
                     })
              with
              | () ->
                  w.w_status <- Busy it;
                  w.w_dispatched <- Unix.gettimeofday ();
                  on_event (Dispatched { pid = w.w_pid; item = it.it_id })
              | exception (Proto.Closed | Codec.Error _) ->
                  Queue.push it queue;
                  lose w
            end)
          !workers;
        (* Rebalance: queue dry + idle workers → steal from the busiest
           worker (largest reported frontier) without a pending steal. *)
        if Queue.is_empty queue && List.exists ready !workers then begin
          let victim = ref None in
          List.iter
            (fun w ->
              match w.w_status with
              | Busy _
                when w.w_alive && Option.is_some w.w_conn && w.w_steal = 0.
                     && now -. w.w_nak >= 0.25 ->
                  (match !victim with
                  | Some v when v.w_frontier >= w.w_frontier -> ()
                  | _ -> victim := Some w)
              | _ -> ())
            !workers;
          match !victim with
          | Some w -> (
              try
                send_to w Proto.Steal;
                w.w_steal <- now
              with Proto.Closed | Codec.Error _ -> lose w)
          | None -> ()
        end;
        (* Degradation ladder, bottom rung: nobody left to delegate to,
           so the coordinator works the queue itself. *)
        if live_count () > 0 then last_presence := now;
        match !solo_item with
        | Some it -> solo_step it
        | None ->
            if
              live_count () = 0
              && !pendings = []
              && now -. !last_presence >= solo_grace
              && (not (Queue.is_empty queue))
              && now <= deadline
            then solo_start ()
      end;
      (* Steal requests a worker never answered (long solver call) are
         retried after a grace period. *)
      List.iter
        (fun w ->
          if w.w_steal > 0. && now -. w.w_steal > 2. then w.w_steal <- 0.)
        !workers;
      (* Liveness: a worker silent past its lease (or an owned process
         that never dialed in or rejoined) is presumed dead.  An owned
         process is killed and restarted; a remote session is lost. *)
      List.iter
        (fun w ->
          if w.w_alive && now -. w.w_last > heartbeat_timeout then
            match w.w_kind with
            | Owned ->
                discard w;
                restart w
            | Remote _ -> lose w)
        !workers;
      (* An owned process that died (crashed, killed, or out of reconnect
         retries) is reaped here once it has no connection.  One that
         still has a connection is left to it: the frames it sent before
         exiting ([Checkpoint], [Bye]) are read first, then its EOF
         clears the connection and the next pass reaps it. *)
      List.iter
        (fun w ->
          if w.w_alive && w.w_kind = Owned && w.w_conn = None then
            match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
            | 0, _ -> ()
            | _ -> restart w
            | exception Unix.Unix_error _ -> ())
        !workers;
      (* Handshakes that never completed time out. *)
      List.iter
        (fun p -> if now > p.p_deadline then drop_pending p)
        !pendings;
      (* The listener stays polled while draining: an owned worker that
         lost its connection must be able to rejoin and hand back its
         item; everyone else is denied. *)
      let select_fds =
        List.fold_left
          (fun acc p -> p.p_fd :: acc)
          (lfd :: live_fds ()) !pendings
      in
      let timeout = if !solo_item <> None then 0. else 0.05 in
      let readable =
        match Unix.select select_fds [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun fd ->
          if fd == lfd then accept_pending ()
          else
            match
              List.find_opt
                (fun w ->
                  w.w_alive
                  &&
                  w.w_conn = Some fd)
                !workers
            with
            | Some w -> (
                match Proto.recv fd with
                | m -> handle_msg w m
                | exception (Proto.Closed | Codec.Error _) -> lose w)
            | None -> (
                match List.find_opt (fun p -> p.p_fd = fd) !pendings with
                | None -> ()
                | Some p -> (
                    match Proto.recv fd with
                    | m -> admit p m
                    | exception (Proto.Closed | Codec.Error _) ->
                        drop_pending p)))
        readable;
      loop ()
    end
  in
  loop ();
  solo_checkpoint ();
  List.iter (fun p -> drop_pending p) !pendings;
  (* Final collection: every admitted worker checkpoints (already done if
     it was busy) and reports telemetry in Bye; an owned process that
     never dialed in, or will not say goodbye, is killed. *)
  List.iter
    (fun w ->
      if w.w_alive then
        match w.w_conn with
        | None -> discard w
        | Some fd ->
            (if not w.w_shutdown then
               try
                 send_to w Proto.Shutdown;
                 w.w_shutdown <- true
               with Proto.Closed | Codec.Error _ -> discard w);
            let give_up = Unix.gettimeofday () +. 5. in
            while w.w_alive && Unix.gettimeofday () < give_up do
              match Proto.recv_opt fd ~timeout:0.2 with
              | Some m -> handle_msg w m
              | None -> ()
              | exception (Proto.Closed | Codec.Error _) -> discard w
            done;
            if w.w_alive then discard w)
    !workers;
  if listener = None then Unix.close lfd;
  (match old_sigint with
  | Some h -> Sys.set_signal Sys.sigint h
  | None -> ());
  let obs = Obs.Metrics.merge_snapshots [ Obs.Metrics.snapshot (); !remote ] in
  (* The coordinator's own events (boot, transport frames) join the
     worker chunks on the merged timeline. *)
  let local_events, local_dropped = Obs.Trace.drain () in
  let trace =
    List.sort
      (fun (a : Obs.Trace.event) b -> compare a.ev_ts b.ev_ts)
      (List.rev_append !trace_events local_events)
  in
  {
    procs;
    paths = List.rev !paths;
    stats = Executor.stats_of_obs (run_obs ());
    obs;
    steals = !steals;
    requeues = !requeues;
    restarts = !restarts;
    abandoned = List.rev !abandoned;
    retransmits = 0;
    (* Both directions: the coordinator's own counter is in its local
       snapshot; each worker's arrived with its reports. *)
    injected = Obs.Metrics.get_int obs "fault.proto.corrupt";
    unexplored = Queue.length queue + List.length !abandoned;
    wall_seconds = Unix.gettimeofday () -. t0;
    joins = !joins;
    reconnects = !reconnects;
    leaves = !leaves;
    solo_paths = !solo_paths;
    trace;
    trace_dropped = !trace_dropped + local_dropped;
  }
