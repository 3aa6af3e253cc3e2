(* lib/dist tests: snapshot codec roundtrips, strict decoding, and
   differential + fault-injection tests for the coordinator and its TCP
   workers.

   This suite must run before any suite that spawns OCaml domains: the
   coordinator's Fork spawn mode uses Unix.fork, which is only safe
   while the process is still single-domain. *)

open S2e_cc
open S2e_core
open S2e_expr
module Codec = S2e_dist.Codec
module Proto = S2e_dist.Proto
module Coordinator = S2e_dist.Coordinator

let runtime =
  {|
__start:
  li sp, 0xFFFF0
  jal main
  li r1, 0x900
  sw r0, 0(r1)
  halt
|}

(* 2^5 = 32 paths; every path fixes all five tested bits, so test cases
   are distinct and the drained path set is deterministic. *)
let workload_32 =
  {|
int main() {
  int x = __s2e_sym_int(1);
  int acc = 0;
  for (int i = 0; i < 5; i = i + 1) {
    if ((x >> i) & 1) acc = acc + (i * 3 + 1);
  }
  if (acc > 20) return 1;
  return 0;
} |}

(* 2^6 = 64 paths: enough runway that a worker killed mid-run is still
   holding unexplored states. *)
let workload_64 =
  {|
int main() {
  int x = __s2e_sym_int(1);
  int acc = 0;
  for (int i = 0; i < 6; i = i + 1) {
    if ((x >> i) & 1) acc = acc + (i * 3 + 1);
  }
  if (acc > 30) return 1;
  return 0;
} |}

(* 2^8 = 256 paths: a run long enough that TCP chaos (disconnects,
   kills, joins) reliably lands mid-run. *)
let workload_256 =
  {|
int main() {
  int x = __s2e_sym_int(1);
  int acc = 0;
  for (int i = 0; i < 8; i = i + 1) {
    if ((x >> i) & 1) acc = acc + (i * 3 + 1);
  }
  if (acc > 50) return 1;
  return 0;
} |}

(* 2^12 = 4096 paths: seconds of runway, so probabilistic disconnect
   chaos (p = 0.05 per liveness draw) fires many times per run. *)
let workload_4096 =
  {|
int main() {
  int x = __s2e_sym_int(1);
  int y = __s2e_sym_int(1);
  int acc = 0;
  for (int i = 0; i < 6; i = i + 1) {
    if ((x >> i) & 1) acc = acc + (i * 3 + 1);
    if ((y >> i) & 1) acc = acc + (i * 5 + 2);
  }
  if (acc > 100) return 1;
  return 0;
} |}

(* 2^14 = 16384 paths: an owned worker heartbeats every 0.25 s, and its
   chaos draws happen only at heartbeats, so a run meant to see them
   must outlast several. *)
let workload_16384 =
  {|
int main() {
  int x = __s2e_sym_int(1);
  int y = __s2e_sym_int(1);
  int acc = 0;
  for (int i = 0; i < 7; i = i + 1) {
    if ((x >> i) & 1) acc = acc + (i * 3 + 1);
    if ((y >> i) & 1) acc = acc + (i * 5 + 2);
  }
  if (acc > 100) return 1;
  return 0;
} |}

(* 2 x 2^9 = 1024 paths that mint an input in every loop iteration,
   after the first fork, under one of two names: a process that adopts
   another's state then meets ids that process minted, in the same
   order of magnitude as its own. *)
let workload_minted_late =
  {|
int main() {
  int x = __s2e_sym_int(1);
  int acc = 0;
  if (x & 1) acc = 7;
  for (int i = 0; i < 9; i = i + 1) {
    int v = 0;
    if (i & 1) v = __s2e_sym_int(2); else v = __s2e_sym_int(3);
    if (v & 1) acc = acc + i;
  }
  if (acc > 30) return 1;
  return 0;
} |}

let make_engine_for workload () =
  let linked = Cc.link ~runtime_asm:runtime [ ("prog", workload) ] in
  let engine = Executor.create () in
  Executor.load engine
    {
      Executor.l_origin = linked.image.origin;
      l_code = linked.image.code;
      l_modules =
        List.map
          (fun (m : Cc.module_range) ->
            (m.m_name, m.m_start, m.m_code_end, m.m_end))
          linked.modules;
    };
  Executor.set_unit engine [ "prog" ];
  engine

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_expr_roundtrip () =
  (* Expr.Raw builds these shapes verbatim (no smart-constructor folding),
     which is exactly what the codec promises to reproduce. *)
  let v = Expr.fresh_var ~width:8 "sym1_0" in
  let exprs =
    [
      Expr.Raw.const ~width:16 0x1234L;
      v;
      Expr.Raw.unop Expr.Bnot v;
      Expr.Raw.binop Expr.Add v v;
      Expr.Raw.cmp Expr.Slt v (Expr.Raw.const ~width:8 3L);
      Expr.Raw.ite (Expr.Raw.cmp Expr.Eq v v) v v;
      Expr.Raw.extract ~hi:6 ~lo:2 v;
      Expr.Raw.concat ~high:v ~low:v;
      Expr.Raw.zext ~width:32 v;
      Expr.Raw.sext ~width:64 v;
    ]
  in
  List.iter
    (fun e ->
      let e' = Codec.decode_expr (Codec.encode_expr e) in
      Alcotest.(check bool) "expr roundtrips structurally" true (Expr.equal e e');
      (* Decode interns into this domain's table, so the roundtrip result
         must be the canonical node itself. *)
      Alcotest.(check bool) "expr roundtrips physically" true (e == e'))
    exprs

(* Variable identity is the id alone, so an id that arrives under
   another name or width than the node interned here must be refused:
   aliasing it would silently change what the decoded constraints
   mean. *)
let test_decode_var_clash_raises () =
  let x = Expr.fresh_var ~width:32 "clash_x" in
  let blob = Codec.encode_expr x in
  Alcotest.(check bool) "own encoding decodes to the interned node" true
    (Codec.decode_expr blob == x);
  (* A variable encodes as [tag | id | width | name length | name]. *)
  let name_at = String.length blob - String.length "clash_x" in
  let renamed = String.sub blob 0 name_at ^ "clash_y" in
  let narrowed = Bytes.of_string blob in
  Bytes.set narrowed (name_at - 5) (Char.chr 8);
  let raises what blob =
    match Codec.decode_expr blob with
    | e ->
        Alcotest.failf "%s: decoded to %s instead of raising" what
          (Expr.to_string e)
    | exception Codec.Error _ -> ()
  in
  raises "same id, other name" renamed;
  raises "same id, other width" (Bytes.to_string narrowed)

(* Explore a few paths, then snapshot a mid-run frontier state: it has a
   symbolic memory overlay, non-trivial path constraints and live device
   state. *)
let frontier_state () =
  let eng = make_engine_for workload_32 () in
  let s0 = Executor.boot eng ~entry:0x1000 () in
  ignore
    (Executor.run
       ~limits:
         {
           Executor.max_instructions = None;
           max_seconds = None;
           max_completed = Some 4;
         }
       eng s0);
  match eng.Executor.live with
  | [] -> Alcotest.fail "expected a live frontier state"
  | s :: _ -> (eng, s)

let test_state_roundtrip () =
  let eng, s = frontier_state () in
  Alcotest.(check bool) "state has constraints" true (s.State.constraints <> []);
  let blob = Codec.encode_state s in
  let s' = Codec.decode_state ~base:eng.Executor.base_mem blob in
  Alcotest.(check int) "id" s.State.id s'.State.id;
  Alcotest.(check int) "parent" s.State.parent s'.State.parent;
  Alcotest.(check int) "pc" s.State.pc s'.State.pc;
  Alcotest.(check int) "depth" s.State.depth s'.State.depth;
  Alcotest.(check int) "instret" s.State.instret s'.State.instret;
  Alcotest.(check int) "sym_instret" s.State.sym_instret s'.State.sym_instret;
  Alcotest.(check string) "status" (State.status_string s.State.status)
    (State.status_string s'.State.status);
  Alcotest.(check bool) "regs equal" true (s.State.regs = s'.State.regs);
  Alcotest.(check bool) "constraints equal (exact order, no resimplify)" true
    (s.State.constraints = s'.State.constraints);
  let overlay st =
    Symmem.fold_overlay (fun a e acc -> (a, e) :: acc) st.State.mem []
  in
  Alcotest.(check bool) "overlay non-empty" true (overlay s <> []);
  Alcotest.(check bool) "overlay equal" true (overlay s = overlay s');
  Alcotest.(check bool) "same base image" true
    (Symmem.base s'.State.mem == eng.Executor.base_mem);
  Alcotest.(check string) "console" s.State.devices.S2e_vm.Devices.console.out
    s'.State.devices.S2e_vm.Devices.console.out;
  (* The decoded state must solve to the same canonical test case. *)
  Alcotest.(check string) "same test case"
    (Parallel.test_case_to_string (Parallel.test_case s))
    (Parallel.test_case_to_string (Parallel.test_case s'))

let test_strict_decode_errors () =
  let eng, s = frontier_state () in
  let base = eng.Executor.base_mem in
  let blob = Codec.encode_state s in
  let raises what f =
    match f () with
    | (_ : State.t) -> Alcotest.failf "%s: expected Codec.Error" what
    | exception Codec.Error _ -> ()
  in
  raises "truncated" (fun () ->
      Codec.decode_state ~base (String.sub blob 0 (String.length blob / 2)));
  raises "empty" (fun () -> Codec.decode_state ~base "");
  (* Flip one payload byte: the trailing checksum must catch it. *)
  let corrupt = Bytes.of_string blob in
  let mid = Bytes.length corrupt / 2 in
  Bytes.set corrupt mid (Char.chr (Char.code (Bytes.get corrupt mid) lxor 0x40));
  raises "corrupted byte" (fun () ->
      Codec.decode_state ~base (Bytes.to_string corrupt));
  (* Wrong magic. *)
  let wrong_magic = Bytes.of_string blob in
  Bytes.set wrong_magic 0 'X';
  raises "wrong magic" (fun () ->
      Codec.decode_state ~base (Bytes.to_string wrong_magic));
  (* Trailing garbage after a well-formed payload. *)
  raises "trailing bytes" (fun () -> Codec.decode_state ~base (blob ^ "\000"));
  (* A different base image must be rejected by the fingerprint. *)
  let other = Bytes.copy base in
  Bytes.set other 0 (Char.chr (Char.code (Bytes.get other 0) lxor 1));
  raises "base image mismatch" (fun () -> Codec.decode_state ~base:other blob)

(* The snapshot wire format is pinned: a fixed state whose overlay mixes
   aligned, unaligned, chunk-crossing, symbolic and base-equal bytes must
   keep encoding to the same bytes whatever representation Symmem uses. *)
let golden_state () =
  let base = Bytes.make 4096 '\000' in
  Bytes.set base 17 '\x5a';
  let x = Expr.Raw.var ~id:41 ~name:"golden_x" ~width:32 in
  let y = Expr.Raw.var ~id:42 ~name:"golden_y" ~width:8 in
  let mem = Symmem.create ~base in
  let mem = Symmem.write_word mem 64 (Expr.const 0xDEADBEEFL) in
  let mem = Symmem.write_word mem 70 x in
  let mem = Symmem.write_byte mem 17 (Expr.const ~width:8 0x5aL) in
  let mem = Symmem.write_byte mem 3 y in
  let mem = Symmem.write_word mem 1021 (Expr.add x (Expr.const 7L)) in
  let mem = Symmem.write_byte mem 66 y in
  let s =
    { (State.create ~mem ~devices:(S2e_vm.Devices.create ()) ~pc:0x1040) with
      State.id = 7 }
  in
  s.State.parent <- 3;
  State.set_reg s 5 x;
  State.set_reg s 6 (Expr.const 0x1234L);
  State.add_constraint s (Expr.ult x (Expr.const 100L));
  State.add_constraint s (Expr.eq (Expr.zext ~width:32 y) (Expr.const 3L));
  s

let test_state_golden_digest () =
  Alcotest.(check string) "encode_state digest" "669d6a5a850efb1e1245966031df1c50"
    (Digest.to_hex (Digest.string (Codec.encode_state (golden_state ()))))

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

let serial_case_set workload =
  let r = Parallel.explore ~jobs:1 ~make_engine:(make_engine_for workload)
      ~boot:(fun eng -> Executor.boot eng ~entry:0x1000 ()) ()
  in
  ( List.map
      (fun (s : State.t) ->
        Parallel.test_case_to_string (Parallel.test_case s))
      r.Parallel.completed
    |> List.sort compare,
    r )

let dist_case_set (r : Coordinator.result) =
  List.map
    (fun (p : Proto.path) -> Parallel.test_case_to_string p.Proto.p_case)
    r.Coordinator.paths
  |> List.sort compare

let test_procs2_matches_serial () =
  let make_engine = make_engine_for workload_32 in
  let before = S2e_obs.Metrics.snapshot () in
  let serial_cases, serial = serial_case_set workload_32 in
  let serial_created =
    S2e_obs.Metrics.(
      get_int (delta ~before (snapshot ())) "engine.states_created")
  in
  (* The coordinator only boots: solver counts in the merged registry come
     from the workers' reports. *)
  S2e_obs.Metrics.reset ();
  let r =
    Coordinator.explore ~procs:2 ~cases:true
      ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
      ~make_engine
      ~boot:(fun eng -> Executor.boot eng ~entry:0x1000 ())
      ()
  in
  Alcotest.(check int) "procs recorded" 2 r.Coordinator.procs;
  Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
  Alcotest.(check int) "no requeues" 0 r.Coordinator.requeues;
  Alcotest.(check (list string))
    "identical test-case sets" serial_cases (dist_case_set r);
  Alcotest.(check int) "same completion count"
    serial.Parallel.stats.Executor.states_completed
    r.Coordinator.stats.Executor.states_completed;
  Alcotest.(check int) "same fork count" serial.Parallel.stats.Executor.forks
    r.Coordinator.stats.Executor.forks;
  Alcotest.(check int) "same creation count" serial_created
    (S2e_obs.Metrics.get_int r.Coordinator.obs "engine.states_created");
  Alcotest.(check bool) "worker solver contexts did the solving" true
    (S2e_obs.Metrics.get_int r.Coordinator.obs "solver.queries" > 0)

(* Workers mint ids in disjoint spaces: inputs created after the first
   fork, in whichever process explores them, never meet another
   process's ids when states move between workers.  Repeated because
   a clash depends on how items are scheduled. *)
let test_late_inputs_match_serial () =
  let make_engine = make_engine_for workload_minted_late in
  let serial_cases, _ = serial_case_set workload_minted_late in
  Alcotest.(check int) "1024 serial paths" 1024 (List.length serial_cases);
  for _ = 1 to 6 do
    let r =
      Coordinator.explore ~procs:2 ~cases:true
        ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
        ~make_engine
        ~boot:(fun eng -> Executor.boot eng ~entry:0x1000 ())
        ()
    in
    Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
    Alcotest.(check (list string))
      "identical test-case multiset" serial_cases (dist_case_set r)
  done

(* Each worker keeps one pool of [jobs] engines for its whole life, so
   the blocks it translates are bounded by what its engines touch, not
   by how many slices the run took. *)
let test_jobs2_workers_keep_their_engines () =
  let make_engine = make_engine_for workload_4096 in
  let before = S2e_obs.Metrics.snapshot () in
  let serial_cases, serial = serial_case_set workload_4096 in
  let serial_misses =
    S2e_obs.Metrics.(get_int (delta ~before (snapshot ())) "dbt.tb_misses")
  in
  S2e_obs.Metrics.reset ();
  let procs = 2 and jobs = 2 in
  let r =
    Coordinator.explore ~procs ~cases:true
      ~spawn:(Coordinator.Fork { jobs; slice = 0.01; make_engine })
      ~make_engine
      ~boot:(fun eng -> Executor.boot eng ~entry:0x1000 ())
      ()
  in
  Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
  Alcotest.(check (list string))
    "identical test-case sets" serial_cases (dist_case_set r);
  Alcotest.(check int) "same completion count"
    serial.Parallel.stats.Executor.states_completed
    r.Coordinator.stats.Executor.states_completed;
  Alcotest.(check int) "same fork count" serial.Parallel.stats.Executor.forks
    r.Coordinator.stats.Executor.forks;
  let misses = S2e_obs.Metrics.get_int r.Coordinator.obs "dbt.tb_misses" in
  if misses > ((procs * jobs) + 1) * serial_misses then
    Alcotest.failf "%d translations against %d serial" misses serial_misses

let test_kill_worker_mid_run () =
  let make_engine = make_engine_for workload_64 in
  let serial_cases, _ = serial_case_set workload_64 in
  (* SIGKILL the first worker the moment it is handed the root item: its
     in-flight item must be requeued and redone by a surviving/respawned
     worker, with no path lost or duplicated. *)
  let killed = ref false in
  let on_event = function
    | Coordinator.Dispatched { pid; _ } when not !killed ->
        killed := true;
        Unix.kill pid Sys.sigkill
    | _ -> ()
  in
  let r =
    Coordinator.explore ~procs:2 ~cases:true ~on_event
      ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
      ~make_engine
      ~boot:(fun eng -> Executor.boot eng ~entry:0x1000 ())
      ()
  in
  Alcotest.(check bool) "a worker was killed" true !killed;
  Alcotest.(check bool) "in-flight item was requeued" true
    (r.Coordinator.requeues >= 1);
  Alcotest.(check bool) "worker was respawned" true (r.Coordinator.restarts >= 1);
  Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
  Alcotest.(check (list string))
    "path set unchanged by the crash" serial_cases (dist_case_set r)

(* Counters retire with items: SIGKILL a worker the moment one of its
   items is retired.  It never sends [Bye], yet the counts of the work it
   handed back have already arrived with that item, and the work it held
   unretired is counted once, by the worker that redoes it. *)
let test_killed_worker_counts_arrive () =
  let make_engine = make_engine_for workload_64 in
  let _, serial = serial_case_set workload_64 in
  let killed = ref false in
  let kill pid =
    (* pid 0 is the coordinator itself, exploring solo *)
    if (not !killed) && pid > 0 then begin
      killed := true;
      Unix.kill pid Sys.sigkill
    end
  in
  let on_event = function
    | Coordinator.Completed { pid; _ } | Coordinator.Checkpointed { pid; _ } ->
        kill pid
    | _ -> ()
  in
  S2e_obs.Metrics.reset ();
  let r =
    Coordinator.explore ~procs:2 ~on_event
      ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
      ~make_engine
      ~boot:(fun eng -> Executor.boot eng ~entry:0x1000 ())
      ()
  in
  Alcotest.(check bool) "a worker was killed" true !killed;
  Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
  Alcotest.(check int) "the registry counts every completion"
    r.Coordinator.stats.Executor.states_completed
    (S2e_obs.Metrics.get_int r.Coordinator.obs "engine.states_completed");
  Alcotest.(check int) "as many completions as serial"
    serial.Parallel.stats.Executor.states_completed
    r.Coordinator.stats.Executor.states_completed

(* ------------------------------------------------------------------ *)
(* Chaos: transport fault injection                                    *)
(* ------------------------------------------------------------------ *)

module Fault = S2e_fault.Fault

let with_plan ?seed spec f =
  (match Fault.parse_plan spec with
  | Ok plan -> Fault.install ?seed plan
  | Error msg -> Alcotest.failf "bad plan %S: %s" spec msg);
  Fun.protect ~finally:Fault.disarm f

(* A damaged frame reads exactly like EOF, and the stream stays framed:
   with the plan disarmed, one frame of every message kind round-trips
   over the same connection. *)
let test_corrupt_frame_is_disconnect () =
  let fd_a, fd_b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd_a;
      Unix.close fd_b)
    (fun () ->
      with_plan "proto=corrupt:1.0" (fun () ->
          Proto.send fd_a Proto.Ping;
          match Proto.recv fd_b with
          | (_ : Proto.msg) -> Alcotest.fail "a damaged frame was delivered"
          | exception Proto.Closed -> ());
      let path = { Proto.p_status = "halted"; p_case = [ ("x", 5L) ] } in
      let obs = [ ("engine.forks", S2e_obs.Metrics.Int 3) ] in
      let every_kind =
        [
          Proto.Hello { version = Proto.version; pid = 41 };
          Proto.Work { item = 3; budget = 1.5; cases = true; blob = "snap" };
          Proto.Steal;
          Proto.Ping;
          Proto.Shutdown;
          Proto.Heartbeat { pid = 7; frontier = 3; now = 12.5; trace = "t" };
          Proto.Nak { item = 3 };
          Proto.Result { item = 3; paths = [ path ]; obs };
          Proto.Checkpoint
            { item = 4; paths = [ path ]; obs; states = [ "a"; "b" ] };
          Proto.Bye
            { obs = [ ("dist.steals", S2e_obs.Metrics.Int 2) ]; now = 3.25;
              trace = "" };
          Proto.Welcome
            { wid = 5; token = "tok"; lease = 10.; resume = true; space = 9 };
          Proto.Rejoin { wid = 5; token = "tok"; pid = 41; held = Some 3 };
          Proto.Rejoin { wid = 5; token = "tok"; pid = 41; held = None };
          Proto.Deny { reason = "draining" };
        ]
      in
      List.iter
        (fun m ->
          Proto.send fd_a m;
          Alcotest.(check bool)
            "message round-trips" true
            (Proto.recv fd_b = m))
        every_kind)

let test_corrupt_transport_full_run () =
  let make_engine = make_engine_for workload_32 in
  let serial_cases, _ = serial_case_set workload_32 in
  let before = S2e_obs.Metrics.snapshot () in
  let r =
    with_plan "proto=corrupt:0.3" (fun () ->
        Coordinator.explore ~procs:2 ~cases:true
          ~limits:
            {
              Executor.max_instructions = None;
              max_seconds = Some 60.;
              max_completed = None;
            }
          ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
          ~make_engine
          ~boot:(fun eng -> Executor.boot eng ~entry:0x1000 ())
          ())
  in
  (* Transport-only chaos: no work lost and no worker killed... *)
  Alcotest.(check int) "zero lost work items" 0 r.Coordinator.unexplored;
  Alcotest.(check bool) "no abandoned items" true (r.Coordinator.abandoned = []);
  Alcotest.(check int) "no restarts" 0 r.Coordinator.restarts;
  Alcotest.(check (list string))
    "path set identical to serial" serial_cases (dist_case_set r);
  (* ...while the chaos demonstrably happened and was accounted for. *)
  Alcotest.(check bool) "faults were injected" true (r.Coordinator.injected > 0);
  (* The frames this run damaged, by sending side and kind, so that a
     run which injected faults but rejoined no worker names them. *)
  let corrupted =
    List.filter_map
      (fun (name, v) ->
        match v with
        | S2e_obs.Metrics.Int n
          when n > 0 && String.starts_with ~prefix:"dist.corrupted." name ->
            let kind = String.sub name 15 (String.length name - 15) in
            Some (Printf.sprintf "%s x%d" kind n)
        | _ -> None)
      (S2e_obs.Metrics.delta ~before r.Coordinator.obs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "owned workers rejoined (%d reconnects; corrupted: %s)"
       r.Coordinator.reconnects (String.concat ", " corrupted))
    true
    (r.Coordinator.reconnects > 0);
  Alcotest.(check int) "merged telemetry reports every injected fault"
    r.Coordinator.injected
    (S2e_obs.Metrics.get_int r.Coordinator.obs "fault.proto.corrupt")

let test_heartbeat_delay_abandonment () =
  let make_engine = make_engine_for workload_64 in
  (* Every heartbeat suppressed + every solver call slowed: the lone
     worker always goes silent past the timeout mid-item.  The
     coordinator must requeue once, then abandon the item visibly
     rather than dropping it on the floor. *)
  let r =
    with_plan "proto=delay:1.0,solver=latency:1.0" (fun () ->
        Coordinator.explore ~procs:1 ~max_item_attempts:1 ~max_restarts:8
          ~heartbeat_timeout:0.3
          ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
          ~make_engine
          ~boot:(fun eng -> Executor.boot eng ~entry:0x1000 ())
          ())
  in
  Alcotest.(check bool) "silent worker's item was requeued" true
    (r.Coordinator.requeues >= 1);
  Alcotest.(check bool) "worker was respawned" true (r.Coordinator.restarts >= 1);
  Alcotest.(check (list (pair int int)))
    "root item abandoned with its attempt count" [ (0, 2) ]
    r.Coordinator.abandoned;
  Alcotest.(check bool) "abandoned work counts as unexplored" true
    (r.Coordinator.unexplored >= 1)

(* ------------------------------------------------------------------ *)
(* TCP cluster: remote workers                                        *)
(* ------------------------------------------------------------------ *)

module Worker = S2e_dist.Worker

let no_limits ~seconds =
  {
    Executor.max_instructions = None;
    max_seconds = Some seconds;
    max_completed = None;
  }

(* Fork a TCP worker process.  The child closes every inherited
   descriptor above stderr (coordinator sockets, the listener, test-log
   fds): a surviving copy would pin peers' connections open and defeat
   the coordinator's EOF detection.  Any armed fault plan is inherited
   across the fork, so install chaos before forking. *)
let fork_tcp_worker ?(delay = 0.) ~port ~make_engine () =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      for fd = 3 to 255 do
        try Unix.close (Proto.fd_of_int fd) with Unix.Unix_error _ -> ()
      done;
      if delay > 0. then Unix.sleepf delay;
      (try
         (* heartbeat 0.02: the liveness probes, where chaos plans fire,
            start within tens of milliseconds of joining, well before
            even a short run ends *)
         Worker.serve_tcp ~jobs:1 ~slice:0.01 ~heartbeat:0.02 ~max_retries:60
           ~host:"127.0.0.1" ~port ~make_engine ()
       with _ -> ());
      Unix._exit 0
  | pid -> pid

let reap_worker pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let boot_entry eng = Executor.boot eng ~entry:0x1000 ()

(* The acceptance scenario: two TCP workers under disconnect chaos.  The
   plan fires on every heartbeat draw up to a cap of two per worker
   process, so each worker severs its connection abruptly on its first
   two heartbeats, however long the run takes — a per-draw probability
   made the disconnect count, and with it the assertions below, depend
   on run length.  Workers must rejoin with their session tokens;
   transport loss must never bleed into abandonment; and the final case
   set must match a serial run exactly.  With [~owned] the two workers
   are spawned by the coordinator instead of dialing in on their own:
   they rejoin the same way and are never restarted. *)
let test_tcp_disconnect_chaos ~owned () =
  (* Self-dialing workers heartbeat every 0.02 s; owned ones every
     0.25 s, so they get the longer run. *)
  let workload = if owned then workload_16384 else workload_4096 in
  let make_engine = make_engine_for workload in
  let serial_cases, _ = serial_case_set workload in
  let lfd = Proto.listen ~host:"127.0.0.1" ~port:0 in
  let port = Proto.bound_port lfd in
  let pids = ref [] in
  let r =
    with_plan "proto=disconnect:1.0#2" (fun () ->
        if not owned then
          pids :=
            [
              fork_tcp_worker ~port ~make_engine ();
              fork_tcp_worker ~port ~make_engine ();
            ];
        Coordinator.explore
          ~procs:(if owned then 2 else 0)
          ~cases:true ~listener:lfd ~heartbeat_timeout:2.0
          ~limits:(no_limits ~seconds:120.)
          ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
          ~make_engine ~boot:boot_entry ())
  in
  Unix.close lfd;
  List.iter reap_worker !pids;
  if not owned then
    Alcotest.(check bool) "both workers joined" true (r.Coordinator.joins >= 2);
  Alcotest.(check int) "no worker was restarted" 0 r.Coordinator.restarts;
  Alcotest.(check bool) "disconnects happened and were survived" true
    (r.Coordinator.reconnects > 0);
  Alcotest.(check bool) "leaves were recorded" true (r.Coordinator.leaves > 0);
  Alcotest.(check (list (pair int int)))
    "transport chaos never abandons items" [] r.Coordinator.abandoned;
  Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
  Alcotest.(check int) "one completion counted per reported path"
    (List.length r.Coordinator.paths)
    r.Coordinator.stats.Executor.states_completed;
  Alcotest.(check (list string))
    "case set identical to serial under chaos" serial_cases (dist_case_set r)

(* An owned worker that loses its connection mid-item keeps the item:
   its [Rejoin] names it, the coordinator still holds it for that slot,
   and the [Welcome] resumes it.  The lone worker explores the root item
   from start to finish, so every injected disconnect lands mid-item and
   nothing is requeued. *)
let test_owned_resume () =
  let make_engine = make_engine_for workload_16384 in
  let serial_cases, _ = serial_case_set workload_16384 in
  let r =
    with_plan "proto=disconnect:1.0#2" (fun () ->
        Coordinator.explore ~procs:1 ~cases:true ~heartbeat_timeout:2.0
          ~limits:(no_limits ~seconds:120.)
          ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
          ~make_engine ~boot:boot_entry ())
  in
  Alcotest.(check bool) "the worker rejoined" true
    (r.Coordinator.reconnects >= 1);
  Alcotest.(check int) "its item was resumed, never requeued" 0
    r.Coordinator.requeues;
  Alcotest.(check int) "no restarts" 0 r.Coordinator.restarts;
  Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
  Alcotest.(check int) "one completion counted per reported path"
    (List.length r.Coordinator.paths)
    r.Coordinator.stats.Executor.states_completed;
  Alcotest.(check (list string))
    "case set identical to serial" serial_cases (dist_case_set r)

(* A connection that sends a frame header claiming 1000 payload bytes and
   then goes silent must not freeze the single-threaded coordinator: its
   read times out, the connection is dropped, and the run completes on
   time with the serial case set. *)
let test_half_sent_frame () =
  let make_engine = make_engine_for workload_32 in
  let serial_cases, _ = serial_case_set workload_32 in
  let lfd = Proto.listen ~host:"127.0.0.1" ~port:0 in
  let client = Proto.dial ~host:"127.0.0.1" ~port:(Proto.bound_port lfd) in
  let header = Bytes.of_string "\xe8\x03\x00\x00\x00\x00\x00\x00" in
  Alcotest.(check int) "header sent" 8 (Unix.write client header 0 8);
  (* The forked client holds the connection open, silent, for 30 s. *)
  flush stdout;
  flush stderr;
  let pid =
    match Unix.fork () with
    | 0 ->
        for fd = 3 to 255 do
          let fd = Proto.fd_of_int fd in
          if fd <> client then try Unix.close fd with Unix.Unix_error _ -> ()
        done;
        Unix.sleepf 30.;
        Unix._exit 0
    | pid -> pid
  in
  Unix.close client;
  let r =
    Coordinator.explore ~procs:0 ~cases:true ~listener:lfd
      ~limits:(no_limits ~seconds:60.)
      ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
      ~make_engine ~boot:boot_entry ()
  in
  Unix.close lfd;
  reap_worker pid;
  Alcotest.(check (list string))
    "case set identical to serial" serial_cases (dist_case_set r);
  Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
  Alcotest.(check bool)
    (Printf.sprintf "run finished promptly (%.1f s)" r.Coordinator.wall_seconds)
    true
    (r.Coordinator.wall_seconds < 15.)

(* SIGKILL a TCP worker the moment it is handed an item, then have a
   fresh worker join mid-run: the lease recovers the in-flight item, the
   replacement is admitted, and no path is lost or duplicated. *)
let test_tcp_kill_and_join () =
  let make_engine = make_engine_for workload_256 in
  let serial_cases, _ = serial_case_set workload_256 in
  let lfd = Proto.listen ~host:"127.0.0.1" ~port:0 in
  let port = Proto.bound_port lfd in
  let w1 = fork_tcp_worker ~port ~make_engine () in
  let pids = ref [ w1 ] in
  let killed = ref false in
  let on_event = function
    | Coordinator.Dispatched { pid; _ } when (not !killed) && pid = w1 ->
        killed := true;
        Unix.kill w1 Sys.sigkill;
        (* the replacement dials in while the run is underway *)
        pids := fork_tcp_worker ~port ~make_engine () :: !pids
    | _ -> ()
  in
  let r =
    Coordinator.explore ~procs:0 ~cases:true ~listener:lfd
      ~heartbeat_timeout:1.0 ~limits:(no_limits ~seconds:120.) ~on_event
      ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
      ~make_engine ~boot:boot_entry ()
  in
  Unix.close lfd;
  List.iter reap_worker !pids;
  Alcotest.(check bool) "the first worker was killed" true !killed;
  Alcotest.(check bool) "original + replacement both admitted" true
    (r.Coordinator.joins >= 2);
  Alcotest.(check bool) "the kill was detected as a leave" true
    (r.Coordinator.leaves >= 1);
  Alcotest.(check bool) "its in-flight item was requeued" true
    (r.Coordinator.requeues >= 1);
  Alcotest.(check (list (pair int int)))
    "no abandonment from the kill" [] r.Coordinator.abandoned;
  Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
  Alcotest.(check (list string))
    "case set identical to serial across kill + join" serial_cases
    (dist_case_set r)

(* Bottom rung of the degradation ladder: a listener with no workers at
   all.  The coordinator must complete the whole run on its own boot
   engine and still produce the serial case set. *)
let test_solo_completion () =
  let make_engine = make_engine_for workload_32 in
  let serial_cases, serial = serial_case_set workload_32 in
  let lfd = Proto.listen ~host:"127.0.0.1" ~port:0 in
  let r =
    Coordinator.explore ~procs:0 ~cases:true ~listener:lfd
      ~limits:(no_limits ~seconds:60.)
      ~spawn:
        (Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
      ~make_engine ~boot:boot_entry ()
  in
  Unix.close lfd;
  Alcotest.(check int) "no workers ever joined" 0 r.Coordinator.joins;
  Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
  Alcotest.(check bool) "paths were explored solo" true
    (r.Coordinator.solo_paths > 0);
  Alcotest.(check int) "every path was explored solo"
    serial.Parallel.stats.Executor.states_completed r.Coordinator.solo_paths;
  Alcotest.(check (list string))
    "solo case set identical to serial" serial_cases (dist_case_set r)

(* Owned and remote workers share one listener and one admission path:
   SIGKILL each on its first dispatch.  The owned worker is respawned
   and its item charged an attempt; the remote one counts as a leave and
   its item is requeued uncounted.  Either way nothing is lost. *)
let test_owned_and_remote_share_listener () =
  let make_engine = make_engine_for workload_256 in
  let serial_cases, _ = serial_case_set workload_256 in
  let lfd = Proto.listen ~host:"127.0.0.1" ~port:0 in
  let port = Proto.bound_port lfd in
  let remote = fork_tcp_worker ~port ~make_engine () in
  let owned = ref None in
  let killed_owned = ref false and killed_remote = ref false in
  let on_event = function
    | Coordinator.Spawned { pid; _ } when !owned = None -> owned := Some pid
    | Coordinator.Dispatched { pid; _ }
      when (not !killed_owned) && Some pid = !owned ->
        killed_owned := true;
        Unix.kill pid Sys.sigkill
    | Coordinator.Dispatched { pid; _ } when (not !killed_remote) && pid = remote
      ->
        killed_remote := true;
        Unix.kill pid Sys.sigkill
    | _ -> ()
  in
  let r =
    Coordinator.explore ~procs:1 ~cases:true ~listener:lfd
      ~heartbeat_timeout:1.0 ~limits:(no_limits ~seconds:120.) ~on_event
      ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
      ~make_engine ~boot:boot_entry ()
  in
  Unix.close lfd;
  reap_worker remote;
  Alcotest.(check bool) "both workers were killed" true
    (!killed_owned && !killed_remote);
  Alcotest.(check bool) "the owned worker was respawned" true
    (r.Coordinator.restarts >= 1);
  Alcotest.(check bool) "the remote worker's kill was a leave" true
    (r.Coordinator.leaves >= 1);
  Alcotest.(check (list (pair int int)))
    "no abandonment" [] r.Coordinator.abandoned;
  Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
  Alcotest.(check (list string))
    "case set identical to serial across both kills" serial_cases
    (dist_case_set r)

(* A Ctrl-C drain with both owned workers busy: each answers [Shutdown]
   with [Checkpoint], [Bye] and an exit.  The coordinator must read both
   frames before it reaps the process, so neither worker is reported
   crashed and each one's telemetry arrives.  Every engine bumps
   [worker_engines] once in the process that built it, so the merged
   snapshot exceeds the coordinator's own reading by one per worker
   whose reports arrived. *)
let worker_engines = S2e_obs.Metrics.counter "test.worker_engines"

(* 2^18 paths: far more than the run below explores before its drain. *)
let workload_big =
  {|
int main() {
  int x = __s2e_sym_int(1);
  int y = __s2e_sym_int(1);
  int z = __s2e_sym_int(1);
  int acc = 0;
  for (int i = 0; i < 6; i = i + 1) {
    if ((x >> i) & 1) acc = acc + (i * 3 + 1);
    if ((y >> i) & 1) acc = acc + (i * 5 + 2);
    if ((z >> i) & 1) acc = acc + (i * 7 + 3);
  }
  if (acc > 150) return 1;
  return 0;
} |}

let test_owned_drain_says_goodbye () =
  let build = make_engine_for workload_big in
  let make_engine () =
    S2e_obs.Metrics.incr worker_engines;
    build ()
  in
  (* Interrupt once both workers are busy, half a second in: by then the
     items are big enough to still be running when the drain starts.  Then
     dawdle over each drain checkpoint, so its worker has sent its
     [Bye] and exited before the coordinator's next pass. *)
  let busy = ref [] and t0 = Unix.gettimeofday () in
  let interrupted = ref false and crashed = ref [] in
  let on_event = function
    | Coordinator.Dispatched { pid; _ } ->
        busy := pid :: List.filter (( <> ) pid) !busy;
        if
          (not !interrupted)
          && Unix.gettimeofday () -. t0 >= 0.5
          && List.length !busy = 2
        then begin
          interrupted := true;
          Unix.kill (Unix.getpid ()) Sys.sigint
        end
    | Coordinator.Completed { pid; _ } -> busy := List.filter (( <> ) pid) !busy
    | Coordinator.Checkpointed { pid; _ } ->
        busy := List.filter (( <> ) pid) !busy;
        if !interrupted then Unix.sleepf 0.1
    | Coordinator.Crashed { pid; _ } -> crashed := pid :: !crashed
    | _ -> ()
  in
  let r =
    Coordinator.explore ~procs:2 ~cases:true ~handle_sigint:true
      ~limits:(no_limits ~seconds:60.) ~on_event
      ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
      ~make_engine ~boot:boot_entry ()
  in
  let byes =
    S2e_obs.Metrics.get_int r.Coordinator.obs "test.worker_engines"
    - S2e_obs.Metrics.get_int (S2e_obs.Metrics.snapshot ()) "test.worker_engines"
  in
  Alcotest.(check bool) "the run was interrupted mid-item" true
    (!interrupted && r.Coordinator.unexplored > 0);
  Alcotest.(check (list int)) "no worker reported crashed" [] !crashed;
  Alcotest.(check int) "no restarts" 0 r.Coordinator.restarts;
  Alcotest.(check int) "one Bye snapshot per worker" 2 byes

(* Fork a peer that dials from 127.0.0.2, presents [pid] in its [Hello],
   waits for the verdict and hangs up. *)
let fork_impostor ~port ~pid =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      for fd = 3 to 255 do
        try Unix.close (Proto.fd_of_int fd) with Unix.Unix_error _ -> ()
      done;
      (try
         let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
         Unix.bind fd
           (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.2", 0));
         Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
         Proto.send fd (Proto.Hello { version = Proto.version; pid });
         ignore (Proto.recv fd);
         Unix.close fd
       with _ -> ());
      Unix._exit 0
  | child -> child

(* Owned workers are recognised by pid only on the address they dial
   from: a peer elsewhere whose [Hello] carries an owned worker's pid
   joins as a new remote worker and leaves the owned slot alone. *)
let test_foreign_pid_is_remote () =
  let make_engine = make_engine_for workload_256 in
  let serial_cases, _ = serial_case_set workload_256 in
  let lfd = Proto.listen ~host:"127.0.0.1" ~port:0 in
  let port = Proto.bound_port lfd in
  let impostor = ref None in
  let joined = ref [] in
  let on_event = function
    | Coordinator.Spawned { pid; _ } when !impostor = None ->
        impostor := Some (fork_impostor ~port ~pid)
    | Coordinator.Joined { addr; _ } -> joined := addr :: !joined
    | _ -> ()
  in
  let r =
    Coordinator.explore ~procs:1 ~cases:true ~listener:lfd
      ~limits:(no_limits ~seconds:120.) ~on_event
      ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
      ~make_engine ~boot:boot_entry ()
  in
  Unix.close lfd;
  Option.iter reap_worker !impostor;
  Alcotest.(check (list string))
    "the impostor joined as remote" [ "127.0.0.2" ]
    (List.map (fun a -> List.hd (String.split_on_char ':' a)) !joined);
  Alcotest.(check int) "the owned worker never had to rejoin" 0
    r.Coordinator.reconnects;
  Alcotest.(check int) "no restarts" 0 r.Coordinator.restarts;
  Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
  Alcotest.(check (list string))
    "case set identical to serial" serial_cases (dist_case_set r)

let tests =
  [
    Alcotest.test_case "expression codec roundtrip" `Quick test_expr_roundtrip;
    Alcotest.test_case "state snapshot roundtrip" `Quick test_state_roundtrip;
    Alcotest.test_case "strict decode errors" `Quick test_strict_decode_errors;
    Alcotest.test_case "state snapshot golden digest" `Quick
      test_state_golden_digest;
    Alcotest.test_case "a decoded variable id clash raises" `Quick
      test_decode_var_clash_raises;
    Alcotest.test_case "procs=2 drains same path set as serial" `Quick
      test_procs2_matches_serial;
    Alcotest.test_case "inputs minted after a fork match serial" `Quick
      test_late_inputs_match_serial;
    Alcotest.test_case "jobs=2 workers keep their engines" `Quick
      test_jobs2_workers_keep_their_engines;
    Alcotest.test_case "killed worker's states are requeued" `Quick
      test_kill_worker_mid_run;
    Alcotest.test_case "a killed worker's retired counts arrive" `Quick
      test_killed_worker_counts_arrive;
    Alcotest.test_case "corrupted frame reads as a disconnect" `Quick
      test_corrupt_frame_is_disconnect;
    Alcotest.test_case "corrupt transport: zero lost work, same paths" `Quick
      test_corrupt_transport_full_run;
    Alcotest.test_case "heartbeat delay: requeue then visible abandonment"
      `Quick test_heartbeat_delay_abandonment;
    Alcotest.test_case "tcp cluster: disconnect chaos, same paths" `Quick
      (test_tcp_disconnect_chaos ~owned:false);
    Alcotest.test_case "tcp cluster: disconnect chaos, owned workers rejoin"
      `Quick (test_tcp_disconnect_chaos ~owned:true);
    Alcotest.test_case "owned worker resumes its item after a disconnect"
      `Quick test_owned_resume;
    Alcotest.test_case
      "tcp cluster: half-sent frame cannot stall the coordinator" `Quick
      test_half_sent_frame;
    Alcotest.test_case "tcp cluster: kill one worker, join another" `Quick
      test_tcp_kill_and_join;
    Alcotest.test_case "tcp cluster: coordinator-solo completion" `Quick
      test_solo_completion;
    Alcotest.test_case "owned and remote workers share one listener" `Quick
      test_owned_and_remote_share_listener;
    Alcotest.test_case "owned workers drained mid-item say goodbye" `Quick
      test_owned_drain_says_goodbye;
    Alcotest.test_case "a foreign peer sharing an owned pid joins as remote"
      `Quick test_foreign_pid_is_remote;
  ]
