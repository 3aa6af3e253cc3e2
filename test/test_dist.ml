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
module Solver = S2e_solver.Solver

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
  let v = Expr.Raw.var ~id:7 ~name:"sym1_0" ~width:8 in
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

(* ------------------------------------------------------------------ *)
(* Delta codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_compress_roundtrip () =
  let cases =
    [
      "";
      "a";
      "abc";
      String.make 3 'r';
      String.make 500 '\000';
      String.init 400 (fun i -> Char.chr (i * 7 mod 251));
      (* literal runs longer than one 128-byte op *)
      String.init 300 (fun i -> Char.chr (i mod 253));
      (* run longer than one 130-repeat op, with literal tails *)
      "xy" ^ String.make 1000 'z' ^ "tail";
      (* 1- and 2-byte repeats must stay literals, not bogus runs *)
      "aabbccddee";
    ]
  in
  List.iter
    (fun s ->
      let c = Codec.compress s in
      Alcotest.(check string)
        "compress/decompress roundtrip" s
        (Codec.decompress ~expect:(String.length s) c))
    cases;
  (* A run-heavy input must actually shrink. *)
  Alcotest.(check bool)
    "runs compress" true
    (String.length (Codec.compress (String.make 4096 '\000')) < 256)

let test_delta_roundtrip () =
  let eng, s = frontier_state () in
  let baseline = Codec.encode_state s in
  (* Delta a sibling frontier state against it: mid-run siblings share
     almost everything, so the block-match mode must engage. *)
  let target =
    match eng.Executor.live with
    | _ :: t :: _ -> Codec.encode_state t
    | _ -> Alcotest.fail "expected at least two frontier states"
  in
  let d = Codec.encode_delta ~baseline target in
  Alcotest.(check bool) "tagged as delta" true (Codec.is_delta d);
  Alcotest.(check bool) "full blobs are not deltas" false
    (Codec.is_delta target);
  Alcotest.(check bool) "delta never exceeds the full blob" true
    (String.length d <= String.length target);
  Alcotest.(check char) "block-match mode engaged (not fallback)" 'D' d.[3];
  (* 'D' is only ever chosen when strictly smaller than shipping whole. *)
  Alcotest.(check bool) "engaged delta is strictly smaller" true
    (String.length d < String.length target);
  let target' = Codec.decode_delta ~baseline d in
  Alcotest.(check string) "decode(encode) is byte-identical" target target';
  (* The reconstructed blob decodes to a working state. *)
  let st = Codec.decode_state ~base:eng.Executor.base_mem target' in
  Alcotest.(check bool) "reconstructed state decodes" true (st.State.id >= 0);
  (* Self-delta: maximal sharing, near-nothing on the wire. *)
  let self = Codec.encode_delta ~baseline baseline in
  Alcotest.(check bool) "self-delta is tiny" true (String.length self < 64);
  Alcotest.(check string) "self-delta roundtrips" baseline
    (Codec.decode_delta ~baseline self)

let test_delta_baseline_mismatch () =
  let eng, s = frontier_state () in
  let baseline = Codec.encode_state s in
  let target =
    match eng.Executor.live with
    | _ :: t :: _ -> Codec.encode_state t
    | _ -> Alcotest.fail "expected at least two frontier states"
  in
  let d = Codec.encode_delta ~baseline target in
  Alcotest.(check char) "block-match mode engaged" 'D' d.[3];
  (* Applying against any other baseline must be rejected by the
     negotiated-baseline digest, not silently produce garbage.  The
     target blob itself is a handy wrong-baseline: well-formed, same
     run, different payload. *)
  let other = target in
  Alcotest.(check bool) "baselines actually differ" true (other <> baseline);
  (match Codec.decode_delta ~baseline:other d with
  | (_ : string) -> Alcotest.fail "mismatched baseline must raise"
  | exception Codec.Error _ -> ());
  (* Fallback-mode deltas carry everything and are baseline-independent;
     a torn 'D' body must still be caught by its ops checksum. *)
  let torn = Bytes.of_string d in
  let mid = Bytes.length torn - 8 in
  Bytes.set torn mid (Char.chr (Char.code (Bytes.get torn mid) lxor 1));
  match Codec.decode_delta ~baseline (Bytes.to_string torn) with
  | (_ : string) -> Alcotest.fail "torn delta must raise"
  | exception Codec.Error _ -> ()

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
  let serial_cases, serial = serial_case_set workload_32 in
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
  Alcotest.(check int) "same creation count"
    serial.Parallel.stats.Executor.states_created
    r.Coordinator.stats.Executor.states_created;
  Alcotest.(check bool) "worker solver contexts did the solving" true
    (r.Coordinator.solver_stats.Solver.queries > 0)

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

(* ------------------------------------------------------------------ *)
(* Chaos: transport fault injection                                    *)
(* ------------------------------------------------------------------ *)

module Fault = S2e_fault.Fault

let with_plan ?seed spec f =
  (match Fault.parse_plan spec with
  | Ok plan -> Fault.install ?seed plan
  | Error msg -> Alcotest.failf "bad plan %S: %s" spec msg);
  Fun.protect ~finally:Fault.disarm f

(* Drive both ends of an in-process connection pair until a message (or
   control traffic) moves; bounded so a protocol bug fails instead of
   hanging. *)
let pump_until ~a ~b ~limit pred =
  let steps = ref 0 in
  let delivered = ref [] in
  while not (pred (List.rev !delivered)) && !steps < limit do
    incr steps;
    (match Proto.recv_opt b ~timeout:0.05 with
    | Some m -> delivered := m :: !delivered
    | None -> ());
    match Proto.recv_opt a ~timeout:0. with Some _ | None -> ()
  done;
  List.rev !delivered

let test_corrupt_frame_nak_retransmit () =
  let fd_a, fd_b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd_a;
      Unix.close fd_b)
    (fun () ->
      let a = Proto.connect fd_a and b = Proto.connect fd_b in
      let sent =
        [ Proto.Ping;
          Proto.Heartbeat { pid = 7; frontier = 3; now = 12.5; trace = "" };
          Proto.Steal ]
      in
      (* Every application frame is corrupted on the wire; the receiver
         must NAK each one and end up with the exact sequence anyway. *)
      with_plan "proto=corrupt:1.0" (fun () ->
          List.iter (Proto.send a) sent;
          let got =
            pump_until ~a ~b ~limit:200 (fun ms -> List.length ms >= 3)
          in
          Alcotest.(check bool) "all messages delivered in order" true
            (got = sent));
      Alcotest.(check bool) "receiver NAKed" true (b.Proto.naks >= 1);
      Alcotest.(check bool) "sender retransmitted" true
        (a.Proto.retransmits >= 3);
      Alcotest.(check int) "every frame was injected" 3 a.Proto.injected;
      (* The stream stays usable after recovery (recv_opt first drains
         any leftover duplicate retransmissions as [None]s). *)
      Proto.send a Proto.Shutdown;
      let rec drain n =
        if n = 0 then Alcotest.fail "clean frame after recovery not delivered"
        else
          match Proto.recv_opt b ~timeout:0.1 with
          | Some Proto.Shutdown -> ()
          | Some _ | None -> drain (n - 1)
      in
      drain 50)

let test_corrupt_transport_full_run () =
  let make_engine = make_engine_for workload_32 in
  let serial_cases, _ = serial_case_set workload_32 in
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
  (* Transport-only chaos: work accounting must be untouched... *)
  Alcotest.(check int) "zero lost work items" 0 r.Coordinator.unexplored;
  Alcotest.(check bool) "no abandoned items" true (r.Coordinator.abandoned = []);
  Alcotest.(check int) "no requeues" 0 r.Coordinator.requeues;
  Alcotest.(check int) "no restarts" 0 r.Coordinator.restarts;
  Alcotest.(check (list string))
    "path set identical to serial" serial_cases (dist_case_set r);
  (* ...while the chaos demonstrably happened and was accounted for. *)
  Alcotest.(check bool) "faults were injected" true (r.Coordinator.injected > 0);
  Alcotest.(check bool) "NAKs recovered them" true (r.Coordinator.naks > 0);
  Alcotest.(check bool) "retransmissions served" true
    (r.Coordinator.retransmits > 0);
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
   set must match a serial run exactly. *)
let test_tcp_disconnect_chaos () =
  let make_engine = make_engine_for workload_4096 in
  let serial_cases, _ = serial_case_set workload_4096 in
  let lfd = Proto.listen ~host:"127.0.0.1" ~port:0 in
  let port = Proto.bound_port lfd in
  let pids = ref [] in
  let r =
    with_plan "proto=disconnect:1.0#2" (fun () ->
        pids :=
          [
            fork_tcp_worker ~port ~make_engine ();
            fork_tcp_worker ~port ~make_engine ();
          ];
        Coordinator.explore ~procs:0 ~cases:true ~listener:lfd
          ~heartbeat_timeout:2.0 ~limits:(no_limits ~seconds:120.)
          ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
          ~make_engine ~boot:boot_entry ())
  in
  Unix.close lfd;
  List.iter reap_worker !pids;
  Alcotest.(check bool) "both workers joined" true (r.Coordinator.joins >= 2);
  Alcotest.(check bool) "disconnects happened and were survived" true
    (r.Coordinator.reconnects > 0);
  Alcotest.(check bool) "leaves were recorded" true (r.Coordinator.leaves > 0);
  Alcotest.(check (list (pair int int)))
    "transport chaos never abandons items" [] r.Coordinator.abandoned;
  Alcotest.(check int) "nothing left unexplored" 0 r.Coordinator.unexplored;
  Alcotest.(check bool) "deltas were shipped" true
    (r.Coordinator.delta_full_bytes > 0);
  Alcotest.(check bool) "deltas actually saved bytes" true
    (r.Coordinator.delta_bytes < r.Coordinator.delta_full_bytes);
  Alcotest.(check (list string))
    "case set identical to serial under chaos" serial_cases (dist_case_set r)

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

let tests =
  [
    Alcotest.test_case "expression codec roundtrip" `Quick test_expr_roundtrip;
    Alcotest.test_case "state snapshot roundtrip" `Quick test_state_roundtrip;
    Alcotest.test_case "strict decode errors" `Quick test_strict_decode_errors;
    Alcotest.test_case "procs=2 drains same path set as serial" `Quick
      test_procs2_matches_serial;
    Alcotest.test_case "killed worker's states are requeued" `Quick
      test_kill_worker_mid_run;
    Alcotest.test_case "corrupted frame is NAKed and retransmitted" `Quick
      test_corrupt_frame_nak_retransmit;
    Alcotest.test_case "corrupt transport: zero lost work, same paths" `Quick
      test_corrupt_transport_full_run;
    Alcotest.test_case "heartbeat delay: requeue then visible abandonment"
      `Quick test_heartbeat_delay_abandonment;
    Alcotest.test_case "byte-run compressor roundtrip" `Quick
      test_compress_roundtrip;
    Alcotest.test_case "delta snapshot roundtrip against baseline" `Quick
      test_delta_roundtrip;
    Alcotest.test_case "delta rejects mismatched baseline" `Quick
      test_delta_baseline_mismatch;
    Alcotest.test_case "tcp cluster: disconnect chaos, same paths" `Quick
      test_tcp_disconnect_chaos;
    Alcotest.test_case "tcp cluster: kill one worker, join another" `Quick
      test_tcp_kill_and_join;
    Alcotest.test_case "tcp cluster: coordinator-solo completion" `Quick
      test_solo_completion;
    Alcotest.test_case "owned and remote workers share one listener" `Quick
      test_owned_and_remote_share_listener;
  ]
