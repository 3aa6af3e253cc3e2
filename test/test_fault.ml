(* lib/fault tests: plan grammar, deterministic streams, fire caps, the
   guest-hardware injection hooks, the solver wall-clock watchdog, and
   the engine's graceful degradation on Unknown (follow-the-concrete).

   The injector is process-global state; every test that arms a plan
   disarms it in Fun.protect so a failure cannot leak faults into later
   suites. *)

open S2e_core
open S2e_expr
open S2e_solver
module Fault = S2e_fault.Fault
module Devices = S2e_vm.Devices
module Layout = S2e_vm.Layout

let with_plan ?seed plan f =
  Fault.install ?seed plan;
  Fun.protect ~finally:Fault.disarm f

let parse_ok s =
  match Fault.parse_plan s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "parse_plan %S: %s" s msg

(* ------------------------------------------------------------------ *)
(* Plan grammar                                                        *)
(* ------------------------------------------------------------------ *)

let test_parse_plan () =
  let plan =
    parse_ok "dev.read=err:0.05,dma=drop:0.01,solver=unknown:0.02,proto=corrupt:0.03"
  in
  Alcotest.(check int) "four rules" 4 (List.length plan);
  Alcotest.(check bool) "sites in order" true
    (List.map (fun r -> r.Fault.r_site) plan
    = [ Fault.Dev_read; Fault.Dma_drop; Fault.Solver_unknown; Fault.Proto_corrupt ]);
  Alcotest.(check bool) "no caps" true
    (List.for_all (fun r -> r.Fault.r_cap = None) plan);
  (* caps, every remaining site, and whitespace-free canonical form *)
  let plan2 =
    parse_ok "irq=spurious:1.0#3,solver=latency:0.5,proto=delay:1"
  in
  Alcotest.(check bool) "cap parsed" true
    ((List.hd plan2).Fault.r_cap = Some 3);
  (* the cluster-chaos kinds added with the TCP transport *)
  let plan3 = parse_ok "proto=disconnect:0.05,proto=stall:0.01#2" in
  Alcotest.(check bool) "disconnect and stall sites" true
    (List.map (fun r -> r.Fault.r_site) plan3
    = [ Fault.Proto_disconnect; Fault.Proto_stall ]);
  Alcotest.(check bool) "disconnect/stall roundtrip" true
    (parse_ok (Fault.plan_to_string plan3) = plan3);
  Alcotest.(check int) "empty plan" 0 (List.length (parse_ok ""));
  (* canonical text form roundtrips *)
  let p = parse_ok "dev.read=err:0.25#7,proto=corrupt:0.5" in
  Alcotest.(check bool) "roundtrip" true
    (parse_ok (Fault.plan_to_string p) = p)

let test_parse_errors () =
  let bad s =
    match Fault.parse_plan s with
    | Ok _ -> Alcotest.failf "parse_plan %S: expected error" s
    | Error _ -> ()
  in
  bad "bogus=err:0.5";           (* unknown site *)
  bad "dev.read=drop:0.5";       (* kind does not belong to the site *)
  bad "dev.read=err:1.5";        (* probability out of range *)
  bad "dev.read=err:-0.1";
  bad "dev.read=err:zap";        (* unparsable probability *)
  bad "dev.read=err:0.5#0";      (* cap must be positive *)
  bad "dev.read=err:0.5#x";
  bad "dev.read";                (* missing kind/prob *)
  (* empty segments (trailing commas) are tolerated, not errors *)
  Alcotest.(check int) "trailing comma tolerated" 1
    (List.length (parse_ok "dev.read=err:0.5,"))

(* ------------------------------------------------------------------ *)
(* Determinism, frequency, caps                                        *)
(* ------------------------------------------------------------------ *)

let draws n =
  List.init n (fun _ -> Fault.(fire Dev_read))

let test_deterministic_streams () =
  let plan = parse_ok "dev.read=err:0.5" in
  let a = with_plan ~seed:42 plan (fun () -> draws 200) in
  let b = with_plan ~seed:42 plan (fun () -> draws 200) in
  Alcotest.(check bool) "same seed, same fault sequence" true (a = b);
  let c = with_plan ~seed:43 plan (fun () -> draws 200) in
  Alcotest.(check bool) "different seed, different sequence" true (a <> c);
  (* The stream behaves like a fair-ish coin: 200 draws at p=0.5 land
     well inside [60, 140] unless the generator is broken. *)
  let fired = List.length (List.filter Fun.id a) in
  Alcotest.(check bool) "frequency plausible" true (fired > 60 && fired < 140);
  (* A rule for one site never perturbs another site's stream. *)
  let mixed =
    with_plan ~seed:42 (parse_ok "dev.read=err:0.5,proto=corrupt:0.9")
      (fun () ->
        List.init 200 (fun i ->
            if i mod 2 = 0 then ignore Fault.(fire Proto_corrupt);
            Fault.(fire Dev_read)))
  in
  Alcotest.(check bool) "independent per-site streams" true (a = mixed)

let test_cap_is_exact () =
  with_plan (parse_ok "dev.read=err:1.0#3") (fun () ->
      let fired = List.length (List.filter Fun.id (draws 10)) in
      Alcotest.(check int) "fires exactly cap times" 3 fired;
      Alcotest.(check int) "count reports the cap" 3 (Fault.count Fault.Dev_read);
      Alcotest.(check bool) "counts lists the site" true
        (List.mem_assoc "dev.read" (Fault.counts ()));
      Alcotest.(check int) "total sums sites" 3 (Fault.total ()))

let test_disarmed_is_silent () =
  Fault.disarm ();
  Alcotest.(check bool) "not armed" false (Fault.armed ());
  Alcotest.(check bool) "never fires" true
    (not (List.exists Fun.id (draws 50)))

(* ------------------------------------------------------------------ *)
(* Guest-hardware hooks                                                *)
(* ------------------------------------------------------------------ *)

let test_device_read_error () =
  let d = Devices.create () in
  let status () = Devices.read_port d (Layout.port_netdev + 0) in
  let clean = status () in
  Alcotest.(check bool) "clean read is not the poison value" true
    (clean <> Devices.read_error_code);
  with_plan (parse_ok "dev.read=err:1.0") (fun () ->
      Alcotest.(check int) "faulted read returns the error code"
        Devices.read_error_code (status ()));
  Alcotest.(check int) "disarmed read is clean again" clean (status ())

let test_dma_drop () =
  let dma_actions d =
    ignore (S2e_vm.Netdev.inject_frame d.Devices.netdev (Array.make 8 0xAB));
    ignore (Devices.write_port d (Layout.port_netdev + 6) 0x4000); (* DMA_ADDR *)
    ignore (Devices.write_port d (Layout.port_netdev + 7) 8);      (* DMA_LEN *)
    Devices.write_port d (Layout.port_netdev + 1) 5                (* CMD: dma rx *)
  in
  let is_dma = function S2e_vm.Device.Dma_write _ -> true | _ -> false in
  Alcotest.(check bool) "clean DMA command yields the completion" true
    (List.exists is_dma (dma_actions (Devices.create ())));
  with_plan (parse_ok "dma=drop:1.0") (fun () ->
      Alcotest.(check bool) "dropped completion never reaches memory" false
        (List.exists is_dma (dma_actions (Devices.create ())));
      Alcotest.(check bool) "drop was counted" true
        (Fault.count Fault.Dma_drop >= 1))

let test_spurious_irq () =
  let d = Devices.create () in
  Alcotest.(check bool) "quiet tick raises nothing" true (Devices.tick d 1 = []);
  with_plan (parse_ok "irq=spurious:1.0") (fun () ->
      Alcotest.(check bool) "spurious timer irq raised" true
        (List.mem Layout.irq_timer (Devices.tick d 1)))

(* ------------------------------------------------------------------ *)
(* Solver watchdog and forced Unknown                                  *)
(* ------------------------------------------------------------------ *)

(* A query that must reach the SAT core: fresh context (cold caches) and
   a constraint evaluation cannot discharge. *)
let hard_query () =
  let x = Expr.fresh_var ~width:32 "wd" in
  Expr.eq (Expr.mul x x) (Expr.const 1369L)

let test_sat_deadline () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [| Sat.pos a; Sat.pos b |];
  Sat.add_clause s [| Sat.neg a |];
  (match Sat.solve ~deadline:(Unix.gettimeofday () -. 1.) s with
  | Sat.Unknown -> ()
  | _ -> Alcotest.fail "expired deadline must yield Unknown");
  match Sat.solve ~deadline:(Unix.gettimeofday () +. 60.) s with
  | Sat.Sat -> ()
  | _ -> Alcotest.fail "generous deadline must still solve"

let unknowns_since before =
  S2e_obs.Metrics.(get_int (delta ~before (snapshot ())) "solver.unknowns")

let test_solver_timeout_unknown () =
  let q = hard_query () in
  let ctx = Solver.create_ctx ~timeout_ms:0.0001 () in
  let before = S2e_obs.Metrics.snapshot () in
  (match Solver.check ~ctx [ q ] with
  | Solver.Unknown -> ()
  | _ -> Alcotest.fail "micro timeout must yield Unknown");
  Alcotest.(check int) "unknown counted in the registry" 1
    (unknowns_since before);
  let q2 = hard_query () in
  let ctx2 = Solver.create_ctx ~timeout_ms:60_000. () in
  match Solver.check ~ctx:ctx2 [ q2 ] with
  | Solver.Sat m ->
      Alcotest.(check int64) "model satisfies the query" 1L (Expr.eval m q2)
  | _ -> Alcotest.fail "generous watchdog must still solve"

let test_injected_unknown_counted () =
  with_plan (parse_ok "solver=unknown:1.0") (fun () ->
      let ctx = Solver.create_ctx () in
      let before = S2e_obs.Metrics.snapshot () in
      (match Solver.check ~ctx [ hard_query () ] with
      | Solver.Unknown -> ()
      | _ -> Alcotest.fail "injected fault must force Unknown");
      Alcotest.(check bool) "unknowns visible in stats, not silent Unsat" true
        (unknowns_since before >= 1);
      Alcotest.(check bool) "injection counted" true
        (Fault.count Fault.Solver_unknown >= 1))

(* ------------------------------------------------------------------ *)
(* Graceful degradation (follow-the-concrete)                          *)
(* ------------------------------------------------------------------ *)

let explore_with ?timeout_ms () =
  let eng = Test_dist.make_engine_for Test_dist.workload_32 () in
  eng.Executor.solver <- Solver.create_ctx ?timeout_ms ();
  let completed = ref [] in
  Events.reg_state_end eng.Executor.events (fun s -> completed := s :: !completed);
  let s0 = Executor.boot eng ~entry:0x1000 () in
  ignore
    (Executor.run
       ~limits:
         {
           Executor.max_instructions = None;
           max_seconds = Some 60.;
           max_completed = None;
         }
       eng s0);
  (eng, List.rev !completed)

let case_set states =
  List.map
    (fun (s : State.t) -> Parallel.test_case_to_string (Parallel.test_case s))
    states
  |> List.sort compare

let test_tiny_timeout_degrades () =
  (* A watchdog so tight every SAT call expires: the engine must not
     crash or wedge — it follows the concrete branch, marks paths
     incomplete, and terminates. *)
  let before = S2e_obs.Metrics.snapshot () in
  let eng, completed = explore_with ~timeout_ms:0.0001 () in
  Alcotest.(check bool) "run terminated with completed paths" true
    (completed <> []);
  Alcotest.(check int) "no live states left" 0 (List.length eng.Executor.live);
  Alcotest.(check bool) "at least one path marked incomplete" true
    (List.exists (fun (s : State.t) -> s.State.incomplete) completed);
  Alcotest.(check bool) "degradations counted" true
    (S2e_obs.Metrics.(
       get_int (delta ~before (snapshot ())) "engine.degradations")
    >= 1);
  Alcotest.(check bool) "incomplete visible in the report string" true
    (List.exists
       (fun (s : State.t) ->
         let r = State.report_string s in
         String.length r >= 12
         && String.sub r (String.length r - 12) 12 = "[incomplete]")
       completed)

let with_mode mode f =
  let saved = !Solver.default_mode in
  Solver.set_default_mode mode;
  Fun.protect ~finally:(fun () -> Solver.set_default_mode saved) f

let test_chaos_differential_incremental_vs_fresh () =
  (* Under an armed injected-unknown plan, the incremental solver must
     degrade exactly as fresh per-query solving does.  Injection fires
     per canonical query before any mode dispatch or cache lookup, so
     the seeded stream hits the same queries in both modes: same
     [incomplete] markers, same final case set, same injection count. *)
  let run mode =
    with_mode mode (fun () ->
        let completed, fired =
          with_plan ~seed:11 (parse_ok "solver=unknown:0.05") (fun () ->
              let _, completed = explore_with () in
              (completed, Fault.count Fault.Solver_unknown))
        in
        (* Cases solved after disarm: the witness models are computed on
           a clean solver either way. *)
        let cases =
          List.map
            (fun (s : State.t) ->
              State.report_string s ^ " | "
              ^ Parallel.test_case_to_string (Parallel.test_case s))
            completed
          |> List.sort compare
        in
        (cases, fired))
  in
  let fresh_cases, fresh_fired = run Solver.Fresh in
  let inc_cases, inc_fired = run Solver.Incremental in
  Alcotest.(check bool) "plan actually fired" true (fresh_fired > 0);
  Alcotest.(check int) "identical injection count" fresh_fired inc_fired;
  Alcotest.(check bool) "some path degraded to [incomplete]" true
    (List.exists
       (fun line ->
         let tag = "[incomplete]" in
         let n = String.length tag in
         let rec has i =
           i + n <= String.length line
           && (String.sub line i n = tag || has (i + 1))
         in
         has 0)
       fresh_cases);
  Alcotest.(check (list string))
    "incremental degrades identically to fresh" fresh_cases inc_cases

let test_no_deadline_identical_to_seed () =
  (* Resilience machinery off: the path set must be byte-identical to a
     run that predates it, and a generous watchdog must change nothing. *)
  let _, baseline = explore_with () in
  let _, generous = explore_with ~timeout_ms:600_000. () in
  Alcotest.(check int) "32 paths" 32 (List.length baseline);
  Alcotest.(check (list string))
    "generous watchdog explores the identical case set" (case_set baseline)
    (case_set generous);
  Alcotest.(check bool) "no path marked incomplete" true
    (List.for_all (fun (s : State.t) -> not s.State.incomplete) baseline)

let tests =
  [
    Alcotest.test_case "fault plan grammar" `Quick test_parse_plan;
    Alcotest.test_case "fault plan rejects malformed rules" `Quick
      test_parse_errors;
    Alcotest.test_case "seeded streams are deterministic" `Quick
      test_deterministic_streams;
    Alcotest.test_case "fire cap is exact" `Quick test_cap_is_exact;
    Alcotest.test_case "disarmed injector is silent" `Quick
      test_disarmed_is_silent;
    Alcotest.test_case "device read error injection" `Quick
      test_device_read_error;
    Alcotest.test_case "DMA completion drop" `Quick test_dma_drop;
    Alcotest.test_case "spurious IRQ injection" `Quick test_spurious_irq;
    Alcotest.test_case "SAT core honors the deadline" `Quick test_sat_deadline;
    Alcotest.test_case "solver watchdog yields counted Unknown" `Quick
      test_solver_timeout_unknown;
    Alcotest.test_case "injected Unknown is counted, not silent Unsat" `Quick
      test_injected_unknown_counted;
    Alcotest.test_case "tiny solver timeout degrades, never crashes" `Quick
      test_tiny_timeout_degrades;
    Alcotest.test_case "chaos differential: incremental degrades like fresh"
      `Quick test_chaos_differential_incremental_vs_fresh;
    Alcotest.test_case "no deadline is byte-identical to seed behavior" `Quick
      test_no_deadline_identical_to_seed;
  ]
