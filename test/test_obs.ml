(* Tests for the lib/obs telemetry subsystem: domain-sharded registry
   exactness, histogram bucket placement, cross-process snapshot merging,
   span self-time accounting, the
   JSONL codec, and the end-to-end guarantee that registry totals for a
   parallel exploration match the serial run exactly. *)

module Metrics = S2e_obs.Metrics
module Span = S2e_obs.Span
module Jsonl = S2e_obs.Jsonl
open S2e_cc
open S2e_core

(* --- registry ------------------------------------------------------ *)

let test_counter_merge_across_domains () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~reg "test.hits" in
  let per_domain = 100_000 in
  let counted = Atomic.make 0 and release = Atomic.make false in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done;
            Atomic.incr counted;
            while not (Atomic.get release) do
              Unix.sleepf 0.001
            done))
  in
  while Atomic.get counted < 4 do
    Unix.sleepf 0.001
  done;
  (* While its domain lives, each shard holds exactly its own share. *)
  let hits shards =
    List.filter_map
      (fun (id, s) ->
        match Metrics.get_int s "test.hits" with 0 -> None | n -> Some (id, n))
      shards
  in
  let live = hits (Metrics.shard_snapshots ~reg ()) in
  Alcotest.(check int) "one shard per writer domain" 4 (List.length live);
  List.iter
    (fun (_, n) -> Alcotest.(check int) "per-shard share" per_domain n)
    live;
  Atomic.set release true;
  List.iter Domain.join domains;
  let snap = Metrics.snapshot ~reg () in
  Alcotest.(check int)
    "4 x 100k increments merge exactly" (4 * per_domain)
    (Metrics.get_int snap "test.hits");
  (* Exited domains fold into the one retired shard. *)
  Alcotest.(check (list (pair int int)))
    "joined domains' counts sit in the retired shard"
    [ (-1, 4 * per_domain) ]
    (hits (Metrics.shard_snapshots ~reg ()))

let test_snapshot_under_concurrent_increments () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~reg "test.live" in
  let per_domain = 50_000 in
  let writers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  (* Snapshots race the writers: they may be stale but never tear (a cell
     is a single word) and never crash on mid-registration shards. *)
  for _ = 1 to 200 do
    let v = Metrics.get_int (Metrics.snapshot ~reg ()) "test.live" in
    Alcotest.(check bool) "snapshot within bounds" true
      (v >= 0 && v <= 4 * per_domain)
  done;
  List.iter Domain.join writers;
  Alcotest.(check int) "post-join snapshot exact" (4 * per_domain)
    (Metrics.get_int (Metrics.snapshot ~reg ()) "test.live")

let test_gauge_merge_modes () =
  let reg = Metrics.create () in
  let gsum = Metrics.gauge ~reg ~merge:Metrics.Sum "test.live_states" in
  let gmax = Metrics.gauge ~reg ~merge:Metrics.Max "test.watermark" in
  Metrics.set gsum 3;
  Metrics.set gsum 2;
  (* Sum: last value per shard. *)
  Metrics.set gmax 7;
  Metrics.set gmax 4;
  (* Max: running max per shard. *)
  let d =
    Domain.spawn (fun () ->
        Metrics.set gsum 5;
        Metrics.set gmax 6)
  in
  Domain.join d;
  let snap = Metrics.snapshot ~reg () in
  Alcotest.(check int) "Sum gauge adds shard last-values" 7
    (Metrics.get_int snap "test.live_states");
  Alcotest.(check int) "Max gauge keeps shard maxima" 7
    (Metrics.get_int snap "test.watermark")

let test_registration_idempotent () =
  let reg = Metrics.create () in
  let a = Metrics.counter ~reg "test.same" in
  let b = Metrics.counter ~reg "test.same" in
  Metrics.incr a;
  Metrics.add b 2;
  Alcotest.(check int) "same name, same cells" 3
    (Metrics.get_int (Metrics.snapshot ~reg ()) "test.same");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: \"test.same\" re-registered with a different kind")
    (fun () -> ignore (Metrics.fcounter ~reg "test.same"))

let test_histogram_buckets () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~reg ~bounds:[| 1.0; 2.0; 4.0 |] "test.lat" in
  List.iter (Metrics.observe h) [ 1.0; 1.5; 2.0; 4.0; 5.0 ];
  match Metrics.find (Metrics.snapshot ~reg ()) "test.lat" with
  | Some (Metrics.Hist { bounds; counts; sum }) ->
      Alcotest.(check int) "3 bounds" 3 (Array.length bounds);
      Alcotest.(check int) "3 + overflow buckets" 4 (Array.length counts);
      (* v <= bound places on-boundary observations in the lower bucket. *)
      Alcotest.(check (array int)) "bucket placement" [| 1; 2; 1; 1 |] counts;
      Alcotest.(check (float 1e-9)) "sum of observations" 13.5 sum
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_reset () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~reg "test.r" in
  Metrics.add c 41;
  Metrics.reset ~reg ();
  Metrics.incr c;
  Alcotest.(check int) "reset zeroes, handle survives" 1
    (Metrics.get_int (Metrics.snapshot ~reg ()) "test.r")

(* --- spans --------------------------------------------------------- *)

let spin seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ()
  done

let test_span_exclusive_time () =
  let reg = Metrics.create () in
  let outer = Span.phase ~reg "outer" in
  let inner = Span.phase ~reg "inner" in
  let inclusive = ref 0. in
  Span.timed outer
    ~on_elapsed:(fun dt -> inclusive := dt)
    (fun () ->
      spin 0.02;
      Span.timed inner (fun () -> spin 0.04);
      spin 0.01);
  let snap = Metrics.snapshot ~reg () in
  let outer_s = Metrics.get_float snap "phase.outer_s" in
  let inner_s = Metrics.get_float snap "phase.inner_s" in
  Alcotest.(check bool) "inner self covers its spin" true (inner_s >= 0.035);
  Alcotest.(check bool) "outer excludes nested inner time" true
    (outer_s < inner_s);
  (* Self times partition the inclusive wall time of the outer span. *)
  Alcotest.(check bool) "self times sum to inclusive" true
    (abs_float (outer_s +. inner_s -. !inclusive) < 0.005);
  Alcotest.(check int) "enter counts" 1
    (Metrics.get_int snap "phase.outer_count")

let test_span_exception_safe () =
  let reg = Metrics.create () in
  let ph = Span.phase ~reg "boom" in
  (try Span.timed ph (fun () -> spin 0.01; failwith "boom")
   with Failure _ -> ());
  let snap = Metrics.snapshot ~reg () in
  Alcotest.(check bool) "time recorded despite raise" true
    (Metrics.get_float snap "phase.boom_s" >= 0.008);
  (* The span stack unwound: a following span is not treated as nested. *)
  let ph2 = Span.phase ~reg "after" in
  Span.timed ph2 (fun () -> spin 0.01);
  Alcotest.(check bool) "next span unaffected" true
    (Metrics.get_float (Metrics.snapshot ~reg ()) "phase.after_s" >= 0.008)

(* --- JSONL codec --------------------------------------------------- *)

let test_jsonl_roundtrip () =
  let v =
    Jsonl.Obj
      [
        ("kind", Jsonl.Str "final");
        ("seq", Jsonl.Num 17.);
        ("frac", Jsonl.Num 0.5);
        ("ok", Jsonl.Bool true);
        ("none", Jsonl.Null);
        ("esc", Jsonl.Str "a\"b\\c\nd");
        ("arr", Jsonl.Arr [ Jsonl.Num 1.; Jsonl.Num 2.5; Jsonl.Str "x" ]);
      ]
  in
  match Jsonl.parse (Jsonl.to_string v) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok v' ->
      Alcotest.(check (option (float 1e-9))) "num member" (Some 17.)
        (Jsonl.num_member "seq" v');
      Alcotest.(check (option string)) "escaped string" (Some "a\"b\\c\nd")
        (Jsonl.str_member "esc" v');
      Alcotest.(check bool) "structural equality" true (v = v')

let test_jsonl_rejects_garbage () =
  List.iter
    (fun s ->
      match Jsonl.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "{\"a\":}"; "[1,]"; "{\"a\":1} trailing"; "nul" ]

(* --- end-to-end: registry totals vs worker count ------------------- *)

let runtime =
  {|
__start:
  li sp, 0xFFFF0
  jal main
  li r1, 0x900
  sw r0, 0(r1)
  halt
|}

let workload =
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

let make_engine () =
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

let boot engine = Executor.boot engine ~entry:0x1000 ()

let read_totals snap =
  List.map
    (fun name -> (name, Metrics.get_int snap name))
    [
      (* The jobs-independent totals: pure functions of the explored path
         set.  (sat_queries / cache hits / tb_misses are NOT in this list:
         workers have private solver and TB caches, so cold caches shift
         work between the cached and uncached counters.) *)
      "engine.instructions";
      "engine.sym_instructions";
      "engine.forks";
      "engine.states_created";
      "engine.states_completed";
      "engine.concretizations";
      "engine.aborts";
      "engine.degradations";
      "engine.incomplete_paths";
      "solver.queries";
    ]

(* Drain the workload's full execution tree with [jobs] workers and return
   the default registry's merged totals, after checking that the engines
   flushed exactly what their records counted. *)
let totals jobs =
  Metrics.reset ();
  let r = Parallel.explore ~jobs ~make_engine ~boot () in
  let totals = read_totals (Metrics.snapshot ()) in
  let st = r.Parallel.stats in
  List.iter
    (fun (name, n) ->
      Alcotest.(check int) (name ^ " = stats") n (List.assoc name totals))
    [
      ("engine.instructions", st.Executor.concrete_instret);
      ("engine.forks", st.forks);
      ("engine.states_completed", st.states_completed);
    ];
  totals

(* The same drain over two forked worker processes, read from the
   coordinator's merged registry: the source of a distributed run
   summary's solver line. *)
let dist_totals () =
  Metrics.reset ();
  let r =
    S2e_dist.Coordinator.explore ~procs:2
      ~spawn:(S2e_dist.Coordinator.Fork { jobs = 1; slice = 0.01; make_engine })
      ~make_engine ~boot ()
  in
  read_totals r.S2e_dist.Coordinator.obs

let test_registry_totals_jobs_independent () =
  (* The deterministic-exploration guarantee, observed through the
     registry: a drained frontier yields identical counter totals at any
     worker count or process count (sharding and the cross-process merge
     must lose or double-count nothing). *)
  let serial = totals 1 in
  (* Forked workers first: OCaml 5 refuses [Unix.fork] once the process
     has spawned a domain, which the --jobs 4 leg does. *)
  let dist = dist_totals () in
  let same what other =
    List.iter2
      (fun (name, a) (name', b) ->
        Alcotest.(check string) "same metric" name name';
        Alcotest.(check int) (name ^ " equal " ^ what) a b)
      serial other
  in
  same "at --procs 2" dist;
  same "at --jobs 4" (totals 4);
  Alcotest.(check bool) "counted real work" true
    (List.assoc "engine.instructions" serial > 0
    && List.assoc "engine.forks" serial = 31)

(* A pool kept across slices spawns [jobs] domains per slice.  Each
   exited domain's shard folds into the retired one, so the shard list
   stays bounded by the live domains plus the main and retired shards,
   and the totals stay those of a serial drain. *)
let test_pool_slices_retire_shards () =
  let serial = totals 1 in
  Metrics.reset ();
  let jobs = 2 in
  let pool = Parallel.pool ~jobs ~make_engine in
  Parallel.adopt pool (boot (Parallel.engine pool));
  for _ = 1 to 8 do
    Parallel.run
      ~limits:{ Executor.no_limits with max_completed = Some 3 }
      pool
  done;
  Parallel.run pool;
  Alcotest.(check int) "nine slices drain the tree" 0
    (List.length (Parallel.frontier pool));
  let shards = List.length (Metrics.shard_snapshots ()) in
  Alcotest.(check bool)
    (Printf.sprintf "%d shards <= jobs + 2" shards)
    true
    (shards <= jobs + 2);
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check int) (name ^ " = serial") a b)
    serial
    (read_totals (Metrics.snapshot ()))

(* --- snapshot merging ------------------------------------------------ *)

(* [Metrics.merge_snapshots] as it was written first: a list scan per
   name, kinds given by [kind_of]. *)
let naive_merge kind_of snaps =
  let names =
    List.fold_left
      (fun acc snap ->
        List.fold_left
          (fun acc (name, _) -> if List.mem name acc then acc else name :: acc)
          acc snap)
      [] snaps
    |> List.rev
  in
  List.map
    (fun name ->
      let vs = List.filter_map (fun snap -> List.assoc_opt name snap) snaps in
      let v =
        match (kind_of name, vs) with
        | _, [] -> Metrics.Int 0
        | `Max, _ ->
            Metrics.Int
              (List.fold_left
                 (fun acc v -> match v with Metrics.Int n -> max acc n | _ -> acc)
                 0 vs)
        | _, Metrics.Hist h0 :: _ ->
            let counts = Array.make (Array.length h0.counts) 0 in
            let sum = ref 0. in
            List.iter
              (function
                | Metrics.Hist h when h.bounds = h0.bounds ->
                    Array.iteri
                      (fun i c ->
                        if i < Array.length counts then counts.(i) <- counts.(i) + c)
                      h.counts;
                    sum := !sum +. h.sum
                | _ -> ())
              vs;
            Metrics.Hist { bounds = h0.bounds; counts; sum = !sum }
        | _, _ ->
            if List.for_all (function Metrics.Int _ -> true | _ -> false) vs then
              Metrics.Int
                (List.fold_left
                   (fun acc v -> match v with Metrics.Int n -> acc + n | _ -> acc)
                   0 vs)
            else
              Metrics.Float
                (List.fold_left
                   (fun acc v ->
                     match v with
                     | Metrics.Int n -> acc +. float_of_int n
                     | Metrics.Float f -> acc +. f
                     | Metrics.Hist _ -> acc)
                   0. vs)
      in
      (name, v))
    names

let merge_reg = Metrics.create ()
let merge_bounds = [| 1.; 10. |]

let () =
  ignore (Metrics.counter ~reg:merge_reg "m.count");
  ignore (Metrics.fcounter ~reg:merge_reg "m.secs");
  ignore (Metrics.gauge ~reg:merge_reg ~merge:Metrics.Max "m.peak");
  ignore (Metrics.gauge ~reg:merge_reg ~merge:Metrics.Max "m.top");
  ignore (Metrics.gauge ~reg:merge_reg ~merge:Metrics.Sum "m.live");
  ignore (Metrics.histogram ~reg:merge_reg ~bounds:merge_bounds "m.lat")

let merge_names =
  [| "m.count"; "m.secs"; "m.peak"; "m.top"; "m.live"; "m.lat"; "m.unreg" |]

(* Mostly each name's own kind, sometimes another, so the merge's
   mixed-cell fallbacks run too; names may repeat within a snapshot. *)
let random_snapshot rng =
  let value name =
    let n = Random.State.int rng 1000 in
    match (name, Random.State.int rng 6) with
    | _, 0 -> Metrics.Float (float_of_int n /. 8.)
    | _, 1 ->
        let bounds = if n mod 4 = 0 then [| 5. |] else merge_bounds in
        Metrics.Hist
          {
            bounds;
            counts = Array.init (Array.length bounds + 1) (fun i -> n + i);
            sum = float_of_int n /. 4.;
          }
    | "m.secs", _ -> Metrics.Float (float_of_int n /. 16.)
    | "m.lat", _ ->
        Metrics.Hist { bounds = merge_bounds; counts = [| n; 1; n mod 7 |]; sum = 0.5 }
    | _ -> Metrics.Int n
  in
  List.init (Random.State.int rng 12) (fun _ ->
      let name = merge_names.(Random.State.int rng (Array.length merge_names)) in
      (name, value name))

let prop_merge_snapshots =
  QCheck2.Test.make ~count:300 ~name:"merge_snapshots equals the naive fold"
    QCheck2.Gen.nat (fun seed ->
      let rng = Random.State.make [| seed |] in
      let snaps = List.init (Random.State.int rng 6) (fun _ -> random_snapshot rng) in
      let kind_of = function "m.peak" | "m.top" -> `Max | _ -> `Other in
      Metrics.merge_snapshots ~reg:merge_reg snaps = naive_merge kind_of snaps)

(* The registry-totals test forks worker processes, so it runs before
   every test here that spawns a domain. *)
let tests =
  [
    Alcotest.test_case "registry totals independent of jobs" `Quick
      test_registry_totals_jobs_independent;
    Alcotest.test_case "pool slices retire their domains' shards" `Quick
      test_pool_slices_retire_shards;
    Alcotest.test_case "counter merge across domains" `Quick
      test_counter_merge_across_domains;
    Alcotest.test_case "snapshot under concurrent increments" `Quick
      test_snapshot_under_concurrent_increments;
    Alcotest.test_case "gauge Sum vs Max merge" `Quick test_gauge_merge_modes;
    QCheck_alcotest.to_alcotest prop_merge_snapshots;
    Alcotest.test_case "registration idempotent" `Quick
      test_registration_idempotent;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_histogram_buckets;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "span exclusive time" `Quick test_span_exclusive_time;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "jsonl rejects garbage" `Quick test_jsonl_rejects_garbage;
  ]
