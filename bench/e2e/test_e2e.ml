(* Tests of the end-to-end benchmark's own logic: statistics, case-set
   diffs, BENCHMARK.json validation, compare verdicts, and a smoke run of
   `e2e.exe one` on the test-only symloop workload. *)

open E2e_bench
module Json = Drive.Json

let close = Alcotest.float 1e-9

(* ---------------- statistics ---------------- *)

let test_median () =
  Alcotest.check close "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

(* Reference values: Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q1, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1 of 1..10" 2.75 q1;
  Alcotest.check close "q3 of 1..10" 8.25 q3;
  let q1, q3 = Stats.quartiles [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.check close "q1 of 1..5" 1.5 q1;
  Alcotest.check close "q3 of 1..5" 4.5 q3

let test_hist_percentile () =
  let bounds = [| 1.; 2.; 3. |] in
  let p q counts = Stats.hist_percentile q ~bounds ~counts in
  Alcotest.check close "p50" 2. (p 0.5 [| 10; 80; 9; 1 |]);
  Alcotest.check close "p99" 3. (p 0.99 [| 10; 80; 9; 1 |]);
  Alcotest.check close "p99 in overflow" infinity (p 0.99 [| 10; 80; 8; 2 |]);
  Alcotest.(check bool) "empty" true (Float.is_nan (p 0.99 [| 0; 0; 0; 0 |]));
  Alcotest.check close "nearest rank" 4. (Stats.percentile 0.99 [ 1.; 4.; 2.; 3. ])

(* ---------------- case sets ---------------- *)

let expected_lines =
  [ "halted | a=1"; "halted | a=2"; "halted | a=2"; "killed | a=3"; "halted | " ]

let expected = Caseset.of_lines expected_lines

let test_roundtrip () =
  let e = Caseset.of_string (Caseset.to_string ~title:"t" expected) in
  Alcotest.(check (list string)) "keys" expected.keys e.keys;
  Alcotest.(check int) "one key per line" 5 (List.length e.keys)

let check_diff msg (m, mi, fo) (d : Caseset.diff) =
  Alcotest.(check (list int)) msg [ m; mi; fo ] [ d.matched; d.missing; d.foreign ]

let test_diff () =
  check_diff "same multiset" (5, 0, 0) (Caseset.diff expected (List.rev expected_lines));
  (* a merged run that lost cases: a subset, each missing one counted *)
  check_diff "subset" (3, 2, 0)
    (Caseset.diff expected [ "halted | a=2"; "killed | a=3"; "halted | " ]);
  (* a duplicate beyond the expected multiplicity is foreign *)
  check_diff "extra duplicate" (5, 0, 1)
    (Caseset.diff expected ("halted | a=1" :: expected_lines));
  check_diff "foreign" (1, 4, 1) (Caseset.diff expected [ "halted | a=1"; "halted | a=9" ])

let test_verify () =
  let verify ?(lost = 0) ?statuses lines =
    let statuses = Option.value statuses ~default:(List.map (fun _ -> "halted") lines) in
    One.verify_cases expected ~file:"t" ~lines ~statuses ~lost
  in
  let v = verify (List.rev expected_lines) in
  Alcotest.(check (list int)) "exact match" [ 5; 0 ] [ v.v_attempted; v.v_failed ];
  Alcotest.(check (list string)) "no error" [] v.v_errors;
  (* a merged run that lost cases *)
  let v = verify [ "halted | a=2"; "killed | a=3" ] in
  Alcotest.(check (list int)) "missing counted" [ 5; 3 ] [ v.v_attempted; v.v_failed ];
  Alcotest.(check (list string)) "no error for a subset" [] v.v_errors;
  let v = verify [ "halted | a=9" ] in
  Alcotest.(check int) "foreign is fatal" 1 (List.length v.v_errors);
  (* a run that explored other paths than the expected prefix: the
     expected ones are missing and the others are wrong *)
  let v = verify [ "halted | a=1"; "halted | a=2"; "halted | a=2"; "killed | a=3"; "halted | b=1" ] in
  Alcotest.(check (list int)) "different paths: one missing" [ 5; 1 ] [ v.v_attempted; v.v_failed ];
  Alcotest.(check int) "different paths: one wrong" 1 (List.length v.v_errors);
  let v = verify ~lost:2 ~statuses:[ "halted [incomplete]" ] expected_lines in
  Alcotest.(check int) "lost work and incomplete paths are failed" 3 v.v_failed

(* ---------------- BENCHMARK.json ---------------- *)

let read path = In_channel.with_open_bin path In_channel.input_all

let benchmark_json () =
  match Json.parse (read "../../BENCHMARK.json") with
  | Ok j -> j
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)

let baseline () = Report.load "baseline.json"

let test_benchmark_json () =
  Alcotest.(check (list string))
    "committed files are valid" []
    (Validate.benchmark_json (benchmark_json ()) ~baseline:(baseline ()))

let replace key v = function
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) kvs)
  | j -> j

let entries key j = Option.get (Option.bind (Json.member key j) Json.to_arr)

let test_benchmark_json_rejects () =
  let j = benchmark_json () and baseline = baseline () in
  let invalid msg j' =
    Alcotest.(check bool) msg true (Validate.benchmark_json j' ~baseline <> [])
  in
  let ws = entries "workloads" j in
  invalid "bad name"
    (replace "workloads"
       (Json.Arr (Json.Obj [ ("name", Json.Str "bad name"); ("why", Json.Str "x") ] :: ws))
       j);
  invalid "nine workloads"
    (replace "workloads" (Json.Arr (List.concat (List.init 2 (fun _ -> ws)))) j);
  invalid "too many layer metrics"
    (replace "per_layer"
       (Json.Arr (List.concat (List.init 3 (fun _ -> entries "per_layer" j))))
       j);
  invalid "metric without a bound"
    (replace "end_to_end"
       (Json.Arr
          (List.map
             (function
               | Json.Obj kvs -> Json.Obj (List.remove_assoc "bound" kvs)
               | e -> e)
             (entries "end_to_end" j)))
       j);
  Alcotest.(check bool) "baseline missing a workload" true
    (Validate.benchmark_json j ~baseline:{ baseline with workloads = List.tl baseline.workloads }
    <> [])

(* ---------------- compare ---------------- *)

let summary values =
  Report.summarize "s" values

let report ?(correct = true) metrics =
  {
    Report.seed = 1;
    nproc = 2;
    ocaml = Sys.ocaml_version;
    commit = "test";
    workloads =
      [
        {
          Report.name = "w";
          correct;
          attempted = 10;
          failed = 0;
          errors = [];
          metrics = List.map (fun (k, vs) -> (k, summary vs)) metrics;
          layers = [];
        };
      ];
  }

(* Rows of the metrics the parent report has, and the outputs row. *)
let verdicts ?correct parent change =
  Verdict.rows ~parent:(report parent) ~change:(report ?correct change)
  |> List.filter (fun (r : Verdict.row) -> r.metric = "outputs" || List.mem_assoc r.metric parent)
  |> List.map (fun (r : Verdict.row) -> (r.metric, Verdict.verdict_string r.verdict))

let tight = [ 1.00; 1.01; 0.99; 1.00; 1.01 ]
let scale k = List.map (fun x -> x *. k)

let test_compare () =
  let v parent change = verdicts [ ("total_s", parent) ] [ ("total_s", change) ] in
  let bound = (Option.get (Spec.find_metric "total_s")).bound_rel in
  Alcotest.(check (list (pair string string))) "within bound" [ ("total_s", "ok") ]
    (v tight (scale (1. +. (bound /. 2.)) tight));
  Alcotest.(check (list (pair string string))) "past bound" [ ("total_s", "REGRESSION") ]
    (v tight (scale (1. +. bound +. 0.1) tight));
  let wide = [ 0.7; 1.0; 1.3; 0.8; 1.2 ] in
  Alcotest.(check (list (pair string string))) "spread wider than bound"
    [ ("total_s", "unresolved") ] (v wide wide);
  Alcotest.(check (list (pair string string))) "wide but every change run better"
    [ ("total_s", "ok") ] (v wide (scale 0.1 wide));
  Alcotest.(check (list (pair string string))) "failed_frac: any increase"
    [ ("failed_frac", "REGRESSION") ]
    (verdicts [ ("failed_frac", [ 0.; 0.; 0. ]) ] [ ("failed_frac", [ 0.; 0.01; 0. ]) ]);
  Alcotest.(check (list (pair string string))) "wrong outputs"
    [ ("outputs", "REGRESSION"); ("total_s", "ok") ]
    (verdicts ~correct:false [ ("total_s", tight) ] [ ("total_s", tight) ])

(* Nothing measured on the change side is never judged ok. *)
let test_compare_missing () =
  let check msg expected rows =
    Alcotest.(check (list (pair string string))) msg expected rows
  in
  check "metric missing from the change" [ ("total_s", "REGRESSION") ]
    (verdicts [ ("total_s", tight) ] []);
  check "median not a number in the change" [ ("insns_per_s", "REGRESSION") ]
    (verdicts [ ("insns_per_s", tight) ] [ ("insns_per_s", [ nan; nan ]) ]);
  check "median not a number in the parent" [ ("insns_per_s", "unresolved") ]
    (verdicts [ ("insns_per_s", [ nan ]) ] [ ("insns_per_s", tight) ]);
  let all = Verdict.rows ~parent:(report [ ("total_s", tight) ]) ~change:(report []) in
  Alcotest.(check bool) "a row for every end-to-end metric" true
    (List.length all = List.length Spec.e2e_metrics);
  Alcotest.(check bool) "metrics the parent lacks are unresolved" true
    (List.for_all
       (fun (r : Verdict.row) -> r.metric = "total_s" || r.verdict = Verdict.Unresolved)
       all);
  let change = { (report [ ("total_s", tight) ]) with workloads = [] } in
  check "workload missing from the change" [ ("workload", "REGRESSION") ]
    (List.map
       (fun (r : Verdict.row) -> (r.metric, Verdict.verdict_string r.verdict))
       (Verdict.rows ~parent:(report [ ("total_s", tight) ]) ~change));
  Alcotest.(check bool) "compare fails" false
    (List.for_all
       (fun (r : Verdict.row) -> r.verdict <> Verdict.Regression)
       (Verdict.rows ~parent:(report [ ("total_s", tight) ]) ~change))

let test_claims () =
  let claim parent change =
    (Verdict.check_claim ~parent:(report [ ("explore_s", parent) ])
       ~change:(report [ ("explore_s", change) ]) "explore_s@w").holds
  in
  let parent = [ 1.00; 1.02; 0.98; 1.01; 0.99; 1.00; 1.02; 0.98; 1.01; 0.99 ] in
  Alcotest.(check bool) "clear gain" true (claim parent (scale 0.8 parent));
  Alcotest.(check bool) "gain within the parent's IQR" false (claim parent (scale 0.995 parent));
  let mixed = List.mapi (fun i x -> if i < 2 then x *. 1.5 else x *. 0.8) parent in
  Alcotest.(check bool) "only 8 of 10 pairs won" false (claim parent mixed);
  Alcotest.(check bool) "unknown workload" false
    (Verdict.check_claim ~parent:(report []) ~change:(report []) "explore_s@nope").holds

(* ---------------- smoke ---------------- *)

let run_one args =
  let ic = Unix.open_process_args_in "./e2e.exe" (Array.of_list ("./e2e.exe" :: "one" :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
  match Json.parse (String.trim out) with
  | Ok j -> j
  | Error e -> Alcotest.fail ("one: " ^ e)

let test_smoke () =
  let j = run_one [ "--workload"; "symloop" ] in
  let keys = List.map fst (Option.get (Json.to_obj j)) in
  Alcotest.(check (list string)) "result keys"
    [ "workload"; "traced"; "correct"; "attempted"; "failed"; "errors"; "outputs"; "e2e"; "layers"; "spans" ]
    keys;
  let r = One.of_json j in
  Alcotest.(check bool) "correct" true r.correct;
  Alcotest.(check (list int)) "32 paths, none failed" [ 32; 0 ] [ r.attempted; r.failed ];
  Alcotest.(check (list string)) "every end-to-end metric"
    (List.map (fun (m : Spec.metric) -> m.m_name) Spec.e2e_metrics)
    (List.map fst r.e2e);
  List.iter
    (fun (k, v) -> Alcotest.(check bool) (k ^ " is a number") false (Float.is_nan v))
    r.e2e;
  let t = One.of_json (run_one [ "--workload"; "symloop"; "--traced" ]) in
  Alcotest.(check string) "traced run reproduces the outputs" r.outputs t.outputs;
  Alcotest.(check (list string)) "every layer metric but the run-level overhead"
    (List.filter_map
       (fun (l : Spec.layer_metric) ->
         if l.l_name = "trace.overhead_frac" then None else Some l.l_name)
       Spec.layer_metrics)
    (List.map fst t.layers);
  Alcotest.(check bool) "spans recorded" true (List.length t.spans > 5)

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "histogram percentile" `Quick test_hist_percentile;
        ] );
      ( "cases",
        [
          Alcotest.test_case "expected file roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "multiset diff" `Quick test_diff;
          Alcotest.test_case "failure accounting" `Quick test_verify;
        ] );
      ( "benchmark.json",
        [
          Alcotest.test_case "committed files valid" `Quick test_benchmark_json;
          Alcotest.test_case "limits enforced" `Quick test_benchmark_json_rejects;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_compare;
          Alcotest.test_case "missing or NaN" `Quick test_compare_missing;
          Alcotest.test_case "claims" `Quick test_claims;
        ] );
      ("smoke", [ Alcotest.test_case "one symloop" `Quick test_smoke ]);
    ]
