(* End-to-end benchmark of the S2E engine.  See README.md beside this
   file; `e2e.exe run` is the one command that measures, prints and
   checks every workload. *)

open E2e_bench

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

let parse cmd argv specs usage =
  let anon = ref [] in
  (try
     Arg.parse_argv ~current:(ref 0)
       (Array.of_list (cmd :: argv))
       (Arg.align specs)
       (fun a -> anon := a :: !anon)
       usage
   with
  | Arg.Bad msg -> prerr_string msg; exit 2
  | Arg.Help msg -> print_string msg; exit 0);
  List.rev !anon

let workload name =
  match Spec.find_workload name with
  | Some w -> w
  | None ->
      die "unknown workload %S (one of: %s)" name
        (String.concat ", " (List.map (fun (w : Spec.workload) -> w.name) Spec.workloads))

let run argv =
  let names = ref [] and seed = ref 1 and seconds = ref 20.
  and trace = ref 1 and out = ref "" and trace_out = ref "" in
  let extra =
    parse "run" argv
      [
        ( "--workload",
          Arg.String (fun s -> names := !names @ String.split_on_char ',' s),
          "A[,B] workloads to run, repeatable (default: all five)" );
        ("--seed", Arg.Set_int seed, "N seeds the order of the units (default 1)");
        ( "--seconds",
          Arg.Set_float seconds,
          "S rounds of units per workload until S seconds (default 20)" );
        ("--trace", Arg.Set_int trace, "0|1 also run traced units (default 1)");
        ("--out", Arg.Set_string out, "FILE report JSON (default bench/e2e/out/report.json)");
        ("--trace-out", Arg.Set_string trace_out, "FILE spans of the traced units, trace_event JSON");
      ]
      "e2e.exe run [options]"
  in
  if extra <> [] then die "run: unexpected argument %s" (List.hd extra);
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds <= 0. then die "--seconds must be > 0";
  let workloads =
    if !names = [] then Spec.benchmarked else List.map workload !names
  in
  let out =
    if !out = "" then Filename.concat (One.bench_dir ()) "out/report.json" else !out
  in
  let ok =
    Runner.run ~workloads ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out
      ~trace_out:(if !trace_out = "" then None else Some !trace_out)
  in
  if not ok then exit 1

let one argv =
  let name = ref "" and traced = ref false in
  ignore
    (parse "one" argv
       [
         ("--workload", Arg.Set_string name, "NAME workload to run once");
         ("--traced", Arg.Set traced, " install probes, report layers and spans");
       ]
       "e2e.exe one --workload NAME [--traced]");
  let r = One.run ~traced:!traced (workload !name) in
  print_endline (Drive.Json.to_string (One.to_json r));
  if not r.correct then exit 1

let compare argv =
  let claims = ref [] in
  match
    parse "compare" argv
      [ ("--claim", Arg.String (fun c -> claims := !claims @ [ c ]), "METRIC@WORKLOAD a claimed gain") ]
      "e2e.exe compare PARENT.json CHANGE.json [--claim metric@workload]..."
  with
  | [ parent; change ] ->
      if not (Verdict.compare_files parent change ~claims:!claims) then exit 1
  | _ -> die "compare takes two report files"

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: argv -> run argv
  | _ :: "one" :: argv -> one argv
  | _ :: "compare" :: argv -> compare argv
  | _ :: "regen-expected" :: _ -> Regen.regen ()
  | _ -> die "usage: e2e.exe (run|one|compare|regen-expected) [options]"
