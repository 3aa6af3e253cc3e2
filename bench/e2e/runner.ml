(* e2e.exe run: schedule units, one fresh [e2e.exe one] child each, and
   fold them into a report.  Units run one at a time, so the machine's
   load is this process plus at most the procs workload's two workers. *)

module Json = Drive.Json

let now = Unix.gettimeofday

(* Run one unit in a child process; its last stdout line is its result.
   A child that dies without one yields a failed, incorrect result. *)
let spawn (w : Spec.workload) ~traced =
  let args =
    [ Sys.executable_name; "one"; "--workload"; w.name ]
    @ if traced then [ "--traced" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  let parsed =
    match Json.parse last with
    | Ok j -> ( try Some (One.of_json j) with Failure _ -> None)
    | Error _ -> None
  in
  match parsed with
  | Some r -> r
  | None ->
      let how =
        match status with
        | Unix.WEXITED c -> Printf.sprintf "exited %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s
      in
      {
        One.workload = w.name;
        traced;
        correct = false;
        attempted = 1;
        failed = 1;
        errors = [ Printf.sprintf "unit %s without a result" how ];
        outputs = "";
        e2e = [];
        layers = [];
        spans = [];
      }

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Per workload, in seeded workload order, rounds until the next one
   would overrun [seconds] (at least one).  A round is one timed unit,
   plus one traced unit when tracing, in seeded order: traced and
   untraced units share the machine's drift, so their ratio is the
   tracing overhead.  Units of each workload, as (timed, traced). *)
let schedule ~rng ~seconds ~trace workloads =
  let results = Hashtbl.create 8 in
  let round (w : Spec.workload) =
    List.iter
      (fun traced ->
        let r = spawn w ~traced in
        let timed, tr = Option.value ~default:([], []) (Hashtbl.find_opt results w.name) in
        Hashtbl.replace results w.name
          (if traced then (timed, r :: tr) else (r :: timed, tr)))
      (if trace then shuffle rng [ false; true ] else [ false ])
  in
  List.iter
    (fun w ->
      let start = now () and longest = ref 0. in
      let rec rounds () =
        let t0 = now () in
        round w;
        longest := Float.max !longest (now () -. t0);
        if now () -. start +. !longest <= seconds then rounds ()
      in
      rounds ())
    (shuffle rng workloads);
  List.map
    (fun (w : Spec.workload) ->
      let timed, traced = Option.value ~default:([], []) (Hashtbl.find_opt results w.name) in
      (w, List.rev timed, List.rev traced))
    workloads

let commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
  | exception Unix.Unix_error _ -> "unknown"

(* Chrome trace_event JSON of every traced unit: one pid per unit, each
   span's id and parent id in its args. *)
let write_trace path units =
  let events =
    List.concat
      (List.mapi
         (fun pid (r : One.result) ->
           List.map
             (fun (s : One.span) ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("cat", Json.Str r.workload);
                   ("ph", Json.Str "X");
                   ("ts", Json.Num (s.ts *. 1e6));
                   ("dur", Json.Num (s.dur *. 1e6));
                   ("pid", Json.Num (float_of_int (pid + 1)));
                   ("tid", Json.Num 1.);
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Num (float_of_int s.id));
                         ("parent", Json.Num (float_of_int s.parent));
                         ("synthetic", Json.Bool s.synthetic);
                       ] );
                 ])
             r.spans)
         units)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string (Json.Obj [ ("traceEvents", Json.Arr events) ])))

let ensure_parent path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* The harness line: the last line of stdout when one workload ran. *)
let harness_line ~trace (w : Report.workload) =
  let value unit v = Json.Obj [ ("value", Report.opt_num v); ("unit", Json.Str unit) ] in
  let metrics =
    if trace then
      List.map
        (fun (l : Spec.layer_metric) ->
          (l.l_name, value l.l_unit (Option.join (List.assoc_opt l.l_name w.layers))))
        Spec.layer_metrics
    else
      List.filter_map
        (fun (m : Spec.metric) ->
          if m.zero_ok then None
          else
            Option.map
              (fun (s : Report.summary) -> (m.m_name, value m.unit (Some s.median)))
              (List.assoc_opt m.m_name w.metrics))
        Spec.e2e_metrics
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool w.correct);
         ("attempted", Json.Num (float_of_int w.attempted));
         ("failed", Json.Num (float_of_int w.failed));
         ("metrics", Json.Obj metrics);
       ])

let run ~workloads ~seed ~seconds ~trace ~out ~trace_out =
  let rng = Random.State.make [| seed |] in
  let units = schedule ~rng ~seconds ~trace workloads in
  let report =
    {
      Report.seed;
      nproc = Domain.recommended_domain_count ();
      ocaml = Sys.ocaml_version;
      commit = commit ();
      workloads =
        List.map (fun (w, timed, traced) -> Report.aggregate w ~timed ~traced) units;
    }
  in
  ensure_parent out;
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (Json.to_string (Report.to_json report) ^ "\n"));
  (match trace_out with
  | Some path -> write_trace path (List.concat_map (fun (_, _, tr) -> tr) units)
  | None -> ());
  Report.print_table report;
  Printf.printf "report: %s\n" out;
  (match report.workloads with
  | [ w ] -> print_endline (harness_line ~trace w)
  | _ -> ());
  List.for_all (fun (w : Report.workload) -> w.correct) report.workloads
