(* e2e.exe regen-expected: rebuild bench/e2e/expected/ from serial,
   enumerating runs of each workload's program to the workload's own
   bound.  A bounded serial DFS run is a deterministic prefix, so its
   cases are an exact expectation; a drained run must leave no frontier. *)

let write path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Printf.printf "wrote %s\n%!" path

let serial ?max_completed (p : Drive.program) =
  let img = Drive.build p in
  Drive.explore ~cap:600. ?max_completed
    ~make_engine:(Drive.make_engine ~merge:false ~probe:false p img)
    ~boot:(Drive.boot img) ()

let regen () =
  let dir = Filename.dirname (One.expected_path "x") in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (w : Spec.workload) ->
      let r = serial ?max_completed:w.max_completed w.program in
      if w.max_completed = None && r.frontier > 0 then
        failwith (w.name ^ ": the enumerated run did not drain");
      match w.check with
      | Spec.Cases file ->
          let lines = List.concat_map Drive.case_lines r.completed in
          let title =
            match w.max_completed with
            | Some n -> Printf.sprintf "%s (first %d paths)" file n
            | None -> file
          in
          write (One.expected_path file)
            (Caseset.to_string ~title (Caseset.of_lines lines))
      | Spec.Fingerprint file ->
          let statuses = List.map Drive.status r.completed in
          write (One.expected_path file)
            (One.fingerprint_to_string
               {
                 paths = List.length r.completed;
                 instructions = r.counts.instructions;
                 forks = r.counts.forks;
                 statuses = One.digest_lines statuses;
               }))
    Spec.workloads
