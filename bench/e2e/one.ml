(* One benchmark unit: set up, explore, extract cases, verify.  [run]
   executes in a fresh process ([e2e.exe one]) so heap peaks and set-up
   costs belong to exactly one unit. *)

module Json = Drive.Json

let now = Unix.gettimeofday

(* Exploration safety cap: a unit that regresses far past its usual few
   seconds still ends, and the shortfall is counted as failed. *)
let cap = 120.

type span = {
  name : string;
  id : int;
  parent : int;  (** 0 for the root *)
  ts : float;  (** seconds since the unit started *)
  dur : float;
  synthetic : bool;
      (** a program phase's accumulated self time, laid end to end inside
          its parent rather than at the moments it ran *)
}

type result = {
  workload : string;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  errors : string list;
  outputs : string;
      (** digest of the outputs a traced and an untraced run must share *)
  e2e : (string * float) list;
  layers : (string * float option) list;  (** traced runs only *)
  spans : span list;  (** traced runs only *)
}

(* Where bench/e2e lives: the repo root when run from there, else the
   current directory (dune runs the tests inside the bench directory). *)
let bench_dir () = if Sys.file_exists "bench/e2e" then "bench/e2e" else "."

let expected_path file =
  Filename.concat (Filename.concat (bench_dir ()) "expected") file

let digest_lines lines =
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare lines)))

(* ---------------- fingerprints (runs without cases) ---------------- *)

type fingerprint = {
  paths : int;
  instructions : int;
  forks : int;
  statuses : string;  (** digest of the sorted end statuses *)
}

let fingerprint_to_string f =
  Printf.sprintf "paths %d\ninstructions %d\nforks %d\nstatuses %s\n" f.paths
    f.instructions f.forks f.statuses

let fingerprint_of_string text =
  let field k =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ k'; v ] when k' = k -> Some v
        | _ -> None)
      (String.split_on_char '\n' text)
    |> function
    | Some v -> v
    | None -> failwith ("fingerprint: missing " ^ k)
  in
  {
    paths = int_of_string (field "paths");
    instructions = int_of_string (field "instructions");
    forks = int_of_string (field "forks");
    statuses = field "statuses";
  }

(* ---------------- verification ---------------- *)

type verdict = {
  v_attempted : int;
  v_failed : int;
  v_errors : string list;  (** fatal: wrong outputs, not lost ones *)
  v_outputs : string;
  missing : int;
}

let count_incomplete statuses =
  List.length (List.filter (String.ends_with ~suffix:" [incomplete]") statuses)

(* Emitted lines against the expected multiset, which is exactly what the
   workload's own run emits (its bounded prefix, or its whole drain).
   Every expected line is owed: a missing one is failed, an emitted line
   beyond the multiset is a wrong output.  [lost] is work a drained run
   left behind: its frontier after the safety cap, or lost dist items. *)
let verify_cases (e : Caseset.expected) ~file ~lines ~statuses ~lost =
  let d = Caseset.diff e lines in
  {
    v_attempted = List.length e.keys;
    v_failed = d.missing + count_incomplete statuses + lost;
    v_errors =
      (if d.foreign > 0 then
         [ Printf.sprintf "%d emitted cases are not in %s" d.foreign file ]
       else []);
    v_outputs = digest_lines (List.map Caseset.key lines);
    missing = d.missing;
  }

let verify_fingerprint file (f : fingerprint) ~incomplete =
  let e =
    fingerprint_of_string
      (In_channel.with_open_bin (expected_path file) In_channel.input_all)
  in
  let field name a b =
    if a = b then []
    else [ Printf.sprintf "%s: %s, expected %s (%s)" name a b file ]
  in
  let lost = max 0 (e.paths - f.paths) in
  {
    v_attempted = e.paths;
    v_failed = lost + incomplete;
    v_errors =
      (if f.paths = e.paths then
         field "instructions" (string_of_int f.instructions)
           (string_of_int e.instructions)
         @ field "forks" (string_of_int f.forks) (string_of_int e.forks)
         @ field "statuses" f.statuses e.statuses
       else []);
    v_outputs = Digest.to_hex (Digest.string (fingerprint_to_string f));
    missing = lost;
  }

(* ---------------- the unit ---------------- *)

type explored =
  | Serial of Drive.run
  | Procs of Drive.dist

let run ~traced (w : Spec.workload) =
  let spans = ref [] and next_id = ref 5 in
  (* fixed ids: 1 run, 2 setup, 3 explore, 4 cases, 5 verify *)
  let span ?id ?(synthetic = false) ~parent name ts t1 =
    let id =
      match id with
      | Some i -> i
      | None ->
          incr next_id;
          !next_id
    in
    spans := { name; id; parent; ts; dur = t1 -. ts; synthetic } :: !spans
  in
  let merge = w.mode = Spec.Merged in
  (* Set-up: image, engine, boot.  The engine and the booted state are
     made here and handed to the explore call through its factory, so
     set-up and exploration are timed apart; later factory calls (forked
     workers) build fresh engines. *)
  let t0 = now () in
  let img = Drive.build w.program in
  let t1 = now () in
  let eng = Drive.make_engine ~merge ~probe:traced w.program img () in
  let t2 = now () in
  let s0 = Drive.boot img eng in
  let t3 = now () in
  let first = ref (Some eng) in
  let make_engine () =
    match !first with
    | Some e ->
        first := None;
        e
    | None -> Drive.make_engine ~merge ~probe:traced w.program img ()
  in
  let boot _ = s0 in
  let snap1 = Drive.snapshot () in
  let t4 = now () in
  let explored =
    match w.mode with
    | Serial | Merged ->
        Serial
          (Drive.explore ~cap ?max_completed:w.max_completed ~make_engine ~boot
             ())
    | Procs procs ->
        Procs (Drive.explore_procs ~cap ~procs ~make_engine ~boot ())
  in
  let t5 = now () in
  let snap2 =
    match explored with Serial _ -> Drive.snapshot () | Procs d -> d.obs
  in
  (* Cases, one timed call per completed state. *)
  let lines, state_ms =
    match explored with
    | Serial r when w.cases ->
        List.fold_left
          (fun (lines, ms) s ->
            let a = now () in
            let ls = Drive.case_lines s in
            let b = now () in
            span ~parent:4 "cases.state" a b;
            (List.rev_append ls lines, ((b -. a) *. 1000.) :: ms))
          ([], []) r.completed
    | Serial _ -> ([], [])
    | Procs d -> (d.lines, [])
  in
  let t6 = now () in
  let snap3 = Drive.snapshot () in
  let gc = Gc.quick_stat () in
  let t7 = now () in
  let statuses, counts =
    match explored with
    | Serial r -> (List.map Drive.status r.completed, r.counts)
    | Procs d -> (d.statuses, d.d_counts)
  in
  let v =
    match (explored, w.check) with
    | _, Spec.Cases file ->
        (* A bounded run leaves a frontier by design. *)
        let lost =
          match explored with
          | Procs d -> d.lost_items
          | Serial r -> if w.max_completed = None then r.frontier else 0
        in
        verify_cases (Caseset.load (expected_path file)) ~file ~lines ~statuses ~lost
    | Serial r, Spec.Fingerprint file ->
        verify_fingerprint file
          {
            paths = List.length r.completed;
            instructions = counts.instructions;
            forks = counts.forks;
            statuses = digest_lines statuses;
          }
          ~incomplete:(count_incomplete statuses)
    | Procs _, Spec.Fingerprint _ -> invalid_arg "procs runs check cases"
  in
  let t8 = now () in
  (* Cases solved here, not inside the dist workers' exploration. *)
  let serial_cases = match explored with Serial _ -> w.cases | Procs _ -> false in
  let explore_s = t5 -. t4 and cases_s = if serial_cases then t6 -. t5 else 0. in
  let d name = Drive.delta ~before:snap1 ~after:snap2 name in
  let instructions = d "engine.instructions" in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let e2e =
    [
      ("setup_s", t3 -. t0);
      ("total_s", t6 -. t0);
      ("explore_s", explore_s);
      ("cases_s", cases_s);
      ( "insns_per_s",
        match instructions with Some i -> i /. explore_s | None -> nan );
      ("peak_heap_mb", float_of_int gc.top_heap_words *. word_bytes /. 1e6);
      ( "failed_frac",
        float_of_int v.v_failed /. float_of_int (max 1 v.v_attempted) );
    ]
  in
  let layers =
    if not traced then []
    else begin
      let ( let* ) = Option.bind in
      let ratio a b =
        let* a = a in
        let* b = b in
        Some (if b = 0. then 0. else a /. b)
      in
      let phases = Drive.phase_deltas ~before:snap1 ~after:snap2 in
      let phase p = List.assoc_opt p phases in
      let phase_total = List.fold_left (fun acc (_, s) -> acc +. s) 0. phases in
      let procs = match w.mode with Procs n -> n | _ -> 1 in
      let capacity = float_of_int procs *. explore_s in
      let solver_hist = Drive.hist_delta ~before:snap1 ~after:snap2 "solver.query_s" in
      let dc name = Drive.delta ~before:snap2 ~after:snap3 name in
      let cases_only f = if serial_cases then f () else Some 0. in
      let dist f = match explored with Procs dd -> f dd | Serial _ -> Some 0. in
      let unmergeable =
        List.fold_left
          (fun acc (name, _) ->
            if String.starts_with ~prefix:"merge.unmergeable." name then
              acc +. Option.value ~default:0. (d name)
            else acc)
          0. snap2
      in
      [
        ("guest.build_s", Some (t1 -. t0));
        ("executor.create_s", Some (t2 -. t1));
        ("executor.execute_s", phase "execute");
        ( "executor.ns_per_insn",
          Option.map (fun r -> r *. 1e9) (ratio (phase "execute") instructions) );
        ("executor.fork_s", phase "fork");
        ("executor.concretize_s", phase "concretize");
        ("executor.residual_s", Some (capacity -. phase_total));
        ("executor.forks", d "engine.forks");
        ("executor.sym_insn_frac", ratio (d "engine.sym_instructions") instructions);
        ("dbt.translate_s", phase "translate");
        ( "dbt.tb_miss_rate",
          ratio (d "dbt.tb_misses")
            (let* h = d "dbt.tb_hits" in
             let* m = d "dbt.tb_misses" in
             Some (h +. m)) );
        ("dbt.invalidations", d "dbt.tb_invalidations");
        ("searcher.select_s", phase "bench_select");
        ("searcher.add_s", phase "bench_add");
        ("searcher.selects", d "phase.bench_select_count");
        ("solver.explore_s", phase "solver");
        ("solver.queries", d "solver.queries");
        ("solver.sat_frac", ratio (d "solver.sat_queries") (d "solver.queries"));
        ("solver.cache_hit_rate", ratio (d "solver.cache_hits") (d "solver.queries"));
        ( "solver.inc_reuse_rate",
          ratio
            (let* h = d "solver.inc_hits" in
             let* p = d "solver.inc_partials" in
             Some (h +. p))
            (d "solver.sat_queries") );
        ( "solver.mean_us",
          let* _, counts, sum = solver_hist in
          let n = Array.fold_left ( + ) 0 counts in
          Some (if n = 0 then 0. else sum /. float_of_int n *. 1e6) );
        ( "solver.p99_us",
          let* bounds, counts, _ = solver_hist in
          let p = Stats.hist_percentile 0.99 ~bounds ~counts in
          Some (if Float.is_nan p then 0. else p *. 1e6) );
        ("solver.unknowns", d "solver.unknowns");
        ("solver.max_constraints", Drive.number snap2 "engine.max_constraint_set");
        ("cases.s", cases_only (fun () -> Some cases_s));
        ("cases.state_p50_ms", cases_only (fun () -> Some (Stats.percentile 0.5 state_ms)));
        ("cases.state_p99_ms", cases_only (fun () -> Some (Stats.percentile 0.99 state_ms)));
        ( "cases.solver_s",
          cases_only (fun () ->
              List.assoc_opt "solver" (Drive.phase_deltas ~before:snap2 ~after:snap3)) );
        ("cases.queries", cases_only (fun () -> dc "solver.queries"));
        ( "cases.per_state",
          cases_only (fun () ->
              Some
                (float_of_int (List.length lines)
                /. float_of_int (max 1 (List.length state_ms)))) );
        ("merge.merges", d "merge.merges");
        ( "merge.rejected",
          Option.map (fun r -> r +. unmergeable) (d "merge.rejected_cost") );
        ("merge.carrier_aborts", d "merge.carrier_aborts");
        ("merge.lost_cases", Some (if merge then float_of_int v.missing else 0.));
        ("dist.worker_busy_frac", dist (fun _ -> Some (phase_total /. capacity)));
        ("dist.steals", dist (fun dd -> Some (float_of_int dd.steals)));
        ("dist.requeues", dist (fun dd -> Some (float_of_int dd.requeues)));
        ("dist.retransmits", dist (fun dd -> Some (float_of_int dd.retransmits)));
        ( "gc.alloc_gb",
          Some
            ((gc.minor_words +. gc.major_words -. gc.promoted_words)
            *. word_bytes /. 1e9) );
        ("gc.major_collections", Some (float_of_int gc.major_collections));
        ("mem.max_live_states", Some (float_of_int counts.max_live_states));
        ("mem.footprint_words", Some (float_of_int counts.footprint_words));
      ]
    end
  in
  span ~id:1 ~parent:0 "run" t0 t8;
  span ~id:2 ~parent:1 "setup" t0 t3;
  span ~parent:2 "guest.build" t0 t1;
  span ~parent:2 "executor.create" t1 t2;
  span ~parent:2 "boot" t2 t3;
  span ~id:3 ~parent:1 "explore" t4 t5;
  ignore
    (List.fold_left
       (fun ts (name, dur) ->
         span ~synthetic:true ~parent:3 ("phase." ^ name) ts (ts +. dur);
         ts +. dur)
       t4
       (Drive.phase_deltas ~before:snap1 ~after:snap2));
  span ~id:4 ~parent:1 "cases" t5 t6;
  span ~id:5 ~parent:1 "verify" t7 t8;
  {
    workload = w.name;
    traced;
    correct = v.v_errors = [];
    attempted = v.v_attempted;
    failed = v.v_failed;
    errors = v.v_errors;
    outputs = v.v_outputs;
    e2e;
    layers;
    spans =
      (if traced then
         List.rev_map (fun s -> { s with ts = s.ts -. t0 }) !spans
         |> List.stable_sort (fun a b -> Float.compare a.ts b.ts)
       else []);
  }

(* ---------------- the child's report line ---------------- *)

let num f = Json.Num f

let to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("traced", Json.Bool r.traced);
      ("correct", Json.Bool r.correct);
      ("attempted", num (float_of_int r.attempted));
      ("failed", num (float_of_int r.failed));
      ("errors", Json.Arr (List.map (fun e -> Json.Str e) r.errors));
      ("outputs", Json.Str r.outputs);
      ("e2e", Json.Obj (List.map (fun (k, v) -> (k, num v)) r.e2e));
      ( "layers",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, match v with Some f -> num f | None -> Json.Null))
             r.layers) );
      ( "spans",
        Json.Arr
          (List.map
             (fun s ->
               Json.Arr
                 [
                   Json.Str s.name;
                   num (float_of_int s.id);
                   num (float_of_int s.parent);
                   num s.ts;
                   num s.dur;
                   Json.Bool s.synthetic;
                 ])
             r.spans) );
    ]

let of_json j =
  let get k = match Json.member k j with Some v -> v | None -> failwith ("missing " ^ k) in
  let fnum k = match Json.to_num (get k) with Some f -> f | None -> failwith k in
  let str k = match Json.to_str (get k) with Some s -> s | None -> failwith k in
  let bool k = match get k with Json.Bool b -> b | _ -> failwith k in
  let obj k = match Json.to_obj (get k) with Some o -> o | None -> failwith k in
  let arr k = match Json.to_arr (get k) with Some a -> a | None -> failwith k in
  {
    workload = str "workload";
    traced = bool "traced";
    correct = bool "correct";
    attempted = int_of_float (fnum "attempted");
    failed = int_of_float (fnum "failed");
    errors = List.filter_map Json.to_str (arr "errors");
    outputs = str "outputs";
    e2e =
      List.map
        (fun (k, v) -> (k, Option.value ~default:nan (Json.to_num v)))
        (obj "e2e");
    layers = List.map (fun (k, v) -> (k, Json.to_num v)) (obj "layers");
    spans =
      List.map
        (function
          | Json.Arr [ Json.Str name; Json.Num id; Json.Num parent; Json.Num ts; Json.Num dur; Json.Bool synthetic ] ->
              { name; id = int_of_float id; parent = int_of_float parent; ts; dur; synthetic }
          | _ -> failwith "bad span")
        (arr "spans");
  }
