(* The benchmark's only door into lib/.  Every engine, guest, merge,
   dist and telemetry call the benchmark makes is in this file, so a
   refactor of those layers has one bench file to follow.  Counters are
   read by registry name; a name the registry no longer has comes back
   as [None] and is reported as absent, never as zero. *)

module Executor = S2e_core.Executor
module Parallel = S2e_core.Parallel
module State = S2e_core.State
module Searcher = S2e_core.Searcher
module Guest = S2e_guest.Guest
module Metrics = S2e_obs.Metrics
module Span = S2e_obs.Span
module Coordinator = S2e_dist.Coordinator
module Json = S2e_obs.Jsonl

type program = { driver : string; workload : string; source : string }

let program ~driver ~workload =
  let source =
    match workload with
    | "exerciser" -> S2e_guest.Workloads_src.exerciser
    | "urlparse" -> S2e_guest.Workloads_src.urlparse
    | "symloop" -> S2e_guest.Workloads_src.symloop
    | w -> invalid_arg ("Drive.program: unknown workload " ^ w)
  in
  { driver; workload; source }

(* urlparse makes 8 URL bytes symbolic, which enumeration never drains.
   Narrowing the window to [bytes] keeps the same parser code while the
   enumerated run drains, so a merged run has a full case set to match. *)
let narrow_urlparse bytes p =
  let wide = "__s2e_sym_mem(url + 8, 8, 1);" in
  let narrow = Printf.sprintf "__s2e_sym_mem(url + 8, %d, 1);" bytes in
  let src = p.source and wl = String.length wide in
  let rec find i =
    if i + wl > String.length src then invalid_arg "Drive.narrow_urlparse"
    else if String.sub src i wl = wide then i
    else find (i + 1)
  in
  let i = find 0 in
  {
    p with
    source =
      String.sub src 0 i ^ narrow
      ^ String.sub src (i + wl) (String.length src - i - wl);
  }

type image = Guest.image
type engine = Executor.t
type state = State.t

let build p =
  let src =
    if p.driver = "nulldrv" then S2e_guest.Drivers_src.nulldrv
    else List.assoc p.driver Guest.drivers
  in
  Guest.build ~driver:(p.driver, src) ~workload:(p.workload, p.source) ()

(* Searcher probes: spans around [select] and [add], registered as
   ordinary phases so their time is exclusive of the solver and execute
   phases nested in or around them.  Only traced runs install them. *)
let select_phase = Span.phase "bench_select"
let add_phase = Span.phase "bench_add"

let probe_searcher (eng : engine) =
  let s = eng.Executor.searcher in
  eng.searcher <-
    {
      s with
      Searcher.select = (fun () -> Span.timed select_phase s.select);
      add = (fun st -> Span.timed add_phase (fun () -> s.add st));
    }

(* The CLI's engine factory: LC, DFS, netdev ports symbolic, unit =
   driver + program, merge controller installed after the searcher. *)
let make_engine ~merge ~probe p img () =
  let config = Executor.default_config () in
  config.consistency <- S2e_core.Consistency.LC;
  config.symbolic_hardware_ports <-
    [ (S2e_vm.Layout.port_netdev, S2e_vm.Layout.port_netdev + 16) ];
  let eng = Executor.create ~config () in
  eng.searcher <- Searcher.dfs ();
  Guest.load_into_engine eng img;
  Executor.set_unit eng [ p.driver; p.workload ];
  ignore
    (S2e_merge.Controller.install
       ~mode:(if merge then S2e_merge.Policy.Auto else Off)
       eng);
  if probe then probe_searcher eng;
  eng

let boot (img : image) eng = Executor.boot eng ~entry:img.Guest.entry ()

type counts = {
  instructions : int;
  forks : int;
  max_live_states : int;
  footprint_words : int;
}

let counts (s : Executor.stats) =
  {
    instructions = s.concrete_instret;
    forks = s.forks;
    max_live_states = s.max_live_states;
    footprint_words = s.footprint_watermark;
  }

type run = { completed : state list; frontier : int; counts : counts }

let limits ~cap ~max_completed =
  { Executor.max_instructions = None; max_seconds = Some cap; max_completed }

let explore ~cap ?max_completed ~make_engine ~boot () =
  let r =
    Parallel.explore ~jobs:1
      ~limits:(limits ~cap ~max_completed)
      ~make_engine ~boot ()
  in
  {
    completed = r.Parallel.completed;
    frontier = List.length r.frontier;
    counts = counts r.stats;
  }

let status (s : state) = State.report_string s

(* One "status | case" line per test case the state stands for, solved
   without a shared context, as the CLI's --cases does. *)
let case_lines (s : state) =
  let st = status s in
  List.map
    (fun tc -> st ^ " | " ^ Parallel.test_case_to_string tc)
    (Parallel.test_cases s)

type dist = {
  lines : string list;
  statuses : string list;
  d_counts : counts;
  steals : int;
  requeues : int;
  retransmits : int;
  lost_items : int;  (** unexplored frontier items plus abandoned ones *)
  obs : (string * Metrics.value) list;  (** merged over every process *)
}

let explore_procs ~cap ~procs ~make_engine ~boot () =
  let r =
    Coordinator.explore ~procs ~cases:true
      ~limits:(limits ~cap ~max_completed:None)
      ~spawn:(Coordinator.Fork { jobs = 1; slice = 0.05; make_engine })
      ~make_engine ~boot ()
  in
  let open Coordinator in
  {
    lines =
      List.map
        (fun (p : S2e_dist.Proto.path) ->
          p.p_status ^ " | " ^ Parallel.test_case_to_string p.p_case)
        r.paths;
    statuses = List.map (fun (p : S2e_dist.Proto.path) -> p.p_status) r.paths;
    d_counts = counts r.stats;
    steals = r.steals;
    requeues = r.requeues;
    retransmits = r.retransmits;
    lost_items = r.unexplored + List.length r.abandoned;
    obs = r.obs;
  }

(* ---------------- registry reads ---------------- *)

type snapshot = (string * Metrics.value) list

let snapshot () : snapshot = Metrics.snapshot ()

let number (snap : snapshot) name =
  match Metrics.find snap name with
  | Some (Metrics.Int i) -> Some (float_of_int i)
  | Some (Metrics.Float f) -> Some f
  | Some (Metrics.Hist _) | None -> None

(* [after - before] of a counter; [None] when the name is gone. *)
let delta ~before ~after name =
  match (number before name, number after name) with
  | Some b, Some a -> Some (a -. b)
  | None, Some a -> Some a
  | _, None -> None

let hist_delta ~before ~after name =
  match Metrics.find after name with
  | Some (Metrics.Hist { bounds; counts; sum }) -> (
      match Metrics.find before name with
      | Some (Metrics.Hist { counts = c0; sum = s0; _ }) ->
          Some (bounds, Array.mapi (fun i c -> c - c0.(i)) counts, sum -. s0)
      | _ -> Some (bounds, Array.copy counts, sum))
  | _ -> None

(* Exclusive self-time of every program phase over a window, by phase
   name ("execute", "solver", "bench_select", ...). *)
let phase_deltas ~before ~after =
  List.filter_map
    (fun (name, _) ->
      if String.starts_with ~prefix:"phase." name && String.ends_with ~suffix:"_s" name
      then
        Option.map
          (fun d -> (String.sub name 6 (String.length name - 8), d))
          (delta ~before ~after name)
      else None)
    after
