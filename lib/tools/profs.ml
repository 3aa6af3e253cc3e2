(** PROFS: the multi-path in-vivo performance profiler
    (paper section 6.1.3) — the first use of symbolic execution for
    performance analysis.

    Runs a workload with symbolic inputs under local consistency, attaches
    the PerformanceProfile plugin (instruction counts + cache/TLB/page-fault
    simulation per path), and post-processes the per-path reports: solving
    each path's constraints reconstructs the concrete input that drives the
    program down that path, which is how the URL experiment relates
    instruction counts to the number of '/' characters. *)

open S2e_core
open S2e_plugins
module Expr = S2e_expr.Expr
module Solver = S2e_solver.Solver
module Guest = S2e_guest.Guest

type path_profile = {
  p_id : int;
  p_status : string;
  p_instructions : int;
  p_i1_misses : int;
  p_d1_misses : int;
  p_l2_misses : int;
  p_tlb_misses : int;
  p_page_faults : int;
  (* Values of the symbolic input bytes along this path (solved model),
     keyed by variable name. *)
  p_input : (string * int) list;
  p_result : int option; (* workload exit value when concrete *)
}

type report = {
  workload : string;
  paths : path_profile list;
  killed_paths : int; (* paths terminated without completing (e.g. loops) *)
  unbounded : bool;   (* some path hit the polling-loop killer *)
  seconds : float;
  solver_seconds : float;
}

let input_of_model engine (s : State.t) =
  match Solver.check s.State.constraints with
  | Solver.Sat m ->
      List.filter_map
        (fun (id, name) ->
          match Expr.Int_map.find_opt id m with
          | Some v -> Some (name, Int64.to_int v land 0xff)
          | None -> Some (name, 0))
        engine.Executor.var_tags
  | Solver.Unsat | Solver.Unknown -> []

(** Profile [workload] (an MC source) with the given driver and injected
    frames.  [unit_modules] defaults to the workload module itself. *)
let run ?(max_seconds = 30.0) ?(max_instructions = 6_000_000)
    ?(consistency = Consistency.LC) ?(driver = ("nulldrv", S2e_guest.Drivers_src.nulldrv))
    ?(frames = []) ?unit_modules ?registry ~workload:(wname, wsrc) () =
  let before = S2e_obs.Metrics.snapshot () in
  let img = Guest.build ?registry ~driver ~workload:(wname, wsrc) () in
  let config = Executor.default_config () in
  config.consistency <- consistency;
  let engine = Executor.create ~config () in
  Guest.load_into_engine engine img;
  Executor.set_unit engine (Option.value ~default:[ wname ] unit_modules);
  let profile = Perf_profile.attach engine in
  let _killer = Path_killer.attach ~max_repeats:150 engine in
  let killed = ref 0 in
  let unbounded = ref false in
  Events.reg_state_end engine.Executor.events (fun s ->
      match s.State.status with
      | State.Killed reason ->
          incr killed;
          if reason = "polling loop" then unbounded := true
      | _ -> ());
  let profiles = ref [] in
  Events.reg_state_end engine.Executor.events (fun s ->
      let input = input_of_model engine s in
      let result =
        if s.State.status = State.Halted then
          Expr.to_const (Symmem.read_word s.State.mem Guest.result_addr)
          |> Option.map Int64.to_int
        else None
      in
      profiles := (s.State.id, s, input, result) :: !profiles);
  let s0 = Executor.boot engine ~entry:img.entry () in
  List.iter
    (fun f -> ignore (S2e_vm.Netdev.inject_frame s0.State.devices.netdev f))
    frames;
  let started = Unix.gettimeofday () in
  ignore
    (Executor.run
       ~limits:
         {
           Executor.max_instructions = Some max_instructions;
           max_seconds = Some max_seconds;
           max_completed = None;
         }
       engine s0);
  let seconds = Unix.gettimeofday () -. started in
  (* Join the plugin's per-path counters with the solved inputs. *)
  let reports = Perf_profile.reports profile in
  let paths =
    List.filter_map
      (fun (r : Perf_profile.report) ->
        match List.find_opt (fun (id, _, _, _) -> id = r.r_path) !profiles with
        | None -> None
        | Some (_, _, input, result) ->
            Some
              {
                p_id = r.r_path;
                p_status = r.r_status;
                p_instructions = r.r_instructions;
                p_i1_misses = r.r_totals.i1_misses;
                p_d1_misses = r.r_totals.d1_misses;
                p_l2_misses = r.r_totals.l2_misses;
                p_tlb_misses = r.r_totals.tlb_misses;
                p_page_faults = r.r_totals.page_faults;
                p_input = input;
                p_result = result;
              })
      reports
  in
  {
    workload = wname;
    paths;
    killed_paths = !killed;
    unbounded = !unbounded;
    seconds;
    solver_seconds =
      S2e_obs.Metrics.(get_float (delta ~before (snapshot ())) "solver.query_s");
  }

let completed r = List.filter (fun p -> p.p_status = "halted") r.paths

(** [min, max] executed instructions over completed paths: the performance
    envelope of the paper's ping experiment. *)
let envelope r =
  match completed r with
  | [] -> None
  | p :: rest ->
      Some
        (List.fold_left
           (fun (lo, hi) p -> (min lo p.p_instructions, max hi p.p_instructions))
           (p.p_instructions, p.p_instructions)
           rest)

(** Count occurrences of byte [c] among a path's symbolic input bytes whose
    variable name starts with [prefix]. *)
let count_input_byte p ~prefix c =
  List.length
    (List.filter
       (fun (name, v) ->
         v = c
         && String.length name >= String.length prefix
         && String.sub name 0 (String.length prefix) = prefix)
       p.p_input)

(** Least-squares slope and intercept of instructions as a function of a
    per-path feature: used to report "k extra instructions per '/'" for the
    URL experiment. *)
let regression points =
  match points with
  | [] | [ _ ] -> None
  | _ ->
      let n = float_of_int (List.length points) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. points in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. points in
      let denom = (n *. sxx) -. (sx *. sx) in
      if abs_float denom < 1e-9 then None
      else
        let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
        let intercept = (sy -. (slope *. sx)) /. n in
        Some (slope, intercept)
