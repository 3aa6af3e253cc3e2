(* e2e.exe compare PARENT.json CHANGE.json [--claim metric@workload]:
   one row per workload and end-to-end metric, judged against the bounds
   in Spec.  A worsening past the bound is a regression; a pairing whose
   run-to-run spread exceeds the bound is unresolved unless every change
   run beats every parent run; any increase in failed_frac, or wrong
   outputs, is a failure.  A claim holds only when the change wins at
   least nine tenths of the pairs and the medians differ by more than the
   parent's interquartile range. *)

type verdict = Ok_ | Regression | Unresolved

let verdict_string = function
  | Ok_ -> "ok"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"

(* [a] better than [b] under the metric's direction. *)
let better (m : Spec.metric) a b =
  match m.better with Spec.Lower -> a < b | Spec.Higher -> a > b

(* How much worse the change's median is, in the metric's unit (negative:
   better). *)
let worsening (m : Spec.metric) ~(parent : Report.summary) ~(change : Report.summary) =
  match m.better with
  | Spec.Lower -> change.median -. parent.median
  | Spec.Higher -> parent.median -. change.median

let bound (m : Spec.metric) (parent : Report.summary) =
  Float.max (m.bound_rel *. Float.abs parent.median) m.bound_abs

(* A metric with a zero bound (failed_frac) tolerates no worsening at all:
   any change run worse than the parent's worst run is a regression. *)
let judge (m : Spec.metric) ~(parent : Report.summary) ~(change : Report.summary) =
  let b = bound m parent in
  if b = 0. then
    let worst vs = List.fold_left (fun w v -> if better m w v then v else w) (List.hd vs) vs in
    if parent.values <> [] && change.values <> []
       && better m (worst parent.values) (worst change.values)
    then Regression
    else Ok_
  else
    let worse = worsening m ~parent ~change in
    let spread = Float.max (parent.q3 -. parent.q1) (change.q3 -. change.q1) in
    let dominates =
      List.for_all
        (fun c -> List.for_all (fun p -> better m c p) parent.values)
        change.values
    in
    if worse > b then Regression
    else if spread > b && not dominates then Unresolved
    else Ok_

(* Pairs in run order; ties count for neither side. *)
let claim_holds (m : Spec.metric) ~(parent : Report.summary) ~(change : Report.summary) =
  let rec pairs ps cs =
    match (ps, cs) with p :: ps, c :: cs -> (p, c) :: pairs ps cs | _ -> []
  in
  let ps = pairs parent.values change.values in
  let wins = List.length (List.filter (fun (p, c) -> better m c p) ps) in
  ps <> []
  && wins * 10 >= 9 * List.length ps
  && -.worsening m ~parent ~change > parent.q3 -. parent.q1

type row = {
  workload : string;
  metric : string;
  parent : float;
  change : float;
  verdict : verdict;
}

(* Every workload of the parent and every end-to-end metric gets a row.
   A workload or metric the change report lacks, or whose median is not
   a number, is a regression: nothing was measured.  One the parent lacks
   is unresolved: there is nothing to compare against. *)
let rows ~(parent : Report.t) ~(change : Report.t) =
  let median = function Some (s : Report.summary) -> s.median | None -> nan in
  List.concat_map
    (fun (pw : Report.workload) ->
      let row metric parent change verdict =
        { workload = pw.name; metric; parent; change; verdict }
      in
      match
        List.find_opt (fun (cw : Report.workload) -> cw.name = pw.name) change.workloads
      with
      | None -> [ row "workload" 1. nan Regression ]
      | Some cw ->
          (if cw.correct then [] else [ row "outputs" 1. 0. Regression ])
          @ List.map
              (fun (m : Spec.metric) ->
                let p = List.assoc_opt m.m_name pw.metrics
                and c = List.assoc_opt m.m_name cw.metrics in
                row m.m_name (median p) (median c)
                  (match (p, c) with
                  | Some p, Some c
                    when not (Float.is_nan p.median || Float.is_nan c.median) ->
                      judge m ~parent:p ~change:c
                  | _ -> if Float.is_nan (median p) then Unresolved else Regression))
              Spec.e2e_metrics)
    parent.workloads

type claim_result = { claim : string; holds : bool; why : string }

let check_claim ~(parent : Report.t) ~(change : Report.t) claim =
  let fail why = { claim; holds = false; why } in
  match String.split_on_char '@' claim with
  | [ metric; workload ] -> (
      let find (r : Report.t) =
        Option.bind
          (List.find_opt (fun (w : Report.workload) -> w.name = workload) r.workloads)
          (fun w -> List.assoc_opt metric w.metrics)
      in
      match (Spec.find_metric metric, find parent, find change) with
      | Some m, Some p, Some c ->
          if claim_holds m ~parent:p ~change:c then { claim; holds = true; why = "met" }
          else fail "not met: fewer than 9/10 pair wins or gain within the parent's IQR"
      | _ -> fail "unknown metric or workload")
  | _ -> fail "expected metric@workload"

let print_rows rows =
  Printf.printf "%-16s %-13s %14s %14s %8s  %s\n" "workload" "metric" "parent"
    "change" "delta" "verdict";
  List.iter
    (fun r ->
      let delta =
        if r.parent = 0. || Float.is_nan (r.change /. r.parent) then ""
        else Printf.sprintf "%+.1f%%" ((r.change /. r.parent -. 1.) *. 100.)
      in
      Printf.printf "%-16s %-13s %14.6g %14.6g %8s  %s\n" r.workload r.metric r.parent
        r.change delta (verdict_string r.verdict))
    rows

(* Prints the table; true when nothing regressed and every claim held. *)
let compare_files parent_path change_path ~claims =
  let parent = Report.load parent_path and change = Report.load change_path in
  let rs = rows ~parent ~change in
  print_rows rs;
  let cs = List.map (check_claim ~parent ~change) claims in
  List.iter (fun c -> Printf.printf "claim %s: %s\n" c.claim c.why) cs;
  List.for_all (fun r -> r.verdict <> Regression) rs
  && List.for_all (fun c -> c.holds) cs
