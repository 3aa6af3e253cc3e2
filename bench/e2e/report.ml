(* A run's report: per workload, every end-to-end metric as median,
   quartiles and raw values over the timed units, the traced per-layer
   table, and the failure accounting.  The same JSON is the --out file,
   the committed baseline and the input of [compare]. *)

module Json = Drive.Json

type summary = {
  unit : string;
  median : float;
  q1 : float;
  q3 : float;
  values : float list;  (** in run order, for pairwise comparisons *)
}

type workload = {
  name : string;
  correct : bool;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * summary) list;
  layers : (string * float option) list;
}

type t = {
  seed : int;
  nproc : int;
  ocaml : string;
  commit : string;
  workloads : workload list;
}

let summarize unit values =
  let q1, q3 = Stats.quartiles values in
  { unit; median = Stats.median values; q1; q3; values }

(* Fold the units of one workload into its report entry.  Every unit,
   timed or traced, must leave the same outputs digest: that is how a
   traced run is shown to reproduce the untraced outputs. *)
let aggregate (w : Spec.workload) ~(timed : One.result list)
    ~(traced : One.result list) =
  let all = timed @ traced in
  let digests = List.sort_uniq compare (List.map (fun (r : One.result) -> r.outputs) all) in
  let errors =
    List.sort_uniq compare (List.concat_map (fun (r : One.result) -> r.errors) all)
    @
    if List.length digests > 1 then
      [ Printf.sprintf "outputs differ across the %d units" (List.length all) ]
    else []
  in
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        ( m.m_name,
          summarize m.unit
            (List.map
               (fun (r : One.result) ->
                 Option.value ~default:nan (List.assoc_opt m.m_name r.e2e))
               timed) ))
      Spec.e2e_metrics
  in
  let layer name =
    if name = "trace.overhead_frac" then
      let total rs =
        Stats.median
          (List.map (fun (r : One.result) -> List.assoc "total_s" r.e2e) rs)
      in
      if timed = [] || traced = [] then None
      else Some ((total traced /. total timed) -. 1.)
    else
      match
        List.filter_map
          (fun (r : One.result) -> Option.join (List.assoc_opt name r.layers))
          traced
      with
      | [] -> None
      | vs -> Some (Stats.median vs)
  in
  {
    name = w.name;
    correct = errors = [] && List.for_all (fun (r : One.result) -> r.correct) all;
    attempted = List.fold_left (fun a (r : One.result) -> a + r.attempted) 0 all;
    failed = List.fold_left (fun a (r : One.result) -> a + r.failed) 0 all;
    errors;
    metrics;
    layers =
      (if traced = [] then []
       else
         List.map
           (fun (l : Spec.layer_metric) -> (l.l_name, layer l.l_name))
           Spec.layer_metrics);
  }

(* ---------------- JSON ---------------- *)

let num f = Json.Num f
let opt_num = function Some f -> num f | None -> Json.Null

let summary_json s =
  Json.Obj
    [
      ("unit", Json.Str s.unit);
      ("median", num s.median);
      ("q1", num s.q1);
      ("q3", num s.q3);
      ("n", num (float_of_int (List.length s.values)));
      ("values", Json.Arr (List.map num s.values));
    ]

let workload_json w =
  Json.Obj
    [
      ("correct", Json.Bool w.correct);
      ("attempted", num (float_of_int w.attempted));
      ("failed", num (float_of_int w.failed));
      ("errors", Json.Arr (List.map (fun e -> Json.Str e) w.errors));
      ("metrics", Json.Obj (List.map (fun (k, s) -> (k, summary_json s)) w.metrics));
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, opt_num v)) w.layers));
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "s2e-e2e-report/1");
      ("seed", num (float_of_int t.seed));
      ("nproc", num (float_of_int t.nproc));
      ("ocaml", Json.Str t.ocaml);
      ("commit", Json.Str t.commit);
      ("workloads", Json.Obj (List.map (fun w -> (w.name, workload_json w)) t.workloads));
    ]

let field k j =
  match Json.member k j with Some v -> v | None -> failwith ("report: missing " ^ k)

let to_float j = match Json.to_num j with Some f -> f | None -> nan
let fnum k j = to_float (field k j)
let fstr k j = Option.value ~default:"" (Json.to_str (field k j))
let fobj k j = Option.value ~default:[] (Json.to_obj (field k j))
let farr k j = Option.value ~default:[] (Json.to_arr (field k j))

let of_json j =
  let summary s =
    {
      unit = fstr "unit" s;
      median = fnum "median" s;
      q1 = fnum "q1" s;
      q3 = fnum "q3" s;
      values = List.map to_float (farr "values" s);
    }
  in
  let workload (name, w) =
    {
      name;
      correct = (match field "correct" w with Json.Bool b -> b | _ -> false);
      attempted = int_of_float (fnum "attempted" w);
      failed = int_of_float (fnum "failed" w);
      errors = List.filter_map Json.to_str (farr "errors" w);
      metrics = List.map (fun (k, s) -> (k, summary s)) (fobj "metrics" w);
      layers = List.map (fun (k, v) -> (k, Json.to_num v)) (fobj "layers" w);
    }
  in
  {
    seed = int_of_float (fnum "seed" j);
    nproc = int_of_float (fnum "nproc" j);
    ocaml = fstr "ocaml" j;
    commit = fstr "commit" j;
    workloads = List.map workload (fobj "workloads" j);
  }

let load path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> of_json j
  | Error e -> failwith (path ^ ": " ^ e)

(* ---------------- tables ---------------- *)

let print_table t =
  Printf.printf "%-16s %-13s %-7s %12s %12s %12s %3s\n" "workload" "metric" "unit"
    "median" "q1" "q3" "n";
  List.iter
    (fun w ->
      List.iter
        (fun (k, s) ->
          Printf.printf "%-16s %-13s %-7s %12.6g %12.6g %12.6g %3d\n" w.name k
            s.unit s.median s.q1 s.q3 (List.length s.values))
        w.metrics;
      Printf.printf "%-16s %s: %d of %d attempted failed%s\n" w.name
        (if w.correct then "outputs correct" else "OUTPUTS WRONG")
        w.failed w.attempted
        (String.concat "" (List.map (fun e -> "\n  " ^ e) w.errors)))
    t.workloads;
  let traced = List.filter (fun w -> w.layers <> []) t.workloads in
  if traced <> [] then begin
    Printf.printf "\n%-24s %-6s" "layer metric (traced)" "unit";
    List.iter (fun w -> Printf.printf " %14s" w.name) traced;
    print_newline ();
    List.iter
      (fun (l : Spec.layer_metric) ->
        Printf.printf "%-24s %-6s" l.l_name l.l_unit;
        List.iter
          (fun w ->
            match List.assoc_opt l.l_name w.layers with
            | Some (Some v) -> Printf.printf " %14.6g" v
            | _ -> Printf.printf " %14s" "absent")
          traced;
        print_newline ())
      Spec.layer_metrics
  end
