(* Checks that BENCHMARK.json (at the repo root) and the committed
   baseline agree with Spec and stay inside the harness limits.  Returns
   one message per problem; [] means valid. *)

module Json = Drive.Json

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let benchmark_json (j : Json.t) ~(baseline : Report.t) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let keys = List.map fst (Option.value ~default:[] (Json.to_obj j)) in
  let expected_keys =
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
  in
  if List.sort compare keys <> List.sort compare expected_keys then
    err "top-level keys are %s" (String.concat "," keys);
  let entries key =
    Option.value ~default:[] (Option.bind (Json.member key j) Json.to_arr)
  in
  let str k e = Option.value ~default:"" (Json.str_member k e) in
  let names key ~max =
    let es = entries key in
    let ns = List.map (str "name") es in
    if es = [] || List.length es > max then
      err "%s: %d entries, expected 1 to %d" key (List.length es) max;
    List.iter (fun n -> if not (valid_name n) then err "%s: bad name %S" key n) ns;
    if List.length (List.sort_uniq compare ns) <> List.length ns then
      err "%s: duplicate names" key;
    ns
  in
  let ws = names "workloads" ~max:8 in
  let e2e = names "end_to_end" ~max:16 in
  let layers = names "per_layer" ~max:128 in
  let spec_ws = List.map (fun (w : Spec.workload) -> w.name) Spec.benchmarked in
  if ws <> spec_ws then err "workloads differ from Spec: %s" (String.concat "," ws);
  (* The harness needs every end-to-end metric non-zero on every workload;
     the zero_ok ones stay in the report only. *)
  let spec_e2e = List.filter (fun (m : Spec.metric) -> not m.zero_ok) Spec.e2e_metrics in
  if e2e <> List.map (fun (m : Spec.metric) -> m.m_name) spec_e2e then
    err "end_to_end differs from Spec: %s" (String.concat "," e2e);
  List.iter
    (fun e ->
      let name = str "name" e in
      match (Spec.find_metric name, Json.num_member "bound" e) with
      | _, None -> err "%s has no bound" name
      | Some m, Some b ->
          if b <= 0. || b > 0.25 then err "%s: bound %g outside (0, 0.25]" name b;
          if b <> m.bound_rel then err "%s: bound %g, Spec says %g" name b m.bound_rel;
          if str "unit" e <> m.unit then err "%s: unit differs from Spec" name;
          if str "better" e <> Spec.better_string m.better then
            err "%s: direction differs from Spec" name
      | None, Some _ -> ())
    (entries "end_to_end");
  if not (List.mem "setup_s" e2e) then err "no setup_s metric";
  let spec_layers = List.map (fun (l : Spec.layer_metric) -> l.l_name) Spec.layer_metrics in
  if layers <> spec_layers then err "per_layer differs from Spec";
  List.iter
    (fun e ->
      match
        List.find_opt (fun (l : Spec.layer_metric) -> l.l_name = str "name" e) Spec.layer_metrics
      with
      | Some l ->
          if str "unit" e <> l.l_unit || str "better" e <> Spec.better_string l.l_better
          then err "%s: unit or direction differs from Spec" l.l_name
      | None -> ())
    (entries "per_layer");
  List.iter
    (fun w ->
      match List.find_opt (fun (b : Report.workload) -> b.name = w) baseline.workloads with
      | None -> err "baseline has no %s" w
      | Some b ->
          List.iter
            (fun (m : Spec.metric) ->
              match List.assoc_opt m.m_name b.metrics with
              | Some s when s.values <> [] -> ()
              | _ -> err "baseline %s has no %s" w m.m_name)
            Spec.e2e_metrics)
    ws;
  List.rev !errors
