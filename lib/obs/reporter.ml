(** Periodic run-stats reporter: serializes registry snapshots as JSONL.

    [start] spawns a dedicated domain that takes a lock-free
    {!Metrics.snapshot} every [interval] seconds and appends one JSON
    object per line to the output channel; [stop] joins the domain and
    emits a last line with ["kind":"final"], which — taken after the
    worker domains have been joined — is an exact merge of every shard.

    Line schema:
    {v
    {"ts": <unix time>, "elapsed_s": <since start>, "seq": N,
     "kind": "periodic" | "final",
     "metrics": {"<name>": <number>, ...},
     "hist": {"<name>": {"bounds": [...], "counts": [...], "sum": S}, ...},
     "shards": [{"shard": I, "metrics": {<nonzero cells only>}}, ...]}
    v} *)

type t = {
  reg : Metrics.t;
  out : out_channel;
  started : float;
  interval : float;
  stop_flag : bool Atomic.t;
  mutable seq : int; (* written by the reporter domain, then — after the
                        join in [stop] — by the stopping domain *)
  mutable dom : unit Domain.t option;
}

(* The "metrics" and "hist" members of a line. *)
let snapshot_fields snap =
  let metrics, hists =
    List.fold_left
      (fun (ms, hs) (name, v) ->
        match v with
        | Metrics.Int n -> ((name, Jsonl.Num (float_of_int n)) :: ms, hs)
        | Metrics.Float f -> ((name, Jsonl.Num f) :: ms, hs)
        | Metrics.Hist { bounds; counts; sum } ->
            let h =
              Jsonl.Obj
                [
                  ("bounds",
                   Jsonl.Arr (Array.to_list bounds |> List.map (fun b -> Jsonl.Num b)));
                  ("counts",
                   Jsonl.Arr
                     (Array.to_list counts
                     |> List.map (fun c -> Jsonl.Num (float_of_int c))));
                  ("sum", Jsonl.Num sum);
                ]
            in
            (ms, (name, h) :: hs))
      ([], []) snap
  in
  [ ("metrics", Jsonl.Obj (List.rev metrics)); ("hist", Jsonl.Obj (List.rev hists)) ]

(* The inverse of [snapshot_fields], on any object with a "metrics" and
   optionally a "hist" member (a line, or one of its shards).  JSON has
   one number type: an integral value reads back as [Int], any other as
   [Float], so [get_int] of a counter and [get_float] of an accumulator
   read what they read on the live snapshot. *)
let snapshot_of_fields j =
  let members key =
    Option.value ~default:[] (Option.bind (Jsonl.member key j) Jsonl.to_obj)
  in
  let nums key o =
    Option.value ~default:[] (Option.bind (Jsonl.member key o) Jsonl.to_arr)
    |> List.filter_map Jsonl.to_num
  in
  let metrics =
    List.filter_map
      (fun (name, v) ->
        Jsonl.to_num v
        |> Option.map (fun f ->
               ( name,
                 if Float.is_integer f then Metrics.Int (int_of_float f)
                 else Metrics.Float f )))
      (members "metrics")
  in
  let hists =
    List.map
      (fun (name, h) ->
        ( name,
          Metrics.Hist
            {
              bounds = Array.of_list (nums "bounds" h);
              counts = Array.of_list (List.map int_of_float (nums "counts" h));
              sum = Option.value ~default:0. (Jsonl.num_member "sum" h);
            } ))
      (members "hist")
  in
  metrics @ hists

(* The process's major-heap high-water mark in words: the heap signal
   `explore`, `serve` and `stats` print on their engine line. *)
let top_heap = Metrics.gauge ~merge:Metrics.Max "gc.top_heap_words"

let sample_heap () = Metrics.set top_heap (Gc.quick_stat ()).Gc.top_heap_words

let snapshot_line t ~kind =
  sample_heap ();
  let fields = snapshot_fields (Metrics.snapshot ~reg:t.reg ()) in
  let shards =
    Metrics.shard_snapshots ~reg:t.reg ()
    |> List.map (fun (id, snap) ->
           let cells =
             List.filter_map
               (fun (name, v) ->
                 match v with
                 | Metrics.Int 0 -> None
                 | Metrics.Int n -> Some (name, Jsonl.Num (float_of_int n))
                 | Metrics.Float f ->
                     if f = 0. then None else Some (name, Jsonl.Num f)
                 | Metrics.Hist _ -> None)
               snap
           in
           Jsonl.Obj
             [ ("shard", Jsonl.Num (float_of_int id)); ("metrics", Jsonl.Obj cells) ])
  in
  let now = Unix.gettimeofday () in
  Jsonl.Obj
    ([
       ("ts", Jsonl.Num now);
       ("elapsed_s", Jsonl.Num (now -. t.started));
       ("seq", Jsonl.Num (float_of_int t.seq));
       ("kind", Jsonl.Str kind);
     ]
    @ fields
    @ [ ("shards", Jsonl.Arr shards) ])

let emit t ~kind =
  output_string t.out (Jsonl.to_string (snapshot_line t ~kind));
  output_char t.out '\n';
  flush t.out;
  t.seq <- t.seq + 1

let loop t =
  let chunk = Float.min 0.02 (Float.max 0.001 (t.interval /. 4.)) in
  let rec sleep_until deadline =
    if not (Atomic.get t.stop_flag) then begin
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining > 0. then begin
        Unix.sleepf (Float.min chunk remaining);
        sleep_until deadline
      end
    end
  in
  let rec go deadline =
    sleep_until deadline;
    if not (Atomic.get t.stop_flag) then begin
      (* A transient write failure must not kill the domain: [stop] still
         has to join it and emit the final line. *)
      (try emit t ~kind:"periodic" with Sys_error _ | Unix.Unix_error _ -> ());
      go (deadline +. t.interval)
    end
  in
  go (t.started +. t.interval)

let start ?(reg = Metrics.default) ~interval out =
  if interval <= 0. then invalid_arg "Reporter.start: interval must be > 0";
  let t =
    {
      reg;
      out;
      started = Unix.gettimeofday ();
      interval;
      stop_flag = Atomic.make false;
      seq = 0;
      dom = None;
    }
  in
  t.dom <- Some (Domain.spawn (fun () -> loop t));
  t

let stop t =
  Atomic.set t.stop_flag true;
  (match t.dom with
  | Some d ->
      (* Even if the reporter domain died, the final snapshot must go out. *)
      (try Domain.join d with _ -> ());
      t.dom <- None
  | None -> ());
  emit t ~kind:"final"

let with_reporter ?reg ~interval out f =
  let t = start ?reg ~interval out in
  Fun.protect ~finally:(fun () -> try stop t with Sys_error _ -> ()) f
