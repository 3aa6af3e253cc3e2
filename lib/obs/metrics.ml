(** Domain-sharded metrics registry: the counting half of the telemetry
    subsystem (the timing half is {!Span}).

    Every metric owns one or more cells in per-domain {e shards}.  The hot
    path — incrementing a counter, setting a gauge, bumping a histogram
    bucket — is a plain array store into the calling domain's own shard:
    no atomics, no locks, no false sharing with other domains.  Shards are
    created lazily through [Domain.DLS] the first time a domain touches
    the registry.  When a domain other than the main one exits, its shard
    is folded into the registry's one {e retired} shard, so counts
    survive [Domain.join], a snapshot taken after joining workers is
    exact, and a process that spawns domains run after run keeps a
    bounded shard list.

    [snapshot] merges the shards lock-free: it reads the live arrays of
    every shard without synchronization.  Mid-run this may observe values
    a few increments stale (plain word-sized loads cannot tear in OCaml);
    after the writing domains have been joined it is exact.  The registry
    mutex guards only the cold paths: metric registration, shard
    registration and [reset]. *)

type gauge_merge = Sum | Max

(* A histogram with upper bounds [|b0; ...; bk|] owns k+2 int cells
   (bucket counts, cumulative-style "value <= bound" placement plus one
   overflow bucket) and one float cell (sum of observed values). *)
type kind =
  | K_counter
  | K_gauge of gauge_merge
  | K_fcounter
  | K_hist of float array

type entry = {
  e_name : string;
  e_kind : kind;
  e_ibase : int; (* first int cell, -1 when none *)
  e_ilen : int;
  e_fbase : int; (* first float cell, -1 when none *)
  e_flen : int;
}

type shard = {
  mutable shard_id : int;
  mutable ints : int array;
  mutable floats : float array;
}

type t = {
  mutex : Mutex.t;
  mutable entries : entry list; (* newest first *)
  mutable isize : int;
  mutable fsize : int;
  (* Live domains' shards, newest first, then the retired shard once a
     domain has exited.  Replaced whole under [mutex], so a lock-free
     snapshot reads either the list before a domain retired or the one
     after. *)
  mutable shards : shard list;
  mutable nshards : int;
  key : shard Domain.DLS.key;
}

let retired_id = -1

(* Fold an exiting domain's shard [s] into the retired shard: every cell
   adds, except a Max gauge's, which keeps the larger value.  The fold is
   built in a fresh shard and published with the list that drops [s], so
   no snapshot counts [s] twice or loses it. *)
let retire t s =
  Mutex.lock t.mutex;
  let old =
    List.find_opt (fun r -> r.shard_id = retired_id) t.shards
    |> Option.value ~default:{ shard_id = retired_id; ints = [||]; floats = [||] }
  in
  let len f = List.fold_left (fun n r -> max n (Array.length (f r))) in
  let ints = Array.make (len (fun r -> r.ints) t.isize [ old; s ]) 0 in
  let floats = Array.make (len (fun r -> r.floats) t.fsize [ old; s ]) 0. in
  List.iter
    (fun r ->
      Array.iteri (fun i v -> ints.(i) <- ints.(i) + v) r.ints;
      Array.iteri (fun i v -> floats.(i) <- floats.(i) +. v) r.floats)
    [ old; s ];
  let int_at r i = if i < Array.length r.ints then r.ints.(i) else 0 in
  List.iter
    (fun e ->
      if e.e_kind = K_gauge Max then
        ints.(e.e_ibase) <- max (int_at old e.e_ibase) (int_at s e.e_ibase))
    t.entries;
  let live = List.filter (fun r -> r != s && r != old) t.shards in
  t.shards <- live @ [ { shard_id = retired_id; ints; floats } ];
  Mutex.unlock t.mutex

let create () =
  let holder = ref None in
  let key =
    Domain.DLS.new_key (fun () ->
        match !holder with
        | None -> { shard_id = 0; ints = [||]; floats = [||] }
        | Some t ->
            Mutex.lock t.mutex;
            let s =
              {
                shard_id = t.nshards;
                ints = Array.make (max 8 t.isize) 0;
                floats = Array.make (max 8 t.fsize) 0.;
              }
            in
            t.nshards <- t.nshards + 1;
            t.shards <- s :: t.shards;
            Mutex.unlock t.mutex;
            if not (Domain.is_main_domain ()) then
              Domain.at_exit (fun () -> retire t s);
            s)
  in
  let t =
    { mutex = Mutex.create (); entries = []; isize = 0; fsize = 0;
      shards = []; nshards = 0; key }
  in
  holder := Some t;
  t

let default = create ()

(* ------------------------------------------------------------------ *)
(* Shard access (hot path)                                             *)
(* ------------------------------------------------------------------ *)

let shard t = Domain.DLS.get t.key

(* Growth happens only when a metric was registered after this domain's
   shard was created: the owning domain replaces its own array, and a
   concurrent snapshot simply sees the old (shorter) one. *)
let ensure_ints s n =
  if Array.length s.ints < n then begin
    let a = Array.make (max n ((2 * Array.length s.ints) + 8)) 0 in
    Array.blit s.ints 0 a 0 (Array.length s.ints);
    s.ints <- a
  end

let ensure_floats s n =
  if Array.length s.floats < n then begin
    let a = Array.make (max n ((2 * Array.length s.floats) + 8)) 0. in
    Array.blit s.floats 0 a 0 (Array.length s.floats);
    s.floats <- a
  end

(* ------------------------------------------------------------------ *)
(* Registration (cold path)                                            *)
(* ------------------------------------------------------------------ *)

type counter = { c_reg : t; c_slot : int }
type gauge = { g_reg : t; g_slot : int; g_merge : gauge_merge }
type fcounter = { f_reg : t; f_slot : int }
type histogram = { h_reg : t; h_base : int; h_sum : int; h_bounds : float array }

let same_kind a b =
  match a, b with
  | K_counter, K_counter | K_fcounter, K_fcounter -> true
  | K_gauge m, K_gauge m' -> m = m'
  | K_hist b1, K_hist b2 -> b1 = b2
  | _ -> false

(* Register [name] with [kind], or return the existing entry when the
   same metric was already registered (module-level handles in several
   libraries may race to define the same name). *)
let register t name kind ~ilen ~flen =
  Mutex.lock t.mutex;
  let e =
    match List.find_opt (fun e -> e.e_name = name) t.entries with
    | Some e ->
        if not (same_kind e.e_kind kind) then begin
          Mutex.unlock t.mutex;
          invalid_arg
            (Printf.sprintf "Metrics: %S re-registered with a different kind"
               name)
        end;
        e
    | None ->
        let e =
          {
            e_name = name;
            e_kind = kind;
            e_ibase = (if ilen > 0 then t.isize else -1);
            e_ilen = ilen;
            e_fbase = (if flen > 0 then t.fsize else -1);
            e_flen = flen;
          }
        in
        t.isize <- t.isize + ilen;
        t.fsize <- t.fsize + flen;
        t.entries <- e :: t.entries;
        e
  in
  Mutex.unlock t.mutex;
  e

let counter ?(reg = default) name =
  let e = register reg name K_counter ~ilen:1 ~flen:0 in
  { c_reg = reg; c_slot = e.e_ibase }

let gauge ?(reg = default) ?(merge = Max) name =
  let e = register reg name (K_gauge merge) ~ilen:1 ~flen:0 in
  { g_reg = reg; g_slot = e.e_ibase; g_merge = merge }

let fcounter ?(reg = default) name =
  let e = register reg name K_fcounter ~ilen:0 ~flen:1 in
  { f_reg = reg; f_slot = e.e_fbase }

let histogram ?(reg = default) ~bounds name =
  if Array.length bounds = 0 then
    invalid_arg "Metrics.histogram: empty bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    bounds;
  let e =
    register reg name (K_hist bounds) ~ilen:(Array.length bounds + 1) ~flen:1
  in
  { h_reg = reg; h_base = e.e_ibase; h_sum = e.e_fbase; h_bounds = bounds }

(* ------------------------------------------------------------------ *)
(* Updates (hot path)                                                  *)
(* ------------------------------------------------------------------ *)

let add c n =
  let s = shard c.c_reg in
  ensure_ints s (c.c_slot + 1);
  s.ints.(c.c_slot) <- s.ints.(c.c_slot) + n

let incr c = add c 1

let set g v =
  let s = shard g.g_reg in
  ensure_ints s (g.g_slot + 1);
  match g.g_merge with
  | Sum -> s.ints.(g.g_slot) <- v
  | Max -> if v > s.ints.(g.g_slot) then s.ints.(g.g_slot) <- v

let fadd f dt =
  let s = shard f.f_reg in
  ensure_floats s (f.f_slot + 1);
  s.floats.(f.f_slot) <- s.floats.(f.f_slot) +. dt

let observe h v =
  let s = shard h.h_reg in
  ensure_ints s (h.h_base + Array.length h.h_bounds + 1);
  ensure_floats s (h.h_sum + 1);
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n || v <= h.h_bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  s.ints.(h.h_base + i) <- s.ints.(h.h_base + i) + 1;
  s.floats.(h.h_sum) <- s.floats.(h.h_sum) +. v

(* ------------------------------------------------------------------ *)
(* Snapshots (lock-free merge)                                         *)
(* ------------------------------------------------------------------ *)

type value =
  | Int of int
  | Float of float
  | Hist of { bounds : float array; counts : int array; sum : float }

type snapshot = (string * value) list

let read_int (s : shard) slot =
  let a = s.ints in
  if slot >= 0 && slot < Array.length a then a.(slot) else 0

let read_float (s : shard) slot =
  let a = s.floats in
  if slot >= 0 && slot < Array.length a then a.(slot) else 0.

let read_entry shards e =
  match e.e_kind with
  | K_counter ->
      Int (List.fold_left (fun acc s -> acc + read_int s e.e_ibase) 0 shards)
  | K_gauge Sum ->
      Int (List.fold_left (fun acc s -> acc + read_int s e.e_ibase) 0 shards)
  | K_gauge Max ->
      Int (List.fold_left (fun acc s -> max acc (read_int s e.e_ibase)) 0 shards)
  | K_fcounter ->
      Float (List.fold_left (fun acc s -> acc +. read_float s e.e_fbase) 0. shards)
  | K_hist bounds ->
      let counts = Array.make (Array.length bounds + 1) 0 in
      List.iter
        (fun s ->
          Array.iteri
            (fun i _ -> counts.(i) <- counts.(i) + read_int s (e.e_ibase + i))
            counts)
        shards;
      let sum =
        List.fold_left (fun acc s -> acc +. read_float s e.e_fbase) 0. shards
      in
      Hist { bounds; counts; sum }

let snapshot_of t shards =
  List.rev_map (fun e -> (e.e_name, read_entry shards e)) t.entries

let snapshot ?(reg = default) () = snapshot_of reg reg.shards

let shard_snapshots ?(reg = default) () =
  reg.shards
  |> List.map (fun s -> (s.shard_id, snapshot_of reg [ s ]))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find snap name = List.assoc_opt name snap

let get_int snap name =
  match find snap name with Some (Int n) -> n | _ -> 0

let get_float snap name =
  match find snap name with
  | Some (Float f) -> f
  | Some (Int n) -> float_of_int n
  | Some (Hist { sum; _ }) -> sum
  | None -> 0.

(* Every registered metric's kind by name, read once per merge or delta
   so a snapshot of n names costs O(n), not a registry scan per name. *)
let kinds reg =
  Mutex.lock reg.mutex;
  let tbl = Hashtbl.create 128 in
  List.iter (fun e -> Hashtbl.replace tbl e.e_name e.e_kind) reg.entries;
  Mutex.unlock reg.mutex;
  Hashtbl.find_opt tbl

(* A window's share of every metric: everything that merges by sum
   subtracts (a Sum gauge too, so [merge_snapshots [before; delta]] gives
   [after] back); a Max gauge is a watermark and keeps the later
   reading. *)
let delta ?(reg = default) ~before after =
  let kind_of = kinds reg in
  (* A name's first entry in [before], as [find] would read it. *)
  let prior = Hashtbl.create 128 in
  List.iter
    (fun (name, v) -> if not (Hashtbl.mem prior name) then Hashtbl.add prior name v)
    before;
  List.map
    (fun (name, v) ->
      let v =
        match (kind_of name, v, Hashtbl.find_opt prior name) with
        | Some (K_gauge Max), _, _ | _, _, None -> v
        | _, Int a, Some (Int b) -> Int (a - b)
        | _, Float a, Some (Float b) -> Float (a -. b)
        | _, Hist h, Some (Hist h0) when h.bounds = h0.bounds ->
            Hist
              {
                h with
                counts = Array.mapi (fun i c -> c - h0.counts.(i)) h.counts;
                sum = h.sum -. h0.sum;
              }
        | _ -> v
      in
      (name, v))
    after

type merging = { mutable vs : value list; (* newest first *) mutable from : int }

(* Merge snapshots taken in different processes (distributed workers).
   The rule comes from the metric's kind in the local registry: counters,
   Sum gauges, fcounters and histograms add; Max gauges take the max.
   Names absent from the local registry fall back to summation. *)
let merge_snapshots ?(reg = default) snaps =
  let kind_of = kinds reg in
  (* Each name's values, one per snapshot that holds it (its first entry
     there), and the names in order of first appearance. *)
  let by_name = Hashtbl.create 128 and names = ref [] in
  List.iteri
    (fun i snap ->
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt by_name name with
          | None ->
              Hashtbl.add by_name name { vs = [ v ]; from = i };
              names := name :: !names
          | Some m ->
              if m.from <> i then begin
                m.vs <- v :: m.vs;
                m.from <- i
              end)
        snap)
    snaps;
  List.rev_map
    (fun name ->
      let vs = List.rev (Hashtbl.find by_name name).vs in
      let v =
        match kind_of name, vs with
        | Some (K_gauge Max), _ ->
            Int
              (List.fold_left
                 (fun acc v -> match v with Int n -> max acc n | _ -> acc)
                 0 vs)
        | _, Hist h0 :: _ ->
            (* Element-wise bucket sums; snapshots from the same binary
               always agree on bounds, others are skipped. *)
            let counts = Array.make (Array.length h0.counts) 0 in
            let sum = ref 0. in
            List.iter
              (function
                | Hist h when h.bounds = h0.bounds ->
                    Array.iteri
                      (fun i c ->
                        if i < Array.length counts then
                          counts.(i) <- counts.(i) + c)
                      h.counts;
                    sum := !sum +. h.sum
                | _ -> ())
              vs;
            Hist { bounds = h0.bounds; counts; sum = !sum }
        | _, _ ->
            if List.for_all (function Int _ -> true | _ -> false) vs then
              Int
                (List.fold_left
                   (fun acc v -> match v with Int n -> acc + n | _ -> acc)
                   0 vs)
            else
              Float
                (List.fold_left
                   (fun acc v ->
                     match v with
                     | Int n -> acc +. float_of_int n
                     | Float f -> acc +. f
                     | Hist _ -> acc)
                   0. vs)
      in
      (name, v))
    !names

let reset ?(reg = default) () =
  Mutex.lock reg.mutex;
  List.iter
    (fun s ->
      Array.fill s.ints 0 (Array.length s.ints) 0;
      Array.fill s.floats 0 (Array.length s.floats) 0.)
    reg.shards;
  Mutex.unlock reg.mutex
