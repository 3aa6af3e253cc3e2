(** Periodic run-stats reporter: a dedicated domain appends one JSON
    snapshot line ({!Metrics.snapshot} plus per-shard views) to a channel
    every interval; {!stop} joins it and writes an exact final line. *)

type t

val start : ?reg:Metrics.t -> interval:float -> out_channel -> t
(** Spawn the reporter domain.  Lines carry ["kind":"periodic"].  The
    channel is flushed after every line and is {e not} closed by this
    module.  @raise Invalid_argument when [interval <= 0]. *)

val stop : t -> unit
(** Stop and join the reporter domain, then emit a ["kind":"final"] line.
    Call after joining any worker domains so the final merge is exact. *)

val snapshot_fields : Metrics.snapshot -> (string * Jsonl.t) list
(** The ["metrics"] and ["hist"] members of a snapshot line, for writing
    a line from a snapshot this process did not take itself (the merged
    registries of a distributed run). *)

val snapshot_of_fields : Jsonl.t -> Metrics.snapshot
(** The inverse of {!snapshot_fields}: the snapshot a line's (or one of
    its shards') ["metrics"] and ["hist"] members encode.  An integral
    number decodes as [Int] and any other as [Float], so
    {!Metrics.get_int} and {!Metrics.get_float} read the decoded snapshot
    as they read the one that was written. *)

val sample_heap : unit -> unit
(** Raise the [Max] gauge ["gc.top_heap_words"] (in the default registry)
    to this process's major-heap high-water mark, from [Gc.quick_stat].
    Every line {!emit} writes samples it first; [Parallel.run] samples it
    when a run returns. *)

val emit : t -> kind:string -> unit
(** Write one snapshot line immediately (used for the final line; exposed
    for tests). *)

val with_reporter :
  ?reg:Metrics.t -> interval:float -> out_channel -> (unit -> 'a) -> 'a
(** [with_reporter ~interval out f] runs [f] with a reporter attached and
    guarantees the final ["kind":"final"] line is flushed whether [f]
    returns or raises. *)
