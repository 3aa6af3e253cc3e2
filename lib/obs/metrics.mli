(** Domain-sharded metrics registry.

    Counters, gauges and fixed-bucket histograms whose cells live in
    per-domain shards: an update is a plain array store into the calling
    domain's shard (no locks, no atomics on the hot path), and
    {!snapshot} merges the shards lock-free.  An exiting domain's shard
    is folded into one retired shard (counters, float accumulators,
    histograms and [Sum] gauges add, [Max] gauges take the max), so a
    snapshot taken after [Domain.join] of all writers is exact and the
    shard list stays bounded however many domains come and go; a
    snapshot taken mid-run may be a few increments stale but never tears
    or crashes.  Registration and {!reset} are the only
    synchronized (cold) paths. *)

type t
(** A registry.  Most callers use the process-wide {!default}. *)

val default : t
val create : unit -> t

type gauge_merge =
  | Sum  (** per-domain last value, summed across shards (e.g. live paths) *)
  | Max  (** per-domain running max, maxed across shards (watermarks) *)

type counter
type gauge
type fcounter
type histogram

val counter : ?reg:t -> string -> counter
(** Monotonic int counter, summed across shards.  Registration is
    idempotent: the same name yields a handle to the same cells. *)

val gauge : ?reg:t -> ?merge:gauge_merge -> string -> gauge
(** Point-in-time int value; [merge] (default [Max]) picks the
    cross-shard combination. *)

val fcounter : ?reg:t -> string -> fcounter
(** Monotonic float accumulator (e.g. seconds), summed across shards.
    {!Span} phases are built on these. *)

val histogram : ?reg:t -> bounds:float array -> string -> histogram
(** Fixed-bucket histogram.  [bounds] are strictly increasing upper
    bounds; an observation [v] lands in the first bucket with
    [v <= bound], or the overflow bucket past the last bound.
    @raise Invalid_argument on empty or non-increasing bounds. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> int -> unit
val fadd : fcounter -> float -> unit
val observe : histogram -> float -> unit

type value =
  | Int of int
  | Float of float
  | Hist of { bounds : float array; counts : int array; sum : float }

type snapshot = (string * value) list
(** Metric name to merged value, in registration order. *)

val snapshot : ?reg:t -> unit -> snapshot
(** Lock-free merged view of every shard. *)

val shard_snapshots : ?reg:t -> unit -> (int * snapshot) list
(** Per-shard (unmerged) views keyed by shard id in creation order: the
    per-worker breakdown while each worker runs in its own domain.  The
    retired shard, holding every exited domain's counts, comes first
    with id [-1]. *)

val find : snapshot -> string -> value option

val get_int : snapshot -> string -> int
(** The metric's int value, or 0 when absent / not an int. *)

val get_float : snapshot -> string -> float
(** The metric's numeric value as a float (a histogram's sum of
    observations), or 0. when absent. *)

val delta : ?reg:t -> before:snapshot -> snapshot -> snapshot
(** [delta ~before after]: what one window of a run added, from two
    snapshots of the same registry.  Counters, float accumulators,
    histograms and [Sum] gauges subtract [before]; [Max] gauges keep
    [after]'s value.  So [merge_snapshots [before; delta ~before after]]
    reads as [after], and a process can ship its registry as a sequence
    of deltas that sum to its totals.  Kinds come from [reg] as in
    {!merge_snapshots}. *)

val merge_snapshots : ?reg:t -> snapshot list -> snapshot
(** Combine snapshots taken in {e different processes} (distributed
    workers) into one, consulting [reg] for each metric's kind: counters,
    [Sum] gauges, float accumulators and histograms add element-wise;
    [Max] gauges take the max.  Names not registered locally fall back to
    numeric summation.  Name order follows first appearance. *)

val reset : ?reg:t -> unit -> unit
(** Zero every cell of every shard.  Callers must ensure no writer domain
    is concurrently active (typically: between runs). *)
