(** Seeded, deterministic fault injection.

    The paper's flagship use case is making the {e environment}
    misbehave on purpose — symbolic device returns and injected
    kernel-API failures (sections 1 and 6.1).  This module generalizes
    that into a process-global chaos layer: a declarative {e fault plan}
    names injection sites across the platform's three trust boundaries
    (guest hardware, the solver, the dist transport) and attaches a
    firing probability to each.  Sites are probed with {!fire} on their
    hot paths; everything else in the platform stays oblivious.

    Determinism: each site draws from its own splitmix64 stream derived
    from [seed ^ site], so two runs with the same plan, seed and
    schedule inject identical fault sequences, and adding a rule for one
    site never perturbs another site's stream.  Draw indices are
    allocated with an atomic counter, so concurrent domains never tear
    the stream (the {e assignment} of draws to domains then follows the
    schedule, which is the best any injector can do under parallelism).

    With no plan installed, {!fire} is a single load-and-branch. *)

(** An injection site.  Naming is [boundary.effect]. *)
type site =
  | Dev_read  (** device read returns the error pattern (0xEE) *)
  | Dma_drop  (** a DMA completion is silently dropped *)
  | Irq_spurious  (** a spurious timer IRQ is raised *)
  | Solver_unknown  (** a SAT-core query is forced to [Unknown] *)
  | Solver_latency  (** artificial latency is requested for a query *)
  | Proto_corrupt
      (** a transport frame has one payload byte flipped; the receiver's
          checksum turns it into a disconnect, and the worker rejoins *)
  | Proto_delay  (** a worker heartbeat is suppressed for one period *)
  | Proto_disconnect
      (** the worker's coordinator connection is severed abruptly (no
          goodbye): the worker, owned or remote, reconnects and rejoins;
          its item is resumed or requeued, never charged an attempt *)
  | Proto_stall
      (** the worker freezes past its lease — a blocking sleep long
          enough that the coordinator presumes it dead and requeues its
          item; the stalled worker then discovers the loss on its next
          send and recovers like a disconnect *)

val all_sites : site list
val site_name : site -> string
(** ["dev.read"], ["dma.drop"], ["irq.spurious"], ["solver.unknown"],
    ["solver.latency"], ["proto.corrupt"], ["proto.delay"],
    ["proto.disconnect"], ["proto.stall"]. *)

type rule = {
  r_site : site;
  r_prob : float;  (** firing probability per probe, in [0, 1] *)
  r_cap : int option;  (** stop firing after this many injections *)
}

type plan = rule list

val parse_plan : string -> (plan, string) result
(** Parse the [--fault-plan] grammar: comma-separated
    [site=kind:prob[#cap]] rules, e.g.
    ["dev.read=err:0.05,dma=drop:0.01,solver=unknown:0.02,proto=corrupt:0.03"].
    Site/kind pairs: [dev.read=err], [dma=drop], [irq=spurious],
    [solver=unknown], [solver=latency], [proto=corrupt], [proto=delay],
    [proto=disconnect], [proto=stall].
    The empty string parses to the empty plan. *)

val plan_to_string : plan -> string
(** Canonical text form; [parse_plan] roundtrips it. *)

val install : ?seed:int -> plan -> unit
(** Arm the injector process-wide.  Re-installing replaces the previous
    plan and zeroes per-site fire counts (registry counters, being
    monotonic, are not reset).  [seed] defaults to 1. *)

val disarm : unit -> unit
(** Remove the plan; every subsequent {!fire} returns [false]. *)

val armed : unit -> bool

val fire : site -> bool
(** Probe the site: [true] means inject a fault now.  Always [false]
    when disarmed or the site has no rule; each [true] also increments
    the site's [fault.<site>] registry counter. *)

val count : site -> int
(** Faults injected at the site since the last {!install}. *)

val counts : unit -> (string * int) list
(** [(site_name, count)] for every site with a nonzero count. *)

val total : unit -> int
(** Sum of all per-site counts. *)
