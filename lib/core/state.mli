(** ExecState: the complete virtual machine state of one execution path
    (paper section 4.2).

    Forking copies the register file, clones device state, and shares
    memory structurally through {!Symmem}'s persistent overlay — the
    copy-on-write behaviour the paper relies on to keep thousands of live
    paths affordable.  Fields are exposed because plugins read and write
    the state directly (the paper's ExecState gives plugins read/write
    access to the whole VM state). *)

open S2e_expr

type status =
  | Active
  | Halted                  (** guest executed HALT *)
  | Killed of string        (** selector/analyzer terminated the path *)
  | Faulted of string       (** guest fault (bad memory, invalid opcode) *)
  | Aborted of string       (** consistency-model abort (e.g. LC violation) *)

(** A pending call into the environment, used to apply return policies. *)
type env_frame = {
  callee : int;
  return_addr : int;
  via_syscall : bool;
}

(** How a merged state's single path condition re-expands into the set of
    enumerated paths it stands for: each [Case_split] remembers the
    disjunction a join added plus the two constraint suffixes it replaced,
    so test-case extraction can reconstruct the exact enumerated paths. *)
type case_tree =
  | Case_leaf
  | Case_split of {
      disj : Expr.t;
      base_len : int;
      a_suffix : Expr.t list;
      b_suffix : Expr.t list;
      a_tree : case_tree;
      b_tree : case_tree;
    }

type t = {
  id : int;
  mutable parent : int;
  mutable pc : int;
  mutable regs : Expr.t array;
  mutable mem : Symmem.t;
  mutable constraints : Expr.t list;
  mutable soft_constraints : int;
  mutable devices : S2e_vm.Devices.t;
  mutable irq_enabled : bool;
  mutable in_irq : bool;
  mutable iepc : int;
  mutable sepc : int;
  mutable last_irq : int;
  mutable pending_irqs : int list;
  mutable irqs_suppressed : bool;
  mutable status : status;
  mutable multipath : bool;
  mutable incomplete : bool;
      (** a solver [Unknown] degraded a fork on this path: the path is
          valid, but sibling paths may have been dropped *)
  mutable instret : int;
  mutable sym_instret : int;
  mutable depth : int;
  mutable virtual_time : int64;
  mutable env_frames : env_frame list;
  mutable ret_stack : int list;
      (** shadow call stack of unit return addresses, maintained by the
          executor on JAL/JALR/JR; lets merge points that post-dominate a
          whole function rendezvous at the caller's return site *)
  mutable rendezvous : (int * int * int) list;
      (** pending merge rendezvous as [(merge_id, pc, ret-stack depth)],
          innermost first; empty unless a merge controller is installed *)
  mutable cases : case_tree;
  mutable measured : Expr.t list;
      (** the constraint list [measured_len]/[measured_size] were last
          computed on; maintained by {!constraint_count} and
          {!footprint}, never set elsewhere *)
  mutable measured_len : int;
  mutable measured_size : int;
}

val create : mem:Symmem.t -> devices:S2e_vm.Devices.t -> pc:int -> t

val bump_id_counter : int -> unit
(** Raise the state-id counter to at least the given value.  Used when
    adopting states serialized by another process so locally forked ids
    never collide with decoded ones. *)

val fork : t -> t
(** Copy for the other side of a branch: registers copied, devices cloned,
    memory and constraints shared structurally. *)

val get_reg : t -> int -> Expr.t
(** The zero register always reads 0. *)

val set_reg : t -> int -> Expr.t -> unit
(** Writes to the zero register are ignored. *)

val add_constraint : t -> Expr.t -> unit

val map_case_tree : (Expr.t -> Expr.t) -> case_tree -> case_tree

val reintern : t -> unit
(** Re-intern the state's registers, constraints and memory overlay into
    the current domain's hash-cons table (structure-preserving, sharing
    kept).  Call after adopting a state produced by another domain. *)

val constraint_count : t -> int
(** [List.length t.constraints], walking only the constraints added since
    the previous call (the whole list after a non-consing rewrite). *)

val footprint : t -> int
(** Estimated state size in words (registers + private memory overlay +
    constraints): the Fig. 8 memory metric.  O(1) per call plus the
    constraints added since the previous measurement. *)

val eval_regs : Expr.model -> t -> int array
(** The register file evaluated concretely under a solver model (the zero
    register reads 0; variables absent from the model read 0): the
    concrete machine the engine claims this path can reach.  Used by the
    differential oracle's symbolic-concretized driver. *)

val eval_window : Expr.model -> t -> addr:int -> len:int -> string option
(** A memory window evaluated concretely under a solver model, or [None]
    when the window leaves RAM. *)

val is_active : t -> bool
val status_string : status -> string

val report_string : t -> string
(** {!status_string} plus an [" [incomplete]"] suffix when a degraded
    fork may have dropped sibling paths. *)
