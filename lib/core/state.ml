(** ExecState: the complete virtual machine state of one execution path
    (paper section 4.2).

    Forking copies registers (a small array), clones device state, and
    shares memory structurally through {!Symmem}'s persistent overlay —
    the copy-on-write behaviour the paper relies on to keep thousands of
    live paths affordable. *)

open S2e_expr

type status =
  | Active
  | Halted                  (* guest executed HALT *)
  | Killed of string        (* selector/analyzer terminated the path *)
  | Faulted of string       (* guest fault (bad memory, invalid opcode) *)
  | Aborted of string       (* consistency-model abort (e.g. LC violation) *)

(* A pending call into the environment, used to apply return policies. *)
type env_frame = {
  callee : int;           (* environment function entry address *)
  return_addr : int;      (* unit address execution will come back to *)
  via_syscall : bool;
}

(* How a merged state's single path condition re-expands into the set of
   enumerated paths it stands for.  A [Case_split] remembers the disjunction
   a join added to the constraint list plus the two original constraint
   suffixes it replaced; substituting a suffix back for the disjunction
   reconstructs the exact constraint list the corresponding enumerated path
   would have carried, so test-case extraction is byte-identical. *)
type case_tree =
  | Case_leaf
  | Case_split of {
      disj : Expr.t;            (* or-of-guards constraint the join added *)
      base_len : int;           (* constraints below the disjunction, i.e.
                                   the disjunction's position from the
                                   bottom of the (oldest-last) list *)
      a_suffix : Expr.t list;   (* newest-first constraints of side A *)
      b_suffix : Expr.t list;   (* newest-first constraints of side B *)
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
  mutable soft_constraints : int; (* count of concretization-induced constraints *)
  mutable devices : S2e_vm.Devices.t;
  (* interrupt/syscall plumbing, mirroring the concrete Machine *)
  mutable irq_enabled : bool;
  mutable in_irq : bool;
  mutable iepc : int;
  mutable sepc : int;
  mutable last_irq : int;
  mutable pending_irqs : int list;
  mutable irqs_suppressed : bool; (* s2e opcode: disable interrupts for path *)
  mutable status : status;
  mutable multipath : bool; (* toggled by S2ENA / S2DIS opcodes *)
  mutable incomplete : bool;
      (* a solver Unknown degraded a fork on this path: the path itself is
         valid, but sibling paths may have been silently dropped *)
  mutable instret : int;
  mutable sym_instret : int;   (* instructions that touched symbolic data *)
  mutable depth : int;         (* fork depth *)
  mutable virtual_time : int64;
  mutable env_frames : env_frame list;
  (* Symbolic data the unit wrote into environment-visible places (LC
     propagation tracking) is approximated by noting that any symbolic
     branch in the environment aborts; no extra state needed. *)
  mutable ret_stack : int list;
      (* shadow call stack of unit return addresses (pushed on JAL/JALR,
         popped when JR lr targets the top); merge points that post-dominate
         a whole function rendezvous at the caller's return site, and the
         stack depth disambiguates recursive invocations *)
  mutable rendezvous : (int * int * int) list;
      (* pending merge rendezvous as (merge_id, pc, ret-stack depth),
         innermost first; empty unless a merge controller is installed *)
  mutable cases : case_tree;
  mutable measured : Expr.t list;
      (* the constraint list [measured_len] and [measured_size] describe:
         a suffix of [constraints] in the common case, so bringing them
         up to date walks only the newer constraints *)
  mutable measured_len : int;
  mutable measured_size : int; (* summed [Expr.size] *)
}

(* Atomic so states can be forked concurrently by parallel exploration
   workers without id collisions. *)
let counter = Atomic.make 0

(* State ids and variable ids share one space number per process. *)
let enter_id_space k =
  Atomic.set counter (k lsl Expr.id_space_bits);
  Expr.enter_id_space k

let create ~mem ~devices ~pc =
  {
    id = Atomic.fetch_and_add counter 1 + 1;
    parent = 0;
    pc;
    regs = Array.make S2e_isa.Insn.num_regs (Expr.const 0L);
    mem;
    constraints = [];
    soft_constraints = 0;
    devices;
    irq_enabled = false;
    in_irq = false;
    iepc = 0;
    sepc = 0;
    last_irq = 0;
    pending_irqs = [];
    irqs_suppressed = false;
    status = Active;
    multipath = true;
    incomplete = false;
    instret = 0;
    sym_instret = 0;
    depth = 0;
    virtual_time = 0L;
    env_frames = [];
    ret_stack = [];
    rendezvous = [];
    cases = Case_leaf;
    measured = [];
    measured_len = 0;
    measured_size = 0;
  }

(** Fork a copy for the other side of a branch. *)
let fork t =
  {
    t with
    id = Atomic.fetch_and_add counter 1 + 1;
    parent = t.id;
    regs = Array.copy t.regs;
    devices = S2e_vm.Devices.clone t.devices;
    depth = t.depth + 1;
    (* mem and constraints are persistent; shared structurally *)
  }

let get_reg t r =
  if r = S2e_isa.Insn.reg_zero then Expr.const 0L else t.regs.(r)

let set_reg t r v = if r <> S2e_isa.Insn.reg_zero then t.regs.(r) <- v

let add_constraint t c =
  if not (Expr.equal c Expr.bool_t) then t.constraints <- c :: t.constraints

(** Re-intern every expression the state holds (registers, constraints,
    memory overlay) into the current domain's hash-cons table.  Called
    when a worker adopts a state built by another domain: afterwards the
    state's expressions are physically canonical locally, so equality
    checks, cache keys and memo hits are O(1) again.  One shared interner
    preserves sharing across the three stores; all rewrites are
    structure-preserving, so solver-visible behaviour is unchanged. *)
let rec map_case_tree f = function
  | Case_leaf -> Case_leaf
  | Case_split { disj; base_len; a_suffix; b_suffix; a_tree; b_tree } ->
      Case_split
        {
          disj = f disj;
          base_len;
          a_suffix = List.map f a_suffix;
          b_suffix = List.map f b_suffix;
          a_tree = map_case_tree f a_tree;
          b_tree = map_case_tree f b_tree;
        }

let reintern t =
  let intern = Expr.interner () in
  t.regs <- Array.map intern t.regs;
  t.constraints <- List.map intern t.constraints;
  t.mem <- Symmem.map_overlay intern t.mem;
  t.cases <- map_case_tree intern t.cases

(* Bring [measured_len]/[measured_size] up to date with [constraints].
   Constraint lists are persistent and grow by consing, so the walk stops
   at the previously measured list and adds; a list that does not end in
   it (a merge join rewrote the constraints) is measured whole. *)
let rec measure_from t l len size =
  if l == t.measured then begin
    t.measured_len <- t.measured_len + len;
    t.measured_size <- t.measured_size + size
  end
  else
    match l with
    | [] ->
        t.measured_len <- len;
        t.measured_size <- size
    | c :: tl -> measure_from t tl (len + 1) (size + Expr.size c)

let measure t =
  let l = t.constraints in
  if l != t.measured then begin
    measure_from t l 0 0;
    t.measured <- l
  end

(** [List.length t.constraints], in time proportional to the constraints
    added since the last call. *)
let constraint_count t =
  measure t;
  t.measured_len

(** Estimated state footprint in "words" (registers + private memory
    overlay + constraints): the quantity the Fig. 8 memory benchmark
    reports a high-watermark of.  O(1) unless constraints were added
    since the last call. *)
let footprint t =
  measure t;
  Array.length t.regs + Symmem.overlay_size t.mem + t.measured_size

(* Concrete snapshot helpers for the differential oracle: evaluate the
   state's registers / a memory window under a solver model, yielding the
   concrete machine the symbolic engine claims this path can reach.
   Variables absent from the model read as 0, matching [Expr.eval]. *)

let eval_regs model t =
  Array.init (Array.length t.regs) (fun r ->
      if r = S2e_isa.Insn.reg_zero then 0
      else Int64.to_int (Expr.eval model t.regs.(r)) land 0xFFFFFFFF)

let eval_window model t ~addr ~len =
  let size = Bytes.length (Symmem.base t.mem) in
  if addr < 0 || len <= 0 || addr + len > size then None
  else
    Some
      (String.init len (fun i ->
           Char.chr
             (Int64.to_int (Expr.eval model (Symmem.read_byte t.mem (addr + i)))
             land 0xff)))

let is_active t = t.status = Active

let status_string = function
  | Active -> "active"
  | Halted -> "halted"
  | Killed r -> "killed: " ^ r
  | Faulted r -> "faulted: " ^ r
  | Aborted r -> "aborted: " ^ r

(** Reporting form of a path's outcome: the status, plus an
    [incomplete] marker when a degraded fork may have dropped siblings. *)
let report_string t =
  status_string t.status ^ if t.incomplete then " [incomplete]" else ""
