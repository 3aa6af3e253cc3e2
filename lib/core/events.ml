(** The publish/subscribe event bus plugins attach to (paper section 4.2,
    Table 2).

    Core events correspond to the lowest level of abstraction of execution:
    instruction translation and execution, memory accesses, forks,
    interrupts — plus hardware-access and lifecycle events that the stock
    plugins need.  Handlers run in subscription order. *)

open S2e_expr

type mem_access = {
  ma_state : State.t;
  ma_addr : Expr.t;
  ma_concrete_addr : int; (* resolved address the access used *)
  ma_value : Expr.t;
  ma_is_write : bool;
  ma_size : int; (* bytes *)
  (* Path constraints before the engine pinned the (symbolic) address:
     bounds checkers must reason against these, not the post-resolution
     set. *)
  ma_pre_constraints : Expr.t list;
}

(* Port reads are a filter event: a handler may supply a replacement value
   (symbolic hardware). *)
type port_read = {
  pr_state : State.t;
  pr_port : int;
  mutable pr_value : Expr.t;
}

type bug = {
  bug_state : State.t;
  bug_kind : string;      (* "assertion", "memory", "bugcheck", ... *)
  bug_message : string;
  bug_pc : int;
}

(* Return from an environment call back into the unit: handlers implement
   LC annotations / RC-OC unconstrained returns by rewriting r0 or memory. *)
type env_return = {
  er_state : State.t;
  er_callee : int;
  er_via_syscall : bool;
}

type port_write = {
  pw_state : State.t;
  pw_port : int;
  pw_value : Expr.t; (* the value before concretization: taint analyzers
                        inspect its symbolic provenance *)
}

type t = {
  mutable on_instr_translate : (int -> S2e_isa.Insn.t -> unit) list;
  mutable on_instr_execute : (State.t -> int -> S2e_isa.Insn.t -> unit) list;
  mutable on_before_instr : (State.t -> int -> S2e_isa.Insn.t -> unit) list;
  mutable on_fork : (State.t -> State.t -> Expr.t -> unit) list;
  mutable on_memory_access : (mem_access -> unit) list;
  mutable on_port_read : (port_read -> unit) list;
  mutable on_port_write : (port_write -> unit) list;
  mutable on_interrupt : (State.t -> int -> unit) list;
  mutable on_syscall : (State.t -> unit) list;
  mutable on_env_return : (env_return -> unit) list;
  mutable on_state_end : (State.t -> unit) list;
  mutable on_bug : (bug -> unit) list;
  mutable on_print : (State.t -> Expr.t -> unit) list;
}

let create () =
  {
    on_instr_translate = [];
    on_instr_execute = [];
    on_before_instr = [];
    on_fork = [];
    on_memory_access = [];
    on_port_read = [];
    on_port_write = [];
    on_interrupt = [];
    on_syscall = [];
    on_env_return = [];
    on_state_end = [];
    on_bug = [];
    on_print = [];
  }

(* Subscription (append so handlers run in registration order). *)
let reg_instr_translate t f = t.on_instr_translate <- t.on_instr_translate @ [ f ]
let reg_instr_execute t f = t.on_instr_execute <- t.on_instr_execute @ [ f ]
let reg_before_instr t f = t.on_before_instr <- t.on_before_instr @ [ f ]
let reg_fork t f = t.on_fork <- t.on_fork @ [ f ]
let reg_memory_access t f = t.on_memory_access <- t.on_memory_access @ [ f ]
let reg_port_read t f = t.on_port_read <- t.on_port_read @ [ f ]
let reg_port_write t f = t.on_port_write <- t.on_port_write @ [ f ]
let reg_interrupt t f = t.on_interrupt <- t.on_interrupt @ [ f ]
let reg_syscall t f = t.on_syscall <- t.on_syscall @ [ f ]
let reg_env_return t f = t.on_env_return <- t.on_env_return @ [ f ]
let reg_state_end t f = t.on_state_end <- t.on_state_end @ [ f ]
let reg_bug t f = t.on_bug <- t.on_bug @ [ f ]
let reg_print t f = t.on_print <- t.on_print @ [ f ]

(* Whether a hot-path event has a subscriber: the executor builds an
   event's payload, or looks up per-instruction marks, only when one
   does. *)
let has_before_instr t = match t.on_before_instr with [] -> false | _ -> true
let has_instr_execute t = match t.on_instr_execute with [] -> false | _ -> true
let has_memory_access t = match t.on_memory_access with [] -> false | _ -> true

(* Emission. *)
let instr_translate t addr insn = List.iter (fun f -> f addr insn) t.on_instr_translate
let instr_execute t s addr insn = List.iter (fun f -> f s addr insn) t.on_instr_execute
let before_instr t s addr insn = List.iter (fun f -> f s addr insn) t.on_before_instr
let fork t parent child cond = List.iter (fun f -> f parent child cond) t.on_fork
let memory_access t ma = List.iter (fun f -> f ma) t.on_memory_access
let port_read t pr = List.iter (fun f -> f pr) t.on_port_read
let port_write t pw = List.iter (fun f -> f pw) t.on_port_write
let interrupt t s irq = List.iter (fun f -> f s irq) t.on_interrupt
let syscall t s = List.iter (fun f -> f s) t.on_syscall
let env_return t er = List.iter (fun f -> f er) t.on_env_return
let state_end t s = List.iter (fun f -> f s) t.on_state_end
let bug t b = List.iter (fun f -> f b) t.on_bug
let print t s v = List.iter (fun f -> f s v) t.on_print
