(** Versioned binary snapshot codec for fork-point execution states.

    Distribution ships {!S2e_core.State.t} values between processes, so a
    snapshot must capture everything a path owns privately: the register
    file, the copy-on-write symbolic-memory overlay (the base image is
    NOT shipped — both sides load the same guest, and the snapshot pins
    its length and checksum so a mismatch is a hard error), the path
    constraint set, cloned device state, and the interrupt/metadata
    fields plugins read.

    Expressions are serialized structurally and rebuilt with the {e raw}
    constructors, never the smart constructors: re-simplifying on decode
    could change expression identity, and the determinism argument for
    distributed = serial path sets requires every per-path solver
    decision to see exactly the constraint set the fork point had.
    Variable and state ids are preserved verbatim; the decoder bumps the
    local fresh-id counters past every id it saw, so ids minted later in
    the worker can never collide with shipped ones.

    The format is dependency-free and strict: a 4-byte magic, a version
    byte, the payload, and a trailing FNV-1a checksum of the payload.
    Any truncation, corruption, unknown tag, malformed width or trailing
    garbage raises {!Error} — a torn snapshot must never become a
    subtly-wrong execution state. *)

open S2e_expr
module Vm = S2e_vm
open S2e_core

exception Error of string

let error fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

let version = 5
let magic = "S2EC"

(* ------------------------------------------------------------------ *)
(* Checksum                                                            *)
(* ------------------------------------------------------------------ *)

(* 32-bit FNV-1a. *)
let fnv32_gen get len =
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h := (!h lxor get i) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let fnv32 s ~pos ~len = fnv32_gen (fun i -> Char.code s.[pos + i]) len
let fnv32_bytes b = fnv32_gen (fun i -> Char.code (Bytes.get b i)) (Bytes.length b)

(* The 1 MiB base image checksum is memoized per physical image: every
   state of a run shares one base, so it is computed once per process. *)
let base_sum_cache = ref (Bytes.create 0, 0)

let base_checksum b =
  let cached_b, cached = !base_sum_cache in
  if cached_b == b then cached
  else begin
    let c = fnv32_bytes b in
    base_sum_cache := (b, c);
    c
  end

(* ------------------------------------------------------------------ *)
(* Wire primitives                                                     *)
(* ------------------------------------------------------------------ *)

module Wire = struct
  type w = Buffer.t

  let create () = Buffer.create 256
  let contents = Buffer.contents
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u32 b v =
    if v < 0 || v > 0xFFFFFFFF then error "Wire.u32: value out of range";
    u8 b v;
    u8 b (v lsr 8);
    u8 b (v lsr 16);
    u8 b (v lsr 24)

  let i64 b v =
    for i = 0 to 7 do
      u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

  let f64 b v = i64 b (Int64.bits_of_float v)
  let bool b v = u8 b (if v then 1 else 0)

  let raw b s = Buffer.add_string b s

  let str b s =
    u32 b (String.length s);
    raw b s

  let list b f xs =
    u32 b (List.length xs);
    List.iter f xs

  type r = { buf : string; mutable pos : int }

  let reader ?(pos = 0) buf = { buf; pos }
  let pos r = r.pos

  let need r n =
    if r.pos + n > String.length r.buf then error "truncated buffer"

  let ru8 r =
    need r 1;
    let v = Char.code r.buf.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let ru32 r =
    need r 4;
    let v =
      Char.code r.buf.[r.pos]
      lor (Char.code r.buf.[r.pos + 1] lsl 8)
      lor (Char.code r.buf.[r.pos + 2] lsl 16)
      lor (Char.code r.buf.[r.pos + 3] lsl 24)
    in
    r.pos <- r.pos + 4;
    v

  let ri64 r =
    need r 8;
    let v = ref 0L in
    for i = 7 downto 0 do
      v :=
        Int64.logor
          (Int64.shift_left !v 8)
          (Int64.of_int (Char.code r.buf.[r.pos + i]))
    done;
    r.pos <- r.pos + 8;
    !v

  let rf64 r = Int64.float_of_bits (ri64 r)
  let rbool r = ru8 r <> 0

  let rstr r =
    let n = ru32 r in
    need r n;
    let s = String.sub r.buf r.pos n in
    r.pos <- r.pos + n;
    s

  (* Explicitly left-to-right: the reader is stateful, so element order
     must not depend on [List.init]'s evaluation order. *)
  let read_n r n f =
    let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f r :: acc) in
    go n []

  let rlist r f =
    let n = ru32 r in
    (* every element occupies at least one byte *)
    if n > String.length r.buf - r.pos then error "list length out of range";
    read_n r n f
end

open Wire

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let unop_tag = function Expr.Neg -> 0 | Expr.Bnot -> 1

let unop_of = function
  | 0 -> Expr.Neg
  | 1 -> Expr.Bnot
  | t -> error "unknown unop tag %d" t

let binop_tag : Expr.binop -> int = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Udiv -> 3 | Urem -> 4 | And -> 5
  | Or -> 6 | Xor -> 7 | Shl -> 8 | Lshr -> 9 | Ashr -> 10

let binop_of : int -> Expr.binop = function
  | 0 -> Add | 1 -> Sub | 2 -> Mul | 3 -> Udiv | 4 -> Urem | 5 -> And
  | 6 -> Or | 7 -> Xor | 8 -> Shl | 9 -> Lshr | 10 -> Ashr
  | t -> error "unknown binop tag %d" t

let cmp_tag : Expr.cmpop -> int = function
  | Eq -> 0 | Ult -> 1 | Ule -> 2 | Slt -> 3 | Sle -> 4

let cmp_of : int -> Expr.cmpop = function
  | 0 -> Eq | 1 -> Ult | 2 -> Ule | 3 -> Slt | 4 -> Sle
  | t -> error "unknown cmpop tag %d" t

let rec encode_expr_into b (e : Expr.t) =
  match e with
  | Const { value; width; _ } ->
      u8 b 0;
      u8 b width;
      i64 b value
  | Var { id; name; width; _ } ->
      u8 b 1;
      u32 b id;
      u8 b width;
      str b name
  | Unop { op; arg; _ } ->
      u8 b 2;
      u8 b (unop_tag op);
      encode_expr_into b arg
  | Binop { op; lhs; rhs; _ } ->
      u8 b 3;
      u8 b (binop_tag op);
      encode_expr_into b lhs;
      encode_expr_into b rhs
  | Cmp { op; lhs; rhs; _ } ->
      u8 b 4;
      u8 b (cmp_tag op);
      encode_expr_into b lhs;
      encode_expr_into b rhs
  | Ite { cond; then_; else_; _ } ->
      u8 b 5;
      encode_expr_into b cond;
      encode_expr_into b then_;
      encode_expr_into b else_
  | Extract { hi; lo; arg; _ } ->
      u8 b 6;
      u8 b hi;
      u8 b lo;
      encode_expr_into b arg
  | Concat { high; low; _ } ->
      u8 b 7;
      encode_expr_into b high;
      encode_expr_into b low
  | Zext { arg; width; _ } ->
      u8 b 8;
      u8 b width;
      encode_expr_into b arg
  | Sext { arg; width; _ } ->
      u8 b 9;
      u8 b width;
      encode_expr_into b arg

(* Rebuilds via [Expr.Raw] — structure-preserving (no re-simplification,
   so a decoded state carries exactly the constraint structure the fork
   point had) but interning, so decoded expressions join the receiving
   domain's hash-cons table and get the physical-equality fast path.
   Widths not stored on the wire are derived from subexpressions, and
   structural invariants (operand width agreement, extract ranges,
   extension monotonicity) are checked strictly before the constructors'
   own assertions can trip.  [max_var] accumulates the largest variable
   id. *)
let rec decode_expr_from r max_var : Expr.t =
  let rwidth () =
    let w = ru8 r in
    if w < 1 || w > 64 then error "bad expression width %d" w;
    w
  in
  match ru8 r with
  | 0 ->
      let width = rwidth () in
      let value = ri64 r in
      Expr.Raw.const ~width value
  | 1 ->
      let id = ru32 r in
      let width = rwidth () in
      let name = rstr r in
      if id > !max_var then max_var := id;
      Expr.Raw.var ~id ~name ~width
  | 2 ->
      let op = unop_of (ru8 r) in
      let arg = decode_expr_from r max_var in
      Expr.Raw.unop op arg
  | 3 ->
      let op = binop_of (ru8 r) in
      let lhs = decode_expr_from r max_var in
      let rhs = decode_expr_from r max_var in
      if Expr.width lhs <> Expr.width rhs then error "binop width mismatch";
      Expr.Raw.binop op lhs rhs
  | 4 ->
      let op = cmp_of (ru8 r) in
      let lhs = decode_expr_from r max_var in
      let rhs = decode_expr_from r max_var in
      if Expr.width lhs <> Expr.width rhs then error "cmp width mismatch";
      Expr.Raw.cmp op lhs rhs
  | 5 ->
      let cond = decode_expr_from r max_var in
      let then_ = decode_expr_from r max_var in
      let else_ = decode_expr_from r max_var in
      if Expr.width cond <> 1 then error "ite condition width %d" (Expr.width cond);
      if Expr.width then_ <> Expr.width else_ then error "ite arm width mismatch";
      Expr.Raw.ite cond then_ else_
  | 6 ->
      let hi = ru8 r in
      let lo = ru8 r in
      let arg = decode_expr_from r max_var in
      if hi < lo || hi >= Expr.width arg then
        error "bad extract [%d:%d] of width %d" hi lo (Expr.width arg);
      Expr.Raw.extract ~hi ~lo arg
  | 7 ->
      let high = decode_expr_from r max_var in
      let low = decode_expr_from r max_var in
      if Expr.width high + Expr.width low > 64 then error "concat too wide";
      Expr.Raw.concat ~high ~low
  | 8 ->
      let width = rwidth () in
      let arg = decode_expr_from r max_var in
      if width < Expr.width arg then error "zext narrows";
      Expr.Raw.zext ~width arg
  | 9 ->
      let width = rwidth () in
      let arg = decode_expr_from r max_var in
      if width < Expr.width arg then error "sext narrows";
      Expr.Raw.sext ~width arg
  | t -> error "unknown expression tag %d" t

let encode_expr e =
  let b = create () in
  encode_expr_into b e;
  contents b

let decode_expr s =
  let r = reader s in
  let max_var = ref 0 in
  let e = decode_expr_from r max_var in
  if pos r <> String.length s then error "trailing bytes after expression";
  Expr.bump_var_counter !max_var;
  e

(* ------------------------------------------------------------------ *)
(* Devices                                                             *)
(* ------------------------------------------------------------------ *)

let encode_frame b f =
  u32 b (Array.length f);
  Array.iter (fun x -> i64 b (Int64.of_int x)) f

let decode_frame r =
  let n = ru32 r in
  if n > (String.length r.buf - r.pos) / 8 then error "frame length out of range";
  Array.of_list (read_n r n (fun r -> Int64.to_int (ri64 r)))

let encode_devices b (d : Vm.Devices.t) =
  str b d.console.out;
  bool b d.timer.enabled;
  u32 b d.timer.interval;
  i64 b (Int64.of_int d.timer.countdown);
  u32 b d.timer.fired;
  let nd = d.netdev in
  u32 b nd.card_id;
  bool b nd.link_up;
  bool b nd.rx_enabled;
  u32 b nd.irq_mask;
  list b (encode_frame b) nd.rx_queue;
  u32 b nd.rx_pos;
  list b (fun x -> i64 b (Int64.of_int x)) nd.tx_buf;
  list b (encode_frame b) nd.tx_frames;
  i64 b (Int64.of_int nd.dma_addr);
  i64 b (Int64.of_int nd.dma_len);
  u32 b nd.mac_pos;
  bool b nd.irq_pending

let decode_devices r : Vm.Devices.t =
  let console = { Vm.Console.out = rstr r } in
  let enabled = rbool r in
  let interval = ru32 r in
  let countdown = Int64.to_int (ri64 r) in
  let fired = ru32 r in
  let timer = { Vm.Timer.enabled; interval; countdown; fired } in
  let card_id = ru32 r in
  let netdev = Vm.Netdev.create ~card_id () in
  netdev.link_up <- rbool r;
  netdev.rx_enabled <- rbool r;
  netdev.irq_mask <- ru32 r;
  netdev.rx_queue <- rlist r decode_frame;
  netdev.rx_pos <- ru32 r;
  netdev.tx_buf <- rlist r (fun r -> Int64.to_int (ri64 r));
  netdev.tx_frames <- rlist r decode_frame;
  netdev.dma_addr <- Int64.to_int (ri64 r);
  netdev.dma_len <- Int64.to_int (ri64 r);
  netdev.mac_pos <- ru32 r;
  netdev.irq_pending <- rbool r;
  { Vm.Devices.console; timer; netdev }

(* ------------------------------------------------------------------ *)
(* States                                                              *)
(* ------------------------------------------------------------------ *)

let status_tag : State.status -> int = function
  | Active -> 0
  | Halted -> 1
  | Killed _ -> 2
  | Faulted _ -> 3
  | Aborted _ -> 4

let encode_status b (st : State.status) =
  u8 b (status_tag st);
  match st with
  | Active | Halted -> ()
  | Killed m | Faulted m | Aborted m -> str b m

let decode_status r : State.status =
  match ru8 r with
  | 0 -> Active
  | 1 -> Halted
  | 2 -> Killed (rstr r)
  | 3 -> Faulted (rstr r)
  | 4 -> Aborted (rstr r)
  | t -> error "unknown status tag %d" t

(* Case trees travel with a state so a remote worker can still expand a
   merged state's test cases into the exact enumerated set.  Rendezvous
   records do NOT travel: their ids are engine-local (the sending engine
   quiesces before snapshotting). *)
let rec encode_cases b (c : State.case_tree) =
  match c with
  | State.Case_leaf -> u8 b 0
  | State.Case_split { disj; base_len; a_suffix; b_suffix; a_tree; b_tree } ->
      u8 b 1;
      encode_expr_into b disj;
      u32 b base_len;
      list b (encode_expr_into b) a_suffix;
      list b (encode_expr_into b) b_suffix;
      encode_cases b a_tree;
      encode_cases b b_tree

let rec decode_cases r max_var : State.case_tree =
  match ru8 r with
  | 0 -> State.Case_leaf
  | 1 ->
      let disj = decode_expr_from r max_var in
      let base_len = ru32 r in
      let a_suffix = rlist r (fun r -> decode_expr_from r max_var) in
      let b_suffix = rlist r (fun r -> decode_expr_from r max_var) in
      let a_tree = decode_cases r max_var in
      let b_tree = decode_cases r max_var in
      State.Case_split { disj; base_len; a_suffix; b_suffix; a_tree; b_tree }
  | t -> error "unknown case-tree tag %d" t

(* ------------------------------------------------------------------ *)
(* Snapshot container                                                  *)
(* ------------------------------------------------------------------ *)

(* The container is [magic | version | payload | u32 FNV-1a(payload)]:
   {!encode_state} writes the header first and {!seal} appends the
   checksum, so a snapshot is copied out of its buffer once. *)
let header = String.length magic + 1

let seal b =
  let len = Buffer.length b - header in
  u32 b (fnv32_gen (fun i -> Char.code (Buffer.nth b (header + i))) len);
  contents b

(* Verify the container in place; returns where the payload ends (it
   starts at [header]). *)
let unseal buf =
  let len = String.length buf in
  if len < header + 4 then error "snapshot truncated";
  if not (String.starts_with ~prefix:magic buf) then error "bad snapshot magic";
  let ver = Char.code buf.[String.length magic] in
  if ver <> version then error "unsupported snapshot version %d" ver;
  let payload_end = len - 4 in
  if
    ru32 (reader ~pos:payload_end buf)
    <> fnv32 buf ~pos:header ~len:(payload_end - header)
  then error "snapshot checksum mismatch";
  payload_end

let encode_state (s : State.t) =
  let b = create () in
  raw b magic;
  u8 b version;
  (* Base-image fingerprint: length + checksum, verified on decode. *)
  let base = Symmem.base s.mem in
  u32 b (Bytes.length base);
  u32 b (base_checksum base);
  u32 b s.id;
  u32 b s.parent;
  u32 b s.pc;
  u32 b s.depth;
  encode_status b s.status;
  bool b s.multipath;
  bool b s.incomplete;
  bool b s.irq_enabled;
  bool b s.in_irq;
  bool b s.irqs_suppressed;
  u32 b s.iepc;
  u32 b s.sepc;
  u32 b s.last_irq;
  list b (fun irq -> u32 b irq) s.pending_irqs;
  list b
    (fun (f : State.env_frame) ->
      u32 b f.callee;
      u32 b f.return_addr;
      bool b f.via_syscall)
    s.env_frames;
  i64 b s.virtual_time;
  i64 b (Int64.of_int s.instret);
  i64 b (Int64.of_int s.sym_instret);
  u32 b s.soft_constraints;
  u32 b (Array.length s.regs);
  Array.iter (encode_expr_into b) s.regs;
  u32 b (Symmem.overlay_size s.mem);
  Symmem.fold_overlay
    (fun addr e () ->
      u32 b addr;
      encode_expr_into b e)
    s.mem ();
  list b (encode_expr_into b) s.constraints;
  list b (fun ra -> u32 b ra) s.ret_stack;
  encode_cases b s.cases;
  encode_devices b s.devices;
  seal b

let decode_state ~base buf =
  let payload_end = unseal buf in
  let r = reader ~pos:header buf in
  let max_var = ref 0 in
  let blen = ru32 r in
  let bcrc = ru32 r in
  if blen <> Bytes.length base || bcrc <> base_checksum base then
    error "base image mismatch (peer loaded a different guest)";
  let id = ru32 r in
  let parent = ru32 r in
  let pc = ru32 r in
  let depth = ru32 r in
  let status = decode_status r in
  let multipath = rbool r in
  let incomplete = rbool r in
  let irq_enabled = rbool r in
  let in_irq = rbool r in
  let irqs_suppressed = rbool r in
  let iepc = ru32 r in
  let sepc = ru32 r in
  let last_irq = ru32 r in
  let pending_irqs = rlist r ru32 in
  let env_frames =
    rlist r (fun r ->
        let callee = ru32 r in
        let return_addr = ru32 r in
        let via_syscall = rbool r in
        { State.callee; return_addr; via_syscall })
  in
  let virtual_time = ri64 r in
  let instret = Int64.to_int (ri64 r) in
  let sym_instret = Int64.to_int (ri64 r) in
  let soft_constraints = ru32 r in
  let nregs = ru32 r in
  if nregs > payload_end - pos r then error "register count out of range";
  let regs =
    Array.of_list (read_n r nregs (fun r -> decode_expr_from r max_var))
  in
  let noverlay = ru32 r in
  if noverlay > payload_end - pos r then error "overlay count out of range";
  let overlay =
    read_n r noverlay (fun r ->
        let addr = ru32 r in
        let e = decode_expr_from r max_var in
        if Expr.width e <> 8 then error "overlay entry is not a byte";
        (addr, e))
  in
  let constraints = rlist r (fun r -> decode_expr_from r max_var) in
  let ret_stack = rlist r ru32 in
  let cases = decode_cases r max_var in
  let devices = decode_devices r in
  if pos r <> payload_end then error "trailing bytes after snapshot";
  let mem = Symmem.of_overlay ~base overlay in
  (* Never mint a fresh id that collides with a shipped one. *)
  Expr.bump_var_counter !max_var;
  State.bump_id_counter (max id parent);
  {
    State.id;
    parent;
    pc;
    regs;
    mem;
    constraints;
    soft_constraints;
    devices;
    irq_enabled;
    in_irq;
    iepc;
    sepc;
    last_irq;
    pending_irqs;
    irqs_suppressed;
    status;
    multipath;
    incomplete;
    instret;
    sym_instret;
    depth;
    virtual_time;
    env_frames;
    ret_stack;
    rendezvous = [];
    cases;
    measured = [];
    measured_len = 0;
    measured_size = 0;
  }
