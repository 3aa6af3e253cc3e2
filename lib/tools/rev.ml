(** REV+: reverse engineering of closed-source drivers
    (paper section 6.1.2).

    The driver binary is executed under overapproximate consistency
    (RC-OC): the tracer only needs to see each basic block execute, not
    full path consistency.  ExecutionTracer records the driver's executed
    instructions, memory accesses and hardware I/O; the offline component
    rebuilds the control flow graph from the traces and synthesizes a
    driver listing that implements the same hardware protocol.

    The "RevNIC-style" baseline uses the same tracer but with the weaker
    exploration RevNIC had: symbolic hardware only (SC-SE), depth-first
    search, no registry injection and no coverage-guided scheduling — the
    delta is what Table 5 measures. *)

open S2e_core
open S2e_plugins
module Expr = S2e_expr.Expr
module Guest = S2e_guest.Guest
module Insn = S2e_isa.Insn

type recovered_block = {
  rb_start : int;
  rb_insns : (int * Insn.t) list;
  rb_succs : int list;
}

type recovered_cfg = {
  blocks : recovered_block list;
  entry_points : (string * int) list;
}

type result = {
  driver : string;
  mode : [ `Revnic_baseline | `Rev_plus ];
  covered_insns : int;
  total_insns : int;
  coverage : float;
  timeline : (int * float) list; (* (instructions, coverage fraction) *)
  cfg : recovered_cfg;
  seconds : float;
}

let netdev_ports = (S2e_vm.Layout.port_netdev, S2e_vm.Layout.port_netdev + 16)

(* ---------------- offline CFG recovery ---------------- *)

(* Rebuild basic blocks from the union of traced instruction sequences. *)
let recover_cfg traces ~entry_points =
  (* successor relation from consecutive trace events *)
  let succs : (int, int list) Hashtbl.t = Hashtbl.create 512 in
  let insn_at : (int, Insn.t) Hashtbl.t = Hashtbl.create 512 in
  let add_succ a b =
    let cur = Option.value ~default:[] (Hashtbl.find_opt succs a) in
    if not (List.mem b cur) then Hashtbl.replace succs a (b :: cur)
  in
  List.iter
    (fun (tr : Tracer.trace) ->
      let prev = ref None in
      List.iter
        (fun ev ->
          match ev with
          | Tracer.T_insn { addr; insn } ->
              Hashtbl.replace insn_at addr insn;
              (match !prev with Some p -> add_succ p addr | None -> ());
              prev := Some addr
          | Tracer.T_mem _ | Tracer.T_io _ | Tracer.T_irq _ -> ())
        tr.events)
    traces;
  (* leaders: entry points, branch targets, fall-throughs of multi-successor
     instructions *)
  let leaders = Hashtbl.create 128 in
  List.iter (fun (_, a) -> Hashtbl.replace leaders a ()) entry_points;
  Hashtbl.iter
    (fun a ss ->
      match Hashtbl.find_opt insn_at a with
      | Some insn when Insn.is_block_terminator insn ->
          List.iter (fun s -> Hashtbl.replace leaders s ()) ss
      | Some _ when List.length ss > 1 ->
          List.iter (fun s -> Hashtbl.replace leaders s ()) ss
      | _ -> ())
    succs;
  (* build blocks by walking from each leader *)
  let blocks =
    Hashtbl.fold
      (fun leader () acc ->
        let rec walk addr insns =
          match Hashtbl.find_opt insn_at addr with
          | None -> (List.rev insns, [])
          | Some insn ->
              let insns = (addr, insn) :: insns in
              let ss = Option.value ~default:[] (Hashtbl.find_opt succs addr) in
              if Insn.is_block_terminator insn || List.length ss <> 1 then
                (List.rev insns, ss)
              else
                let next = List.hd ss in
                if Hashtbl.mem leaders next then (List.rev insns, ss)
                else walk next insns
        in
        let rb_insns, rb_succs = walk leader [] in
        if rb_insns = [] then acc
        else { rb_start = leader; rb_insns; rb_succs } :: acc)
      leaders []
  in
  { blocks = List.sort (fun a b -> compare a.rb_start b.rb_start) blocks;
    entry_points }

(** Synthesized driver listing: labeled blocks with control-flow edges, the
    artifact REV+'s offline code generator emits. *)
let synthesize cfg =
  let buf = Buffer.create 4096 in
  let name_of addr =
    match List.find_opt (fun (_, a) -> a = addr) cfg.entry_points with
    | Some (n, _) -> Printf.sprintf "%s:" n
    | None -> Printf.sprintf "L_%x:" addr
  in
  List.iter
    (fun b ->
      Buffer.add_string buf (name_of b.rb_start);
      Buffer.add_char buf '\n';
      List.iter
        (fun (addr, insn) ->
          Buffer.add_string buf
            (Printf.sprintf "  /*%05x*/ %s\n" addr (Insn.to_string insn)))
        b.rb_insns;
      (match b.rb_succs with
      | [] -> ()
      | ss ->
          Buffer.add_string buf
            (Printf.sprintf "  // -> %s\n"
               (String.concat ", "
                  (List.map (fun a -> Printf.sprintf "L_%x" a) ss))));
      Buffer.add_char buf '\n')
    cfg.blocks;
  Buffer.contents buf

(* ---------------- online exploration ---------------- *)

let entry_point_names =
  [ "driver_init"; "driver_send"; "driver_recv"; "driver_query";
    "driver_set"; "driver_isr"; "driver_unload" ]

(** Trace [driver] for up to [max_instructions]; [mode] selects the REV+
    configuration or the RevNIC-style baseline. *)
let run ?(max_seconds = 30.0) ?(max_instructions = 4_000_000)
    ?(mode = `Rev_plus) ~driver () =
  let driver_src = List.assoc driver Guest.drivers in
  let img =
    Guest.build ~driver:(driver, driver_src)
      ~workload:("exerciser", S2e_guest.Workloads_src.exerciser)
      ()
  in
  let config = Executor.default_config () in
  config.consistency <-
    (match mode with
    | `Rev_plus -> Consistency.RC_OC
    | `Revnic_baseline -> Consistency.SC_SE);
  config.symbolic_hardware_ports <- [ netdev_ports ];
  config.max_fork_depth <- 96;
  let engine = Executor.create ~config () in
  Guest.load_into_engine engine img;
  Executor.set_unit engine [ driver ];
  let drv = Module_map.entry engine.Executor.modules driver |> Option.get in
  let coverage =
    Coverage.attach ~timeline_range:(drv.code_start, drv.code_end) engine
  in
  let tracer =
    Tracer.attach ~trace_mem:true ~only_range:(drv.code_start, drv.code_end)
      engine
  in
  let _killer = Path_killer.attach ~max_repeats:3000 engine in
  (match mode with
  | `Rev_plus ->
      (* The platform's selectors: registry injection plus coverage-guided
         scheduling. *)
      let reg =
        Registry.attach engine ~query_entry:(Guest.symbol img "reg_query_int")
      in
      Registry.watch reg ~key:"CardType" ~values:[ 1; 2; 7 ];
      Registry.watch reg ~key:"TxMode" ~values:[ 1; 2 ];
      Registry.watch reg ~key:"Promisc" ~values:[ 0; 1 ];
      Registry.watch reg ~key:"Mtu" ~values:[ 1500; 9000 ];
      (* Keep the allocator's contract: an unconstrained pointer would send
         every send/receive path into wild memory and kill it before the
         later entry points execute.  The annotation (which overrides the
         blanket RC-OC return policy) forks a NULL-return path instead. *)
      Annotation.on_return engine ~callee:(Guest.symbol img "alloc")
        (fun t s ->
          match Expr.to_const (State.get_reg s 0) with
          | Some base when base <> 0L ->
              let child = Executor.plugin_fork t s in
              State.set_reg child 0 (Expr.const 0L)
          | _ -> ())
  | `Revnic_baseline -> ());
  let s0 = Executor.boot engine ~entry:img.entry () in
  ignore
    (S2e_vm.Netdev.inject_frame s0.State.devices.netdev
       (Array.init 20 (fun i -> (i * 3) land 0xff)));
  let started = Unix.gettimeofday () in
  ignore
    (Executor.run
       ~limits:
         {
           Executor.max_instructions = Some max_instructions;
           max_seconds = Some max_seconds;
           max_completed = None;
         }
       engine s0);
  let seconds = Unix.gettimeofday () -. started in
  let total = Module_map.code_insns drv in
  let covered = Coverage.covered_in_range coverage drv.code_start drv.code_end in
  let entry_points =
    List.filter_map
      (fun n ->
        match S2e_isa.Asm.symbol img.linked.image n with
        | a -> Some (n, a)
        | exception _ -> None)
      entry_point_names
  in
  let cfg = recover_cfg (Tracer.finished_traces tracer) ~entry_points in
  let timeline =
    List.map
      (fun (instret, count) -> (instret, float_of_int count /. float_of_int total))
      (Coverage.timeline coverage)
  in
  {
    driver;
    mode;
    covered_insns = covered;
    total_insns = total;
    coverage = float_of_int covered /. float_of_int total;
    timeline;
    cfg;
    seconds;
  }
