(** Dynamic binary translator.

    Guest machine code is translated on demand into {e translation blocks}
    (TBs): straight-line sequences of decoded instructions ending at the
    first control transfer.  Blocks are cached so each instruction is
    decoded once but may execute millions of times — this is what makes the
    paper's onInstrTranslation / onInstrExecution event split cheap
    (section 4.2).  Writes into already-translated code invalidate the
    affected blocks, which is how self-modifying guests stay correct. *)

open S2e_isa
module Obs = S2e_obs

(* TB-cache telemetry: hit/miss rates are the translation-cost half of
   the paper's overhead story (section 6.2), and invalidations count
   self-modifying-code churn. *)
let m_tb_hits = Obs.Metrics.counter "dbt.tb_hits"
let m_tb_misses = Obs.Metrics.counter "dbt.tb_misses"
let m_tb_invalidations = Obs.Metrics.counter "dbt.tb_invalidations"
let translate_phase = Obs.Span.phase "translate"
let t_invalidate = Obs.Trace.intern "tb.invalidate"

type tb = {
  tb_start : int;
  insns : (int * Insn.t) array; (* (address, instruction) *)
  mutable exec_count : int;
}

type t = {
  cache : (int, tb) Hashtbl.t;
  (* Set of instruction addresses plugins marked during translation. *)
  marks : (int, unit) Hashtbl.t;
  (* Forced block boundaries: translation never extends past a cut
     address, so a cut address always starts its own block.  Merge
     points are cut so states stop there between blocks. *)
  cuts : (int, unit) Hashtbl.t;
  mutable max_block : int;
  (* One bit per code page of guest RAM, set when a translated block
     covers part of the page.  A clear bit proves no cached block covers
     an address, so a store there costs one bit test; a set bit may be
     stale (blocks are dropped without clearing it) and falls through to
     the exact search.  Only [flush] clears bits. *)
  code_pages : Bytes.t;
}

let page_bits = 8 (* 256-byte code pages: a full 32-instruction block *)
let num_pages = S2e_vm.Layout.ram_size lsr page_bits

let create ?(max_block = 32) () =
  {
    cache = Hashtbl.create 512;
    marks = Hashtbl.create 64;
    cuts = Hashtbl.create 64;
    max_block;
    code_pages = Bytes.make ((num_pages + 7) / 8) '\000';
  }

(* Addresses outside RAM have no bit and always take the exact search. *)
let may_hold_code t addr =
  let p = addr asr page_bits in
  p < 0 || p >= num_pages
  || Char.code (Bytes.unsafe_get t.code_pages (p lsr 3)) land (1 lsl (p land 7)) <> 0

let set_code_pages t lo hi =
  for p = max 0 (lo asr page_bits) to min (num_pages - 1) ((hi - 1) asr page_bits) do
    let i = p lsr 3 in
    Bytes.set t.code_pages i
      (Char.unsafe_chr (Char.code (Bytes.get t.code_pages i) lor (1 lsl (p land 7))))
  done

(** Mark [addr] for execution notification (called by plugins from an
    onInstrTranslation handler). *)
let mark t addr = Hashtbl.replace t.marks addr ()
let unmark t addr = Hashtbl.remove t.marks addr
let is_marked t addr = Hashtbl.mem t.marks addr

(** Translate the block starting at [pc].  [fetch] reads one guest byte;
    [on_translate] is invoked once per freshly decoded instruction. *)
let translate t ~fetch ~on_translate pc =
  match Hashtbl.find_opt t.cache pc with
  | Some tb ->
      Obs.Metrics.incr m_tb_hits;
      tb
  | None ->
      Obs.Metrics.incr m_tb_misses;
      Obs.Span.timed translate_phase (fun () ->
          let rec go addr acc n =
            let insn = Insn.decode_with ~get:fetch addr in
            on_translate addr insn;
            let acc = (addr, insn) :: acc in
            if
              Insn.is_block_terminator insn
              || n + 1 >= t.max_block
              || Hashtbl.mem t.cuts (addr + Insn.insn_size)
            then List.rev acc
            else go (addr + Insn.insn_size) acc (n + 1)
          in
          let insns = Array.of_list (go pc [] 0) in
          let tb = { tb_start = pc; insns; exec_count = 0 } in
          Hashtbl.replace t.cache pc tb;
          let last, _ = insns.(Array.length insns - 1) in
          set_code_pages t pc (last + Insn.insn_size);
          tb)

(** Invalidate any block covering [addr] (a guest write hit translated
    code). *)
let invalidate t addr =
  if may_hold_code t addr then begin
    (* Coarse but correct: drop every cached block overlapping the write. *)
    let victims =
      Hashtbl.fold
        (fun start tb acc ->
          let stop = start + (Array.length tb.insns * Insn.insn_size) in
          if addr >= start && addr < stop then start :: acc else acc)
        t.cache []
    in
    if victims <> [] then begin
      Obs.Metrics.add m_tb_invalidations (List.length victims);
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~a:addr ~b:(List.length victims) t_invalidate;
      List.iter (Hashtbl.remove t.cache) victims
    end
  end

(** Drop every cached block and clear the code-page bitmap; the
    [dbt.tb_misses] counter is monotone across it.  Used by the differential oracle, which reuses one
    translator across runs that place different code at the same pc. *)
let flush t =
  Hashtbl.reset t.cache;
  Bytes.fill t.code_pages 0 (Bytes.length t.code_pages) '\000'

(** Force a block boundary before [addr]: no block extends past it, so
    [addr] always starts its own block and execution pauses there between
    blocks.  Any cached block already spanning [addr] is dropped. *)
let cut t addr =
  if not (Hashtbl.mem t.cuts addr) then begin
    Hashtbl.replace t.cuts addr ();
    invalidate t addr
  end

let cached_blocks t = Hashtbl.length t.cache
