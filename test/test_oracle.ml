(* The executable ISA oracle (DESIGN.md section 9): Dbt cache property
   tests, assembler/disassembler roundtrips, deterministic replay, and
   the differential harness itself — including the "does it actually
   catch bugs" check against an intentionally perturbed interpreter. *)

open S2e_isa
open S2e_oracle
module Dbt = S2e_dbt.Dbt

(* A small straight-line program image for the Dbt property tests. *)
let program_bytes insns =
  let buf = Bytes.create (List.length insns * Insn.insn_size) in
  List.iteri (fun i insn -> Insn.encode insn buf (i * Insn.insn_size)) insns;
  buf

let sample_block =
  Insn.
    [
      Li { rd = 1; imm = 7l };
      Alui { op = Add; rd = 1; rs1 = 1; imm = 1l };
      Mov { rd = 2; rs1 = 1 };
      Halt;
    ]

let fetch_of bytes a = if a < Bytes.length bytes then Char.code (Bytes.get bytes a) else 0

let translate ?(count = ref 0) dbt bytes pc =
  Dbt.translate dbt ~fetch:(fetch_of bytes)
    ~on_translate:(fun _ _ -> incr count)
    pc

(* --- Dbt cache semantics ------------------------------------------- *)

let test_dbt_invalidate_any_addr () =
  let bytes = program_bytes sample_block in
  let span = Bytes.length bytes in
  let rng = Sm64.create 11 in
  for _ = 1 to 200 do
    let dbt = Dbt.create () in
    let tb = translate dbt bytes 0 in
    Alcotest.(check int) "block covers whole program" 4 (Array.length tb.Dbt.insns);
    Alcotest.(check int) "one cached block" 1 (Dbt.cached_blocks dbt);
    (* Any address inside the block's byte range must drop it... *)
    Dbt.invalidate dbt (Sm64.int rng span);
    Alcotest.(check int) "invalidate dropped the block" 0 (Dbt.cached_blocks dbt);
    (* ...and any address outside must not. *)
    let tb2 = translate dbt bytes 0 in
    ignore tb2;
    Dbt.invalidate dbt (span + Sm64.int rng 10_000);
    Alcotest.(check int) "outside write kept the block" 1 (Dbt.cached_blocks dbt)
  done

let test_dbt_translate_notifications_exact () =
  let bytes = program_bytes sample_block in
  let dbt = Dbt.create () in
  let count = ref 0 in
  ignore (translate ~count dbt bytes 0);
  Alcotest.(check int) "one on_translate per insn" 4 !count;
  ignore (translate ~count dbt bytes 0);
  Alcotest.(check int) "cache hit: no re-notification" 4 !count;
  Dbt.invalidate dbt 8;
  ignore (translate ~count dbt bytes 0);
  Alcotest.(check int) "retranslation re-notifies each insn" 8 !count;
  Dbt.flush dbt;
  ignore (translate ~count dbt bytes 0);
  Alcotest.(check int) "flush forces full retranslation" 12 !count

let test_dbt_marks_survive_retranslation () =
  let bytes = program_bytes sample_block in
  let dbt = Dbt.create () in
  Dbt.mark dbt 8;
  Alcotest.(check bool) "marked" true (Dbt.is_marked dbt 8);
  ignore (translate dbt bytes 0);
  Dbt.invalidate dbt 0;
  ignore (translate dbt bytes 0);
  Alcotest.(check bool) "mark survives retranslation" true (Dbt.is_marked dbt 8);
  Alcotest.(check bool) "other addrs unmarked" false (Dbt.is_marked dbt 16);
  Dbt.unmark dbt 8;
  Alcotest.(check bool) "unmark is exact" false (Dbt.is_marked dbt 8)

let test_dbt_stats_monotone () =
  let bytes = program_bytes sample_block in
  let dbt = Dbt.create () in
  let rng = Sm64.create 3 in
  let last = ref 0 in
  let before = S2e_obs.Metrics.snapshot () in
  for _ = 1 to 500 do
    (match Sm64.int rng 3 with
    | 0 -> ignore (translate dbt bytes 0)
    | 1 -> Dbt.invalidate dbt (Sm64.int rng 64)
    | _ -> Dbt.flush dbt);
    let total =
      S2e_obs.Metrics.(get_int (delta ~before (snapshot ())) "dbt.tb_misses")
    and cached = Dbt.cached_blocks dbt in
    Alcotest.(check bool) "translation count monotone" true (total >= !last);
    Alcotest.(check bool) "cached count sane" true (cached >= 0 && cached <= total);
    last := total
  done

(* --- assembler / disassembler roundtrip ---------------------------- *)

let insn = Alcotest.testable (Fmt.of_to_string Insn.to_string) ( = )

let test_asm_roundtrip () =
  (* Gen renders each program with Insn.to_string, assembles it with Asm
     and places the bytes in the pre-state, so decoding the code segment
     must give back exactly the instruction list. *)
  let g = Gen.create ~seed:1234 in
  for _ = 1 to 300 do
    let case = Gen.next g in
    let code = List.assoc Gen.code_base case.Gen.c_pre.Interp.pre_segments in
    let get i = if i < String.length code then Char.code code.[i] else 0 in
    let decoded =
      List.init
        (String.length code / Insn.insn_size)
        (fun i -> Insn.decode_with ~get (i * Insn.insn_size))
    in
    Alcotest.(check (list insn)) "asm -> bytes -> decode" case.Gen.c_insns decoded
  done

let test_decode_random_bytes_typed_error_only () =
  let rng = Sm64.create 99 in
  for _ = 1 to 20_000 do
    let b = Array.init Insn.insn_size (fun _ -> Sm64.int rng 256) in
    let get i = if i < Insn.insn_size then b.(i) else 0 in
    (* Any exception other than Invalid_instruction escapes and fails
       the test. *)
    match Insn.decode_with ~get 0 with
    | _ -> ()
    | exception Insn.Invalid_instruction _ -> ()
  done

(* --- deterministic replay ------------------------------------------ *)

let test_same_seed_same_digest () =
  let dir = Filename.get_temp_dir_name () in
  let run seed = (Oracle.run ~seed ~count:150 ~repro_dir:dir ()).Oracle.r_digest in
  let d1 = run 42 and d2 = run 42 and d3 = run 43 in
  Alcotest.(check int64) "same seed, byte-identical digest" d1 d2;
  Alcotest.(check bool) "different seed, different digest" true (d3 <> d1)

(* --- the oracle itself --------------------------------------------- *)

let test_oracle_covers_and_agrees () =
  let dir = Filename.get_temp_dir_name () in
  let r = Oracle.run ~seed:1 ~count:1500 ~repro_dir:dir () in
  Alcotest.(check (list string)) "every constructor generated" [] r.Oracle.r_missing;
  Alcotest.(check int) "no divergences" 0 (List.length r.r_divergences);
  Alcotest.(check int) "ran all generated blocks" 1500 r.r_generated

let test_generator_covers_every_class () =
  (* Stronger than the constructor check: every ALU op, every branch
     condition and every S2E sub-op must appear. *)
  let g = Gen.create ~seed:7 in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 1000 do
    let case = Gen.next g in
    List.iter (fun i -> Hashtbl.replace seen (Gen.class_of i) ()) case.Gen.c_insns
  done;
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (Printf.sprintf "class %s generated" cls)
        true (Hashtbl.mem seen cls))
    (Gen.body_classes @ Gen.term_classes)

let test_perturbed_interpreter_caught () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "oracle_perturb_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () -> Interp.test_perturbation := None)
    (fun () ->
      (* Flip the low immediate bit of every li the reference interpreter
         decodes: a subtle, deterministic "miscompilation" of one insn. *)
      Interp.test_perturbation :=
        Some
          (function
          | Insn.Li { rd; imm } -> Insn.Li { rd; imm = Int32.logxor imm 1l }
          | i -> i);
      let r = Oracle.run ~seed:5 ~count:300 ~repro_dir:dir ~max_repros:4 () in
      Alcotest.(check bool)
        "perturbation detected" true
        (r.Oracle.r_divergences <> []);
      let with_file =
        List.filter_map (fun d -> d.Oracle.d_file) r.r_divergences
      in
      Alcotest.(check bool) "repro dumped" true (with_file <> []);
      let path = List.hd with_file in
      let ic = open_in path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        "repro names the divergence" true
        (String.length contents > 0
        (* must contain the pre-state and the diff *)
        && contains contents "diff:"
        && contains contents "segment");
      (* The minimizer must shrink the program: a single perturbed li
         plus a terminator diverges on its own, so minimized repros
         should be far below the generated program length. *)
      List.iter
        (fun (d : Oracle.divergence) ->
          let code =
            List.assoc_opt Gen.code_base d.d_pre.Interp.pre_segments
          in
          match code with
          | Some c ->
              Alcotest.(check bool)
                "repro minimized to <= 3 insns" true
                (String.length c / Insn.insn_size <= 3)
          | None -> ())
        r.r_divergences)

(* --- corpus manifest ----------------------------------------------- *)

let test_corpus_roundtrip () =
  let g = Gen.create ~seed:21 in
  let entries =
    List.init 5 (fun i ->
        let case = Gen.next g in
        {
          Corpus.e_pc = Gen.code_base + (i * 0x100);
          e_bytes = List.assoc Gen.code_base case.Gen.c_pre.Interp.pre_segments;
        })
  in
  let path = Filename.temp_file "oracle_corpus" ".manifest" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Corpus.save path ~workload:"testwl" entries;
      let wl, loaded = Corpus.load path in
      Alcotest.(check string) "workload preserved" "testwl" wl;
      Alcotest.(check int) "entry count" (List.length entries) (List.length loaded);
      List.iter2
        (fun (a : Corpus.entry) (b : Corpus.entry) ->
          Alcotest.(check int) "pc" a.e_pc b.e_pc;
          Alcotest.(check string) "bytes" a.e_bytes b.e_bytes)
        entries loaded)

let tests =
  [
    Alcotest.test_case "Dbt: invalidate inside block drops it" `Quick
      test_dbt_invalidate_any_addr;
    Alcotest.test_case "Dbt: on_translate counts exact" `Quick
      test_dbt_translate_notifications_exact;
    Alcotest.test_case "Dbt: marks survive retranslation" `Quick
      test_dbt_marks_survive_retranslation;
    Alcotest.test_case "Dbt: stats monotone under invalidate/flush" `Quick
      test_dbt_stats_monotone;
    Alcotest.test_case "asm/pp/decode roundtrip on generated programs" `Quick
      test_asm_roundtrip;
    Alcotest.test_case "decoding random bytes raises typed errors only" `Quick
      test_decode_random_bytes_typed_error_only;
    Alcotest.test_case "same seed reproduces byte-identical runs" `Slow
      test_same_seed_same_digest;
    Alcotest.test_case "oracle: full coverage, zero divergences" `Slow
      test_oracle_covers_and_agrees;
    Alcotest.test_case "generator hits every instruction class" `Slow
      test_generator_covers_every_class;
    Alcotest.test_case "perturbed interpreter is caught with a repro" `Slow
      test_perturbed_interpreter_caught;
    Alcotest.test_case "corpus manifest save/load roundtrip" `Quick
      test_corpus_roundtrip;
  ]
