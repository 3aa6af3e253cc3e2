(* Differential tests for the state-merging subsystem: a merged run
   (--merge=auto/always) must terminate with exactly the same set of
   test cases as plain enumeration (--merge=off), only with fewer
   completed paths.  Case sets are compared after expanding each merged
   state's case tree back into per-leaf models ({!Parallel.test_cases}),
   so equality here is byte-level on the canonical case strings. *)

open S2e_core
module Guest = S2e_guest.Guest
module Workloads_src = S2e_guest.Workloads_src
module Controller = S2e_merge.Controller
module Policy = S2e_merge.Policy

(* The stock urlparse workload makes 8 input bytes symbolic, which is
   far too many to enumerate exhaustively (hundreds of thousands of
   paths).  Narrow the symbolic window so both modes drain within a
   test budget while still exercising the same parser code — scheme
   check, host/port/path/query classification — that the merge
   controller collapses. *)
let narrow_sym_mem ~bytes src =
  let wide = "__s2e_sym_mem(url + 8, 8, 1);" in
  let narrow = Printf.sprintf "__s2e_sym_mem(url + 8, %d, 1);" bytes in
  let wl = String.length wide in
  let rec find i =
    if i + wl > String.length src then
      invalid_arg "narrow_sym_mem: pattern not found"
    else if String.sub src i wl = wide then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i ^ narrow
  ^ String.sub src (i + wl) (String.length src - i - wl)

let urlparse_narrow = narrow_sym_mem ~bytes:2 Workloads_src.urlparse

let build name src =
  Guest.build
    ~driver:("nulldrv", S2e_guest.Drivers_src.nulldrv)
    ~workload:(name, src) ()

let explore ?(jobs = 1) ?instret_sensitive ~mode (name, img) =
  let make_engine () =
    let config = Executor.default_config () in
    config.consistency <- Consistency.LC;
    let engine = Executor.create ~config () in
    Guest.load_into_engine engine img;
    Executor.set_unit engine [ "nulldrv"; name ];
    ignore (Controller.install ?instret_sensitive ~mode engine);
    engine
  in
  Parallel.explore ~jobs ~make_engine
    ~boot:(fun eng -> Executor.boot eng ~entry:img.Guest.entry ())
    ()

let case_set (r : Parallel.result) =
  List.concat_map Parallel.test_cases r.Parallel.completed
  |> List.map Parallel.test_case_to_string
  |> List.sort compare

let completed (r : Parallel.result) = List.length r.Parallel.completed

let check_drained name (r : Parallel.result) =
  Alcotest.(check int) (name ^ ": drained frontier") 0
    (List.length r.Parallel.frontier)

let test_symloop_merge_equiv () =
  let img = ("symloop", build "symloop" Workloads_src.symloop) in
  let off = explore ~mode:Policy.Off img in
  let auto = explore ~mode:Policy.Auto img in
  check_drained "off" off;
  check_drained "auto" auto;
  Alcotest.(check int) "off enumerates 32 paths" 32 (completed off);
  Alcotest.(check int) "auto merges them into 2 paths" 2 (completed auto);
  Alcotest.(check (list string))
    "identical case sets" (case_set off) (case_set auto)

let test_urlparse_merge_equiv () =
  let img = ("urlparse", build "urlparse" urlparse_narrow) in
  let off = explore ~mode:Policy.Off img in
  let auto = explore ~mode:Policy.Auto img in
  check_drained "off" off;
  check_drained "auto" auto;
  Alcotest.(check int) "off enumerates 103 paths" 103 (completed off);
  Alcotest.(check int) "auto merges them into 7 paths" 7 (completed auto);
  Alcotest.(check (list string))
    "identical case sets" (case_set off) (case_set auto)

let test_always_mode_equiv () =
  let img = ("symloop", build "symloop" Workloads_src.symloop) in
  let off = explore ~mode:Policy.Off img in
  let always = explore ~mode:Policy.Always img in
  check_drained "always" always;
  Alcotest.(check (list string))
    "identical case sets" (case_set off) (case_set always)

(* Merge decisions are purely structural (Policy.Auto inspects cached
   node counts, never wall-clock or solver time), so the final case set
   must not depend on how states were distributed over workers. *)
let test_parallel_determinism () =
  let img = ("urlparse", build "urlparse" urlparse_narrow) in
  let serial = explore ~jobs:1 ~mode:Policy.Auto img in
  let par = explore ~jobs:4 ~mode:Policy.Auto img in
  check_drained "jobs=4" par;
  Alcotest.(check (list string))
    "jobs=1 and jobs=4 agree" (case_set serial) (case_set par)

(* With an instruction-counting plugin active every sibling pair
   differs in instret, so every join attempt reports Unmergeable and
   the run must fall back to plain enumeration — byte-identical to
   --merge=off, same path count and all. *)
let test_instret_sensitive_fallback () =
  let img = ("symloop", build "symloop" Workloads_src.symloop) in
  let off = explore ~mode:Policy.Off img in
  let fallback = explore ~instret_sensitive:true ~mode:Policy.Auto img in
  check_drained "fallback" fallback;
  Alcotest.(check int) "same path count" (completed off) (completed fallback);
  Alcotest.(check (list string))
    "identical case sets" (case_set off) (case_set fallback)

let tests =
  [
    Alcotest.test_case "symloop: merged == enumerated, >=10x fewer paths"
      `Quick test_symloop_merge_equiv;
    Alcotest.test_case "urlparse: merged == enumerated" `Quick
      test_urlparse_merge_equiv;
    Alcotest.test_case "always mode preserves case set" `Quick
      test_always_mode_equiv;
    Alcotest.test_case "jobs=1 vs jobs=4 path-set determinism" `Quick
      test_parallel_determinism;
    Alcotest.test_case "instret-sensitive falls back to enumeration" `Quick
      test_instret_sensitive_fallback;
  ]
