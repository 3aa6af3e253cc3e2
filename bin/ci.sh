#!/bin/sh
# Tier-1 verification: full build plus the whole test suite.
# Run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."
dune build @all
dune runtest

# Telemetry smoke test: a short parallel exploration must stream parsable
# run-stats JSONL (>= 2 periodic snapshots + a final line), and the stats
# renderer must accept the file.
stats_file=$(mktemp /tmp/s2e-stats-XXXXXX.jsonl)
trap 'rm -f "$stats_file"' EXIT
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload urlparse \
  --jobs 2 --seconds 2 --stats-out "$stats_file" --stats-interval 0.05 \
  > /dev/null
test -s "$stats_file" || { echo "CI: stats file empty" >&2; exit 1; }
lines=$(wc -l < "$stats_file")
[ "$lines" -ge 3 ] || { echo "CI: expected >=3 snapshots, got $lines" >&2; exit 1; }
grep -q '"kind":"final"' "$stats_file" \
  || { echo "CI: no final snapshot line" >&2; exit 1; }
dune exec bin/s2e_cli.exe -- stats "$stats_file" > /dev/null \
  || { echo "CI: stats renderer rejected the JSONL" >&2; exit 1; }
echo "CI: telemetry smoke test passed ($lines snapshot lines)"

# Distributed-exploration smoke test: a two-process run on a small
# workload must succeed, report its process count, and emit exactly the
# serial run's test cases (the dist determinism guarantee).
serial_out=$(mktemp /tmp/s2e-serial-XXXXXX.txt)
dist_out=$(mktemp /tmp/s2e-dist-XXXXXX.txt)
trap 'rm -f "$stats_file" "$serial_out" "$dist_out"' EXIT
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload symloop \
  --jobs 1 --seconds 30 --cases > "$serial_out"
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload symloop \
  --procs 2 --seconds 30 --cases > "$dist_out"
grep -q '^procs: 2$' "$dist_out" \
  || { echo "CI: dist run did not report procs: 2" >&2; exit 1; }
serial_cases=$(grep -c '|' "$serial_out")
dist_cases=$(grep -c '|' "$dist_out")
[ "$serial_cases" -gt 1 ] \
  || { echo "CI: serial run produced no test cases" >&2; exit 1; }
[ "$serial_cases" = "$dist_cases" ] \
  || { echo "CI: case count mismatch (serial $serial_cases, dist $dist_cases)" >&2; exit 1; }
grep '|' "$serial_out" > "$serial_out.cases"
grep '|' "$dist_out" > "$dist_out.cases"
diff "$serial_out.cases" "$dist_out.cases" > /dev/null \
  || { echo "CI: dist test cases differ from serial" >&2; exit 1; }
rm -f "$serial_out.cases" "$dist_out.cases"
echo "CI: dist smoke test passed ($dist_cases cases, procs=2 == jobs=1)"

# Merge smoke test: --merge=auto must emit exactly the enumerated
# (--merge=off, the default) run's test cases after case-tree expansion,
# while completing strictly fewer paths.
merge_out=$(mktemp /tmp/s2e-merge-XXXXXX.txt)
trap 'rm -f "$stats_file" "$serial_out" "$dist_out" "$merge_out"' EXIT
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload symloop \
  --jobs 1 --seconds 30 --merge auto --cases > "$merge_out"
merge_cases=$(grep -c '|' "$merge_out")
[ "$serial_cases" = "$merge_cases" ] \
  || { echo "CI: merge case count mismatch (off $serial_cases, auto $merge_cases)" >&2; exit 1; }
grep '|' "$serial_out" > "$serial_out.cases"
grep '|' "$merge_out" > "$merge_out.cases"
diff "$serial_out.cases" "$merge_out.cases" > /dev/null \
  || { echo "CI: merged test cases differ from enumerated" >&2; exit 1; }
rm -f "$serial_out.cases" "$merge_out.cases"
merged_paths=$(sed -n 's/^paths completed: \([0-9][0-9]*\)$/\1/p' "$merge_out")
enum_paths=$(sed -n 's/^paths completed: \([0-9][0-9]*\)$/\1/p' "$serial_out")
[ "$merged_paths" -lt "$enum_paths" ] \
  || { echo "CI: merge did not reduce completed paths ($merged_paths vs $enum_paths)" >&2; exit 1; }
echo "CI: merge smoke test passed ($merge_cases cases, $merged_paths merged vs $enum_paths enumerated paths)"

# On driver-ful LC workloads the kernel can branch on merged hardware
# data; such carriers abort conservatively and the loss must be visible
# in the stats, never silent (DESIGN.md §10).  The c111 exerciser is the
# regression workload: merging still engages (merges > 0) and the
# carrier-abort count is surfaced by the renderer.
merge_stats=$(mktemp /tmp/s2e-merge-stats-XXXXXX.jsonl)
trap 'rm -f "$stats_file" "$serial_out" "$dist_out" "$merge_out" "$solver_out" "$url_fresh" "$chaos_fresh" "$merge_stats"' EXIT
dune exec bin/s2e_cli.exe -- explore --driver c111 --workload exerciser \
  --jobs 1 --seconds 60 --merge auto --stats-out "$merge_stats" > /dev/null
merge_render=$(dune exec bin/s2e_cli.exe -- stats "$merge_stats")
printf '%s\n' "$merge_render" | grep -q '^merge: [1-9]' \
  || { echo "CI: merging did not engage on the c111 exerciser" >&2; exit 1; }
printf '%s\n' "$merge_render" | grep -q 'carrier aborts: ' \
  || { echo "CI: carrier aborts not surfaced in merged exerciser stats" >&2; exit 1; }
echo "CI: merge observability smoke test passed"

# Trace smoke test: a traced run must produce valid trace_event JSON
# (the trace renderer parses it with the same codec), render the prefix
# attribution report, and emit exactly the untraced serial run's test
# cases (tracing must not perturb exploration).
trace_json=$(mktemp /tmp/s2e-trace-XXXXXX.json)
traced_out=$(mktemp /tmp/s2e-traced-XXXXXX.txt)
trap 'rm -f "$stats_file" "$serial_out" "$dist_out" "$merge_out" "$solver_out" "$url_fresh" "$chaos_fresh" "$merge_stats" "$trace_json" "$traced_out"' EXIT
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload symloop \
  --jobs 1 --seconds 30 --cases --trace-out "$trace_json" > "$traced_out"
test -s "$trace_json" || { echo "CI: trace file empty" >&2; exit 1; }
grep -q '"traceEvents"' "$trace_json" \
  || { echo "CI: trace file has no traceEvents key" >&2; exit 1; }
grep '|' "$serial_out" > "$serial_out.cases"
grep '|' "$traced_out" > "$traced_out.cases"
diff "$serial_out.cases" "$traced_out.cases" > /dev/null \
  || { echo "CI: traced test cases differ from untraced serial" >&2; exit 1; }
rm -f "$serial_out.cases" "$traced_out.cases"
trace_report=$(dune exec bin/s2e_cli.exe -- trace "$trace_json") \
  || { echo "CI: trace renderer rejected the JSON" >&2; exit 1; }
printf '%s\n' "$trace_report" | grep -q 'constraint prefixes:' \
  || { echo "CI: trace report missing prefix attribution" >&2; exit 1; }
printf '%s\n' "$trace_report" | grep -q 'fork tree' \
  || { echo "CI: trace report missing fork tree" >&2; exit 1; }
# A --procs 2 trace must merge both workers' timelines into one file
# (distinct pid lanes) and still parse with the repo's codec.
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload symloop \
  --procs 2 --seconds 30 --trace-out "$trace_json" > /dev/null
pids=$(grep -o '"pid":[0-9]*' "$trace_json" | sort -u | wc -l)
[ "$pids" -ge 2 ] \
  || { echo "CI: procs=2 trace has $pids pid lane(s), expected >=2" >&2; exit 1; }
dune exec bin/s2e_cli.exe -- trace "$trace_json" > /dev/null \
  || { echo "CI: trace renderer rejected the merged JSON" >&2; exit 1; }
echo "CI: trace smoke test passed (cases == untraced serial, $pids merged pid lanes)"

# Incremental-solver differential: --solver=fresh must emit byte-identical
# case sets to the default incremental instance ring (serial and --jobs 4),
# and the incremental run must report realized prefix reuse.
solver_out=$(mktemp /tmp/s2e-solver-XXXXXX.txt)
trap 'rm -f "$stats_file" "$serial_out" "$dist_out" "$merge_out" "$solver_out"' EXIT
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload symloop \
  --jobs 1 --seconds 30 --solver fresh --cases > "$solver_out"
grep '|' "$serial_out" > "$serial_out.cases"
grep '|' "$solver_out" > "$solver_out.cases"
diff "$serial_out.cases" "$solver_out.cases" > /dev/null \
  || { echo "CI: fresh-solver cases differ from incremental" >&2; exit 1; }
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload symloop \
  --jobs 4 --seconds 30 --solver incremental --cases > "$solver_out"
grep '|' "$solver_out" > "$solver_out.cases"
diff "$serial_out.cases" "$solver_out.cases" > /dev/null \
  || { echo "CI: incremental --jobs 4 cases differ from serial" >&2; exit 1; }
grep -q '^incremental: [1-9]' "$solver_out" \
  || { echo "CI: incremental run reported no realized reuse" >&2; exit 1; }
url_fresh=$(mktemp /tmp/s2e-urlfresh-XXXXXX.txt)
trap 'rm -f "$stats_file" "$serial_out" "$dist_out" "$merge_out" "$solver_out" "$url_fresh"' EXIT
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload urlparse \
  --jobs 1 --seconds 60 --solver fresh --cases > "$url_fresh"
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload urlparse \
  --jobs 1 --seconds 60 --solver incremental --cases > "$solver_out"
grep '|' "$url_fresh" > "$url_fresh.cases"
grep '|' "$solver_out" > "$solver_out.cases"
diff "$url_fresh.cases" "$solver_out.cases" > /dev/null \
  || { echo "CI: urlparse cases diverge between solver modes" >&2; exit 1; }
rm -f "$serial_out.cases" "$solver_out.cases" "$url_fresh.cases"
echo "CI: solver-mode differential passed (fresh == incremental on symloop + urlparse, reuse reported)"

# Chaos solver differential: with an injected-unknown plan armed on a
# fixed seed, incremental must degrade exactly as fresh does — same
# [incomplete] suffixes, same final case set (injection fires per
# canonical query, before mode dispatch).
chaos_fresh=$(mktemp /tmp/s2e-chaosfresh-XXXXXX.txt)
trap 'rm -f "$stats_file" "$serial_out" "$dist_out" "$merge_out" "$solver_out" "$url_fresh" "$chaos_fresh"' EXIT
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload symloop \
  --jobs 1 --seconds 30 --fault-plan 'solver=unknown:0.05' --fault-seed 11 \
  --solver fresh --cases > "$chaos_fresh"
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload symloop \
  --jobs 1 --seconds 30 --fault-plan 'solver=unknown:0.05' --fault-seed 11 \
  --solver incremental --cases > "$solver_out"
grep '|' "$chaos_fresh" > "$chaos_fresh.cases"
grep '|' "$solver_out" > "$solver_out.cases"
diff "$chaos_fresh.cases" "$solver_out.cases" > /dev/null \
  || { echo "CI: chaos cases diverge between solver modes" >&2; exit 1; }
rm -f "$chaos_fresh.cases" "$solver_out.cases"
echo "CI: chaos solver differential passed (incremental degrades like fresh)"

# Cold-solve exactness: case bytes are a function of the cold solve's CNF
# and search trajectory (DESIGN.md §12), so a solver change that moves a
# single decision can change them.  The two case-heavy benchmark
# workloads must still emit exactly their committed expected case sets.
for w in solver-pcnet cases-rtl8029; do
  last=$(dune exec bench/e2e/e2e.exe -- one --workload "$w" | tail -n 1)
  printf '%s\n' "$last" | grep -q '"correct":true' \
    && printf '%s\n' "$last" | grep -q '"failed":0[,}]' \
    || { echo "CI: $w cases differ from bench/e2e/expected" >&2; exit 1; }
done
echo "CI: cold-solve exactness smoke test passed (solver-pcnet, cases-rtl8029)"

# Chaos smoke test: exploration with an armed fault plan and solver
# watchdog must complete cleanly in both execution modes (recovery, not
# crashes) and report a nonzero injected-fault count.
chaos_out=$(mktemp /tmp/s2e-chaos-XXXXXX.txt)
trap 'rm -f "$stats_file" "$serial_out" "$dist_out" "$merge_out" "$solver_out" "$url_fresh" "$chaos_fresh" "$merge_stats" "$trace_json" "$traced_out" "$chaos_out"' EXIT
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload urlparse \
  --jobs 2 --seconds 5 --solver-timeout-ms 10000 \
  --fault-plan 'dev.read=err:0.05,irq=spurious:0.02,solver=latency:0.05' \
  > "$chaos_out" \
  || { echo "CI: jobs-mode chaos run failed" >&2; exit 1; }
injected=$(sed -n 's/^resilience: .* \([0-9][0-9]*\) injected faults$/\1/p' "$chaos_out")
[ -n "$injected" ] && [ "$injected" -gt 0 ] \
  || { echo "CI: jobs-mode chaos run injected no faults" >&2; exit 1; }
echo "CI: jobs-mode chaos smoke test passed ($injected faults injected)"

# Transport-only plan at procs=2: corrupted frames must be recovered by
# NAK/retransmit with zero lost work -- the case set must still equal
# the clean serial run's.
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload symloop \
  --procs 2 --seconds 30 --fault-plan 'proto=corrupt:0.3' --cases \
  > "$chaos_out" \
  || { echo "CI: procs-mode chaos run failed" >&2; exit 1; }
injected=$(sed -n 's/^resilience: .* \([0-9][0-9]*\) injected faults$/\1/p' "$chaos_out")
[ -n "$injected" ] && [ "$injected" -gt 0 ] \
  || { echo "CI: procs-mode chaos run injected no faults" >&2; exit 1; }
grep '|' "$serial_out" > "$serial_out.cases"
grep '|' "$chaos_out" > "$chaos_out.cases"
diff "$serial_out.cases" "$chaos_out.cases" > /dev/null \
  || { echo "CI: chaos dist test cases differ from clean serial" >&2; exit 1; }
rm -f "$serial_out.cases" "$chaos_out.cases"
echo "CI: procs-mode chaos smoke test passed ($injected faults injected, cases == serial)"

# TCP cluster smoke: coordinator on loopback plus two remote
# workers; SIGKILL one mid-run and join a replacement.  The run must
# exit 0 with zero abandoned items -- transport loss requeues work, it
# never poisons it -- and the report must count all three joins.
cluster_out=$(mktemp /tmp/s2e-cluster-XXXXXX.txt)
trap 'rm -f "$stats_file" "$serial_out" "$dist_out" "$merge_out" "$solver_out" "$url_fresh" "$chaos_fresh" "$merge_stats" "$trace_json" "$traced_out" "$chaos_out" "$cluster_out"' EXIT
cli=_build/default/bin/s2e_cli.exe
"$cli" serve --driver nulldrv --workload urlparse --seconds 12 \
  --listen 127.0.0.1:0 --lease 2 > "$cluster_out" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$cluster_out")
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || { echo "CI: serve never printed its port" >&2; exit 1; }
"$cli" worker --driver nulldrv --workload urlparse \
  --connect 127.0.0.1:"$port" > /dev/null 2>&1 &
w1=$!
"$cli" worker --driver nulldrv --workload urlparse \
  --connect 127.0.0.1:"$port" > /dev/null 2>&1 &
w2=$!
sleep 4
kill -9 "$w1" 2>/dev/null || true
"$cli" worker --driver nulldrv --workload urlparse \
  --connect 127.0.0.1:"$port" > /dev/null 2>&1 &
w3=$!
serve_rc=0
wait "$serve_pid" || serve_rc=$?
kill "$w2" "$w3" 2>/dev/null || true
wait "$w1" "$w2" "$w3" 2>/dev/null || true
[ "$serve_rc" -eq 0 ] \
  || { echo "CI: cluster serve exited $serve_rc" >&2; cat "$cluster_out" >&2; exit 1; }
if grep -q '^abandoned item' "$cluster_out"; then
  echo "CI: cluster run abandoned work" >&2
  cat "$cluster_out" >&2
  exit 1
fi
joins=$(sed -n 's/^cluster: \([0-9][0-9]*\) joins.*/\1/p' "$cluster_out")
[ -n "$joins" ] && [ "$joins" -ge 3 ] \
  || { echo "CI: expected >=3 cluster joins, got '${joins:-none}'" >&2; exit 1; }
leaves=$(sed -n 's/^cluster: .*, \([0-9][0-9]*\) leaves.*/\1/p' "$cluster_out")
[ -n "$leaves" ] && [ "$leaves" -ge 1 ] \
  || { echo "CI: killed worker was not counted as a leave" >&2; exit 1; }
echo "CI: tcp cluster smoke test passed ($joins joins, $leaves leaves)"

# Mixed-cluster smoke: serve spawns one owned worker (the real CLI Exec
# path, dialing the serve listener) and one remote worker joins once the
# port is printed.  The run must exit 0, abandon nothing, and emit
# exactly the serial run's test cases.
mixed_out=$(mktemp /tmp/s2e-mixed-XXXXXX.txt)
trap 'rm -f "$stats_file" "$serial_out" "$dist_out" "$merge_out" "$solver_out" "$url_fresh" "$chaos_fresh" "$merge_stats" "$trace_json" "$traced_out" "$chaos_out" "$cluster_out" "$mixed_out"' EXIT
"$cli" serve --driver nulldrv --workload symloop --procs 1 --cases \
  --seconds 30 --listen 127.0.0.1:0 > "$mixed_out" &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$mixed_out")
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || { echo "CI: mixed serve never printed its port" >&2; exit 1; }
"$cli" worker --driver nulldrv --workload symloop \
  --connect 127.0.0.1:"$port" > /dev/null 2>&1 &
w1=$!
serve_rc=0
wait "$serve_pid" || serve_rc=$?
kill "$w1" 2>/dev/null || true
wait "$w1" 2>/dev/null || true
[ "$serve_rc" -eq 0 ] \
  || { echo "CI: mixed serve exited $serve_rc" >&2; cat "$mixed_out" >&2; exit 1; }
if grep -q '^abandoned item' "$mixed_out"; then
  echo "CI: mixed cluster run abandoned work" >&2
  cat "$mixed_out" >&2
  exit 1
fi
grep '|' "$serial_out" > "$serial_out.cases"
grep '|' "$mixed_out" > "$mixed_out.cases"
diff "$serial_out.cases" "$mixed_out.cases" > /dev/null \
  || { echo "CI: mixed cluster test cases differ from serial" >&2; exit 1; }
rm -f "$serial_out.cases" "$mixed_out.cases"
echo "CI: mixed cluster smoke test passed (owned + remote worker, cases == serial)"

# Distributed bench must emit its BENCH JSON line within a small budget,
# including the TCP leg's delta-snapshot compression ratio.
bench_dist=$(S2E_BENCH_SECONDS=5 timeout 90 dune exec bench/main.exe dist \
  | grep '^BENCH {"name":"dist_explore"') \
  || { echo "CI: bench dist emitted no BENCH line" >&2; exit 1; }
printf '%s\n' "$bench_dist" | grep -q '"snapshot_delta_ratio":' \
  || { echo "CI: bench dist missing snapshot_delta_ratio" >&2; exit 1; }
echo "CI: bench dist smoke test passed"

# Solver bench: the incremental instance ring must cut SAT-core wall to
# at most 0.8x fresh per-query solving on the breakdown workload, at a
# byte-identical case set (the headline ratio is ~0.2; 0.8 catches a
# regressed ring without flaking on machine noise).
solver_bench=$(S2E_BENCH_SECONDS=5 timeout 300 dune exec bench/main.exe solver \
  | grep '^BENCH {"name":"solver"') \
  || { echo "CI: bench solver emitted no BENCH line" >&2; exit 1; }
ratio=$(printf '%s\n' "$solver_bench" \
  | sed -n 's/.*"inc_over_fresh":\([0-9.]*\).*/\1/p')
[ -n "$ratio" ] || { echo "CI: bench solver missing inc_over_fresh" >&2; exit 1; }
ok=$(awk -v v="$ratio" 'BEGIN { print (v <= 0.8) ? 1 : 0 }')
[ "$ok" = 1 ] \
  || { echo "CI: bench solver inc_over_fresh=$ratio above 0.8x floor" >&2; exit 1; }
printf '%s\n' "$solver_bench" | grep -q '"cases_equal":true' \
  || { echo "CI: bench solver case sets diverged between modes" >&2; exit 1; }
reuse=$(printf '%s\n' "$solver_bench" \
  | sed -n 's/.*"reuse_rate":\([0-9.]*\).*/\1/p')
ok=$(awk -v v="$reuse" 'BEGIN { print (v > 0) ? 1 : 0 }')
[ "$ok" = 1 ] \
  || { echo "CI: bench solver realized no prefix reuse" >&2; exit 1; }
echo "CI: bench solver smoke test passed (inc/fresh=$ratio, reuse=$reuse)"

# Expression-interning bench: the microbenchmark must emit its BENCH line
# and every speedup column must clear the 2x acceptance floor.
expr_bench=$(S2E_BENCH_SECONDS=5 timeout 120 dune exec bench/main.exe expr \
  | grep '^BENCH {"name":"expr_intern"') \
  || { echo "CI: bench expr emitted no BENCH line" >&2; exit 1; }
for field in equal_speedup hash_speedup slice_speedup; do
  v=$(printf '%s\n' "$expr_bench" \
    | sed -n "s/.*\"$field\":\([0-9.]*\).*/\1/p")
  [ -n "$v" ] || { echo "CI: bench expr missing $field" >&2; exit 1; }
  ok=$(awk -v v="$v" 'BEGIN { print (v >= 2.0) ? 1 : 0 }')
  [ "$ok" = 1 ] \
    || { echo "CI: bench expr $field=$v below 2x floor" >&2; exit 1; }
done
echo "CI: bench expr smoke test passed"

# Merge bench: both workloads must clear the 5x path-reduction floor at
# identical case discovery (the headline number is ~15x; 5x catches a
# regressed policy without flaking on scheduler noise).
merge_bench=$(timeout 120 dune exec bench/main.exe merge \
  | grep '^BENCH {"name":"merge"') \
  || { echo "CI: bench merge emitted no BENCH line" >&2; exit 1; }
for field in urlparse_reduction symloop_reduction; do
  v=$(printf '%s\n' "$merge_bench" \
    | sed -n "s/.*\"$field\":\([0-9.]*\).*/\1/p")
  [ -n "$v" ] || { echo "CI: bench merge missing $field" >&2; exit 1; }
  ok=$(awk -v v="$v" 'BEGIN { print (v >= 5.0) ? 1 : 0 }')
  [ "$ok" = 1 ] \
    || { echo "CI: bench merge $field=$v below 5x floor" >&2; exit 1; }
done
printf '%s\n' "$merge_bench" | grep -q '"urlparse_cases_equal":true' \
  && printf '%s\n' "$merge_bench" | grep -q '"symloop_cases_equal":true' \
  || { echo "CI: bench merge case sets diverged" >&2; exit 1; }
echo "CI: bench merge smoke test passed"

# ISA-oracle smoke test: 500 generated blocks plus the checked-in
# urlparse corpus must replay with zero divergences (the oracle exits 1
# and dumps a repro on any divergence), and a fresh capture of the
# urlparse workload must also replay cleanly end to end.
oracle_dir=$(mktemp -d /tmp/s2e-oracle-XXXXXX)
trap 'rm -f "$stats_file" "$serial_out" "$dist_out" "$merge_out" "$solver_out" "$url_fresh" "$chaos_fresh" "$merge_stats" "$trace_json" "$traced_out" "$chaos_out" "$cluster_out" "$mixed_out"; rm -rf "$oracle_dir"' EXIT
dune exec bin/s2e_cli.exe -- oracle --count 500 --seed 1 \
  --corpus examples/oracle/urlparse.corpus --repro-dir "$oracle_dir" \
  > "$oracle_dir/out.txt" \
  || { echo "CI: oracle run diverged or failed" >&2; cat "$oracle_dir/out.txt" >&2; exit 1; }
grep -q '^divergences: none$' "$oracle_dir/out.txt" \
  || { echo "CI: oracle run reported divergences" >&2; exit 1; }
dune exec bin/s2e_cli.exe -- oracle --count 0 --seed 1 \
  --capture urlparse --driver nulldrv --seconds 5 --repro-dir "$oracle_dir" \
  > "$oracle_dir/cap.txt" \
  || { echo "CI: oracle capture/replay diverged or failed" >&2; cat "$oracle_dir/cap.txt" >&2; exit 1; }
grep -q '^divergences: none$' "$oracle_dir/cap.txt" \
  || { echo "CI: oracle capture/replay reported divergences" >&2; exit 1; }
captured=$(sed -n 's/^captured \([0-9][0-9]*\) block(s).*/\1/p' "$oracle_dir/cap.txt")
[ -n "$captured" ] && [ "$captured" -gt 0 ] \
  || { echo "CI: oracle captured no blocks" >&2; exit 1; }
echo "CI: oracle smoke test passed (500 generated + corpus + $captured captured blocks)"
