#!/bin/sh
# Tier-1 verification: full build plus the whole test suite.
# Run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."
dune build @all
dune runtest

# Every scratch file lives in one directory, removed on any exit.
tmp=$(mktemp -d /tmp/s2e-ci-XXXXXX)
trap 'rm -rf "$tmp"' EXIT

# Help smoke test: every subcommand's --help=plain must render without a
# cmdliner doc-string error (cmdliner reports a malformed doc string on
# stderr and still exits 0).
cli=_build/default/bin/s2e_cli.exe
subcommands=$("$cli" --help=plain \
  | sed -n '/^COMMANDS$/,/^[A-Z]/s/^       \([a-z][a-z]*\) .*/\1/p')
[ -n "$subcommands" ] || { echo "CI: no subcommands in s2e_cli --help" >&2; exit 1; }
# The empty first word runs the top-level help.
for c in "" $subcommands; do
  "$cli" $c --help=plain > /dev/null 2> "$tmp/help.err" \
    || { echo "CI: s2e_cli $c --help=plain failed" >&2; exit 1; }
  if grep -q 'cmdliner error' "$tmp/help.err"; then
    echo "CI: s2e_cli $c --help=plain reports a doc-string error:" >&2
    cat "$tmp/help.err" >&2
    exit 1
  fi
done
echo "CI: help smoke test passed (s2e_cli and $(echo $subcommands | wc -w) subcommands)"

# Telemetry smoke test: a short parallel exploration must stream parsable
# run-stats JSONL (>= 2 periodic snapshots + a final line), and the stats
# renderer must accept the file.  Both surfaces render the engine and
# solver lines from one registry snapshot through one renderer, so the
# run's summary and `stats` of its final line must print them alike.
stats_file=$tmp/stats.jsonl
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload urlparse \
  --jobs 2 --seconds 2 --stats-out "$stats_file" --stats-interval 0.05 \
  > "$tmp/summary.txt"
test -s "$stats_file" || { echo "CI: stats file empty" >&2; exit 1; }
lines=$(wc -l < "$stats_file")
[ "$lines" -ge 3 ] || { echo "CI: expected >=3 snapshots, got $lines" >&2; exit 1; }
grep -q '"kind":"final"' "$stats_file" \
  || { echo "CI: no final snapshot line" >&2; exit 1; }
# Engines count into their own records and flush them to the registry
# at path ends: a periodic line must already show executed instructions
# (a flush only at run end would leave every periodic line at zero).
grep '"kind":"periodic"' "$stats_file" \
  | grep -q '"engine\.instructions":[1-9]' \
  || { echo "CI: no periodic snapshot shows engine.instructions > 0" >&2; exit 1; }
dune exec bin/s2e_cli.exe -- stats "$stats_file" > "$tmp/stats.txt" \
  || { echo "CI: stats renderer rejected the JSONL" >&2; exit 1; }
shared='^(paths completed|states created|forks|instructions|solver|sat search|cnf|incremental|resilience): '
grep -E "$shared" "$tmp/summary.txt" > "$tmp/summary.shared"
grep -E "$shared" "$tmp/stats.txt" > "$tmp/stats.shared"
[ "$(wc -l < "$tmp/summary.shared")" -ge 5 ] \
  || { echo "CI: summary printed too few engine/solver lines" >&2; exit 1; }
diff "$tmp/summary.shared" "$tmp/stats.shared" \
  || { echo "CI: stats of the run's JSONL differs from its summary" >&2; exit 1; }
echo "CI: telemetry smoke test passed ($lines snapshot lines, summary == stats on $(wc -l < "$tmp/stats.shared") lines)"

# Distributed-exploration smoke test: a two-process run on a small
# workload must succeed, report its process count, and emit exactly the
# serial run's test cases (the dist determinism guarantee).
serial_out=$tmp/serial.txt
dist_out=$tmp/dist.txt
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

# procs x jobs: worker processes that each fan their slices out over
# domains must emit the serial run's cases, completed paths and forks.
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload symloop \
  --procs 2 --jobs 2 --seconds 30 --cases > "$dist_out"
for key in '|' '^paths completed: ' '^forks: '; do
  grep -- "$key" "$serial_out" > "$serial_out.key"
  grep -- "$key" "$dist_out" > "$dist_out.key"
  diff "$serial_out.key" "$dist_out.key" > /dev/null \
    || { echo "CI: procs=2 jobs=2 '$key' lines differ from serial" >&2; exit 1; }
done
rm -f "$serial_out.key" "$dist_out.key"
echo "CI: procs x jobs smoke test passed (procs=2 jobs=2 == jobs=1: cases, paths, forks)"

# rtl8029 procs differential: the rtl8029 exerciser mints symbolic
# hardware-port inputs on every path, after its first fork, so its
# worker processes mint ids mid-run and adopt each other's states.  Each
# worker mints in its own id space; a drained --procs 2 run must emit
# exactly the serial run's case lines.
rtl_serial=$tmp/rtl-serial.txt
rtl_dist=$tmp/rtl-dist.txt
dune exec bin/s2e_cli.exe -- explore --driver rtl8029 --workload exerciser \
  --jobs 1 --seconds 300 --cases > "$rtl_serial"
dune exec bin/s2e_cli.exe -- explore --driver rtl8029 --workload exerciser \
  --procs 2 --seconds 300 --cases > "$rtl_dist"
for f in "$rtl_serial" "$rtl_dist"; do
  done_paths=$(sed -n 's/^paths completed: \([0-9][0-9]*\)$/\1/p' "$f")
  created=$(sed -n 's/^states created: \([0-9][0-9]*\)$/\1/p' "$f")
  [ -n "$done_paths" ] && [ "$done_paths" = "$created" ] \
    || { echo "CI: rtl8029 exerciser run did not drain ($done_paths of $created states completed)" >&2; exit 1; }
done
grep '|' "$rtl_serial" | sort > "$rtl_serial.cases"
grep '|' "$rtl_dist" | sort > "$rtl_dist.cases"
diff "$rtl_serial.cases" "$rtl_dist.cases" > /dev/null \
  || { echo "CI: rtl8029 exerciser procs=2 cases differ from serial" >&2; exit 1; }
echo "CI: rtl8029 procs differential passed ($(wc -l < "$rtl_dist.cases") cases, procs=2 == jobs=1)"
# Its serial leg is the comparison-heavy search-trajectory pin: case
# extraction there is many small cold solves over unsigned and signed
# comparisons, so a change to how comparisons are encoded that moves a
# decision fails here even where the pcnet pins below hold (folding
# constant majority gates moved its conflicts from 1458 to 0).
got=$(sed -n 's/^sat search: //p' "$rtl_serial")
want='690831 decisions, 1458 conflicts'
[ "$got" = "$want" ] \
  || { echo "CI: rtl8029 exerciser serial run: sat search '$got', expected '$want'" >&2; exit 1; }
echo "CI: rtl8029 search-trajectory pin passed ($want)"

# Merge smoke test: --merge=auto must emit exactly the enumerated
# (--merge=off, the default) run's test cases after case-tree expansion,
# while completing strictly fewer paths.
merge_out=$tmp/merge.txt
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
merge_stats=$tmp/merge-stats.jsonl
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
trace_json=$tmp/trace.json
traced_out=$tmp/traced.txt
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
# and the incremental run must report realized prefix reuse.  The urlparse
# leg of this differential is a dune test (test/test_solver.ml).
solver_out=$tmp/solver.txt
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
rm -f "$serial_out.cases" "$solver_out.cases"
echo "CI: solver-mode differential passed (fresh == incremental on symloop, reuse reported)"

# Deep-path solver-mode differential: symloop's paths are shallow, so the
# instance ring's long assumption stacks and the SAT trail they keep
# between solves (DESIGN.md §12) are exercised on the pcnet exerciser,
# whose paths stack dozens of constraints.  Both runs must drain (every
# state created completes) and emit identical case sets.
deep_fresh=$tmp/deep-fresh.txt
deep_inc=$tmp/deep-inc.txt
dune exec bin/s2e_cli.exe -- explore --driver pcnet --workload exerciser \
  --jobs 1 --seconds 300 --solver fresh --cases > "$deep_fresh"
dune exec bin/s2e_cli.exe -- explore --driver pcnet --workload exerciser \
  --jobs 1 --seconds 300 --cases > "$deep_inc"
for f in "$deep_fresh" "$deep_inc"; do
  done_paths=$(sed -n 's/^paths completed: \([0-9][0-9]*\)$/\1/p' "$f")
  created=$(sed -n 's/^states created: \([0-9][0-9]*\)$/\1/p' "$f")
  [ -n "$done_paths" ] && [ "$done_paths" = "$created" ] \
    || { echo "CI: pcnet exerciser run did not drain ($done_paths of $created states completed)" >&2; exit 1; }
done
grep '|' "$deep_fresh" | sort > "$deep_fresh.cases"
grep '|' "$deep_inc" | sort > "$deep_inc.cases"
diff "$deep_fresh.cases" "$deep_inc.cases" > /dev/null \
  || { echo "CI: pcnet exerciser cases differ between --solver fresh and incremental" >&2; exit 1; }
echo "CI: deep-path solver-mode differential passed ($(wc -l < "$deep_inc.cases") pcnet exerciser cases, fresh == incremental)"

# Search-trajectory pin: the same two drained runs' SAT decisions and
# conflicts (the `sat search:` line) must equal these committed values.
# Case bytes can survive a moved decision; these counts cannot, so a
# change to branching, propagation or learning order fails here even
# when every case matches.  The fresh leg is all cold solves.
for pin in "$deep_fresh:400723 decisions, 4195 conflicts" \
  "$deep_inc:407187 decisions, 46 conflicts"; do
  f=${pin%%:*}
  want=${pin#*:}
  got=$(sed -n 's/^sat search: //p' "$f")
  [ "$got" = "$want" ] \
    || { echo "CI: pcnet exerciser $(basename "$f" .txt) run: sat search '$got', expected '$want'" >&2; exit 1; }
done
echo "CI: search-trajectory pin passed (pcnet exerciser fresh and incremental decisions and conflicts exact)"
# CNF-size pin: the fresh leg's SAT variables and problem clauses (the
# `cnf:` line).  A change that makes the blaster emit more gates fails
# here; one that shrinks the CNF updates this value and says so in
# CHANGES.md.
got=$(sed -n 's/^cnf: //p' "$deep_fresh")
want='16647369 variables, 23976621 clauses'
[ "$got" = "$want" ] \
  || { echo "CI: pcnet exerciser fresh run: cnf '$got', expected '$want'" >&2; exit 1; }
echo "CI: CNF-size pin passed (pcnet exerciser fresh: $want)"

# Chaos solver differential: with an injected-unknown plan armed on a
# fixed seed, incremental must degrade exactly as fresh does — same
# [incomplete] suffixes, same final case set (injection fires per
# canonical query, before mode dispatch).
chaos_fresh=$tmp/chaos-fresh.txt
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

# Cold-solve exactness and layer counters: case bytes are a function of
# the cold solve's CNF and search trajectory (DESIGN.md §12), so a solver
# change that moves a single decision can change them.  Every benchmark
# workload must still emit exactly its committed expected outputs.
#
# Serial exploration is deterministic, so the four serial workloads'
# outputs digest and their count and ratio layers (forks, searcher
# selects, solver queries and cache/reuse rates, case queries, merges,
# live states) must also equal bin/ci-counters.expected exactly, which
# pins the incremental ring's reuse and the merge reduction; timing stays
# with the bench/e2e `compare` loop, not a shared CI machine.  Times,
# gc.*, the solver.p99_us time bucket and dist.* are left out, and so
# are procs-url3's layers, which depend on how its two workers are
# scheduled.  A change that legitimately moves a counter updates the
# table (the diff below is the new table) and says so in CHANGES.md.
counters='outputs|executor\.forks|executor\.sym_insn_frac|dbt\.tb_miss_rate'
counters="$counters|dbt\.invalidations|searcher\.selects|solver\.queries"
counters="$counters|solver\.sat_frac|solver\.cache_hit_rate|solver\.inc_reuse_rate"
counters="$counters|solver\.unknowns|solver\.max_constraints|cases\.queries"
counters="$counters|cases\.per_state|merge\.merges|merge\.rejected"
counters="$counters|merge\.carrier_aborts|merge\.lost_cases|mem\.max_live_states"
counters="$counters|mem\.footprint_words"
: > "$tmp/counters"
for w in solver-pcnet exec-urlparse cases-rtl8029 merge-url2 procs-url3; do
  last=$(dune exec bench/e2e/e2e.exe -- one --workload "$w" --traced | tail -n 1)
  printf '%s\n' "$last" | grep -q '"correct":true' \
    && printf '%s\n' "$last" | grep -q '"failed":0[,}]' \
    || { echo "CI: $w outputs differ from bench/e2e/expected" >&2; exit 1; }
  # Allocation gate: the concrete fast path (DESIGN.md, "Concrete fast
  # path") keeps exec-urlparse near 0.33 GB allocated per unit, a value
  # deterministic to about 1e-5; the engine before it allocated 1.21 GB.
  if [ "$w" = exec-urlparse ]; then
    alloc=$(printf '%s\n' "$last" | tr ',{}' '\n\n\n' \
      | sed -n 's/^"gc\.alloc_gb":\([0-9.eE+-]*\)$/\1/p')
    [ -n "$alloc" ] \
      || { echo "CI: exec-urlparse reported no gc.alloc_gb" >&2; exit 1; }
    awk -v a="$alloc" 'BEGIN { exit !(a <= 0.80) }' \
      || { echo "CI: exec-urlparse allocated $alloc GB, above the 0.80 GB gate" >&2; exit 1; }
    echo "CI: allocation gate passed (exec-urlparse gc.alloc_gb $alloc <= 0.80)"
    # Heap gate: with guest memory in 8-byte copy-on-write chunks over one
    # shared base image (DESIGN.md §8c) the traced unit peaks near 10.5 MB;
    # one overlay node per written byte and a base copy per boot read 13.2.
    heap=$(printf '%s\n' "$last" | tr ',{}' '\n\n\n' \
      | sed -n 's/^"peak_heap_mb":\([0-9.eE+-]*\)$/\1/p')
    [ -n "$heap" ] \
      || { echo "CI: exec-urlparse reported no peak_heap_mb" >&2; exit 1; }
    awk -v h="$heap" 'BEGIN { exit !(h <= 12.0) }' \
      || { echo "CI: exec-urlparse peaked at $heap MB, above the 12.0 MB gate" >&2; exit 1; }
    echo "CI: heap gate passed (exec-urlparse peak_heap_mb $heap <= 12.0)"
  fi
  [ "$w" = procs-url3 ] && continue
  printf '%s\n' "$last" | tr ',{}' '\n\n\n' | grep -E "^\"($counters)\":" \
    | sed "s/^\"\([^\"]*\)\":\"\{0,1\}\([^\"]*\)\"\{0,1\}\$/$w \1 \2/" \
    >> "$tmp/counters"
done
diff -u bin/ci-counters.expected "$tmp/counters" \
  || { echo "CI: e2e layer counters differ from bin/ci-counters.expected" >&2; exit 1; }
echo "CI: cold-solve exactness and counter test passed (5 workloads correct, $(wc -l < "$tmp/counters") counters exact)"

# Chaos smoke test: exploration with an armed fault plan and solver
# watchdog must complete cleanly in both execution modes (recovery, not
# crashes) and report a nonzero injected-fault count.
chaos_out=$tmp/chaos.txt
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload urlparse \
  --jobs 2 --seconds 5 --solver-timeout-ms 10000 \
  --fault-plan 'dev.read=err:0.05,irq=spurious:0.02,solver=latency:0.05' \
  > "$chaos_out" \
  || { echo "CI: jobs-mode chaos run failed" >&2; exit 1; }
injected=$(sed -n 's/^resilience: .* \([0-9][0-9]*\) injected faults$/\1/p' "$chaos_out")
[ -n "$injected" ] && [ "$injected" -gt 0 ] \
  || { echo "CI: jobs-mode chaos run injected no faults" >&2; exit 1; }
echo "CI: jobs-mode chaos smoke test passed ($injected faults injected)"

# Transport-only plan at procs=2: a corrupted frame reads as a
# disconnect and the owned worker rejoins, with zero lost work -- the
# case set must still equal the clean serial run's.  Each process corrupts
# its first two sends, so every run injects faults however fast it ends
# (a probabilistic plan drew none in about 1 of 40 runs).
dune exec bin/s2e_cli.exe -- explore --driver nulldrv --workload symloop \
  --procs 2 --seconds 30 --fault-plan 'proto=corrupt:1.0#2' --cases \
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
cluster_out=$tmp/cluster.txt
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
# The scratch directory has once vanished between this step and the next;
# fail here, naming the step, rather than on a later missing file.
[ -d "$tmp" ] \
  || { echo "CI: scratch directory $tmp is gone after the tcp cluster smoke test" >&2; exit 1; }

# Mixed-cluster smoke: serve spawns one owned worker (the real CLI Exec
# path, dialing the serve listener) and one remote worker joins once the
# port is printed.  The run must exit 0, abandon nothing, and emit
# exactly the serial run's test cases.
mixed_out=$tmp/mixed.txt
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
[ -d "$tmp" ] \
  || { echo "CI: scratch directory $tmp is gone after the mixed cluster run" >&2; exit 1; }
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

# ISA-oracle smoke test: 500 generated blocks plus the checked-in
# urlparse corpus must replay with zero divergences (the oracle exits 1
# and dumps a repro on any divergence), and a fresh capture of the
# urlparse workload must also replay cleanly end to end.
oracle_dir=$tmp/oracle
mkdir "$oracle_dir"
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
