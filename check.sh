#!/bin/sh
# Repo verification: build, full test suite, then an end-to-end
# fault-injection run of the real CLI (SQLGRAPH_FAULT armed via the
# environment, exercising the governor's unwind path outside the test
# harness). Exits nonzero on any failure.
set -e

cd "$(dirname "$0")"

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== fault-injection e2e (SQLGRAPH_FAULT=site=bfs)"
script=$(mktemp /tmp/sqlgraph_check_XXXXXX.sql)
out=$(mktemp /tmp/sqlgraph_check_XXXXXX.out)
trap 'rm -f "$script" "$out"' EXIT
cat > "$script" <<'EOF'
CREATE TABLE e (src INTEGER, dst INTEGER);
INSERT INTO e VALUES (1, 2), (2, 3);
SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER e EDGE (src, dst);
EOF

# The armed fault must kill the traversal: the run exits nonzero and
# reports the injected fault as a resource error.
if SQLGRAPH_FAULT=site=bfs dune exec bin/sqlgraph_cli.exe -- run "$script" \
    > "$out" 2>&1; then
  echo "FAIL: fault-armed run unexpectedly succeeded"
  cat "$out"
  exit 1
fi
grep -q "injected fault at bfs" "$out" || {
  echo "FAIL: expected 'injected fault at bfs' in output:"
  cat "$out"
  exit 1
}

# Without the fault the same script must succeed.
dune exec bin/sqlgraph_cli.exe -- run "$script" > "$out" 2>&1
grep -q "| 2" "$out" || {
  echo "FAIL: clean run did not produce the distance"
  cat "$out"
  exit 1
}

echo "== EXPLAIN ANALYZE smoke"
ea_script=$(mktemp /tmp/sqlgraph_check_XXXXXX.sql)
metrics=$(mktemp /tmp/sqlgraph_check_XXXXXX.json)
trap 'rm -f "$script" "$out" "$ea_script" "$metrics" BENCH_smoke.json' EXIT
cat > "$ea_script" <<'EOF'
CREATE TABLE e (src INTEGER, dst INTEGER);
INSERT INTO e VALUES (1, 2), (2, 3), (1, 4);
SET parallelism = 2;
EXPLAIN ANALYZE SELECT CHEAPEST SUM(1) WHERE 1 REACHES 3 OVER e EDGE (src, dst);
EOF
dune exec bin/sqlgraph_cli.exe -- run "$ea_script" \
    --json-metrics "$metrics" > "$out" 2>&1
for needle in "rows=" "time=" "traverse=" "settled=" "csr="; do
  grep -q "$needle" "$out" || {
    echo "FAIL: EXPLAIN ANALYZE output missing '$needle':"
    cat "$out"
    exit 1
  }
done
grep -q '"schema": "sqlgraph-metrics-v1"' "$metrics" || {
  echo "FAIL: --json-metrics did not emit sqlgraph-metrics-v1:"
  cat "$metrics"
  exit 1
}

echo "== batched traversal smoke (multi-source EXPLAIN ANALYZE)"
ms_script=$(mktemp /tmp/sqlgraph_check_XXXXXX.sql)
trap 'rm -f "$script" "$out" "$ea_script" "$metrics" "$ms_script" BENCH_smoke.json BENCH_pairs_smoke.json BENCH_pairs_scaling.json' EXIT
cat > "$ms_script" <<'EOF'
CREATE TABLE e (src INTEGER, dst INTEGER);
INSERT INTO e VALUES (1, 2), (2, 3), (1, 4), (4, 3), (3, 5);
CREATE TABLE pairs (s INTEGER, d INTEGER);
INSERT INTO pairs VALUES (1, 3), (2, 5), (4, 5), (1, 5);
EXPLAIN ANALYZE SELECT s, d, CHEAPEST SUM(1) AS c FROM pairs
  WHERE s REACHES d OVER e EDGE (src, dst);
EOF
dune exec bin/sqlgraph_cli.exe -- run "$ms_script" > "$out" 2>&1
# a multi-source unweighted batch must route through the MS-BFS engine
grep -q "batched_waves=" "$out" || {
  echo "FAIL: multi-source EXPLAIN ANALYZE shows no batched_waves:"
  cat "$out"
  exit 1
}

echo "== bench micro --json + --trace-out smoke"
dune exec bench/main.exe -- micro --ratio 0.002 --json BENCH_smoke.json \
    --trace-out TRACE_smoke.json > "$out" 2>&1
grep -q '"schema": "sqlgraph-bench-v1"' BENCH_smoke.json || {
  echo "FAIL: bench micro --json did not emit sqlgraph-bench-v1"
  cat "$out"
  exit 1
}
grep -q '"ns_per_run"' BENCH_smoke.json || {
  echo "FAIL: BENCH_smoke.json has no measurements"
  cat BENCH_smoke.json
  exit 1
}

echo "== bench pairs --json smoke (scalar vs batched, byte-identity asserted)"
dune exec bench/main.exe -- pairs --ratio 0.01 --sources 32 \
    --json BENCH_pairs_smoke.json > "$out" 2>&1
grep -q '"schema": "sqlgraph-bench-v1"' BENCH_pairs_smoke.json || {
  echo "FAIL: bench pairs --json did not emit sqlgraph-bench-v1"
  cat "$out"
  exit 1
}
grep -q '"speedup_batched_vs_scalar"' BENCH_pairs_smoke.json || {
  echo "FAIL: BENCH_pairs_smoke.json has no speedup measurement"
  cat BENCH_pairs_smoke.json
  exit 1
}
# Scalar entries must report traversal counters as null (not 0): the
# scalar baseline runs no batched waves. Every entry must report the
# workers that ran, within 1..min(domains, host_cores).
dune exec test/json_lint.exe -- --bench-pairs BENCH_pairs_smoke.json || {
  echo "FAIL: BENCH_pairs_smoke.json failed the null-vs-zero counter lint"
  cat BENCH_pairs_smoke.json
  exit 1
}
dune exec test/json_lint.exe -- --bench-pairs BENCH_pairs.json || {
  echo "FAIL: committed BENCH_pairs.json failed the null-vs-zero counter lint"
  exit 1
}

echo "== bench pairs scaling gate (domains=4 <= 0.9x domains=1)"
# Full-size workload (ratio 1.0, 512 sources — the committed
# BENCH_pairs.json config). Every batch runs the same MS-BFS kernel
# through the same work-stealing scheduler, so this compares one kernel
# at 1 worker with the same kernel at min(4, host_cores) workers: a pure
# parallel gain. Perf gate on a possibly-noisy shared machine: the bench
# already takes the min of 3 timed runs per config; on top of that,
# allow up to 3 attempts before declaring a regression.
pairs_ok=0
for attempt in 1 2 3; do
  dune exec bench/main.exe -- pairs --json BENCH_pairs_scaling.json \
      > "$out" 2>&1
  d1=$(sed -n 's/.*"domains1_seconds": \([0-9.eE+-]*\).*/\1/p' \
      BENCH_pairs_scaling.json | head -1)
  d4=$(sed -n 's/.*"domains4_seconds": \([0-9.eE+-]*\).*/\1/p' \
      BENCH_pairs_scaling.json | head -1)
  w4=$(tr -d ' \n' < BENCH_pairs_scaling.json \
      | sed -n 's/.*"pairs\/batched-msbfs-domains4"[^}]*"workers":\([0-9]*\).*/\1/p')
  [ -n "$d1" ] && [ -n "$d4" ] || {
    echo "FAIL: BENCH_pairs_scaling.json has no domains1/domains4 seconds"
    cat BENCH_pairs_scaling.json
    exit 1
  }
  if awk "BEGIN { exit !($d4 <= 0.9 * $d1) }"; then
    pairs_ok=1
    break
  fi
  echo "   attempt $attempt: domains4 ${d4}s (${w4} workers) > 0.9 x domains1 ${d1}s, retrying"
done
[ "$pairs_ok" = 1 ] || {
  echo "FAIL: domains=4 (${d4}s, ${w4} workers) did not beat 0.9 x domains=1 (${d1}s, 1 worker) on 3 attempts"
  exit 1
}
echo "   domains1 ${d1}s (1 worker), domains4 ${d4}s (${w4} workers)"

echo "== tracing-off overhead (< 2% on bench pairs)"
# trace_off_overhead_pct is the repeat-run delta between two tracing-off
# passes: the cost of the always-compiled-in hooks when disabled.
off_pct=$(sed -n 's/.*"trace_off_overhead_pct": \([0-9.eE+-]*\).*/\1/p' \
    BENCH_pairs_smoke.json | head -1)
[ -n "$off_pct" ] || {
  echo "FAIL: BENCH_pairs_smoke.json has no trace_off_overhead_pct"
  cat BENCH_pairs_smoke.json
  exit 1
}
awk "BEGIN { exit !($off_pct < 2.0) }" || {
  echo "FAIL: tracing-off overhead $off_pct% >= 2%"
  exit 1
}
echo "   tracing-off overhead: $off_pct%"

echo "== catapult trace validation (bench micro --trace-out)"
trap 'rm -f "$script" "$out" "$ea_script" "$metrics" "$ms_script" BENCH_smoke.json BENCH_pairs_smoke.json BENCH_pairs_scaling.json TRACE_smoke.json' EXIT
# Valid JSON, >0 complete spans, per-domain tracks, and at least one
# span each for parse, CSR build and a traversal wave.
dune exec test/json_lint.exe -- --catapult TRACE_smoke.json \
    --require parse --require csr --require wave --min-tracks 2 || {
  echo "FAIL: TRACE_smoke.json failed catapult validation"
  exit 1
}

echo "== session metrics over a 100+ statement script (--metrics-out)"
obs_script=$(mktemp /tmp/sqlgraph_check_XXXXXX.sql)
prom=$(mktemp /tmp/sqlgraph_check_XXXXXX.prom)
slowlog=$(mktemp /tmp/sqlgraph_check_XXXXXX.ndjson)
trap 'rm -f "$script" "$out" "$ea_script" "$metrics" "$ms_script" "$obs_script" "$prom" "$slowlog" BENCH_smoke.json BENCH_pairs_smoke.json BENCH_pairs_scaling.json TRACE_smoke.json' EXIT
{
  echo "CREATE TABLE e (src INTEGER, dst INTEGER);"
  echo "INSERT INTO e VALUES (1, 2), (2, 3), (3, 4), (4, 5), (1, 5);"
  i=0
  while [ "$i" -lt 100 ]; do
    echo "SELECT CHEAPEST SUM(1) WHERE 1 REACHES 4 OVER e EDGE (src, dst);"
    i=$((i + 1))
  done
} > "$obs_script"
rm -f "$slowlog"
dune exec bin/sqlgraph_cli.exe -- run "$obs_script" \
    --metrics-out "$prom" --slow-query-ms 0 --slow-query-log "$slowlog" \
    > "$out" 2>&1
# Prometheus text exposition v0.0.4: every non-empty line is a HELP/TYPE
# comment or a sample "name{labels} value".
awk '
  /^$/ { next }
  /^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*/ { next }
  /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+]?([0-9]|\.[0-9]|Inf|NaN)/ { next }
  { print "bad prometheus line: " $0; bad = 1 }
  END { exit bad }
' "$prom" || {
  echo "FAIL: --metrics-out is not valid Prometheus text format"
  cat "$prom"
  exit 1
}
grep -q '^sqlgraph_statement_seconds_bucket{le="+Inf"}' "$prom" || {
  echo "FAIL: no cumulative histogram in Prometheus output"
  cat "$prom"
  exit 1
}
n_stmts=$(sed -n 's/^sqlgraph_statements_total \([0-9]*\)$/\1/p' "$prom")
[ -n "$n_stmts" ] && [ "$n_stmts" -ge 100 ] || {
  echo "FAIL: sqlgraph_statements_total=$n_stmts, expected >= 100"
  exit 1
}

echo "== slow-query log (--slow-query-ms 0 fires, huge threshold stays silent)"
# Threshold 0: every statement lands in the NDJSON log.
dune exec test/json_lint.exe -- --ndjson "$slowlog" || {
  echo "FAIL: slow-query log is not valid NDJSON"
  cat "$slowlog"
  exit 1
}
n_slow=$(grep -c . "$slowlog")
[ "$n_slow" -ge 100 ] || {
  echo "FAIL: slow-query log has $n_slow records, expected >= 100"
  exit 1
}
# A huge threshold must never fire.
rm -f "$slowlog"
dune exec bin/sqlgraph_cli.exe -- run "$ea_script" \
    --slow-query-ms 600000 --slow-query-log "$slowlog" > "$out" 2>&1
if [ -s "$slowlog" ]; then
  echo "FAIL: slow-query log fired below a 600s threshold:"
  cat "$slowlog"
  exit 1
fi

echo "== durability: kill -9 mid-stream, then recover"
ddir=$(mktemp -d /tmp/sqlgraph_check_dd_XXXXXX)
ack=$(mktemp /tmp/sqlgraph_check_XXXXXX.ack)
trap 'rm -f "$script" "$out" "$ea_script" "$metrics" "$ms_script" "$obs_script" "$prom" "$slowlog" "$ack" BENCH_smoke.json BENCH_pairs_smoke.json BENCH_pairs_scaling.json TRACE_smoke.json BENCH_wal_smoke.json; rm -rf "$ddir"' EXIT
cli=_build/default/bin/sqlgraph_cli.exe
dune build bin/sqlgraph_cli.exe
# Stream INSERTs into a durable repl and kill -9 the process mid-stream.
# Every acknowledged statement (an "INSERT 1" echo) must survive recovery;
# at most the in-flight statement may additionally appear.
{
  echo "CREATE TABLE t (a INTEGER);"
  i=0
  while [ "$i" -lt 5000 ]; do
    echo "INSERT INTO t VALUES ($i);"
    i=$((i + 1))
  done
} | "$cli" repl --data-dir "$ddir" > "$ack" 2>&1 &
cli_pid=$!
sleep 0.4
kill -9 "$cli_pid" 2>/dev/null || true
wait "$cli_pid" 2>/dev/null || true
acked=$(grep -c "INSERT 1" "$ack" || true)
[ "$acked" -ge 1 ] || {
  echo "FAIL: kill -9 landed before any INSERT was acknowledged; got:"
  tail -5 "$ack"
  exit 1
}
echo "SELECT COUNT(*) FROM t;" | "$cli" repl --data-dir "$ddir" > "$out" 2>&1
recovered=$(sed -n 's/^| \([0-9][0-9]*\) *|$/\1/p' "$out" | head -1)
[ -n "$recovered" ] || {
  echo "FAIL: recovery run produced no count:"
  cat "$out"
  exit 1
}
[ "$recovered" -ge "$acked" ] && [ "$recovered" -le $((acked + 2)) ] || {
  echo "FAIL: acknowledged $acked inserts but recovered $recovered rows"
  exit 1
}
echo "   acknowledged $acked inserts, recovered $recovered rows"

echo "== durability: torn WAL tail is truncated and reported"
rm -rf "$ddir"; mkdir "$ddir"
cat > "$script" <<'EOF'
CREATE TABLE t (a INTEGER);
INSERT INTO t VALUES (1);
INSERT INTO t VALUES (2);
EOF
"$cli" run "$script" --data-dir "$ddir" > "$out" 2>&1
wal="$ddir/wal-000000.log"
size=$(wc -c < "$wal")
head -c $((size - 4)) "$wal" > "$wal.torn" && mv "$wal.torn" "$wal"
echo "SELECT COUNT(*) FROM t;" | "$cli" repl --data-dir "$ddir" > "$out" 2>&1
grep -q "torn or corrupt" "$out" || {
  echo "FAIL: no torn-tail warning after truncating the WAL:"
  cat "$out"
  exit 1
}
grep -q "| 1" "$out" || {
  echo "FAIL: torn recovery did not keep the intact prefix:"
  cat "$out"
  exit 1
}

echo "== bench wal --json smoke (no-fsync overhead < 15%)"
# Perf gate on a possibly-noisy shared machine: the bench already takes
# the median of 7 paired runs; on top of that, allow up to 3 attempts
# before declaring a real regression.
wal_ok=0
for attempt in 1 2 3; do
  dune exec bench/main.exe -- wal --rows 25000 --json BENCH_wal_smoke.json \
      > "$out" 2>&1
  grep -q '"schema": "sqlgraph-bench-v1"' BENCH_wal_smoke.json || {
    echo "FAIL: bench wal --json did not emit sqlgraph-bench-v1"
    cat "$out"
    exit 1
  }
  wal_pct=$(sed -n 's/.*"nofsync_vs_memory_pct": \([0-9.eE+-]*\).*/\1/p' \
      BENCH_wal_smoke.json | head -1)
  [ -n "$wal_pct" ] || {
    echo "FAIL: BENCH_wal_smoke.json has no nofsync_vs_memory_pct"
    cat BENCH_wal_smoke.json
    exit 1
  }
  if awk "BEGIN { exit !($wal_pct < 15.0) }"; then
    wal_ok=1
    break
  fi
  echo "   attempt $attempt: wal --no-fsync overhead $wal_pct% >= 15%, retrying"
done
[ "$wal_ok" = 1 ] || {
  echo "FAIL: wal --no-fsync overhead $wal_pct% >= 15% on 3 attempts"
  exit 1
}
echo "   wal --no-fsync overhead: $wal_pct%"

echo "== server: 8 concurrent clients, kill -9 mid-burst, recover, SIGTERM drain"
sdir=$(mktemp -d /tmp/sqlgraph_check_sd_XXXXXX)
ackdir=$(mktemp -d /tmp/sqlgraph_check_ack_XXXXXX)
sock="$sdir/server.sock"
srv_log=$(mktemp /tmp/sqlgraph_check_XXXXXX.srvlog)
trap 'rm -f "$script" "$out" "$ea_script" "$metrics" "$ms_script" "$obs_script" "$prom" "$slowlog" "$ack" "$srv_log" BENCH_smoke.json BENCH_pairs_smoke.json BENCH_pairs_scaling.json TRACE_smoke.json BENCH_wal_smoke.json BENCH_server_smoke.json; rm -rf "$ddir" "$sdir" "$ackdir"' EXIT
"$cli" serve --socket "$sock" --data-dir "$sdir" > "$srv_log" 2>&1 &
srv_pid=$!
i=0
while [ "$i" -lt 100 ] && [ ! -S "$sock" ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$sock" ] || {
  echo "FAIL: server did not create $sock:"
  cat "$srv_log"
  exit 1
}
"$cli" client --socket "$sock" \
    -e "CREATE TABLE t (c INTEGER, v INTEGER)" > /dev/null 2>&1 || {
  echo "FAIL: client could not create table over the socket"
  cat "$srv_log"
  exit 1
}
# Eight concurrent sessions stream INSERTs; the server is kill -9'd
# mid-burst.  Every acknowledged INSERT must survive recovery.
for c in 1 2 3 4 5 6 7 8; do
  {
    i=0
    while [ "$i" -lt 2000 ]; do
      echo "INSERT INTO t VALUES ($c, $i)"
      i=$((i + 1))
    done
  } | "$cli" client --socket "$sock" > "$ackdir/c$c" 2>&1 &
done
sleep 0.6
kill -9 "$srv_pid" 2>/dev/null || true
wait "$srv_pid" 2>/dev/null || true
wait  # the clients exit once the connection drops
acked=$(cat "$ackdir"/c* | grep -c "^OK INSERT" || true)
[ "$acked" -ge 8 ] || {
  echo "FAIL: kill -9 landed before the burst started ($acked acks); server log:"
  cat "$srv_log"
  exit 1
}
# Restart on the same data dir: recovery replays the WAL.  kill -9 left
# a stale socket file behind; drop it so the readiness probe below only
# fires once the new server has bound.
rm -f "$sock"
"$cli" serve --socket "$sock" --data-dir "$sdir" > "$srv_log" 2>&1 &
srv_pid=$!
i=0
while [ "$i" -lt 100 ] && [ ! -S "$sock" ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$sock" ] || {
  echo "FAIL: restarted server did not create $sock:"
  cat "$srv_log"
  exit 1
}
"$cli" client --socket "$sock" -e "SELECT COUNT(*) FROM t" > "$out" 2>&1 || {
  echo "FAIL: post-recovery client query failed:"
  cat "$out"; cat "$srv_log"
  exit 1
}
recovered=$(sed -n 's/^ROW \([0-9][0-9]*\)$/\1/p' "$out" | head -1)
[ -n "$recovered" ] || {
  echo "FAIL: post-recovery COUNT produced no number:"
  cat "$out"
  exit 1
}
# Acked commits must all survive; unacked in-flight ones may or may not
# (one per session at most).
[ "$recovered" -ge "$acked" ] && [ "$recovered" -le $((acked + 8)) ] || {
  echo "FAIL: clients saw $acked INSERT acks but recovery has $recovered rows"
  exit 1
}
echo "   $acked acknowledged inserts across 8 sessions, recovered $recovered rows"
# SIGTERM must drain and exit cleanly.
kill -TERM "$srv_pid"
srv_rc=0
wait "$srv_pid" || srv_rc=$?
[ "$srv_rc" = 0 ] && grep -q "bye" "$srv_log" || {
  echo "FAIL: SIGTERM shutdown was not clean (rc=$srv_rc):"
  cat "$srv_log"
  exit 1
}

echo "== bench server --json smoke (group commit >= 5x single-session fsync)"
# Durable-throughput gate; fsync timing is noisy on shared machines, so
# allow up to 3 attempts before declaring a regression.
srv_ok=0
for attempt in 1 2 3; do
  dune exec bench/main.exe -- server --commits 800 \
      --json BENCH_server_smoke.json > "$out" 2>&1
  grep -q '"schema": "sqlgraph-bench-v1"' BENCH_server_smoke.json || {
    echo "FAIL: bench server --json did not emit sqlgraph-bench-v1"
    cat "$out"
    exit 1
  }
  srv_x=$(sed -n 's/.*"group_vs_single_x": \([0-9.eE+-]*\).*/\1/p' \
      BENCH_server_smoke.json | head -1)
  [ -n "$srv_x" ] || {
    echo "FAIL: BENCH_server_smoke.json has no group_vs_single_x"
    cat BENCH_server_smoke.json
    exit 1
  }
  if awk "BEGIN { exit !($srv_x >= 5.0) }"; then
    srv_ok=1
    break
  fi
  echo "   attempt $attempt: group-commit speedup ${srv_x}x < 5x, retrying"
done
[ "$srv_ok" = 1 ] || {
  echo "FAIL: group-commit speedup ${srv_x}x < 5x on 3 attempts"
  exit 1
}
echo "   group-commit speedup: ${srv_x}x"

echo "== sim smoke (small tier: ~50k statements, kill-and-recover, zero violations)"
trap 'rm -f "$script" "$out" "$ea_script" "$metrics" "$ms_script" "$obs_script" "$prom" "$slowlog" "$ack" "$srv_log" BENCH_smoke.json BENCH_pairs_smoke.json BENCH_pairs_scaling.json TRACE_smoke.json BENCH_wal_smoke.json BENCH_server_smoke.json BENCH_sim_smoke.json; rm -rf "$ddir" "$sdir" "$ackdir"' EXIT
dune exec bench/main.exe -- sim --tier small --json BENCH_sim_smoke.json \
    > "$out" 2>&1 || {
  echo "FAIL: bench sim --tier small exited nonzero:"
  cat "$out"
  exit 1
}
grep -q '"schema": "sqlgraph-bench-v1"' BENCH_sim_smoke.json || {
  echo "FAIL: bench sim --json did not emit sqlgraph-bench-v1"
  cat "$out"
  exit 1
}
grep -q '"violations": 0' BENCH_sim_smoke.json || {
  echo "FAIL: sim smoke reported invariant violations:"
  cat BENCH_sim_smoke.json
  exit 1
}
grep -q '"recoveries": 1' BENCH_sim_smoke.json || {
  echo "FAIL: sim smoke did not run its scripted kill-and-recover:"
  cat BENCH_sim_smoke.json
  exit 1
}
# every reported class must have a nonzero p99
if sed -n 's/.*"p99_seconds": \([0-9.eE+-]*\).*/\1/p' BENCH_sim_smoke.json \
    | awk '{ if ($1 + 0 <= 0) bad = 1 } END { exit bad }'; then
  :
else
  echo "FAIL: sim smoke has a zero p99 latency class:"
  cat BENCH_sim_smoke.json
  exit 1
fi
# determinism: the same seed must reproduce the trace digest
digest1=$(sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' BENCH_sim_smoke.json | head -1)
dune exec bench/main.exe -- sim --tier small --json BENCH_sim_smoke.json \
    > "$out" 2>&1
digest2=$(sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' BENCH_sim_smoke.json | head -1)
[ -n "$digest1" ] && [ "$digest1" = "$digest2" ] || {
  echo "FAIL: sim trace digest not reproducible ($digest1 vs $digest2)"
  exit 1
}
echo "   50k statements, 0 violations, digest $digest1 reproduced"

echo "== introspection smoke (sqlgraph_stat_statements over a live server)"
idir=$(mktemp -d /tmp/sqlgraph_check_in_XXXXXX)
isock="$idir/server.sock"
trap 'rm -f "$script" "$out" "$ea_script" "$metrics" "$ms_script" "$obs_script" "$prom" "$slowlog" "$ack" "$srv_log" BENCH_smoke.json BENCH_pairs_smoke.json BENCH_pairs_scaling.json TRACE_smoke.json BENCH_wal_smoke.json BENCH_server_smoke.json BENCH_sim_smoke.json; rm -rf "$ddir" "$sdir" "$ackdir" "$idir"' EXIT
"$cli" serve --socket "$isock" --data-dir "$idir" > "$srv_log" 2>&1 &
srv_pid=$!
i=0
while [ "$i" -lt 100 ] && [ ! -S "$isock" ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$isock" ] || {
  echo "FAIL: introspection server did not create $isock:"
  cat "$srv_log"
  exit 1
}
# A workload whose SELECTs all share one fingerprint (the constants
# differ; the normalized shape does not).
{
  echo "CREATE TABLE g (src INTEGER, dst INTEGER)"
  echo "INSERT INTO g VALUES (1, 2), (2, 3), (1, 3), (3, 4)"
  i=0
  while [ "$i" -lt 50 ]; do
    echo "SELECT CHEAPEST SUM(1) WHERE 1 REACHES $((i % 4 + 1)) OVER g EDGE (src, dst)"
    i=$((i + 1))
  done
} | "$cli" client --socket "$isock" > "$out" 2>&1
# every statement's OK line must carry a wire query id
n_qid=$(grep -c "^OK .* qid=[0-9a-f]*:[0-9]* " "$out" || true)
[ "$n_qid" -ge 50 ] || {
  echo "FAIL: only $n_qid OK lines carry a qid (expected >= 50):"
  tail -5 "$out"
  exit 1
}
wire_fp=$(sed -n 's/^OK SELECT .* qid=\([0-9a-f]*\):[0-9]* .*/\1/p' "$out" | tail -1)
# a statement that does not parse is still recorded, as a failed call
"$cli" client --socket "$isock" -e "SELEC 1 FROM g" > "$out" 2>&1 || true
grep -q "^ERR parse" "$out" || {
  echo "FAIL: malformed statement was not answered with ERR parse:"
  cat "$out"
  exit 1
}
"$cli" client --socket "$isock" \
    -e "SELECT fingerprint, calls, failures, query FROM sqlgraph_stat_statements ORDER BY calls DESC" \
    > "$out" 2>&1 || {
  echo "FAIL: could not query sqlgraph_stat_statements over the socket:"
  cat "$out"; cat "$srv_log"
  exit 1
}
top_fp=$(awk -F'\t' '/^ROW /{ print substr($1, 5); exit }' "$out")
top_calls=$(awk -F'\t' '/^ROW /{ print $2; exit }' "$out")
[ -n "$top_calls" ] && [ "$top_calls" -ge 50 ] || {
  echo "FAIL: top fingerprint has calls=$top_calls, expected >= 50 (literal-insensitive normalization):"
  cat "$out"
  exit 1
}
# the session's wire qid and the stat store share one fingerprint
[ -n "$wire_fp" ] && [ "$wire_fp" = "$top_fp" ] || {
  echo "FAIL: wire qid fingerprint '$wire_fp' != top stat_statements fingerprint '$top_fp':"
  cat "$out"
  exit 1
}
awk -F'\t' '/^ROW / && $3 == 1 && $4 ~ /^selec / { found = 1 } END { exit !found }' "$out" || {
  echo "FAIL: the malformed statement has no failed row in sqlgraph_stat_statements:"
  cat "$out"
  exit 1
}
# fingerprint count stays within the store bound (default 500)
n_fp=$(grep -c '^ROW' "$out")
[ "$n_fp" -ge 1 ] && [ "$n_fp" -le 500 ] || {
  echo "FAIL: $n_fp fingerprints, expected within (0, 500]:"
  cat "$out"
  exit 1
}
# the reserved namespace is read-only, over the wire too
"$cli" client --socket "$isock" \
    -e "CREATE TABLE sqlgraph_mine (a INTEGER)" > "$out" 2>&1 || true
grep -q "^ERR bind .*reserved" "$out" || {
  echo "FAIL: CREATE TABLE sqlgraph_mine was not refused as reserved:"
  cat "$out"
  exit 1
}
kill -TERM "$srv_pid" 2>/dev/null || true
wait "$srv_pid" 2>/dev/null || true
# \save must exclude system tables: the saved directory (and manifest)
# hold only base tables even though sqlgraph_stat_statements is
# SELECTable in the same session.
pdir="$idir/saved"
{
  echo "CREATE TABLE base (a INTEGER);"
  echo "INSERT INTO base VALUES (1), (2);"
  echo "SELECT * FROM sqlgraph_stat_statements ORDER BY total_ms DESC LIMIT 5;"
  echo "\\save $pdir;"
} | "$cli" repl > "$out" 2>&1
grep -q "saved to $pdir" "$out" || {
  echo "FAIL: \\save did not succeed alongside system tables:"
  cat "$out"
  exit 1
}
if ls "$pdir" | grep -qi "sqlgraph_"; then
  echo "FAIL: \\save leaked system tables into $pdir:"
  ls "$pdir"
  exit 1
fi
grep -q "^base," "$pdir/_manifest.csv" || {
  echo "FAIL: \\save manifest is missing the base table:"
  cat "$pdir/_manifest.csv"
  exit 1
}
if grep -qi "sqlgraph_" "$pdir/_manifest.csv"; then
  echo "FAIL: \\save manifest lists system tables:"
  cat "$pdir/_manifest.csv"
  exit 1
fi
echo "   $n_qid wire qids, top fingerprint $top_fp (= wire qid) calls=$top_calls, parse error recorded, $n_fp fingerprints, reserved namespace enforced"

echo "== graph-index smoke (serve --warm-index: cost-only Q13 meets in the middle, INSERTs extend)"
gdir=$(mktemp -d /tmp/sqlgraph_check_gi_XXXXXX)
gsock="$gdir/server.sock"
trap 'rm -f "$script" "$out" "$ea_script" "$metrics" "$ms_script" "$obs_script" "$prom" "$slowlog" "$ack" "$srv_log" BENCH_smoke.json BENCH_pairs_smoke.json BENCH_pairs_scaling.json TRACE_smoke.json BENCH_wal_smoke.json BENCH_server_smoke.json BENCH_sim_smoke.json; rm -rf "$ddir" "$sdir" "$ackdir" "$idir" "$gdir"' EXIT
cat > "$script" <<'EOF'
CREATE TABLE g (src INTEGER, dst INTEGER);
INSERT INTO g VALUES (1, 2), (2, 3), (1, 3), (3, 4), (4, 5);
EOF
"$cli" run "$script" --data-dir "$gdir/data" > "$out" 2>&1 || {
  echo "FAIL: could not create the graph-index smoke's data dir:"
  cat "$out"
  exit 1
}
"$cli" serve --socket "$gsock" --data-dir "$gdir/data" --warm-index g:src:dst \
    > "$srv_log" 2>&1 &
srv_pid=$!
i=0
while [ "$i" -lt 100 ] && [ ! -S "$gsock" ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$gsock" ] || {
  echo "FAIL: graph-index server did not create $gsock:"
  cat "$srv_log"
  exit 1
}
q13="SELECT CHEAPEST SUM(1) WHERE 1 REACHES 5 OVER g EDGE (src, dst)"
q13_path="SELECT CHEAPEST SUM(1) AS (c, p) WHERE 1 REACHES 5 OVER g EDGE (src, dst)"
"$cli" client --socket "$gsock" -e "EXPLAIN ANALYZE $q13" > "$out" 2>&1
grep -q "search=bidir" "$out" || {
  echo "FAIL: cost-only Q13 on an indexed graph shows no search=bidir:"
  cat "$out"
  exit 1
}
"$cli" client --socket "$gsock" -e "EXPLAIN ANALYZE $q13_path" > "$out" 2>&1
if ! grep -q "cache=hit" "$out" || grep -q "search=bidir" "$out"; then
  echo "FAIL: the (cost, path) form must hit the index without search=bidir:"
  cat "$out"
  exit 1
fi
"$cli" client --socket "$gsock" -e "$q13" > "$out" 2>&1
grep -q "^ROW 3$" "$out" || {
  echo "FAIL: cost-only Q13 over the index did not answer 3:"
  cat "$out"
  exit 1
}
# An INSERT between existing vertices extends the cached graph; one with
# a new vertex key rebuilds it.
"$cli" client --socket "$gsock" -e "INSERT INTO g VALUES (2, 4)" > "$out" 2>&1
"$cli" client --socket "$gsock" -e "EXPLAIN ANALYZE $q13" > "$out" 2>&1
if ! grep -q "cache=extend" "$out" || ! grep -q "appended=1" "$out"; then
  echo "FAIL: an INSERT between existing vertices must extend the graph:"
  cat "$out"
  exit 1
fi
"$cli" client --socket "$gsock" -e "INSERT INTO g VALUES (4, 6)" > "$out" 2>&1
"$cli" client --socket "$gsock" -e "EXPLAIN ANALYZE $q13" > "$out" 2>&1
grep -q "cache=miss" "$out" || {
  echo "FAIL: an INSERT with a new vertex key must rebuild the graph:"
  cat "$out"
  exit 1
}
kill -TERM "$srv_pid" 2>/dev/null || true
wait "$srv_pid" 2>/dev/null || true
echo "   search=bidir on cost-only Q13, absent with a path column;"
echo "   cache=extend after an INSERT between known vertices, miss after a new key"

echo "== replication: failover smoke (8 clients, kill -9 primary mid-burst, promote standby)"
fpdir=$(mktemp -d /tmp/sqlgraph_check_fp_XXXXXX)
frdir=$(mktemp -d /tmp/sqlgraph_check_fr_XXXXXX)
fackdir=$(mktemp -d /tmp/sqlgraph_check_fa_XXXXXX)
psock="$fpdir/primary.sock"
rsock="$frdir/standby.sock"
plog=$(mktemp /tmp/sqlgraph_check_XXXXXX.plog)
rlog=$(mktemp /tmp/sqlgraph_check_XXXXXX.rlog)
trap 'rm -f "$script" "$out" "$ea_script" "$metrics" "$ms_script" "$obs_script" "$prom" "$slowlog" "$ack" "$srv_log" "$plog" "$rlog" BENCH_smoke.json BENCH_pairs_smoke.json BENCH_pairs_scaling.json TRACE_smoke.json BENCH_wal_smoke.json BENCH_server_smoke.json BENCH_sim_smoke.json BENCH_repl_smoke.json; rm -rf "$ddir" "$sdir" "$ackdir" "$idir" "$fpdir" "$frdir" "$fackdir"' EXIT
"$cli" serve --socket "$psock" --data-dir "$fpdir" > "$plog" 2>&1 &
ppid=$!
i=0
while [ "$i" -lt 100 ] && [ ! -S "$psock" ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$psock" ] || {
  echo "FAIL: primary did not create $psock:"
  cat "$plog"
  exit 1
}
"$cli" serve --socket "$rsock" --data-dir "$frdir" --replica-of "$psock" \
    > "$rlog" 2>&1 &
rpid=$!
i=0
while [ "$i" -lt 100 ] && [ ! -S "$rsock" ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$rsock" ] || {
  echo "FAIL: standby did not create $rsock:"
  cat "$rlog"
  exit 1
}
"$cli" client --socket "$psock" \
    -e "CREATE TABLE t (c INTEGER, v INTEGER)" > /dev/null 2>&1 || {
  echo "FAIL: could not create table on the primary"
  cat "$plog"
  exit 1
}
# the standby must reach steady-state streaming before the burst starts
i=0
while [ "$i" -lt 100 ]; do
  "$cli" client --socket "$rsock" \
      -e "SELECT role, state FROM sqlgraph_stat_replication" > "$out" 2>&1 || true
  grep -q "streaming" "$out" && break
  sleep 0.1
  i=$((i + 1))
done
grep -q "streaming" "$out" || {
  echo "FAIL: standby never reached streaming state:"
  cat "$out"; cat "$rlog"
  exit 1
}
# Eight clients stream INSERTs through the failover pool: primary first,
# standby second.  Each statement is retried across the failover window,
# so a clean (rc=0) client means all of its 600 INSERTs were acked.
fpids=""
for c in 1 2 3 4 5 6 7 8; do
  {
    i=0
    while [ "$i" -lt 600 ]; do
      echo "INSERT INTO t VALUES ($c, $i)"
      i=$((i + 1))
    done
  } | "$cli" client --endpoints "$psock,$rsock" --retries 12 --backoff-ms 50 \
      > "$fackdir/c$c" 2>&1 &
  fpids="$fpids $!"
done
sleep 0.15
# replica reads are served mid-burst
"$cli" client --socket "$rsock" -e "SELECT COUNT(*) FROM t" > "$out" 2>&1 || {
  echo "FAIL: standby refused a read mid-burst:"
  cat "$out"
  exit 1
}
grep -q "^ROW" "$out" || {
  echo "FAIL: standby read produced no row mid-burst:"
  cat "$out"
  exit 1
}
kill -9 "$ppid" 2>/dev/null || true
wait "$ppid" 2>/dev/null || true
# Drain before fencing: promotion discards unapplied socket bytes, so
# wait for the standby to notice the dead primary (it leaves streaming
# state only after consuming everything the primary sent).
i=0
while [ "$i" -lt 100 ]; do
  "$cli" client --socket "$rsock" \
      -e "SELECT state FROM sqlgraph_stat_replication" > "$out" 2>&1 || true
  grep -q "streaming" "$out" || break
  sleep 0.1
  i=$((i + 1))
done
drained=$(sed -n 's/^ROW \([0-9][0-9]*\)$/\1/p' "$out" | head -1)
"$cli" client --socket "$rsock" -e "SELECT COUNT(*) FROM t" > "$out" 2>&1 || true
drained=$(sed -n 's/^ROW \([0-9][0-9]*\)$/\1/p' "$out" | head -1)
"$cli" promote --socket "$rsock" > "$out" 2>&1 || {
  echo "FAIL: promote exited nonzero:"
  cat "$out"; cat "$rlog"
  exit 1
}
grep -q "^OK PROMOTE" "$out" || {
  echo "FAIL: promote did not answer OK PROMOTE:"
  cat "$out"
  exit 1
}
# every client must finish within its retry budget
for pid in $fpids; do
  wait "$pid" || {
    echo "FAIL: a client exhausted its retry budget across the failover:"
    tail -3 "$fackdir"/c*
    exit 1
  }
done
facked=$(cat "$fackdir"/c* | grep -c "^OK INSERT" || true)
[ "$facked" -eq 4800 ] || {
  echo "FAIL: clients exited clean but acked $facked/4800 INSERTs"
  exit 1
}
# Every acked commit survives on the promoted standby.  A retry after a
# lost ack may duplicate a row (at-least-once), so the bound is >=.
for c in 1 2 3 4 5 6 7 8; do
  "$cli" client --socket "$rsock" \
      -e "SELECT COUNT(*) FROM t WHERE c = $c" > "$out" 2>&1 || {
    echo "FAIL: post-promotion count for client $c failed:"
    cat "$out"
    exit 1
  }
  survived=$(sed -n 's/^ROW \([0-9][0-9]*\)$/\1/p' "$out" | head -1)
  [ -n "$survived" ] && [ "$survived" -ge 600 ] || {
    echo "FAIL: client $c acked 600 INSERTs but only ${survived:-0} survived promotion"
    cat "$rlog"
    exit 1
  }
done
# the promoted standby accepts writes
"$cli" client --socket "$rsock" \
    -e "INSERT INTO t VALUES (9, 0)" > "$out" 2>&1 && grep -q "^OK INSERT" "$out" || {
  echo "FAIL: promoted standby refused a write:"
  cat "$out"
  exit 1
}
kill -TERM "$rpid" 2>/dev/null || true
wait "$rpid" 2>/dev/null || true
echo "   $facked acked inserts across 8 failover clients (${drained:-?} durable at promotion), all survived"

echo "== bench repl --json smoke"
dune exec bench/main.exe -- repl --rows 2000 --commits 200 \
    --json BENCH_repl_smoke.json > "$out" 2>&1 || {
  echo "FAIL: bench repl exited nonzero:"
  cat "$out"
  exit 1
}
dune exec test/json_lint.exe -- --bench-repl BENCH_repl_smoke.json || {
  echo "FAIL: BENCH_repl_smoke.json failed the repl lint:"
  cat BENCH_repl_smoke.json
  exit 1
}

echo "OK: build, tests, fault-injection, EXPLAIN ANALYZE, batched traversal, bench, telemetry, durability, server, sim, introspection and replication smokes all passed"
