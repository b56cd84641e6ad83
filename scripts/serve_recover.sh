#!/usr/bin/env sh
# Serve crash-recovery smoke: kill -9 the admission daemon mid-load and
# prove that durable admission state (DESIGN.md §16) loses nothing.
# Asserts
#   * every decision acknowledged before the kill is in the recovered
#     state (acked accepted ids are a subset of the recovered commit
#     ledger, recovered decision count >= acked count),
#   * the recovered commit set passes the independent capacity validator
#     (--dump-state exits 0 with validation_ok),
#   * a restarted daemon resumes from the state dir (prints a
#     "recovered" line), serves the remainder of the trace with zero
#     protocol errors, and drains cleanly,
#   * the final state accounts for every request exactly once,
#   * the durability tax is bounded: over five serve_load --wal-ab runs,
#     the median batch-fsync p99 stays within 15% (plus a small absolute
#     floor for timer noise) of the median no-WAL p99.
# Artifacts (recover_requests.ndjson, recover_phase1.ndjson,
# recover_phase2.ndjson, recover_state*.json, serve_recover_ab.csv) are
# left in the working directory for upload.
set -eu

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
slo_ms="${SLO_MS:-2000}"
requests="${REQUESTS:-40}"
state_dir="recover_state"

cmake -B build -S .
cmake --build build -j "$jobs" --target tvnep_serve serve_load
serve=./build/src/serve/tvnep_serve

rm -rf "$state_dir" recover_fifo
"$serve" --emit "$requests" --seed 11 --flex 1.5 --no-drain \
  > recover_requests.ndjson

# --- phase 1: serve with the WAL on, SIGKILL mid-load -----------------------
mkfifo recover_fifo
"$serve" --slo-ms "$slo_ms" --state-dir "$state_dir" \
  --wal-fsync every --snapshot-every 8 \
  < recover_fifo > recover_phase1.ndjson &
daemon_pid=$!
# Paced producer: one request every 50 ms so the kill lands mid-stream.
( while IFS= read -r line; do
    printf '%s\n' "$line" || exit 0
    sleep 0.05
  done < recover_requests.ndjson
  sleep 60 ) > recover_fifo &
producer_pid=$!

# Wait for at least a quarter of the trace to be acknowledged, then kill
# -9 — no drain, no flush, no destructor.
want=$((requests / 4))
for _ in $(seq 1 600); do
  acked=$(grep -c '"type":"decision"' recover_phase1.ndjson 2>/dev/null || true)
  [ "${acked:-0}" -ge "$want" ] && break
  sleep 0.1
done
kill -9 "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
kill "$producer_pid" 2>/dev/null || true
wait "$producer_pid" 2>/dev/null || true
rm -f recover_fifo
acked=$(grep -c '"type":"decision"' recover_phase1.ndjson || true)
echo "serve_recover: SIGKILL after $acked acknowledged decisions"
test "$acked" -ge "$want"

# --- recovery: dump, validate, diff against the acknowledgements ------------
"$serve" --dump-state --state-dir "$state_dir" > recover_state.json

python3 - <<'EOF'
import json

state = json.loads(open("recover_state.json").read())
assert state["recovered"], "state dir recovered nothing"
assert state["validation_ok"], \
    f"capacity validation failed: {state['validation_errors']}"

acked_accepted, acked = set(), 0
for line in open("recover_phase1.ndjson"):
    line = line.strip()
    if not line:
        continue
    reply = json.loads(line)
    if reply.get("type") != "decision":
        continue
    acked += 1
    if reply.get("accepted"):
        acked_accepted.add(reply["id"])

# Write-ahead means acked => durable: the recovered ledger may hold one
# decision more than was acknowledged (record written, ack never sent),
# never one less.
assert state["decisions"] >= acked, \
    f"lost decisions: acked {acked}, recovered {state['decisions']}"
commit_ids = {c["id"] for c in state["commits"]}
lost = acked_accepted - commit_ids
assert not lost, f"acknowledged commits lost across the kill: {sorted(lost)}"
print(f"serve_recover: {acked} acked decisions all durable, "
      f"{len(acked_accepted)} accepted commits all recovered "
      f"(replayed={state['replayed']}, torn_repaired={state['torn_repaired']})")
EOF

# --- phase 2: restart from the state dir, serve the remainder ---------------
decisions=$(python3 -c \
  "import json; print(json.load(open('recover_state.json'))['decisions'])")
{ tail -n +$((decisions + 1)) recover_requests.ndjson
  printf '{"type":"drain"}\n'; } \
  | "$serve" --slo-ms "$slo_ms" --state-dir "$state_dir" \
      --wal-fsync every --snapshot-every 8 > recover_phase2.ndjson
grep -q '"type":"recovered"' recover_phase2.ndjson
grep -q '"type":"bye"' recover_phase2.ndjson
errors=$(grep -c '"type":"error"' recover_phase2.ndjson || true)
test "${errors:-0}" -eq 0
echo "serve_recover: restarted daemon recovered and drained cleanly"

# --- final ledger: every request decided exactly once -----------------------
"$serve" --dump-state --state-dir "$state_dir" > recover_state_final.json
REQUESTS="$requests" python3 - <<'EOF'
import json, os

requests = int(os.environ["REQUESTS"])
state = json.loads(open("recover_state_final.json").read())
assert state["validation_ok"], \
    f"final capacity validation failed: {state['validation_errors']}"
assert state["decisions"] == requests, \
    f"expected {requests} decisions across both lives, " \
    f"saw {state['decisions']}"
seqs = [c["seq"] for c in state["commits"]]
assert len(seqs) == len(set(seqs)), "duplicate commit seq: double-admission"
assert state["accepted"] == len(seqs), \
    f"accepted counter {state['accepted']} != {len(seqs)} ledger commits"
print(f"serve_recover: final state holds all {requests} decisions, "
      f"{state['accepted']} commits, no duplicates")
EOF

# --- durability tax: WAL A/B p99 bound --------------------------------------
# One run's p99 is a single tail sample: at 20-30 ms p99s the batch-minus-off
# difference moves by more than the bound from run to run, so the gate
# compares medians over repeated runs (serve_load computes each p99 from its
# raw per-request latencies). serve_recover_ab.csv keeps every run.
ab_runs=5
for run in $(seq 1 "$ab_runs"); do
  ./build/bench/serve_load --scale 5 --mode greedy --wal-ab \
    --state-dir serve_recover_ab_state --csv "serve_recover_ab_$run.csv"
done
AB_RUNS="$ab_runs" python3 - <<'EOF'
import csv, os, statistics

runs = int(os.environ["AB_RUNS"])
merged, p99 = [], {"off": [], "batch": [], "every": []}
for run in range(1, runs + 1):
    path = f"serve_recover_ab_{run}.csv"
    for row in csv.DictReader(open(path)):
        if row["mode"] != "greedy":
            continue
        merged.append({"run": run, **row})
        p99[row["wal"]].append(float(row["p99_ms"]))
    os.remove(path)
with open("serve_recover_ab.csv", "w", newline="") as f:
    writer = csv.DictWriter(f, fieldnames=list(merged[0]))
    writer.writeheader()
    writer.writerows(merged)

assert all(len(v) == runs for v in p99.values()), \
    f"expected {runs} greedy rows per WAL level, got " \
    f"{ {k: len(v) for k, v in p99.items()} }"
off = statistics.median(p99["off"])
batch = statistics.median(p99["batch"])
every = statistics.median(p99["every"])
# 15% relative bar with a 5 ms absolute floor: at sub-millisecond
# baselines the relative bar is pure timer noise.
bound = max(off * 1.15, off + 5.0)
per_run = " ".join(f"{o:.2f}/{b:.2f}" for o, b in zip(p99["off"], p99["batch"]))
print(f"serve_recover: p99 off/batch per run (ms): {per_run}")
assert batch <= bound, \
    f"median batch-fsync p99 {batch:.2f}ms exceeds bound {bound:.2f}ms " \
    f"(median off baseline {off:.2f}ms over {runs} runs)"
print(f"serve_recover: median p99 over {runs} runs off={off:.2f}ms "
      f"batch={batch:.2f}ms every={every:.2f}ms (bound {bound:.2f}ms)")
EOF
echo "serve_recover: OK"
