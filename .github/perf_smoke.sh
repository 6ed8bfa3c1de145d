#!/usr/bin/env bash
# CI perf smoke: a short run of the repository benchmark on the two
# workloads that bracket the code — `sched_batch` (no sockets) and
# `serve_codec_sat` (nearly all sockets) — on `serve_week_s2`, the one
# where Algorithm 2's exhausted searches mix with admissions (a filter
# or cut that speeds the scarce stream by taxing admitting windows shows
# there), and on `chain_mixed`, the only one that enters the chain path
# (a lost replica-table memo or a pool scan that grows with history
# again shows there, at 2× or more), checked against the last line of
# results/BENCH_history.jsonl, the most recent recorded run.
#
# The floor is the benchmark's own bound on `decisions_per_s`
# (BENCHMARK.json: the worsening it tolerates between two runs on one
# host) times CI_HOST_ALLOWANCE. The history line was taken on the
# defining host and a CI runner is another machine: the reference lap
# normalises its speed away, but not its core count, cache sizes or
# kernel, and a 5 s run has a quarter of the repetitions. 3× (24 %) is
# an estimate of that difference, to be tightened once CI runs have a
# history of their own; the regression the gate exists for (a lost fast
# path) is 2× or more.
#
#   bash .github/perf_smoke.sh [seconds]
set -euo pipefail

CI_HOST_ALLOWANCE=3
seconds="${1:-5}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

status=0
for workload in sched_batch serve_codec_sat serve_week_s2 chain_mixed; do
    line="$(bash benchmark/run.sh --workload "$workload" --seed 1 \
        --seconds "$seconds" --trace 0 | tail -n 1)"
    python3 - "$workload" "$CI_HOST_ALLOWANCE" "$line" <<'PY' || status=1
import json, sys

workload, allowance, line = sys.argv[1], float(sys.argv[2]), json.loads(sys.argv[3])
with open("BENCHMARK.json") as f:
    bound = next(m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == "decisions_per_s")
with open("results/BENCH_history.jsonl") as f:
    last = json.loads([l for l in f if l.strip()][-1])
base = last["workloads"][workload]["decisions_per_s"]
got = line["metrics"]["decisions_per_s"]["value"]
floor = base * (1 - bound * allowance)
ok = line["correct"] and line["failed"] == 0 and got >= floor
print(f"{workload}: {got:,.0f} decisions/s vs {base:,.0f} at PR {last['pr']} ({last['side']}), "
      f"floor {floor:,.0f} (bound {bound} x {allowance:g}); correct={line['correct']} "
      f"failed={line['failed']} -> {'ok' if ok else 'REGRESSED'}")
sys.exit(0 if ok else 1)
PY
done
exit "$status"
