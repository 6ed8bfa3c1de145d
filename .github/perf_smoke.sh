#!/usr/bin/env bash
# CI perf smoke: a short run of the repository benchmark on the two
# workloads that bracket the code — `sched_batch` (no sockets) and
# `serve_codec_sat` (nearly all sockets) — on `serve_week_s2`, the one
# where Algorithm 2's exhausted searches mix with admissions (a filter
# or cut that speeds the scarce stream by taxing admitting windows shows
# there), and on `chain_mixed`, the only one that enters the chain path
# (a lost replica-table memo or a pool scan that grows with history
# again shows there, at 2× or more), and on `serve_paced`, the only one
# that sends v2 single-request lines, checked against the last line of
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
# `serve_paced` fixes its own request rate, so a floor on its
# decisions_per_s would test nothing: it is gated instead on a ceiling
# for `cpu_us_per_decision`, the history value times
# (1 + bound × CI_HOST_ALLOWANCE), with that metric's own bound. That
# ceiling catches only a v2 path that costs about 1.24× or more: a
# reader that builds a tree per submit again costs less than that, and
# so does a string read that rescans the line on the benchmark's short
# strings. Their tripwires are tests, not this gate: the pinned v2
# allocations per decision in tests/serve_alloc.rs (a tree read
# allocates more than three times as often) and the debug linear-time
# tests in tests/serve_reader.rs (a quadratic string scan).
#
#   bash .github/perf_smoke.sh [seconds]
set -euo pipefail

CI_HOST_ALLOWANCE=3
seconds="${1:-5}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

status=0
for workload in sched_batch serve_codec_sat serve_week_s2 chain_mixed serve_paced; do
    line="$(bash benchmark/run.sh --workload "$workload" --seed 1 \
        --seconds "$seconds" --trace 0 | tail -n 1)"
    python3 - "$workload" "$CI_HOST_ALLOWANCE" "$line" <<'PY' || status=1
import json, sys

workload, allowance, line = sys.argv[1], float(sys.argv[2]), json.loads(sys.argv[3])
# A ceiling on the paced workload's CPU, a floor on every other rate.
paced = workload == "serve_paced"
metric = "cpu_us_per_decision" if paced else "decisions_per_s"
with open("BENCHMARK.json") as f:
    bound = next(m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == metric)
with open("results/BENCH_history.jsonl") as f:
    last = json.loads([l for l in f if l.strip()][-1])
base = last["workloads"][workload][metric]
got = line["metrics"][metric]["value"]
if paced:
    limit = base * (1 + bound * allowance)
    within = got <= limit
    shown = f"{got:.2f} us/decision vs {base:.2f}", f"ceiling {limit:.2f}"
else:
    limit = base * (1 - bound * allowance)
    within = got >= limit
    shown = f"{got:,.0f} decisions/s vs {base:,.0f}", f"floor {limit:,.0f}"
ok = line["correct"] and line["failed"] == 0 and within
print(f"{workload}: {shown[0]} at PR {last['pr']} ({last['side']}), "
      f"{shown[1]} (bound {bound} x {allowance:g}); correct={line['correct']} "
      f"failed={line['failed']} -> {'ok' if ok else 'REGRESSED'}")
sys.exit(0 if ok else 1)
PY
done
exit "$status"
