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
# `sched_batch`, `serve_codec_sat` and `serve_paced` are also gated on a
# ceiling for `setup_s`, the history value times
# (1 + bound × CI_HOST_ALLOWANCE) = 1.3× with that metric's bound of
# 0.1. Generating its two request streams is about 63 % of
# `sched_batch`'s set-up, and generating its one stream about 82 % of
# `serve_paced`'s; a generator that sorts its stream again reads about
# 1.5× on `sched_batch`. `serve_codec_sat`'s set-up is its stream, its
# batch reference run and the pre-encoding of 65 536 requests into v3
# frames, in shares of about 37, 22 and 39 %; a float writer back on
# `core::fmt` reads only about 1.2×, under the ceiling, and its tripwire
# is the number-writer golden and oracle tests. A keystream back on
# one scalar block per refill reads about 1.4× on `serve_paced` on the
# defining host, barely over the ceiling, and a CI host may read less:
# its tripwire is structural, as an `x86_64` library build has no
# scalar kernel to fall back to, and the `rand_chacha` keystream oracle
# holds the SSE2 one to the scalar block word for word. The ceilings
# catch a coarser loss, such as the stream sort returning. The
# decisions/s floors above are unchanged by them.
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
# A ceiling on the paced workload's CPU, a floor on every other rate, and
# a ceiling on the set-up of the three workloads whose set-up is mostly
# their request stream or its encoding.
paced = workload == "serve_paced"
gates = [("cpu_us_per_decision", "ceiling")] if paced else [("decisions_per_s", "floor")]
if workload in ("sched_batch", "serve_codec_sat", "serve_paced"):
    gates.append(("setup_s", "ceiling"))
with open("BENCHMARK.json") as f:
    bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
with open("results/BENCH_history.jsonl") as f:
    last = json.loads([l for l in f if l.strip()][-1])
ok = line["correct"] and line["failed"] == 0
show = lambda v: f"{v:,.0f}" if v >= 1000 else f"{v:.4g}"
for metric, kind in gates:
    bound = bounds[metric]
    base = last["workloads"][workload][metric]
    got = line["metrics"][metric]["value"]
    if kind == "ceiling":
        limit = base * (1 + bound * allowance)
        within = got <= limit
    else:
        limit = base * (1 - bound * allowance)
        within = got >= limit
    ok = ok and within
    print(f"{workload}: {metric} {show(got)} vs {show(base)} at PR {last['pr']} ({last['side']}), "
          f"{kind} {show(limit)} (bound {bound} x {allowance:g}) -> {'ok' if within else 'REGRESSED'}")
print(f"{workload}: correct={line['correct']} failed={line['failed']} -> {'ok' if ok else 'REGRESSED'}")
sys.exit(0 if ok else 1)
PY
done
exit "$status"
