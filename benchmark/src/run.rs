//! The shape every run shares: twenty-five cold set-up samples, then
//! many short repetitions until the deadline, each bracketed by
//! reference laps, and the medians that become the run's metrics.
//!
//! A run makes [`DRAWS`] independent draws of its inputs from the seed
//! and cycles through them: repetition `i` replays draw `i % DRAWS`, and
//! so does set-up sample `i`. What a workload costs depends on its input
//! — on the scarce instance, which few dozen requests happen to fill the
//! fleet moves `decide` from 105 to 165 ns — and that dependence repeats
//! exactly per seed, so with one draw per run it was most of the spread
//! between runs on different seeds. A metric's value is the mean over
//! draws of the median over that draw's repetitions.

use std::time::{Duration, Instant};

use crate::host::{self, Bracket, FreedMemory, HostClock};
use crate::stats;
use crate::trace::Tracer;

/// Cold set-up samples per run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 25;
/// Independent draws of the inputs a run makes from its seed.
pub const DRAWS: usize = 8;
// Every draw is built by a set-up sample.
const _: () = assert!(SETUP_SAMPLES >= DRAWS);
/// Repetitions a run is sized for: per-repetition buffers are allocated
/// for this many up front, so peak memory does not grow with the count.
const MAX_REPS: usize = 4096;
/// Share of a repetition's wall time the process may spend off its CPU
/// before the repetition is counted as disturbed. The count is reported;
/// the repetition stays in the medians.
const DISTURBED_SHARE: f64 = 0.02;
/// Latency samples pooled for the traced pass's tail percentiles.
const TAIL_POOL: usize = 1 << 20;

/// What the timed region of one repetition measured, in raw seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Operations (requests) offered.
    pub attempted: u64,
    /// Operations that failed (shed, errored, unanswered).
    pub failed: u64,
    /// Verified decisions the throughput is computed from.
    pub decisions: u64,
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    /// Process CPU seconds (all threads, generator included) over the
    /// timed region.
    pub process_cpu_s: f64,
    /// The part of `process_cpu_s` that `cpu_us_per_decision` reports:
    /// all of it, except for `serve_paced`, whose generator polls.
    pub cpu_s: f64,
    /// CPU seconds of the generator's own threads within `process_cpu_s`.
    pub gen_cpu_s: f64,
    /// Revenue the client or driver observed.
    pub revenue: f64,
    /// The repetition's central latency, seconds: the median of its
    /// samples, or what the workload defines over them.
    pub latency_s: f64,
}

/// One workload's repetition, in three phases so that the reference laps
/// hug the timed region: bring-up and tear-down stay outside them.
pub trait Repetition {
    /// Whatever lives across the three phases (daemon, connections).
    type Live;

    /// Fresh daemon / connections; untimed.
    fn bring_up(&mut self) -> Self::Live;

    /// The timed region. Leaves this repetition's latency samples
    /// (seconds) in `latencies`, which arrives empty; the traced pass
    /// pools them for the tail percentiles.
    fn timed(&mut self, live: &mut Self::Live, latencies: &mut Vec<f64>) -> Timed;

    /// Tear-down and the correctness checks, outside the timed region.
    /// `false` fails the repetition.
    fn tear_down(&mut self, live: Self::Live, timed: &Timed) -> bool;

    /// Converts the stamps kept by the last `timed` call into spans
    /// under `parent`, all carrying `group`.
    fn emit_spans(&self, tracer: &mut Tracer, parent: u64, group: u64);
}

/// The accumulating state of one run.
#[derive(Debug)]
pub struct RunCtx {
    /// Reference-lap runner.
    pub host: HostClock,
    /// Span recorder (`--trace 1`).
    pub tracer: Tracer,
    reps_until: Instant,
    /// The workload imposes its rate (`serve_paced`): `decisions_per_s`
    /// is reported raw.
    rate_imposed: bool,
    setup_raw: Vec<f64>,
    setup_norm: Vec<f64>,
    attempted: u64,
    failed: u64,
    correct: bool,
    // Per repetition, in order.
    speed: Vec<f64>,
    rate_raw: Vec<f64>,
    cpu_per_decision_raw: Vec<f64>,
    lat_p50_raw: Vec<f64>,
    wall_raw: Vec<f64>,
    gen_cpu_share: Vec<f64>,
    off_cpu_share: Vec<f64>,
    revenue: Vec<f64>,
    draw: Vec<usize>,
    traced_rep: Vec<bool>,
    latencies: Vec<f64>,
    tail_pool: Vec<f64>,
}

impl RunCtx {
    /// A run that started at `started` and must finish its repetitions
    /// `rep_seconds` after that.
    pub fn new(started: Instant, rep_seconds: f64, trace: bool, rate_imposed: bool) -> Self {
        RunCtx {
            host: HostClock::new(),
            tracer: Tracer::new(trace),
            reps_until: started + Duration::from_secs_f64(rep_seconds),
            rate_imposed,
            setup_raw: Vec::with_capacity(SETUP_SAMPLES),
            setup_norm: Vec::with_capacity(SETUP_SAMPLES),
            attempted: 0,
            failed: 0,
            correct: true,
            speed: Vec::with_capacity(MAX_REPS),
            rate_raw: Vec::with_capacity(MAX_REPS),
            cpu_per_decision_raw: Vec::with_capacity(MAX_REPS),
            lat_p50_raw: Vec::with_capacity(MAX_REPS),
            wall_raw: Vec::with_capacity(MAX_REPS),
            gen_cpu_share: Vec::with_capacity(MAX_REPS),
            off_cpu_share: Vec::with_capacity(MAX_REPS),
            revenue: Vec::with_capacity(MAX_REPS),
            draw: Vec::with_capacity(MAX_REPS),
            traced_rep: Vec::with_capacity(MAX_REPS),
            latencies: Vec::new(),
            tail_pool: Vec::with_capacity(if trace { TAIL_POOL } else { 0 }),
        }
    }

    /// Records a failed correctness check that belongs to no repetition.
    pub fn fail(&mut self, what: &str) {
        eprintln!("correctness check failed: {what}");
        self.correct = false;
    }

    /// Runs `build` [`SETUP_SAMPLES`] times from cold, each between
    /// reference laps: sample `i` builds draw `i % DRAWS`. Returns the
    /// product of every draw. A sample ends with the first answer:
    /// whatever `build` left running (a daemon) goes to `shut_down`
    /// outside the sample.
    pub fn setup_samples<F, L>(
        &mut self,
        mut build: impl FnMut(usize, &mut Tracer) -> (F, L),
        mut shut_down: impl FnMut(L),
    ) -> Vec<F> {
        host::set_freed_memory(FreedMemory::Returned);
        let mut kept: Vec<Option<F>> = (0..DRAWS).map(|_| None).collect();
        for sample in 0..SETUP_SAMPLES {
            let draw = sample % DRAWS;
            // A draw built again replaces its earlier product, which goes
            // before the sample starts: each sample pays for its own
            // allocations, as a cold start does.
            drop(kept[draw].take());
            let tracer = &mut self.tracer;
            let (((product, live), raw, cpu), bracket) = self.host.around(|| {
                let cpu0 = host::process_cpu_s();
                let start = Instant::now();
                let product = build(draw, tracer);
                let end = Instant::now();
                let cpu = host::process_cpu_s() - cpu0;
                tracer.record("setup", 0, 0, start, end);
                (product, (end - start).as_secs_f64(), cpu)
            });
            // Only the busy part of a set-up follows the host's speed:
            // the accept loop's 10 ms poll waits the same on a fast host
            // as on a slow one.
            let busy = cpu.min(raw);
            self.setup_raw.push(raw);
            self.setup_norm.push(busy * bracket.speed() + (raw - busy));
            shut_down(live);
            kept[draw] = Some(product);
        }
        kept.into_iter()
            .map(|product| product.expect("every draw was built"))
            .collect()
    }

    /// Cycles through `reps`, one per draw, until the run's repetition
    /// deadline (every draw at least once). In a traced run every other
    /// round keeps its spans, so `trace.overhead_share` compares each
    /// draw with itself.
    pub fn repeat<R: Repetition>(&mut self, reps: &mut [R]) {
        host::set_freed_memory(FreedMemory::Kept);
        while self.speed.len() < reps.len()
            || (Instant::now() < self.reps_until && self.speed.len() < MAX_REPS)
        {
            let index = self.speed.len();
            let (round, draw) = (index / reps.len(), index % reps.len());
            let rep = &mut reps[draw];
            let keep_spans = self.tracer.enabled() && round % 2 == 0;
            let mut live = rep.bring_up();
            self.latencies.clear();
            let latencies = &mut self.latencies;
            let rep_start = Instant::now();
            let (timed, bracket): (Timed, Bracket) =
                self.host.around(|| rep.timed(&mut live, latencies));
            let rep_end = Instant::now();
            let ok = rep.tear_down(live, &timed);
            if keep_spans {
                let group = index as u64 + 1;
                let id = self
                    .tracer
                    .record("repetition", 0, group, rep_start, rep_end);
                rep.emit_spans(&mut self.tracer, id, group);
            }

            self.attempted += timed.attempted;
            self.failed += if ok { timed.failed } else { timed.attempted };
            if !ok || timed.failed > 0 {
                self.correct = false;
            }
            let decisions = timed.decisions.max(1) as f64;
            self.speed.push(bracket.speed());
            self.wall_raw.push(timed.wall_s);
            self.rate_raw.push(decisions / timed.wall_s);
            self.cpu_per_decision_raw.push(timed.cpu_s / decisions);
            self.gen_cpu_share
                .push(timed.gen_cpu_s / timed.process_cpu_s.max(1e-12));
            self.off_cpu_share
                .push(1.0 - timed.process_cpu_s / timed.wall_s);
            self.revenue.push(timed.revenue);
            self.draw.push(draw);
            self.traced_rep.push(keep_spans);
            self.lat_p50_raw.push(timed.latency_s);
            if self.tracer.enabled() {
                let room = TAIL_POOL - self.tail_pool.len();
                let take = room.min(self.latencies.len());
                self.tail_pool.extend_from_slice(&self.latencies[..take]);
            }
        }
    }

    // Per-repetition raw values in host-normalised units: a time is
    // multiplied by that repetition's host speed, a rate divided by it.
    fn normalised(&self, raw: &[f64], time_in_numerator: bool) -> Vec<f64> {
        raw.iter()
            .zip(&self.speed)
            .map(|(&v, &s)| if time_in_numerator { v * s } else { v / s })
            .collect()
    }

    // Mean over the draws of `stat` over the draw's repetitions that
    // `keep` admits; draws with none are left out.
    fn over_draws(
        &self,
        values: &[f64],
        keep: impl Fn(usize) -> bool,
        stat: impl Fn(&[f64]) -> f64,
    ) -> f64 {
        let per_draw: Vec<f64> = (0..DRAWS)
            .filter_map(|draw| {
                let of_draw: Vec<f64> = (0..values.len())
                    .filter(|&i| self.draw[i] == draw && keep(i))
                    .map(|i| values[i])
                    .collect();
                (!of_draw.is_empty()).then(|| stat(&of_draw))
            })
            .collect();
        per_draw.iter().sum::<f64>() / per_draw.len().max(1) as f64
    }

    // The run's value of a per-repetition quantity: the median over each
    // draw's repetitions, averaged over the draws.
    fn value(&self, values: &[f64]) -> f64 {
        self.over_draws(values, |_| true, stats::median_of)
    }

    /// Closes the run: every end-to-end metric, and the `run.*` /
    /// `trace.*` per-layer metrics of a traced run. `reference_revenue`
    /// holds each draw's reference replay.
    pub fn finish(mut self, reference_revenue: &[f64]) -> RunSummary {
        let rate = if self.rate_imposed {
            self.rate_raw.clone()
        } else {
            self.normalised(&self.rate_raw, false)
        };
        let cpu = self.normalised(&self.cpu_per_decision_raw, true);
        let lat = self.normalised(&self.lat_p50_raw, true);
        let ratios: Vec<f64> = self
            .revenue
            .iter()
            .zip(&self.draw)
            .map(|(r, &draw)| r / reference_revenue[draw])
            .collect();

        let mut layer = Vec::new();
        if self.tracer.enabled() {
            let laps = &self.host.readings;
            let speeds: Vec<f64> = laps
                .iter()
                .map(|&l| host::REF_NOMINAL_US * 1e-6 / l)
                .collect();
            stats::sort(&mut self.tail_pool);
            let (tail_q, tail_v) = stats::tail_percentile(&self.tail_pool);
            eprintln!(
                "latency tail: p{:.3} over {} pooled samples",
                tail_q * 100.0,
                self.tail_pool.len()
            );
            let wall_norm = self.normalised(&self.wall_raw, true);
            let with = self.over_draws(&wall_norm, |i| self.traced_rep[i], stats::median_of);
            let without = self.over_draws(&wall_norm, |i| !self.traced_rep[i], stats::median_of);
            layer.extend([
                ("run.host_speed", stats::median_of(&speeds)),
                ("run.host_speed_iqr_share", stats::iqr_share(&speeds)),
                ("run.ref_lap_us", stats::median_of(laps) * 1e6),
                ("run.raw_decisions_per_s", self.value(&self.rate_raw)),
                (
                    "run.raw_latency_p50_us",
                    self.value(&self.lat_p50_raw) * 1e6,
                ),
                (
                    "run.latency_p99_us",
                    stats::percentile_sorted(&self.tail_pool, 0.99) * 1e6,
                ),
                ("run.latency_tail_us", tail_v * 1e6),
                (
                    "run.rep_iqr_share",
                    self.over_draws(&rate, |_| true, stats::iqr_share),
                ),
                ("run.gen_cpu_share", stats::median_of(&self.gen_cpu_share)),
                (
                    "trace.overhead_share",
                    if without > 0.0 {
                        (with - without) / without
                    } else {
                        0.0
                    },
                ),
            ]);
        }

        RunSummary {
            correct: self.correct,
            attempted: self.attempted.max(1),
            failed: self.failed,
            repetitions: self.speed.len(),
            disturbed: self
                .off_cpu_share
                .iter()
                .filter(|&&share| share > DISTURBED_SHARE)
                .count(),
            setup_s: stats::median_of(&self.setup_norm),
            setup_raw_s: stats::median_of(&self.setup_raw),
            decisions_per_s: self.value(&rate),
            raw_decisions_per_s: self.value(&self.rate_raw),
            cpu_us_per_decision: self.value(&cpu) * 1e6,
            raw_cpu_us_per_decision: self.value(&self.cpu_per_decision_raw) * 1e6,
            latency_p50_us: self.value(&lat) * 1e6,
            raw_latency_p50_us: self.value(&self.lat_p50_raw) * 1e6,
            revenue_ratio: self.value(&ratios),
            host_speed: stats::median_of(&self.speed),
            layer,
            tracer: self.tracer,
        }
    }
}

/// What a finished run reports.
#[derive(Debug)]
pub struct RunSummary {
    /// Every correctness check passed and no operation failed.
    pub correct: bool,
    /// Operations offered over all repetitions.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Repetitions made.
    pub repetitions: usize,
    /// Repetitions among them during which the process was off its CPU
    /// for more than 2 % of the timed region. Reported only: they count
    /// in every median like the rest.
    pub disturbed: usize,
    /// Median normalised set-up seconds.
    pub setup_s: f64,
    /// Median raw set-up seconds.
    pub setup_raw_s: f64,
    /// Median normalised (raw for `serve_paced`) decisions per second.
    pub decisions_per_s: f64,
    /// Median raw decisions per second.
    pub raw_decisions_per_s: f64,
    /// Median process CPU microseconds per decision.
    pub cpu_us_per_decision: f64,
    /// The same, raw.
    pub raw_cpu_us_per_decision: f64,
    /// Median over repetitions of the in-repetition median latency.
    pub latency_p50_us: f64,
    /// The same, raw.
    pub raw_latency_p50_us: f64,
    /// Median observed ÷ reference revenue.
    pub revenue_ratio: f64,
    /// Median host speed over the repetitions' brackets.
    pub host_speed: f64,
    /// `run.*` and `trace.*` per-layer metrics (traced runs only).
    pub layer: Vec<(&'static str, f64)>,
    /// The spans, to be written out at exit.
    pub tracer: Tracer,
}
