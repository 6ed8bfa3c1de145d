//! The five workloads: what each sets up, what one repetition times, and
//! what it checks afterwards.
//!
//! A run makes `run::DRAWS` draws of its inputs from the seed and keeps
//! one fixture per draw; every repetition on a draw is identical — a
//! fresh scheduler or daemon and the same fixed prefix of the draw's
//! stream — so the spread between them is the host's, not the input's.
//! Set-up generates the *whole-horizon* stream (that is what a user pays
//! before the first answer) and replays the prefix through
//! `vnfrel::run_online` to get the revenue every repetition on that draw
//! is compared against.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use crate::adapter::scenario::{self, Shape};
use crate::adapter::sched::{self, Alg, Backup, Batch, Mixed};
use crate::adapter::serve::{self, Daemon};
use crate::adapter::{ChainRequest, ProblemInstance, Request};
use crate::host;
use crate::loadgen::{
    self, connect, drive_paced, drive_saturating, Conn, FramePlan, PacedBuffers, PacedPlan,
    SatBuffers, Tally,
};
use crate::run::{Repetition, RunCtx, RunSummary, Timed};
use crate::stats;
use crate::trace::Tracer;

/// Requests in the whole-horizon scarce and week streams.
pub const FULL_STREAM: usize = 131_072;
/// Requests per v3 frame.
pub const BATCH: usize = 64;
/// Frames in flight per connection.
pub const WINDOW: usize = 8;
/// `decide` calls per latency block of the in-process workloads.
pub const BLOCK: usize = 64;
/// Rate of the paced workload, requests per second.
pub const PACED_RATE: f64 = 10_000.0;
/// Submits between `snapshot` controls in the paced workload.
pub const SNAPSHOT_EVERY: usize = 2_000;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sharded daemon, S = 1, reject fast path.
    ServeCodecSat,
    /// Sharded daemon, S = 2, week stream.
    ServeWeekS2,
    /// Classic daemon, open loop at a fixed rate, snapshots.
    ServePaced,
    /// `Simulation::run`, four schedulers, two streams.
    SchedBatch,
    /// `MixedSimulation::run`, shared backups.
    ChainMixed,
}

impl Workload {
    /// All five, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::ServeCodecSat,
        Workload::ServeWeekS2,
        Workload::ServePaced,
        Workload::SchedBatch,
        Workload::ChainMixed,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCodecSat => "serve_codec_sat",
            Workload::ServeWeekS2 => "serve_week_s2",
            Workload::ServePaced => "serve_paced",
            Workload::SchedBatch => "sched_batch",
            Workload::ChainMixed => "chain_mixed",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `serve_paced` imposes its rate: its `decisions_per_s` is the
    /// open loop's schedule, not the host's speed, and is reported raw.
    pub fn rate_imposed(self) -> bool {
        self == Workload::ServePaced
    }

    /// Runs the workload inside `ctx` and closes the run.
    pub fn run(self, seed: u64, ctx: RunCtx) -> RunSummary {
        match self {
            Workload::ServeCodecSat => run_saturating(seed, ctx, Shape::Scarce, 65_536, 1),
            Workload::ServeWeekS2 => run_saturating(seed, ctx, Shape::Week, 16_384, 2),
            Workload::ServePaced => run_paced(seed, ctx),
            Workload::SchedBatch => run_sched_batch(seed, ctx),
            Workload::ChainMixed => run_chain_mixed(seed, ctx),
        }
    }
}

/// Where runs may write: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

// Topology → instance → whole-horizon stream, each in its own span.
fn build_scenario(
    shape: Shape,
    seed: u64,
    draw: usize,
    tracer: &mut Tracer,
) -> (Arc<ProblemInstance>, Vec<Request>) {
    let mut rng = scenario::draw_rng(seed, draw);
    let (network, _) = tracer.span("setup.topology", 0, || scenario::network(shape));
    let (instance, _) = tracer.span("setup.instance", 0, || scenario::instance(shape, network));
    let (requests, _) = tracer.span("setup.stream", 0, || {
        scenario::requests(shape, &instance, FULL_STREAM, &mut rng)
    });
    (Arc::new(instance), requests)
}

fn frame_spans(tracer: &mut Tracer, parent: u64, group: u64, stamps: &[(Instant, Instant)]) {
    for &(sent, replied) in stamps {
        tracer.record("frame", parent, group, sent, replied);
    }
}

fn push_latencies(out: &mut Vec<f64>, stamps: &[(Instant, Instant)]) {
    out.extend(stamps.iter().map(|&(a, b)| (b - a).as_secs_f64()));
}

// ---------------------------------------------------------------------
// serve_codec_sat and serve_week_s2
// ---------------------------------------------------------------------

struct SatFixture {
    instance: Arc<ProblemInstance>,
    plans: Vec<FramePlan>,
    shards: usize,
    reference: sched::Outcome,
}

struct SatLive {
    daemon: Daemon,
    conns: Vec<Conn>,
}

struct SatRep<'a> {
    fx: &'a SatFixture,
    buffers: Vec<SatBuffers>,
    tallies: Vec<Tally>,
    last_outcome: Option<serve::DaemonOutcome>,
}

impl<'a> SatRep<'a> {
    fn new(fx: &'a SatFixture) -> Self {
        SatRep {
            fx,
            buffers: fx.plans.iter().map(|_| SatBuffers::default()).collect(),
            tallies: Vec::with_capacity(fx.plans.len()),
            last_outcome: None,
        }
    }
}

fn sat_bring_up(fx: &SatFixture) -> SatLive {
    let daemon = serve::spawn_sharded(Arc::clone(&fx.instance), fx.shards, fx.plans.len());
    let conns = fx
        .plans
        .iter()
        .map(|_| {
            let mut conn = connect(daemon.addr);
            conn.ping().expect("daemon answers a stats control");
            conn
        })
        .collect();
    SatLive { daemon, conns }
}

// Closes every connection but the first, which carries `shutdown`.
fn sat_shut_down(live: SatLive) -> Option<(serve::Counters, serve::DaemonOutcome)> {
    let mut conns = live.conns.into_iter();
    let first = conns.next()?;
    drop(conns);
    let counters = first.shutdown()?;
    Some((counters, live.daemon.join()))
}

impl Repetition for SatRep<'_> {
    type Live = SatLive;

    fn bring_up(&mut self) -> SatLive {
        sat_bring_up(self.fx)
    }

    fn timed(&mut self, live: &mut SatLive, latencies: &mut Vec<f64>) -> Timed {
        let cpu0 = host::process_cpu_s();
        self.tallies.clear();
        if let [conn] = live.conns.as_mut_slice() {
            // One connection: the calling thread is the generator.
            self.tallies.push(drive_saturating(
                conn,
                &self.fx.plans[0],
                WINDOW,
                &mut self.buffers[0],
            ));
        } else {
            let barrier = Barrier::new(live.conns.len());
            let plans = &self.fx.plans;
            self.tallies = std::thread::scope(|scope| {
                let handles: Vec<_> = live
                    .conns
                    .iter_mut()
                    .zip(plans)
                    .zip(&mut self.buffers)
                    .map(|((conn, plan), buf)| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            barrier.wait();
                            drive_saturating(conn, plan, WINDOW, buf)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("generator thread panicked"))
                    .collect()
            });
        }
        let cpu_s = host::process_cpu_s() - cpu0;
        let started = self
            .tallies
            .iter()
            .map(|t| t.started)
            .min()
            .expect("a connection");
        let finished = self
            .tallies
            .iter()
            .map(|t| t.finished)
            .max()
            .expect("a connection");
        for buf in &self.buffers {
            push_latencies(latencies, &buf.stamps);
        }
        Timed {
            attempted: self.tallies.iter().map(|t| t.sent as u64).sum(),
            failed: self.tallies.iter().map(|t| t.failed as u64).sum(),
            decisions: self.tallies.iter().map(|t| t.decided as u64).sum(),
            wall_s: (finished - started).as_secs_f64(),
            process_cpu_s: cpu_s,
            cpu_s,
            gen_cpu_s: self.tallies.iter().map(|t| t.gen_cpu_s).sum(),
            revenue: self.tallies.iter().map(|t| t.revenue).sum(),
            latency_s: stats::median(latencies),
        }
    }

    fn tear_down(&mut self, live: SatLive, timed: &Timed) -> bool {
        let Some((counters, outcome)) = sat_shut_down(live) else {
            eprintln!("check failed: no shutdown ack");
            return false;
        };
        let admitted: usize = self.tallies.iter().map(|t| t.admitted).sum();
        let mut ok = true;
        let mut check = |cond: bool, what: &str| {
            if !cond {
                eprintln!("check failed: {what}");
                ok = false;
            }
        };
        check(
            timed.failed == 0,
            "an operation was shed, refused or unanswered",
        );
        check(
            timed.decisions + counters.overloaded == timed.attempted,
            "sent != decided + shed",
        );
        check(
            counters.decided == timed.decisions,
            "client and daemon decided counts differ",
        );
        check(
            counters.admitted == admitted as u64,
            "client and daemon admitted counts differ",
        );
        check(
            outcome.counters.revenue.to_bits() == counters.revenue.to_bits(),
            "ack and report revenue differ",
        );
        if self.fx.shards == 1 {
            // S = 1 advertises bit-parity with the batch engine.
            check(
                timed.revenue.to_bits() == self.fx.reference.revenue.to_bits(),
                "S=1 revenue is not bit-identical to the reference replay",
            );
            check(
                admitted == self.fx.reference.admitted,
                "S=1 admitted count differs",
            );
        } else {
            check(timed.revenue > 0.0, "sharded run collected no revenue");
        }
        self.last_outcome = Some(outcome);
        ok
    }

    fn emit_spans(&self, tracer: &mut Tracer, parent: u64, group: u64) {
        for buf in &self.buffers {
            frame_spans(tracer, parent, group, &buf.stamps);
        }
    }
}

fn sat_fixture(
    seed: u64,
    draw: usize,
    shape: Shape,
    prefix: usize,
    shards: usize,
    tracer: &mut Tracer,
) -> SatFixture {
    let (instance, requests) = build_scenario(shape, seed, draw, tracer);
    let prefix = &requests[..prefix];
    let (reference, _) = tracer.span("setup.reference", 0, || {
        sched::reference(Alg::Alg2, &instance, prefix)
    });
    let (plans, _) = tracer.span("setup.encode", 0, || {
        loadgen::plan_frames(prefix, shards, shards, BATCH)
    });
    SatFixture {
        instance,
        plans,
        shards,
        reference,
    }
}

fn run_saturating(
    seed: u64,
    mut ctx: RunCtx,
    shape: Shape,
    prefix: usize,
    shards: usize,
) -> RunSummary {
    let build = |draw: usize, tracer: &mut Tracer| {
        let fx = sat_fixture(seed, draw, shape, prefix, shards, tracer);
        // The daemon answering its first frame closes the set-up.
        let (live, _) = tracer.span("setup.first_answer", 0, || {
            let mut live = sat_bring_up(&fx);
            let mut buf = SatBuffers::default();
            let tally = drive_saturating(&mut live.conns[0], &fx.plans[0].head(1), 1, &mut buf);
            assert_eq!(tally.failed, 0, "the first frame was not answered");
            live
        });
        (fx, live)
    };
    let shut_down = |live: SatLive| {
        sat_shut_down(live).expect("clean shutdown after the first answer");
    };
    let fixtures = ctx.setup_samples(build, shut_down);
    let mut reps: Vec<SatRep> = fixtures.iter().map(SatRep::new).collect();
    ctx.repeat(&mut reps);
    let references: Vec<f64> = fixtures.iter().map(|fx| fx.reference.revenue).collect();
    ctx.finish(&references)
}

/// One saturating repetition outside a run, for the per-layer pass.
#[derive(Debug)]
pub struct SatPoint {
    /// The timed region's measurements.
    pub timed: Timed,
    /// The daemon's report, stage times included.
    pub outcome: serve::DaemonOutcome,
    /// Every check of the repetition passed.
    pub ok: bool,
    /// Seconds to bring the daemon up to its first answered control.
    pub bringup_s: f64,
    /// Allocation calls and bytes during the timed region (zero without
    /// the counting allocator).
    pub allocations: (u64, u64),
    /// Σ reference revenue the point is compared against.
    pub reference_revenue: f64,
}

/// Runs one repetition of the saturating shape `(shape, prefix, shards)`.
pub fn saturating_point(seed: u64, shape: Shape, prefix: usize, shards: usize) -> SatPoint {
    let fx = sat_fixture(seed, 0, shape, prefix, shards, &mut Tracer::new(false));
    let mut rep = SatRep::new(&fx);
    let t0 = Instant::now();
    let mut live = rep.bring_up();
    let bringup_s = t0.elapsed().as_secs_f64();
    let before = crate::alloc::reading();
    let timed = rep.timed(&mut live, &mut Vec::new());
    let after = crate::alloc::reading();
    let ok = rep.tear_down(live, &timed);
    SatPoint {
        timed,
        outcome: rep
            .last_outcome
            .take()
            .expect("tear_down stores the outcome"),
        ok,
        bringup_s,
        allocations: (after.count - before.count, after.bytes - before.bytes),
        reference_revenue: fx.reference.revenue,
    }
}

// ---------------------------------------------------------------------
// serve_paced
// ---------------------------------------------------------------------

struct PacedFixture {
    instance: Arc<ProblemInstance>,
    plan: PacedPlan,
    snapshot: PathBuf,
    reference: sched::Outcome,
}

struct PacedLive {
    daemon: Daemon,
    conn: Conn,
}

struct PacedRep<'a> {
    fx: &'a PacedFixture,
    rate: f64,
    buffers: PacedBuffers,
    tally: Option<Tally>,
}

fn paced_bring_up(fx: &PacedFixture) -> PacedLive {
    let daemon = serve::spawn_classic(Arc::clone(&fx.instance), Some(fx.snapshot.clone()));
    let mut conn = connect(daemon.addr);
    conn.ping().expect("daemon answers a stats control");
    PacedLive { daemon, conn }
}

impl Repetition for PacedRep<'_> {
    type Live = PacedLive;

    fn bring_up(&mut self) -> PacedLive {
        paced_bring_up(self.fx)
    }

    fn timed(&mut self, live: &mut PacedLive, latencies: &mut Vec<f64>) -> Timed {
        let cpu0 = host::process_cpu_s();
        let tally = drive_paced(&mut live.conn, &self.fx.plan, self.rate, &mut self.buffers);
        // The generator's polling burns whatever the daemon leaves of the
        // CPU; what is reported is the daemon's own CPU.
        let process_cpu_s = host::process_cpu_s() - cpu0;
        let cpu_s = process_cpu_s - tally.gen_cpu_s;
        latencies.extend_from_slice(&self.buffers.latency);
        self.tally = Some(tally);
        // The median over slices of `PACED_SLICE` consecutive replies
        // (10 ms at the workload's rate) of the slice's median: when the
        // hypervisor takes the CPU for a few milliseconds, every request
        // that falls due meanwhile waits, and in a bad minute that is a
        // fifth of a repetition's requests — enough to pull its plain
        // median up by several percent — but only a fifth of its slices.
        let mut slices: Vec<f64> = latencies
            .chunks_mut(PACED_SLICE)
            .map(stats::median)
            .collect();
        Timed {
            attempted: tally.sent as u64,
            failed: tally.failed as u64,
            decisions: tally.decided as u64,
            wall_s: (tally.finished - tally.started).as_secs_f64(),
            process_cpu_s,
            cpu_s,
            gen_cpu_s: tally.gen_cpu_s,
            revenue: tally.revenue,
            latency_s: stats::median(&mut slices),
        }
    }

    fn tear_down(&mut self, live: PacedLive, timed: &Timed) -> bool {
        let Some(counters) = live.conn.shutdown() else {
            eprintln!("check failed: no shutdown ack");
            return false;
        };
        let outcome = live.daemon.join();
        let tally = self.tally.expect("timed ran");
        let mut ok = true;
        let mut check = |cond: bool, what: &str| {
            if !cond {
                eprintln!("check failed: {what}");
                ok = false;
            }
        };
        check(
            timed.failed == 0,
            "an operation was shed, refused or unanswered",
        );
        check(
            timed.decisions + counters.overloaded == timed.attempted,
            "sent != decided + shed",
        );
        check(
            counters.decided == timed.decisions,
            "client and daemon decided counts differ",
        );
        check(outcome.max_overflow == 0.0, "ledger overflowed");
        check(
            timed.revenue.to_bits() == self.fx.reference.revenue.to_bits(),
            "classic daemon revenue is not bit-identical to the reference replay",
        );
        check(
            tally.admitted == self.fx.reference.admitted,
            "admitted count differs",
        );
        ok
    }

    fn emit_spans(&self, tracer: &mut Tracer, parent: u64, group: u64) {
        frame_spans(tracer, parent, group, &self.buffers.stamps);
    }
}

/// Requests in one paced repetition: 0.24 s at the workload's rate, the
/// shortest that still has a snapshot in mid-stream (after 2000 submits;
/// the daemon writes another at shutdown). What a paced repetition reads
/// scatters by a tenth from one fresh daemon to the next whatever its
/// length, so a run is better spent on more of them.
pub const PACED_PREFIX: usize = 2_400;
/// Replies per slice of the paced repetition's latency.
const PACED_SLICE: usize = 100;

fn paced_fixture(seed: u64, draw: usize, prefix: usize, tracer: &mut Tracer) -> PacedFixture {
    let (instance, requests) = build_scenario(Shape::Day, seed, draw, tracer);
    let prefix = &requests[..prefix];
    let (reference, _) = tracer.span("setup.reference", 0, || {
        sched::reference(Alg::Alg1, &instance, prefix)
    });
    let (plan, _) = tracer.span("setup.encode", 0, || PacedPlan::new(prefix, SNAPSHOT_EVERY));
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
    PacedFixture {
        instance,
        plan,
        snapshot: dir.join(format!("snapshot-{}.json", std::process::id())),
        reference,
    }
}

fn run_paced(seed: u64, mut ctx: RunCtx) -> RunSummary {
    let build = |draw: usize, tracer: &mut Tracer| {
        let fx = paced_fixture(seed, draw, PACED_PREFIX, tracer);
        let (live, _) = tracer.span("setup.first_answer", 0, || {
            let mut live = paced_bring_up(&fx);
            let mut buf = PacedBuffers::default();
            let tally = drive_paced(&mut live.conn, &fx.plan.head(1), PACED_RATE, &mut buf);
            assert_eq!(tally.failed, 0, "the first request was not answered");
            live
        });
        (fx, live)
    };
    let shut_down = |live: PacedLive| {
        live.conn
            .shutdown()
            .expect("clean shutdown after the first answer");
        live.daemon.join();
    };
    let fixtures = ctx.setup_samples(build, shut_down);
    let mut reps: Vec<PacedRep> = fixtures
        .iter()
        .map(|fx| PacedRep {
            fx,
            rate: PACED_RATE,
            buffers: PacedBuffers::default(),
            tally: None,
        })
        .collect();
    ctx.repeat(&mut reps);
    let _ = std::fs::remove_file(&fixtures[0].snapshot);
    let references: Vec<f64> = fixtures.iter().map(|fx| fx.reference.revenue).collect();
    ctx.finish(&references)
}

/// One paced point for the per-layer sweep: `requests` at `rate` against
/// a fresh classic daemon. Returns the tally, the sorted due→reply
/// latencies and the sorted sender lags, all in seconds.
pub fn paced_point(seed: u64, rate: f64, requests: usize) -> (Tally, Vec<f64>, Vec<f64>) {
    let mut tracer = Tracer::new(false);
    let fx = paced_fixture(seed, 0, requests, &mut tracer);
    let mut rep = PacedRep {
        fx: &fx,
        rate,
        buffers: PacedBuffers::default(),
        tally: None,
    };
    let mut live = rep.bring_up();
    let mut latencies = Vec::new();
    let timed = rep.timed(&mut live, &mut latencies);
    let _ = rep.tear_down(live, &timed);
    let _ = std::fs::remove_file(&fx.snapshot);
    let mut lag = std::mem::take(&mut rep.buffers.lag);
    stats::sort(&mut latencies);
    stats::sort(&mut lag);
    (rep.tally.expect("timed ran"), latencies, lag)
}

// ---------------------------------------------------------------------
// sched_batch
// ---------------------------------------------------------------------

/// Prefix of the week stream each scheduler replays per repetition.
pub const BATCH_WEEK_PREFIX: usize = 6_144;
/// Prefix of the scarce stream each scheduler replays per repetition.
pub const BATCH_SCARCE_PREFIX: usize = 16_384;
/// Requests per stream and scheduler in the latency pass.
const BATCH_LATENCY_PREFIX: usize = 4_096;

struct BatchStream {
    instance: Arc<ProblemInstance>,
    // The prefix one repetition replays; the rest of the whole-horizon
    // stream goes once set-up has generated it.
    requests: Vec<Request>,
    references: [sched::Outcome; 4],
}

struct BatchRep<'a> {
    streams: &'a [BatchStream],
    sims: Vec<Batch<'a>>,
    reference_revenue: f64,
    outcomes: Vec<sched::Outcome>,
    run_stamps: Vec<(Instant, Instant)>,
    block_stamps: Vec<(Instant, Instant)>,
}

impl Repetition for BatchRep<'_> {
    type Live = ();

    fn bring_up(&mut self) {}

    fn timed(&mut self, _live: &mut (), latencies: &mut Vec<f64>) -> Timed {
        self.outcomes.clear();
        self.run_stamps.clear();
        self.block_stamps.clear();
        let cpu0 = host::process_cpu_s();
        let started = Instant::now();
        for sim in &self.sims {
            for alg in Alg::ALL {
                let t0 = Instant::now();
                self.outcomes.push(sim.run(alg));
                self.run_stamps.push((t0, Instant::now()));
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - cpu0;
        // Latency pass: bare `decide` loops, one clock read per block.
        // The eight scheduler × stream pairs differ fifty-fold in block
        // time, so a median over all their blocks falls into the gap
        // between two of them and jumps with the seed; the repetition's
        // latency is the geometric mean of the eight pairs' medians,
        // which moves with each pair in proportion.
        let mut ln_sum = 0.0;
        for stream in self.streams {
            for alg in Alg::ALL {
                let first = latencies.len();
                sched::decide_blocks(
                    alg,
                    &stream.instance,
                    &stream.requests[..BATCH_LATENCY_PREFIX],
                    BLOCK,
                    latencies,
                    Some(&mut self.block_stamps),
                );
                ln_sum += stats::median(&mut latencies[first..]).ln();
            }
        }
        let pairs = (self.streams.len() * Alg::ALL.len()) as f64;
        let decisions: usize = self.outcomes.iter().map(|o| o.decisions).sum();
        Timed {
            attempted: decisions as u64,
            failed: 0,
            decisions: decisions as u64,
            wall_s,
            process_cpu_s: cpu_s,
            cpu_s,
            gen_cpu_s: 0.0,
            revenue: self.outcomes.iter().map(|o| o.revenue).sum(),
            latency_s: (ln_sum / pairs).exp(),
        }
    }

    fn tear_down(&mut self, _live: (), timed: &Timed) -> bool {
        let references = self.streams.iter().flat_map(|s| s.references.iter());
        let mut ok = true;
        for (got, want) in self.outcomes.iter().zip(references) {
            if got.revenue.to_bits() != want.revenue.to_bits() || got.admitted != want.admitted {
                eprintln!("check failed: Simulation::run differs from the reference replay");
                ok = false;
            }
            if !got.feasible || got.max_overflow != 0.0 {
                eprintln!("check failed: infeasible schedule or ledger overflow");
                ok = false;
            }
        }
        if timed.revenue.to_bits() != self.reference_revenue.to_bits() {
            eprintln!("check failed: total revenue differs from the reference replay");
            ok = false;
        }
        ok
    }

    fn emit_spans(&self, tracer: &mut Tracer, parent: u64, group: u64) {
        for &(a, b) in &self.run_stamps {
            tracer.record("simulation.run", parent, group, a, b);
        }
        for &(a, b) in &self.block_stamps {
            tracer.record("decide.block", parent, group, a, b);
        }
    }
}

fn run_sched_batch(seed: u64, mut ctx: RunCtx) -> RunSummary {
    let build = |draw: usize, tracer: &mut Tracer| {
        let streams = [
            (Shape::Week, BATCH_WEEK_PREFIX),
            (Shape::Scarce, BATCH_SCARCE_PREFIX),
        ]
        .map(|(shape, prefix)| {
            let (instance, mut requests) = build_scenario(shape, seed, draw, tracer);
            requests.truncate(prefix);
            requests.shrink_to_fit();
            let (references, _) = tracer.span("setup.reference", 0, || {
                Alg::ALL.map(|alg| sched::reference(alg, &instance, &requests))
            });
            // The first scheduler answering its first request.
            tracer.span("setup.first_answer", 0, || {
                sched::reference(Alg::Alg1, &instance, &requests[..1])
            });
            BatchStream {
                instance,
                requests,
                references,
            }
        });
        (streams, ())
    };
    let shut_down = |()| {};
    let fixtures = ctx.setup_samples(build, shut_down);
    let references: Vec<f64> = fixtures
        .iter()
        .map(|streams| {
            streams
                .iter()
                .flat_map(|s| s.references.iter())
                .map(|o| o.revenue)
                .sum()
        })
        .collect();
    let mut reps: Vec<BatchRep> = fixtures
        .iter()
        .zip(&references)
        .map(|(streams, &reference_revenue)| BatchRep {
            streams,
            sims: streams
                .iter()
                .map(|s| Batch::new(&s.instance, &s.requests))
                .collect(),
            reference_revenue,
            outcomes: Vec::with_capacity(8),
            run_stamps: Vec::with_capacity(8),
            block_stamps: Vec::with_capacity(8 * BATCH_LATENCY_PREFIX / BLOCK),
        })
        .collect();
    ctx.repeat(&mut reps);
    ctx.finish(&references)
}

// ---------------------------------------------------------------------
// chain_mixed
// ---------------------------------------------------------------------

/// Chains in the whole-horizon chain stream; singles are twice as many.
pub const CHAIN_FULL: usize = 6_144;
/// Chains replayed per repetition (with twice as many singles).
pub const CHAIN_PREFIX: usize = 3_072;
/// Chains admitted-then-released by the leak check.
const CHAIN_RELEASE_SAMPLE: usize = 256;

/// The chain scenario: instance, whole-horizon singles and chains.
#[derive(Debug)]
pub struct ChainFixture {
    /// Chain-shape instance.
    pub instance: ProblemInstance,
    /// Whole-horizon single-VNF stream (two per chain).
    pub singles: Vec<Request>,
    /// Whole-horizon chain stream.
    pub chains: Vec<ChainRequest>,
    /// Leading singles in one repetition.
    pub single_prefix: usize,
    /// Leading chains in one repetition.
    pub chain_prefix: usize,
}

/// Builds the chain scenario of the seed's `draw`-th draw.
pub fn chain_fixture(seed: u64, draw: usize, tracer: &mut Tracer) -> ChainFixture {
    let mut rng = scenario::draw_rng(seed, draw);
    let (network, _) = tracer.span("setup.topology", 0, || scenario::network(Shape::Chain));
    let (instance, _) = tracer.span("setup.instance", 0, || {
        scenario::instance(Shape::Chain, network)
    });
    let ((singles, chains), _) = tracer.span("setup.stream", 0, || {
        let singles = scenario::requests(Shape::Chain, &instance, 2 * CHAIN_FULL, &mut rng);
        let chains = scenario::chains(&instance, CHAIN_FULL, &mut rng);
        (singles, chains)
    });
    // Both prefixes end at the same slot, so the merged prefix is a
    // prefix of the merged stream.
    let cut = chains[CHAIN_PREFIX].arrival();
    ChainFixture {
        single_prefix: scenario::prefix_before_slot(&singles, cut),
        chain_prefix: scenario::chain_prefix_before_slot(&chains, cut),
        instance,
        singles,
        chains,
    }
}

struct ChainRep<'a> {
    fx: &'a ChainFixture,
    sim: Mixed<'a>,
    reference: sched::MixedOutcome,
    outcome: Option<sched::MixedOutcome>,
    run_stamp: Option<(Instant, Instant)>,
    block_stamps: Vec<(Instant, Instant)>,
}

impl Repetition for ChainRep<'_> {
    type Live = ();

    fn bring_up(&mut self) {}

    fn timed(&mut self, _live: &mut (), latencies: &mut Vec<f64>) -> Timed {
        self.block_stamps.clear();
        let cpu0 = host::process_cpu_s();
        let started = Instant::now();
        let outcome = self.sim.run(Backup::Shared);
        let finished = Instant::now();
        let cpu_s = host::process_cpu_s() - cpu0;
        self.run_stamp = Some((started, finished));
        self.outcome = Some(outcome);
        let fx = self.fx;
        sched::mixed_decide_blocks(
            &fx.instance,
            &fx.singles[..fx.single_prefix / 2],
            &fx.chains[..fx.chain_prefix / 2],
            Backup::Shared,
            BLOCK,
            latencies,
            Some(&mut self.block_stamps),
        );
        Timed {
            attempted: outcome.decisions as u64,
            failed: 0,
            decisions: outcome.decisions as u64,
            wall_s: (finished - started).as_secs_f64(),
            process_cpu_s: cpu_s,
            cpu_s,
            gen_cpu_s: 0.0,
            revenue: outcome.revenue,
            latency_s: stats::median(latencies),
        }
    }

    fn tear_down(&mut self, _live: (), _timed: &Timed) -> bool {
        let got = self.outcome.expect("timed ran");
        let mut ok = true;
        if got.revenue.to_bits() != self.reference.revenue.to_bits()
            || got.admitted_chains != self.reference.admitted_chains
            || got.admitted_singles != self.reference.admitted_singles
        {
            eprintln!("check failed: MixedSimulation::run differs from the reference replay");
            ok = false;
        }
        if got.max_overflow != 0.0 {
            eprintln!("check failed: chain ledger overflowed");
            ok = false;
        }
        ok
    }

    fn emit_spans(&self, tracer: &mut Tracer, parent: u64, group: u64) {
        if let Some((a, b)) = self.run_stamp {
            tracer.record("mixed_simulation.run", parent, group, a, b);
        }
        for &(a, b) in &self.block_stamps {
            tracer.record("decide.block", parent, group, a, b);
        }
    }
}

/// The reference replay of the chain workload: the merged prefix through
/// `decide_single` / `decide_chain` directly.
pub fn chain_reference(fx: &ChainFixture) -> sched::MixedOutcome {
    sched::mixed_decide_blocks(
        &fx.instance,
        &fx.singles[..fx.single_prefix],
        &fx.chains[..fx.chain_prefix],
        Backup::Shared,
        usize::MAX,
        &mut Vec::new(),
        None,
    )
}

fn run_chain_mixed(seed: u64, mut ctx: RunCtx) -> RunSummary {
    let build = |draw: usize, tracer: &mut Tracer| {
        let fx = chain_fixture(seed, draw, tracer);
        let (reference, _) = tracer.span("setup.reference", 0, || chain_reference(&fx));
        tracer.span("setup.first_answer", 0, || {
            sched::mixed_decide_blocks(
                &fx.instance,
                &fx.singles[..1],
                &fx.chains[..1],
                Backup::Shared,
                BLOCK,
                &mut Vec::new(),
                None,
            )
        });
        ((fx, reference), ())
    };
    let shut_down = |()| {};
    let fixtures = ctx.setup_samples(build, shut_down);
    // The leak check samples the first draw: in dedicated mode its
    // leading chains as they are, in shared mode — the workload's — the
    // same chains arriving in one slot. A standby joined across a gap
    // between two windows is charged for less than `release_chain`
    // credits (README.md, "Correctness checks": a defect of the library,
    // found by this check, on about one stream in twenty); windows that
    // all share a slot leave no gap, and still join, extend and shrink
    // standbys.
    let fx = &fixtures[0].0;
    let sample = &fx.chains[..CHAIN_RELEASE_SAMPLE];
    let together = scenario::arriving_together(&fx.instance, sample);
    for (chains, backup) in [
        (sample, Backup::Dedicated),
        (together.as_slice(), Backup::Shared),
    ] {
        if !sched::chain_release_returns_to_baseline(&fx.instance, chains, backup) {
            ctx.fail("chain ledger or pool not back at baseline after release_chain");
        }
    }
    let mut reps: Vec<ChainRep> = fixtures
        .iter()
        .map(|(fx, reference)| ChainRep {
            fx,
            sim: Mixed::new(
                &fx.instance,
                &fx.singles[..fx.single_prefix],
                &fx.chains[..fx.chain_prefix],
            ),
            reference: *reference,
            outcome: None,
            run_stamp: None,
            block_stamps: Vec::new(),
        })
        .collect();
    ctx.repeat(&mut reps);
    let references: Vec<f64> = fixtures.iter().map(|(_, r)| r.revenue).collect();
    ctx.finish(&references)
}
