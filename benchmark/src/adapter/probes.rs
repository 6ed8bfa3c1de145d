//! Isolation probes: one function per layer operation, each doing
//! `iters` calls into a public function and returning a checksum, so the
//! caller can time a tight loop from outside. Nothing here reads a
//! clock except where a call must be split into untimed warm-up and
//! timed work on one scheduler.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use mec_obs::{
    to_json, DecisionEvent, MetricId, MetricsRegistry, Outcome as ObsOutcome, RejectReason,
    RingSink, TraceEvent, TraceSink,
};
use mec_serve::pool::BoundedQueue;
use mec_serve::{
    encode_batch_into, encode_batch_reply_into, encode_server, parse_batch_into, parse_client,
    ServeMetricIds, ServeStats, ServerMsg, Snapshot, SubmitRequest, BATCH_REJECT,
};
use mec_sim::parallel::parallel_map;
use mec_topology::generators::CloudletPlacement;
use mec_topology::{zoo, CloudletId, Network, NodeId};
use mec_workload::{ChainRequest, Horizon, Request};
use vnfrel::chain::{
    BackupMode, ChainPrimalDual, ChainScheduler, PathTable, SharedBackupPool, StageNeed,
};
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::{CapacityLedger, DualPrices, OnlineScheduler, ProblemInstance};

use super::scenario::Shape;
use super::sched::{self, Alg, Backup};
use super::serve::submit_of;

/// `size_of::<Request>()`.
pub fn request_bytes() -> usize {
    std::mem::size_of::<Request>()
}

/// Abilene with capacity no stream can exhaust, so every feasible
/// request is admitted (the admit-path probes run on it).
fn abundant_network() -> Network {
    let rng = &mut super::scenario::rng(super::scenario::TOPOLOGY_SEED);
    let placement = CloudletPlacement {
        fraction: 1.0,
        capacity: (1_000_000, 1_000_000),
        reliability: (0.99, 0.9999),
    };
    zoo::abilene()
        .into_network(&placement, rng)
        .expect("abilene materializes")
}

/// `Network::shortest_path` for every ordered node pair; returns Σ hops.
pub fn all_pairs(network: &Network) -> usize {
    let n = network.ap_count();
    let mut hops = 0usize;
    for u in 0..n {
        for v in 0..n {
            if let Some(p) = network.shortest_path(NodeId(u), NodeId(v)) {
                hops += p.hops;
            }
        }
    }
    hops
}

// A cheap deterministic scatter over `0..n`.
#[inline]
fn scatter(i: usize, n: usize) -> usize {
    i.wrapping_mul(7919) % n
}

/// A `DualPrices` grid with non-zero prices.
#[derive(Debug)]
pub struct Prices {
    grid: DualPrices,
    cloudlets: usize,
    slots: usize,
}

impl Prices {
    /// `DualPrices::new` plus one pass of updates so sums are non-trivial.
    pub fn new(cloudlets: usize, slots: usize) -> Self {
        let mut grid = DualPrices::new(cloudlets, slots);
        for j in 0..cloudlets {
            grid.update_window(j, 0, slots - 1, |l| l + 0.5);
        }
        Prices {
            grid,
            cloudlets,
            slots,
        }
    }

    /// `iters` × `window_sum` over scattered `width`-slot windows.
    pub fn window_sums(&self, iters: usize, width: usize) -> f64 {
        let mut acc = 0.0;
        for i in 0..iters {
            let first = scatter(i, self.slots - width + 1);
            acc += self
                .grid
                .window_sum(i % self.cloudlets, first, first + width - 1);
        }
        acc
    }

    /// `iters` × `update_window` over scattered `width`-slot windows.
    pub fn update_windows(&mut self, iters: usize, width: usize) -> f64 {
        for i in 0..iters {
            let first = scatter(i, self.slots - width + 1);
            self.grid
                .update_window(i % self.cloudlets, first, first + width - 1, |l| {
                    l * 1.000_000_1 + 1e-9
                });
        }
        self.grid.row_total(0)
    }
}

/// A `CapacityLedger` over `instance`'s network and horizon.
#[derive(Debug)]
pub struct Ledger {
    ledger: CapacityLedger,
    cloudlets: usize,
    slots: usize,
}

impl Ledger {
    /// `CapacityLedger::new`, pre-charged with one unit everywhere so
    /// releases have something to give back.
    pub fn new(instance: &ProblemInstance) -> Self {
        let mut ledger = CapacityLedger::new(instance.network(), instance.horizon());
        let (cloudlets, slots) = (instance.cloudlet_count(), instance.horizon().len());
        for j in 0..cloudlets {
            ledger.charge_window(CloudletId(j), 0, slots - 1, 1.0);
        }
        Ledger {
            ledger,
            cloudlets,
            slots,
        }
    }

    fn window(&self, i: usize, width: usize) -> (CloudletId, usize, usize) {
        let first = scatter(i, self.slots - width + 1);
        (CloudletId(i % self.cloudlets), first, first + width - 1)
    }

    /// `iters` × `fits_window`.
    pub fn fits_windows(&self, iters: usize, width: usize) -> usize {
        (0..iters)
            .filter(|&i| {
                let (c, a, b) = self.window(i, width);
                self.ledger.fits_window(c, a, b, 1.0)
            })
            .count()
    }

    /// `iters` × `charge_window` of a negligible amount.
    pub fn charge_windows(&mut self, iters: usize, width: usize) -> f64 {
        for i in 0..iters {
            let (c, a, b) = self.window(i, width);
            self.ledger.charge_window(c, a, b, 1e-9);
        }
        self.ledger.used(CloudletId(0), 0)
    }

    /// `iters` × (`try_reserve_window` + `commit_reservation`).
    pub fn reserve_commits(&mut self, iters: usize, width: usize) -> usize {
        let mut committed = 0;
        for i in 0..iters {
            let (c, a, b) = self.window(i, width);
            if let Some(id) = self.ledger.try_reserve_window(c, a, b, 1e-9) {
                self.ledger
                    .commit_reservation(id)
                    .expect("fresh reservation");
                committed += 1;
            }
        }
        committed
    }

    /// `iters` × `release` of a negligible amount.
    pub fn releases(&mut self, iters: usize, width: usize) -> usize {
        (0..iters)
            .filter(|&i| {
                let (c, a, b) = self.window(i, width);
                self.ledger.release(c, a..=b, 1e-9).is_ok()
            })
            .count()
    }
}

/// One fresh scheduler: `warm` decided untimed, then `timed` decided
/// between two clock reads. Returns `(seconds, admitted among timed)`.
pub fn decide_after_warmup(
    alg: Alg,
    instance: &ProblemInstance,
    warm: &[Request],
    timed: &[Request],
) -> (f64, usize) {
    with_scheduler!(alg, instance, |s| {
        for r in warm {
            black_box(s.decide(r));
        }
        let start = Instant::now();
        let admitted = timed.iter().filter(|r| s.decide(r).is_admit()).count();
        (start.elapsed().as_secs_f64(), admitted)
    })
}

/// The chain counterpart of [`decide_after_warmup`].
pub fn chain_decide_after_warmup(
    instance: &ProblemInstance,
    backup: Backup,
    warm: &[ChainRequest],
    timed: &[ChainRequest],
) -> (f64, usize) {
    let mut alg = ChainPrimalDual::new(instance, backup.mode());
    for c in warm {
        let _ = black_box(alg.decide_chain(c));
    }
    let start = Instant::now();
    let admitted = timed.iter().filter(|c| alg.decide_chain(c).is_ok()).count();
    (start.elapsed().as_secs_f64(), admitted)
}

/// A `PathTable` over `network`.
#[derive(Debug)]
pub struct Paths<'a> {
    table: PathTable,
    network: &'a Network,
}

impl<'a> Paths<'a> {
    /// An empty table.
    pub fn new(network: &'a Network) -> Self {
        Paths {
            table: PathTable::new(),
            network,
        }
    }

    /// First query per source: runs Dijkstra for every node. Returns the
    /// number of sources filled.
    pub fn fill(&mut self) -> usize {
        let n = self.network.ap_count();
        for u in 0..n {
            black_box(self.table.distances(self.network, NodeId(u)));
        }
        n
    }

    /// `iters` × memoized `distance`.
    pub fn lookups(&mut self, iters: usize) -> f64 {
        let n = self.network.ap_count();
        let mut acc = 0.0;
        for i in 0..iters {
            acc += self
                .table
                .distance(self.network, NodeId(i % n), NodeId(scatter(i, n)));
        }
        acc
    }
}

/// `iters` × (`SharedBackupPool::plan` + `commit`) in shared mode on a
/// fresh pool and ledger; returns the standbys created.
pub fn pool_plan_commits(instance: &ProblemInstance, iters: usize) -> usize {
    let mut pool = SharedBackupPool::new(0.10);
    let mut ledger = CapacityLedger::new(instance.network(), instance.horizon());
    let vnf = instance.catalog().iter().next().expect("non-empty catalog");
    let (cloudlets, slots) = (instance.cloudlet_count(), instance.horizon().len());
    for i in 0..iters {
        let need = StageNeed {
            stage: 0,
            vnf: vnf.id(),
            compute: vnf.compute(),
            cloudlet: CloudletId(i % cloudlets),
            mass: 0.03,
        };
        let first = scatter(i, slots - 4);
        if let Some(plan) = pool.plan(
            BackupMode::Shared,
            &[need],
            first,
            first + 3,
            &ledger,
            &|_, _| 0.0,
        ) {
            pool.commit(&plan, i, &mut ledger);
        }
    }
    pool.standby_count()
}

/// `parallel_map` of `tasks` reference replays on `threads` threads;
/// returns Σ admitted.
pub fn parallel_replays(
    instance: &ProblemInstance,
    requests: &[Request],
    tasks: usize,
    threads: usize,
) -> usize {
    let items: Vec<usize> = (0..tasks).collect();
    parallel_map(&items, threads, |_| {
        sched::reference(Alg::Alg2, instance, requests).admitted
    })
    .into_iter()
    .sum()
}

/// One 64-request batch frame, its reply, one single submit line and one
/// decision message, ready for the codec probes.
#[derive(Debug)]
pub struct Wire {
    submits: Vec<SubmitRequest>,
    batch_line: String,
    reply_codes: Vec<u8>,
    reply_line: String,
    submit_line: String,
    decision: ServerMsg,
}

impl Wire {
    /// Encodes the fixtures from the first 64 of `requests`.
    pub fn new(requests: &[Request]) -> Self {
        let submits: Vec<SubmitRequest> = requests[..64].iter().map(submit_of).collect();
        let mut batch_line = String::new();
        encode_batch_into(&mut batch_line, 7, &submits);
        let reply_codes = vec![BATCH_REJECT; submits.len()];
        let mut reply_line = String::new();
        encode_batch_reply_into(&mut reply_line, 7, &reply_codes);
        let mut submit_line = super::serve::encode_submit_line(&submits[0]);
        submit_line.pop(); // the parsers take the line without its newline
        let decision = ServerMsg::Decision(reject_event(0));
        Wire {
            submits,
            batch_line,
            reply_codes,
            reply_line,
            submit_line,
            decision,
        }
    }

    /// Requests per batch frame.
    pub fn batch(&self) -> usize {
        self.submits.len()
    }

    /// Batch frame plus batch reply bytes (newlines included) per request.
    pub fn batch_wire_bytes_per_request(&self) -> f64 {
        (self.batch_line.len() + self.reply_line.len() + 2) as f64 / self.submits.len() as f64
    }

    /// `iters` × `parse_batch_into` of the frame.
    pub fn parse_batches(&self, iters: usize) -> usize {
        let mut out = Vec::with_capacity(self.submits.len());
        (0..iters)
            .map(|_| {
                parse_batch_into(black_box(&self.batch_line), &mut out).expect("own frame parses");
                out.len()
            })
            .sum()
    }

    /// `iters` × `encode_batch_reply_into`.
    pub fn encode_batch_replies(&self, iters: usize) -> usize {
        let mut out = String::with_capacity(self.reply_line.len());
        (0..iters)
            .map(|i| {
                encode_batch_reply_into(&mut out, i as u64, black_box(&self.reply_codes));
                out.len()
            })
            .sum()
    }

    /// `iters` × `parse_client` of the single submit line.
    pub fn parse_singles(&self, iters: usize) -> usize {
        (0..iters)
            .filter(|_| parse_client(black_box(&self.submit_line)).is_ok())
            .count()
    }

    /// `iters` × `encode_server` of a decision.
    pub fn encode_singles(&self, iters: usize) -> usize {
        (0..iters)
            .map(|_| encode_server(black_box(&self.decision)).len())
            .sum()
    }
}

fn reject_event(request: usize) -> DecisionEvent {
    DecisionEvent {
        request,
        algorithm: "alg2-primal-dual".to_string(),
        scheme: "offsite".to_string(),
        slot: 3,
        payment: 12.5,
        outcome: ObsOutcome::Reject {
            reason: RejectReason::ReliabilityInfeasible,
            dual_cost: Some(1.25),
            margin: Some(-0.5),
        },
    }
}

/// `iters` × same-thread `BoundedQueue` push + pop.
pub fn queue_hops(iters: usize) -> u64 {
    let q: BoundedQueue<u64> = BoundedQueue::new(64);
    let mut acc = 0;
    for i in 0..iters as u64 {
        q.try_push(i).expect("queue has room");
        acc += q.pop().expect("just pushed");
    }
    acc
}

/// `iters` round trips through two `BoundedQueue`s and an echo thread;
/// each round trip is two cross-thread hand-offs.
pub fn queue_handoffs(iters: usize) -> u64 {
    let there: BoundedQueue<u64> = BoundedQueue::new(4);
    let back: BoundedQueue<u64> = BoundedQueue::new(4);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while let Some(v) = there.pop() {
                if back.push(v).is_err() {
                    break;
                }
            }
        });
        let mut acc = 0;
        for i in 0..iters as u64 {
            there.push(i).expect("echo thread is alive");
            acc += back.pop().expect("echo thread answers");
        }
        there.close();
        acc
    })
}

/// `RingSink::record` for each of `iters` pre-built decision events.
pub fn ring_records(iters: usize) -> (f64, u64) {
    let mut events: Vec<TraceEvent> = (0..iters)
        .map(|i| TraceEvent::Decision(reject_event(i)))
        .collect();
    let mut ring = RingSink::new(1024);
    let start = Instant::now();
    for e in events.drain(..) {
        ring.record(e);
    }
    (start.elapsed().as_secs_f64(), ring.total_recorded())
}

/// `iters` × `to_json` of a decision event.
pub fn json_encodes(iters: usize) -> usize {
    let event = TraceEvent::Decision(reject_event(1));
    (0..iters).map(|_| to_json(black_box(&event)).len()).sum()
}

/// A registry with every daemon series registered, and one histogram id.
#[derive(Debug)]
pub struct Registry {
    registry: MetricsRegistry,
    histogram: MetricId,
}

impl Registry {
    /// `ServeMetricIds::register_sharded` for 11 cloudlets, 2 shards.
    pub fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        let ids = ServeMetricIds::register_sharded(&mut registry, 11, 2);
        Registry {
            registry,
            histogram: ids.admission_latency,
        }
    }

    /// `iters` × `MetricsRegistry::observe` on a histogram.
    pub fn observes(&self, iters: usize) -> u64 {
        for i in 0..iters {
            self.registry
                .observe(self.histogram, (i % 100) as f64 * 1e-5);
        }
        self.registry.histogram_value(self.histogram).2
    }

    /// One `to_prometheus` rendering; returns its length.
    pub fn render(&self) -> usize {
        self.registry.to_prometheus().len()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// A snapshot of Algorithm 1 after `requests` on `instance`.
pub fn snapshot_of(instance: &ProblemInstance, requests: &[Request]) -> Snapshot {
    let mut alg = OnsitePrimalDual::new(instance, CapacityPolicy::Enforce)
        .expect("the enforce policy is always valid");
    for r in requests {
        black_box(alg.decide(r));
    }
    Snapshot {
        algorithm: alg.name().to_string(),
        config: "benchmark".to_string(),
        next_id: requests.len(),
        slot: 0,
        stats: ServeStats::default(),
        state: alg.export_state(),
        epoch: 1,
        seq: requests.len() as u64,
        recent: Vec::new(),
    }
}

/// `Snapshot::encode`.
pub fn snapshot_encode(snapshot: &Snapshot) -> String {
    snapshot.encode()
}

/// `Snapshot::decode`; true when it round-trips.
pub fn snapshot_decode(text: &str, original: &Snapshot) -> bool {
    Snapshot::decode(text).is_ok_and(|s| s == *original)
}

/// `Snapshot::save` (write-temp, fsync, rename).
pub fn snapshot_save(snapshot: &Snapshot, path: &Path) -> bool {
    snapshot.save(path).is_ok()
}

/// `ProblemInstance::new` over an abundant network of the shape's
/// horizon and catalog.
pub fn abundant_instance(shape: Shape) -> ProblemInstance {
    let network = abundant_network();
    ProblemInstance::new(
        network,
        super::scenario::catalog(shape),
        Horizon::new(shape.slots()),
    )
    .expect("scenario parameters are valid")
}
