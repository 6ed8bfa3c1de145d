//! Shared experiment harness for regenerating the paper's figures.
//!
//! Every figure binary (`fig1a`, `fig1b`, `fig2a`, `fig2b`,
//! `ablation_scaling`, `failure_validation`) and `bench_report` build
//! their scenarios through this crate so parameters stay consistent
//! with `DESIGN.md` §4:
//!
//! * topology: Abilene (Internet2) with cloudlets on half the APs,
//! * cloudlet reliabilities in `[rc_max / K, rc_max]`, `rc_max = 0.9999`,
//! * 10-type VNF catalog per Kong et al.,
//! * payment rates in `[pr_max / H, pr_max]`, `pr_max = 10`, default
//!   `H = 10` (the top of the paper's Figure 2(a) sweep),
//! * horizon of 16 slots, durations 1–8, reliability requirements in
//!   `[0.9, 0.95]`,
//! * cloudlet capacities 8–12 computing units — small relative to the
//!   request volume so the 100→800 sweep crosses from abundance into deep
//!   scarcity, the regime where the paper's Figure 1 separation between
//!   the primal-dual algorithms and greedy appears (the paper's absolute
//!   capacities are not published; `EXPERIMENTS.md` documents this
//!   calibration).
//!
//! # Performance architecture
//!
//! Sweeps are deduplicated and parallel:
//!
//! * [`ScenarioBase`] materializes the topology and
//!   [`ProblemInstance`] once per `(K, seed)` and snapshots the RNG, so
//!   every request-count / payment-band variation reuses them and only
//!   regenerates the workload — bit-identical to rebuilding from scratch
//!   because the generator's draws come after the topology draws;
//! * each `(point, seed)` task builds **one** scenario and runs every
//!   algorithm of the figure on it (the pre-optimization harness rebuilt
//!   the scenario per algorithm);
//! * tasks fan out over [`mec_sim::parallel::parallel_map`] scoped
//!   threads with a deterministic ordered merge, so any `threads` value
//!   yields the same tables.
//!
//! The crate holds no second copy of any scheduler. The serial
//! pre-optimization harness and the four pre-optimization schedulers it
//! raced last exist at commit `647adb2` (`crates/bench/src/legacy.rs`);
//! what they proved is now pinned by fixtures under `tests/golden/`:
//! `decision_streams.txt` holds every decision of every algorithm
//! (`tests/equivalence.rs`) and `fig1_quick.txt` the `--quick` Figure 1
//! tables that harness produced (`tests/figures_smoke.rs`). The measured
//! speed-up is frozen as the `legacy_baseline` block of
//! `results/BENCH_schedule.json`.

use mec_sim::experiment::SweepTable;
use mec_sim::parallel::parallel_map;
use mec_topology::generators::CloudletPlacement;
use mec_topology::zoo;
use mec_workload::{
    ChainGenerator, ChainRequest, DurationModel, Horizon, Request, RequestGenerator, VnfCatalog,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::offsite::{OffsiteGreedy, OffsitePrimalDual};
use vnfrel::onsite::offline::OfflineConfig;
use vnfrel::onsite::{CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};
use vnfrel::{run_online, validate_schedule, OnlineScheduler, ProblemInstance, Scheme};

/// Maximum cloudlet reliability (`rc_max`), fixed across the K sweep.
pub const RC_MAX: f64 = 0.9999;
/// Maximum payment rate (`pr_max`), fixed across the H sweep.
pub const PR_MAX: f64 = 10.0;
/// Slots in the monitoring horizon.
pub const HORIZON: usize = 16;
/// Slots in the week-long horizon of [`Scenario::week`] (one per minute).
pub const WEEK_SLOTS: usize = 10_080;

/// Scenario parameters for one experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioParams {
    /// Number of requests in the stream.
    pub requests: usize,
    /// Payment-rate variation `H = pr_max / pr_min` (≥ 1).
    pub h_ratio: f64,
    /// Cloudlet-reliability variation `K = rc_max / rc_min` (≥ 1).
    pub k_ratio: f64,
    /// RNG seed (controls topology placement and the workload).
    pub seed: u64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            requests: 200,
            h_ratio: 10.0,
            k_ratio: 1.01,
            seed: 1,
        }
    }
}

/// The expensive, workload-independent part of a scenario: topology and
/// [`ProblemInstance`] for one `(K, seed)` pair, plus the RNG state
/// right after the topology draws.
///
/// The request generator consumes the RNG *after* all topology draws, so
/// [`ScenarioBase::scenario`] produces streams bit-identical to a full
/// [`Scenario::build`] with the same parameters while skipping the
/// topology materialization and reliability-table precomputation.
#[derive(Debug)]
pub struct ScenarioBase {
    instance: ProblemInstance,
    /// RNG state after the topology draws, before any workload draw.
    rng: ChaCha8Rng,
}

impl ScenarioBase {
    /// Materializes the topology and instance for `(k_ratio, seed)`.
    ///
    /// # Panics
    ///
    /// Panics on internal parameter errors — scenario parameters are
    /// compile-time constants in the harness, so failures indicate bugs.
    pub fn new(k_ratio: f64, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rc_min = (RC_MAX / k_ratio).clamp(0.5, RC_MAX);
        let placement = CloudletPlacement {
            fraction: 0.5,
            capacity: (8, 12),
            reliability: (rc_min, RC_MAX),
        };
        let network = zoo::abilene()
            .into_network(&placement, &mut rng)
            .expect("abilene materializes");
        let instance = ProblemInstance::new(network, VnfCatalog::standard(), Horizon::new(HORIZON))
            .expect("valid instance");
        ScenarioBase { instance, rng }
    }

    /// Generates the workload phase for `(requests, h_ratio)` on top of
    /// this base.
    ///
    /// # Panics
    ///
    /// Panics on internal parameter errors, as [`ScenarioBase::new`].
    pub fn scenario(&self, requests: usize, h_ratio: f64) -> Scenario {
        let mut rng = self.rng.clone();
        let workload = RequestGenerator::new(self.instance.horizon())
            .reliability_band(0.9, 0.95)
            .expect("valid band")
            .payment_rate_band(PR_MAX / h_ratio, PR_MAX)
            .expect("valid band")
            .generate(requests, self.instance.catalog(), &mut rng)
            .expect("valid workload");
        Scenario {
            instance: self.instance.clone(),
            requests: workload,
        }
    }
}

/// A ready-to-run experiment point.
#[derive(Debug)]
pub struct Scenario {
    /// The problem instance (network + catalog + horizon).
    pub instance: ProblemInstance,
    /// The online request stream.
    pub requests: Vec<Request>,
}

impl Scenario {
    /// Builds the scenario for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics on internal parameter errors — scenario parameters are
    /// compile-time constants in the harness, so failures indicate bugs.
    pub fn build(params: &ScenarioParams) -> Self {
        ScenarioBase::new(params.k_ratio, params.seed).scenario(params.requests, params.h_ratio)
    }

    /// The long-horizon scenario: Abilene with a cloudlet (40–56 units)
    /// at every AP over a week of one-minute slots, `requests` arrivals
    /// spread uniformly with durations of 5–120 minutes. At ≈ 13 requests
    /// per slot demand runs near three times capacity, so about a third
    /// of the stream is admitted and every admission prices a window far
    /// shorter than the horizon.
    ///
    /// # Panics
    ///
    /// Panics on internal parameter errors, as [`Scenario::build`].
    pub fn week(requests: usize, seed: u64) -> Self {
        Scenario::minutes(WEEK_SLOTS, requests, seed)
    }

    /// [`Scenario::week`]'s network and stream laws over `slots`
    /// one-minute slots (1 440 is a day).
    ///
    /// # Panics
    ///
    /// Panics on internal parameter errors, as [`Scenario::build`].
    pub fn minutes(slots: usize, requests: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let placement = CloudletPlacement {
            fraction: 1.0,
            capacity: (40, 56),
            reliability: (0.99, RC_MAX),
        };
        let network = zoo::abilene()
            .into_network(&placement, &mut rng)
            .expect("abilene materializes");
        let instance = ProblemInstance::new(network, VnfCatalog::standard(), Horizon::new(slots))
            .expect("valid instance");
        let requests = RequestGenerator::new(instance.horizon())
            .durations(DurationModel::Uniform { lo: 5, hi: 120 })
            .expect("durations fit the horizon")
            .reliability_band(0.9, 0.95)
            .expect("valid band")
            .payment_rate_band(PR_MAX / 10.0, PR_MAX)
            .expect("valid band")
            .generate(requests, instance.catalog(), &mut rng)
            .expect("valid workload");
        Scenario { instance, requests }
    }

    /// Runs a scheduler over this scenario and returns its revenue,
    /// asserting feasibility.
    ///
    /// # Panics
    ///
    /// Panics if the schedule fails validation — schedulers are required
    /// to produce feasible schedules.
    pub fn revenue_of<S: OnlineScheduler>(&self, scheduler: &mut S) -> f64 {
        let schedule = run_online(scheduler, &self.requests).expect("valid stream");
        let report = validate_schedule(
            &self.instance,
            &self.requests,
            &schedule,
            scheduler.scheme(),
        )
        .expect("validatable schedule");
        assert!(
            report.is_feasible(),
            "{} produced an infeasible schedule: {:?}",
            scheduler.name(),
            report.violations
        );
        schedule.revenue()
    }

    /// Revenue of Algorithm 1 (on-site primal-dual, capacity enforced).
    pub fn alg1_revenue(&self) -> f64 {
        let mut s =
            OnsitePrimalDual::new(&self.instance, CapacityPolicy::Enforce).expect("valid policy");
        self.revenue_of(&mut s)
    }

    /// Revenue of the on-site greedy baseline.
    pub fn greedy_onsite_revenue(&self) -> f64 {
        let mut s = OnsiteGreedy::new(&self.instance);
        self.revenue_of(&mut s)
    }

    /// Revenue of Algorithm 2 (off-site primal-dual).
    pub fn alg2_revenue(&self) -> f64 {
        let mut s = OffsitePrimalDual::new(&self.instance);
        self.revenue_of(&mut s)
    }

    /// Revenue of the off-site greedy baseline.
    pub fn greedy_offsite_revenue(&self) -> f64 {
        let mut s = OffsiteGreedy::new(&self.instance);
        self.revenue_of(&mut s)
    }

    /// Offline optimum (or its LP bound) for the given scheme.
    ///
    /// Exact branch-and-bound below `exact_below` requests; the LP
    /// relaxation bound at and above it (documented CPLEX substitution).
    ///
    /// # Panics
    ///
    /// Panics if the offline solver errors (scenario models are always
    /// well-formed).
    pub fn offline_revenue(&self, scheme: Scheme, exact_below: usize) -> f64 {
        let config = OfflineConfig {
            lp_only: self.requests.len() >= exact_below,
            ..OfflineConfig::default()
        };
        match scheme {
            Scheme::OnSite => {
                vnfrel::onsite::offline::solve(&self.instance, &self.requests, &config)
                    .expect("offline solve")
                    .revenue()
            }
            Scheme::OffSite => {
                vnfrel::offsite::offline::solve(&self.instance, &self.requests, &config)
                    .expect("offline solve")
                    .revenue()
            }
        }
    }
}

/// The chain experiments' catalog: mid-reliability, high-compute VNFs
/// whose stages cannot meet chain targets with one replica, so every
/// backup mode has to spend compute on protection (replicas or standbys).
///
/// # Panics
///
/// Panics on internal parameter errors, as [`Scenario::build`].
pub fn protection_hungry_catalog() -> VnfCatalog {
    VnfCatalog::from_specs([
        ("IDS", 3u64, 0.90),
        ("DPI", 3, 0.92),
        ("TranscoderV", 2, 0.93),
        ("WanOptimizer", 3, 0.95),
        ("SessionBorder", 2, 0.96),
        ("VPNGateway", 2, 0.97),
    ])
    .expect("valid catalog")
}

/// Seed of [`MixedScenario`]'s cloudlet capacities and reliabilities —
/// the repository benchmark's, so the two run on the same fleet.
const MIXED_TOPOLOGY_SEED: u64 = 2019;

/// A mixed single-VNF + chain experiment point in the repository
/// benchmark's chain shape: Abilene with a cloudlet (12–18 units) at every
/// AP, [`protection_hungry_catalog`], chains of
/// one to three stages lasting at most 12 slots, and two single-VNF
/// requests per chain on the same horizon.
#[derive(Debug)]
pub struct MixedScenario {
    /// The problem instance (network + catalog + horizon).
    pub instance: ProblemInstance,
    /// The single-VNF stream, in arrival order with dense ids.
    pub singles: Vec<Request>,
    /// The chain stream, in arrival order with dense ids.
    pub chains: Vec<ChainRequest>,
}

impl MixedScenario {
    /// Builds `chains` chains and twice as many singles over `slots`
    /// slots; `seed` draws the streams (singles first), the fleet is the
    /// same for every seed.
    ///
    /// # Panics
    ///
    /// Panics on internal parameter errors, as [`Scenario::build`].
    pub fn build(slots: usize, chains: usize, seed: u64) -> Self {
        let placement = CloudletPlacement {
            fraction: 1.0,
            capacity: (12, 18),
            reliability: (0.99, RC_MAX),
        };
        let network = zoo::abilene()
            .into_network(
                &placement,
                &mut ChaCha8Rng::seed_from_u64(MIXED_TOPOLOGY_SEED),
            )
            .expect("abilene materializes");
        let instance =
            ProblemInstance::new(network, protection_hungry_catalog(), Horizon::new(slots))
                .expect("valid instance");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let singles = RequestGenerator::new(instance.horizon())
            .durations(DurationModel::Uniform { lo: 1, hi: 12 })
            .expect("durations fit the horizon")
            .reliability_band(0.9, 0.95)
            .expect("valid band")
            .payment_rate_band(PR_MAX / 10.0, PR_MAX)
            .expect("valid band")
            .generate(2 * chains, instance.catalog(), &mut rng)
            .expect("valid workload");
        let chains = ChainGenerator::new(instance.horizon(), instance.network().ap_count())
            .length_band(1, 3)
            .expect("valid band")
            .reliability_band(0.93, 0.97)
            .expect("valid band")
            .latency_budget_band(3.0, 12.0)
            .expect("valid band")
            .payment_rate_band(PR_MAX / 10.0, PR_MAX)
            .expect("valid band")
            .max_duration(12)
            .expect("valid duration")
            .generate(chains, instance.catalog(), &mut rng)
            .expect("valid workload");
        MixedScenario {
            instance,
            singles,
            chains,
        }
    }
}

/// Averages a scenario metric over several seeds.
pub fn mean_revenue<F>(params: &ScenarioParams, seeds: &[u64], f: F) -> f64
where
    F: Fn(&Scenario) -> f64,
{
    let mut total = 0.0;
    for &seed in seeds {
        let s = Scenario::build(&ScenarioParams { seed, ..*params });
        total += f(&s);
    }
    total / seeds.len().max(1) as f64
}

/// Parses a `--quiet`/`-q` flag from the process arguments.
///
/// The figure and ablation binaries keep result tables on stdout and
/// route banners/progress through [`note`] to stderr, so piping a bin
/// into a file or a plotting script captures only the data; `--quiet`
/// silences the stderr side entirely.
pub fn quiet_from_args() -> bool {
    std::env::args().any(|a| a == "--quiet" || a == "-q")
}

/// Prints a banner/progress line to stderr unless `quiet` is set.
pub fn note(quiet: bool, msg: impl std::fmt::Display) {
    if !quiet {
        eprintln!("{msg}");
    }
}

/// Parses a `--threads N` argument from the process arguments, falling
/// back to the machine's available parallelism (`--threads 1` forces the
/// serial path).
pub fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let explicit = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    mec_sim::parallel::resolve_threads(explicit)
}

/// Figure 1(a)/1(b): revenue vs number of requests.
///
/// One scenario per `(size, seed)` task shared by the primal-dual and
/// greedy runs; tasks fan out over `threads` workers with an ordered
/// merge, so the table is identical at any thread count.
pub fn fig1_sweep(
    scheme: Scheme,
    sizes: &[usize],
    seeds: &[u64],
    with_optimal: bool,
    exact_below: usize,
    threads: usize,
) -> SweepTable {
    let (alg_name, greedy_name) = match scheme {
        Scheme::OnSite => ("Algorithm 1", "Greedy"),
        Scheme::OffSite => ("Algorithm 2", "Greedy"),
    };
    let mut columns = vec![alg_name.to_string(), greedy_name.to_string()];
    if with_optimal {
        columns.push("Optimal".to_string());
    }
    let default = ScenarioParams::default();
    let bases: Vec<ScenarioBase> = seeds
        .iter()
        .map(|&s| ScenarioBase::new(default.k_ratio, s))
        .collect();
    let tasks: Vec<(usize, usize)> = sizes
        .iter()
        .enumerate()
        .flat_map(|(si, _)| (0..seeds.len()).map(move |wi| (si, wi)))
        .collect();
    let results = parallel_map(&tasks, threads, |&(si, wi)| {
        let s = bases[wi].scenario(sizes[si], default.h_ratio);
        let alg = match scheme {
            Scheme::OnSite => s.alg1_revenue(),
            Scheme::OffSite => s.alg2_revenue(),
        };
        let greedy = match scheme {
            Scheme::OnSite => s.greedy_onsite_revenue(),
            Scheme::OffSite => s.greedy_offsite_revenue(),
        };
        // OPT over the first seed only: the ILP/LP is the expensive part
        // and seed variance is small relative to the curve.
        let opt = (with_optimal && wi == 0).then(|| s.offline_revenue(scheme, exact_below));
        (alg, greedy, opt)
    });

    let mut table = SweepTable::new("requests", "revenue", columns);
    let w = seeds.len().max(1) as f64;
    for (si, &n) in sizes.iter().enumerate() {
        let point = &results[si * seeds.len()..(si + 1) * seeds.len()];
        let alg = point.iter().map(|r| r.0).sum::<f64>() / w;
        let greedy = point.iter().map(|r| r.1).sum::<f64>() / w;
        let mut row = vec![alg, greedy];
        if with_optimal {
            row.push(point[0].2.expect("seed 0 computes OPT"));
        }
        table.push_row(n as f64, row);
    }
    table
}

/// Revenues of all four online algorithms on one scenario:
/// `(alg1, greedy-onsite, alg2, greedy-offsite)`.
pub fn all_algorithm_revenues(s: &Scenario) -> (f64, f64, f64, f64) {
    (
        s.alg1_revenue(),
        s.greedy_onsite_revenue(),
        s.alg2_revenue(),
        s.greedy_offsite_revenue(),
    )
}

/// Both Figure 1 panels in one pass: every `(size, seed)` scenario is
/// built once and all four online algorithms run on it. Returns the
/// `(on-site, off-site)` tables (no offline column). This is the
/// configuration `bench_report` times, where scenario construction is
/// amortized across four algorithms instead of being repeated per
/// algorithm per panel.
pub fn fig1_both_sweep(sizes: &[usize], seeds: &[u64], threads: usize) -> (SweepTable, SweepTable) {
    let default = ScenarioParams::default();
    let bases: Vec<ScenarioBase> = seeds
        .iter()
        .map(|&s| ScenarioBase::new(default.k_ratio, s))
        .collect();
    let tasks: Vec<(usize, usize)> = sizes
        .iter()
        .enumerate()
        .flat_map(|(si, _)| (0..seeds.len()).map(move |wi| (si, wi)))
        .collect();
    let results = parallel_map(&tasks, threads, |&(si, wi)| {
        let s = bases[wi].scenario(sizes[si], default.h_ratio);
        all_algorithm_revenues(&s)
    });

    let mut onsite = SweepTable::new(
        "requests",
        "revenue",
        vec!["Algorithm 1".into(), "Greedy".into()],
    );
    let mut offsite = SweepTable::new(
        "requests",
        "revenue",
        vec!["Algorithm 2".into(), "Greedy".into()],
    );
    let w = seeds.len().max(1) as f64;
    for (si, &n) in sizes.iter().enumerate() {
        let point = &results[si * seeds.len()..(si + 1) * seeds.len()];
        onsite.push_row(
            n as f64,
            vec![
                point.iter().map(|r| r.0).sum::<f64>() / w,
                point.iter().map(|r| r.1).sum::<f64>() / w,
            ],
        );
        offsite.push_row(
            n as f64,
            vec![
                point.iter().map(|r| r.2).sum::<f64>() / w,
                point.iter().map(|r| r.3).sum::<f64>() / w,
            ],
        );
    }
    (onsite, offsite)
}

/// Figure 2(a): revenue vs payment-rate variation `H` (both schemes'
/// primal-dual algorithms and the on-site greedy baseline).
pub fn fig2a_sweep(h_values: &[f64], requests: usize, seeds: &[u64], threads: usize) -> SweepTable {
    let default = ScenarioParams::default();
    let bases: Vec<ScenarioBase> = seeds
        .iter()
        .map(|&s| ScenarioBase::new(default.k_ratio, s))
        .collect();
    let tasks: Vec<(usize, usize)> = h_values
        .iter()
        .enumerate()
        .flat_map(|(hi, _)| (0..seeds.len()).map(move |wi| (hi, wi)))
        .collect();
    let results = parallel_map(&tasks, threads, |&(hi, wi)| {
        let s = bases[wi].scenario(requests, h_values[hi]);
        (
            s.alg1_revenue(),
            s.alg2_revenue(),
            s.greedy_onsite_revenue(),
        )
    });

    let mut table = SweepTable::new(
        "H",
        "revenue",
        vec![
            "Algorithm 1".into(),
            "Algorithm 2".into(),
            "Greedy (on-site)".into(),
        ],
    );
    let w = seeds.len().max(1) as f64;
    for (hi, &h) in h_values.iter().enumerate() {
        let point = &results[hi * seeds.len()..(hi + 1) * seeds.len()];
        table.push_row(
            h,
            vec![
                point.iter().map(|r| r.0).sum::<f64>() / w,
                point.iter().map(|r| r.1).sum::<f64>() / w,
                point.iter().map(|r| r.2).sum::<f64>() / w,
            ],
        );
    }
    table
}

/// Figure 2(b): revenue vs cloudlet-reliability variation `K` (off-site
/// algorithms, where the greedy collapse is visible).
pub fn fig2b_sweep(k_values: &[f64], requests: usize, seeds: &[u64], threads: usize) -> SweepTable {
    let default = ScenarioParams::default();
    let tasks: Vec<(usize, usize)> = k_values
        .iter()
        .enumerate()
        .flat_map(|(ki, _)| (0..seeds.len()).map(move |wi| (ki, wi)))
        .collect();
    // K changes the topology itself, so each task owns its base.
    let results = parallel_map(&tasks, threads, |&(ki, wi)| {
        let s = ScenarioBase::new(k_values[ki], seeds[wi]).scenario(requests, default.h_ratio);
        (s.alg2_revenue(), s.greedy_offsite_revenue())
    });

    let mut table = SweepTable::new(
        "K",
        "revenue",
        vec!["Algorithm 2".into(), "Greedy (off-site)".into()],
    );
    let w = seeds.len().max(1) as f64;
    for (ki, &k) in k_values.iter().enumerate() {
        let point = &results[ki * seeds.len()..(ki + 1) * seeds.len()];
        table.push_row(
            k,
            vec![
                point.iter().map(|r| r.0).sum::<f64>() / w,
                point.iter().map(|r| r.1).sum::<f64>() / w,
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_and_runs() {
        let s = Scenario::build(&ScenarioParams {
            requests: 40,
            ..ScenarioParams::default()
        });
        assert_eq!(s.requests.len(), 40);
        assert!(s.instance.cloudlet_count() >= 1);
        let a1 = s.alg1_revenue();
        let g1 = s.greedy_onsite_revenue();
        let a2 = s.alg2_revenue();
        let g2 = s.greedy_offsite_revenue();
        for v in [a1, g1, a2, g2] {
            assert!(v >= 0.0 && v.is_finite());
        }
    }

    #[test]
    fn base_reuse_matches_fresh_build() {
        // The cached-base path must be bit-identical to building from
        // scratch: same topology, same request stream.
        let params = ScenarioParams {
            requests: 60,
            h_ratio: 4.0,
            k_ratio: 1.05,
            seed: 11,
        };
        let fresh = Scenario::build(&params);
        let base = ScenarioBase::new(params.k_ratio, params.seed);
        let cached = base.scenario(params.requests, params.h_ratio);
        let also = base.scenario(params.requests, params.h_ratio); // reuse is repeatable
        assert_eq!(fresh.requests, cached.requests);
        assert_eq!(cached.requests, also.requests);
        assert_eq!(
            fresh.instance.cloudlet_count(),
            cached.instance.cloudlet_count()
        );
    }

    #[test]
    fn k_ratio_lowers_min_reliability() {
        let tight = Scenario::build(&ScenarioParams {
            k_ratio: 1.0,
            seed: 3,
            ..ScenarioParams::default()
        });
        let wide = Scenario::build(&ScenarioParams {
            k_ratio: 1.1,
            seed: 3,
            ..ScenarioParams::default()
        });
        let min_rel = |s: &Scenario| {
            s.instance
                .network()
                .cloudlets()
                .map(|c| c.reliability().value())
                .fold(1.0f64, f64::min)
        };
        assert!(min_rel(&wide) < min_rel(&tight));
    }

    #[test]
    fn fig_sweeps_have_expected_shape() {
        let sizes = [30, 60];
        let table = fig1_sweep(Scheme::OnSite, &sizes, &[1], true, 1_000, 1);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.columns.len(), 3);
        // OPT dominates the online algorithms at each point.
        for row in 0..table.rows.len() {
            let opt = table.value(row, "Optimal").unwrap();
            assert!(table.value(row, "Algorithm 1").unwrap() <= opt + 1e-6);
            assert!(table.value(row, "Greedy").unwrap() <= opt + 1e-6);
        }
    }

    #[test]
    fn fig2_sweeps_build() {
        let t = fig2a_sweep(&[1.0, 5.0], 30, &[1], 1);
        assert_eq!(t.rows.len(), 2);
        let t = fig2b_sweep(&[1.0, 1.05], 30, &[1], 1);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn fig1_both_matches_per_scheme_sweeps() {
        let sizes = [25, 50];
        let seeds = [1, 2];
        let (on, off) = fig1_both_sweep(&sizes, &seeds, 1);
        let on_ref = fig1_sweep(Scheme::OnSite, &sizes, &seeds, false, 1_000, 1);
        let off_ref = fig1_sweep(Scheme::OffSite, &sizes, &seeds, false, 1_000, 1);
        for r in 0..sizes.len() {
            assert_eq!(on.rows[r], on_ref.rows[r]);
            assert_eq!(off.rows[r], off_ref.rows[r]);
        }
    }
}
