//! In-process entry points: the four single-VNF schedulers behind
//! `Simulation::run` / `run_online` / a bare `decide` loop, and the chain
//! primal-dual behind `MixedSimulation::run`.

use std::time::Instant;

use mec_sim::{MixedSimulation, Simulation};
use mec_workload::{ChainRequest, Request};
use vnfrel::chain::{BackupMode, ChainPrimalDual, ChainScheduler};
use vnfrel::{run_online, OnlineScheduler, ProblemInstance};

/// The four online single-VNF schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alg {
    /// Algorithm 1, on-site primal-dual with capacity enforced.
    Alg1,
    /// On-site greedy baseline.
    GreedyOnsite,
    /// Algorithm 2, off-site primal-dual.
    Alg2,
    /// Off-site greedy baseline.
    GreedyOffsite,
}

impl Alg {
    /// All four, in the order the figure sweeps run them.
    pub const ALL: [Alg; 4] = [Alg::Alg1, Alg::GreedyOnsite, Alg::Alg2, Alg::GreedyOffsite];

    /// Metric-name segment, e.g. `onsite.alg1`.
    pub fn key(self) -> &'static str {
        match self {
            Alg::Alg1 => "onsite.alg1",
            Alg::GreedyOnsite => "onsite.greedy",
            Alg::Alg2 => "offsite.alg2",
            Alg::GreedyOffsite => "offsite.greedy",
        }
    }
}

/// What one pass of a scheduler over a stream produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Requests decided.
    pub decisions: usize,
    /// Requests admitted.
    pub admitted: usize,
    /// Σ payment over admitted requests.
    pub revenue: f64,
    /// Independent validation found the schedule feasible (always true
    /// where no validation ran).
    pub feasible: bool,
    /// `ledger().max_overflow()` after the pass.
    pub max_overflow: f64,
}

/// `vnfrel::run_online` over `requests` with a fresh scheduler: the
/// reference replay every workload's revenue is compared against.
pub fn reference(alg: Alg, instance: &ProblemInstance, requests: &[Request]) -> Outcome {
    with_scheduler!(alg, instance, |s| {
        let schedule = run_online(&mut s, requests).expect("dense ids");
        Outcome {
            decisions: schedule.len(),
            admitted: schedule.admitted_count(),
            revenue: schedule.revenue(),
            feasible: true,
            max_overflow: s.ledger().max_overflow(),
        }
    })
}

/// A prepared `Simulation` over one stream.
#[derive(Debug)]
pub struct Batch<'a> {
    sim: Simulation<'a>,
}

impl<'a> Batch<'a> {
    /// `Simulation::new`.
    pub fn new(instance: &'a ProblemInstance, requests: &'a [Request]) -> Self {
        Batch {
            sim: Simulation::new(instance, requests).expect("stream fits the instance"),
        }
    }

    /// `Simulation::run` with a fresh scheduler.
    pub fn run(&self, alg: Alg) -> Outcome {
        with_scheduler!(alg, self.sim.instance(), |s| {
            let report = self.sim.run(&mut s).expect("validatable schedule");
            Outcome {
                decisions: report.metrics.total,
                admitted: report.metrics.admitted,
                revenue: report.metrics.revenue,
                feasible: report.validation.is_feasible(),
                max_overflow: report.metrics.max_overflow,
            }
        })
    }
}

/// A bare `decide` loop with a fresh scheduler, one clock read per
/// `block` calls; pushes each block's seconds onto `blocks` and each
/// block's `(start, end)` onto `stamps` when given.
pub fn decide_blocks(
    alg: Alg,
    instance: &ProblemInstance,
    requests: &[Request],
    block: usize,
    blocks: &mut Vec<f64>,
    mut stamps: Option<&mut Vec<(Instant, Instant)>>,
) -> Outcome {
    with_scheduler!(alg, instance, |s| {
        let (mut admitted, mut revenue) = (0usize, 0.0f64);
        for chunk in requests.chunks(block) {
            let start = Instant::now();
            for r in chunk {
                if s.decide(r).is_admit() {
                    admitted += 1;
                    revenue += r.payment();
                }
            }
            let end = Instant::now();
            blocks.push((end - start).as_secs_f64());
            if let Some(st) = stamps.as_deref_mut() {
                st.push((start, end));
            }
        }
        Outcome {
            decisions: requests.len(),
            admitted,
            revenue,
            feasible: true,
            max_overflow: s.ledger().max_overflow(),
        }
    })
}

/// Chain backup modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backup {
    /// No standbys.
    None,
    /// One standby per protected stage.
    Dedicated,
    /// Standbys shared under the pool's mass cap.
    Shared,
}

impl Backup {
    /// Metric-name segment.
    pub fn key(self) -> &'static str {
        match self {
            Backup::None => "none",
            Backup::Dedicated => "dedicated",
            Backup::Shared => "shared",
        }
    }

    pub(crate) fn mode(self) -> BackupMode {
        match self {
            Backup::None => BackupMode::None,
            Backup::Dedicated => BackupMode::Dedicated,
            Backup::Shared => BackupMode::Shared,
        }
    }
}

/// What one mixed pass produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedOutcome {
    /// Singles plus chains decided.
    pub decisions: usize,
    /// Chains admitted.
    pub admitted_chains: usize,
    /// Singles admitted.
    pub admitted_singles: usize,
    /// Revenue of both kinds.
    pub revenue: f64,
    /// Worst capacity overflow.
    pub max_overflow: f64,
    /// Standby instances live at the end.
    pub standbys: usize,
}

/// A prepared `MixedSimulation`.
#[derive(Debug)]
pub struct Mixed<'a> {
    sim: MixedSimulation<'a>,
    decisions: usize,
}

impl<'a> Mixed<'a> {
    /// `MixedSimulation::new`.
    pub fn new(
        instance: &'a ProblemInstance,
        singles: &'a [Request],
        chains: &'a [ChainRequest],
    ) -> Self {
        Mixed {
            sim: MixedSimulation::new(instance, singles, chains).expect("valid mixed streams"),
            decisions: singles.len() + chains.len(),
        }
    }

    /// `MixedSimulation::run` with a fresh `ChainPrimalDual`.
    pub fn run(&self, backup: Backup) -> MixedOutcome {
        let mut alg = ChainPrimalDual::new(self.sim.instance(), backup.mode());
        let report = self.sim.run(&mut alg);
        MixedOutcome {
            decisions: self.decisions,
            admitted_chains: report.admitted_chains(),
            admitted_singles: report.admitted_singles(),
            revenue: report.revenue(),
            max_overflow: report.max_overflow,
            standbys: report.standby_count,
        }
    }
}

/// The merged stream decided through `decide_single` / `decide_chain`
/// directly (singles first within a slot, as `MixedSimulation` orders
/// them), one clock read per `block` decisions.
pub fn mixed_decide_blocks(
    instance: &ProblemInstance,
    singles: &[Request],
    chains: &[ChainRequest],
    backup: Backup,
    block: usize,
    blocks: &mut Vec<f64>,
    mut stamps: Option<&mut Vec<(Instant, Instant)>>,
) -> MixedOutcome {
    let mut alg = ChainPrimalDual::new(instance, backup.mode());
    let (mut i, mut j) = (0usize, 0usize);
    let (mut admitted_singles, mut admitted_chains) = (0usize, 0usize);
    // Two sums added at the end, as `MixedReport::revenue` adds them.
    let (mut single_revenue, mut chain_revenue) = (0.0f64, 0.0f64);
    let total = singles.len() + chains.len();
    while i + j < total {
        let stop = (i + j).saturating_add(block).min(total);
        let start = Instant::now();
        while i + j < stop {
            let single = match (singles.get(i), chains.get(j)) {
                (Some(s), Some(c)) => s.arrival() <= c.arrival(),
                (Some(_), None) => true,
                (None, _) => false,
            };
            if single {
                if alg.decide_single(&singles[i]).is_some() {
                    admitted_singles += 1;
                    single_revenue += singles[i].payment();
                }
                i += 1;
            } else {
                if alg.decide_chain(&chains[j]).is_ok() {
                    admitted_chains += 1;
                    chain_revenue += chains[j].payment();
                }
                j += 1;
            }
        }
        let end = Instant::now();
        blocks.push((end - start).as_secs_f64());
        if let Some(st) = stamps.as_deref_mut() {
            st.push((start, end));
        }
    }
    MixedOutcome {
        decisions: total,
        admitted_chains,
        admitted_singles,
        revenue: single_revenue + chain_revenue,
        max_overflow: alg.ledger().max_overflow(),
        standbys: alg.pool().standby_count(),
    }
}

/// Admits `chains` alone on a fresh scheduler in `backup` mode, releases
/// every admitted chain, and reports whether ledger and pool are back at
/// their empty baseline (no leak, no residue beyond float rounding). A
/// panic inside the library counts as not returning.
pub fn chain_release_returns_to_baseline(
    instance: &ProblemInstance,
    chains: &[ChainRequest],
    backup: Backup,
) -> bool {
    std::panic::catch_unwind(|| {
        let mut alg = ChainPrimalDual::new(instance, backup.mode());
        let admitted: Vec<_> = chains
            .iter()
            .filter(|c| alg.decide_chain(c).is_ok())
            .map(|c| c.id())
            .collect();
        !admitted.is_empty()
            && admitted.into_iter().all(|id| alg.release_chain(id).is_ok())
            && alg.pool().is_empty()
            && alg.ledger().used_grid().iter().all(|&u| u.abs() < 1e-6)
    })
    .unwrap_or(false)
}
