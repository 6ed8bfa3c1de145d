//! Mixed single-VNF + chain workload simulation.
//!
//! The paper's engine ([`crate::Simulation`]) replays single-VNF
//! requests; [`MixedSimulation`] replays a *mixed* workload — single-VNF
//! requests and service function chains contending for the same cloudlet
//! capacity and dual prices. [`MixedSimulation::demands`] merges both
//! streams by arrival slot into one [`Demand`] order (singles first
//! within a slot, matching the engine's intra-slot convention that cheap
//! decisions land before expensive ones), and `run` feeds it to one
//! [`ChainPrimalDual`]: singles through `decide_single`, which is
//! Algorithm 1 itself, and chains through `decide_chain`, priced and
//! charged on that Algorithm 1's grid and ledger.

use mec_obs::TraceSink;
use mec_topology::CloudletId;
use mec_workload::{ChainRequest, Request, WorkloadError};
use vnfrel::chain::{BackupMode, ChainPrimalDual, ChainSchedule, ChainScheduler};
use vnfrel::{ProblemInstance, VnfrelError};

use crate::{SimError, Simulation};

/// One request of a mixed stream, in the order
/// [`MixedSimulation::demands`] yields them.
#[derive(Debug, Clone, Copy)]
pub enum Demand<'a> {
    /// A single-VNF request.
    Single(&'a Request),
    /// A service function chain.
    Chain(&'a ChainRequest),
}

/// Outcome of a mixed-workload run.
#[derive(Debug, Clone)]
pub struct MixedReport {
    /// Chain decisions, indexed by chain id.
    pub chains: ChainSchedule,
    /// Single-VNF decisions, indexed by request id: the chosen cloudlet
    /// and instance count, `None` on rejection.
    pub singles: Vec<Option<(CloudletId, u32)>>,
    /// Revenue from admitted single-VNF requests.
    pub single_revenue: f64,
    /// Backup mode the scheduler ran under.
    pub mode: BackupMode,
    /// Standby instances live in the pool at the end of the run.
    pub standby_count: usize,
    /// Worst capacity overflow observed (0.0 = feasible throughout).
    pub max_overflow: f64,
}

impl MixedReport {
    /// Number of admitted single-VNF requests.
    pub fn admitted_singles(&self) -> usize {
        self.singles.iter().filter(|s| s.is_some()).count()
    }

    /// Number of admitted chains.
    pub fn admitted_chains(&self) -> usize {
        self.chains.admitted_count()
    }

    /// Total revenue across both request kinds.
    pub fn revenue(&self) -> f64 {
        self.single_revenue + self.chains.revenue()
    }
}

/// Replays a mixed workload through a chain-capable scheduler.
#[derive(Debug)]
pub struct MixedSimulation<'a> {
    instance: &'a ProblemInstance,
    singles: &'a [Request],
    chains: &'a [ChainRequest],
}

impl<'a> MixedSimulation<'a> {
    /// Creates the simulation, validating both streams: the singles as
    /// [`Simulation::new`] does, and the chains alike — ids dense in
    /// position, arrivals sorted (the generators guarantee both), and
    /// every window inside the instance's horizon (a stream may have been
    /// built against a longer one).
    ///
    /// # Errors
    ///
    /// Returns [`Simulation::new`]'s errors for the singles; for the
    /// chains, a wrapped [`VnfrelError`] when a window leaves the horizon
    /// and [`SimError::Mismatch`] on non-dense ids or unsorted arrivals.
    pub fn new(
        instance: &'a ProblemInstance,
        singles: &'a [Request],
        chains: &'a [ChainRequest],
    ) -> Result<Self, SimError> {
        Simulation::new(instance, singles)?;
        let horizon = instance.horizon();
        for (i, c) in chains.iter().enumerate() {
            if c.id().index() != i {
                return Err(SimError::Mismatch("chain request ids must be dense"));
            }
            if i > 0 && chains[i - 1].arrival() > c.arrival() {
                return Err(SimError::Mismatch("chains must be sorted by arrival"));
            }
            if !horizon.contains_window(c.arrival(), c.duration()) {
                let e = WorkloadError::WindowOutsideHorizon {
                    arrival: c.arrival(),
                    duration: c.duration(),
                    horizon: horizon.len(),
                };
                return Err(VnfrelError::Workload(e).into());
            }
        }
        Ok(MixedSimulation {
            instance,
            singles,
            chains,
        })
    }

    /// The problem instance under simulation.
    pub fn instance(&self) -> &ProblemInstance {
        self.instance
    }

    /// The two streams merged by arrival slot, singles before chains
    /// within a slot: the order [`MixedSimulation::run`] decides them in.
    pub fn demands(&self) -> impl Iterator<Item = Demand<'a>> {
        let mut singles = self.singles.iter().peekable();
        let mut chains = self.chains.iter().peekable();
        std::iter::from_fn(move || match (singles.peek(), chains.peek()) {
            (Some(s), Some(c)) if s.arrival() > c.arrival() => chains.next().map(Demand::Chain),
            (Some(_), _) => singles.next().map(Demand::Single),
            (None, _) => chains.next().map(Demand::Chain),
        })
    }

    /// Runs [`MixedSimulation::demands`] through the scheduler.
    pub fn run<S: TraceSink>(&self, scheduler: &mut ChainPrimalDual<'_, S>) -> MixedReport {
        let mut singles_out: Vec<Option<(CloudletId, u32)>> =
            Vec::with_capacity(self.singles.len());
        let mut chain_schedule = ChainSchedule::new();
        let mut single_revenue = 0.0;
        for demand in self.demands() {
            match demand {
                Demand::Single(r) => {
                    let d = scheduler.decide_single(r);
                    if d.is_some() {
                        single_revenue += r.payment();
                    }
                    singles_out.push(d);
                }
                Demand::Chain(c) => chain_schedule.record(c, scheduler.decide_chain(c)),
            }
        }
        MixedReport {
            chains: chain_schedule,
            singles: singles_out,
            single_revenue,
            mode: scheduler.mode(),
            standby_count: scheduler.pool().standby_count(),
            max_overflow: scheduler.ledger().max_overflow(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::generators::{self, CloudletPlacement};
    use mec_workload::{ChainGenerator, Horizon, RequestGenerator, VnfCatalog};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn instance() -> ProblemInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let placement = CloudletPlacement {
            fraction: 1.0,
            capacity: (20, 40),
            reliability: (0.995, 0.9999),
        };
        let net = generators::ring(4, &placement, &mut rng).unwrap();
        ProblemInstance::new(net, VnfCatalog::standard(), Horizon::new(16)).unwrap()
    }

    fn workloads(inst: &ProblemInstance) -> (Vec<Request>, Vec<ChainRequest>) {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let singles = RequestGenerator::new(inst.horizon())
            .reliability_band(0.9, 0.97)
            .unwrap()
            .generate(40, inst.catalog(), &mut rng)
            .unwrap();
        let chains = ChainGenerator::new(inst.horizon(), inst.network().ap_count())
            .length_band(1, 3)
            .unwrap()
            .reliability_band(0.9, 0.96)
            .unwrap()
            .latency_budget_band(3.0, 10.0)
            .unwrap()
            .generate(25, inst.catalog(), &mut rng)
            .unwrap();
        (singles, chains)
    }

    #[test]
    fn mixed_run_admits_both_kinds_without_overflow() {
        let inst = instance();
        let (singles, chains) = workloads(&inst);
        let sim = MixedSimulation::new(&inst, &singles, &chains).unwrap();
        let mut alg = ChainPrimalDual::new(&inst, BackupMode::Shared);
        let report = sim.run(&mut alg);
        assert_eq!(report.singles.len(), singles.len());
        assert_eq!(report.chains.len(), chains.len());
        assert!(report.admitted_singles() > 0, "no singles admitted");
        assert!(report.admitted_chains() > 0, "no chains admitted");
        assert_eq!(report.max_overflow, 0.0);
        assert!(report.revenue() > 0.0);
        assert!((report.revenue() - report.single_revenue - report.chains.revenue()).abs() < 1e-9);
        assert_eq!(report.mode, BackupMode::Shared);
    }

    #[test]
    fn mixed_run_is_deterministic_for_a_seed() {
        let inst = instance();
        let (singles, chains) = workloads(&inst);
        let sim = MixedSimulation::new(&inst, &singles, &chains).unwrap();
        let mut a = ChainPrimalDual::new(&inst, BackupMode::Dedicated);
        let mut b = ChainPrimalDual::new(&inst, BackupMode::Dedicated);
        let ra = sim.run(&mut a);
        let rb = sim.run(&mut b);
        assert_eq!(ra.singles, rb.singles);
        assert_eq!(ra.chains, rb.chains);
        assert_eq!(ra.single_revenue, rb.single_revenue);
    }

    #[test]
    fn validation_rejects_bad_streams() {
        let inst = instance();
        let (singles, mut chains) = workloads(&inst);
        // Non-dense chain ids.
        chains.remove(0);
        assert!(MixedSimulation::new(&inst, &singles, &chains).is_err());
        let (mut singles, chains) = workloads(&inst);
        singles.swap(0, 1);
        assert!(MixedSimulation::new(&inst, &singles, &chains).is_err());
    }

    // Two cloudlets of capacity 40 over four slots, and a request of
    // either kind (VNF 8, R = 0.9, slots 2..=6) built against eight: a
    // run would charge the tail of its window into the next cloudlet's
    // row (without the check, the single is admitted and does just that).
    #[test]
    fn windows_outside_the_horizon_are_refused() {
        use mec_topology::{NetworkBuilder, NodeId, Reliability};
        use mec_workload::{ChainRequestId, RequestId, VnfTypeId};
        let mut b = NetworkBuilder::new();
        let (a, c) = (b.add_ap("a"), b.add_ap("b"));
        b.add_link(a, c, 1.0).unwrap();
        for ap in [a, c] {
            b.add_cloudlet(ap, 40, Reliability::new(0.999).unwrap())
                .unwrap();
        }
        let short = Horizon::new(4);
        let inst = ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), short).unwrap();
        let (rel, long, vnf) = (
            Reliability::new(0.9).unwrap(),
            Horizon::new(8),
            VnfTypeId(8),
        );
        let single = Request::new(RequestId(0), vnf, rel, 2, 5, 1.0, long).unwrap();
        let chain = ChainRequest::new(
            ChainRequestId(0),
            vec![vnf],
            rel,
            f64::INFINITY,
            NodeId(0),
            2,
            5,
            1.0,
            long,
        )
        .unwrap();
        for result in [
            MixedSimulation::new(&inst, std::slice::from_ref(&single), &[]),
            MixedSimulation::new(&inst, &[], std::slice::from_ref(&chain)),
        ] {
            match result {
                Err(SimError::Vnfrel(VnfrelError::Workload(
                    WorkloadError::WindowOutsideHorizon {
                        arrival: 2,
                        duration: 5,
                        horizon: 4,
                    },
                ))) => {}
                other => panic!("expected WindowOutsideHorizon {{ 2, 5, 4 }}, got {other:?}"),
            }
        }
    }

    #[test]
    fn chains_contend_with_singles_for_capacity() {
        let inst = instance();
        let (singles, chains) = workloads(&inst);
        // Chain-only run admits at least as many chains as the mixed run
        // (singles consume capacity and raise prices).
        let sim_mixed = MixedSimulation::new(&inst, &singles, &chains).unwrap();
        let sim_pure = MixedSimulation::new(&inst, &[], &chains).unwrap();
        let mut mixed = ChainPrimalDual::new(&inst, BackupMode::Shared);
        let mut pure = ChainPrimalDual::new(&inst, BackupMode::Shared);
        let rm = sim_mixed.run(&mut mixed);
        let rp = sim_pure.run(&mut pure);
        assert!(rp.admitted_chains() >= rm.admitted_chains());
    }
}
