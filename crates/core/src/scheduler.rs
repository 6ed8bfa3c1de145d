use mec_workload::Request;

use crate::error::VnfrelError;
use crate::instance::Scheme;
use crate::ledger::CapacityLedger;
use crate::schedule::{Decision, Schedule};

/// Portable snapshot of an online scheduler's mutable state.
///
/// Everything a scheduler accumulates across `decide()` calls, flattened
/// into plain vectors so a serving daemon can persist it and later
/// rebuild a scheduler that continues the decision stream byte for byte
/// (see `mec-serve`). Construction-time state — the problem instance,
/// capacities, precomputed ladders — is *not* included; a restore
/// target must be built from the same instance first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedulerState {
    /// Committed-usage grid, row-major `used[cloudlet * slots + slot]`
    /// (see [`CapacityLedger::used_grid`]).
    pub used: Vec<f64>,
    /// Dual-price grid `λ`, row-major `lambda[cloudlet * slots + slot]`
    /// (see [`crate::DualPrices::values`]); empty for schedulers that
    /// keep no prices (the greedy baselines).
    pub lambda: Vec<f64>,
    /// Accumulated dual-objective increment `Σ δ_i`; `0` for schedulers
    /// that keep no dual objective.
    pub sum_delta: f64,
    /// Per-reason rejection counters in the scheduler's documented
    /// order; empty for schedulers that keep no counters.
    pub counters: Vec<u64>,
}

/// Copies the slot columns `[first, last]` of every row of the row-major
/// `slots`-wide grid `src` into the same-shaped `dst`.
pub(crate) fn copy_grid_span(
    dst: &mut [f64],
    src: &[f64],
    slots: usize,
    first: usize,
    last: usize,
) {
    for (d, s) in dst.chunks_exact_mut(slots).zip(src.chunks_exact(slots)) {
        d[first..=last].copy_from_slice(&s[first..=last]);
    }
}

/// An online request-admission algorithm.
///
/// Implementations hold a reference to the
/// [`ProblemInstance`](crate::ProblemInstance) and mutable internal state
/// (dual variables, capacity ledger); the driver feeds requests one at a
/// time in arrival order, with no knowledge of future arrivals — the
/// online model of Section III-B.
pub trait OnlineScheduler {
    /// Short algorithm name for reports (e.g. `"alg1-primal-dual"`).
    fn name(&self) -> &'static str;

    /// Which backup scheme this scheduler implements.
    fn scheme(&self) -> Scheme;

    /// Decides admission for the next request and commits any resources.
    ///
    /// Precondition: the request's window lies inside
    /// [`ledger().horizon()`](CapacityLedger::horizon). `decide` does not
    /// check it (the ledger's window reads assert it only in debug
    /// builds), so a window past the horizon would be charged into the
    /// next cloudlet's row. The drivers check it before calling:
    /// [`run_online`], `Simulation::new`, `MixedSimulation::new` and the
    /// serving daemon's `build_request`.
    fn decide(&mut self, request: &Request) -> Decision;

    /// The scheduler's capacity ledger (for utilization/violation stats).
    fn ledger(&self) -> &CapacityLedger;

    /// Mutable access to the ledger, so a fault-aware driver can
    /// [`release`](CapacityLedger::release) capacity killed by outages
    /// and charge replacement placements during recovery.
    fn ledger_mut(&mut self) -> &mut CapacityLedger;

    /// Exports the scheduler's mutable state for persistence.
    ///
    /// The default covers ledger-only schedulers (the greedy baselines,
    /// whose ordering/scratch state is derived at construction): just
    /// the usage grid, no prices, no counters. The primal–dual
    /// schedulers override this to add `λ`, `Σ δ_i` and their rejection
    /// counters.
    fn export_state(&self) -> SchedulerState {
        SchedulerState {
            used: self.ledger().used_grid().to_vec(),
            lambda: Vec::new(),
            sum_delta: 0.0,
            counters: Vec::new(),
        }
    }

    /// Brings `into` — an earlier export of *this* scheduler — up to
    /// date, given that every grid cell mutated since lies in the
    /// inclusive slot span `[first, last]` (of any cloudlet). Afterwards
    /// `into` equals [`export_state`](OnlineScheduler::export_state).
    ///
    /// The default re-exports everything; the primal–dual schedulers
    /// override it to copy only the span's columns, so a caller that
    /// knows which windows it decided since the last export (the serving
    /// tier's recovery log) pays for those, not for the horizon.
    fn export_state_span(&self, into: &mut SchedulerState, first: usize, last: usize) {
        let _ = (first, last);
        *into = self.export_state();
    }

    /// Restores state previously produced by
    /// [`export_state`](OnlineScheduler::export_state) on a scheduler
    /// built from the same problem instance.
    ///
    /// # Errors
    ///
    /// Returns [`VnfrelError::StateRestore`] when the payload does not
    /// fit this scheduler (wrong grid shape, prices for a price-free
    /// scheduler, counter-vector length mismatch) and leaves the
    /// scheduler unchanged in that case.
    fn import_state(&mut self, state: &SchedulerState) -> Result<(), VnfrelError> {
        if !state.lambda.is_empty() {
            return Err(VnfrelError::StateRestore(
                "this scheduler keeps no dual prices",
            ));
        }
        if !state.counters.is_empty() {
            return Err(VnfrelError::StateRestore(
                "this scheduler keeps no rejection counters",
            ));
        }
        self.ledger_mut().restore_used(&state.used)
    }
}

/// Feeds `requests` (already in arrival order) through a scheduler and
/// collects the resulting [`Schedule`].
///
/// # Errors
///
/// Returns [`VnfrelError::NonDenseRequestIds`] if ids are not dense in
/// arrival order, and [`VnfrelError::Workload`] for a request whose
/// window leaves the scheduler's horizon (one built against a longer
/// horizon). Requests before the offending one have been decided.
pub fn run_online<S: OnlineScheduler + ?Sized>(
    scheduler: &mut S,
    requests: &[Request],
) -> Result<Schedule, VnfrelError> {
    let horizon = scheduler.ledger().horizon();
    let mut schedule = Schedule::new();
    for (i, r) in requests.iter().enumerate() {
        if r.id().index() != i {
            return Err(VnfrelError::NonDenseRequestIds {
                position: i,
                found: r.id().index(),
            });
        }
        if !horizon.contains_window(r.arrival(), r.duration()) {
            return Err(VnfrelError::Workload(
                mec_workload::WorkloadError::WindowOutsideHorizon {
                    arrival: r.arrival(),
                    duration: r.duration(),
                    horizon: horizon.len(),
                },
            ));
        }
        let decision = scheduler.decide(r);
        schedule.record(r, decision);
    }
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Placement;
    use mec_topology::{CloudletId, NetworkBuilder, Reliability};
    use mec_workload::{Horizon, RequestId, VnfTypeId};

    /// Admits everything into cloudlet 0 — only for driver tests.
    struct AdmitAll {
        ledger: CapacityLedger,
    }

    impl OnlineScheduler for AdmitAll {
        fn name(&self) -> &'static str {
            "admit-all"
        }
        fn scheme(&self) -> Scheme {
            Scheme::OnSite
        }
        fn decide(&mut self, _request: &Request) -> Decision {
            Decision::Admit(Placement::OnSite {
                cloudlet: CloudletId(0),
                instances: 1,
            })
        }
        fn ledger(&self) -> &CapacityLedger {
            &self.ledger
        }
        fn ledger_mut(&mut self) -> &mut CapacityLedger {
            &mut self.ledger
        }
    }

    fn make() -> AdmitAll {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        b.add_cloudlet(a, 10, Reliability::new(0.99).unwrap())
            .unwrap();
        AdmitAll {
            ledger: CapacityLedger::new(&b.build().unwrap(), Horizon::new(4)),
        }
    }

    fn request(id: usize) -> Request {
        Request::new(
            RequestId(id),
            VnfTypeId(0),
            Reliability::new(0.9).unwrap(),
            0,
            1,
            2.0,
            Horizon::new(4),
        )
        .unwrap()
    }

    #[test]
    fn run_online_collects_schedule() {
        let mut s = make();
        let reqs = vec![request(0), request(1)];
        let schedule = run_online(&mut s, &reqs).unwrap();
        assert_eq!(schedule.admitted_count(), 2);
        assert_eq!(schedule.revenue(), 4.0);
        assert_eq!(s.name(), "admit-all");
        assert_eq!(s.scheme(), Scheme::OnSite);
        assert_eq!(s.ledger().cloudlet_count(), 1);
    }

    #[test]
    fn run_online_refuses_a_window_past_the_schedulers_horizon() {
        use crate::offsite::{OffsiteGreedy, OffsitePrimalDual};
        use crate::onsite::{CapacityPolicy, OnsitePrimalDual};
        use crate::ProblemInstance;
        use mec_workload::{VnfCatalog, WorkloadError};

        // Two cloudlets over four slots; the request was built against a
        // ten-slot horizon and covers slots 2..=5. Decided unchecked, its
        // slots 4..=5 would be charged to cloudlet 1's slots 0..=1.
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let c = b.add_ap("b");
        b.add_link(a, c, 1.0).unwrap();
        for ap in [a, c] {
            b.add_cloudlet(ap, 10, Reliability::new(0.999).unwrap())
                .unwrap();
        }
        let inst =
            ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(4))
                .unwrap();
        let long = Request::new(
            RequestId(0),
            VnfTypeId(8),
            Reliability::new(0.9).unwrap(),
            2,
            4,
            10.0,
            Horizon::new(10),
        )
        .unwrap();
        let mut schedulers: Vec<Box<dyn OnlineScheduler>> = vec![
            Box::new(OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap()),
            Box::new(OffsitePrimalDual::new(&inst)),
            Box::new(OffsiteGreedy::new(&inst)),
        ];
        for s in &mut schedulers {
            let err = run_online(s.as_mut(), std::slice::from_ref(&long)).unwrap_err();
            assert_eq!(
                err,
                VnfrelError::Workload(WorkloadError::WindowOutsideHorizon {
                    arrival: 2,
                    duration: 4,
                    horizon: 4,
                }),
                "{}",
                s.name()
            );
            assert_eq!(s.ledger().mean_utilization(), 0.0, "{} charged", s.name());
        }
    }

    #[test]
    fn run_online_rejects_non_dense_ids() {
        let mut s = make();
        let reqs = vec![request(5)];
        assert!(matches!(
            run_online(&mut s, &reqs),
            Err(VnfrelError::NonDenseRequestIds { .. })
        ));
    }
}
