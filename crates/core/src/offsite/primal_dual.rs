use mec_obs::{NoopSink, Outcome, RejectReason, SitePlacement, TraceSink};
use mec_topology::CloudletId;
use mec_workload::Request;

use crate::instance::{ProblemInstance, Scheme};
use crate::ledger::CapacityLedger;
use crate::pricing::{CheapestFirst, DualPrices};
use crate::schedule::{Decision, Placement};
use crate::scheduler::{copy_grid_span, OnlineScheduler, SchedulerState};

/// Algorithm 2 — online primal-dual scheduling under the off-site scheme.
///
/// The reliability constraint is handled in log-space: placing one
/// instance at cloudlet `c_j` contributes `ln(1 − r(f_i)·r(c_j)) < 0`
/// toward the target `ln(1 − R_i)`. For an arriving request the algorithm:
///
/// 1. computes for each cloudlet the *price per unit of log-reliability*
///    `Σ_{t ∈ T'_i} λ_{tj} / (−ln(1 − r(f_i)·r(c_j)))`,
/// 2. discards cloudlets failing the payment test
///    `pay_i + ln(1 − R_i)·c(f_i)·ratio_j ≤ 0` (the would-be dual `δ_i`
///    going non-positive),
/// 3. scans the survivors in non-decreasing ratio order, accumulating
///    those with residual capacity in every active slot, until the
///    accumulated log-reliability meets the target. A survivor with no
///    room at the arrival slot is dropped while pricing, before any
///    ordering: the scan would skip it at its first cell, so the
///    selection is the same and a search that cannot fit anywhere
///    orders nothing,
/// 4. admits (one instance per selected cloudlet, Eq. 67 price update) or
///    rejects if the target is unreachable.
///
/// Unlike the on-site Algorithm 1, capacity is checked before selection,
/// so this scheduler never violates capacity (Theorem 2).
#[derive(Debug)]
pub struct OffsitePrimalDual<'a, S: TraceSink = NoopSink> {
    instance: &'a ProblemInstance,
    /// Decision-event consumer; `NoopSink` (the default) compiles the
    /// instrumentation away entirely.
    sink: S,
    prices: DualPrices,
    ledger: CapacityLedger,
    /// Σ δ_i accumulated over all processed requests.
    sum_delta: f64,
    rejections: RejectionCounters,
    /// Scratch: `(ratio, cloudlet)` keys for the current request.
    keys: Vec<(f64, u32)>,
    /// Scratch: `(cloudlet, ln_coef)` selection for the current request.
    selected: Vec<(usize, f64)>,
}

/// Why requests were rejected, tallied over a run — useful for diagnosing
/// whether an instance is reliability-limited, price-limited, or
/// capacity-limited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RejectionCounters {
    /// The payment test pruned every cloudlet (prices too high for this
    /// payment).
    pub payment_test: usize,
    /// Surviving cloudlets could not accumulate enough log-reliability
    /// (capacity holes or an unreachable requirement).
    pub reliability_unreachable: usize,
}

impl<'a> OffsitePrimalDual<'a, NoopSink> {
    /// Creates the scheduler with all dual prices at zero and tracing
    /// disabled (the hooks compile to nothing).
    pub fn new(instance: &'a ProblemInstance) -> Self {
        Self::with_sink(instance, NoopSink)
    }
}

impl<'a, S: TraceSink> OffsitePrimalDual<'a, S> {
    /// Like [`OffsitePrimalDual::new`] but records one
    /// [`mec_obs::TraceEvent::Decision`] per `decide()` call into `sink`.
    pub fn with_sink(instance: &'a ProblemInstance, sink: S) -> Self {
        let m = instance.cloudlet_count();
        let t = instance.horizon().len();
        OffsitePrimalDual {
            instance,
            sink,
            prices: DualPrices::new(m, t),
            ledger: CapacityLedger::new(instance.network(), instance.horizon()),
            sum_delta: 0.0,
            rejections: RejectionCounters::default(),
            keys: Vec::with_capacity(m),
            selected: Vec::with_capacity(m),
        }
    }

    /// Current dual price `λ_{tj}`.
    pub fn lambda(&self, cloudlet: CloudletId, slot: usize) -> f64 {
        self.prices.get(cloudlet.index(), slot)
    }

    /// Rejection tallies by cause.
    pub fn rejections(&self) -> RejectionCounters {
        self.rejections
    }

    /// Consumes the scheduler, returning the trace sink (e.g. to read a
    /// [`mec_obs::RingSink`] back out).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Mutable access to the trace sink (e.g. to drain a
    /// [`mec_obs::LastEventSink`] after each decision).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Emits the one decision event for the current `decide()` call.
    /// Callers must gate on `S::ENABLED` so the disabled build never
    /// constructs the event.
    fn emit(&mut self, request: &Request, outcome: Outcome) {
        self.sink.record_decision(
            request.id().index(),
            "alg2-primal-dual",
            "offsite",
            request.arrival(),
            request.payment(),
            outcome,
        );
    }

    /// The accumulated dual objective `Σ cap_j·λ_{tj} + Σ δ_i` where
    /// `δ_i = max(0, pay_i + ln(1 − R_i)·c(f_i)·min_j ratio_j)` (Eq. 66).
    ///
    /// Unlike the on-site case the paper proves no competitive ratio for
    /// Algorithm 2, so this is a *diagnostic*, not a certified bound.
    pub fn dual_objective(&self) -> f64 {
        let lambda_part: f64 = (0..self.prices.cloudlet_count())
            .map(|j| self.ledger.capacity(CloudletId(j)) * self.prices.row_total(j))
            .sum();
        lambda_part + self.sum_delta
    }
}

impl<S: TraceSink> OnlineScheduler for OffsitePrimalDual<'_, S> {
    fn name(&self) -> &'static str {
        "alg2-primal-dual"
    }

    fn scheme(&self) -> Scheme {
        Scheme::OffSite
    }

    fn decide(&mut self, request: &Request) -> Decision {
        let compute = match self.instance.catalog().get(request.vnf()) {
            Some(v) => v.compute() as f64,
            None => {
                if S::ENABLED {
                    self.emit(
                        request,
                        Outcome::Reject {
                            reason: RejectReason::UnknownVnf,
                            dual_cost: None,
                            margin: None,
                        },
                    );
                }
                return Decision::Reject;
            }
        };
        let ln_target = request.reliability_requirement().failure().ln(); // < 0
        let first = request.arrival();
        let last = first + request.duration() - 1;

        // Price each cloudlet and apply the payment test (Alg. 2, lines
        // 3–8). `ln(1 − r_f·r_c)` comes from the instance's precomputed
        // table; the window sum of λ is O(1) from the prefix rows.
        self.keys.clear();
        let mut min_ratio = f64::INFINITY;
        let mut paid = false;
        for j in 0..self.prices.cloudlet_count() {
            let ln_coef = self.instance.offsite_ln_coef(request.vnf(), CloudletId(j));
            let lambda_sum = self.prices.window_sum(j, first, last);
            let ratio = lambda_sum / (-ln_coef);
            min_ratio = min_ratio.min(ratio);
            // Payment test: pay + ln(1−R)·c·ratio must stay positive.
            if request.payment() + ln_target * compute * ratio <= 0.0 {
                continue;
            }
            paid = true;
            // A survivor full at the arrival slot would be drawn only to
            // fail `fits_window` on that first cell, so it is not ordered
            // at all: the rest keep their (ratio, id) order, and the
            // selection below is the one the unfiltered list yields.
            if !self.ledger.fits_slot(CloudletId(j), first, compute) {
                continue;
            }
            self.keys.push((ratio, j as u32));
        }
        // Dual bookkeeping (Eq. 66): δ_i from the cheapest cloudlet,
        // regardless of the later capacity-driven selection.
        if min_ratio.is_finite() {
            self.sum_delta += (request.payment() + ln_target * compute * min_ratio).max(0.0);
        }
        if !paid {
            self.rejections.payment_test += 1;
            if S::ENABLED {
                // The would-be dual cost of the cheapest site path is
                // `−ln(1−R_i)·c(f_i)·min_ratio`; the payment test margin
                // is `pay_i` minus exactly that.
                let (dual_cost, margin) = if min_ratio.is_finite() {
                    let cheapest = -ln_target * compute * min_ratio;
                    (Some(cheapest), Some(request.payment() - cheapest))
                } else {
                    (None, None)
                };
                self.emit(
                    request,
                    Outcome::Reject {
                        reason: RejectReason::PaymentTest,
                        dual_cost,
                        margin,
                    },
                );
            }
            return Decision::Reject;
        }

        // Accumulate cloudlets with enough residual capacity until the
        // reliability target is met (lines 10–17). Candidates are drawn
        // lazily in ascending (price per unit of log-reliability, id)
        // order — the same order the old full sort produced, but a
        // request that admits on the first few sites never pays for
        // ordering the rest. With no candidate left (every survivor full
        // at the arrival slot) nothing is drawn and the request falls
        // through to the reliability reject.
        self.selected.clear();
        let mut ln_sum = 0.0;
        {
            let instance = self.instance;
            let vnf_id = request.vnf();
            let ledger = &self.ledger;
            let selected = &mut self.selected;
            let mut it = CheapestFirst::new(&mut self.keys);
            while let Some(j32) = it.next() {
                let j = j32 as usize;
                if !ledger.fits_window(CloudletId(j), first, last, compute) {
                    continue;
                }
                let ln_coef = instance.offsite_ln_coef(vnf_id, CloudletId(j));
                selected.push((j, ln_coef));
                ln_sum += ln_coef;
                if ln_sum <= ln_target + 1e-12 {
                    break;
                }
            }
        }
        if ln_sum > ln_target + 1e-12 {
            self.rejections.reliability_unreachable += 1;
            if S::ENABLED {
                // Report the cost of the partial selection that still
                // fell short of the log-reliability target.
                let partial: f64 = self
                    .selected
                    .iter()
                    .map(|&(j, _)| compute * self.prices.window_sum(j, first, last))
                    .sum();
                let dual_cost = (!self.selected.is_empty()).then_some(partial);
                self.emit(
                    request,
                    Outcome::Reject {
                        reason: RejectReason::ReliabilityInfeasible,
                        dual_cost,
                        margin: None,
                    },
                );
            }
            return Decision::Reject;
        }

        // Capture per-site dual costs *before* the price update below
        // mutates the very prices they derive from.
        let mut traced_sites = Vec::new();
        if S::ENABLED {
            traced_sites = self
                .selected
                .iter()
                .map(|&(j, _)| SitePlacement {
                    cloudlet: j,
                    instances: 1,
                    dual_cost: compute * self.prices.window_sum(j, first, last),
                })
                .collect();
        }

        // Admit: one instance per selected cloudlet; charge capacity and
        // update prices (Eq. 67); each touched prefix row re-folds up to
        // its high-water mark.
        let d = request.duration() as f64;
        let pay = request.payment();
        for i in 0..self.selected.len() {
            let (j, ln_coef) = self.selected[i];
            self.ledger
                .charge_window(CloudletId(j), first, last, compute);
            let cap = self.ledger.capacity(CloudletId(j));
            // ln(1−R)/ln(1−r_f·r_c) ≥ 0: both logs are negative.
            let factor = ln_target * compute / (ln_coef * cap);
            self.prices
                .update_window(j, first, last, |l| l * (1.0 + factor) + factor * pay / d);
        }
        if S::ENABLED {
            let dual_cost: f64 = traced_sites.iter().map(|s| s.dual_cost).sum();
            // δ_i (Eq. 66): margin of the cheapest-site payment test.
            let margin = pay + ln_target * compute * min_ratio;
            self.emit(
                request,
                Outcome::Admit {
                    dual_cost,
                    margin,
                    sites: traced_sites,
                },
            );
        }
        Decision::Admit(Placement::OffSite {
            cloudlets: self.selected.iter().map(|&(j, _)| CloudletId(j)).collect(),
        })
    }

    fn ledger(&self) -> &CapacityLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut CapacityLedger {
        &mut self.ledger
    }

    // Counter order: [payment_test, reliability_unreachable].
    fn export_state(&self) -> SchedulerState {
        SchedulerState {
            used: self.ledger.used_grid().to_vec(),
            lambda: self.prices.values().to_vec(),
            sum_delta: self.sum_delta,
            counters: vec![
                self.rejections.payment_test as u64,
                self.rejections.reliability_unreachable as u64,
            ],
        }
    }

    fn export_state_span(&self, into: &mut SchedulerState, first: usize, last: usize) {
        let slots = self.prices.slots();
        copy_grid_span(&mut into.used, self.ledger.used_grid(), slots, first, last);
        copy_grid_span(&mut into.lambda, self.prices.values(), slots, first, last);
        into.sum_delta = self.sum_delta;
        into.counters[0] = self.rejections.payment_test as u64;
        into.counters[1] = self.rejections.reliability_unreachable as u64;
    }

    fn import_state(&mut self, state: &SchedulerState) -> Result<(), crate::VnfrelError> {
        if state.counters.len() != 2 {
            return Err(crate::VnfrelError::StateRestore(
                "off-site counter vector must have exactly 2 entries",
            ));
        }
        if !state.sum_delta.is_finite() {
            return Err(crate::VnfrelError::StateRestore(
                "non-finite sum_delta in snapshot",
            ));
        }
        // Pre-validate the usage grid so a failure below cannot leave the
        // scheduler half-restored (DualPrices::restore also validates
        // before mutating).
        if state.used.len() != self.ledger.used_grid().len()
            || state.used.iter().any(|u| !u.is_finite() || *u < 0.0)
        {
            return Err(crate::VnfrelError::StateRestore(
                "usage grid does not fit this scheduler",
            ));
        }
        self.prices.restore(&state.lambda)?;
        self.ledger.restore_used(&state.used)?;
        self.sum_delta = state.sum_delta;
        self.rejections = RejectionCounters {
            payment_test: state.counters[0] as usize,
            reliability_unreachable: state.counters[1] as usize,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::ReservationId;
    use crate::reliability::offsite_availability;
    use crate::scheduler::run_online;
    use mec_topology::{NetworkBuilder, Reliability};
    use mec_workload::{Horizon, RequestId, VnfCatalog, VnfTypeId};

    fn rel(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    fn instance(cloudlets: &[(u64, f64)], horizon: usize) -> ProblemInstance {
        let mut b = NetworkBuilder::new();
        let mut prev = None;
        for (i, &(cap, r)) in cloudlets.iter().enumerate() {
            let ap = b.add_ap(format!("ap{i}"));
            if let Some(p) = prev {
                b.add_link(p, ap, 1.0).unwrap();
            }
            prev = Some(ap);
            b.add_cloudlet(ap, cap, rel(r)).unwrap();
        }
        ProblemInstance::new(
            b.build().unwrap(),
            VnfCatalog::standard(),
            Horizon::new(horizon),
        )
        .unwrap()
    }

    fn request(id: usize, vnf: usize, req: f64, pay: f64) -> Request {
        Request::new(
            RequestId(id),
            VnfTypeId(vnf),
            rel(req),
            0,
            2,
            pay,
            Horizon::new(10),
        )
        .unwrap()
    }

    #[test]
    fn admits_with_enough_cloudlets_and_meets_reliability() {
        let inst = instance(&[(10, 0.99), (10, 0.98), (10, 0.97)], 10);
        let mut alg = OffsitePrimalDual::new(&inst);
        // LoadBalancer (vnf 3): r = 0.9999, c = 2. Requirement 0.995
        // needs ≥ 2 cloudlets (one: ≤ 0.99).
        let r = request(0, 3, 0.995, 20.0);
        match alg.decide(&r) {
            Decision::Admit(Placement::OffSite { cloudlets }) => {
                assert!(cloudlets.len() >= 2, "needs multiple sites");
                // Verify the achieved availability.
                let vnf = inst.catalog().get(VnfTypeId(3)).unwrap();
                let rels = cloudlets
                    .iter()
                    .map(|&c| inst.network().cloudlet(c).unwrap().reliability());
                assert!(offsite_availability(vnf.reliability(), rels) >= 0.995);
            }
            other => panic!("expected admission, got {other:?}"),
        }
    }

    #[test]
    fn reliability_can_exceed_any_single_cloudlet() {
        // Off-site's raison d'être: requirement above every cloudlet's
        // reliability is satisfiable with enough sites.
        let inst = instance(&[(10, 0.9), (10, 0.9), (10, 0.9), (10, 0.9)], 10);
        let mut alg = OffsitePrimalDual::new(&inst);
        // ProxyCache (vnf 8): r = 0.9995, c = 1. Requirement 0.95 > 0.9.
        let r = request(0, 8, 0.95, 10.0);
        assert!(alg.decide(&r).is_admit());
    }

    #[test]
    fn rejects_when_even_all_cloudlets_cannot_reach_target() {
        let inst = instance(&[(10, 0.5)], 10);
        let mut alg = OffsitePrimalDual::new(&inst);
        // One weak cloudlet, requirement 0.99: 1 − (1 − r_f·0.5) < 0.99.
        let r = request(0, 8, 0.99, 100.0);
        assert_eq!(alg.decide(&r), Decision::Reject);
    }

    #[test]
    fn never_violates_capacity() {
        let inst = instance(&[(4, 0.99), (4, 0.98)], 10);
        let mut alg = OffsitePrimalDual::new(&inst);
        let reqs: Vec<Request> = (0..60).map(|i| request(i, 8, 0.95, 5.0)).collect();
        let schedule = run_online(&mut alg, &reqs).unwrap();
        assert_eq!(alg.ledger().max_overflow(), 0.0);
        assert!(schedule.admitted_count() < 60);
    }

    #[test]
    fn prices_rise_on_selected_cloudlets_only() {
        let inst = instance(&[(10, 0.99), (10, 0.98), (10, 0.97)], 10);
        let mut alg = OffsitePrimalDual::new(&inst);
        let r = request(0, 8, 0.9, 10.0); // single cheap site suffices
        let d = alg.decide(&r);
        let Decision::Admit(Placement::OffSite { cloudlets }) = d else {
            panic!("expected admission");
        };
        assert_eq!(cloudlets.len(), 1);
        let chosen = cloudlets[0];
        assert!(alg.lambda(chosen, 0) > 0.0);
        assert!(alg.lambda(chosen, 1) > 0.0);
        assert_eq!(alg.lambda(chosen, 2), 0.0); // outside the window
        for c in inst.network().cloudlets() {
            if c.id() != chosen {
                assert_eq!(alg.lambda(c.id(), 0), 0.0);
            }
        }
    }

    #[test]
    fn payment_test_prunes_expensive_cloudlets() {
        let inst = instance(&[(10, 0.99)], 10);
        let mut alg = OffsitePrimalDual::new(&inst);
        // Saturate the price by admitting many high-payers on slot 0-1.
        for i in 0..20 {
            alg.decide(&request(i, 8, 0.9, 50.0));
        }
        // Now a very low payer must be rejected by the payment test.
        let d = alg.decide(&request(20, 8, 0.9, 1e-6));
        assert_eq!(d, Decision::Reject);
    }

    #[test]
    fn rejection_counters_distinguish_causes() {
        // Unreachable requirement → reliability_unreachable.
        let weak = instance(&[(10, 0.5)], 10);
        let mut alg = OffsitePrimalDual::new(&weak);
        alg.decide(&request(0, 8, 0.99, 100.0));
        assert_eq!(alg.rejections().reliability_unreachable, 1);
        assert_eq!(alg.rejections().payment_test, 0);

        // Saturated prices + tiny payment → payment_test.
        let strong = instance(&[(10, 0.99)], 10);
        let mut alg = OffsitePrimalDual::new(&strong);
        for i in 0..20 {
            alg.decide(&request(i, 8, 0.9, 50.0));
        }
        let before = alg.rejections().payment_test;
        alg.decide(&request(20, 8, 0.9, 1e-6));
        assert_eq!(alg.rejections().payment_test, before + 1);
    }

    #[test]
    fn dual_objective_upper_bounds_revenue_in_practice() {
        let inst = instance(&[(8, 0.99), (8, 0.98)], 10);
        let mut alg = OffsitePrimalDual::new(&inst);
        let reqs: Vec<Request> = (0..50)
            .map(|i| request(i, 8, 0.9, 2.0 + (i % 9) as f64))
            .collect();
        let schedule = run_online(&mut alg, &reqs).unwrap();
        // Diagnostic (no proved ratio for Algorithm 2), but the dual
        // accumulation should still dominate collected revenue.
        assert!(
            schedule.revenue() <= alg.dual_objective() + 1e-6,
            "revenue {} vs dual {}",
            schedule.revenue(),
            alg.dual_objective()
        );
        assert!(alg.dual_objective().is_finite());
    }

    /// Algorithm 2 without the arrival-slot filter: every payment
    /// survivor sorted by `(ratio, id)`, then first-fit accumulation,
    /// over prices and a ledger of its own that the stream drives in
    /// lockstep with the scheduler under test.
    struct Reference<'a> {
        instance: &'a ProblemInstance,
        prices: DualPrices,
        ledger: CapacityLedger,
        sum_delta: f64,
        rejections: RejectionCounters,
    }

    /// What the reference's decisions went through, summed over a stream.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Payment survivors with no room at the arrival slot.
        dropped: usize,
        /// Drawn candidates with room at the arrival slot but not over
        /// their whole window.
        window_misses: usize,
        /// Reliability rejects that had selected some cloudlets.
        partial_exhausted: usize,
        /// Admissions of a request that had a survivor dropped.
        admits_after_drop: usize,
        /// Payment survivors whose arrival-slot room equals the demand
        /// exactly at the ledger's `1e-9` tolerance.
        at_tolerance: usize,
    }

    impl<'a> Reference<'a> {
        fn new(instance: &'a ProblemInstance) -> Self {
            Reference {
                instance,
                prices: DualPrices::new(instance.cloudlet_count(), instance.horizon().len()),
                ledger: CapacityLedger::new(instance.network(), instance.horizon()),
                sum_delta: 0.0,
                rejections: RejectionCounters::default(),
            }
        }

        fn dual_objective(&self) -> f64 {
            let lambda_part: f64 = (0..self.prices.cloudlet_count())
                .map(|j| self.ledger.capacity(CloudletId(j)) * self.prices.row_total(j))
                .sum();
            lambda_part + self.sum_delta
        }

        /// Decides `request`, returning the decision and the ids of the
        /// survivors with room at the arrival slot — the candidates the
        /// filtered scheduler must have ordered.
        fn decide(&mut self, request: &Request, seen: &mut Coverage) -> (Decision, Vec<u32>) {
            let compute = self
                .instance
                .catalog()
                .get(request.vnf())
                .unwrap()
                .compute() as f64;
            let ln_target = request.reliability_requirement().failure().ln();
            let first = request.arrival();
            let last = first + request.duration() - 1;
            let mut survivors = Vec::new();
            let mut min_ratio = f64::INFINITY;
            for j in 0..self.prices.cloudlet_count() {
                let ln_coef = self.instance.offsite_ln_coef(request.vnf(), CloudletId(j));
                let ratio = self.prices.window_sum(j, first, last) / (-ln_coef);
                min_ratio = min_ratio.min(ratio);
                if request.payment() + ln_target * compute * ratio > 0.0 {
                    survivors.push((ratio, j as u32));
                }
            }
            if min_ratio.is_finite() {
                self.sum_delta += (request.payment() + ln_target * compute * min_ratio).max(0.0);
            }
            let room = |l: &CapacityLedger, j: u32| {
                l.fits_window(CloudletId(j as usize), first, first, compute)
            };
            let fitting: Vec<u32> = survivors
                .iter()
                .map(|&(_, j)| j)
                .filter(|&j| room(&self.ledger, j))
                .collect();
            let dropped = survivors.len() - fitting.len();
            seen.dropped += dropped;
            seen.at_tolerance += survivors
                .iter()
                .filter(|&&(_, j)| {
                    let c = CloudletId(j as usize);
                    self.ledger.residual(c, first) - self.ledger.reserved(c, first) + 1e-9
                        == compute
                })
                .count();
            if survivors.is_empty() {
                self.rejections.payment_test += 1;
                return (Decision::Reject, fitting);
            }
            survivors.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut selected = Vec::new();
            let mut ln_sum = 0.0;
            for &(_, j) in &survivors {
                if !self
                    .ledger
                    .fits_window(CloudletId(j as usize), first, last, compute)
                {
                    seen.window_misses += usize::from(room(&self.ledger, j));
                    continue;
                }
                let ln_coef = self
                    .instance
                    .offsite_ln_coef(request.vnf(), CloudletId(j as usize));
                selected.push((j as usize, ln_coef));
                ln_sum += ln_coef;
                if ln_sum <= ln_target + 1e-12 {
                    break;
                }
            }
            if ln_sum > ln_target + 1e-12 {
                self.rejections.reliability_unreachable += 1;
                seen.partial_exhausted += usize::from(!selected.is_empty());
                return (Decision::Reject, fitting);
            }
            seen.admits_after_drop += usize::from(dropped > 0);
            let d = request.duration() as f64;
            let pay = request.payment();
            for &(j, ln_coef) in &selected {
                self.ledger
                    .charge_window(CloudletId(j), first, last, compute);
                let cap = self.ledger.capacity(CloudletId(j));
                let factor = ln_target * compute / (ln_coef * cap);
                self.prices
                    .update_window(j, first, last, |l| l * (1.0 + factor) + factor * pay / d);
            }
            let cloudlets = selected.iter().map(|&(j, _)| CloudletId(j)).collect();
            (Decision::Admit(Placement::OffSite { cloudlets }), fitting)
        }
    }

    fn bits(grid: &[f64]) -> Vec<u64> {
        grid.iter().map(|v| v.to_bits()).collect()
    }

    /// Runs a random stream over `m` small cloudlets (capacities 1–4,
    /// twins with equal capacity, reliability and price plateaus, so
    /// ratios tie exactly) through the scheduler and [`Reference`] side
    /// by side, with reservation holds placed, committed and cancelled on
    /// both ledgers between decisions. After every decision it holds the
    /// decision, the counters, the dual objective and the `λ` and `used`
    /// grids to the reference bit for bit, and the scheduler's ordered
    /// candidates to the survivors with room at the arrival slot. Adds
    /// what the stream went through to `seen`.
    fn filtered_matches_reference(seed: u64, m: usize, seen: &mut Coverage) {
        const T: usize = 12;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut specs: Vec<(u64, f64)> = Vec::with_capacity(m);
        let mut twins = Vec::new();
        for j in 0..m {
            if j > 0 && next() % 2 == 0 {
                specs.push(specs[j - 1]);
                twins.push(j);
            } else {
                let r = [0.9, 0.95, 0.99, 0.999][(next() % 4) as usize];
                specs.push((1 + next() % 4, r));
            }
        }
        let inst = instance(&specs, T);
        let mut alg = OffsitePrimalDual::new(&inst);
        let mut reference = Reference::new(&inst);
        let window = |next: &mut dyn FnMut() -> u64| {
            let first = (next() % T as u64) as usize;
            (first, first + (next() % (T - first).min(5) as u64) as usize)
        };
        // A twin and its original share price plateaus until an
        // admission tells them apart.
        for _ in 0..m / 2 {
            let Some(&j) = twins.get((next() % twins.len().max(1) as u64) as usize) else {
                break;
            };
            let (first, last) = window(&mut next);
            let price = (1 + next() % 3) as f64 / 8.0;
            for k in [j - 1, j] {
                alg.prices.update_window(k, first, last, |_| price);
                reference.prices.update_window(k, first, last, |_| price);
            }
        }
        let mut holds: Vec<(ReservationId, ReservationId)> = Vec::new();
        for id in 0..120 {
            match next() % 8 {
                0 | 1 => {
                    let c = CloudletId((next() % m as u64) as usize);
                    let (first, last) = window(&mut next);
                    let amount = [1e-9, 0.5, 1.0, 2.0][(next() % 4) as usize];
                    let a = alg.ledger_mut().try_reserve_window(c, first, last, amount);
                    let b = reference.ledger.try_reserve_window(c, first, last, amount);
                    assert_eq!(a.is_some(), b.is_some(), "seed {seed} request {id}");
                    holds.extend(a.zip(b));
                }
                2 if !holds.is_empty() => {
                    let (a, b) = holds.swap_remove((next() % holds.len() as u64) as usize);
                    if next() % 2 == 0 {
                        alg.ledger_mut().commit_reservation(a).unwrap();
                        reference.ledger.commit_reservation(b).unwrap();
                    } else {
                        alg.ledger_mut().cancel_reservation(a).unwrap();
                        reference.ledger.cancel_reservation(b).unwrap();
                    }
                }
                _ => {}
            }
            let (first, last) = window(&mut next);
            let r = Request::new(
                RequestId(id),
                VnfTypeId((next() % 10) as usize),
                rel([0.9, 0.99, 0.999, 0.9999, 0.99999][(next() % 5) as usize]),
                first,
                last - first + 1,
                (1 + next() % 40) as f64 / 4.0,
                Horizon::new(T),
            )
            .unwrap();
            let (decision, mut fitting) = reference.decide(&r, seen);
            let ctx = format!("seed {seed}, {m} cloudlets, request {id}");
            assert_eq!(alg.decide(&r), decision, "{ctx}");
            assert_eq!(alg.rejections(), reference.rejections, "{ctx}");
            assert_eq!(
                alg.dual_objective().to_bits(),
                reference.dual_objective().to_bits(),
                "{ctx}"
            );
            assert_eq!(
                bits(alg.prices.values()),
                bits(reference.prices.values()),
                "{ctx}"
            );
            assert_eq!(
                bits(alg.ledger.used_grid()),
                bits(reference.ledger.used_grid()),
                "{ctx}"
            );
            let mut ordered: Vec<u32> = alg.keys.iter().map(|&(_, j)| j).collect();
            ordered.sort_unstable();
            fitting.sort_unstable();
            assert_eq!(ordered, fitting, "{ctx}: ordered candidates");
        }
    }

    #[test]
    fn reference_streams_reach_every_filter_case() {
        let mut seen = Coverage::default();
        for seed in 0..80u64 {
            let m = 1 + (seed % 40) as usize;
            filtered_matches_reference(seed * 0x9E37_79B9 + 1, m, &mut seen);
        }
        assert!(seen.dropped > 100, "{seen:?}");
        assert!(seen.window_misses > 100, "{seen:?}");
        assert!(seen.partial_exhausted > 100, "{seen:?}");
        assert!(seen.admits_after_drop > 100, "{seen:?}");
        assert!(seen.at_tolerance > 100, "{seen:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Dropping the survivors with no room at the arrival slot leaves
        /// every decision, counter, price and charge of the unfiltered
        /// sort-then-first-fit algorithm unchanged, and orders exactly
        /// the survivors with room.
        #[test]
        fn arrival_slot_filter_matches_the_unfiltered_reference(
            seed in 0u64..u64::MAX,
            m in 1usize..=40,
        ) {
            filtered_matches_reference(seed, m, &mut Coverage::default());
        }
    }

    #[test]
    fn one_instance_per_cloudlet() {
        let inst = instance(&[(10, 0.95), (10, 0.95), (10, 0.95)], 10);
        let mut alg = OffsitePrimalDual::new(&inst);
        let r = request(0, 8, 0.99, 30.0);
        if let Decision::Admit(Placement::OffSite { cloudlets }) = alg.decide(&r) {
            let mut unique = cloudlets.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), cloudlets.len(), "duplicate cloudlets");
        } else {
            panic!("expected admission");
        }
    }
}
