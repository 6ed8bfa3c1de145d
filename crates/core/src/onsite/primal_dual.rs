use mec_obs::{NoopSink, Outcome, RejectReason, SitePlacement, TraceSink};
use mec_topology::CloudletId;
use mec_workload::Request;

use crate::instance::{ProblemInstance, Scheme};
use crate::ledger::CapacityLedger;
use crate::pricing::DualPrices;
use crate::schedule::{Decision, Placement};
use crate::scheduler::{copy_grid_span, OnlineScheduler, SchedulerState};

/// How Algorithm 1 treats cloudlet capacity.
///
/// The raw algorithm of the paper may overflow capacity by a bounded
/// factor `ξ` (Lemma 8); the paper's *evaluation* avoids real violations
/// with the scaling approach of Fan & Ansari. All three options keep the
/// primal-dual admission rule identical and differ only in the capacity
/// gate applied before admission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityPolicy {
    /// Admit only if the true demand fits in the residual capacity
    /// (evaluation default; a scaling factor of 1).
    Enforce,
    /// Paper's raw Algorithm 1: no capacity gate; violations may occur and
    /// are observable via the ledger's overflow statistics.
    AllowViolations,
    /// Scaling approach: the admission gate tests `σ ×` the true demand
    /// (σ ≥ 1), reserving headroom; the ledger is charged the true demand.
    Scaled(f64),
}

/// Algorithm 1 — online primal-dual scheduling under the on-site scheme.
///
/// Maintains one dual price `λ_{tj}` per (slot, cloudlet). For an arriving
/// request `ρ_i` the algorithm computes, per eligible cloudlet `c_j`
/// (those with `r(c_j) > R_i`), the dual cost
/// `Σ_{t ∈ T'_i} N_ij · c(f_i) · λ_{tj}`, picks the cheapest cloudlet, and
/// admits iff the payment strictly exceeds that cost. On admission the
/// chosen cloudlet's prices rise multiplicatively (Eq. 34), making heavily
/// loaded (slot, cloudlet) pairs progressively more expensive.
///
/// The final dual objective `Σ cap_j·λ_{tj} + Σ δ_i` is tracked and
/// exposed by [`OnsitePrimalDual::dual_objective`]; by weak duality it
/// upper-bounds the offline optimum, giving a per-run competitive
/// certificate.
///
/// # Example
///
/// ```
/// # use vnfrel::{ProblemInstance, onsite::{OnsitePrimalDual, CapacityPolicy}, run_online};
/// # use mec_topology::{NetworkBuilder, Reliability};
/// # use mec_workload::{VnfCatalog, RequestGenerator, Horizon};
/// # use rand::SeedableRng;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetworkBuilder::new();
/// let ap = b.add_ap("ap");
/// b.add_cloudlet(ap, 100, Reliability::new(0.999)?)?;
/// let inst = ProblemInstance::new(b.build()?, VnfCatalog::standard(), Horizon::new(20))?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let reqs = RequestGenerator::new(inst.horizon()).generate(50, inst.catalog(), &mut rng)?;
/// let mut alg1 = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce)?;
/// let schedule = run_online(&mut alg1, &reqs)?;
/// assert!(schedule.revenue() <= alg1.dual_objective() + 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OnsitePrimalDual<'a, S: TraceSink = NoopSink> {
    instance: &'a ProblemInstance,
    policy: CapacityPolicy,
    /// Decision-event consumer; `NoopSink` (the default) compiles the
    /// instrumentation away entirely.
    sink: S,
    /// The price grid and ledger; the chain scheduler prices and charges
    /// chains against the same two.
    pub(crate) prices: DualPrices,
    pub(crate) ledger: CapacityLedger,
    /// Σ δ_i accumulated over all processed requests.
    sum_delta: f64,
    rejections: RejectionCounters,
    /// Scratch: `(dual cost, cloudlet)` keys of the current request's
    /// gate candidates.
    keys: Vec<(f64, u32)>,
    /// Scratch: `N_ij` per cloudlet for the current request, 0 where
    /// `r(c_j) ≤ R_i`.
    n_for: Vec<u32>,
    /// Scratch: `a_ij = N_ij·c(f_i)` per cloudlet for the current request.
    weight_for: Vec<f64>,
    /// Scratch: dual cost per cloudlet for the current request.
    cost_for: Vec<f64>,
}

/// Why requests were rejected, tallied over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RejectionCounters {
    /// No cloudlet satisfies `r(c_j) > R_i` (requirement unreachable
    /// on-site).
    pub no_eligible_cloudlet: usize,
    /// Eligible cloudlets exist and the payment beat the unrestricted
    /// price minimum, but the capacity gate excluded every candidate.
    pub capacity_gate: usize,
    /// The payment could not beat the dual price — of the cheapest
    /// cloudlet ignoring capacity (cheaper than any gate-passing
    /// candidate, so rejection is certain), or of the selected one.
    pub payment_test: usize,
}

impl<'a> OnsitePrimalDual<'a, NoopSink> {
    /// Creates the scheduler with all dual prices at zero and tracing
    /// disabled (the hooks compile to nothing).
    ///
    /// # Errors
    ///
    /// Returns [`VnfrelError::InvalidParameter`](crate::VnfrelError) if a
    /// scaling factor below 1 is given.
    pub fn new(
        instance: &'a ProblemInstance,
        policy: CapacityPolicy,
    ) -> Result<Self, crate::VnfrelError> {
        Self::with_sink(instance, policy, NoopSink)
    }
}

impl<'a, S: TraceSink> OnsitePrimalDual<'a, S> {
    /// Like [`OnsitePrimalDual::new`] but records one
    /// [`mec_obs::TraceEvent::Decision`] per `decide()` call into `sink`.
    pub fn with_sink(
        instance: &'a ProblemInstance,
        policy: CapacityPolicy,
        sink: S,
    ) -> Result<Self, crate::VnfrelError> {
        if let CapacityPolicy::Scaled(s) = policy {
            let valid = s.is_finite() && s >= 1.0;
            if !valid {
                return Err(crate::VnfrelError::InvalidParameter(
                    "scaling factor must be ≥ 1",
                ));
            }
        }
        let m = instance.cloudlet_count();
        let t = instance.horizon().len();
        Ok(OnsitePrimalDual {
            instance,
            policy,
            sink,
            prices: DualPrices::new(m, t),
            ledger: CapacityLedger::new(instance.network(), instance.horizon()),
            sum_delta: 0.0,
            rejections: RejectionCounters::default(),
            keys: Vec::with_capacity(m),
            n_for: vec![0; m],
            weight_for: vec![0.0; m],
            cost_for: vec![0.0; m],
        })
    }

    /// Rejection tallies by cause.
    pub fn rejections(&self) -> RejectionCounters {
        self.rejections
    }

    /// Current dual price `λ_{tj}`.
    pub fn lambda(&self, cloudlet: CloudletId, slot: usize) -> f64 {
        self.prices.get(cloudlet.index(), slot)
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

    fn algorithm_name(&self) -> &'static str {
        match self.policy {
            CapacityPolicy::Enforce => "alg1-primal-dual",
            CapacityPolicy::AllowViolations => "alg1-primal-dual-raw",
            CapacityPolicy::Scaled(_) => "alg1-primal-dual-scaled",
        }
    }

    /// Emits the one decision event for the current `decide()` call.
    /// Callers must gate on `S::ENABLED` so the disabled build never
    /// constructs the event.
    fn emit(&mut self, request: &Request, outcome: Outcome) {
        self.sink.record_decision(
            request.id().index(),
            self.algorithm_name(),
            "onsite",
            request.arrival(),
            request.payment(),
            outcome,
        );
    }

    /// The dual objective `Σ_{t,j} cap_j·λ_{tj} + Σ_i δ_i` — by weak
    /// duality an upper bound on the offline optimum of the LP relaxation
    /// (and hence of the ILP).
    pub fn dual_objective(&self) -> f64 {
        let lambda_part: f64 = (0..self.prices.cloudlet_count())
            .map(|j| self.ledger.capacity(CloudletId(j)) * self.prices.row_total(j))
            .sum();
        lambda_part + self.sum_delta
    }
}

impl<S: TraceSink> OnlineScheduler for OnsitePrimalDual<'_, S> {
    fn name(&self) -> &'static str {
        self.algorithm_name()
    }

    fn scheme(&self) -> Scheme {
        Scheme::OnSite
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
        let req_rel = request.reliability_requirement();
        let first = request.arrival();
        let last = first + request.duration() - 1;

        // Dual costs per eligible cloudlet (r(c_j) > R_i): `N_ij` of every
        // cloudlet from one read of the VNF's availability table (0 marks
        // an ineligible one), the window sum of λ in O(1) from the prefix
        // rows.
        self.instance
            .onsite_instances_row(request.vnf(), req_rel, &mut self.n_for);
        let mut best_unrestricted: Option<f64> = None; // min cost ignoring capacity
        for j in 0..self.prices.cloudlet_count() {
            let n = self.n_for[j];
            if n == 0 {
                continue;
            }
            let weight = f64::from(n) * compute; // a_ij = N_ij · c(f_i)
            let cost = weight * self.prices.window_sum(j, first, last);
            if best_unrestricted.is_none_or(|c| cost < c) {
                best_unrestricted = Some(cost);
            }
            self.weight_for[j] = weight;
            self.cost_for[j] = cost;
        }

        let Some(min_cost) = best_unrestricted else {
            self.rejections.no_eligible_cloudlet += 1;
            if S::ENABLED {
                self.emit(
                    request,
                    Outcome::Reject {
                        reason: RejectReason::ReliabilityInfeasible,
                        dual_cost: None,
                        margin: None,
                    },
                );
            }
            return Decision::Reject;
        };

        // Dual bookkeeping: δ_i uses the capacity-unrestricted minimum so
        // the accumulated dual stays feasible (Constraint 32) even when a
        // capacity gate forces a rejection.
        self.sum_delta += (request.payment() - min_cost).max(0.0);

        // Any gate-passing candidate costs at least the unrestricted
        // minimum, so a payment that cannot beat that minimum fails the
        // admission rule no matter which cloudlet the gate selects —
        // skip the selection scan entirely. This changes only which
        // counter a doubly-doomed request lands in (payment_test instead
        // of capacity_gate), never the decision.
        if request.payment() - min_cost <= 0.0 {
            self.rejections.payment_test += 1;
            if S::ENABLED {
                self.emit(
                    request,
                    Outcome::Reject {
                        reason: RejectReason::DoomedShortCircuit,
                        dual_cost: Some(min_cost),
                        margin: Some(request.payment() - min_cost),
                    },
                );
            }
            return Decision::Reject;
        }

        // The gate candidates: eligible cloudlets whose arrival slot can
        // hold the gate amount. A cloudlet full there would fail the
        // gate's window scan on its first cell, so dropping it leaves the
        // selection below unchanged; without a gate nothing is dropped.
        let policy = self.policy;
        let gate = |weight: f64| match policy {
            CapacityPolicy::Enforce => weight,
            CapacityPolicy::AllowViolations => 0.0,
            CapacityPolicy::Scaled(s) => weight * s,
        };
        self.keys.clear();
        for j in 0..self.prices.cloudlet_count() {
            if self.n_for[j] != 0 {
                let amount = gate(self.weight_for[j]);
                if amount <= 0.0 || self.ledger.fits_slot(CloudletId(j), first, amount) {
                    self.keys.push((self.cost_for[j], j as u32));
                }
            }
        }

        // Cheapest candidate passing the capacity gate, ties toward the
        // lower id — `min_j` over the gated cloudlets. The candidates'
        // minimum is asked first: on a clean admit that is the only
        // window scan. Only if the gate excludes it, one pass over the
        // other keys (ascending id) asks the gate of a candidate only
        // when its cost is strictly below the incumbent's, so the first
        // of several equally cheap fits is the one kept.
        let (ledger, weight_for) = (&self.ledger, &self.weight_for);
        let passes = |j: usize| {
            let amount = gate(weight_for[j]);
            amount <= 0.0 || ledger.fits_window(CloudletId(j), first, last, amount)
        };
        let cheapest = self
            .keys
            .iter()
            .copied()
            .reduce(|c, k| if k.0 < c.0 { k } else { c });
        let mut best = cheapest.filter(|c| passes(c.1 as usize));
        if let (Some(cheapest), None) = (cheapest, best) {
            for &key in &self.keys {
                if key.1 != cheapest.1 && best.is_none_or(|b| key.0 < b.0) && passes(key.1 as usize)
                {
                    best = Some(key);
                }
            }
        }
        let Some((_, j)) = best else {
            self.rejections.capacity_gate += 1;
            if S::ENABLED {
                self.emit(
                    request,
                    Outcome::Reject {
                        reason: RejectReason::CapacityGate,
                        dual_cost: Some(min_cost),
                        margin: Some(request.payment() - min_cost),
                    },
                );
            }
            return Decision::Reject;
        };
        let j = j as usize;
        let (n, weight, cost) = (self.n_for[j], self.weight_for[j], self.cost_for[j]);
        // Admission rule: pay_i − min_j cost_j > 0.
        if request.payment() - cost <= 0.0 {
            self.rejections.payment_test += 1;
            if S::ENABLED {
                self.emit(
                    request,
                    Outcome::Reject {
                        reason: RejectReason::PaymentTest,
                        dual_cost: Some(cost),
                        margin: Some(request.payment() - cost),
                    },
                );
            }
            return Decision::Reject;
        }

        // Primal update: place all N_ij instances at cloudlet j.
        self.ledger
            .charge_window(CloudletId(j), first, last, weight);
        // Dual update (Eq. 34) on the chosen cloudlet over active slots;
        // the prefix row re-folds up to its high-water mark.
        let cap = self.ledger.capacity(CloudletId(j));
        let d = request.duration() as f64;
        let pay = request.payment();
        self.prices.update_window(j, first, last, |l| {
            l * (1.0 + weight / cap) + weight * pay / (d * cap)
        });
        if S::ENABLED {
            self.emit(
                request,
                Outcome::Admit {
                    dual_cost: cost,
                    margin: pay - cost,
                    sites: vec![SitePlacement {
                        cloudlet: j,
                        instances: n,
                        dual_cost: cost,
                    }],
                },
            );
        }
        Decision::Admit(Placement::OnSite {
            cloudlet: CloudletId(j),
            instances: n,
        })
    }

    fn ledger(&self) -> &CapacityLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut CapacityLedger {
        &mut self.ledger
    }

    // Counter order: [no_eligible_cloudlet, capacity_gate, payment_test].
    fn export_state(&self) -> SchedulerState {
        SchedulerState {
            used: self.ledger.used_grid().to_vec(),
            lambda: self.prices.values().to_vec(),
            sum_delta: self.sum_delta,
            counters: vec![
                self.rejections.no_eligible_cloudlet as u64,
                self.rejections.capacity_gate as u64,
                self.rejections.payment_test as u64,
            ],
        }
    }

    fn export_state_span(&self, into: &mut SchedulerState, first: usize, last: usize) {
        let slots = self.prices.slots();
        copy_grid_span(&mut into.used, self.ledger.used_grid(), slots, first, last);
        copy_grid_span(&mut into.lambda, self.prices.values(), slots, first, last);
        into.sum_delta = self.sum_delta;
        into.counters[0] = self.rejections.no_eligible_cloudlet as u64;
        into.counters[1] = self.rejections.capacity_gate as u64;
        into.counters[2] = self.rejections.payment_test as u64;
    }

    fn import_state(&mut self, state: &SchedulerState) -> Result<(), crate::VnfrelError> {
        if state.counters.len() != 3 {
            return Err(crate::VnfrelError::StateRestore(
                "on-site counter vector must have exactly 3 entries",
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
            no_eligible_cloudlet: state.counters[0] as usize,
            capacity_gate: state.counters[1] as usize,
            payment_test: state.counters[2] as usize,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::run_online;
    use mec_topology::{NetworkBuilder, Reliability};
    use mec_workload::{Horizon, RequestId, VnfCatalog, VnfTypeId};

    fn rel(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    /// One AP network with two cloudlets of given (capacity, reliability).
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

    fn request(id: usize, vnf: usize, req: f64, arrival: usize, dur: usize, pay: f64) -> Request {
        Request::new(
            RequestId(id),
            VnfTypeId(vnf),
            rel(req),
            arrival,
            dur,
            pay,
            Horizon::new(20),
        )
        .unwrap()
    }

    #[test]
    fn first_request_is_admitted_when_prices_are_zero() {
        let inst = instance(&[(100, 0.999)], 20);
        let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let d = alg.decide(&request(0, 0, 0.95, 0, 2, 5.0));
        match d {
            Decision::Admit(Placement::OnSite { instances, .. }) => assert!(instances >= 1),
            other => panic!("expected admission, got {other:?}"),
        }
        // Prices rose on the active slots only.
        assert!(alg.lambda(CloudletId(0), 0) > 0.0);
        assert!(alg.lambda(CloudletId(0), 1) > 0.0);
        assert_eq!(alg.lambda(CloudletId(0), 2), 0.0);
    }

    #[test]
    fn rejects_when_no_cloudlet_reliable_enough() {
        let inst = instance(&[(100, 0.93)], 20);
        let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        // Requirement above the cloudlet reliability is unsatisfiable.
        let d = alg.decide(&request(0, 0, 0.95, 0, 1, 100.0));
        assert_eq!(d, Decision::Reject);
    }

    #[test]
    fn prices_rise_until_low_payers_are_rejected() {
        let inst = instance(&[(10, 0.999)], 20);
        let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::AllowViolations).unwrap();
        let mut admitted = 0;
        let mut rejected = 0;
        for i in 0..200 {
            // Identical low-paying requests on the same slot.
            match alg.decide(&request(i, 1, 0.9, 0, 1, 1.5)) {
                Decision::Admit(_) => admitted += 1,
                Decision::Reject => rejected += 1,
            }
        }
        assert!(admitted > 0, "some requests must be admitted");
        assert!(rejected > 0, "dual prices must eventually refuse");
    }

    #[test]
    fn enforce_policy_never_violates_capacity() {
        let inst = instance(&[(6, 0.999), (6, 0.995)], 20);
        let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let reqs: Vec<Request> = (0..80)
            .map(|i| {
                request(
                    i,
                    i % 10,
                    0.9 + (i % 5) as f64 * 0.015,
                    (i / 10) % 18,
                    2,
                    9.0,
                )
            })
            .collect();
        run_online(&mut alg, &reqs).unwrap();
        assert_eq!(alg.ledger().max_overflow(), 0.0);
    }

    #[test]
    fn scaled_policy_reserves_headroom() {
        let inst = instance(&[(10, 0.999)], 20);
        let mut strict = OnsitePrimalDual::new(&inst, CapacityPolicy::Scaled(2.0)).unwrap();
        let mut loose = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let reqs: Vec<Request> = (0..40).map(|i| request(i, 1, 0.9, 0, 1, 8.0)).collect();
        let s = run_online(&mut strict, &reqs).unwrap();
        let l = run_online(&mut loose, &reqs).unwrap();
        // Doubling the gate demand can only reduce admissions.
        assert!(s.admitted_count() <= l.admitted_count());
        assert_eq!(strict.ledger().max_overflow(), 0.0);
    }

    #[test]
    fn invalid_scale_rejected() {
        let inst = instance(&[(10, 0.999)], 20);
        assert!(OnsitePrimalDual::new(&inst, CapacityPolicy::Scaled(0.5)).is_err());
        assert!(OnsitePrimalDual::new(&inst, CapacityPolicy::Scaled(f64::NAN)).is_err());
    }

    #[test]
    fn rejection_counters_distinguish_causes() {
        // Requirement above the only cloudlet → no_eligible_cloudlet.
        let weak = instance(&[(100, 0.93)], 20);
        let mut alg = OnsitePrimalDual::new(&weak, CapacityPolicy::Enforce).unwrap();
        alg.decide(&request(0, 0, 0.95, 0, 1, 100.0));
        assert_eq!(alg.rejections().no_eligible_cloudlet, 1);

        // Saturated prices → payment_test.
        let small = instance(&[(10, 0.999)], 20);
        let mut alg = OnsitePrimalDual::new(&small, CapacityPolicy::AllowViolations).unwrap();
        let mut saw_payment_reject = false;
        for i in 0..50 {
            alg.decide(&request(i, 1, 0.9, 0, 1, 1.5));
            if alg.rejections().payment_test > 0 {
                saw_payment_reject = true;
                break;
            }
        }
        assert!(saw_payment_reject);

        // Capacity gate: a scaled gate (σ·w ≤ residual) starts failing
        // after five unit admits on a 10-unit cloudlet, while λ has only
        // reached ≈ 0.61·pay — so the payment pre-test still passes and
        // the rejection is attributed to the gate.
        let tiny = instance(&[(10, 0.999)], 20);
        let mut alg = OnsitePrimalDual::new(&tiny, CapacityPolicy::Scaled(6.0)).unwrap();
        for i in 0..8 {
            alg.decide(&request(i, 1, 0.9, 0, 1, 1e6));
        }
        assert!(alg.rejections().capacity_gate > 0, "{:?}", alg.rejections());
    }

    #[test]
    fn dual_objective_upper_bounds_revenue() {
        let inst = instance(&[(20, 0.999), (30, 0.998)], 20);
        let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let reqs: Vec<Request> = (0..60)
            .map(|i| request(i, i % 10, 0.9, i % 15, 1 + i % 4, 3.0 + (i % 7) as f64))
            .collect();
        let schedule = run_online(&mut alg, &reqs).unwrap();
        assert!(
            schedule.revenue() <= alg.dual_objective() + 1e-6,
            "revenue {} exceeds dual {}",
            schedule.revenue(),
            alg.dual_objective()
        );
    }

    #[test]
    fn picks_cheaper_cloudlet_under_load() {
        // Two identical cloudlets; load the first, the next request should
        // go to the second (its prices are still zero).
        let inst = instance(&[(100, 0.999), (100, 0.999)], 20);
        let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        // Force traffic onto cloudlet 0 by admitting one request (ties are
        // broken toward the lower id).
        let d0 = alg.decide(&request(0, 1, 0.9, 0, 1, 5.0));
        let c0 = match d0 {
            Decision::Admit(Placement::OnSite { cloudlet, .. }) => cloudlet,
            other => panic!("{other:?}"),
        };
        assert_eq!(c0, CloudletId(0));
        let d1 = alg.decide(&request(1, 1, 0.9, 0, 1, 5.0));
        match d1 {
            Decision::Admit(Placement::OnSite { cloudlet, .. }) => {
                assert_eq!(cloudlet, CloudletId(1), "should prefer unloaded cloudlet");
            }
            other => panic!("{other:?}"),
        }
    }

    /// A test-only Algorithm 1 over its own prices and ledger: `N_ij` by
    /// the definition (linear search, not the instance's table), every
    /// eligible key sorted by `(cost, id)`, the first one passing the gate
    /// by the ledger's per-slot `fits`.
    struct Reference<'a> {
        instance: &'a ProblemInstance,
        policy: CapacityPolicy,
        prices: DualPrices,
        ledger: CapacityLedger,
        sum_delta: f64,
        rejections: RejectionCounters,
    }

    /// What the reference's decisions went through, summed over streams.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Selections past the unrestricted minimum.
        past_minimum: usize,
        /// Selections that broke an exact cost tie.
        ties: usize,
        /// Selections after a cheaper key that had no room at the
        /// arrival slot: the candidates the scheduler's filter drops.
        dropped_cheaper: usize,
    }

    impl<'a> Reference<'a> {
        fn new(instance: &'a ProblemInstance, policy: CapacityPolicy) -> Self {
            Reference {
                instance,
                policy,
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

        /// Decides `request`. With the decision come, when the request
        /// reached the capacity gate, the ids of the eligible cloudlets
        /// with room at the arrival slot: the candidates the scheduler
        /// must have kept.
        fn decide(
            &mut self,
            request: &Request,
            seen: &mut Coverage,
        ) -> (Decision, Option<Vec<u32>>) {
            use crate::reliability::onsite_instances_by_search;
            let vnf = self.instance.catalog().get(request.vnf()).unwrap();
            let compute = vnf.compute() as f64;
            let (first, last) = (request.arrival(), request.end_slot());
            let mut keys: Vec<(f64, usize, u32, f64)> = self
                .instance
                .network()
                .cloudlets()
                .filter_map(|c| {
                    let n = onsite_instances_by_search(
                        vnf.reliability(),
                        c.reliability(),
                        request.reliability_requirement(),
                    )?;
                    let (j, weight) = (c.id().index(), f64::from(n) * compute);
                    Some((
                        weight * self.prices.window_sum(j, first, last),
                        j,
                        n,
                        weight,
                    ))
                })
                .collect();
            keys.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let Some(&(min_cost, ..)) = keys.first() else {
                self.rejections.no_eligible_cloudlet += 1;
                return (Decision::Reject, None);
            };
            self.sum_delta += (request.payment() - min_cost).max(0.0);
            if request.payment() - min_cost <= 0.0 {
                self.rejections.payment_test += 1;
                return (Decision::Reject, None);
            }
            let gate = |weight: f64| match self.policy {
                CapacityPolicy::Enforce => weight,
                CapacityPolicy::AllowViolations => 0.0,
                CapacityPolicy::Scaled(s) => weight * s,
            };
            let ledger = &self.ledger;
            let fits = |j: usize, slots: std::ops::RangeInclusive<usize>, weight: f64| {
                gate(weight) <= 0.0 || ledger.fits(CloudletId(j), slots, gate(weight))
            };
            let mut candidates: Vec<u32> = keys
                .iter()
                .filter(|k| fits(k.1, first..=first, k.3))
                .map(|k| k.1 as u32)
                .collect();
            candidates.sort_unstable();
            let Some(at) = keys.iter().position(|k| fits(k.1, first..=last, k.3)) else {
                self.rejections.capacity_gate += 1;
                return (Decision::Reject, Some(candidates));
            };
            let (cost, j, n, weight) = keys[at];
            seen.past_minimum += usize::from(at > 0);
            seen.ties += usize::from(keys.iter().filter(|k| k.0 == cost).count() > 1);
            seen.dropped_cheaper +=
                usize::from(keys[..at].iter().any(|k| !fits(k.1, first..=first, k.3)));
            if request.payment() - cost <= 0.0 {
                self.rejections.payment_test += 1;
                return (Decision::Reject, Some(candidates));
            }
            self.ledger.charge(CloudletId(j), first..=last, weight);
            let cap = self.ledger.capacity(CloudletId(j));
            let (d, pay) = (request.duration() as f64, request.payment());
            self.prices.update_window(j, first, last, |l| {
                l * (1.0 + weight / cap) + weight * pay / (d * cap)
            });
            let placement = Placement::OnSite {
                cloudlet: CloudletId(j),
                instances: n,
            };
            (Decision::Admit(placement), Some(candidates))
        }
    }

    /// Runs a random stream through Algorithm 1 and the [`Reference`] in
    /// lockstep, on partly saturated ledgers (some cloudlets full at
    /// arrival slots) with price plateaus shared by twin cloudlets (exact
    /// cost ties, at zero and above it). After every request the
    /// decision, the gate candidates, the counters, `dual_objective` and
    /// the `λ` and `used` grids must agree to the bit. Some requirements sit exactly on a
    /// rung of the availability table.
    fn matches_the_reference(seed: u64, policy: CapacityPolicy, seen: &mut Coverage) {
        const T: usize = 24;
        // Twins (equal capacity and reliability, hence equal `N_ij`)
        // price alike until an admission tells them apart.
        let inst = instance(
            &[
                (8, 0.999),
                (8, 0.999),
                (12, 0.995),
                (12, 0.995),
                (6, 0.97),
                (8, 0.999),
            ],
            T,
        );
        let mut alg = OnsitePrimalDual::new(&inst, policy).unwrap();
        let mut reference = Reference::new(&inst, policy);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let window = |next: &mut dyn FnMut() -> u64| {
            let first = (next() % T as u64) as usize;
            (first, first + (next() % (T - first).min(6) as u64) as usize)
        };
        // Load the prices know nothing about: the gate misses on
        // cloudlets that still look cheapest.
        for _ in 0..10 {
            let j = (next() % 6) as usize;
            let (first, last) = window(&mut next);
            let amount = (1 + next() % 8) as f64;
            alg.ledger.charge_window(CloudletId(j), first, last, amount);
            reference
                .ledger
                .charge_window(CloudletId(j), first, last, amount);
        }
        for _ in 0..4 {
            let (first, last) = window(&mut next);
            let price = (1 + next() % 3) as f64 / 8.0;
            let twins: &[usize] = if next() % 2 == 0 { &[0, 1, 5] } else { &[2, 3] };
            for &j in twins {
                alg.prices.update_window(j, first, last, |_| price);
                reference.prices.update_window(j, first, last, |_| price);
            }
        }
        for id in 0..80 {
            let (first, last) = window(&mut next);
            let vnf = VnfTypeId((next() % 10) as usize);
            let requirement = match next() % 5 {
                4 => {
                    // Exactly on rung 1–3 of one of the cloudlets.
                    let c = inst.network().cloudlet(CloudletId((next() % 6) as usize));
                    let rf = inst.catalog().get(vnf).unwrap().reliability();
                    let n = 1 + (next() % 3) as u32;
                    crate::reliability::onsite_availability(rf, c.unwrap().reliability(), n)
                }
                k => [0.9, 0.96, 0.98, 0.996][k as usize],
            };
            let r = Request::new(
                RequestId(id),
                vnf,
                rel(requirement),
                first,
                last - first + 1,
                (1 + next() % 40) as f64 / 4.0,
                Horizon::new(T),
            )
            .unwrap();
            let at = format!("seed {seed}, {policy:?}, request {id}");
            let (decision, candidates) = reference.decide(&r, seen);
            assert_eq!(alg.decide(&r), decision, "{at}");
            if let Some(candidates) = candidates {
                let mut kept: Vec<u32> = alg.keys.iter().map(|k| k.1).collect();
                kept.sort_unstable();
                assert_eq!(kept, candidates, "gate candidates, {at}");
            }
            assert_eq!(alg.rejections(), reference.rejections, "{at}");
            assert_eq!(
                alg.dual_objective().to_bits(),
                reference.dual_objective().to_bits(),
                "{at}"
            );
            let bits = |grid: &[f64]| grid.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(alg.prices.values()),
                bits(reference.prices.values()),
                "{at}"
            );
            assert_eq!(
                bits(alg.ledger.used_grid()),
                bits(reference.ledger.used_grid()),
                "{at}"
            );
        }
    }

    const POLICIES: [CapacityPolicy; 3] = [
        CapacityPolicy::Enforce,
        CapacityPolicy::AllowViolations,
        CapacityPolicy::Scaled(1.5),
    ];

    #[test]
    fn selection_streams_reach_the_fallback_pass_and_exact_ties() {
        for policy in POLICIES {
            let mut seen = Coverage::default();
            for seed in 0..32 {
                matches_the_reference(seed * 0x9E37_79B9 + 1, policy, &mut seen);
            }
            assert!(seen.ties > 100, "{policy:?}: {seen:?}");
            if policy == CapacityPolicy::AllowViolations {
                assert_eq!(seen.past_minimum, 0, "no gate, no second candidate");
                assert_eq!(seen.dropped_cheaper, 0, "no gate, nothing dropped");
            } else {
                assert!(seen.past_minimum > 100, "{policy:?}: {seen:?}");
                assert!(seen.dropped_cheaper > 100, "{policy:?}: {seen:?}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Algorithm 1 — table `N_ij`, slot-filtered candidates, argmin
        /// selection — decides what the sorted first fit over
        /// definition `N_ij` decides, with the same counters, dual
        /// objective and grids, under every capacity policy.
        #[test]
        fn selection_is_the_first_gated_key_in_cost_id_order(
            seed in 0u64..u64::MAX,
            policy in 0usize..3,
        ) {
            matches_the_reference(seed, POLICIES[policy], &mut Coverage::default());
        }
    }

    #[test]
    fn raw_policy_reports_bounded_overflow() {
        // Low payers arrive first and barely move the prices; then high
        // payers outbid the (still cheap) dual cost and overfill slot 0 —
        // the violation pattern Lemma 8 bounds.
        let inst = instance(&[(5, 0.999)], 10);
        let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::AllowViolations).unwrap();
        let reqs: Vec<Request> = (0..50)
            .map(|i| {
                let pay = if i < 25 { 0.1 } else { 1000.0 };
                request(i, 1, 0.9, 0, 1, pay)
            })
            .collect();
        run_online(&mut alg, &reqs).unwrap();
        assert!(
            alg.ledger().max_overflow() > 0.0,
            "expected over-commitment"
        );
    }
}
