use mec_obs::{NoopSink, Outcome, RejectReason, SitePlacement, TraceSink};
use mec_topology::CloudletId;
use mec_workload::Request;

use crate::instance::{ProblemInstance, Scheme};
use crate::ledger::CapacityLedger;
use crate::schedule::{Decision, Placement};
use crate::scheduler::OnlineScheduler;

/// The evaluation's greedy baseline under the off-site scheme.
///
/// Scans cloudlets in decreasing reliability order, placing one instance
/// in each cloudlet that still has residual capacity over the request's
/// window (asked of the arrival slot first, then of the whole window), until the accumulated availability meets `R_i`; rejects if the
/// target is unreachable. Payments are ignored. As Section VI-C observes,
/// this baseline exhausts the reliable cloudlets first and then "fails to
/// admit any incoming requests in spite of existing lots of failure-prone
/// cloudlets" — the behaviour the Figure 2(b) sweep exposes.
#[derive(Debug)]
pub struct OffsiteGreedy<'a, S: TraceSink = NoopSink> {
    instance: &'a ProblemInstance,
    /// Cloudlet ids sorted by reliability, most reliable first.
    order: Vec<CloudletId>,
    ledger: CapacityLedger,
    /// Scratch: cloudlets accumulated for the current request, so the
    /// (common) reject path never allocates.
    selected: Vec<CloudletId>,
    /// Decision-event consumer; `NoopSink` (the default) compiles the
    /// instrumentation away entirely.
    sink: S,
}

impl<'a> OffsiteGreedy<'a, NoopSink> {
    /// Creates the greedy scheduler with tracing disabled.
    pub fn new(instance: &'a ProblemInstance) -> Self {
        Self::with_sink(instance, NoopSink)
    }
}

impl<'a, S: TraceSink> OffsiteGreedy<'a, S> {
    /// Like [`OffsiteGreedy::new`] but records one
    /// [`mec_obs::TraceEvent::Decision`] per `decide()` call into `sink`.
    ///
    /// Greedy ignores dual prices, so admission events carry a zero
    /// `dual_cost` and the raw payment as `margin`.
    pub fn with_sink(instance: &'a ProblemInstance, sink: S) -> Self {
        let mut order: Vec<CloudletId> = instance.network().cloudlets().map(|c| c.id()).collect();
        order.sort_by(|&a, &b| {
            let ra = instance
                .network()
                .cloudlet(a)
                .expect("valid id")
                .reliability();
            let rb = instance
                .network()
                .cloudlet(b)
                .expect("valid id")
                .reliability();
            rb.cmp(&ra).then(a.index().cmp(&b.index()))
        });
        OffsiteGreedy {
            instance,
            ledger: CapacityLedger::new(instance.network(), instance.horizon()),
            selected: Vec::with_capacity(order.len()),
            order,
            sink,
        }
    }

    /// Consumes the scheduler, returning the trace sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Emits the one decision event for the current `decide()` call.
    /// Callers must gate on `S::ENABLED` so the disabled build never
    /// constructs the event.
    fn emit(&mut self, request: &Request, outcome: Outcome) {
        self.sink.record_decision(
            request.id().index(),
            "greedy-offsite",
            "offsite",
            request.arrival(),
            request.payment(),
            outcome,
        );
    }
}

impl<S: TraceSink> OnlineScheduler for OffsiteGreedy<'_, S> {
    fn name(&self) -> &'static str {
        "greedy-offsite"
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
        let ln_target = request.reliability_requirement().failure().ln();
        let first = request.arrival();
        let last = first + request.duration() - 1;

        self.selected.clear();
        let mut ln_sum = 0.0;
        for &cid in &self.order {
            if !(self.ledger.fits_slot(cid, first, compute)
                && self.ledger.fits_window(cid, first, last, compute))
            {
                continue;
            }
            ln_sum += self.instance.offsite_ln_coef(request.vnf(), cid);
            self.selected.push(cid);
            if ln_sum <= ln_target + 1e-12 {
                break;
            }
        }
        if ln_sum > ln_target + 1e-12 {
            if S::ENABLED {
                // All capacity holes look the same to greedy: whatever
                // fit could not accumulate enough log-reliability.
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
        }
        for &cid in &self.selected {
            self.ledger.charge_window(cid, first, last, compute);
        }
        if S::ENABLED {
            let sites = self
                .selected
                .iter()
                .map(|&cid| SitePlacement {
                    cloudlet: cid.index(),
                    instances: 1,
                    dual_cost: 0.0,
                })
                .collect();
            self.emit(
                request,
                Outcome::Admit {
                    // Greedy is payment- and price-oblivious.
                    dual_cost: 0.0,
                    margin: request.payment(),
                    sites,
                },
            );
        }
        Decision::Admit(Placement::OffSite {
            cloudlets: self.selected.clone(),
        })
    }

    fn ledger(&self) -> &CapacityLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut CapacityLedger {
        &mut self.ledger
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

    fn instance(cloudlets: &[(u64, f64)]) -> ProblemInstance {
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
        ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(10)).unwrap()
    }

    fn request(id: usize, req: f64, pay: f64) -> Request {
        Request::new(
            RequestId(id),
            VnfTypeId(8), // ProxyCache: compute 1, r = 0.9995
            rel(req),
            0,
            2,
            pay,
            Horizon::new(10),
        )
        .unwrap()
    }

    #[test]
    fn uses_most_reliable_cloudlet_first() {
        let inst = instance(&[(10, 0.95), (10, 0.999)]);
        let mut g = OffsiteGreedy::new(&inst);
        match g.decide(&request(0, 0.9, 1.0)) {
            Decision::Admit(Placement::OffSite { cloudlets }) => {
                assert_eq!(cloudlets, vec![CloudletId(1)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn accumulates_until_requirement_met() {
        let inst = instance(&[(10, 0.9), (10, 0.9), (10, 0.9)]);
        let mut g = OffsiteGreedy::new(&inst);
        // Requirement 0.98 needs more than one 0.9-reliability site.
        match g.decide(&request(0, 0.98, 1.0)) {
            Decision::Admit(Placement::OffSite { cloudlets }) => {
                assert!(cloudlets.len() >= 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_unreachable_requirement() {
        let inst = instance(&[(10, 0.5)]);
        let mut g = OffsiteGreedy::new(&inst);
        assert_eq!(g.decide(&request(0, 0.999, 100.0)), Decision::Reject);
    }

    #[test]
    fn exhausts_reliable_cloudlets_then_struggles() {
        // One highly reliable cloudlet, several poor ones. Greedy burns
        // the reliable one first; once full, high requirements need many
        // poor sites and admissions become harder.
        let inst = instance(&[(4, 0.999), (10, 0.8), (10, 0.8)]);
        let mut g = OffsiteGreedy::new(&inst);
        let reqs: Vec<Request> = (0..20).map(|i| request(i, 0.97, 1.0)).collect();
        let schedule = run_online(&mut g, &reqs).unwrap();
        assert!(schedule.admitted_count() < 20);
        assert_eq!(g.ledger().max_overflow(), 0.0);
    }

    #[test]
    fn never_violates_capacity() {
        let inst = instance(&[(3, 0.99), (3, 0.98)]);
        let mut g = OffsiteGreedy::new(&inst);
        let reqs: Vec<Request> = (0..30).map(|i| request(i, 0.9, 1.0)).collect();
        run_online(&mut g, &reqs).unwrap();
        assert_eq!(g.ledger().max_overflow(), 0.0);
    }

    /// A test-only off-site greedy: one instance on each cloudlet, in
    /// descending reliability order, whose window the ledger holds whole,
    /// with the closed-form coefficient, until the target is met; events
    /// into its own ring.
    struct Reference<'a> {
        instance: &'a ProblemInstance,
        order: Vec<CloudletId>,
        ledger: CapacityLedger,
        sink: mec_obs::RingSink,
    }

    /// What the reference's decisions went through, summed over streams.
    #[derive(Debug, Default)]
    struct Coverage {
        admits: usize,
        /// Admissions that skipped a cloudlet with no room at the arrival
        /// slot.
        admits_after_full_slot: usize,
        /// Rejects that had selected some cloudlets.
        partial_rejects: usize,
    }

    impl<'a> Reference<'a> {
        fn new(instance: &'a ProblemInstance) -> Self {
            let mut order: Vec<CloudletId> =
                instance.network().cloudlets().map(|c| c.id()).collect();
            let rc = |c: CloudletId| instance.cloudlet_reliability(c);
            order.sort_by(|&a, &b| rc(b).total_cmp(&rc(a)).then(a.cmp(&b)));
            Reference {
                instance,
                order,
                ledger: CapacityLedger::new(instance.network(), instance.horizon()),
                sink: mec_obs::RingSink::new(1 << 12),
            }
        }

        fn decide(&mut self, request: &Request, seen: &mut Coverage) -> Decision {
            use crate::reliability::offsite_ln_coefficient;
            let vnf = self.instance.catalog().get(request.vnf()).unwrap();
            let compute = vnf.compute() as f64;
            let ln_target = request.reliability_requirement().failure().ln();
            let (first, last) = (request.arrival(), request.end_slot());
            let (mut selected, mut ln_sum, mut full_slot) = (Vec::new(), 0.0, false);
            for &c in &self.order {
                if ln_sum <= ln_target + 1e-12 {
                    break;
                }
                if self.ledger.fits_window(c, first, last, compute) {
                    let rc = self.instance.network().cloudlet(c).unwrap().reliability();
                    ln_sum += offsite_ln_coefficient(vnf.reliability(), rc);
                    selected.push(c);
                } else {
                    full_slot |= !self.ledger.fits_window(c, first, first, compute);
                }
            }
            let (outcome, decision) = if ln_sum <= ln_target + 1e-12 {
                seen.admits += 1;
                seen.admits_after_full_slot += usize::from(full_slot);
                for &c in &selected {
                    self.ledger.charge_window(c, first, last, compute);
                }
                let sites = selected
                    .iter()
                    .map(|c| SitePlacement {
                        cloudlet: c.index(),
                        instances: 1,
                        dual_cost: 0.0,
                    })
                    .collect();
                let outcome = Outcome::Admit {
                    dual_cost: 0.0,
                    margin: request.payment(),
                    sites,
                };
                (
                    outcome,
                    Decision::Admit(Placement::OffSite {
                        cloudlets: selected,
                    }),
                )
            } else {
                seen.partial_rejects += usize::from(!selected.is_empty());
                let outcome = Outcome::Reject {
                    reason: RejectReason::ReliabilityInfeasible,
                    dual_cost: None,
                    margin: None,
                };
                (outcome, Decision::Reject)
            };
            self.sink.record_decision(
                request.id().index(),
                "greedy-offsite",
                "offsite",
                request.arrival(),
                request.payment(),
                outcome,
            );
            decision
        }
    }

    /// Runs a random stream through the greedy baseline and the
    /// [`Reference`] in lockstep on small cloudlets, some loaded full at
    /// arrival slots beforehand, with reliability twins. Decisions,
    /// `used` bits and trace events must agree after every request.
    fn matches_the_reference(seed: u64, seen: &mut Coverage) {
        const T: usize = 10;
        let inst = instance(&[
            (4, 0.99),
            (6, 0.999),
            (3, 0.9999),
            (6, 0.999),
            (5, 0.97),
            (2, 0.995),
        ]);
        let mut alg = OffsiteGreedy::with_sink(&inst, mec_obs::RingSink::new(1 << 12));
        let mut reference = Reference::new(&inst);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..6 {
            let c = CloudletId((next() % 6) as usize);
            let first = (next() % T as u64) as usize;
            let last = first + (next() % (T - first) as u64) as usize;
            let amount = alg.ledger().capacity(c) - (next() % 2) as f64;
            alg.ledger_mut().charge_window(c, first, last, amount);
            reference.ledger.charge_window(c, first, last, amount);
        }
        for id in 0..60 {
            let first = (next() % T as u64) as usize;
            let duration = 1 + (next() % (T - first).min(4) as u64) as usize;
            let r = Request::new(
                RequestId(id),
                VnfTypeId((next() % 10) as usize),
                rel([0.9, 0.99, 0.999, 0.99999, 0.9999999][(next() % 5) as usize]),
                first,
                duration,
                (1 + next() % 40) as f64 / 4.0,
                Horizon::new(T),
            )
            .unwrap();
            let at = format!("seed {seed}, request {id}");
            assert_eq!(alg.decide(&r), reference.decide(&r, seen), "{at}");
            let bits = |grid: &[f64]| grid.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(alg.ledger().used_grid()),
                bits(reference.ledger.used_grid()),
                "{at}"
            );
            assert_eq!(
                alg.sink.events().last(),
                reference.sink.events().last(),
                "{at}"
            );
        }
        assert_eq!(alg.sink.total_recorded(), reference.sink.total_recorded());
    }

    #[test]
    fn reference_streams_reach_every_outcome() {
        let mut seen = Coverage::default();
        for seed in 0..64 {
            matches_the_reference(seed * 0x9E37_79B9 + 1, &mut seen);
        }
        assert!(seen.admits > 100, "{seen:?}");
        assert!(seen.admits_after_full_slot > 100, "{seen:?}");
        assert!(seen.partial_rejects > 100, "{seen:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The baseline — arrival slot asked first — decides, charges and
        /// traces what the closed-form first fit does.
        #[test]
        fn lockstep_with_the_closed_form_first_fit(seed in 0u64..u64::MAX) {
            matches_the_reference(seed, &mut Coverage::default());
        }
    }
}
