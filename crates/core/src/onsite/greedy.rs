use mec_obs::{NoopSink, Outcome, RejectReason, SitePlacement, TraceSink};
use mec_topology::CloudletId;
use mec_workload::Request;

use crate::instance::{ProblemInstance, Scheme};
use crate::ledger::CapacityLedger;
use crate::schedule::{Decision, Placement};
use crate::scheduler::OnlineScheduler;

/// The evaluation's greedy baseline under the on-site scheme.
///
/// "Always tries to admit all coming requests by preferring to place VNF
/// instances in cloudlets with high reliabilities" (Section VI-A): the
/// cloudlets are scanned in decreasing reliability order and the request
/// is placed in the first one that is reliable enough (`r(c_j) > R_i`) and
/// has residual capacity for all `N_ij` instances across the request's
/// window (asked of the arrival slot first, then of the whole window). Payments are ignored entirely — which is exactly why the
/// baseline underperforms once resources become scarce.
#[derive(Debug)]
pub struct OnsiteGreedy<'a, S: TraceSink = NoopSink> {
    instance: &'a ProblemInstance,
    /// Cloudlet ids sorted by reliability, most reliable first.
    order: Vec<CloudletId>,
    ledger: CapacityLedger,
    /// Scratch: `N_ij` per cloudlet for the current request, 0 where
    /// `r(c_j) ≤ R_i`.
    n_for: Vec<u32>,
    /// Decision-event consumer; `NoopSink` (the default) compiles the
    /// instrumentation away entirely.
    sink: S,
}

impl<'a> OnsiteGreedy<'a, NoopSink> {
    /// Creates the greedy scheduler with tracing disabled.
    pub fn new(instance: &'a ProblemInstance) -> Self {
        Self::with_sink(instance, NoopSink)
    }
}

impl<'a, S: TraceSink> OnsiteGreedy<'a, S> {
    /// Like [`OnsiteGreedy::new`] but records one
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
        OnsiteGreedy {
            instance,
            n_for: vec![0; order.len()],
            order,
            ledger: CapacityLedger::new(instance.network(), instance.horizon()),
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
            "greedy-onsite",
            "onsite",
            request.arrival(),
            request.payment(),
            outcome,
        );
    }
}

impl<S: TraceSink> OnlineScheduler for OnsiteGreedy<'_, S> {
    fn name(&self) -> &'static str {
        "greedy-onsite"
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
        let first = request.arrival();
        let last = first + request.duration() - 1;
        self.instance.onsite_instances_row(
            request.vnf(),
            request.reliability_requirement(),
            &mut self.n_for,
        );
        let mut any_eligible = false;
        let mut admitted: Option<(CloudletId, u32)> = None;
        for &cid in &self.order {
            let n = self.n_for[cid.index()];
            if n == 0 {
                // Too unreliable (r(c_j) ≤ R_i). Sorted descending: once
                // one cloudlet is, all later ones are as well.
                break;
            }
            any_eligible = true;
            let weight = f64::from(n) * compute;
            if self.ledger.fits_slot(cid, first, weight)
                && self.ledger.fits_window(cid, first, last, weight)
            {
                self.ledger.charge_window(cid, first, last, weight);
                admitted = Some((cid, n));
                break;
            }
        }
        match admitted {
            Some((cid, n)) => {
                if S::ENABLED {
                    self.emit(
                        request,
                        Outcome::Admit {
                            // Greedy is payment- and price-oblivious.
                            dual_cost: 0.0,
                            margin: request.payment(),
                            sites: vec![SitePlacement {
                                cloudlet: cid.index(),
                                instances: n,
                                dual_cost: 0.0,
                            }],
                        },
                    );
                }
                Decision::Admit(Placement::OnSite {
                    cloudlet: cid,
                    instances: n,
                })
            }
            None => {
                if S::ENABLED {
                    let reason = if any_eligible {
                        // Reliable-enough cloudlets existed but none had
                        // residual capacity for the whole window.
                        RejectReason::CapacityGate
                    } else {
                        RejectReason::ReliabilityInfeasible
                    };
                    self.emit(
                        request,
                        Outcome::Reject {
                            reason,
                            dual_cost: None,
                            margin: None,
                        },
                    );
                }
                Decision::Reject
            }
        }
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

    fn request(id: usize, pay: f64) -> Request {
        Request::new(
            RequestId(id),
            VnfTypeId(1), // NAT, compute 1, r = 0.99
            rel(0.9),
            0,
            2,
            pay,
            Horizon::new(10),
        )
        .unwrap()
    }

    #[test]
    fn prefers_most_reliable_cloudlet() {
        // Cloudlet 1 is more reliable, so greedy goes there first.
        let inst = instance(&[(100, 0.99), (100, 0.999)]);
        let mut g = OnsiteGreedy::new(&inst);
        match g.decide(&request(0, 1.0)) {
            Decision::Admit(Placement::OnSite { cloudlet, .. }) => {
                assert_eq!(cloudlet, CloudletId(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn falls_back_when_reliable_cloudlet_full() {
        let inst = instance(&[(100, 0.99), (2, 0.999)]);
        let mut g = OnsiteGreedy::new(&inst);
        // VNF NAT (c=1); vnf r=0.99, cloudlet 0.999, req 0.9 → N=1 or 2.
        // Fill the small reliable cloudlet, then spill to the big one.
        let mut seen_fallback = false;
        for i in 0..6 {
            if let Decision::Admit(Placement::OnSite { cloudlet, .. }) = g.decide(&request(i, 1.0))
            {
                if cloudlet == CloudletId(0) {
                    seen_fallback = true;
                }
            }
        }
        assert!(
            seen_fallback,
            "expected spill to the less reliable cloudlet"
        );
    }

    #[test]
    fn admits_regardless_of_payment() {
        // Greedy ignores payments: a tiny payment is admitted as readily
        // as a huge one.
        let inst = instance(&[(100, 0.999)]);
        let mut g = OnsiteGreedy::new(&inst);
        assert!(g.decide(&request(0, 0.001)).is_admit());
        assert!(g.decide(&request(1, 1e9)).is_admit());
    }

    #[test]
    fn rejects_when_requirement_unreachable() {
        let inst = instance(&[(100, 0.93)]);
        let mut g = OnsiteGreedy::new(&inst);
        let r = Request::new(
            RequestId(0),
            VnfTypeId(1),
            rel(0.95),
            0,
            1,
            5.0,
            Horizon::new(10),
        )
        .unwrap();
        assert_eq!(g.decide(&r), Decision::Reject);
    }

    #[test]
    fn never_violates_capacity() {
        let inst = instance(&[(3, 0.999), (3, 0.99)]);
        let mut g = OnsiteGreedy::new(&inst);
        let reqs: Vec<Request> = (0..40).map(|i| request(i, 2.0)).collect();
        let schedule = run_online(&mut g, &reqs).unwrap();
        assert_eq!(g.ledger().max_overflow(), 0.0);
        assert!(schedule.admitted_count() < 40, "capacity must bind");
        assert!(schedule.admitted_count() > 0);
    }

    /// A test-only on-site greedy: first fit over the cloudlets in
    /// descending reliability order, `N_ij` from the closed form, the
    /// window asked of the ledger whole, events into its own ring.
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
        /// Admissions after a reliable-enough cloudlet with no room at the
        /// arrival slot.
        admits_after_full_slot: usize,
        capacity_gate: usize,
        reliability_infeasible: usize,
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
            use crate::reliability::onsite_instances;
            let vnf = self.instance.catalog().get(request.vnf()).unwrap();
            let compute = vnf.compute() as f64;
            let (first, last) = (request.arrival(), request.end_slot());
            let mut eligible = false;
            let mut full_slot = false;
            let mut admitted = None;
            for &c in &self.order {
                let rc = self.instance.network().cloudlet(c).unwrap().reliability();
                let Some(n) =
                    onsite_instances(vnf.reliability(), rc, request.reliability_requirement())
                else {
                    continue;
                };
                eligible = true;
                let weight = f64::from(n) * compute;
                if self.ledger.fits_window(c, first, last, weight) {
                    self.ledger.charge_window(c, first, last, weight);
                    admitted = Some((c, n));
                    break;
                }
                full_slot |= !self.ledger.fits_window(c, first, first, weight);
            }
            let (outcome, decision) = match admitted {
                Some((c, n)) => {
                    seen.admits += 1;
                    seen.admits_after_full_slot += usize::from(full_slot);
                    let sites = vec![SitePlacement {
                        cloudlet: c.index(),
                        instances: n,
                        dual_cost: 0.0,
                    }];
                    (
                        Outcome::Admit {
                            dual_cost: 0.0,
                            margin: request.payment(),
                            sites,
                        },
                        Decision::Admit(Placement::OnSite {
                            cloudlet: c,
                            instances: n,
                        }),
                    )
                }
                None => {
                    let reason = if eligible {
                        seen.capacity_gate += 1;
                        RejectReason::CapacityGate
                    } else {
                        seen.reliability_infeasible += 1;
                        RejectReason::ReliabilityInfeasible
                    };
                    let outcome = Outcome::Reject {
                        reason,
                        dual_cost: None,
                        margin: None,
                    };
                    (outcome, Decision::Reject)
                }
            };
            self.sink.record_decision(
                request.id().index(),
                "greedy-onsite",
                "onsite",
                request.arrival(),
                request.payment(),
                outcome,
            );
            decision
        }
    }

    /// Runs a random stream through the greedy baseline and the
    /// [`Reference`] in lockstep on small cloudlets, some loaded full at
    /// arrival slots beforehand, with reliability twins and requirements
    /// between, above and exactly on the rungs of the cloudlets'
    /// availability tables. Decisions, `used` bits and trace events must
    /// agree after every request.
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
        let mut alg = OnsiteGreedy::with_sink(&inst, mec_obs::RingSink::new(1 << 12));
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
            let vnf = VnfTypeId((next() % 10) as usize);
            let requirement = match next() % 7 {
                6 => {
                    // Exactly on rung 1–3 of one of the cloudlets.
                    let c = inst.network().cloudlet(CloudletId((next() % 6) as usize));
                    let rf = inst.catalog().get(vnf).unwrap().reliability();
                    let n = 1 + (next() % 3) as u32;
                    crate::reliability::onsite_availability(rf, c.unwrap().reliability(), n)
                }
                k => [0.9, 0.96, 0.98, 0.993, 0.9995, 0.99995][k as usize],
            };
            let r = Request::new(
                RequestId(id),
                vnf,
                rel(requirement),
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
        assert!(seen.capacity_gate > 100, "{seen:?}");
        assert!(seen.reliability_infeasible > 100, "{seen:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The baseline — table `N_ij`, arrival slot asked first —
        /// decides, charges and traces what the closed-form first fit
        /// does.
        #[test]
        fn lockstep_with_the_closed_form_first_fit(seed in 0u64..u64::MAX) {
            matches_the_reference(seed, &mut Coverage::default());
        }
    }
}
