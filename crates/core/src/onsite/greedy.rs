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
/// window. Payments are ignored entirely — which is exactly why the
/// baseline underperforms once resources become scarce.
#[derive(Debug)]
pub struct OnsiteGreedy<'a, S: TraceSink = NoopSink> {
    instance: &'a ProblemInstance,
    /// Cloudlet ids sorted by reliability, most reliable first.
    order: Vec<CloudletId>,
    ledger: CapacityLedger,
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
        let mut any_eligible = false;
        let mut admitted: Option<(CloudletId, u32)> = None;
        for &cid in &self.order {
            let Some(n) = self.instance.onsite_instances_for(
                request.vnf(),
                cid,
                request.reliability_requirement(),
            ) else {
                // Sorted descending: once one cloudlet is too unreliable,
                // all later ones are as well.
                break;
            };
            any_eligible = true;
            let weight = f64::from(n) * compute;
            if self.ledger.fits_window(cid, first, last, weight) {
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
}
