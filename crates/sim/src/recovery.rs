//! Online recovery policies: re-placement of requests whose placement
//! was destroyed by dynamic faults.
//!
//! When [`Simulation::run_faulted`](crate::Simulation::run_faulted)
//! detects that a request's surviving placement no longer meets its
//! requirement `R_i`, the dead capacity has already been
//! [released](vnfrel::CapacityLedger::release); the request is then
//! handed to a [`RecoveryPolicy`] that may try to re-place it on the
//! surviving cloudlets for the *remaining* slots of its window, charging
//! the scheduler's ledger like a fresh admission.

use mec_topology::{CloudletId, Reliability};
use mec_workload::{Request, TimeSlot};
use vnfrel::reliability::{offsite_ln_coefficient, onsite_instances};
use vnfrel::{CapacityLedger, Placement, ProblemInstance, Scheme};

/// What to do with a request whose placement died mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// No recovery: the request stays down for the rest of its window.
    /// The baseline every other policy is compared against.
    #[default]
    None,
    /// Re-admit with an on-site placement (all replicas in one surviving
    /// cloudlet, Eq. 3 replica count).
    OnSite,
    /// Re-admit with an off-site placement (one instance per cloudlet
    /// across surviving cloudlets, Eq. 10 availability).
    OffSite,
    /// Re-admit using the same scheme the running scheduler uses.
    SchemeMatching,
}

impl RecoveryPolicy {
    /// The backup scheme recovery placements use, `None` when recovery
    /// is disabled.
    pub fn scheme_for(self, scheduler_scheme: Scheme) -> Option<Scheme> {
        match self {
            RecoveryPolicy::None => None,
            RecoveryPolicy::OnSite => Some(Scheme::OnSite),
            RecoveryPolicy::OffSite => Some(Scheme::OffSite),
            RecoveryPolicy::SchemeMatching => Some(scheduler_scheme),
        }
    }
}

impl std::fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryPolicy::None => "none",
            RecoveryPolicy::OnSite => "re-admit-on-site",
            RecoveryPolicy::OffSite => "re-admit-off-site",
            RecoveryPolicy::SchemeMatching => "scheme-matching",
        })
    }
}

/// Attempts a recovery placement for `request` on the cloudlets marked
/// up, covering slots `from_slot..=end`, meeting the full requirement
/// `R_i`. On success the placement is charged to `ledger` and returned.
pub(crate) fn try_replace(
    instance: &ProblemInstance,
    ledger: &mut CapacityLedger,
    request: &Request,
    from_slot: TimeSlot,
    up: &[bool],
    scheme: Scheme,
) -> Option<Placement> {
    let vnf = instance.catalog().get(request.vnf())?;
    let compute = vnf.compute() as f64;
    let window = from_slot..=request.end_slot();
    match scheme {
        Scheme::OnSite => {
            // Cheapest surviving cloudlet (fewest consumed units); ties
            // break toward the lowest id for determinism.
            let mut best: Option<(CloudletId, u32, f64)> = None;
            for cloudlet in instance.network().cloudlets() {
                if !up[cloudlet.id().index()] {
                    continue;
                }
                let Some(n) = onsite_instances(
                    vnf.reliability(),
                    cloudlet.reliability(),
                    request.reliability_requirement(),
                ) else {
                    continue;
                };
                let weight = f64::from(n) * compute;
                if !ledger.fits(cloudlet.id(), window.clone(), weight) {
                    continue;
                }
                if best.is_none_or(|(_, _, w)| weight < w) {
                    best = Some((cloudlet.id(), n, weight));
                }
            }
            let (cid, n, weight) = best?;
            ledger.charge(cid, window, weight);
            Some(Placement::OnSite {
                cloudlet: cid,
                instances: n,
            })
        }
        Scheme::OffSite => {
            // Most reliable surviving cloudlets first, accumulated in
            // log-space until R_i is met (the greedy order Algorithm 2's
            // pricing also prefers); ties break toward the lowest id.
            let mut candidates: Vec<(Reliability, CloudletId)> = instance
                .network()
                .cloudlets()
                .filter(|c| up[c.id().index()])
                .filter(|c| ledger.fits(c.id(), window.clone(), compute))
                .map(|c| (c.reliability(), c.id()))
                .collect();
            candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.index().cmp(&b.1.index())));
            let ln_target = request.reliability_requirement().failure().ln();
            let mut selected = Vec::new();
            let mut ln_sum = 0.0;
            for (rel, cid) in candidates {
                ln_sum += offsite_ln_coefficient(vnf.reliability(), rel);
                selected.push(cid);
                if ln_sum <= ln_target + 1e-12 {
                    break;
                }
            }
            if ln_sum > ln_target + 1e-12 || selected.is_empty() {
                return None;
            }
            for &cid in &selected {
                ledger.charge(cid, window.clone(), compute);
            }
            Some(Placement::OffSite {
                cloudlets: selected,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::NetworkBuilder;
    use mec_workload::{Horizon, RequestId, VnfCatalog, VnfTypeId};

    fn instance() -> ProblemInstance {
        let mut b = NetworkBuilder::new();
        let mut prev = None;
        for (i, r) in [0.999, 0.995, 0.99].iter().enumerate() {
            let ap = b.add_ap(format!("ap{i}"));
            if let Some(p) = prev {
                b.add_link(p, ap, 1.0).unwrap();
            }
            prev = Some(ap);
            b.add_cloudlet(ap, 20, Reliability::new(*r).unwrap())
                .unwrap();
        }
        ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(8)).unwrap()
    }

    fn request() -> Request {
        Request::new(
            RequestId(0),
            VnfTypeId(1),
            Reliability::new(0.9).unwrap(),
            0,
            6,
            5.0,
            Horizon::new(8),
        )
        .unwrap()
    }

    #[test]
    fn policy_scheme_resolution() {
        assert_eq!(RecoveryPolicy::None.scheme_for(Scheme::OnSite), None);
        assert_eq!(
            RecoveryPolicy::OnSite.scheme_for(Scheme::OffSite),
            Some(Scheme::OnSite)
        );
        assert_eq!(
            RecoveryPolicy::OffSite.scheme_for(Scheme::OnSite),
            Some(Scheme::OffSite)
        );
        assert_eq!(
            RecoveryPolicy::SchemeMatching.scheme_for(Scheme::OffSite),
            Some(Scheme::OffSite)
        );
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::None);
        assert_eq!(
            RecoveryPolicy::SchemeMatching.to_string(),
            "scheme-matching"
        );
    }

    #[test]
    fn onsite_replace_skips_down_cloudlets_and_charges() {
        let inst = instance();
        let mut ledger = CapacityLedger::new(inst.network(), inst.horizon());
        let r = request();
        // Cloudlet 0 (most reliable, cheapest) is down: placement must
        // land elsewhere.
        let up = [false, true, true];
        let p = try_replace(&inst, &mut ledger, &r, 2, &up, Scheme::OnSite).unwrap();
        let Placement::OnSite { cloudlet, .. } = &p else {
            panic!("expected on-site placement");
        };
        assert_ne!(cloudlet.index(), 0);
        // Only the remaining window (2..=5) was charged.
        assert_eq!(ledger.used(*cloudlet, 0), 0.0);
        assert!(ledger.used(*cloudlet, 2) > 0.0);
        assert!(ledger.used(*cloudlet, 5) > 0.0);
        assert_eq!(ledger.used(*cloudlet, 6), 0.0);
    }

    #[test]
    fn offsite_replace_meets_requirement_on_survivors() {
        use vnfrel::reliability::offsite_meets_requirement;
        let inst = instance();
        let mut ledger = CapacityLedger::new(inst.network(), inst.horizon());
        let r = request();
        let up = [true, false, true];
        let p = try_replace(&inst, &mut ledger, &r, 1, &up, Scheme::OffSite).unwrap();
        let Placement::OffSite { cloudlets } = &p else {
            panic!("expected off-site placement");
        };
        assert!(cloudlets.iter().all(|c| c.index() != 1));
        let vnf = inst.catalog().get(r.vnf()).unwrap();
        let rels = cloudlets
            .iter()
            .map(|&c| inst.network().cloudlet(c).unwrap().reliability());
        assert!(offsite_meets_requirement(
            vnf.reliability(),
            rels,
            r.reliability_requirement()
        ));
    }

    #[test]
    fn replace_fails_when_everything_is_down() {
        let inst = instance();
        let mut ledger = CapacityLedger::new(inst.network(), inst.horizon());
        let r = request();
        let up = [false, false, false];
        assert!(try_replace(&inst, &mut ledger, &r, 0, &up, Scheme::OnSite).is_none());
        assert!(try_replace(&inst, &mut ledger, &r, 0, &up, Scheme::OffSite).is_none());
        // Failed attempts must not charge anything.
        for j in 0..3 {
            for t in 0..8 {
                assert_eq!(ledger.used(CloudletId(j), t), 0.0);
            }
        }
    }

    #[test]
    fn replace_fails_without_capacity() {
        let inst = instance();
        let mut ledger = CapacityLedger::new(inst.network(), inst.horizon());
        // Saturate every cloudlet over the whole horizon.
        for c in inst.network().cloudlets() {
            let cap = ledger.capacity(c.id());
            ledger.charge(c.id(), 0..8, cap);
        }
        let r = request();
        let up = [true, true, true];
        assert!(try_replace(&inst, &mut ledger, &r, 0, &up, Scheme::OnSite).is_none());
        assert!(try_replace(&inst, &mut ledger, &r, 0, &up, Scheme::OffSite).is_none());
    }
}
