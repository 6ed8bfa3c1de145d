//! Independent verification of a finished [`Schedule`] against the
//! problem's constraints — defense in depth for every scheduler: the
//! validator recomputes capacity usage and achieved reliability from
//! scratch, on a ledger of its own that no scheduler has touched, and
//! sweeps it up to a bound of its own — the furthest end slot among the
//! placements *it* charged — not up to any mark a ledger keeps.

use std::fmt;

use mec_workload::{Request, RequestId};

use crate::error::VnfrelError;
use crate::instance::{ProblemInstance, Scheme};
use crate::ledger::CapacityLedger;
use crate::reliability::{offsite_availability, onsite_availability};
use crate::schedule::{Placement, Schedule};

/// A single constraint violation found by the validator.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// An admitted request's achieved availability is below `R_i`.
    Reliability {
        /// The offending request.
        request: RequestId,
        /// Availability achieved by the recorded placement.
        achieved: f64,
        /// The request's requirement `R_i`.
        required: f64,
    },
    /// A (cloudlet, slot) pair is loaded beyond its capacity.
    Capacity {
        /// Cloudlet index.
        cloudlet: usize,
        /// Time slot.
        slot: usize,
        /// Committed load in computing units.
        used: f64,
        /// The cloudlet's capacity.
        capacity: f64,
    },
    /// A placement's shape contradicts the scheme (e.g. duplicate
    /// cloudlets in an off-site placement, or a placement kind that does
    /// not match the scheme being validated).
    Malformed {
        /// The offending request.
        request: RequestId,
        /// What is wrong.
        reason: &'static str,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Reliability {
                request,
                achieved,
                required,
            } => write!(
                f,
                "request {request}: achieved availability {achieved:.6} < required {required:.6}"
            ),
            Violation::Capacity {
                cloudlet,
                slot,
                used,
                capacity,
            } => write!(
                f,
                "cloudlet c{cloudlet} slot {slot}: load {used:.2} exceeds capacity {capacity:.2}"
            ),
            Violation::Malformed { request, reason } => {
                write!(f, "request {request}: malformed placement ({reason})")
            }
        }
    }
}

/// Validation report for a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// All violations found (empty = fully feasible).
    pub violations: Vec<Violation>,
    /// Revenue recomputed from the placements (cross-check against
    /// [`Schedule::revenue`]).
    pub recomputed_revenue: f64,
    /// Worst relative capacity overflow, 0.0 when none.
    pub max_overflow: f64,
}

impl ValidationReport {
    /// Whether the schedule satisfies every constraint.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of a reliability requirement only.
    pub fn reliability_violations(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| matches!(v, Violation::Reliability { .. }))
            .count()
    }

    /// Capacity violations only.
    pub fn capacity_violations(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| matches!(v, Violation::Capacity { .. }))
            .count()
    }
}

/// Validates `schedule` against the instance, workload, and scheme.
///
/// # Errors
///
/// Returns [`VnfrelError::InvalidParameter`] when the schedule does not
/// cover exactly the given requests, [`VnfrelError::Workload`] when an
/// admitted request names an unknown VNF type or its window leaves the
/// instance's horizon (the errors [`ProblemInstance::check_requests`]
/// returns for the same stream).
pub fn validate_schedule(
    instance: &ProblemInstance,
    requests: &[Request],
    schedule: &Schedule,
    scheme: Scheme,
) -> Result<ValidationReport, VnfrelError> {
    if schedule.len() != requests.len() {
        return Err(VnfrelError::InvalidParameter(
            "schedule length differs from request count",
        ));
    }
    let network = instance.network();
    let mut violations = Vec::new();
    let mut ledger = CapacityLedger::new(network, instance.horizon());
    // One past the furthest slot charged below: the capacity sweep's bound.
    let mut charged_end = 0;
    let mut revenue = 0.0;

    for r in requests {
        let Some(placement) = schedule.placement(r.id()) else {
            continue;
        };
        revenue += r.payment();
        let vnf = instance.catalog().require(r.vnf())?;
        instance.check_window(r)?;
        let required = r.reliability_requirement().value();
        let mut malformed = |reason| {
            violations.push(Violation::Malformed {
                request: r.id(),
                reason,
            });
        };
        let achieved = match (scheme, placement) {
            (
                Scheme::OnSite,
                Placement::OnSite {
                    cloudlet,
                    instances,
                },
            ) => {
                let Some(c) = network.cloudlet(*cloudlet) else {
                    malformed("unknown cloudlet");
                    continue;
                };
                if *instances == 0 {
                    malformed("zero instances");
                    continue;
                }
                ledger.charge_window(
                    c.id(),
                    r.arrival(),
                    r.end_slot(),
                    f64::from(*instances) * vnf.compute() as f64,
                );
                onsite_availability(vnf.reliability(), c.reliability(), *instances)
            }
            (Scheme::OffSite, Placement::OffSite { cloudlets }) => {
                if cloudlets.is_empty() {
                    malformed("empty cloudlet set");
                    continue;
                }
                // Placements hold a handful of cloudlets: pairwise
                // comparison needs no sorted copy.
                if (1..cloudlets.len()).any(|i| cloudlets[..i].contains(&cloudlets[i])) {
                    malformed("duplicate cloudlet (off-site allows one instance per cloudlet)");
                    continue;
                }
                if cloudlets.iter().any(|&cid| network.cloudlet(cid).is_none()) {
                    malformed("unknown cloudlet");
                    continue;
                }
                for &cid in cloudlets {
                    ledger.charge_window(cid, r.arrival(), r.end_slot(), vnf.compute() as f64);
                }
                offsite_availability(
                    vnf.reliability(),
                    cloudlets.iter().map(|&cid| {
                        let c = network.cloudlet(cid).expect("every cloudlet checked above");
                        c.reliability()
                    }),
                )
            }
            _ => {
                malformed("placement kind does not match the scheme");
                continue;
            }
        };
        charged_end = charged_end.max(r.end_slot() + 1);
        if achieved + 1e-9 < required {
            violations.push(Violation::Reliability {
                request: r.id(),
                achieved,
                required,
            });
        }
    }

    // Capacity sweep over the slots charged above; the rest of the
    // ledger was never written.
    let mut worst: f64 = 0.0;
    for cloudlet in network.cloudlets() {
        let cap = cloudlet.capacity() as f64;
        for t in 0..charged_end {
            let used = ledger.used(cloudlet.id(), t);
            worst = worst.max(used / cap - 1.0);
            if used > cap + 1e-9 {
                violations.push(Violation::Capacity {
                    cloudlet: cloudlet.id().index(),
                    slot: t,
                    used,
                    capacity: cap,
                });
            }
        }
        debug_assert!(
            (charged_end..instance.horizon().len()).all(|t| ledger.used(cloudlet.id(), t) == 0.0)
        );
    }

    Ok(ValidationReport {
        violations,
        recomputed_revenue: revenue,
        max_overflow: worst.max(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Decision;
    use mec_topology::{CloudletId, NetworkBuilder, Reliability};
    use mec_workload::{Horizon, VnfCatalog, VnfTypeId};

    fn rel(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    fn instance() -> ProblemInstance {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let c = b.add_ap("b");
        b.add_link(a, c, 1.0).unwrap();
        b.add_cloudlet(a, 4, rel(0.999)).unwrap();
        b.add_cloudlet(c, 4, rel(0.95)).unwrap();
        ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(6)).unwrap()
    }

    fn request(id: usize, req: f64) -> Request {
        Request::new(
            RequestId(id),
            VnfTypeId(1), // NAT: compute 1, r = 0.99
            rel(req),
            0,
            2,
            3.0,
            Horizon::new(6),
        )
        .unwrap()
    }

    #[test]
    fn feasible_onsite_schedule_passes() {
        let inst = instance();
        let reqs = vec![request(0, 0.9)];
        let mut s = Schedule::new();
        s.record(
            &reqs[0],
            Decision::Admit(Placement::OnSite {
                cloudlet: CloudletId(0),
                instances: 2,
            }),
        );
        let rep = validate_schedule(&inst, &reqs, &s, Scheme::OnSite).unwrap();
        assert!(rep.is_feasible(), "{:?}", rep.violations);
        assert_eq!(rep.recomputed_revenue, 3.0);
        assert_eq!(rep.max_overflow, 0.0);
    }

    #[test]
    fn detects_reliability_shortfall() {
        let inst = instance();
        // One NAT instance at cloudlet 1 (0.95): availability 0.9405 <
        // 0.97.
        let reqs = vec![request(0, 0.97)];
        let mut s = Schedule::new();
        s.record(
            &reqs[0],
            Decision::Admit(Placement::OnSite {
                cloudlet: CloudletId(1),
                instances: 1,
            }),
        );
        let rep = validate_schedule(&inst, &reqs, &s, Scheme::OnSite).unwrap();
        assert_eq!(rep.reliability_violations(), 1);
    }

    #[test]
    fn detects_capacity_overflow() {
        let inst = instance();
        let reqs: Vec<Request> = (0..3).map(|i| request(i, 0.9)).collect();
        let mut s = Schedule::new();
        for r in &reqs {
            // 3 requests × 2 instances × 1 unit = 6 > cap 4.
            s.record(
                r,
                Decision::Admit(Placement::OnSite {
                    cloudlet: CloudletId(0),
                    instances: 2,
                }),
            );
        }
        let rep = validate_schedule(&inst, &reqs, &s, Scheme::OnSite).unwrap();
        assert!(rep.capacity_violations() > 0);
        assert!(rep.max_overflow > 0.0);
    }

    #[test]
    fn detects_scheme_mismatch_and_duplicates() {
        let inst = instance();
        let reqs = vec![request(0, 0.9), request(1, 0.9)];
        let mut s = Schedule::new();
        s.record(
            &reqs[0],
            Decision::Admit(Placement::OnSite {
                cloudlet: CloudletId(0),
                instances: 1,
            }),
        );
        s.record(
            &reqs[1],
            Decision::Admit(Placement::OffSite {
                cloudlets: vec![CloudletId(0), CloudletId(0)],
            }),
        );
        let rep = validate_schedule(&inst, &reqs, &s, Scheme::OffSite).unwrap();
        // Request 0 has the wrong kind; request 1 has duplicates.
        assert_eq!(rep.violations.len(), 2);
        assert!(rep
            .violations
            .iter()
            .all(|v| matches!(v, Violation::Malformed { .. })));
    }

    fn malformed_reasons(rep: &ValidationReport) -> Vec<&'static str> {
        rep.violations
            .iter()
            .map(|v| match v {
                Violation::Malformed { reason, .. } => *reason,
                other => panic!("expected a malformed placement, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn offsite_duplicates_and_unknown_cloudlets_keep_their_reasons() {
        let inst = instance();
        let reqs: Vec<Request> = (0..4).map(|i| request(i, 0.9)).collect();
        let offsite = |cloudlets: &[usize]| {
            Decision::Admit(Placement::OffSite {
                cloudlets: cloudlets.iter().map(|&j| CloudletId(j)).collect(),
            })
        };
        let mut s = Schedule::new();
        s.record(&reqs[0], offsite(&[1, 0, 1]));
        s.record(&reqs[1], offsite(&[0, 7]));
        // Duplicates are looked for first, among unknown ids too.
        s.record(&reqs[2], offsite(&[7, 7]));
        s.record(&reqs[3], offsite(&[]));
        let rep = validate_schedule(&inst, &reqs, &s, Scheme::OffSite).unwrap();
        assert_eq!(
            malformed_reasons(&rep),
            [
                "duplicate cloudlet (off-site allows one instance per cloudlet)",
                "unknown cloudlet",
                "duplicate cloudlet (off-site allows one instance per cloudlet)",
                "empty cloudlet set",
            ]
        );
        // A malformed placement is counted but never charged.
        assert_eq!(rep.recomputed_revenue, 12.0);
        assert_eq!(rep.max_overflow, 0.0);
    }

    /// A request of `instances` NAT instances (one unit each) on
    /// cloudlet 0 over `[arrival, arrival + duration)`.
    fn onsite_at(
        s: &mut Schedule,
        reqs: &mut Vec<Request>,
        arrival: usize,
        duration: usize,
        instances: u32,
    ) {
        let r = Request::new(
            RequestId(reqs.len()),
            VnfTypeId(1),
            rel(0.9),
            arrival,
            duration,
            3.0,
            Horizon::new(6),
        )
        .unwrap();
        s.record(
            &r,
            Decision::Admit(Placement::OnSite {
                cloudlet: CloudletId(0),
                instances,
            }),
        );
        reqs.push(r);
    }

    #[test]
    fn a_violation_in_the_last_slot_of_the_horizon_is_reported() {
        let inst = instance();
        let (mut s, mut reqs) = (Schedule::new(), Vec::new());
        onsite_at(&mut s, &mut reqs, 0, 6, 3);
        onsite_at(&mut s, &mut reqs, 5, 1, 2); // 5 > cap 4 in slot 5 only
        let rep = validate_schedule(&inst, &reqs, &s, Scheme::OnSite).unwrap();
        assert_eq!(
            rep.violations,
            [Violation::Capacity {
                cloudlet: 0,
                slot: 5,
                used: 5.0,
                capacity: 4.0,
            }]
        );
        assert_eq!(rep.max_overflow, 0.25);
    }

    #[test]
    fn a_violation_in_the_furthest_charged_slot_is_reported() {
        let inst = instance();
        let (mut s, mut reqs) = (Schedule::new(), Vec::new());
        // The request reaching furthest is not the last one recorded.
        onsite_at(&mut s, &mut reqs, 1, 3, 6); // slots 1..=3, 6 > cap 4
        onsite_at(&mut s, &mut reqs, 2, 1, 1);
        let rep = validate_schedule(&inst, &reqs, &s, Scheme::OnSite).unwrap();
        let slots: Vec<usize> = rep
            .violations
            .iter()
            .map(|v| match v {
                Violation::Capacity {
                    cloudlet: 0, slot, ..
                } => *slot,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(slots, [1, 2, 3]);
        assert_eq!(rep.max_overflow, 0.75);
    }

    #[test]
    fn a_window_outside_the_instance_horizon_is_a_typed_error() {
        // Two cloudlets of capacity 4 and 1 over four slots; the request
        // was built against a longer horizon. Charged unchecked, its
        // slots 4..=6 would land in cloudlet 1's row as slots 0..=2.
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let c = b.add_ap("b");
        b.add_link(a, c, 1.0).unwrap();
        b.add_cloudlet(a, 4, rel(0.999)).unwrap();
        b.add_cloudlet(c, 1, rel(0.95)).unwrap();
        let inst =
            ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(4))
                .unwrap();
        let long = Request::new(
            RequestId(0),
            VnfTypeId(1),
            rel(0.9),
            2,
            5,
            3.0,
            Horizon::new(8),
        )
        .unwrap();
        let reqs = [long];
        let expected = inst.check_requests(&reqs).unwrap_err();
        assert!(matches!(
            expected,
            VnfrelError::Workload(mec_workload::WorkloadError::WindowOutsideHorizon {
                arrival: 2,
                duration: 5,
                horizon: 4,
            })
        ));
        for cloudlet in [CloudletId(0), CloudletId(1)] {
            let mut s = Schedule::new();
            s.record(
                &reqs[0],
                Decision::Admit(Placement::OnSite {
                    cloudlet,
                    instances: 2,
                }),
            );
            let err = validate_schedule(&inst, &reqs, &s, Scheme::OnSite).unwrap_err();
            assert_eq!(err, expected);
        }
        // A rejected request is not looked at, as before.
        let mut s = Schedule::new();
        s.record(&reqs[0], Decision::Reject);
        assert!(validate_schedule(&inst, &reqs, &s, Scheme::OnSite)
            .unwrap()
            .is_feasible());
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let inst = instance();
        let reqs = vec![request(0, 0.9)];
        let s = Schedule::new();
        assert!(validate_schedule(&inst, &reqs, &s, Scheme::OnSite).is_err());
    }

    #[test]
    fn violation_display() {
        let v = Violation::Reliability {
            request: RequestId(3),
            achieved: 0.9,
            required: 0.95,
        };
        assert!(v.to_string().contains("ρ3"));
        let v = Violation::Capacity {
            cloudlet: 1,
            slot: 4,
            used: 6.0,
            capacity: 4.0,
        };
        assert!(v.to_string().contains("c1"));
        let v = Violation::Malformed {
            request: RequestId(0),
            reason: "x",
        };
        assert!(!v.to_string().is_empty());
    }
}
