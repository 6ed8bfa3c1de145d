//! Runtime invariant auditor for fault-aware runs.
//!
//! When enabled via [`DegradationConfig::audit`](crate::DegradationConfig),
//! the engine re-verifies after every slot that its books still balance:
//!
//! 1. **Ledger non-negativity** — no `(cloudlet, slot)` cell of the
//!    capacity ledger went negative (a double release would).
//! 2. **Charge/release balance** — for every future slot, the ledger's
//!    committed usage equals the sum of the surviving placements' demand,
//!    so every charge has exactly one owner and every teardown released
//!    exactly what was charged.
//! 3. **Availability** — every retained request's surviving placement
//!    still satisfies its requirement `R_i` given the currently-up
//!    cloudlets, and no site rests on a down cloudlet.
//! 4. **Trace consistency** — the engine's up/down view of the fleet
//!    matches an independent replay of the failure trace (plus the
//!    cascade outages the engine reported).
//!
//! Violations are collected as typed [`AuditViolation`]s and surfaced as
//! [`TraceEvent::AuditViolation`](mec_obs::TraceEvent) — the run keeps
//! going; the auditor observes, it never panics.

use std::fmt;

use mec_topology::CloudletId;
use mec_workload::TimeSlot;
use vnfrel::{CapacityLedger, ProblemInstance};

use crate::engine::{surviving_availability, LiveReq};
use crate::fault::FailureEvent;

/// Absolute tolerance for ledger balance comparisons.
const BALANCE_TOL: f64 = 1e-6;
/// Tolerance for availability re-checks (matches the engine's own).
const AVAIL_TOL: f64 = 1e-9;

/// Which invariant an [`AuditViolation`] breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditInvariant {
    /// A ledger cell went negative: capacity was released twice.
    LedgerNonNegative,
    /// A future ledger cell disagrees with the sum of surviving
    /// placements: a charge or release went missing.
    LedgerBalance,
    /// A retained placement no longer meets its requirement `R_i`.
    Availability,
    /// A retained placement keeps a site on a down cloudlet.
    SiteLiveness,
    /// The engine's up/down state diverged from an independent replay of
    /// the failure trace.
    TraceConsistency,
}

impl AuditInvariant {
    /// Stable wire name (used in trace events and reports).
    pub fn as_str(self) -> &'static str {
        match self {
            AuditInvariant::LedgerNonNegative => "ledger-non-negative",
            AuditInvariant::LedgerBalance => "ledger-balance",
            AuditInvariant::Availability => "availability",
            AuditInvariant::SiteLiveness => "site-liveness",
            AuditInvariant::TraceConsistency => "trace-consistency",
        }
    }
}

impl fmt::Display for AuditInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Slot the violation was detected in.
    pub slot: TimeSlot,
    /// The breached invariant.
    pub invariant: AuditInvariant,
    /// Human-readable detail (cloudlet/request/cell involved).
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}: {}: {}", self.slot, self.invariant, self.detail)
    }
}

/// Outcome of running the auditor over a whole fault-aware run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// Slots the auditor examined.
    pub slots_checked: usize,
    /// Every violation observed, in detection order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// True when no invariant was ever breached.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "audit: {} slots checked, clean", self.slots_checked)
        } else {
            write!(
                f,
                "audit: {} slots checked, {} violations (first: {})",
                self.slots_checked,
                self.violations.len(),
                self.violations[0]
            )
        }
    }
}

/// Slot-stepped invariant checker; owned by the engine during a run.
pub(crate) struct Auditor {
    /// Independent replay of the base (non-cascade) trace.
    base_up: Vec<bool>,
    /// Cascade outages the engine reported: `Some(end)` while forced down.
    cascade_until: Vec<Option<TimeSlot>>,
    report: AuditReport,
}

impl Auditor {
    pub(crate) fn new(cloudlets: usize) -> Self {
        Auditor {
            base_up: vec![true; cloudlets],
            cascade_until: vec![None; cloudlets],
            report: AuditReport::default(),
        }
    }

    /// Expires cascade overlays whose outage window ended before `t`.
    pub(crate) fn begin_slot(&mut self, t: TimeSlot) {
        for c in &mut self.cascade_until {
            if matches!(c, Some(end) if *end <= t) {
                *c = None;
            }
        }
    }

    /// Replays this slot's trace events into the independent up/down view.
    pub(crate) fn apply_events(&mut self, events: &[FailureEvent]) {
        for e in events {
            match *e {
                FailureEvent::CloudletDown { cloudlet, .. } => self.base_up[cloudlet] = false,
                FailureEvent::CloudletUp { cloudlet, .. } => self.base_up[cloudlet] = true,
                FailureEvent::InstanceKill { .. } => {}
            }
        }
    }

    /// Records a cascade outage the engine decided to fire.
    pub(crate) fn note_cascade(&mut self, cloudlet: usize, until: TimeSlot) {
        self.cascade_until[cloudlet] = Some(until);
    }

    fn violate(&mut self, slot: TimeSlot, invariant: AuditInvariant, detail: String) {
        self.report.violations.push(AuditViolation {
            slot,
            invariant,
            detail,
        });
    }

    /// Runs every invariant check for slot `t`; returns the index into
    /// the violation list where this slot's findings start, so the
    /// engine can emit trace events for exactly the new ones.
    pub(crate) fn check_slot(
        &mut self,
        t: TimeSlot,
        instance: &ProblemInstance,
        ledger: &CapacityLedger,
        engine_up: &[bool],
        live: &[LiveReq<'_>],
    ) -> usize {
        let first_new = self.report.violations.len();
        self.report.slots_checked += 1;
        let horizon = ledger.horizon().len();
        let m = ledger.cloudlet_count();

        // 1. Non-negativity over every cell (past cells included: a
        //    double release corrupts history too).
        for j in 0..m {
            for s in 0..horizon {
                let used = ledger.used(CloudletId(j), s);
                if used < -BALANCE_TOL {
                    self.violate(
                        t,
                        AuditInvariant::LedgerNonNegative,
                        format!("cloudlet {j} slot {s} used {used}"),
                    );
                }
            }
        }

        // 2. Balance: for s >= t, committed usage must equal the sum of
        //    surviving healthy placements covering s.
        let mut expected = vec![0.0_f64; m * (horizon - t)];
        for v in live.iter().filter(|v| v.down_since.is_none()) {
            for &(j, n) in &v.sites {
                for s in t..=v.request.end_slot().min(horizon - 1) {
                    expected[j * (horizon - t) + (s - t)] += f64::from(n) * v.per_instance;
                }
            }
        }
        for j in 0..m {
            for s in t..horizon {
                let used = ledger.used(CloudletId(j), s);
                let want = expected[j * (horizon - t) + (s - t)];
                if (used - want).abs() > BALANCE_TOL {
                    self.violate(
                        t,
                        AuditInvariant::LedgerBalance,
                        format!("cloudlet {j} slot {s} used {used} expected {want}"),
                    );
                }
            }
        }

        // 3. Availability and site liveness of every healthy placement.
        for v in live.iter().filter(|v| v.down_since.is_none()) {
            let (request, requirement) = (v.request.id(), v.request.reliability_requirement());
            for &(j, _) in &v.sites {
                if !engine_up.get(j).copied().unwrap_or(false) {
                    self.violate(
                        t,
                        AuditInvariant::SiteLiveness,
                        format!(
                            "request {} keeps a site on down cloudlet {j}",
                            request.index()
                        ),
                    );
                }
            }
            let avail = surviving_availability(instance, v.vnf_rel, &v.sites);
            if avail + AVAIL_TOL < requirement.value() {
                self.violate(
                    t,
                    AuditInvariant::Availability,
                    format!(
                        "request {} availability {avail} below requirement {}",
                        request.index(),
                        requirement.value()
                    ),
                );
            }
        }

        // 4. Engine state vs independent trace replay.
        for j in 0..m {
            let want = self.base_up[j] && self.cascade_until[j].is_none();
            let got = engine_up.get(j).copied().unwrap_or(false);
            if got != want {
                self.violate(
                    t,
                    AuditInvariant::TraceConsistency,
                    format!("cloudlet {j} engine says up={got}, trace replay says up={want}"),
                );
            }
        }

        first_new
    }

    pub(crate) fn violations_since(&self, from: usize) -> &[AuditViolation] {
        &self.report.violations[from..]
    }

    pub(crate) fn finish(self) -> AuditReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::{NetworkBuilder, Reliability};
    use mec_workload::{Horizon, Request, RequestId, VnfCatalog, VnfTypeId};
    use vnfrel::Placement;

    fn instance() -> ProblemInstance {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let c = b.add_ap("b");
        b.add_link(a, c, 1.0).unwrap();
        b.add_cloudlet(a, 30, Reliability::new(0.999).unwrap())
            .unwrap();
        b.add_cloudlet(c, 30, Reliability::new(0.995).unwrap())
            .unwrap();
        ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(8)).unwrap()
    }

    /// Request 0 over slots 0..=7 with requirement 0.9.
    fn request() -> Request {
        let r09 = Reliability::new(0.9).unwrap();
        Request::new(RequestId(0), VnfTypeId(0), r09, 0, 8, 1.0, Horizon::new(8)).unwrap()
    }

    /// A healthy live request holding `sites` of 2-unit instances.
    fn view<'r>(inst: &ProblemInstance, r: &'r Request, sites: &[(usize, u32)]) -> LiveReq<'r> {
        let p = Placement::OnSite {
            cloudlet: CloudletId(0),
            instances: 1,
        };
        let mut lr = LiveReq::new(inst, r, &p);
        lr.sites = sites.to_vec();
        lr.per_instance = 2.0;
        lr.vnf_rel = Reliability::new(0.98).unwrap();
        lr
    }

    #[test]
    fn clean_books_stay_clean() {
        let inst = instance();
        let mut ledger = CapacityLedger::new(inst.network(), inst.horizon());
        ledger.charge(CloudletId(0), 0..8, 4.0);
        let r = request();
        let live = view(&inst, &r, &[(0, 2)]);
        let mut a = Auditor::new(2);
        a.begin_slot(0);
        let first = a.check_slot(0, &inst, &ledger, &[true, true], &[live]);
        assert!(a.violations_since(first).is_empty());
        let report = a.finish();
        assert!(report.is_clean());
        assert_eq!(report.slots_checked, 1);
        assert!(report.to_string().contains("clean"));
    }

    #[test]
    fn unbalanced_ledger_is_reported() {
        let inst = instance();
        let mut ledger = CapacityLedger::new(inst.network(), inst.horizon());
        // Charged but no live placement owns it.
        ledger.charge(CloudletId(1), 3..5, 2.0);
        let mut a = Auditor::new(2);
        a.begin_slot(0);
        a.check_slot(0, &inst, &ledger, &[true, true], &[]);
        let report = a.finish();
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .all(|v| v.invariant == AuditInvariant::LedgerBalance));
        assert_eq!(report.violations.len(), 2);
        assert!(report.to_string().contains("ledger-balance"));
    }

    #[test]
    fn availability_and_liveness_breaches_are_reported() {
        let inst = instance();
        let ledger = CapacityLedger::new(inst.network(), inst.horizon());
        // A "healthy" view with no surviving site: availability 0 < 0.9,
        // and a site pinned on a down cloudlet.
        let r = request();
        let empty = view(&inst, &r, &[]);
        let mut on_down = view(&inst, &r, &[(1, 1)]);
        on_down.per_instance = 0.0; // no charge, keeps the balance check quiet
        let mut a = Auditor::new(2);
        a.begin_slot(0);
        a.check_slot(0, &inst, &ledger, &[true, false], &[empty, on_down]);
        let report = a.finish();
        let kinds: Vec<_> = report.violations.iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&AuditInvariant::Availability));
        assert!(kinds.contains(&AuditInvariant::SiteLiveness));
        // The trace-consistency replay (no events applied) disagrees with
        // engine_up[1] = false.
        assert!(kinds.contains(&AuditInvariant::TraceConsistency));
    }

    #[test]
    fn trace_replay_tracks_events_and_cascades() {
        let inst = instance();
        let ledger = CapacityLedger::new(inst.network(), inst.horizon());
        let mut a = Auditor::new(2);
        a.begin_slot(2);
        a.apply_events(&[FailureEvent::CloudletDown {
            slot: 2,
            cloudlet: 0,
        }]);
        a.note_cascade(1, 4);
        let first = a.check_slot(2, &inst, &ledger, &[false, false], &[]);
        assert!(a.violations_since(first).is_empty());
        // Cascade expires at slot 4; cloudlet 0 stays down.
        a.begin_slot(4);
        let first = a.check_slot(4, &inst, &ledger, &[false, true], &[]);
        assert!(a.violations_since(first).is_empty());
        assert!(a.finish().is_clean());
    }
}
