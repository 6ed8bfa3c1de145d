//! Post-hoc invariant referee for chaos runs.
//!
//! A chaos drill injects faults (dropped/torn/stalled frames, snapshot
//! I/O failures, decide-thread panics) into a serving cell and then has
//! to *prove* the cell healed correctly. The referee is that proof: it
//! replays the run's artifacts — the loadgen's acked-decision log, the
//! survivor's own counters, and the fencing probe's observations — and
//! checks the durability contract the serving tier advertises:
//!
//! 1. **No acked admit lost** — every admission the client saw
//!    acknowledged is present in the survivor's state. A replicating
//!    primary acks only what the standby has applied, so a survivor
//!    missing one has broken the contract.
//! 2. **No double charge** — connection loss makes the loadgen resubmit
//!    under the same id; the daemon's dedupe ring must decide each id
//!    exactly once and replay the original decision on resubmit.
//! 3. **Ledger balance** — Σ payment over acked admits equals the
//!    survivor's revenue counter, and no rejected ack carries a payment.
//!    A charge without an owner (or an owner without a charge) shows up
//!    here.
//! 4. **No ack after fencing** — once a standby is promoted, the deposed
//!    primary must stop acking; any ack observed from it after the
//!    fencing epoch advanced is a split-brain write.
//!
//! The shape mirrors `mec-sim`'s slot auditor (`audit.rs`): typed
//! invariants, collected violations, a report that renders one line.
//! Like the auditor it only observes — callers decide whether a dirty
//! report fails the drill.

use std::fmt;

use crate::protocol::ServeStats;

/// Absolute tolerance for revenue comparisons. The survivor sums
/// payments in decide order (per shard, then across shards); the client
/// sums in id order — same values, possibly different float rounding.
const REVENUE_TOL: f64 = 1e-6;

/// Which durability invariant a [`RefereeViolation`] breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefereeInvariant {
    /// An admission the client saw acked is missing from the survivor.
    AckedAdmitLost,
    /// A request id was decided (or charged) more than once despite the
    /// idempotent-resubmit contract.
    DoubleCharge,
    /// Client-side Σ payment disagrees with the survivor's revenue, or a
    /// rejected request carried a payment.
    LedgerBalance,
    /// A deposed primary acked a decision after its epoch was fenced.
    FencedAck,
}

impl RefereeInvariant {
    /// Stable wire name (used in drill reports).
    pub fn as_str(self) -> &'static str {
        match self {
            RefereeInvariant::AckedAdmitLost => "acked-admit-lost",
            RefereeInvariant::DoubleCharge => "double-charge",
            RefereeInvariant::LedgerBalance => "ledger-balance",
            RefereeInvariant::FencedAck => "fenced-ack",
        }
    }
}

impl fmt::Display for RefereeInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct RefereeViolation {
    /// The breached invariant.
    pub invariant: RefereeInvariant,
    /// Human-readable detail (ids and counts involved).
    pub detail: String,
}

impl fmt::Display for RefereeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Outcome of refereeing one chaos run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RefereeReport {
    /// Acked decisions examined.
    pub acks_checked: usize,
    /// Every violation observed, in detection order.
    pub violations: Vec<RefereeViolation>,
}

impl RefereeReport {
    /// True when no invariant was breached.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for RefereeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "referee: {} acks checked, clean", self.acks_checked)
        } else {
            write!(
                f,
                "referee: {} acks checked, {} violations (first: {})",
                self.acks_checked,
                self.violations.len(),
                self.violations[0]
            )
        }
    }
}

/// The client's record of one request's *final* acked decision. The
/// loadgen keeps one per id; resubmits after a reconnect overwrite in
/// place (the daemon replays the original decision, so the last ack is
/// the decision).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckRecord {
    /// Request id (the dedupe key).
    pub id: usize,
    /// Whether the ack admitted the request.
    pub admitted: bool,
    /// Payment collected; must be zero for rejections.
    pub payment: f64,
}

/// Everything a chaos run leaves behind for the referee.
#[derive(Debug, Clone, Default)]
pub struct ChaosArtifacts {
    /// The loadgen's acked-decision log, one final record per id.
    pub acks: Vec<AckRecord>,
    /// The surviving node's own counters after the run (from its final
    /// `stats` ack or shutdown report).
    pub survivor: ServeStats,
    /// True when every submitted id received a final acked decision
    /// (the closed loop ran to completion). Exact-equality checks only
    /// apply then; an interrupted run degrades them to inequalities.
    pub complete: bool,
    /// Acks observed from the deposed primary after the fencing epoch
    /// advanced (counted by the drill's fencing probe). Must be zero.
    pub deposed_acks_after_fence: usize,
}

/// Replays the artifacts and checks every invariant. Never panics; the
/// caller inspects [`RefereeReport::is_clean`].
pub fn check(artifacts: &ChaosArtifacts) -> RefereeReport {
    let mut report = RefereeReport {
        acks_checked: artifacts.acks.len(),
        ..RefereeReport::default()
    };
    let mut violate = |invariant: RefereeInvariant, detail: String| {
        report
            .violations
            .push(RefereeViolation { invariant, detail });
    };

    // Sort a copy by id: duplicate detection and the id-order revenue
    // sum both want it, and the caller's log is in arrival order.
    let mut acks = artifacts.acks.clone();
    acks.sort_by_key(|a| a.id);
    for pair in acks.windows(2) {
        if pair[0].id == pair[1].id {
            violate(
                RefereeInvariant::DoubleCharge,
                format!("id {} has more than one final acked decision", pair[0].id),
            );
        }
    }

    let acked_admits = acks.iter().filter(|a| a.admitted).count() as u64;
    let client_revenue: f64 = acks.iter().filter(|a| a.admitted).map(|a| a.payment).sum();
    for a in &acks {
        if !a.admitted && a.payment != 0.0 {
            violate(
                RefereeInvariant::LedgerBalance,
                format!("rejected id {} carries payment {}", a.id, a.payment),
            );
        }
    }

    let s = &artifacts.survivor;
    if s.admitted < acked_admits {
        violate(
            RefereeInvariant::AckedAdmitLost,
            format!(
                "client holds {acked_admits} acked admits but the survivor admitted only {}",
                s.admitted
            ),
        );
    }
    if artifacts.complete {
        // Every id got a final decision and the dedupe ring replayed
        // originals on resubmit, so the ack log covers the survivor's
        // decided set exactly.
        if s.decided > acks.len() as u64 {
            violate(
                RefereeInvariant::DoubleCharge,
                format!(
                    "survivor decided {} requests but only {} distinct ids were acked",
                    s.decided,
                    acks.len()
                ),
            );
        }
        if s.admitted > acked_admits {
            violate(
                RefereeInvariant::DoubleCharge,
                format!(
                    "survivor admitted {} requests but the client holds {acked_admits} \
                     acked admits",
                    s.admitted
                ),
            );
        }
        if (s.revenue - client_revenue).abs() > REVENUE_TOL {
            violate(
                RefereeInvariant::LedgerBalance,
                format!(
                    "survivor revenue {} disagrees with Σ acked payments {client_revenue}",
                    s.revenue
                ),
            );
        }
    }

    if artifacts.deposed_acks_after_fence > 0 {
        violate(
            RefereeInvariant::FencedAck,
            format!(
                "deposed primary acked {} decisions after fencing",
                artifacts.deposed_acks_after_fence
            ),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_artifacts() -> ChaosArtifacts {
        ChaosArtifacts {
            acks: vec![
                AckRecord {
                    id: 0,
                    admitted: true,
                    payment: 3.5,
                },
                AckRecord {
                    id: 1,
                    admitted: false,
                    payment: 0.0,
                },
                AckRecord {
                    id: 2,
                    admitted: true,
                    payment: 1.25,
                },
            ],
            survivor: ServeStats {
                decided: 3,
                admitted: 2,
                rejected: 1,
                overloaded: 0,
                revenue: 4.75,
            },
            complete: true,
            deposed_acks_after_fence: 0,
        }
    }

    #[test]
    fn clean_run_is_clean() {
        let report = check(&clean_artifacts());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.acks_checked, 3);
        assert!(report.to_string().contains("clean"));
    }

    #[test]
    fn lost_admit_is_reported() {
        let mut a = clean_artifacts();
        a.survivor.admitted = 1;
        a.survivor.revenue = 3.5;
        a.survivor.decided = 3;
        let report = check(&a);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == RefereeInvariant::AckedAdmitLost));
    }

    #[test]
    fn duplicate_final_decision_is_a_double_charge() {
        let mut a = clean_artifacts();
        a.acks.push(AckRecord {
            id: 2,
            admitted: true,
            payment: 1.25,
        });
        let report = check(&a);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == RefereeInvariant::DoubleCharge));
    }

    #[test]
    fn survivor_deciding_twice_is_a_double_charge() {
        let mut a = clean_artifacts();
        a.survivor.decided = 4;
        a.survivor.admitted = 3;
        a.survivor.revenue = 4.75 + 3.5;
        let report = check(&a);
        let kinds: Vec<_> = report.violations.iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&RefereeInvariant::DoubleCharge));
        assert!(kinds.contains(&RefereeInvariant::LedgerBalance));
    }

    #[test]
    fn revenue_mismatch_and_paid_reject_break_ledger_balance() {
        let mut a = clean_artifacts();
        a.survivor.revenue = 4.75 + 0.5;
        a.acks[1].payment = 0.25; // rejected but paid
        let report = check(&a);
        let balance = report
            .violations
            .iter()
            .filter(|v| v.invariant == RefereeInvariant::LedgerBalance)
            .count();
        assert_eq!(balance, 2);
    }

    #[test]
    fn deposed_ack_after_fence_is_reported() {
        let mut a = clean_artifacts();
        a.deposed_acks_after_fence = 2;
        let report = check(&a);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, RefereeInvariant::FencedAck);
        assert!(report.to_string().contains("fenced-ack"));
    }

    #[test]
    fn incomplete_runs_skip_exact_equality() {
        let mut a = clean_artifacts();
        a.complete = false;
        // Survivor decided more than the client saw acked — fine when
        // acks were lost mid-run.
        a.survivor.decided = 5;
        a.survivor.admitted = 4;
        a.survivor.revenue = 9.0;
        assert!(check(&a).is_clean());
    }
}
