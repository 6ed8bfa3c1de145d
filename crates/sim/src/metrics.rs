use std::fmt;

use mec_workload::RequestId;

/// Summary statistics of one online run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Scheduler name (e.g. `"alg1-primal-dual"`).
    pub algorithm: String,
    /// Total revenue collected.
    pub revenue: f64,
    /// Number of admitted requests.
    pub admitted: usize,
    /// Number of requests processed.
    pub total: usize,
    /// Mean cloudlet utilization over all (cloudlet, slot) cells.
    pub mean_utilization: f64,
    /// Worst relative capacity overflow (0 unless the raw Algorithm 1 was
    /// allowed to violate).
    pub max_overflow: f64,
    /// Final dual objective when the scheduler tracks one (Algorithm 1) —
    /// an upper bound on the offline optimum.
    pub dual_bound: Option<f64>,
}

impl RunMetrics {
    /// Admitted / total, 0 when no request was processed.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.admitted as f64 / self.total as f64
        }
    }
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: revenue {:.2}, admitted {}/{} ({:.1}%), util {:.3}",
            self.algorithm,
            self.revenue,
            self.admitted,
            self.total,
            self.acceptance_ratio() * 100.0,
            self.mean_utilization
        )?;
        if self.max_overflow > 0.0 {
            write!(f, ", overflow {:.3}", self.max_overflow)?;
        }
        if let Some(d) = self.dual_bound {
            write!(f, ", dual bound {d:.2}")?;
        }
        Ok(())
    }
}

/// Per-slot counters of the slot-stepped engine. The five fault counters
/// stay zero in a run without faults
/// ([`Simulation::run`](crate::Simulation::run)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotStats {
    /// Requests that arrived in this slot.
    pub arrivals: usize,
    /// Arrivals admitted in this slot.
    pub admitted: usize,
    /// Admitted requests whose execution window covers this slot.
    pub active: usize,
    /// Failure events applied in this slot.
    pub events: usize,
    /// Requests whose placement dropped below `R_i` in this slot.
    pub newly_failed: usize,
    /// Requests successfully re-placed in this slot.
    pub recovered: usize,
    /// Active requests still without a valid placement at the end of the
    /// slot — each one is an SLA-violated request-slot.
    pub violated: usize,
    /// Requests evicted by the load shedder in this slot (0 unless
    /// [`Simulation::run_faulted`](crate::Simulation::run_faulted) was
    /// given a degradation config).
    pub evicted: usize,
}

/// Per-request SLA outcome of a fault-aware run.
///
/// Only admitted requests get a record; a request that was never hit by
/// a fault has all failure counters at zero.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaRecord {
    /// The admitted request.
    pub request: RequestId,
    /// Payment agreed at admission.
    pub payment: f64,
    /// Requested duration in slots.
    pub duration: usize,
    /// Slots of the window spent without a valid placement.
    pub downtime_slots: usize,
    /// Times the placement dropped below `R_i` and was torn down.
    pub failures: usize,
    /// Recovery attempts made on behalf of this request.
    pub recovery_attempts: usize,
    /// Successful re-placements.
    pub recoveries: usize,
    /// Total slots between each failure and its recovery (0 when
    /// recovery lands in the failure slot itself).
    pub repair_latency_slots: usize,
    /// Whether the request was still down when its window (or the
    /// horizon) ended.
    pub unrecovered: bool,
    /// Whether the load shedder evicted this request to make room for a
    /// higher-density re-placement (implies `unrecovered`).
    pub evicted: bool,
}

impl SlaRecord {
    /// Revenue refunded for downtime, prorated per violated slot:
    /// `payment · downtime/duration`.
    pub fn refund(&self) -> f64 {
        if self.duration == 0 {
            0.0
        } else {
            self.payment * (self.downtime_slots.min(self.duration) as f64 / self.duration as f64)
        }
    }

    /// Revenue retained after the downtime refund.
    pub fn retained(&self) -> f64 {
        self.payment - self.refund()
    }
}

/// SLA ledger of one fault-aware run: one record per admitted request,
/// in id order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlaReport {
    /// Per-request records (admitted requests only, id order).
    pub records: Vec<SlaRecord>,
}

impl SlaReport {
    /// Total SLA-violated request-slots (Σ downtime over requests).
    pub fn violated_request_slots(&self) -> usize {
        self.records.iter().map(|r| r.downtime_slots).sum()
    }

    /// Revenue kept after downtime refunds.
    pub fn revenue_retained(&self) -> f64 {
        self.records.iter().map(SlaRecord::retained).sum()
    }

    /// Revenue refunded for downtime.
    pub fn revenue_refunded(&self) -> f64 {
        self.records.iter().map(SlaRecord::refund).sum()
    }

    /// Placement failures across all requests.
    pub fn total_failures(&self) -> usize {
        self.records.iter().map(|r| r.failures).sum()
    }

    /// Successful re-placements across all requests.
    pub fn total_recoveries(&self) -> usize {
        self.records.iter().map(|r| r.recoveries).sum()
    }

    /// Recoveries / failures; 1.0 when nothing ever failed.
    pub fn recovery_success_rate(&self) -> f64 {
        let failures = self.total_failures();
        if failures == 0 {
            1.0
        } else {
            self.total_recoveries() as f64 / failures as f64
        }
    }

    /// Mean slots from failure to recovery, over successful recoveries
    /// (`None` when nothing recovered).
    pub fn mean_repair_latency(&self) -> Option<f64> {
        let recoveries = self.total_recoveries();
        if recoveries == 0 {
            return None;
        }
        let latency: usize = self.records.iter().map(|r| r.repair_latency_slots).sum();
        Some(latency as f64 / recoveries as f64)
    }

    /// Requests that ended their window without a valid placement.
    pub fn unrecovered_requests(&self) -> usize {
        self.records.iter().filter(|r| r.unrecovered).count()
    }

    /// Requests the load shedder evicted.
    pub fn evicted_requests(&self) -> usize {
        self.records.iter().filter(|r| r.evicted).count()
    }
}

impl fmt::Display for SlaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sla: {} requests, {} violated slots, {} failures, {} recovered ({:.0}%), \
             retained {:.2}, refunded {:.2}",
            self.records.len(),
            self.violated_request_slots(),
            self.total_failures(),
            self.total_recoveries(),
            self.recovery_success_rate() * 100.0,
            self.revenue_retained(),
            self.revenue_refunded(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_ratio_handles_empty() {
        let m = RunMetrics {
            algorithm: "x".into(),
            revenue: 0.0,
            admitted: 0,
            total: 0,
            mean_utilization: 0.0,
            max_overflow: 0.0,
            dual_bound: None,
        };
        assert_eq!(m.acceptance_ratio(), 0.0);
        assert!(m.to_string().contains("x:"));
    }

    #[test]
    fn display_includes_optional_fields() {
        let m = RunMetrics {
            algorithm: "alg1".into(),
            revenue: 12.5,
            admitted: 3,
            total: 4,
            mean_utilization: 0.4,
            max_overflow: 0.2,
            dual_bound: Some(20.0),
        };
        let s = m.to_string();
        assert!(s.contains("overflow"));
        assert!(s.contains("dual bound"));
        assert!((m.acceptance_ratio() - 0.75).abs() < 1e-12);
    }
}
