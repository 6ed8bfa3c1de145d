//! Side-by-side comparison of several schedulers on one scenario.

use std::fmt;

use mec_workload::Request;
use vnfrel::{OnlineScheduler, ProblemInstance};

use crate::engine::Simulation;
use crate::metrics::RunMetrics;
use crate::SimError;

/// Metrics for each scheduler, plus shared workload facts.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// One row per scheduler, in the order supplied.
    pub rows: Vec<RunMetrics>,
    /// Total payment of the stream (the revenue ceiling).
    pub total_payment: f64,
}

impl Comparison {
    /// The best-revenue row, if any scheduler ran.
    pub fn best(&self) -> Option<&RunMetrics> {
        self.rows
            .iter()
            .max_by(|a, b| a.revenue.partial_cmp(&b.revenue).expect("finite revenue"))
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<26} {:>12} {:>10} {:>8} {:>10}",
            "algorithm", "revenue", "admitted", "util", "rev/best"
        )?;
        let best = self.best().map(|r| r.revenue).unwrap_or(0.0);
        for r in &self.rows {
            writeln!(
                f,
                "{:<26} {:>12.1} {:>10} {:>8.3} {:>10.3}",
                r.algorithm,
                r.revenue,
                r.admitted,
                r.mean_utilization,
                if best > 0.0 { r.revenue / best } else { 0.0 }
            )?;
        }
        write!(f, "stream total payment: {:.1}", self.total_payment)
    }
}

/// Runs every scheduler over the same request stream and tabulates the
/// results. Each scheduler must start fresh (they accumulate state).
///
/// # Errors
///
/// Propagates engine errors; every schedule must validate.
pub fn compare(
    instance: &ProblemInstance,
    requests: &[Request],
    schedulers: &mut [&mut dyn OnlineScheduler],
) -> Result<Comparison, SimError> {
    let sim = Simulation::new(instance, requests)?;
    let mut rows = Vec::with_capacity(schedulers.len());
    for s in schedulers.iter_mut() {
        let report = sim.run(*s)?;
        if !report.validation.is_feasible() {
            return Err(SimError::Mismatch(
                "a scheduler produced an infeasible schedule",
            ));
        }
        rows.push(report.metrics);
    }
    Ok(Comparison {
        rows,
        total_payment: requests.iter().map(|r| r.payment()).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::{NetworkBuilder, Reliability};
    use mec_workload::{Horizon, RequestGenerator, VnfCatalog};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vnfrel::onsite::{CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};

    #[test]
    fn compares_two_schedulers() {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        b.add_cloudlet(a, 10, Reliability::new(0.999).unwrap())
            .unwrap();
        let inst =
            ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(12))
                .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let reqs = RequestGenerator::new(inst.horizon())
            .payment_rate_band(1.0, 10.0)
            .unwrap()
            .generate(120, inst.catalog(), &mut rng)
            .unwrap();
        let mut alg1 = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let mut greedy = OnsiteGreedy::new(&inst);
        let cmp = compare(&inst, &reqs, &mut [&mut alg1, &mut greedy]).unwrap();
        assert_eq!(cmp.rows.len(), 2);
        assert!(cmp.total_payment > 0.0);
        let best = cmp.best().unwrap().revenue;
        for r in &cmp.rows {
            assert!(r.revenue <= best + 1e-9);
            assert!(r.revenue <= cmp.total_payment + 1e-9);
        }
        let table = cmp.to_string();
        assert!(table.contains("alg1-primal-dual"));
        assert!(table.contains("greedy-onsite"));
    }
}
