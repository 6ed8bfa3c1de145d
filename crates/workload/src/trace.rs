//! A Google-cluster-*like* synthetic trace.
//!
//! The paper randomizes request parameters "using the data sets in
//! \[Google cluster data, Hellerstein 2010\]". That dataset is a large
//! proprietary-format dump; what the evaluation actually takes from it is
//! the *shape* of task arrivals and durations:
//!
//! * durations are heavy-tailed — most tasks are short, a few run very
//!   long;
//! * arrivals are bursty — load varies by time of day with sub-hour spikes;
//! * resource demands fall into a small number of machine-size-relative
//!   buckets.
//!
//! [`ClusterTrace`] synthesizes a request stream with those properties:
//! bounded-Pareto durations, Poisson arrivals modulated by a diurnal
//! (sinusoidal) rate profile, and demand/payment draws matching
//! [`RequestGenerator`](crate::RequestGenerator)'s conventions. Everything
//! is seeded, so experiments are reproducible. The substitution is recorded
//! in `DESIGN.md`.

use rand::Rng;

use mec_topology::Reliability;

use crate::distributions::{poisson, BoundedPareto};
use crate::error::WorkloadError;
use crate::request::{Request, RequestId};
use crate::time::Horizon;
use crate::vnf::{VnfCatalog, VnfTypeId};

/// Configuration of the synthetic cluster trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTrace {
    horizon: Horizon,
    /// Mean arrivals per slot at the diurnal baseline.
    base_rate: f64,
    /// Peak-to-trough ratio of the diurnal modulation (`≥ 1`).
    diurnal_swing: f64,
    /// Number of slots in one diurnal period.
    period: usize,
    /// Duration tail exponent (smaller = heavier).
    duration_alpha: f64,
    /// Maximum duration in slots.
    max_duration: usize,
    /// Reliability-requirement band.
    reliability_band: (f64, f64),
    /// Payment-rate band.
    payment_rate_band: (f64, f64),
}

impl ClusterTrace {
    /// Creates a trace config with defaults mirroring the published
    /// summary statistics of the 2010 Google cluster snapshot (heavy tail
    /// `α ≈ 1.3`, ~3× day/night swing).
    pub fn new(horizon: Horizon, base_rate: f64) -> Self {
        ClusterTrace {
            horizon,
            base_rate,
            diurnal_swing: 3.0,
            period: horizon.len().clamp(24, 288),
            duration_alpha: 1.3,
            max_duration: (horizon.len() / 4).max(1),
            reliability_band: (0.9, 0.98),
            payment_rate_band: (5.0, 10.0),
        }
    }

    /// Sets the peak-to-trough ratio of the diurnal modulation.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `swing < 1`.
    pub fn diurnal_swing(mut self, swing: f64) -> Result<Self, WorkloadError> {
        let valid = swing.is_finite() && swing >= 1.0;
        if !valid {
            return Err(WorkloadError::InvalidParameter("diurnal swing"));
        }
        self.diurnal_swing = swing;
        Ok(self)
    }

    /// Sets the duration tail exponent.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `alpha ≤ 0`.
    pub fn duration_alpha(mut self, alpha: f64) -> Result<Self, WorkloadError> {
        let valid = alpha.is_finite() && alpha > 0.0;
        if !valid {
            return Err(WorkloadError::InvalidParameter("duration alpha"));
        }
        self.duration_alpha = alpha;
        Ok(self)
    }

    /// Instantaneous arrival rate at slot `t` (diurnal modulation).
    pub fn rate_at(&self, t: usize) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * (t % self.period) as f64 / self.period as f64;
        // Sinusoid between 1/swing and 1, scaled by the base rate.
        let depth = 1.0 - 1.0 / self.diurnal_swing;
        self.base_rate * (1.0 - depth * (0.5 + 0.5 * phase.cos()))
    }

    /// Generates the full trace over the horizon.
    ///
    /// The number of requests is random (Poisson thinning of the rate
    /// profile); use [`ClusterTrace::generate_exact`] when an exact count
    /// is required.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::UnknownVnfType`] for an empty catalog, and
    /// [`WorkloadError::InvalidParameter`] for a base rate that is not
    /// finite and `≥ 0`.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        catalog: &VnfCatalog,
        rng: &mut R,
    ) -> Result<Vec<Request>, WorkloadError> {
        let durations = self.prepare(catalog)?;
        let mut out = Vec::new();
        for t in self.horizon.slots() {
            let k = poisson(self.rate_at(t), rng);
            for _ in 0..k {
                let id = RequestId(out.len());
                out.push(self.one_request(id, t, durations.as_ref(), catalog, rng)?);
            }
        }
        Ok(out)
    }

    /// Generates exactly `count` requests by cycling the rate profile.
    ///
    /// # Errors
    ///
    /// As [`ClusterTrace::generate`].
    pub fn generate_exact<R: Rng + ?Sized>(
        &self,
        count: usize,
        catalog: &VnfCatalog,
        rng: &mut R,
    ) -> Result<Vec<Request>, WorkloadError> {
        let durations = self.prepare(catalog)?;
        // Sample arrival slots proportional to the rate profile.
        let weights: Vec<f64> = self.horizon.slots().map(|t| self.rate_at(t)).collect();
        let total: f64 = weights.iter().sum();
        let mut arrivals: Vec<usize> = (0..count)
            .map(|_| {
                let mut u = rng.gen::<f64>() * total;
                for (t, w) in weights.iter().enumerate() {
                    if u < *w {
                        return t;
                    }
                    u -= w;
                }
                self.horizon.len() - 1
            })
            .collect();
        arrivals.sort_unstable();
        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, t)| self.one_request(RequestId(i), t, durations.as_ref(), catalog, rng))
            .collect()
    }

    /// Checks what both generators need, and builds the duration law
    /// (`None`: every request lasts one slot).
    fn prepare(&self, catalog: &VnfCatalog) -> Result<Option<BoundedPareto>, WorkloadError> {
        if catalog.is_empty() {
            return Err(WorkloadError::UnknownVnfType(0));
        }
        // A NaN rate hung `generate` in `poisson` and put every request of
        // `generate_exact` in the last slot; an infinite one pushed
        // requests until memory ran out.
        if !self.base_rate.is_finite() || self.base_rate < 0.0 {
            return Err(WorkloadError::InvalidParameter("base rate"));
        }
        let hi = self.max_duration.max(1) as f64;
        if hi <= 1.0 {
            return Ok(None);
        }
        BoundedPareto::new(1.0, hi + 0.999, self.duration_alpha).map(Some)
    }

    fn one_request<R: Rng + ?Sized>(
        &self,
        id: RequestId,
        arrival: usize,
        durations: Option<&BoundedPareto>,
        catalog: &VnfCatalog,
        rng: &mut R,
    ) -> Result<Request, WorkloadError> {
        let room = self.horizon.len() - arrival;
        let duration = match durations {
            None => 1,
            Some(dist) => (dist.sample(rng).floor() as usize).clamp(1, room),
        };
        let vnf = catalog.require(VnfTypeId(rng.gen_range(0..catalog.len())))?;
        let (rlo, rhi) = self.reliability_band;
        let rel = Reliability::new(rng.gen_range(rlo..=rhi))?;
        let (plo, phi) = self.payment_rate_band;
        let rate = rng.gen_range(plo..=phi);
        let payment = rate * duration as f64 * vnf.compute() as f64 * rel.value();
        Request::new(id, vnf.id(), rel, arrival, duration, payment, self.horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn rate_profile_oscillates_between_bounds() {
        let trace = ClusterTrace::new(Horizon::new(100), 6.0);
        let rates: Vec<f64> = (0..100).map(|t| trace.rate_at(t)).collect();
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max <= 6.0 + 1e-9);
        assert!(min >= 6.0 / 3.0 - 1e-9);
        assert!(max / min > 2.0, "swing too small: {max}/{min}");
    }

    #[test]
    fn generate_produces_valid_requests() {
        let trace = ClusterTrace::new(Horizon::new(120), 4.0);
        let cat = VnfCatalog::standard();
        let reqs = trace.generate(&cat, &mut rng(1)).unwrap();
        assert!(!reqs.is_empty());
        for r in &reqs {
            assert!(r.end_slot() < 120);
            assert!(r.payment() > 0.0);
        }
        // Expected total ≈ Σ rate ≈ 120 · (between 4/3 and 4).
        assert!(
            reqs.len() > 100 && reqs.len() < 500,
            "{} requests",
            reqs.len()
        );
    }

    #[test]
    fn generate_refuses_a_nan_base_rate() {
        // Hung in `poisson` before the rate was checked.
        let trace = ClusterTrace::new(Horizon::new(24), f64::NAN);
        let err = trace.generate(&VnfCatalog::standard(), &mut rng(1));
        assert_eq!(err, Err(WorkloadError::InvalidParameter("base rate")));
    }

    #[test]
    fn generate_refuses_an_infinite_or_negative_base_rate() {
        for rate in [f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let trace = ClusterTrace::new(Horizon::new(24), rate);
            let err = trace.generate(&VnfCatalog::standard(), &mut rng(1));
            assert_eq!(err, Err(WorkloadError::InvalidParameter("base rate")));
        }
    }

    #[test]
    fn generate_exact_refuses_a_non_finite_base_rate() {
        // A NaN rate put every request in the last slot.
        for rate in [f64::NAN, f64::INFINITY, -0.5] {
            let trace = ClusterTrace::new(Horizon::new(24), rate);
            let err = trace.generate_exact(10, &VnfCatalog::standard(), &mut rng(1));
            assert_eq!(err, Err(WorkloadError::InvalidParameter("base rate")));
        }
    }

    #[test]
    fn generate_exact_hits_count_and_follows_profile() {
        let trace = ClusterTrace::new(Horizon::new(96), 5.0);
        let cat = VnfCatalog::standard();
        let reqs = trace.generate_exact(3000, &cat, &mut rng(2)).unwrap();
        assert_eq!(reqs.len(), 3000);
        // Arrivals sorted.
        for w in reqs.windows(2) {
            assert!(w[0].arrival() <= w[1].arrival());
        }
        // Peak slots (phase π, middle of the period) should see more
        // arrivals than trough slots (phase 0).
        let period = 96;
        let mid = period / 2;
        let at = |t: usize| reqs.iter().filter(|r| r.arrival() == t).count();
        let peak: usize = (mid - 5..mid + 5).map(at).sum();
        let trough: usize = (0..5).chain(period - 5..period).map(at).sum();
        assert!(peak > trough, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn durations_heavy_tailed() {
        let trace = ClusterTrace::new(Horizon::new(400), 2.0);
        let cat = VnfCatalog::standard();
        let reqs = trace.generate_exact(4000, &cat, &mut rng(3)).unwrap();
        let short = reqs.iter().filter(|r| r.duration() <= 3).count();
        let long = reqs.iter().filter(|r| r.duration() >= 30).count();
        assert!(short > reqs.len() / 2);
        assert!(long > 0);
    }

    #[test]
    fn validation() {
        let t = ClusterTrace::new(Horizon::new(50), 1.0);
        assert!(t.clone().diurnal_swing(0.5).is_err());
        assert!(t.clone().duration_alpha(0.0).is_err());
        let empty = VnfCatalog::from_specs(Vec::<(&str, u64, f64)>::new()).unwrap();
        assert!(t.generate(&empty, &mut rng(0)).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let trace = ClusterTrace::new(Horizon::new(60), 3.0);
        let cat = VnfCatalog::standard();
        let a = trace.generate(&cat, &mut rng(8)).unwrap();
        let b = trace.generate(&cat, &mut rng(8)).unwrap();
        assert_eq!(a, b);
    }
}
