//! Small, self-contained sampling helpers used by the workload generators.
//!
//! Implemented here (rather than pulling in `rand_distr`) because the
//! experiments only need three simple laws, and keeping them local makes
//! the sampled streams stable across dependency upgrades.

use rand::Rng;

use crate::error::WorkloadError;

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha > 0`.
///
/// Heavy-tailed task durations are characteristic of the Google cluster
/// traces the paper samples from; a bounded Pareto reproduces the
/// "mostly short, occasionally very long" shape while keeping every
/// request inside the monitoring horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
    /// `lo^alpha` and `hi^alpha`, which every sample's inverse CDF reads.
    lo_pow: f64,
    hi_pow: f64,
}

impl BoundedPareto {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] unless
    /// `0 < lo < hi` and `alpha > 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Result<Self, WorkloadError> {
        let valid = lo.is_finite()
            && hi.is_finite()
            && alpha.is_finite()
            && lo > 0.0
            && hi > lo
            && alpha > 0.0;
        if !valid {
            return Err(WorkloadError::InvalidParameter(
                "bounded pareto (lo, hi, alpha)",
            ));
        }
        Ok(BoundedPareto {
            lo,
            hi,
            alpha,
            lo_pow: lo.powf(alpha),
            hi_pow: hi.powf(alpha),
        })
    }

    /// Draws one sample via inverse-transform sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        // Inverse CDF of the bounded Pareto.
        let (la, ha) = (self.lo_pow, self.hi_pow);
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha);
        x.clamp(self.lo, self.hi)
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s ≥ 0`.
///
/// Used to skew VNF-type popularity: a handful of types (firewalls, NATs)
/// dominate real service catalogs. `s = 0` degenerates to uniform.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    /// Cumulative probabilities, ascending to 1.0.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf law over `n` ranks with exponent `s`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `n == 0`, or `s` is
    /// negative or non-finite.
    pub fn new(n: usize, s: f64) -> Result<Self, WorkloadError> {
        if n == 0 || !s.is_finite() || s < 0.0 {
            return Err(WorkloadError::InvalidParameter("zipf (n, s)"));
        }
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Ok(Zipf { cdf })
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Samples a Poisson-distributed count with mean `lambda` (Knuth's method
/// for small `lambda`, normal approximation above 30).
///
/// Used for per-slot arrival counts. A NaN or non-positive mean gives 0
/// and draws nothing. The mean should be finite: an infinite one reads
/// `usize::MAX` or 0, by the sign of its one normal draw.
pub fn poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> usize {
    // A NaN mean would make Knuth's bound `exp(-NaN)`, which no product
    // ever falls below.
    if lambda.is_nan() || lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Normal approximation with continuity correction.
        let (mu, sigma) = (lambda, lambda.sqrt());
        let sample = mu + sigma * standard_normal(rng);
        return sample.round().max(0.0) as usize;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Standard normal sample via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let d = BoundedPareto::new(1.0, 20.0, 1.5).unwrap();
        let mut r = rng(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((1.0..=20.0).contains(&x));
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        let d = BoundedPareto::new(1.0, 100.0, 1.1).unwrap();
        let mut r = rng(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let small = samples.iter().filter(|&&x| x < 5.0).count() as f64 / n as f64;
        let large = samples.iter().filter(|&&x| x > 50.0).count() as f64 / n as f64;
        // Most mass near the lower bound, but a real tail remains.
        assert!(small > 0.7, "small fraction {small}");
        assert!(large > 0.005, "large fraction {large}");
    }

    #[test]
    fn bounded_pareto_rejects_bad_params() {
        assert!(BoundedPareto::new(0.0, 10.0, 1.0).is_err());
        assert!(BoundedPareto::new(5.0, 5.0, 1.0).is_err());
        assert!(BoundedPareto::new(1.0, 10.0, 0.0).is_err());
        assert!(BoundedPareto::new(1.0, f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        let mut r = rng(3);
        let mut counts = [0usize; 4];
        let n = 40_000;
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.25).abs() < 0.02, "frac {frac}");
        }
    }

    #[test]
    fn zipf_skews_to_low_ranks() {
        let z = Zipf::new(10, 1.2).unwrap();
        let mut r = rng(4);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[0] > counts[9] * 3);
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(5, -1.0).is_err());
        assert!(Zipf::new(5, f64::NAN).is_err());
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut r = rng(5);
        for &lambda in &[0.5, 3.0, 12.0, 60.0] {
            let n = 20_000;
            let total: usize = (0..n).map(|_| poisson(lambda, &mut r)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda {lambda} mean {mean}"
            );
        }
        assert_eq!(poisson(0.0, &mut r), 0);
        assert_eq!(poisson(-1.0, &mut r), 0);
    }

    #[test]
    fn poisson_of_nan_is_zero() {
        // Knuth's loop never ended on a NaN mean.
        let mut r = rng(7);
        let before = r.clone().next_u64();
        assert_eq!(poisson(f64::NAN, &mut r), 0);
        assert_eq!(r.next_u64(), before, "a NaN mean draws nothing");
    }

    #[test]
    fn normal_moments() {
        let mut r = rng(6);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
