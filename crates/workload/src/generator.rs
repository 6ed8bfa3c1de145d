use rand::Rng;

use mec_topology::Reliability;

use crate::error::WorkloadError;
use crate::placement::place_by_arrival;
use crate::request::{Request, RequestId};
use crate::time::Horizon;
use crate::vnf::{VnfCatalog, VnfTypeId};

/// How request durations are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DurationModel {
    /// Uniform over `[lo, hi]` slots (inclusive).
    Uniform {
        /// Minimum duration in slots.
        lo: usize,
        /// Maximum duration in slots.
        hi: usize,
    },
    /// Every request runs exactly this many slots.
    Fixed(usize),
}

/// Seeded random workload generator.
///
/// Defaults reproduce the paper's Section VI settings: requirements and
/// payments "randomly generated but in the same specific ranges", with the
/// payment drawn through the payment *rate*
/// `pr_i = pay_i / (d_i · c(f_i) · R_i)` so the ratio `H = pr_max / pr_min`
/// can be swept directly (Figure 2(a)).
///
/// Each request's arrival is uniform over the whole horizon and its VNF
/// type uniform over the catalog. The duration is drawn after the arrival
/// and clamped to the slots left before the horizon ends, so a request
/// that arrives late gets a shortened window (21.9 % of requests with
/// durations uniform in `[1, 8]` over 16 slots).
/// [`ChainGenerator`](crate::ChainGenerator) draws the duration first and
/// the arrival over the slots where that window fits, so it never
/// shortens one.
///
/// # Example
///
/// ```
/// # use mec_workload::{RequestGenerator, VnfCatalog, Horizon};
/// # use rand::SeedableRng;
/// # fn main() -> Result<(), mec_workload::WorkloadError> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let reqs = RequestGenerator::new(Horizon::new(100))
///     .payment_rate_band(2.0, 10.0)?
///     .reliability_band(0.9, 0.97)?
///     .generate(250, &VnfCatalog::standard(), &mut rng)?;
/// assert_eq!(reqs.len(), 250);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RequestGenerator {
    horizon: Horizon,
    durations: DurationModel,
    reliability_band: (f64, f64),
    payment_rate_band: (f64, f64),
}

impl RequestGenerator {
    /// Creates a generator with the paper-like defaults: durations
    /// uniform in `[1, 8]`, reliability requirements in `[0.9, 0.98]`,
    /// payment rates in `[5, 10]` (`H = 2`).
    pub fn new(horizon: Horizon) -> Self {
        RequestGenerator {
            horizon,
            durations: DurationModel::Uniform { lo: 1, hi: 8 },
            reliability_band: (0.9, 0.98),
            payment_rate_band: (5.0, 10.0),
        }
    }

    /// The horizon requests are generated into.
    pub fn horizon(&self) -> Horizon {
        self.horizon
    }

    /// Sets the duration model.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidDurationModel`] when the model is
    /// inverted (`lo > hi`), can draw a zero duration, or cannot fit a
    /// single window inside the horizon — callers learn at construction,
    /// not on the first `generate`.
    pub fn durations(mut self, durations: DurationModel) -> Result<Self, WorkloadError> {
        self.durations = durations;
        self.validate_durations()?;
        Ok(self)
    }

    /// Sets the reliability-requirement band `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] unless
    /// `0 < lo ≤ hi < 1`.
    pub fn reliability_band(mut self, lo: f64, hi: f64) -> Result<Self, WorkloadError> {
        if !(lo > 0.0 && hi < 1.0 && lo <= hi) {
            return Err(WorkloadError::InvalidParameter("reliability band"));
        }
        self.reliability_band = (lo, hi);
        Ok(self)
    }

    /// Sets the payment-rate band `[pr_min, pr_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] unless
    /// `0 < pr_min ≤ pr_max` and both are finite.
    pub fn payment_rate_band(mut self, lo: f64, hi: f64) -> Result<Self, WorkloadError> {
        let valid = lo.is_finite() && hi.is_finite() && lo > 0.0 && lo <= hi;
        if !valid {
            return Err(WorkloadError::InvalidParameter("payment rate band"));
        }
        self.payment_rate_band = (lo, hi);
        Ok(self)
    }

    /// Generates exactly `count` requests in arrival order, with ids dense
    /// in that order; requests that arrive in the same slot keep the order
    /// they were drawn in.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::UnknownVnfType`] for an empty catalog, or
    /// [`WorkloadError::InvalidDurationModel`] from a degenerate duration
    /// model (e.g. `lo > hi` or durations longer than the horizon).
    pub fn generate<R: Rng + ?Sized>(
        &self,
        count: usize,
        catalog: &VnfCatalog,
        rng: &mut R,
    ) -> Result<Vec<Request>, WorkloadError> {
        if catalog.is_empty() {
            return Err(WorkloadError::UnknownVnfType(0));
        }
        self.validate_durations()?;
        let (rlo, rhi) = self.reliability_band;
        let (plo, phi) = self.payment_rate_band;
        // Holds each place until its request is written over it.
        let filler = Request::new(
            RequestId(0),
            VnfTypeId(0),
            Reliability::new(rlo)?,
            0,
            1,
            plo,
            self.horizon,
        )?;
        let t = self.horizon.len();
        let arrivals: Vec<usize> = (0..count).map(|_| rng.gen_range(0..t)).collect();
        place_by_arrival(
            arrivals,
            |&a| a,
            self.horizon,
            filler,
            |arrival, id| {
                let duration = self.draw_duration(arrival, rng);
                let vnf = catalog.require(VnfTypeId(rng.gen_range(0..catalog.len())))?;
                let rel = Reliability::new(rng.gen_range(rlo..=rhi))?;
                let rate = rng.gen_range(plo..=phi);
                let payment = rate * duration as f64 * vnf.compute() as f64 * rel.value();
                Request::new(
                    RequestId(id),
                    vnf.id(),
                    rel,
                    arrival,
                    duration,
                    payment,
                    self.horizon,
                )
            },
        )
    }

    fn validate_durations(&self) -> Result<(), WorkloadError> {
        let t = self.horizon.len();
        let (lo, hi) = match self.durations {
            DurationModel::Uniform { lo, hi } => (lo, hi),
            DurationModel::Fixed(d) => (d, d),
        };
        if lo >= 1 && lo <= hi && lo <= t {
            Ok(())
        } else {
            Err(WorkloadError::InvalidDurationModel { lo, hi, horizon: t })
        }
    }

    fn draw_duration<R: Rng + ?Sized>(&self, arrival: usize, rng: &mut R) -> usize {
        let drawn = match self.durations {
            DurationModel::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            DurationModel::Fixed(d) => d,
        };
        let room = self.horizon.len() - arrival; // ≥ 1 since arrival < T
        drawn.clamp(1, room)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// The sort-based generator the placement replaced, kept as the
    /// oracle: every arrival drawn first, the rest of each request drawn
    /// in draw order, then a stable sort by `(arrival, draw index)` and
    /// ids renumbered.
    fn sorting_oracle<R: Rng + ?Sized>(
        g: &RequestGenerator,
        count: usize,
        catalog: &VnfCatalog,
        rng: &mut R,
    ) -> Result<Vec<Request>, WorkloadError> {
        if catalog.is_empty() {
            return Err(WorkloadError::UnknownVnfType(0));
        }
        g.validate_durations()?;
        let t = g.horizon.len();
        let arrivals: Vec<usize> = (0..count).map(|_| rng.gen_range(0..t)).collect();
        let mut drawn = Vec::with_capacity(count);
        for (i, arrival) in arrivals.into_iter().enumerate() {
            let duration = g.draw_duration(arrival, rng);
            let vnf = catalog.require(VnfTypeId(rng.gen_range(0..catalog.len())))?;
            let (rlo, rhi) = g.reliability_band;
            let rel = Reliability::new(rng.gen_range(rlo..=rhi))?;
            let (plo, phi) = g.payment_rate_band;
            let rate = rng.gen_range(plo..=phi);
            let payment = rate * duration as f64 * vnf.compute() as f64 * rel.value();
            drawn.push(Request::new(
                RequestId(i),
                vnf.id(),
                rel,
                arrival,
                duration,
                payment,
                g.horizon,
            )?);
        }
        drawn.sort_by_key(|r| (r.arrival(), r.id()));
        drawn
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Request::new(
                    RequestId(i),
                    r.vnf(),
                    r.reliability_requirement(),
                    r.arrival(),
                    r.duration(),
                    r.payment(),
                    g.horizon,
                )
            })
            .collect()
    }

    /// Bitwise view of a stream, so `-0.0`/`0.0` or a NaN cannot hide a
    /// difference behind float equality.
    fn bits(reqs: &[Request]) -> Vec<(usize, usize, u64, usize, usize, u64)> {
        reqs.iter()
            .map(|r| {
                (
                    r.id().index(),
                    r.vnf().index(),
                    r.reliability_requirement().value().to_bits(),
                    r.arrival(),
                    r.duration(),
                    r.payment().to_bits(),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Placement writes the stream the sorting oracle sorts into, bit
        /// for bit, and leaves the generator where the oracle leaves it —
        /// over one-slot to week-long horizons, empty and one-request
        /// streams, runs of equal arrivals, and both duration models.
        #[test]
        fn placement_matches_the_sorting_oracle(
            seed in 0u64..1_000_000,
            horizon_law in 0usize..4,
            slots in 1usize..12_000,
            count_law in 0usize..4,
            count in 2usize..600,
            duration_law in 0usize..2,
            lo in 1usize..12,
            span in 0usize..40,
        ) {
            // Short horizons (1–8 slots) give long runs of equal arrivals.
            let t = if horizon_law < 2 { slots % 8 + 1 } else { slots };
            let count = match count_law {
                0 => 0,
                1 => 1,
                _ => count,
            };
            let lo = lo.min(t);
            let durations = match duration_law {
                0 => DurationModel::Uniform { lo, hi: lo + span },
                _ => DurationModel::Fixed(lo),
            };
            let g = RequestGenerator::new(Horizon::new(t))
                .durations(durations)
                .unwrap();
            let cat = VnfCatalog::standard();
            let (mut a, mut b) = (rng(seed), rng(seed));
            let placed = g.generate(count, &cat, &mut a).unwrap();
            let sorted = sorting_oracle(&g, count, &cat, &mut b).unwrap();
            prop_assert_eq!(bits(&placed), bits(&sorted));
            prop_assert_eq!(placed.capacity(), placed.len());
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    fn standard() -> (RequestGenerator, VnfCatalog) {
        (
            RequestGenerator::new(Horizon::new(60)),
            VnfCatalog::standard(),
        )
    }

    #[test]
    fn generates_exact_count_in_arrival_order() {
        let (g, cat) = standard();
        let reqs = g.generate(500, &cat, &mut rng(1)).unwrap();
        assert_eq!(reqs.len(), 500);
        for w in reqs.windows(2) {
            assert!(w[0].arrival() <= w[1].arrival());
        }
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id().index(), i);
            assert!(r.end_slot() < 60);
        }
    }

    #[test]
    fn payments_respect_rate_band() {
        let (g, cat) = standard();
        let g = g.payment_rate_band(4.0, 8.0).unwrap();
        let reqs = g.generate(300, &cat, &mut rng(2)).unwrap();
        for r in &reqs {
            let vnf = cat.get(r.vnf()).unwrap();
            let rate = r.payment_rate(vnf);
            assert!(
                (4.0 - 1e-9..=8.0 + 1e-9).contains(&rate),
                "rate {rate} out of band"
            );
        }
    }

    #[test]
    fn reliability_band_respected() {
        let (g, cat) = standard();
        let g = g.reliability_band(0.92, 0.95).unwrap();
        let reqs = g.generate(200, &cat, &mut rng(3)).unwrap();
        for r in &reqs {
            let v = r.reliability_requirement().value();
            assert!((0.92..=0.95).contains(&v));
        }
    }

    #[test]
    fn fixed_duration_clamped_to_horizon_room() {
        let g = RequestGenerator::new(Horizon::new(10))
            .durations(DurationModel::Fixed(4))
            .unwrap();
        let cat = VnfCatalog::standard();
        let reqs = g.generate(100, &cat, &mut rng(5)).unwrap();
        for r in &reqs {
            assert!(r.duration() <= 4);
            assert!(r.end_slot() < 10);
        }
    }

    #[test]
    fn parameter_validation() {
        let (g, _cat) = standard();
        assert!(g.clone().reliability_band(0.0, 0.9).is_err());
        assert!(g.clone().reliability_band(0.9, 1.0).is_err());
        assert!(g.clone().payment_rate_band(0.0, 5.0).is_err());
        assert!(g.clone().payment_rate_band(6.0, 5.0).is_err());
        // Inverted, zero, and over-horizon duration models are rejected
        // at construction with the typed error.
        assert_eq!(
            g.clone()
                .durations(DurationModel::Uniform { lo: 5, hi: 2 })
                .unwrap_err(),
            WorkloadError::InvalidDurationModel {
                lo: 5,
                hi: 2,
                horizon: g.horizon().len(),
            }
        );
        assert!(g.clone().durations(DurationModel::Fixed(0)).is_err());
        assert!(g
            .clone()
            .durations(DurationModel::Fixed(g.horizon().len() + 1))
            .is_err());
        let empty = VnfCatalog::from_specs(Vec::<(&str, u64, f64)>::new()).unwrap();
        assert!(g.generate(10, &empty, &mut rng(0)).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let (g, cat) = standard();
        let a = g.generate(100, &cat, &mut rng(9)).unwrap();
        let b = g.generate(100, &cat, &mut rng(9)).unwrap();
        assert_eq!(a, b);
    }
}
