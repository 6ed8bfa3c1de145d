use rand::Rng;

use mec_topology::Reliability;

use crate::distributions::{poisson, BoundedPareto, Zipf};
use crate::error::WorkloadError;
use crate::placement::place_by_arrival;
use crate::request::{Request, RequestId};
use crate::time::Horizon;
use crate::vnf::{VnfCatalog, VnfTypeId};

/// How arrival slots are assigned to generated requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Each request's arrival is uniform over the whole horizon; matches
    /// the paper's "randomly generated" requests. The duration is drawn
    /// after the arrival and clamped to the slots left before the horizon
    /// ends, so a request that arrives late gets a shortened window (21.9 %
    /// of requests with durations uniform in `[1, 8]` over 16 slots).
    /// [`ChainGenerator`](crate::ChainGenerator) draws the duration first
    /// and the arrival over the slots where that window fits, so it never
    /// shortens one.
    Uniform,
    /// Arrivals follow a per-slot Poisson process whose rate is scaled so
    /// the expected total matches the requested count; produces bursty,
    /// trace-like arrival patterns.
    Poisson {
        /// Multiplies the per-slot rate; 1.0 keeps the expected total equal
        /// to the requested count, larger values front-load the horizon.
        burstiness: f64,
    },
}

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
    /// Bounded-Pareto over `[lo, hi]` slots — heavy-tailed like cluster
    /// traces.
    Pareto {
        /// Minimum duration in slots.
        lo: usize,
        /// Maximum duration in slots.
        hi: usize,
        /// Tail exponent (smaller = heavier tail).
        alpha: f64,
    },
    /// Every request runs exactly this many slots.
    Fixed(usize),
}

/// A [`DurationModel`] ready to draw from: the Pareto law is built once
/// per stream, not once per request.
enum DurationLaw {
    Uniform { lo: usize, hi: usize },
    Pareto(BoundedPareto),
    Fixed(usize),
}

impl DurationLaw {
    fn new(model: DurationModel) -> Result<Self, WorkloadError> {
        Ok(match model {
            DurationModel::Uniform { lo, hi } => DurationLaw::Uniform { lo, hi },
            DurationModel::Pareto { lo, hi, alpha } => {
                DurationLaw::Pareto(BoundedPareto::new(lo as f64, hi as f64 + 0.999, alpha)?)
            }
            DurationModel::Fixed(d) => DurationLaw::Fixed(d),
        })
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match self {
            DurationLaw::Uniform { lo, hi } => rng.gen_range(*lo..=*hi),
            DurationLaw::Pareto(dist) => dist.sample(rng).floor() as usize,
            DurationLaw::Fixed(d) => *d,
        }
    }
}

/// How requested VNF types are drawn from the catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VnfSelection {
    /// Uniform over the catalog.
    Uniform,
    /// Zipf-skewed popularity with exponent `s` (rank 0 = first type).
    Zipf(f64),
}

/// Seeded random workload generator.
///
/// Defaults reproduce the paper's Section VI settings: requirements and
/// payments "randomly generated but in the same specific ranges", with the
/// payment drawn through the payment *rate*
/// `pr_i = pay_i / (d_i · c(f_i) · R_i)` so the ratio `H = pr_max / pr_min`
/// can be swept directly (Figure 2(a)).
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
    arrivals: ArrivalProcess,
    durations: DurationModel,
    vnf_selection: VnfSelection,
    reliability_band: (f64, f64),
    payment_rate_band: (f64, f64),
}

impl RequestGenerator {
    /// Creates a generator with the paper-like defaults: uniform arrivals,
    /// durations uniform in `[1, 8]`, uniform VNF popularity, reliability
    /// requirements in `[0.9, 0.98]`, payment rates in `[5, 10]`
    /// (`H = 2`).
    pub fn new(horizon: Horizon) -> Self {
        RequestGenerator {
            horizon,
            arrivals: ArrivalProcess::Uniform,
            durations: DurationModel::Uniform { lo: 1, hi: 8 },
            vnf_selection: VnfSelection::Uniform,
            reliability_band: (0.9, 0.98),
            payment_rate_band: (5.0, 10.0),
        }
    }

    /// The horizon requests are generated into.
    pub fn horizon(&self) -> Horizon {
        self.horizon
    }

    /// Sets the arrival process.
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
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

    /// Sets the VNF-type selection law.
    pub fn vnf_selection(mut self, sel: VnfSelection) -> Self {
        self.vnf_selection = sel;
        self
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

    /// Fixes `pr_max` and sets `pr_min = pr_max / h` — the Figure 2(a)
    /// sweep of the payment-rate variation `H = pr_max / pr_min`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] unless `h ≥ 1`.
    pub fn payment_ratio(self, h: f64) -> Result<Self, WorkloadError> {
        let valid = h.is_finite() && h >= 1.0;
        if !valid {
            return Err(WorkloadError::InvalidParameter("payment ratio H"));
        }
        let hi = self.payment_rate_band.1;
        self.payment_rate_band(hi / h, hi)
    }

    /// The current `H = pr_max / pr_min`.
    pub fn payment_ratio_value(&self) -> f64 {
        self.payment_rate_band.1 / self.payment_rate_band.0
    }

    /// Generates exactly `count` requests in arrival order, with ids dense
    /// in that order; requests that arrive in the same slot keep the order
    /// they were drawn in.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::UnknownVnfType`] for an empty catalog, or
    /// an [`WorkloadError::InvalidParameter`] from a degenerate duration
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
        let durations = DurationLaw::new(self.durations)?;
        let zipf = match self.vnf_selection {
            VnfSelection::Zipf(s) => Some(Zipf::new(catalog.len(), s)?),
            VnfSelection::Uniform => None,
        };
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
        let arrivals = self.draw_arrivals(count, rng);
        place_by_arrival(
            arrivals,
            |&a| a,
            self.horizon,
            filler,
            |arrival, id| {
                let duration = self.draw_duration(arrival, &durations, rng);
                let vnf_idx = match &zipf {
                    Some(z) => z.sample(rng),
                    None => rng.gen_range(0..catalog.len()),
                };
                let vnf = catalog.require(VnfTypeId(vnf_idx))?;
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
        let (lo, hi, ok) = match self.durations {
            DurationModel::Uniform { lo, hi } => (lo, hi, lo >= 1 && lo <= hi && lo <= t),
            DurationModel::Pareto { lo, hi, alpha } => {
                (lo, hi, lo >= 1 && lo <= hi && lo <= t && alpha > 0.0)
            }
            DurationModel::Fixed(d) => (d, d, d >= 1 && d <= t),
        };
        if ok {
            Ok(())
        } else {
            Err(WorkloadError::InvalidDurationModel { lo, hi, horizon: t })
        }
    }

    fn draw_arrivals<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        let t = self.horizon.len();
        match self.arrivals {
            ArrivalProcess::Uniform => (0..count).map(|_| rng.gen_range(0..t)).collect(),
            ArrivalProcess::Poisson { burstiness } => {
                let rate = (count as f64 / t as f64) * burstiness.max(0.0);
                // Arrivals per slot; read out in slot order, which is the
                // order the rest of each request is then drawn in.
                let mut per_slot = vec![0usize; t];
                let mut drawn = 0;
                'outer: loop {
                    for n in per_slot.iter_mut() {
                        let k = poisson(rate, rng).min(count - drawn);
                        *n += k;
                        drawn += k;
                        if k > 0 && drawn == count {
                            break 'outer;
                        }
                    }
                    if rate == 0.0 {
                        // Degenerate rate: fall back to uniform fill.
                        while drawn < count {
                            per_slot[rng.gen_range(0..t)] += 1;
                            drawn += 1;
                        }
                        break;
                    }
                }
                let mut out = Vec::with_capacity(count);
                for (slot, &n) in per_slot.iter().enumerate() {
                    out.extend(std::iter::repeat_n(slot, n));
                }
                out
            }
        }
    }

    fn draw_duration<R: Rng + ?Sized>(
        &self,
        arrival: usize,
        law: &DurationLaw,
        rng: &mut R,
    ) -> usize {
        let room = self.horizon.len() - arrival; // ≥ 1 since arrival < T
        law.sample(rng).clamp(1, room)
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
    /// oracle: every arrival drawn first (Poisson arrivals pushed per
    /// slot and sorted), the rest of each request drawn in that order,
    /// then a stable sort by `(arrival, draw index)` and ids renumbered.
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
        let durations = DurationLaw::new(g.durations)?;
        let zipf = match g.vnf_selection {
            VnfSelection::Zipf(s) => Some(Zipf::new(catalog.len(), s)?),
            VnfSelection::Uniform => None,
        };
        let t = g.horizon.len();
        let arrivals: Vec<usize> = match g.arrivals {
            ArrivalProcess::Uniform => (0..count).map(|_| rng.gen_range(0..t)).collect(),
            ArrivalProcess::Poisson { burstiness } => {
                let rate = (count as f64 / t as f64) * burstiness.max(0.0);
                let mut out = Vec::with_capacity(count);
                'outer: loop {
                    for slot in 0..t {
                        for _ in 0..poisson(rate, rng) {
                            out.push(slot);
                            if out.len() == count {
                                break 'outer;
                            }
                        }
                    }
                    if rate == 0.0 {
                        while out.len() < count {
                            out.push(rng.gen_range(0..t));
                        }
                        break;
                    }
                }
                out.sort_unstable();
                out
            }
        };
        let mut drawn = Vec::with_capacity(count);
        for (i, arrival) in arrivals.into_iter().enumerate() {
            let duration = g.draw_duration(arrival, &durations, rng);
            let vnf_idx = match &zipf {
                Some(z) => z.sample(rng),
                None => rng.gen_range(0..catalog.len()),
            };
            let vnf = catalog.require(VnfTypeId(vnf_idx))?;
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
        /// streams, runs of equal arrivals, and every arrival, duration
        /// and VNF law (Poisson at rates that wrap past the horizon and
        /// at the degenerate zero rate).
        #[test]
        fn placement_matches_the_sorting_oracle(
            seed in 0u64..1_000_000,
            horizon_law in 0usize..4,
            slots in 1usize..12_000,
            count_law in 0usize..4,
            count in 2usize..600,
            arrival_law in 0usize..3,
            burstiness in 0.05f64..5.0,
            duration_law in 0usize..3,
            lo in 1usize..12,
            span in 0usize..40,
            alpha in 0.3f64..2.5,
            zipf_law in 0usize..2,
            zipf_s in 0.2f64..2.5,
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
                1 => DurationModel::Pareto { lo, hi: lo + span, alpha },
                _ => DurationModel::Fixed(lo),
            };
            let arrivals = match arrival_law {
                0 => ArrivalProcess::Uniform,
                1 => ArrivalProcess::Poisson { burstiness },
                _ => ArrivalProcess::Poisson { burstiness: 0.0 },
            };
            let selection = match zipf_law {
                0 => VnfSelection::Uniform,
                _ => VnfSelection::Zipf(zipf_s),
            };
            let g = RequestGenerator::new(Horizon::new(t))
                .arrivals(arrivals)
                .vnf_selection(selection)
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
    fn payment_ratio_fixes_max_and_lowers_min() {
        let (g, _) = standard();
        let g = g.payment_rate_band(2.0, 10.0).unwrap();
        let g = g.payment_ratio(5.0).unwrap();
        assert!((g.payment_ratio_value() - 5.0).abs() < 1e-12);
        let g = g.payment_ratio(1.0).unwrap();
        assert!((g.payment_ratio_value() - 1.0).abs() < 1e-12);
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
    fn poisson_arrivals_cover_horizon() {
        let (g, cat) = standard();
        let g = g.arrivals(ArrivalProcess::Poisson { burstiness: 1.0 });
        let reqs = g.generate(400, &cat, &mut rng(4)).unwrap();
        assert_eq!(reqs.len(), 400);
        let first = reqs.first().unwrap().arrival();
        let last = reqs.last().unwrap().arrival();
        assert!(last > first);
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
    fn pareto_durations_are_heavy_tailed() {
        let g = RequestGenerator::new(Horizon::new(200))
            .durations(DurationModel::Pareto {
                lo: 1,
                hi: 50,
                alpha: 1.1,
            })
            .unwrap();
        let cat = VnfCatalog::standard();
        let reqs = g.generate(2000, &cat, &mut rng(6)).unwrap();
        let short = reqs.iter().filter(|r| r.duration() <= 3).count();
        let long = reqs.iter().filter(|r| r.duration() >= 20).count();
        assert!(short > reqs.len() / 2);
        assert!(long > 0);
    }

    #[test]
    fn zipf_vnf_selection_skews() {
        let (g, cat) = standard();
        let g = g.vnf_selection(VnfSelection::Zipf(1.5));
        let reqs = g.generate(2000, &cat, &mut rng(7)).unwrap();
        let mut counts = vec![0usize; cat.len()];
        for r in &reqs {
            counts[r.vnf().index()] += 1;
        }
        assert!(counts[0] > counts[9] * 3);
    }

    #[test]
    fn parameter_validation() {
        let (g, _cat) = standard();
        assert!(g.clone().reliability_band(0.0, 0.9).is_err());
        assert!(g.clone().reliability_band(0.9, 1.0).is_err());
        assert!(g.clone().payment_rate_band(0.0, 5.0).is_err());
        assert!(g.clone().payment_rate_band(6.0, 5.0).is_err());
        assert!(g.clone().payment_ratio(0.5).is_err());
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
            .durations(DurationModel::Pareto {
                lo: 2,
                hi: 1,
                alpha: 1.0
            })
            .is_err());
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
