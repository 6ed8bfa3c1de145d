//! Service-function-chain requests and their seeded generator.
//!
//! A chain request `σ_i = (⟨f_1..f_K⟩, R_i, L_i, v_i, a_i, d_i, pay_i)`
//! asks for an *ordered* sequence of VNF stages with one end-to-end
//! reliability requirement `R_i` **and** one end-to-end latency budget
//! `L_i`: traffic enters the network at the ingress access point `v_i`,
//! must traverse the stages in order, and the sum of the ingress→stage-1
//! and stage-to-stage path latencies may not exceed `L_i`. The chain is
//! up only when *every* stage has at least one live instance, so each
//! stage's availability multiplies into the end-to-end figure.
//!
//! Placement (which cloudlet hosts which stage, and along which paths)
//! is the scheduler's job in the `vnfrel` crate; this module only models
//! the request tuple and generates seeded workloads of them.

use std::fmt;

use mec_topology::{NodeId, Reliability};
use rand::Rng;

use crate::error::WorkloadError;
use crate::placement::place_by_arrival;
use crate::time::{Horizon, TimeSlot};
use crate::vnf::{VnfCatalog, VnfTypeId};

/// Identifier of a chain request, dense in arrival order.
///
/// Chain ids live in their own namespace, disjoint from single-VNF
/// [`RequestId`](crate::RequestId)s — a mixed workload carries both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChainRequestId(pub usize);

impl ChainRequestId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ChainRequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ{}", self.0)
    }
}

/// A service-function-chain request: an ordered sequence of VNF types
/// with one end-to-end reliability requirement and one end-to-end
/// latency budget, entering the network at a fixed ingress access point.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRequest {
    id: ChainRequestId,
    stages: Vec<VnfTypeId>,
    reliability_req: Reliability,
    latency_budget: f64,
    ingress: NodeId,
    arrival: TimeSlot,
    duration: usize,
    payment: f64,
}

impl ChainRequest {
    /// Creates a chain request after validating every field.
    ///
    /// The latency budget must be positive; `f64::INFINITY` is accepted
    /// and means "unconstrained" (used e.g. when a single-VNF request is
    /// lifted into a one-stage chain). The ingress node is validated
    /// against the concrete network by the scheduler, not here.
    ///
    /// # Errors
    ///
    /// * [`WorkloadError::InvalidParameter`] for an empty chain or a
    ///   non-positive/NaN latency budget.
    /// * [`WorkloadError::ZeroDuration`] / [`WorkloadError::InvalidPayment`]
    ///   / [`WorkloadError::WindowOutsideHorizon`] as for plain requests.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: ChainRequestId,
        stages: Vec<VnfTypeId>,
        reliability_req: Reliability,
        latency_budget: f64,
        ingress: NodeId,
        arrival: TimeSlot,
        duration: usize,
        payment: f64,
        horizon: Horizon,
    ) -> Result<Self, WorkloadError> {
        if stages.is_empty() {
            return Err(WorkloadError::InvalidParameter("empty chain"));
        }
        // NaN is rejected explicitly; +inf passes (unconstrained).
        if latency_budget.is_nan() || latency_budget <= 0.0 {
            return Err(WorkloadError::InvalidParameter(
                "latency budget must be positive",
            ));
        }
        if duration == 0 {
            return Err(WorkloadError::ZeroDuration);
        }
        if !payment.is_finite() || payment <= 0.0 {
            return Err(WorkloadError::InvalidPayment(payment));
        }
        if !horizon.contains_window(arrival, duration) {
            return Err(WorkloadError::WindowOutsideHorizon {
                arrival,
                duration,
                horizon: horizon.len(),
            });
        }
        Ok(ChainRequest {
            id,
            stages,
            reliability_req,
            latency_budget,
            ingress,
            arrival,
            duration,
            payment,
        })
    }

    /// Dense identifier (arrival order).
    pub fn id(&self) -> ChainRequestId {
        self.id
    }

    /// The VNF stages, in traversal order.
    pub fn stages(&self) -> &[VnfTypeId] {
        &self.stages
    }

    /// Chain length `K`.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Chains are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// End-to-end reliability requirement `R_i`.
    pub fn reliability_requirement(&self) -> Reliability {
        self.reliability_req
    }

    /// End-to-end latency budget `L_i` (possibly `+inf`).
    pub fn latency_budget(&self) -> f64 {
        self.latency_budget
    }

    /// Ingress access point where the chain's traffic enters.
    pub fn ingress(&self) -> NodeId {
        self.ingress
    }

    /// Arrival slot.
    pub fn arrival(&self) -> TimeSlot {
        self.arrival
    }

    /// Execution duration in slots.
    pub fn duration(&self) -> usize {
        self.duration
    }

    /// Last slot of the execution window.
    pub fn end_slot(&self) -> TimeSlot {
        self.arrival + self.duration - 1
    }

    /// The execution slots, in order.
    pub fn slots(&self) -> std::ops::RangeInclusive<TimeSlot> {
        self.arrival..=self.end_slot()
    }

    /// Payment collected if admitted.
    pub fn payment(&self) -> f64 {
        self.payment
    }
}

impl fmt::Display for ChainRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.id)?;
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                write!(f, "→")?;
            }
            write!(f, "{s}")?;
        }
        write!(
            f,
            "] R={} L≤{} in=n{} t=[{}..={}] pay={}",
            self.reliability_req,
            self.latency_budget,
            self.ingress.index(),
            self.arrival,
            self.end_slot(),
            self.payment
        )
    }
}

/// Seeded generator for chain workloads, mirroring
/// [`RequestGenerator`](crate::RequestGenerator): every band is
/// configurable, payments are drawn through a payment *rate* multiplied
/// by duration and the chain's total per-slot compute demand, and the
/// output is in arrival order with dense ids.
#[derive(Debug, Clone)]
pub struct ChainGenerator {
    horizon: Horizon,
    len_band: (usize, usize),
    reliability_band: (f64, f64),
    payment_rate_band: (f64, f64),
    latency_budget_band: (f64, f64),
    max_duration: usize,
    ingress_nodes: usize,
}

impl ChainGenerator {
    /// Creates a generator with the default bands: chain lengths in
    /// `[2, 4]`, requirements in `[0.9, 0.98]`, payment rates in
    /// `[5, 10]`, latency budgets in `[4, 24]`, durations up to 4 slots,
    /// ingress drawn from `ingress_nodes` access points.
    pub fn new(horizon: Horizon, ingress_nodes: usize) -> Self {
        ChainGenerator {
            horizon,
            len_band: (2, 4),
            reliability_band: (0.9, 0.98),
            payment_rate_band: (5.0, 10.0),
            latency_budget_band: (4.0, 24.0),
            max_duration: 4.min(horizon.len()),
            ingress_nodes: ingress_nodes.max(1),
        }
    }

    /// Sets the chain-length band `[lo, hi]` (stages per chain).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidParameter`] unless `1 ≤ lo ≤ hi`.
    pub fn length_band(mut self, lo: usize, hi: usize) -> Result<Self, WorkloadError> {
        if lo == 0 || lo > hi {
            return Err(WorkloadError::InvalidParameter("chain length band"));
        }
        self.len_band = (lo, hi);
        Ok(self)
    }

    /// Sets the reliability-requirement band `[lo, hi] ⊂ (0, 1)`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidParameter`] for an inverted or out-of-range
    /// band.
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
    /// [`WorkloadError::InvalidParameter`] for a non-positive or inverted
    /// band.
    pub fn payment_rate_band(mut self, lo: f64, hi: f64) -> Result<Self, WorkloadError> {
        if !(lo > 0.0 && lo <= hi && hi.is_finite()) {
            return Err(WorkloadError::InvalidParameter("payment rate band"));
        }
        self.payment_rate_band = (lo, hi);
        Ok(self)
    }

    /// Sets the latency-budget band `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidParameter`] for a non-positive or inverted
    /// band.
    pub fn latency_budget_band(mut self, lo: f64, hi: f64) -> Result<Self, WorkloadError> {
        if !(lo > 0.0 && lo <= hi && hi.is_finite()) {
            return Err(WorkloadError::InvalidParameter("latency budget band"));
        }
        self.latency_budget_band = (lo, hi);
        Ok(self)
    }

    /// Sets the longest duration drawn, clamped to the horizon.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidParameter`] if zero.
    pub fn max_duration(mut self, slots: usize) -> Result<Self, WorkloadError> {
        if slots == 0 {
            return Err(WorkloadError::InvalidParameter("max duration"));
        }
        self.max_duration = slots.min(self.horizon.len());
        Ok(self)
    }

    /// Generates exactly `count` chain requests in arrival order.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::UnknownVnfType`] for an empty catalog; otherwise
    /// construction errors are impossible by the band invariants.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        count: usize,
        catalog: &VnfCatalog,
        rng: &mut R,
    ) -> Result<Vec<ChainRequest>, WorkloadError> {
        if catalog.is_empty() {
            return Err(WorkloadError::UnknownVnfType(0));
        }
        let t = self.horizon.len();
        // (arrival, duration, stages, reliability, budget, rate, ingress)
        type Drawn = (TimeSlot, usize, Vec<VnfTypeId>, f64, f64, f64, usize);
        let mut drawn: Vec<Drawn> = Vec::with_capacity(count);
        for _ in 0..count {
            let k = rng.gen_range(self.len_band.0..=self.len_band.1);
            let stages: Vec<VnfTypeId> = (0..k)
                .map(|_| VnfTypeId(rng.gen_range(0..catalog.len())))
                .collect();
            let duration = rng.gen_range(1..=self.max_duration.max(1).min(t));
            let arrival = rng.gen_range(0..=t - duration);
            let (rlo, rhi) = self.reliability_band;
            let rel = rng.gen_range(rlo..=rhi);
            let (llo, lhi) = self.latency_budget_band;
            let budget = rng.gen_range(llo..=lhi);
            let ingress = rng.gen_range(0..self.ingress_nodes);
            let (plo, phi) = self.payment_rate_band;
            let rate = rng.gen_range(plo..=phi);
            drawn.push((arrival, duration, stages, rel, budget, rate, ingress));
        }
        // Holds each place until its chain is written over it; owns no
        // stages, so filling costs no allocation.
        let filler = ChainRequest {
            id: ChainRequestId(0),
            stages: Vec::new(),
            reliability_req: Reliability::new(self.reliability_band.0)?,
            latency_budget: self.latency_budget_band.0,
            ingress: NodeId(0),
            arrival: 0,
            duration: 1,
            payment: self.payment_rate_band.0,
        };
        place_by_arrival(
            drawn,
            |d| d.0,
            self.horizon,
            filler,
            |(arrival, duration, stages, rel, budget, rate, ingress), id| {
                let total_compute: u64 = stages
                    .iter()
                    .map(|&s| catalog.require(s).map(|v| v.compute()))
                    .sum::<Result<u64, _>>()?;
                let payment = rate * duration as f64 * total_compute as f64 * rel;
                ChainRequest::new(
                    ChainRequestId(id),
                    stages,
                    Reliability::new(rel)?,
                    budget,
                    NodeId(ingress),
                    arrival,
                    duration,
                    payment,
                    self.horizon,
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rel(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    /// The sort-based generator the placement replaced, kept as the
    /// oracle: every chain drawn in draw order, stably sorted by arrival,
    /// then built with ids in sorted order.
    fn sorting_oracle<R: Rng + ?Sized>(
        g: &ChainGenerator,
        count: usize,
        catalog: &VnfCatalog,
        rng: &mut R,
    ) -> Vec<ChainRequest> {
        let t = g.horizon.len();
        let mut drawn = Vec::with_capacity(count);
        for _ in 0..count {
            let k = rng.gen_range(g.len_band.0..=g.len_band.1);
            let stages: Vec<VnfTypeId> = (0..k)
                .map(|_| VnfTypeId(rng.gen_range(0..catalog.len())))
                .collect();
            let duration = rng.gen_range(1..=g.max_duration.max(1).min(t));
            let arrival = rng.gen_range(0..=t - duration);
            let rel = rng.gen_range(g.reliability_band.0..=g.reliability_band.1);
            let budget = rng.gen_range(g.latency_budget_band.0..=g.latency_budget_band.1);
            let ingress = rng.gen_range(0..g.ingress_nodes);
            let rate = rng.gen_range(g.payment_rate_band.0..=g.payment_rate_band.1);
            drawn.push((arrival, duration, stages, rel, budget, rate, ingress));
        }
        drawn.sort_by_key(|d| d.0);
        drawn
            .into_iter()
            .enumerate()
            .map(
                |(i, (arrival, duration, stages, rel, budget, rate, ingress))| {
                    let total: u64 = stages
                        .iter()
                        .map(|&s| catalog.get(s).unwrap().compute())
                        .sum();
                    let payment = rate * duration as f64 * total as f64 * rel;
                    ChainRequest::new(
                        ChainRequestId(i),
                        stages,
                        Reliability::new(rel).unwrap(),
                        budget,
                        NodeId(ingress),
                        arrival,
                        duration,
                        payment,
                        g.horizon,
                    )
                    .unwrap()
                },
            )
            .collect()
    }

    /// Bitwise view of a chain stream.
    type Bits = (usize, Vec<VnfTypeId>, u64, u64, usize, usize, usize, u64);

    fn bits(chains: &[ChainRequest]) -> Vec<Bits> {
        chains
            .iter()
            .map(|c| {
                (
                    c.id().index(),
                    c.stages().to_vec(),
                    c.reliability_requirement().value().to_bits(),
                    c.latency_budget().to_bits(),
                    c.ingress().index(),
                    c.arrival(),
                    c.duration(),
                    c.payment().to_bits(),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Placement writes the stream the sorting oracle sorts into, bit
        /// for bit, and leaves the generator where the oracle leaves it,
        /// over one-slot and longer horizons, empty and one-chain streams
        /// and runs of equal arrivals.
        #[test]
        fn placement_matches_the_sorting_oracle(
            seed in 0u64..1_000_000,
            horizon_law in 0usize..4,
            slots in 1usize..3_000,
            count_law in 0usize..4,
            count in 2usize..400,
            len_lo in 1usize..4,
            len_span in 0usize..3,
            max_duration in 1usize..30,
            ingress in 1usize..12,
        ) {
            let t = if horizon_law < 2 { slots % 8 + 1 } else { slots };
            let count = match count_law {
                0 => 0,
                1 => 1,
                _ => count,
            };
            let g = ChainGenerator::new(Horizon::new(t), ingress)
                .length_band(len_lo, len_lo + len_span)
                .unwrap()
                .max_duration(max_duration)
                .unwrap();
            let cat = VnfCatalog::standard();
            let (mut a, mut b) = (ChaCha8Rng::seed_from_u64(seed), ChaCha8Rng::seed_from_u64(seed));
            let placed = g.generate(count, &cat, &mut a).unwrap();
            let sorted = sorting_oracle(&g, count, &cat, &mut b);
            prop_assert_eq!(bits(&placed), bits(&sorted));
            prop_assert_eq!(placed.capacity(), placed.len());
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn construction_and_accessors() {
        let c = ChainRequest::new(
            ChainRequestId(0),
            vec![VnfTypeId(0), VnfTypeId(3), VnfTypeId(1)],
            rel(0.9),
            12.5,
            NodeId(4),
            2,
            3,
            12.0,
            Horizon::new(10),
        )
        .unwrap();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.end_slot(), 4);
        assert_eq!(c.slots().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(c.stages()[1], VnfTypeId(3));
        assert_eq!(c.latency_budget(), 12.5);
        assert_eq!(c.ingress(), NodeId(4));
        let s = c.to_string();
        assert!(s.contains("f0→f3→f1"), "{s}");
        assert!(s.contains("L≤12.5"), "{s}");
    }

    #[test]
    fn infinite_budget_is_unconstrained() {
        let c = ChainRequest::new(
            ChainRequestId(0),
            vec![VnfTypeId(0)],
            rel(0.9),
            f64::INFINITY,
            NodeId(0),
            0,
            1,
            1.0,
            Horizon::new(5),
        )
        .unwrap();
        assert_eq!(c.latency_budget(), f64::INFINITY);
    }

    #[test]
    fn validation() {
        let h = Horizon::new(5);
        let mk = |stages: Vec<VnfTypeId>, budget: f64, arrival, dur, pay| {
            ChainRequest::new(
                ChainRequestId(0),
                stages,
                rel(0.9),
                budget,
                NodeId(0),
                arrival,
                dur,
                pay,
                h,
            )
        };
        assert!(matches!(
            mk(vec![], 1.0, 0, 1, 1.0),
            Err(WorkloadError::InvalidParameter(_))
        ));
        assert!(matches!(
            mk(vec![VnfTypeId(0)], 0.0, 0, 1, 1.0),
            Err(WorkloadError::InvalidParameter(_))
        ));
        assert!(matches!(
            mk(vec![VnfTypeId(0)], f64::NAN, 0, 1, 1.0),
            Err(WorkloadError::InvalidParameter(_))
        ));
        assert!(matches!(
            mk(vec![VnfTypeId(0)], 1.0, 0, 0, 1.0),
            Err(WorkloadError::ZeroDuration)
        ));
        assert!(matches!(
            mk(vec![VnfTypeId(0)], 1.0, 0, 1, -1.0),
            Err(WorkloadError::InvalidPayment(_))
        ));
        assert!(matches!(
            mk(vec![VnfTypeId(0)], 1.0, 4, 3, 1.0),
            Err(WorkloadError::WindowOutsideHorizon { .. })
        ));
    }

    #[test]
    fn generator_is_seeded_and_in_bounds() {
        let catalog = VnfCatalog::standard();
        let gen = ChainGenerator::new(Horizon::new(20), 8)
            .length_band(2, 5)
            .unwrap()
            .reliability_band(0.9, 0.95)
            .unwrap()
            .latency_budget_band(3.0, 9.0)
            .unwrap()
            .payment_rate_band(2.0, 4.0)
            .unwrap()
            .max_duration(3)
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a = gen.generate(50, &catalog, &mut rng).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let b = gen.generate(50, &catalog, &mut rng).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same workload");
        for (i, c) in a.iter().enumerate() {
            assert_eq!(c.id().index(), i, "ids dense in arrival order");
            assert!(c.len() >= 2 && c.len() <= 5);
            assert!(c.end_slot() < 20);
            assert!(c.duration() <= 3);
            let r = c.reliability_requirement().value();
            assert!((0.9..=0.95).contains(&r));
            assert!((3.0..=9.0).contains(&c.latency_budget()));
            assert!(c.ingress().index() < 8);
            assert!(c.payment() > 0.0);
        }
        assert!(a.windows(2).all(|w| w[0].arrival() <= w[1].arrival()));
    }

    #[test]
    fn generator_rejects_bad_bands() {
        let h = Horizon::new(10);
        assert!(ChainGenerator::new(h, 4).length_band(0, 2).is_err());
        assert!(ChainGenerator::new(h, 4).length_band(3, 2).is_err());
        assert!(ChainGenerator::new(h, 4)
            .reliability_band(0.9, 1.0)
            .is_err());
        assert!(ChainGenerator::new(h, 4)
            .payment_rate_band(-1.0, 2.0)
            .is_err());
        assert!(ChainGenerator::new(h, 4)
            .latency_budget_band(5.0, 4.0)
            .is_err());
        assert!(ChainGenerator::new(h, 4).max_duration(0).is_err());
        let empty = VnfCatalog::from_specs(Vec::<(String, u64, f64)>::new()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(ChainGenerator::new(h, 4)
            .generate(3, &empty, &mut rng)
            .is_err());
    }
}
