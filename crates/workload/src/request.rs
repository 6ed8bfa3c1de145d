use std::fmt;

use mec_topology::Reliability;

use crate::error::WorkloadError;
use crate::time::{Horizon, TimeSlot};
use crate::vnf::{VnfType, VnfTypeId};

/// Identifier of a request, dense in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub usize);

impl RequestId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ρ{}", self.0)
    }
}

/// A user request `ρ_i = (f_i, R_i, a_i, d_i, pay_i)`.
///
/// The request asks for one VNF service of type `f_i`, requires that the
/// probability at least one of its (primary + backup) instances is alive is
/// at least `R_i`, arrives at slot `a_i`, executes for `d_i` consecutive
/// slots, and pays `pay_i` if admitted.
///
/// The paper encodes the window as a binary vector `V_i` of length `T`;
/// [`Request::active_at`] and [`Request::slots`] provide the same
/// information without materializing the vector (use
/// [`Request::activity_vector`] when the explicit form is needed, e.g. for
/// LP constraint rows).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    id: RequestId,
    vnf: VnfTypeId,
    reliability_req: Reliability,
    arrival: TimeSlot,
    duration: usize,
    payment: f64,
}

impl Request {
    /// Creates a request after validating every field.
    ///
    /// # Errors
    ///
    /// * [`WorkloadError::ZeroDuration`] if `duration == 0`.
    /// * [`WorkloadError::InvalidPayment`] unless `payment` is finite and
    ///   positive.
    /// * [`WorkloadError::WindowOutsideHorizon`] if the execution window
    ///   does not fit inside `horizon` (the paper only considers requests
    ///   with `a_i + d_i − 1 ∈ T`).
    pub fn new(
        id: RequestId,
        vnf: VnfTypeId,
        reliability_req: Reliability,
        arrival: TimeSlot,
        duration: usize,
        payment: f64,
        horizon: Horizon,
    ) -> Result<Self, WorkloadError> {
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
        Ok(Request {
            id,
            vnf,
            reliability_req,
            arrival,
            duration,
            payment,
        })
    }

    /// Dense identifier (arrival order).
    #[inline]
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Requested VNF type `f_i`.
    #[inline]
    pub fn vnf(&self) -> VnfTypeId {
        self.vnf
    }

    /// Reliability requirement `R_i`.
    #[inline]
    pub fn reliability_requirement(&self) -> Reliability {
        self.reliability_req
    }

    /// Arrival slot `a_i` (0-indexed).
    #[inline]
    pub fn arrival(&self) -> TimeSlot {
        self.arrival
    }

    /// Execution duration `d_i` in slots.
    #[inline]
    pub fn duration(&self) -> usize {
        self.duration
    }

    /// Last slot of the execution window, `a_i + d_i − 1`.
    pub fn end_slot(&self) -> TimeSlot {
        self.arrival + self.duration - 1
    }

    /// Payment `pay_i` collected if the request is admitted.
    #[inline]
    pub fn payment(&self) -> f64 {
        self.payment
    }

    /// Whether the request occupies slot `t` (`V_i[t] = 1`).
    pub fn active_at(&self, t: TimeSlot) -> bool {
        t >= self.arrival && t <= self.end_slot()
    }

    /// The execution slots `T'_i`, in order.
    #[inline]
    pub fn slots(&self) -> std::ops::RangeInclusive<TimeSlot> {
        self.arrival..=self.end_slot()
    }

    /// Materializes the binary activity vector `V_i` of length `horizon`.
    pub fn activity_vector(&self, horizon: Horizon) -> Vec<bool> {
        (0..horizon.len()).map(|t| self.active_at(t)).collect()
    }

    /// Payment rate `pr_i = pay_i / (d_i · c(f_i) · R_i)` (Section VI).
    ///
    /// The caller supplies the resolved VNF type; passing a type whose id
    /// differs from [`Request::vnf`] is a logic error (checked in debug
    /// builds).
    pub fn payment_rate(&self, vnf: &VnfType) -> f64 {
        debug_assert_eq!(
            vnf.id(),
            self.vnf,
            "payment_rate called with wrong vnf type"
        );
        self.payment / (self.duration as f64 * vnf.compute() as f64 * self.reliability_req.value())
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}, R={}, t=[{}..={}], pay={})",
            self.id,
            self.vnf,
            self.reliability_req,
            self.arrival,
            self.end_slot(),
            self.payment
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vnf::VnfCatalog;

    fn rel(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    fn request(arrival: usize, duration: usize) -> Request {
        Request::new(
            RequestId(0),
            VnfTypeId(1),
            rel(0.95),
            arrival,
            duration,
            10.0,
            Horizon::new(10),
        )
        .unwrap()
    }

    #[test]
    fn window_accessors() {
        let r = request(2, 3);
        assert_eq!(r.end_slot(), 4);
        assert!(!r.active_at(1));
        assert!(r.active_at(2));
        assert!(r.active_at(4));
        assert!(!r.active_at(5));
        assert_eq!(r.slots().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn activity_vector_matches_paper_example() {
        // Paper: T = 3, a_i = 1, d_i = 2 → V_i = [1, 1, 0] (1-indexed);
        // 0-indexed that is arrival 0, duration 2.
        let r = Request::new(
            RequestId(0),
            VnfTypeId(0),
            rel(0.9),
            0,
            2,
            1.0,
            Horizon::new(3),
        )
        .unwrap();
        assert_eq!(r.activity_vector(Horizon::new(3)), vec![true, true, false]);
    }

    #[test]
    fn validation_errors() {
        let h = Horizon::new(10);
        assert_eq!(
            Request::new(RequestId(0), VnfTypeId(0), rel(0.9), 0, 0, 1.0, h).unwrap_err(),
            WorkloadError::ZeroDuration
        );
        assert!(matches!(
            Request::new(RequestId(0), VnfTypeId(0), rel(0.9), 0, 1, 0.0, h).unwrap_err(),
            WorkloadError::InvalidPayment(_)
        ));
        assert!(matches!(
            Request::new(RequestId(0), VnfTypeId(0), rel(0.9), 8, 3, 1.0, h).unwrap_err(),
            WorkloadError::WindowOutsideHorizon { .. }
        ));
        assert!(matches!(
            Request::new(RequestId(0), VnfTypeId(0), rel(0.9), 0, 1, f64::NAN, h).unwrap_err(),
            WorkloadError::InvalidPayment(_)
        ));
    }

    #[test]
    fn payment_rate_formula() {
        let cat = VnfCatalog::standard();
        let vnf = cat.get(VnfTypeId(1)).unwrap(); // NAT: compute 1
        let r = Request::new(
            RequestId(0),
            VnfTypeId(1),
            rel(0.5),
            0,
            4,
            8.0,
            Horizon::new(10),
        )
        .unwrap();
        // pr = 8 / (4 * 1 * 0.5) = 4.
        assert!((r.payment_rate(vnf) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn display_includes_window() {
        let r = request(1, 2);
        let s = r.to_string();
        assert!(s.contains("[1..=2]"));
    }
}
