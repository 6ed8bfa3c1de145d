use std::cmp::Ordering;
use std::fmt;

use crate::error::TopologyError;

/// A checked probability of availability in the open interval `(0, 1)`.
///
/// The paper models every component reliability — cloudlets `r(c_j)` and VNF
/// types `r(f_i)` — as a constant strictly between 0 and 1. Excluding the
/// endpoints matters: several formulas divide by `−ln(1 − r_f · r_c)` or take
/// `log_{1−r(f_i)}`, which degenerate at 0 and 1.
///
/// # Example
///
/// ```
/// # use mec_topology::Reliability;
/// # fn main() -> Result<(), mec_topology::TopologyError> {
/// let r = Reliability::new(0.99)?;
/// assert!((r.failure() - 0.01).abs() < 1e-12);
/// assert!(Reliability::new(1.0).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reliability(f64);

impl Reliability {
    /// Creates a reliability from a probability.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ReliabilityOutOfRange`] unless
    /// `0 < value < 1` and `value` is finite.
    pub fn new(value: f64) -> Result<Self, TopologyError> {
        if value.is_finite() && value > 0.0 && value < 1.0 {
            Ok(Reliability(value))
        } else {
            Err(TopologyError::ReliabilityOutOfRange(value))
        }
    }

    /// Returns the probability of availability.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns the probability of failure, `1 − r`.
    pub fn failure(self) -> f64 {
        1.0 - self.0
    }

    /// Natural log of the failure probability, `ln(1 − r)` (always negative).
    pub fn ln_failure(self) -> f64 {
        self.failure().ln()
    }
}

impl Eq for Reliability {}

// Reliability is always a finite, non-NaN number, so total order is sound.
impl Ord for Reliability {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("reliability values are never NaN")
    }
}

impl PartialOrd for Reliability {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Reliability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<f64> for Reliability {
    type Error = TopologyError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Reliability::new(value)
    }
}

impl From<Reliability> for f64 {
    fn from(r: Reliability) -> f64 {
        r.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_open_interval_only() {
        assert!(Reliability::new(0.5).is_ok());
        assert!(Reliability::new(1e-12).is_ok());
        assert!(Reliability::new(0.999_999).is_ok());
        assert!(Reliability::new(0.0).is_err());
        assert!(Reliability::new(1.0).is_err());
        assert!(Reliability::new(-0.3).is_err());
        assert!(Reliability::new(f64::NAN).is_err());
        assert!(Reliability::new(f64::INFINITY).is_err());
    }

    #[test]
    fn failure_complements_value() {
        let r = Reliability::new(0.93).unwrap();
        assert!((r.value() + r.failure() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn ln_failure_is_negative() {
        let r = Reliability::new(0.9999).unwrap();
        assert!(r.ln_failure() < 0.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            Reliability::new(0.99).unwrap(),
            Reliability::new(0.9).unwrap(),
            Reliability::new(0.95).unwrap(),
        ];
        v.sort();
        assert_eq!(v[0].value(), 0.9);
        assert_eq!(v[2].value(), 0.99);
    }

    #[test]
    fn conversions_round_trip() {
        let r = Reliability::try_from(0.42).unwrap();
        let f: f64 = r.into();
        assert_eq!(f, 0.42);
    }
}
