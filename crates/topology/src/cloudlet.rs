use std::fmt;

use crate::error::TopologyError;
use crate::ids::{CloudletId, NodeId};
use crate::reliability::Reliability;

/// An edge server co-located with an access point.
///
/// A cloudlet `c_j` has a computing capacity `cap_j`, measured in abstract
/// *computing units* (the same units as VNF demands `c(f_i)`), and a
/// reliability `r(c_j) ∈ (0, 1)`. When a cloudlet fails, every VNF instance
/// it hosts becomes unavailable at once — this is what makes the on-site
/// backup scheme's reliability ceiling equal to `r(c_j)`.
///
/// # Example
///
/// ```
/// # use mec_topology::{Cloudlet, CloudletId, NodeId, Reliability};
/// # fn main() -> Result<(), mec_topology::TopologyError> {
/// let c = Cloudlet::new(CloudletId(0), NodeId(3), 120, Reliability::new(0.995)?)?;
/// assert_eq!(c.capacity(), 120);
/// assert_eq!(c.node(), NodeId(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cloudlet {
    id: CloudletId,
    node: NodeId,
    capacity: u64,
    reliability: Reliability,
}

impl Cloudlet {
    /// Creates a cloudlet.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ZeroCapacity`] if `capacity == 0`.
    pub fn new(
        id: CloudletId,
        node: NodeId,
        capacity: u64,
        reliability: Reliability,
    ) -> Result<Self, TopologyError> {
        if capacity == 0 {
            return Err(TopologyError::ZeroCapacity);
        }
        Ok(Cloudlet {
            id,
            node,
            capacity,
            reliability,
        })
    }

    /// The dense identifier of this cloudlet.
    pub fn id(&self) -> CloudletId {
        self.id
    }

    /// The access point this cloudlet is co-located with.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Computing capacity `cap_j` in computing units.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Reliability `r(c_j)`.
    pub fn reliability(&self) -> Reliability {
        self.reliability
    }
}

impl fmt::Display for Cloudlet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} cap={} r={}",
            self.id, self.node, self.capacity, self.reliability
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    #[test]
    fn rejects_zero_capacity() {
        assert_eq!(
            Cloudlet::new(CloudletId(0), NodeId(0), 0, rel(0.9)),
            Err(TopologyError::ZeroCapacity)
        );
    }

    #[test]
    fn accessors_return_constructor_values() {
        let c = Cloudlet::new(CloudletId(2), NodeId(5), 64, rel(0.97)).unwrap();
        assert_eq!(c.id(), CloudletId(2));
        assert_eq!(c.node(), NodeId(5));
        assert_eq!(c.capacity(), 64);
        assert_eq!(c.reliability().value(), 0.97);
    }

    #[test]
    fn display_mentions_ids() {
        let c = Cloudlet::new(CloudletId(1), NodeId(4), 10, rel(0.9)).unwrap();
        let s = c.to_string();
        assert!(s.contains("c1"));
        assert!(s.contains("n4"));
    }
}
