use std::error::Error;
use std::fmt;

use crate::ids::{CloudletId, NodeId};

/// Errors produced while constructing or querying an MEC network.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A reliability value fell outside the open interval `(0, 1)`.
    ReliabilityOutOfRange(f64),
    /// A node id referenced a node that does not exist.
    UnknownNode(NodeId),
    /// A link was added between a node and itself.
    SelfLoop(NodeId),
    /// A link between these two nodes already exists.
    DuplicateLink(NodeId, NodeId),
    /// A cloudlet was attached to a node that already hosts one.
    DuplicateCloudlet(NodeId),
    /// A link latency was not a finite, non-negative number.
    InvalidLatency(f64),
    /// A cloudlet capacity of zero was given.
    ZeroCapacity,
    /// The built network would be empty.
    EmptyNetwork,
    /// A cloudlet id referenced a cloudlet that does not exist.
    UnknownCloudlet(CloudletId),
    /// A failure domain was declared with no member cloudlets.
    EmptyDomain,
    /// A cloudlet appeared more than once in the same failure domain.
    DuplicateDomainMember(CloudletId),
    /// A domain mean time (MTTF/MTTR) was not a finite number ≥ 1 slot.
    InvalidDomainRate(f64),
    /// A placement fraction fell outside `(0, 1]`.
    InvalidFraction(f64),
    /// A capacity range was inverted (`lo > hi`).
    InvalidCapacityRange(u64, u64),
    /// A link probability fell outside `[0, 1]` or was NaN.
    InvalidProbability(f64),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ReliabilityOutOfRange(v) => {
                write!(f, "reliability {v} is outside the open interval (0, 1)")
            }
            TopologyError::UnknownNode(id) => write!(f, "unknown node {id:?}"),
            TopologyError::SelfLoop(id) => write!(f, "self-loop on node {id:?}"),
            TopologyError::DuplicateLink(a, b) => {
                write!(f, "link between {a:?} and {b:?} already exists")
            }
            TopologyError::DuplicateCloudlet(id) => {
                write!(f, "node {id:?} already hosts a cloudlet")
            }
            TopologyError::InvalidLatency(v) => {
                write!(f, "latency {v} is not a finite non-negative number")
            }
            TopologyError::ZeroCapacity => write!(f, "cloudlet capacity must be positive"),
            TopologyError::EmptyNetwork => write!(f, "network has no nodes"),
            TopologyError::UnknownCloudlet(id) => write!(f, "unknown cloudlet {id:?}"),
            TopologyError::EmptyDomain => write!(f, "failure domain has no member cloudlets"),
            TopologyError::DuplicateDomainMember(id) => {
                write!(f, "cloudlet {id:?} appears twice in one failure domain")
            }
            TopologyError::InvalidDomainRate(v) => {
                write!(
                    f,
                    "domain mean time {v} must be a finite number of slots ≥ 1"
                )
            }
            TopologyError::InvalidFraction(v) => {
                write!(f, "placement fraction {v} is outside (0, 1]")
            }
            TopologyError::InvalidCapacityRange(lo, hi) => {
                write!(f, "capacity range [{lo}, {hi}] is inverted")
            }
            TopologyError::InvalidProbability(p) => {
                write!(f, "link probability {p} is outside [0, 1]")
            }
        }
    }
}

impl Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            TopologyError::ReliabilityOutOfRange(1.5),
            TopologyError::UnknownNode(NodeId(7)),
            TopologyError::SelfLoop(NodeId(0)),
            TopologyError::DuplicateLink(NodeId(1), NodeId(2)),
            TopologyError::DuplicateCloudlet(NodeId(3)),
            TopologyError::InvalidLatency(f64::NAN),
            TopologyError::ZeroCapacity,
            TopologyError::EmptyNetwork,
            TopologyError::UnknownCloudlet(CloudletId(4)),
            TopologyError::EmptyDomain,
            TopologyError::DuplicateDomainMember(CloudletId(1)),
            TopologyError::InvalidDomainRate(0.2),
            TopologyError::InvalidFraction(-1.0),
            TopologyError::InvalidCapacityRange(9, 3),
            TopologyError::InvalidProbability(f64::NAN),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn Error> = Box::new(TopologyError::ZeroCapacity);
        assert!(e.source().is_none());
    }
}
