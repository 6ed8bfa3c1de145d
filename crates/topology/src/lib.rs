//! Network model for Mobile Edge Computing (MEC) simulations.
//!
//! An MEC network is an undirected graph `G = (V, E)` whose vertices are
//! access points (APs) and whose edges are the links between them. A subset
//! of APs is co-located with a *cloudlet* — an edge server (or small cluster)
//! with a bounded computing capacity and a reliability in `(0, 1)`.
//!
//! This crate provides:
//!
//! * [`Network`] — the graph itself, with shortest-path queries,
//! * [`Cloudlet`] — capacity + reliability attached to an AP,
//! * [`NetworkBuilder`] — incremental construction with validation,
//! * [`zoo`] — real topologies embedded from the Internet Topology Zoo,
//! * [`generators`] — random topologies (Erdős–Rényi, Barabási–Albert,
//!   Waxman, grid, ring) for parameter sweeps,
//! * [`Reliability`] — a checked probability newtype shared by cloudlets
//!   and (downstream) VNF types.
//!
//! # Example
//!
//! ```
//! # use mec_topology::{NetworkBuilder, Reliability};
//! # fn main() -> Result<(), mec_topology::TopologyError> {
//! let mut b = NetworkBuilder::new();
//! let a = b.add_ap("ap-a");
//! let c = b.add_ap("ap-b");
//! b.add_link(a, c, 1.0)?;
//! b.add_cloudlet(a, 100, Reliability::new(0.99)?)?;
//! let net = b.build()?;
//! assert_eq!(net.ap_count(), 2);
//! assert_eq!(net.cloudlet_count(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod cloudlet;
mod domain;
mod error;
pub mod generators;
mod graph;
mod ids;
mod reliability;
pub mod stats;
pub mod zoo;

pub use builder::NetworkBuilder;
pub use cloudlet::Cloudlet;
pub use domain::{FailureDomain, FailureDomainSet};
pub use error::TopologyError;
pub use graph::{Link, Network, PathResult};
pub use ids::{CloudletId, LinkId, NodeId};
pub use reliability::Reliability;
