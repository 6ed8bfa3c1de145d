use std::collections::HashSet;

use crate::cloudlet::Cloudlet;
use crate::error::TopologyError;
use crate::graph::{Link, Network};
use crate::ids::{CloudletId, LinkId, NodeId};
use crate::reliability::Reliability;

/// Incremental, validating constructor for [`Network`].
///
/// The builder assigns dense [`NodeId`]s in `add_ap` order, dense
/// [`LinkId`]s in `add_link` order, and dense [`CloudletId`]s in
/// `add_cloudlet` order.
///
/// # Example
///
/// ```
/// # use mec_topology::{NetworkBuilder, Reliability};
/// # fn main() -> Result<(), mec_topology::TopologyError> {
/// let mut b = NetworkBuilder::new();
/// let x = b.add_ap("x");
/// let y = b.add_ap("y");
/// b.add_link(x, y, 0.5)?;
/// b.add_cloudlet(y, 32, Reliability::new(0.99)?)?;
/// let net = b.build()?;
/// assert!(net.is_connected());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    names: Vec<String>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    link_set: HashSet<(usize, usize)>,
    cloudlets: Vec<Cloudlet>,
    cloudlet_at: Vec<Option<CloudletId>>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an access point and returns its id.
    pub fn add_ap(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.names.len());
        self.names.push(name.into());
        self.adjacency.push(Vec::new());
        self.cloudlet_at.push(None);
        id
    }

    /// Number of APs added so far.
    pub fn ap_count(&self) -> usize {
        self.names.len()
    }

    /// Adds an undirected link with the given latency.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::UnknownNode`] if either endpoint does not exist.
    /// * [`TopologyError::SelfLoop`] if `a == b`.
    /// * [`TopologyError::DuplicateLink`] if the link already exists.
    /// * [`TopologyError::InvalidLatency`] if `latency` is negative or not
    ///   finite.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        latency: f64,
    ) -> Result<LinkId, TopologyError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        if !latency.is_finite() || latency < 0.0 {
            return Err(TopologyError::InvalidLatency(latency));
        }
        let key = (a.index().min(b.index()), a.index().max(b.index()));
        if !self.link_set.insert(key) {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        let id = LinkId(self.links.len());
        self.links.push(Link::new(id, a, b, latency));
        self.adjacency[a.index()].push((b, id));
        self.adjacency[b.index()].push((a, id));
        Ok(id)
    }

    /// Attaches a cloudlet to an AP.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::UnknownNode`] if `node` does not exist.
    /// * [`TopologyError::DuplicateCloudlet`] if the node already hosts one.
    /// * [`TopologyError::ZeroCapacity`] if `capacity == 0`.
    pub fn add_cloudlet(
        &mut self,
        node: NodeId,
        capacity: u64,
        reliability: Reliability,
    ) -> Result<CloudletId, TopologyError> {
        self.check_node(node)?;
        if self.cloudlet_at[node.index()].is_some() {
            return Err(TopologyError::DuplicateCloudlet(node));
        }
        let id = CloudletId(self.cloudlets.len());
        self.cloudlets
            .push(Cloudlet::new(id, node, capacity, reliability)?);
        self.cloudlet_at[node.index()] = Some(id);
        Ok(id)
    }

    /// Finalizes the network.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EmptyNetwork`] if no AP was added.
    pub fn build(self) -> Result<Network, TopologyError> {
        if self.names.is_empty() {
            return Err(TopologyError::EmptyNetwork);
        }
        Ok(Network::from_parts(
            self.names,
            self.links,
            self.adjacency,
            self.cloudlets,
            self.cloudlet_at,
        ))
    }

    fn check_node(&self, n: NodeId) -> Result<(), TopologyError> {
        if n.index() < self.names.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownNode(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    #[test]
    fn rejects_unknown_nodes() {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        assert_eq!(
            b.add_link(a, NodeId(9), 1.0),
            Err(TopologyError::UnknownNode(NodeId(9)))
        );
        assert_eq!(
            b.add_cloudlet(NodeId(9), 1, rel(0.9)),
            Err(TopologyError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn rejects_self_loop_and_duplicates() {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let c = b.add_ap("b");
        assert_eq!(b.add_link(a, a, 1.0), Err(TopologyError::SelfLoop(a)));
        b.add_link(a, c, 1.0).unwrap();
        // Duplicate in either orientation is rejected.
        assert_eq!(
            b.add_link(c, a, 2.0),
            Err(TopologyError::DuplicateLink(c, a))
        );
    }

    #[test]
    fn rejects_bad_latency() {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let c = b.add_ap("b");
        assert!(matches!(
            b.add_link(a, c, -1.0),
            Err(TopologyError::InvalidLatency(_))
        ));
        assert!(matches!(
            b.add_link(a, c, f64::NAN),
            Err(TopologyError::InvalidLatency(_))
        ));
    }

    #[test]
    fn rejects_second_cloudlet_on_same_node() {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        b.add_cloudlet(a, 10, rel(0.9)).unwrap();
        assert_eq!(
            b.add_cloudlet(a, 20, rel(0.95)),
            Err(TopologyError::DuplicateCloudlet(a))
        );
    }

    #[test]
    fn rejects_empty_network() {
        assert_eq!(
            NetworkBuilder::new().build().unwrap_err(),
            TopologyError::EmptyNetwork
        );
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut b = NetworkBuilder::new();
        let ids: Vec<_> = (0..5).map(|i| b.add_ap(format!("n{i}"))).collect();
        assert_eq!(ids, (0..5).map(NodeId).collect::<Vec<_>>());
        let l0 = b.add_link(ids[0], ids[1], 1.0).unwrap();
        let l1 = b.add_link(ids[1], ids[2], 1.0).unwrap();
        assert_eq!((l0, l1), (LinkId(0), LinkId(1)));
        let c0 = b.add_cloudlet(ids[2], 4, rel(0.9)).unwrap();
        let c1 = b.add_cloudlet(ids[0], 4, rel(0.9)).unwrap();
        assert_eq!((c0, c1), (CloudletId(0), CloudletId(1)));
    }
}
