use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::cloudlet::Cloudlet;
use crate::ids::{CloudletId, LinkId, NodeId};

/// An undirected link between two access points.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    id: LinkId,
    endpoints: (NodeId, NodeId),
    latency: f64,
}

impl Link {
    pub(crate) fn new(id: LinkId, a: NodeId, b: NodeId, latency: f64) -> Self {
        Link {
            id,
            endpoints: (a, b),
            latency,
        }
    }

    /// The dense identifier of this link.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// Both endpoints, in insertion order.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        self.endpoints
    }

    /// Propagation latency of the link (arbitrary units, `≥ 0`).
    pub fn latency(&self) -> f64 {
        self.latency
    }
}

/// Outcome of a shortest-path query.
#[derive(Debug, Clone, PartialEq)]
pub struct PathResult {
    /// Nodes along the path, source first, destination last.
    pub nodes: Vec<NodeId>,
    /// Total latency along the path.
    pub latency: f64,
    /// Number of hops (`nodes.len() - 1`).
    pub hops: usize,
}

/// An immutable MEC network: access points, links, and cloudlets.
///
/// Build one with [`NetworkBuilder`](crate::NetworkBuilder), from an
/// embedded Topology-Zoo graph ([`zoo`](crate::zoo)), or from a random
/// generator ([`generators`](crate::generators)).
#[derive(Debug, Clone)]
pub struct Network {
    names: Vec<String>,
    links: Vec<Link>,
    /// `adjacency[v]` = list of (neighbour, link) pairs.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    cloudlets: Vec<Cloudlet>,
    /// `cloudlet_at[v]` = cloudlet hosted at node `v`, if any.
    cloudlet_at: Vec<Option<CloudletId>>,
}

impl Network {
    pub(crate) fn from_parts(
        names: Vec<String>,
        links: Vec<Link>,
        adjacency: Vec<Vec<(NodeId, LinkId)>>,
        cloudlets: Vec<Cloudlet>,
        cloudlet_at: Vec<Option<CloudletId>>,
    ) -> Self {
        Network {
            names,
            links,
            adjacency,
            cloudlets,
            cloudlet_at,
        }
    }

    /// Number of access points `|V|`.
    pub fn ap_count(&self) -> usize {
        self.names.len()
    }

    /// Number of links `|E|`.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of cloudlets `m ≤ |V|`.
    pub fn cloudlet_count(&self) -> usize {
        self.cloudlets.len()
    }

    /// Human-readable name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node.index()]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len()).map(NodeId)
    }

    /// Iterates over all links.
    pub fn links(&self) -> impl Iterator<Item = &Link> + '_ {
        self.links.iter()
    }

    /// Iterates over all cloudlets in id order.
    pub fn cloudlets(&self) -> impl Iterator<Item = &Cloudlet> + '_ {
        self.cloudlets.iter()
    }

    /// Looks up a cloudlet by id.
    pub fn cloudlet(&self, id: CloudletId) -> Option<&Cloudlet> {
        self.cloudlets.get(id.index())
    }

    /// The cloudlet hosted at `node`, if any.
    pub fn cloudlet_at(&self, node: NodeId) -> Option<&Cloudlet> {
        self.cloudlet_at
            .get(node.index())
            .copied()
            .flatten()
            .map(|id| &self.cloudlets[id.index()])
    }

    /// Neighbours of `node` as `(neighbour, link)` pairs.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[node.index()]
    }

    /// Degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Looks up a link by id.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.index())
    }

    /// Whether every node can reach every other node.
    ///
    /// An empty network is vacuously connected; the builder refuses to
    /// construct one anyway.
    pub fn is_connected(&self) -> bool {
        let n = self.ap_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(u, _) in self.neighbors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == n
    }

    /// Minimum-hop distances from `source` to every node (BFS).
    ///
    /// Unreachable nodes get `usize::MAX`.
    pub fn hop_distances(&self, source: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.ap_count()];
        let mut queue = std::collections::VecDeque::new();
        dist[source.index()] = 0;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            let dv = dist[v.index()];
            for &(u, _) in self.neighbors(v) {
                if dist[u.index()] == usize::MAX {
                    dist[u.index()] = dv + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Latency-weighted shortest path between two nodes (Dijkstra).
    ///
    /// Returns `None` if `to` is unreachable from `from`.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<PathResult> {
        #[derive(PartialEq)]
        struct Entry(f64, NodeId);
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                // Min-heap on latency: reverse the comparison. Latencies are
                // finite non-negative by construction.
                other
                    .0
                    .partial_cmp(&self.0)
                    .expect("latencies are never NaN")
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = self.ap_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[from.index()] = 0.0;
        heap.push(Entry(0.0, from));
        while let Some(Entry(d, v)) = heap.pop() {
            if d > dist[v.index()] {
                continue;
            }
            if v == to {
                break;
            }
            for &(u, lid) in self.neighbors(v) {
                let w = self.links[lid.index()].latency();
                let nd = d + w;
                if nd < dist[u.index()] {
                    dist[u.index()] = nd;
                    prev[u.index()] = Some(v);
                    heap.push(Entry(nd, u));
                }
            }
        }
        if dist[to.index()].is_infinite() {
            return None;
        }
        let mut nodes = vec![to];
        let mut cur = to;
        while let Some(p) = prev[cur.index()] {
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        let hops = nodes.len() - 1;
        Some(PathResult {
            nodes,
            latency: dist[to.index()],
            hops,
        })
    }

    /// Graph diameter in hops (longest shortest path over all pairs).
    ///
    /// Returns `None` for a disconnected network.
    pub fn diameter_hops(&self) -> Option<usize> {
        let mut best = 0;
        for v in self.nodes() {
            let dist = self.hop_distances(v);
            for &d in &dist {
                if d == usize::MAX {
                    return None;
                }
                best = best.max(d);
            }
        }
        Some(best)
    }

    /// Total computing capacity over all cloudlets.
    pub fn total_capacity(&self) -> u64 {
        self.cloudlets.iter().map(|c| c.capacity()).sum()
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "network: {} APs, {} links, {} cloudlets ({} units)",
            self.ap_count(),
            self.link_count(),
            self.cloudlet_count(),
            self.total_capacity()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::NetworkBuilder;
    use crate::ids::NodeId;
    use crate::reliability::Reliability;

    fn triangle_plus_tail() -> crate::Network {
        // 0 - 1 - 2 - 0 triangle, plus 2 - 3 tail. Cloudlets at 0 and 3.
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..4).map(|i| b.add_ap(format!("ap{i}"))).collect();
        b.add_link(n[0], n[1], 1.0).unwrap();
        b.add_link(n[1], n[2], 2.0).unwrap();
        b.add_link(n[2], n[0], 10.0).unwrap();
        b.add_link(n[2], n[3], 1.0).unwrap();
        b.add_cloudlet(n[0], 100, Reliability::new(0.99).unwrap())
            .unwrap();
        b.add_cloudlet(n[3], 50, Reliability::new(0.95).unwrap())
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_and_lookup() {
        let net = triangle_plus_tail();
        assert_eq!(net.ap_count(), 4);
        assert_eq!(net.link_count(), 4);
        assert_eq!(net.cloudlet_count(), 2);
        assert_eq!(net.total_capacity(), 150);
        assert_eq!(net.node_name(NodeId(2)), "ap2");
        assert!(net.cloudlet_at(NodeId(0)).is_some());
        assert!(net.cloudlet_at(NodeId(1)).is_none());
        assert_eq!(net.degree(NodeId(2)), 3);
    }

    #[test]
    fn connectivity_and_bfs() {
        let net = triangle_plus_tail();
        assert!(net.is_connected());
        let d = net.hop_distances(NodeId(0));
        assert_eq!(d, vec![0, 1, 1, 2]);
        assert_eq!(net.diameter_hops(), Some(2));
    }

    #[test]
    fn dijkstra_prefers_low_latency_detour() {
        let net = triangle_plus_tail();
        // Direct 0-2 link costs 10; the detour 0-1-2 costs 3.
        let p = net.shortest_path(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!((p.latency - 3.0).abs() < 1e-12);
        assert_eq!(p.hops, 2);
    }

    #[test]
    fn dijkstra_trivial_path() {
        let net = triangle_plus_tail();
        let p = net.shortest_path(NodeId(1), NodeId(1)).unwrap();
        assert_eq!(p.nodes, vec![NodeId(1)]);
        assert_eq!(p.hops, 0);
        assert_eq!(p.latency, 0.0);
    }

    #[test]
    fn disconnected_pair_returns_none() {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let c = b.add_ap("b");
        let net = b.build().unwrap();
        assert!(!net.is_connected());
        assert!(net.shortest_path(a, c).is_none());
        assert_eq!(net.diameter_hops(), None);
    }

    #[test]
    fn display_summarises() {
        let net = triangle_plus_tail();
        let s = net.to_string();
        assert!(s.contains("4 APs"));
        assert!(s.contains("2 cloudlets"));
    }
}
