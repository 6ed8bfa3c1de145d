//! Shortest-path layer for chain placement.
//!
//! Chain stages may land on different cloudlets, so the scheduler needs
//! latency distances (and, for tracing, the node sequences) between the
//! ingress access point and every cloudlet, and between cloudlet pairs.
//! [`PathTable`] memoizes one Dijkstra run per distinct source node: the
//! first query from a node pays `O(n²)` (the networks here are tens of
//! nodes, so a simple selection-based Dijkstra beats heap bookkeeping and
//! sidesteps float-ordering), later queries from the same source are
//! array lookups — rows are kept dense by source node, so a memoized
//! query is two indexed reads and no hashing.
//!
//! Unreachable pairs report `f64::INFINITY`, which the latency budget
//! check naturally rejects (a chain cannot traverse a partition).

use mec_topology::{Network, NodeId};

/// Memoized single-source shortest-path rows over a network's nodes.
///
/// The table holds no reference to the network; callers pass it to each
/// query and must pass the *same* network every time (rows are keyed by
/// source node index only).
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    /// `(dist, parent)` rows dense by source node index, sized to the
    /// network's node count on first touch; `None` until the source is
    /// first queried. `parent[v]` is the predecessor of `v` on the
    /// shortest path from the source, or `usize::MAX` for the source
    /// itself and unreachable nodes.
    rows: Vec<Option<Row>>,
}

type Row = (Vec<f64>, Vec<usize>);

impl PathTable {
    /// Creates an empty table; rows fill in on first query per source.
    pub fn new() -> Self {
        PathTable::default()
    }

    fn row(&mut self, network: &Network, from: NodeId) -> &Row {
        let n = network.ap_count();
        if self.rows.len() < n {
            self.rows.resize_with(n, || None);
        }
        self.rows[from.index()].get_or_insert_with(|| {
            let mut dist = vec![f64::INFINITY; n];
            let mut parent = vec![usize::MAX; n];
            let mut done = vec![false; n];
            dist[from.index()] = 0.0;
            loop {
                // Selection-based extract-min over the open set.
                let mut u = usize::MAX;
                let mut best = f64::INFINITY;
                for v in 0..n {
                    if !done[v] && dist[v] < best {
                        best = dist[v];
                        u = v;
                    }
                }
                if u == usize::MAX {
                    break;
                }
                done[u] = true;
                for &(v, link) in network.neighbors(NodeId(u)) {
                    let w = network.link(link).expect("valid link").latency();
                    let cand = dist[u] + w;
                    if cand < dist[v.index()] {
                        dist[v.index()] = cand;
                        parent[v.index()] = u;
                    }
                }
            }
            (dist, parent)
        })
    }

    /// Shortest-path latency `from → to`; `0.0` when they coincide,
    /// `f64::INFINITY` when unreachable.
    pub fn distance(&mut self, network: &Network, from: NodeId, to: NodeId) -> f64 {
        self.row(network, from).0[to.index()]
    }

    /// All distances from one source, dense by node index.
    pub fn distances(&mut self, network: &Network, from: NodeId) -> &[f64] {
        &self.row(network, from).0
    }

    /// The node sequence (endpoints included) and latency of the shortest
    /// path `from → to`; `None` when unreachable. A zero-length path
    /// (`from == to`) is the single node at latency `0.0`.
    pub fn path(
        &mut self,
        network: &Network,
        from: NodeId,
        to: NodeId,
    ) -> Option<(Vec<usize>, f64)> {
        let (dist, parent) = self.row(network, from);
        let latency = dist[to.index()];
        if !latency.is_finite() {
            return None;
        }
        let mut nodes = vec![to.index()];
        let mut cur = to.index();
        while cur != from.index() {
            cur = parent[cur];
            debug_assert_ne!(cur, usize::MAX, "finite distance implies a parent chain");
            nodes.push(cur);
        }
        nodes.reverse();
        Some((nodes, latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::{NetworkBuilder, Reliability};

    fn rel(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    /// a —1— b —2— c, plus a —10— c direct; d isolated… (no isolated
    /// nodes allowed by the builder, so d hangs off c).
    fn net() -> Network {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let bb = b.add_ap("b");
        let c = b.add_ap("c");
        let d = b.add_ap("d");
        b.add_link(a, bb, 1.0).unwrap();
        b.add_link(bb, c, 2.0).unwrap();
        b.add_link(a, c, 10.0).unwrap();
        b.add_link(c, d, 0.5).unwrap();
        b.add_cloudlet(a, 10, rel(0.99)).unwrap();
        b.add_cloudlet(c, 10, rel(0.99)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn distances_match_dijkstra() {
        let n = net();
        let mut t = PathTable::new();
        assert_eq!(t.distance(&n, NodeId(0), NodeId(0)), 0.0);
        assert_eq!(t.distance(&n, NodeId(0), NodeId(1)), 1.0);
        // Via b, not the 10.0 direct link.
        assert_eq!(t.distance(&n, NodeId(0), NodeId(2)), 3.0);
        assert_eq!(t.distance(&n, NodeId(0), NodeId(3)), 3.5);
        // Symmetric (undirected links).
        assert_eq!(t.distance(&n, NodeId(3), NodeId(0)), 3.5);
        // Matches the network's own Dijkstra.
        let own = n.shortest_path(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(own.latency, 3.0);
    }

    #[test]
    fn paths_reconstruct_node_sequences() {
        let n = net();
        let mut t = PathTable::new();
        let (nodes, lat) = t.path(&n, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(nodes, vec![0, 1, 2]);
        assert_eq!(lat, 3.0);
        let (nodes, lat) = t.path(&n, NodeId(2), NodeId(2)).unwrap();
        assert_eq!(nodes, vec![2]);
        assert_eq!(lat, 0.0);
        // Rows are memoized: same source twice, still correct.
        assert_eq!(t.path(&n, NodeId(0), NodeId(3)).unwrap().1, 3.5);
        assert_eq!(t.distances(&n, NodeId(0)).len(), n.ap_count());
    }
}
