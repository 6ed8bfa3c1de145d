//! Random topology generators for parameter sweeps.
//!
//! The paper evaluates on real topologies from the Internet Topology Zoo;
//! random generators complement them when an experiment needs to scale the
//! network size or control structural properties. All generators take an
//! explicit RNG so experiments are reproducible under a fixed seed.
//!
//! Every generator guarantees a *connected* graph: Erdős–Rényi and Waxman
//! graphs are patched by linking each non-initial component to a uniformly
//! random node already reached (adding the minimum number of extra edges).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::builder::NetworkBuilder;
use crate::error::TopologyError;
use crate::graph::Network;
use crate::ids::NodeId;
use crate::reliability::Reliability;

/// How cloudlets are attached to a generated (or embedded) topology.
///
/// The paper co-locates a cloudlet with a subset of APs; capacities and
/// reliabilities are drawn uniformly, with the reliability interval
/// `[rc_min, rc_max]` directly implementing the `K = rc_max / rc_min`
/// sweep of Figure 2(b).
#[derive(Debug, Clone, PartialEq)]
pub struct CloudletPlacement {
    /// Fraction of APs that host a cloudlet, in `(0, 1]`.
    pub fraction: f64,
    /// Inclusive capacity range in computing units.
    pub capacity: (u64, u64),
    /// Inclusive reliability range `[rc_min, rc_max]`, both in `(0, 1)`.
    pub reliability: (f64, f64),
}

impl CloudletPlacement {
    /// A placement putting cloudlets on half the APs with moderate capacity
    /// and reliability in `[0.99, 0.9999]`.
    pub fn balanced() -> Self {
        CloudletPlacement {
            fraction: 0.5,
            capacity: (80, 120),
            reliability: (0.99, 0.9999),
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ReliabilityOutOfRange`] if the reliability
    /// interval leaves `(0, 1)` or is inverted,
    /// [`TopologyError::ZeroCapacity`] for a zero capacity bound,
    /// [`TopologyError::InvalidCapacityRange`] for an inverted capacity
    /// range, and [`TopologyError::InvalidFraction`] when the fraction is
    /// not in `(0, 1]` (NaN included).
    pub fn validate(&self) -> Result<(), TopologyError> {
        let (lo, hi) = self.reliability;
        if !(lo > 0.0 && hi < 1.0 && lo <= hi) {
            return Err(TopologyError::ReliabilityOutOfRange(if lo <= 0.0 {
                lo
            } else {
                hi
            }));
        }
        if self.capacity.0 == 0 {
            return Err(TopologyError::ZeroCapacity);
        }
        if self.capacity.0 > self.capacity.1 {
            return Err(TopologyError::InvalidCapacityRange(
                self.capacity.0,
                self.capacity.1,
            ));
        }
        if !(self.fraction > 0.0 && self.fraction <= 1.0) {
            return Err(TopologyError::InvalidFraction(self.fraction));
        }
        Ok(())
    }

    /// Applies this placement to a builder that already has its APs.
    pub(crate) fn apply<R: Rng + ?Sized>(
        &self,
        builder: &mut NetworkBuilder,
        rng: &mut R,
    ) -> Result<(), TopologyError> {
        self.validate()?;
        let n = builder.ap_count();
        // At least one cloudlet, otherwise no request can ever be admitted.
        let count = ((n as f64 * self.fraction).round() as usize).clamp(1, n);
        let mut nodes: Vec<usize> = (0..n).collect();
        nodes.shuffle(rng);
        for &v in nodes.iter().take(count) {
            let cap = rng.gen_range(self.capacity.0..=self.capacity.1);
            let rel = rng.gen_range(self.reliability.0..=self.reliability.1);
            builder.add_cloudlet(NodeId(v), cap, Reliability::new(rel)?)?;
        }
        Ok(())
    }
}

/// Ensures connectivity by wiring each unreached component to a random
/// already-reached node.
fn connect_components<R: Rng + ?Sized>(
    builder: &mut NetworkBuilder,
    adjacency: &mut [Vec<usize>],
    rng: &mut R,
) -> Result<(), TopologyError> {
    let n = adjacency.len();
    let mut seen = vec![false; n];
    let mut reached: Vec<usize> = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        if !reached.is_empty() {
            let anchor = *reached
                .get(rng.gen_range(0..reached.len()))
                .expect("reached is non-empty");
            builder.add_link(NodeId(anchor), NodeId(start), 1.0)?;
            adjacency[anchor].push(start);
            adjacency[start].push(anchor);
        }
        // DFS the component of `start`.
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(v) = stack.pop() {
            reached.push(v);
            for &u in &adjacency[v] {
                if !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
            }
        }
    }
    Ok(())
}

/// Generates a connected Erdős–Rényi graph `G(n, p)`.
///
/// Each of the `n·(n−1)/2` candidate links is present independently with
/// probability `p`; extra links are added afterwards if needed to connect
/// the graph. Latencies are drawn uniformly from `[0.5, 2.0)`.
///
/// # Errors
///
/// Propagates builder errors; returns [`TopologyError::EmptyNetwork`] when
/// `n == 0` and [`TopologyError::InvalidProbability`] when `p` is not in
/// `[0, 1]` (NaN included).
pub fn erdos_renyi<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    placement: &CloudletPlacement,
    rng: &mut R,
) -> Result<Network, TopologyError> {
    if n == 0 {
        return Err(TopologyError::EmptyNetwork);
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(TopologyError::InvalidProbability(p));
    }
    let mut b = NetworkBuilder::new();
    for i in 0..n {
        b.add_ap(format!("er{i}"));
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_link(NodeId(i), NodeId(j), rng.gen_range(0.5..2.0))?;
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    connect_components(&mut b, &mut adj, rng)?;
    placement.apply(&mut b, rng)?;
    b.build()
}

/// Generates a Barabási–Albert preferential-attachment graph.
///
/// Starts from a clique of `m + 1` nodes; each subsequent node attaches to
/// `m` distinct existing nodes chosen proportionally to their degree. The
/// result is always connected.
///
/// # Errors
///
/// Returns [`TopologyError::EmptyNetwork`] when `n == 0`; `m` is clamped to
/// `[1, n−1]` internally.
pub fn barabasi_albert<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    placement: &CloudletPlacement,
    rng: &mut R,
) -> Result<Network, TopologyError> {
    if n == 0 {
        return Err(TopologyError::EmptyNetwork);
    }
    let m = m.clamp(1, n.saturating_sub(1).max(1));
    let mut b = NetworkBuilder::new();
    for i in 0..n {
        b.add_ap(format!("ba{i}"));
    }
    // `stubs` holds one entry per edge endpoint, so sampling uniformly from
    // it is degree-proportional sampling.
    let mut stubs: Vec<usize> = Vec::new();
    let seed = (m + 1).min(n);
    for i in 0..seed {
        for j in (i + 1)..seed {
            b.add_link(NodeId(i), NodeId(j), rng.gen_range(0.5..2.0))?;
            stubs.push(i);
            stubs.push(j);
        }
    }
    for v in seed..n {
        let mut targets = std::collections::HashSet::new();
        while targets.len() < m {
            let t = if stubs.is_empty() || rng.gen_bool(0.05) {
                // Small uniform component keeps isolated seeds reachable.
                rng.gen_range(0..v)
            } else {
                stubs[rng.gen_range(0..stubs.len())]
            };
            if t != v {
                targets.insert(t);
            }
        }
        for t in targets {
            b.add_link(NodeId(v), NodeId(t), rng.gen_range(0.5..2.0))?;
            stubs.push(v);
            stubs.push(t);
        }
    }
    placement.apply(&mut b, rng)?;
    b.build()
}

/// Generates a connected Waxman random geometric graph.
///
/// Nodes are placed uniformly in the unit square; an edge `(u, v)` appears
/// with probability `alpha · exp(−d(u,v) / (beta · L))` where `L = √2` is
/// the maximum distance. Latency equals Euclidean distance scaled to
/// `[0.5, ~1.9]`.
///
/// # Errors
///
/// Returns [`TopologyError::EmptyNetwork`] when `n == 0`.
pub fn waxman<R: Rng + ?Sized>(
    n: usize,
    alpha: f64,
    beta: f64,
    placement: &CloudletPlacement,
    rng: &mut R,
) -> Result<Network, TopologyError> {
    if n == 0 {
        return Err(TopologyError::EmptyNetwork);
    }
    let mut b = NetworkBuilder::new();
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            b.add_ap(format!("wx{i}"));
            (rng.gen::<f64>(), rng.gen::<f64>())
        })
        .collect();
    let l = 2f64.sqrt();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = ((pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2)).sqrt();
            let p = alpha * (-d / (beta * l)).exp();
            if rng.gen_bool(p) {
                b.add_link(NodeId(i), NodeId(j), 0.5 + d)?;
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    connect_components(&mut b, &mut adj, rng)?;
    placement.apply(&mut b, rng)?;
    b.build()
}

/// Generates a rows×cols grid (each node linked to its right and down
/// neighbours), a common stand-in for metropolitan AP deployments.
///
/// # Errors
///
/// Returns [`TopologyError::EmptyNetwork`] when either dimension is zero.
pub fn grid<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    placement: &CloudletPlacement,
    rng: &mut R,
) -> Result<Network, TopologyError> {
    if rows == 0 || cols == 0 {
        return Err(TopologyError::EmptyNetwork);
    }
    let mut b = NetworkBuilder::new();
    for r in 0..rows {
        for c in 0..cols {
            b.add_ap(format!("g{r}-{c}"));
        }
    }
    let id = |r: usize, c: usize| NodeId(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_link(id(r, c), id(r, c + 1), 1.0)?;
            }
            if r + 1 < rows {
                b.add_link(id(r, c), id(r + 1, c), 1.0)?;
            }
        }
    }
    placement.apply(&mut b, rng)?;
    b.build()
}

/// Generates a Watts–Strogatz small-world graph: a ring lattice where
/// each node links to its `k/2` nearest neighbours on each side, with
/// every link rewired to a uniform random endpoint with probability
/// `beta`. Produces the "local clustering + short paths" structure of
/// metro access networks.
///
/// # Errors
///
/// Returns [`TopologyError::EmptyNetwork`] when `n == 0`; `k` is clamped
/// to `[2, n−1]` and rounded down to even internally.
pub fn watts_strogatz<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    beta: f64,
    placement: &CloudletPlacement,
    rng: &mut R,
) -> Result<Network, TopologyError> {
    if n == 0 {
        return Err(TopologyError::EmptyNetwork);
    }
    let mut b = NetworkBuilder::new();
    for i in 0..n {
        b.add_ap(format!("ws{i}"));
    }
    if n == 1 {
        placement.apply(&mut b, rng)?;
        return b.build();
    }
    // At least one ring step; never more than wraps around the ring.
    let half = (k / 2).max(1).min((n - 1) / 2 + 1);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for step in 1..=half {
            let mut j = (i + step) % n;
            // Rewire with probability beta to a random non-duplicate
            // endpoint.
            if rng.gen_bool(beta.clamp(0.0, 1.0)) {
                for _ in 0..n {
                    let cand = rng.gen_range(0..n);
                    if cand != i && !b.has_link(NodeId(i), NodeId(cand)) {
                        j = cand;
                        break;
                    }
                }
            }
            if i != j && !b.has_link(NodeId(i), NodeId(j)) {
                b.add_link(NodeId(i), NodeId(j), rng.gen_range(0.5..2.0))?;
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    connect_components(&mut b, &mut adj, rng)?;
    placement.apply(&mut b, rng)?;
    b.build()
}

/// Generates a ring of `n` nodes.
///
/// # Errors
///
/// Returns [`TopologyError::EmptyNetwork`] when `n == 0`.
pub fn ring<R: Rng + ?Sized>(
    n: usize,
    placement: &CloudletPlacement,
    rng: &mut R,
) -> Result<Network, TopologyError> {
    if n == 0 {
        return Err(TopologyError::EmptyNetwork);
    }
    let mut b = NetworkBuilder::new();
    for i in 0..n {
        b.add_ap(format!("r{i}"));
    }
    for i in 0..n.saturating_sub(1) {
        b.add_link(NodeId(i), NodeId(i + 1), 1.0)?;
    }
    if n > 2 {
        b.add_link(NodeId(n - 1), NodeId(0), 1.0)?;
    }
    placement.apply(&mut b, rng)?;
    b.build()
}

/// Generates a star: node 0 is the hub.
///
/// # Errors
///
/// Returns [`TopologyError::EmptyNetwork`] when `n == 0`.
pub fn star<R: Rng + ?Sized>(
    n: usize,
    placement: &CloudletPlacement,
    rng: &mut R,
) -> Result<Network, TopologyError> {
    if n == 0 {
        return Err(TopologyError::EmptyNetwork);
    }
    let mut b = NetworkBuilder::new();
    for i in 0..n {
        b.add_ap(format!("s{i}"));
    }
    for i in 1..n {
        b.add_link(NodeId(0), NodeId(i), 1.0)?;
    }
    placement.apply(&mut b, rng)?;
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn place() -> CloudletPlacement {
        CloudletPlacement::balanced()
    }

    #[test]
    fn erdos_renyi_is_connected_even_when_sparse() {
        for seed in 0..5 {
            let net = erdos_renyi(40, 0.02, &place(), &mut rng(seed)).unwrap();
            assert!(net.is_connected(), "seed {seed} produced disconnected net");
            assert_eq!(net.ap_count(), 40);
            assert!(net.cloudlet_count() >= 1);
        }
    }

    #[test]
    fn erdos_renyi_refuses_a_probability_outside_the_unit_interval() {
        for p in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let err = erdos_renyi(10, p, &place(), &mut rng(0)).unwrap_err();
            assert!(
                matches!(err, TopologyError::InvalidProbability(q) if q.to_bits() == p.to_bits()),
                "p = {p}: {err:?}"
            );
        }
        // The closed interval's ends are valid: no links, or all of them.
        let empty = erdos_renyi(10, 0.0, &place(), &mut rng(0)).unwrap();
        assert!(empty.is_connected());
        let full = erdos_renyi(10, 1.0, &place(), &mut rng(0)).unwrap();
        assert_eq!(full.link_count(), 10 * 9 / 2);
    }

    #[test]
    fn erdos_renyi_dense_has_many_links() {
        let net = erdos_renyi(20, 0.9, &place(), &mut rng(1)).unwrap();
        assert!(net.link_count() > 20 * 19 / 4);
    }

    #[test]
    fn barabasi_albert_connected_and_right_size() {
        let net = barabasi_albert(50, 2, &place(), &mut rng(7)).unwrap();
        assert!(net.is_connected());
        assert_eq!(net.ap_count(), 50);
        // Clique on 3 seeds (3 links) + 47 nodes × 2 links.
        assert_eq!(net.link_count(), 3 + 47 * 2);
    }

    #[test]
    fn barabasi_albert_has_hubs() {
        let net = barabasi_albert(200, 2, &place(), &mut rng(3)).unwrap();
        let max_deg = net.nodes().map(|v| net.degree(v)).max().unwrap();
        // Preferential attachment produces a hub well above the mean degree.
        assert!(max_deg >= 8, "max degree {max_deg} too small for BA");
    }

    #[test]
    fn waxman_connected() {
        let net = waxman(30, 0.4, 0.2, &place(), &mut rng(11)).unwrap();
        assert!(net.is_connected());
    }

    #[test]
    fn grid_structure() {
        let net = grid(3, 4, &place(), &mut rng(2)).unwrap();
        assert_eq!(net.ap_count(), 12);
        // Links: 3 rows × 3 horizontal + 2 rows × 4 vertical = 9 + 8.
        assert_eq!(net.link_count(), 17);
        assert!(net.is_connected());
        assert_eq!(net.diameter_hops(), Some(3 - 1 + 4 - 1));
    }

    #[test]
    fn ring_and_star() {
        let net = ring(10, &place(), &mut rng(4)).unwrap();
        assert_eq!(net.link_count(), 10);
        assert!(net.is_connected());
        assert_eq!(net.diameter_hops(), Some(5));

        let net = star(10, &place(), &mut rng(4)).unwrap();
        assert_eq!(net.link_count(), 9);
        assert_eq!(net.diameter_hops(), Some(2));
    }

    #[test]
    fn watts_strogatz_connected_and_clustered() {
        for seed in 0..5 {
            let net = watts_strogatz(40, 4, 0.1, &place(), &mut rng(seed)).unwrap();
            assert!(net.is_connected(), "seed {seed}");
            assert_eq!(net.ap_count(), 40);
            // The lattice base gives ~2 links per node.
            assert!(
                net.link_count() >= 40,
                "too few links: {}",
                net.link_count()
            );
        }
        // beta = 0 is a pure lattice with high clustering.
        let lattice = watts_strogatz(30, 4, 0.0, &place(), &mut rng(1)).unwrap();
        let s = crate::stats::NetworkStats::compute(&lattice);
        assert!(s.clustering > 0.3, "lattice clustering {}", s.clustering);
        // Full rewiring behaves like a random graph: much less clustered.
        let random = watts_strogatz(30, 4, 1.0, &place(), &mut rng(1)).unwrap();
        let sr = crate::stats::NetworkStats::compute(&random);
        assert!(sr.clustering < s.clustering);
    }

    #[test]
    fn watts_strogatz_degenerate() {
        assert!(watts_strogatz(0, 4, 0.1, &place(), &mut rng(0)).is_err());
        let one = watts_strogatz(1, 4, 0.1, &place(), &mut rng(0)).unwrap();
        assert_eq!(one.ap_count(), 1);
        let two = watts_strogatz(2, 4, 0.5, &place(), &mut rng(0)).unwrap();
        assert!(two.is_connected());
    }

    #[test]
    fn degenerate_sizes() {
        assert!(erdos_renyi(0, 0.5, &place(), &mut rng(0)).is_err());
        assert!(grid(0, 5, &place(), &mut rng(0)).is_err());
        let one = ring(1, &place(), &mut rng(0)).unwrap();
        assert_eq!(one.ap_count(), 1);
        assert_eq!(one.link_count(), 0);
        let two = ring(2, &place(), &mut rng(0)).unwrap();
        assert_eq!(two.link_count(), 1);
    }

    #[test]
    fn placement_validation() {
        let mut p = place();
        p.reliability = (0.99, 0.9); // inverted
        assert!(p.validate().is_err());
        let mut p = place();
        p.capacity = (0, 10);
        assert_eq!(p.validate(), Err(TopologyError::ZeroCapacity));
        let mut p = place();
        p.capacity = (12, 8);
        assert_eq!(
            p.validate(),
            Err(TopologyError::InvalidCapacityRange(12, 8))
        );
        let mut p = place();
        p.fraction = 0.0;
        assert_eq!(p.validate(), Err(TopologyError::InvalidFraction(0.0)));
        let mut p = place();
        p.fraction = f64::NAN;
        assert!(matches!(
            p.validate(),
            Err(TopologyError::InvalidFraction(_))
        ));
    }

    #[test]
    fn placement_draws_within_ranges() {
        let p = CloudletPlacement {
            fraction: 1.0,
            capacity: (10, 20),
            reliability: (0.9, 0.95),
        };
        let net = grid(4, 4, &p, &mut rng(9)).unwrap();
        assert_eq!(net.cloudlet_count(), 16);
        for c in net.cloudlets() {
            assert!((10..=20).contains(&c.capacity()));
            let r = c.reliability().value();
            assert!((0.9..=0.95).contains(&r));
        }
    }

    #[test]
    fn same_seed_same_network() {
        let a = erdos_renyi(25, 0.15, &place(), &mut rng(42)).unwrap();
        let b = erdos_renyi(25, 0.15, &place(), &mut rng(42)).unwrap();
        assert_eq!(a.link_count(), b.link_count());
        let ca: Vec<_> = a.cloudlets().map(|c| (c.node(), c.capacity())).collect();
        let cb: Vec<_> = b.cloudlets().map(|c| (c.node(), c.capacity())).collect();
        assert_eq!(ca, cb);
    }
}
