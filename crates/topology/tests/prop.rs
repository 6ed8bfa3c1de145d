//! Property-based tests for the MEC network model.

use mec_topology::generators::{self, CloudletPlacement};
use mec_topology::{NetworkBuilder, NodeId, Reliability};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn placement() -> CloudletPlacement {
    CloudletPlacement {
        fraction: 0.5,
        capacity: (10, 50),
        reliability: (0.9, 0.999),
    }
}

proptest! {
    #[test]
    fn reliability_roundtrip(v in 0.000_001f64..0.999_999) {
        let r = Reliability::new(v).unwrap();
        prop_assert!((r.value() - v).abs() < 1e-15);
        prop_assert!((r.failure() - (1.0 - v)).abs() < 1e-15);
        prop_assert!(r.ln_failure() < 0.0);
    }

    #[test]
    fn erdos_renyi_always_connected(n in 1usize..60, p in 0.0f64..0.3, seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = generators::erdos_renyi(n, p, &placement(), &mut rng).unwrap();
        prop_assert!(net.is_connected());
        prop_assert_eq!(net.ap_count(), n);
        prop_assert!(net.cloudlet_count() >= 1);
    }

    #[test]
    fn barabasi_albert_always_connected(n in 2usize..80, m in 1usize..5, seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = generators::barabasi_albert(n, m, &placement(), &mut rng).unwrap();
        prop_assert!(net.is_connected());
    }

    #[test]
    fn bfs_distances_satisfy_triangle_inequality(seed in 0u64..200) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = generators::erdos_renyi(20, 0.15, &placement(), &mut rng).unwrap();
        let d0 = net.hop_distances(NodeId(0));
        for v in net.nodes() {
            let dv = net.hop_distances(v);
            for u in net.nodes() {
                if d0[v.index()] != usize::MAX && dv[u.index()] != usize::MAX {
                    prop_assert!(d0[u.index()] <= d0[v.index()] + dv[u.index()]);
                }
            }
        }
    }

    #[test]
    fn dijkstra_path_latency_matches_sum_of_links(seed in 0u64..200) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = generators::waxman(15, 0.6, 0.4, &placement(), &mut rng).unwrap();
        for v in net.nodes() {
            if let Some(p) = net.shortest_path(NodeId(0), v) {
                // Re-sum the latency along the reported node sequence.
                let mut total = 0.0;
                for w in p.nodes.windows(2) {
                    let (a, b) = (w[0], w[1]);
                    let link = net
                        .neighbors(a)
                        .iter()
                        .find(|&&(u, _)| u == b)
                        .map(|&(_, l)| l)
                        .unwrap();
                    total += net.link(link).unwrap().latency();
                }
                prop_assert!((total - p.latency).abs() < 1e-9);
                prop_assert_eq!(p.hops, p.nodes.len() - 1);
            }
        }
    }
}

#[test]
fn builder_scales_to_thousands_of_nodes() {
    let mut b = NetworkBuilder::new();
    let ids: Vec<_> = (0..5000).map(|i| b.add_ap(format!("n{i}"))).collect();
    for w in ids.windows(2) {
        b.add_link(w[0], w[1], 1.0).unwrap();
    }
    let net = b.build().unwrap();
    assert!(net.is_connected());
    assert_eq!(net.diameter_hops(), Some(4999));
}
