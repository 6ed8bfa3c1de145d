//! The chaos matrix through `mec_serve::drill`, in-process, against its
//! golden: the default `vnfrel chaos-drill` scenario (workload seed 1,
//! chaos seed 7, 120 requests per cell) must report `results/chaos_drill.txt`
//! byte for byte, with every cell clean. CI's `chaos-drill` job runs the
//! same matrix through the binary; this is what pins the report.

use mec_serve::{chaos_matrix, ChaosConfig, ChaosPlan, ChaosScenario};
use mec_topology::generators::CloudletPlacement;
use mec_topology::zoo;
use mec_workload::{Horizon, RequestGenerator, VnfCatalog};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::{ProblemInstance, Scheme};

/// `vnfrel chaos-drill`'s scenario at its defaults: Abilene with half
/// its access points hosting cloudlets, 16 slots, and `requests` + 1
/// generated requests (the last one is the fencing probe), all drawn
/// from one RNG seeded with the workload seed, topology first.
fn default_scenario(scheme: Scheme, seed: u64, requests: usize) -> ChaosScenario {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = CloudletPlacement {
        fraction: 0.5,
        capacity: (8, 12),
        reliability: (0.99, 0.9999),
    };
    let network = zoo::abilene().into_network(&placement, &mut rng).unwrap();
    let instance = ProblemInstance::new(network, VnfCatalog::standard(), Horizon::new(16)).unwrap();
    let requests = RequestGenerator::new(instance.horizon())
        .reliability_band(0.9, 0.95)
        .unwrap()
        .payment_rate_band(1.0, 10.0)
        .unwrap()
        .generate(requests + 1, instance.catalog(), &mut rng)
        .unwrap();
    ChaosScenario {
        scheme,
        instance,
        requests,
        fingerprint: format!("serve-drill:{scheme}"),
    }
}

#[test]
fn the_default_chaos_matrix_reports_its_golden_byte_for_byte() {
    let scenarios = [Scheme::OnSite, Scheme::OffSite].map(|s| default_scenario(s, 1, 120));
    let header = "chaos-drill: workload seed 1, chaos seed 7, 120 requests per cell";
    let plan = ChaosPlan::new(7, ChaosConfig::default());
    let report = chaos_matrix(header.to_string(), &scenarios, &plan, None, &mut |_| {}).unwrap();

    assert_eq!(report.dirty(), 0, "{:#?}", report.cells);
    let families: Vec<_> = report.cells.iter().map(|c| (c.scheme, c.family)).collect();
    let expected: Vec<_> = [Scheme::OnSite, Scheme::OffSite]
        .into_iter()
        .flat_map(|s| ["network", "disk", "process"].map(|family| (s, family)))
        .collect();
    assert_eq!(families, expected);

    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/chaos_drill.txt");
    let golden = std::fs::read_to_string(golden).expect("results/chaos_drill.txt is checked in");
    assert_eq!(report.lines().join("\n") + "\n", golden);
}
