//! Service-function-chain extension: schedule chains of VNFs (e.g.
//! firewall → IDS → load balancer) with one end-to-end reliability
//! requirement. The replica allocator finds the cheapest per-stage backup
//! counts; the chain primal-dual scheduler then admits payment-aware.
//!
//! Run with: `cargo run --example chain_provisioning`

use mec_topology::NodeId;
use mec_topology::{NetworkBuilder, Reliability};
use mec_workload::{Horizon, VnfCatalog, VnfTypeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::chain::{
    alloc::allocate_replicas, run_chain_online, BackupMode, ChainGreedy, ChainPrimalDual,
    ChainRequest, ChainRequestId, ChainScheduler,
};
use vnfrel::ProblemInstance;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut b = NetworkBuilder::new();
    let mut prev = None;
    for (i, rel) in [0.9999, 0.999, 0.995].iter().enumerate() {
        let ap = b.add_ap(format!("edge-{i}"));
        if let Some(p) = prev {
            b.add_link(p, ap, 1.0)?;
        }
        prev = Some(ap);
        b.add_cloudlet(ap, 12, Reliability::new(*rel)?)?;
    }
    let instance = ProblemInstance::new(b.build()?, VnfCatalog::standard(), Horizon::new(24))?;

    // Show the allocator on one concrete chain: Firewall → IDS → LB.
    let stages: Vec<_> = [0usize, 2, 3]
        .iter()
        .map(|&s| {
            let v = instance.catalog().get(VnfTypeId(s)).unwrap();
            (v.reliability(), v.compute())
        })
        .collect();
    let cloudlet = instance
        .network()
        .cloudlet(mec_topology::CloudletId(0))
        .unwrap();
    let alloc = allocate_replicas(&stages, cloudlet.reliability(), Reliability::new(0.98)?)
        .expect("feasible");
    println!(
        "Firewall→IDS→LB at r_c={} for R=0.98: replicas {:?}, {} units/slot, availability {:.5}",
        cloudlet.reliability(),
        alloc.replicas,
        alloc.total_compute,
        alloc.availability
    );

    // A stream of random lightweight chains (NAT / FlowMonitor /
    // ProxyCache — the kinds of per-flow middleboxes that get chained in
    // practice) with a wide payment spread: the regime where the chain
    // primal-dual's selectivity beats greedy (heavier chains push the
    // Eq.-34 prices into over-rejection; see EXPERIMENTS.md).
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let light_stages = [1usize, 5, 8];
    let horizon = instance.horizon();
    let requests: Vec<ChainRequest> = (0..400)
        .map(|i| {
            let len = rng.gen_range(2..=3);
            let stages: Vec<VnfTypeId> = (0..len)
                .map(|_| VnfTypeId(light_stages[rng.gen_range(0..light_stages.len())]))
                .collect();
            let arrival = rng.gen_range(0..horizon.len() - 4);
            let duration = rng.gen_range(1..=4);
            let rate: f64 = if i % 4 == 0 {
                rng.gen_range(8.0..10.0)
            } else {
                rng.gen_range(1.0..3.0)
            };
            let ingress = NodeId(rng.gen_range(0..3));
            ChainRequest::new(
                ChainRequestId(i),
                stages,
                Reliability::new(rng.gen_range(0.9..0.95)).unwrap(),
                rng.gen_range(2.0..6.0),
                ingress,
                arrival,
                duration,
                rate * duration as f64 * len as f64,
                horizon,
            )
            .unwrap()
        })
        .collect();

    let mut pd = ChainPrimalDual::new(&instance, BackupMode::Shared);
    let spd = run_chain_online(&mut pd, &requests)?;
    println!("chain primal-dual (shared backups): {spd}");
    println!(
        "  standbys in pool: {} ({}/slot charged)",
        pd.pool().standby_count(),
        pd.pool().charged_compute_slots()
    );
    assert_eq!(pd.ledger().max_overflow(), 0.0);

    let mut greedy = ChainGreedy::new(&instance);
    let sg = run_chain_online(&mut greedy, &requests)?;
    println!("chain greedy:      {sg}");
    assert_eq!(greedy.ledger().max_overflow(), 0.0);

    println!(
        "primal-dual vs greedy: {:+.1}%",
        100.0 * (spd.revenue() / sg.revenue() - 1.0)
    );
    Ok(())
}
