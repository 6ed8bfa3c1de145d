//! **Ablation**: intra-slot batching. The paper's model is strictly
//! one-by-one; a real hypervisor sees each slot's batch and can sort it.
//! How much revenue does that mild lookahead buy each algorithm?
//!
//! Run with: `cargo run --release -p vnfrel-bench --bin ablation_ordering [--quick]`

use mec_sim::{IntraSlotOrder, Simulation};
use vnfrel::onsite::{CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};
use vnfrel_bench::{note, quiet_from_args, Scenario, ScenarioParams};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let quiet = quiet_from_args();
    let sizes: Vec<usize> = if quick {
        vec![200]
    } else {
        vec![200, 400, 800]
    };
    let orders = [
        ("arrival", IntraSlotOrder::Arrival),
        ("payment", IntraSlotOrder::PaymentDescending),
        ("density", IntraSlotOrder::DensityDescending),
    ];
    note(
        quiet,
        "Ablation — intra-slot batch ordering (on-site revenue)\n",
    );
    println!(
        "{:>9} {:>10} {:>14} {:>14}",
        "requests", "ordering", "Algorithm 1", "Greedy"
    );
    for &n in &sizes {
        for (name, order) in orders {
            let mut alg1 = 0.0;
            let mut greedy = 0.0;
            let seeds: &[u64] = if quick { &[1] } else { &[1, 2, 3] };
            for &seed in seeds {
                let s = Scenario::build(&ScenarioParams {
                    requests: n,
                    seed,
                    ..ScenarioParams::default()
                });
                let sim = Simulation::new(&s.instance, &s.requests).expect("valid");
                let mut a = OnsitePrimalDual::new(&s.instance, CapacityPolicy::Enforce)
                    .expect("valid policy");
                alg1 += sim
                    .run_ordered(&mut a, order, None)
                    .expect("run")
                    .metrics
                    .revenue;
                let mut g = OnsiteGreedy::new(&s.instance);
                greedy += sim
                    .run_ordered(&mut g, order, None)
                    .expect("run")
                    .metrics
                    .revenue;
            }
            let k = seeds.len() as f64;
            println!("{n:>9} {name:>10} {:>14.1} {:>14.1}", alg1 / k, greedy / k);
        }
        println!();
    }
    note(
        quiet,
        "payment-aware batching mostly helps the payment-blind greedy; \
         \nAlgorithm 1 already filters by payment through its prices.",
    );
}
