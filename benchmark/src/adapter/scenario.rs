//! Topologies, instances and request streams the workloads run on.
//!
//! Four shapes, all on Abilene with a cloudlet at every access point
//! (11 cloudlets):
//!
//! * **scarce** — the paper's 16-slot horizon with capacities so small
//!   that a fresh scheduler is full after a few dozen admissions, so
//!   nearly every `decide` is the reject fast path;
//! * **week** — 10080 one-minute slots, durations of 5–120 minutes and
//!   demand near three times capacity, so about a third of the requests
//!   are admitted and each admission pays the O(window) price and ledger
//!   update;
//! * **day** — 1440 one-minute slots offered a week's worth of requests,
//!   so it fills within the first slots and then rejects: a horizon
//!   whose snapshot is worth writing (32k cells) while `decide` stays
//!   cheap enough that a paced daemon sits far below capacity;
//! * **chain** — the protection-hungry catalog of `chain_bench` on 2016
//!   five-minute slots, about three chains and six single-VNF requests
//!   per slot on one ledger.

use mec_topology::generators::CloudletPlacement;
use mec_topology::{zoo, Network};
use mec_workload::{
    ChainGenerator, ChainRequest, DurationModel, Horizon, Request, RequestGenerator, VnfCatalog,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::ProblemInstance;

/// Which of the three scenario shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 16 slots, capacity exhausted.
    Scarce,
    /// 10080 slots, about a third admitted.
    Week,
    /// 1440 slots, filled early.
    Day,
    /// 2016 slots, chain catalog.
    Chain,
}

impl Shape {
    /// Horizon length in slots.
    pub fn slots(self) -> usize {
        match self {
            Shape::Scarce => 16,
            Shape::Week => 10_080,
            Shape::Day => 1_440,
            Shape::Chain => 2_016,
        }
    }

    fn placement(self) -> CloudletPlacement {
        let capacity = match self {
            Shape::Scarce => (2, 3),
            Shape::Week | Shape::Day => (40, 56),
            Shape::Chain => (12, 18),
        };
        CloudletPlacement {
            fraction: 1.0,
            capacity,
            reliability: (0.99, 0.9999),
        }
    }

    fn catalog(self) -> VnfCatalog {
        match self {
            Shape::Scarce | Shape::Week | Shape::Day => VnfCatalog::standard(),
            Shape::Chain => VnfCatalog::from_specs([
                ("IDS", 3u64, 0.90),
                ("DPI", 3, 0.92),
                ("TranscoderV", 2, 0.93),
                ("WanOptimizer", 3, 0.95),
                ("SessionBorder", 2, 0.96),
                ("VPNGateway", 2, 0.97),
            ])
            .expect("the chain catalog's parameters are valid"),
        }
    }
}

/// The shape's VNF catalog.
pub fn catalog(shape: Shape) -> VnfCatalog {
    shape.catalog()
}

/// The seeded generator the streams of one run draw from (`--seed`),
/// requests first, then chains.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// The generator of the run's `draw`-th independent draw of its inputs;
/// draw 0 is [`rng`]`(seed)`.
pub fn draw_rng(seed: u64, draw: usize) -> ChaCha8Rng {
    rng(seed.wrapping_add((draw as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Seed of the cloudlet capacities and reliabilities. The instance is
/// part of a workload's definition, not of its input: with eleven
/// cloudlets, one draw decides how full the fleet runs and how lopsided
/// two shards are, which moved `decisions_per_s` by 5 % and
/// `revenue_ratio` by 3 % from seed to seed. `--seed` draws the streams.
pub(super) const TOPOLOGY_SEED: u64 = 2019;

/// Abilene with the shape's cloudlets attached (the same for every
/// `--seed`).
pub fn network(shape: Shape) -> Network {
    zoo::abilene()
        .into_network(&shape.placement(), &mut rng(TOPOLOGY_SEED))
        .expect("abilene materializes")
}

/// The shape's problem instance over `network`.
pub fn instance(shape: Shape, network: Network) -> ProblemInstance {
    ProblemInstance::new(network, shape.catalog(), Horizon::new(shape.slots()))
        .expect("scenario parameters are valid")
}

/// `count` single-VNF requests over the instance's whole horizon, in
/// arrival order with dense ids.
pub fn requests(
    shape: Shape,
    instance: &ProblemInstance,
    count: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<Request> {
    let durations = match shape {
        Shape::Scarce => DurationModel::Uniform { lo: 1, hi: 8 },
        Shape::Week | Shape::Day => DurationModel::Uniform { lo: 5, hi: 120 },
        Shape::Chain => DurationModel::Uniform { lo: 1, hi: 12 },
    };
    RequestGenerator::new(instance.horizon())
        .durations(durations)
        .expect("durations fit the horizon")
        .reliability_band(0.9, 0.95)
        .expect("valid band")
        .payment_rate_band(1.0, 10.0)
        .expect("valid band")
        .generate(count, instance.catalog(), rng)
        .expect("valid workload")
}

/// `count` chain requests over the instance's whole horizon.
pub fn chains(instance: &ProblemInstance, count: usize, rng: &mut ChaCha8Rng) -> Vec<ChainRequest> {
    ChainGenerator::new(instance.horizon(), instance.network().ap_count())
        .length_band(1, 3)
        .expect("valid band")
        .reliability_band(0.93, 0.97)
        .expect("valid band")
        .latency_budget_band(3.0, 12.0)
        .expect("valid band")
        .payment_rate_band(1.0, 10.0)
        .expect("valid band")
        .max_duration(12)
        .expect("valid duration")
        .generate(count, instance.catalog(), rng)
        .expect("valid workload")
}

/// The same chains, all arriving in the first one's slot: every two
/// activity windows then share that slot.
pub fn arriving_together(instance: &ProblemInstance, chains: &[ChainRequest]) -> Vec<ChainRequest> {
    let Some(slot) = chains.first().map(ChainRequest::arrival) else {
        return Vec::new();
    };
    chains
        .iter()
        .map(|c| {
            ChainRequest::new(
                c.id(),
                c.stages().to_vec(),
                c.reliability_requirement(),
                c.latency_budget(),
                c.ingress(),
                slot,
                c.duration(),
                c.payment(),
                instance.horizon(),
            )
            .expect("a window that fitted later fits earlier")
        })
        .collect()
}

/// How many leading requests of an arrival-sorted stream arrive before
/// slot `slot` (a prefix with dense ids).
pub fn prefix_before_slot(requests: &[Request], slot: usize) -> usize {
    requests.partition_point(|r| r.arrival() < slot)
}

/// Same for chains.
pub fn chain_prefix_before_slot(chains: &[ChainRequest], slot: usize) -> usize {
    chains.partition_point(|c| c.arrival() < slot)
}
