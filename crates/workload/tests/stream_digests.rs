//! Every generated stream pinned by a digest of its bits.
//!
//! `tests/golden/stream_digests.txt` holds one `label<TAB>count<TAB>digest`
//! row per stream below: the number of requests and a 64-bit FNV-1a
//! digest over every field of every request, in order (ids, VNF types,
//! arrivals and durations as integers; reliabilities, budgets and
//! payments by their IEEE-754 bits). The rows cover the four stream
//! shapes the benchmark runs on (scarce, week, day and chain, with their
//! bands), fixed and uniform durations, a one-slot horizon, empty and
//! one-request streams, and chain streams, each at seeds 1–3. A
//! change to either generator that moves one draw, one float or one id
//! fails here with the row's label. After a deliberate change, empty
//! the golden file and rerun: the row-count failure prints every row as
//! the generators now produce them.

use mec_workload::{
    ChainGenerator, ChainRequest, DurationModel, Horizon, Request, RequestGenerator, VnfCatalog,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const GOLDEN: &str = include_str!("golden/stream_digests.txt");

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn request_digest(reqs: &[Request]) -> u64 {
    let mut h = Fnv::new();
    for r in reqs {
        h.word(r.id().index() as u64);
        h.word(r.vnf().index() as u64);
        h.word(r.reliability_requirement().value().to_bits());
        h.word(r.arrival() as u64);
        h.word(r.duration() as u64);
        h.word(r.payment().to_bits());
    }
    h.0
}

fn chain_digest(chains: &[ChainRequest]) -> u64 {
    let mut h = Fnv::new();
    for c in chains {
        h.word(c.id().index() as u64);
        h.word(c.len() as u64);
        for s in c.stages() {
            h.word(s.index() as u64);
        }
        h.word(c.reliability_requirement().value().to_bits());
        h.word(c.latency_budget().to_bits());
        h.word(c.ingress().index() as u64);
        h.word(c.arrival() as u64);
        h.word(c.duration() as u64);
        h.word(c.payment().to_bits());
    }
    h.0
}

/// The protection-hungry catalog of the chain shape.
fn chain_catalog() -> VnfCatalog {
    VnfCatalog::from_specs([
        ("IDS", 3u64, 0.90),
        ("DPI", 3, 0.92),
        ("TranscoderV", 2, 0.93),
        ("WanOptimizer", 3, 0.95),
        ("SessionBorder", 2, 0.96),
        ("VPNGateway", 2, 0.97),
    ])
    .unwrap()
}

/// A shape's single-VNF generator with the benchmark's bands.
fn shaped(slots: usize, lo: usize, hi: usize) -> RequestGenerator {
    RequestGenerator::new(Horizon::new(slots))
        .durations(DurationModel::Uniform { lo, hi })
        .unwrap()
        .reliability_band(0.9, 0.95)
        .unwrap()
        .payment_rate_band(1.0, 10.0)
        .unwrap()
}

/// Single-VNF streams: label, generator, catalog, count.
fn request_cases() -> Vec<(&'static str, RequestGenerator, VnfCatalog, usize)> {
    let standard = VnfCatalog::standard;
    let default = |slots| RequestGenerator::new(Horizon::new(slots));
    vec![
        ("scarce", shaped(16, 1, 8), standard(), 32_768),
        ("week", shaped(10_080, 5, 120), standard(), 131_072),
        ("day", shaped(1_440, 5, 120), standard(), 16_384),
        (
            "chain-singles",
            shaped(2_016, 1, 12),
            chain_catalog(),
            12_096,
        ),
        (
            "fixed",
            default(40).durations(DurationModel::Fixed(7)).unwrap(),
            standard(),
            3_000,
        ),
        (
            "one-slot",
            default(1).durations(DurationModel::Fixed(1)).unwrap(),
            standard(),
            300,
        ),
        ("empty", default(60), standard(), 0),
        ("single", default(60), standard(), 1),
    ]
}

/// Chain streams: label, generator, count.
fn chain_cases() -> Vec<(&'static str, ChainGenerator, usize)> {
    let shaped = ChainGenerator::new(Horizon::new(2_016), 11)
        .length_band(1, 3)
        .unwrap()
        .reliability_band(0.93, 0.97)
        .unwrap()
        .latency_budget_band(3.0, 12.0)
        .unwrap()
        .payment_rate_band(1.0, 10.0)
        .unwrap()
        .max_duration(12)
        .unwrap();
    vec![
        ("chains", shaped, 6_048),
        (
            "chains-default",
            ChainGenerator::new(Horizon::new(40), 6),
            1_000,
        ),
        (
            "chains-one-slot",
            ChainGenerator::new(Horizon::new(1), 3),
            50,
        ),
        ("chains-empty", ChainGenerator::new(Horizon::new(40), 6), 0),
    ]
}

fn produce() -> String {
    let mut text = String::new();
    for (label, gen, catalog, count) in request_cases() {
        for seed in 1..=3u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let reqs = gen.generate(count, &catalog, &mut rng).unwrap();
            let digest = request_digest(&reqs);
            text.push_str(&format!("{label}/s{seed}\t{}\t{digest:016x}\n", reqs.len()));
        }
    }
    let catalog = chain_catalog();
    for (label, gen, count) in chain_cases() {
        for seed in 1..=3u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let chains = gen.generate(count, &catalog, &mut rng).unwrap();
            let digest = chain_digest(&chains);
            text.push_str(&format!(
                "{label}/s{seed}\t{}\t{digest:016x}\n",
                chains.len()
            ));
        }
    }
    text
}

#[test]
fn every_stream_matches_its_golden_digest() {
    let produced = produce();
    for (i, (got, want)) in produced.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "row {} moved (generator left, golden right)",
            i + 1
        );
    }
    assert_eq!(
        produced.lines().count(),
        GOLDEN.lines().count(),
        "row count moved; the generators now produce:\n{produced}"
    );
}
