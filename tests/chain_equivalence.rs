//! Golden-fixture equivalence for the chain schedulers, the counterpart
//! of `tests/equivalence.rs`.
//!
//! `crates/bench/tests/golden/chain_decision_streams.txt` was generated
//! by the chain schedulers as they stood at commit `6159f3a`, before the
//! chain path was rewritten for speed (one replica DP per stage tuple,
//! the beam over a label arena, the standby pool indexed by
//! `(cloudlet, VNF)`): that rewrite is a relayout of the same arithmetic,
//! so every decision, placement field, reject reason, route, ledger cell
//! and pool entry must come out **bit for bit** the same.
//!
//! One scenario — the benchmark's chain shape (Abilene, a cloudlet at
//! every access point, the protection-hungry catalog, ε = 0.10) on a
//! 672-slot horizon, 2 048 chains merged with 4 096 single-VNF requests,
//! long enough that the standby pool passes 100 live entries — through
//! [`ChainPrimalDual`] in each [`BackupMode`] and through
//! [`ChainGreedy`] (chains only: it has no single-VNF entry point).
//! Halfway through the chain stream every third chain admitted so far is
//! released, so the second half plans against a pool with tombstones and
//! shrunken hulls. Every decision is one line:
//!
//! * `S <id> R` / `S <id> A <cloudlet> <instances>` — a single;
//! * `C <id> R <reason>` — a rejected chain;
//! * `C <id> A lat=<bits> avail=<bits> compute=<n> stages=… segs=…` — an
//!   admitted chain, each stage as
//!   `<vnf>@<cloudlet>x<replicas>:<standby id or ->:<joined 0/1>` and each
//!   segment as `<node>-<node>-…:<latency bits>`;
//!
//! and each section ends in `=` trailer lines: chains released, revenue
//! and admissions, an FNV-1a digest of the ledger grid's `to_bits`, the
//! live `pool.standbys()`, and — checked under the enabled sink only — a
//! digest of every trace event's fields (dual costs and margins
//! included, which no placement carries).
//!
//! The fixture is the reference; like the single-VNF schedulers, each
//! section must be reproduced at the `NoopSink` default, under
//! [`TripwireSink`] and with an enabled [`RingSink`].

use std::fmt::Write as _;

use mec_obs::{ChainOutcome, NoopSink, RingSink, TraceEvent, TraceSink, TripwireSink};
use mec_sim::{Demand, MixedSimulation};
use mec_workload::ChainRequest;
use vnfrel::chain::{
    BackupMode, ChainGreedy, ChainPlacement, ChainPrimalDual, ChainRejectReason, ChainScheduler,
};
use vnfrel::CapacityLedger;
use vnfrel_bench::MixedScenario;

const GOLDEN: &str = include_str!("../crates/bench/tests/golden/chain_decision_streams.txt");

const SLOTS: usize = 672;
const CHAINS: usize = 2_048;
/// Pool mass cap ε: `chain_bench`'s, looser than the library default so
/// that stages really do join each other's standbys.
const MASS_CAP: f64 = 0.10;
const SINGLES: usize = 2 * CHAINS;

fn fixture() -> MixedScenario {
    MixedScenario::build(SLOTS, CHAINS, 17)
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn opt_float(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.word(1);
                self.float(v);
            }
            None => self.word(0),
        }
    }

    fn opt_word(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.word(1);
                self.word(v);
            }
            None => self.word(0),
        }
    }
}

fn chain_line(
    out: &mut String,
    c: &ChainRequest,
    decision: &Result<ChainPlacement, ChainRejectReason>,
) {
    let id = c.id().index();
    match decision {
        Err(reason) => {
            let _ = writeln!(out, "C {id} R {}", reason.as_str());
        }
        Ok(p) => {
            let stages: Vec<String> = p
                .stages
                .iter()
                .map(|s| {
                    format!(
                        "{}@{}x{}:{}:{}",
                        s.vnf.index(),
                        s.cloudlet.index(),
                        s.replicas,
                        s.standby
                            .map_or_else(|| "-".to_string(), |b| b.index().to_string()),
                        u8::from(s.backup_shared)
                    )
                })
                .collect();
            let segs: Vec<String> = p
                .segments
                .iter()
                .map(|(nodes, lat)| {
                    let nodes: Vec<String> = nodes.iter().map(usize::to_string).collect();
                    format!("{}:{:016x}", nodes.join("-"), lat.to_bits())
                })
                .collect();
            let _ = writeln!(
                out,
                "C {id} A lat={:016x} avail={:016x} compute={} stages={} segs={}",
                p.latency.to_bits(),
                p.availability.to_bits(),
                p.total_compute,
                stages.join(","),
                segs.join("|")
            );
        }
    }
}

fn ledger_trailer(out: &mut String, ledger: &CapacityLedger) {
    let mut fnv = Fnv::new();
    for &u in ledger.used_grid() {
        fnv.float(u);
    }
    let _ = writeln!(out, "= ledger fnv {:016x}", fnv.0);
}

/// Digest of every field of every chain event, in recording order.
fn events_digest(events: &[TraceEvent]) -> u64 {
    let mut fnv = Fnv::new();
    for e in events {
        match e {
            TraceEvent::ChainPath {
                chain,
                segment,
                nodes,
                latency,
            } => {
                fnv.word(1);
                fnv.word(*chain as u64);
                fnv.word(*segment as u64);
                fnv.word(nodes.len() as u64);
                for &n in nodes {
                    fnv.word(n as u64);
                }
                fnv.float(*latency);
            }
            TraceEvent::ChainDecision(d) => {
                fnv.word(2);
                fnv.word(d.chain as u64);
                fnv.word(d.slot as u64);
                fnv.float(d.payment);
                assert_eq!(d.algorithm, "chain-primal-dual");
                match &d.outcome {
                    ChainOutcome::Admit {
                        dual_cost,
                        margin,
                        latency,
                        budget,
                        availability,
                        stages,
                    } => {
                        fnv.word(1);
                        for v in [dual_cost, margin, latency, budget, availability] {
                            fnv.float(*v);
                        }
                        fnv.word(stages.len() as u64);
                        for s in stages {
                            fnv.word(s.vnf as u64);
                            fnv.word(s.cloudlet as u64);
                            fnv.word(u64::from(s.replicas));
                            fnv.float(s.dual_cost);
                            fnv.opt_word(s.standby.map(|v| v as u64));
                            fnv.opt_word(s.backup_cloudlet.map(|v| v as u64));
                            fnv.opt_word(s.backup_shared.map(u64::from));
                        }
                    }
                    ChainOutcome::Reject {
                        reason,
                        dual_cost,
                        margin,
                    } => {
                        fnv.word(0);
                        fnv.word(
                            ChainRejectReason::ALL
                                .iter()
                                .position(|r| r == reason)
                                .unwrap() as u64,
                        );
                        fnv.opt_float(*dual_cost);
                        fnv.opt_float(*margin);
                    }
                }
            }
            other => panic!("unexpected `{}` event from a chain scheduler", other.kind()),
        }
    }
    fnv.0
}

/// The merged stream through `ChainPrimalDual` in `mode`, tracing into
/// `sink`; `events_of` hands back what an enabled sink retained.
fn primal_dual_section<K: TraceSink>(
    fx: &MixedScenario,
    mode: BackupMode,
    sink: K,
    events_of: impl FnOnce(K) -> Option<Vec<TraceEvent>>,
) -> String {
    let mut alg = ChainPrimalDual::with_mass_cap(&fx.instance, mode, MASS_CAP, sink);
    let mut out = String::new();
    let mut admitted: Vec<usize> = Vec::new();
    let mut decided = 0;
    let sim = MixedSimulation::new(&fx.instance, &fx.singles, &fx.chains).unwrap();
    for demand in sim.demands() {
        match demand {
            Demand::Single(r) => {
                let id = r.id().index();
                match alg.decide_single(r) {
                    Some((cloudlet, n)) => {
                        let _ = writeln!(out, "S {id} A {} {n}", cloudlet.index());
                    }
                    None => {
                        let _ = writeln!(out, "S {id} R");
                    }
                }
            }
            Demand::Chain(c) => {
                let decision = alg.decide_chain(c);
                if decision.is_ok() {
                    admitted.push(c.id().index());
                }
                chain_line(&mut out, c, &decision);
                decided += 1;
                if decided == fx.chains.len() / 2 {
                    let released: Vec<usize> = admitted.iter().copied().step_by(3).collect();
                    for &id in &released {
                        alg.release_chain(fx.chains[id].id()).unwrap();
                    }
                    let _ = writeln!(out, "= released {} chains", released.len());
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "= revenue {:016x} admitted {}",
        alg.revenue().to_bits(),
        alg.admitted_count()
    );
    ledger_trailer(&mut out, alg.ledger());
    let pool: Vec<String> = alg
        .pool()
        .standbys()
        .map(|(id, cloudlet, vnf, subscribers)| {
            format!(
                "{}:{}:{}:{subscribers}",
                id.index(),
                cloudlet.index(),
                vnf.index()
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "= pool {} live, {:016x} compute-slots: {}",
        alg.pool().standby_count(),
        alg.pool().charged_compute_slots().to_bits(),
        pool.join(",")
    );
    if let Some(events) = events_of(alg.into_sink()) {
        let _ = writeln!(out, "= events fnv {:016x}", events_digest(&events));
    }
    out
}

fn greedy_section(fx: &MixedScenario) -> String {
    let mut alg = ChainGreedy::new(&fx.instance);
    let mut out = String::new();
    for c in &fx.chains {
        let decision = alg.decide_chain(c);
        chain_line(&mut out, c, &decision);
    }
    ledger_trailer(&mut out, alg.ledger());
    out
}

/// One `# section=<name>` body of the fixture; `with_events` keeps the
/// `= events` trailer line, which only an enabled sink can reproduce.
fn golden_section(name: &str, with_events: bool) -> String {
    let header = format!("# section={name}");
    let mut lines = GOLDEN.lines();
    for line in &mut lines {
        if line == header {
            break;
        }
    }
    let mut body = String::new();
    for line in lines {
        if line.starts_with('#') {
            break;
        }
        if !with_events && line.starts_with("= events") {
            continue;
        }
        body.push_str(line);
        body.push('\n');
    }
    assert!(!body.is_empty(), "fixture section {header:?} not found");
    body
}

/// First differing line, so a failure names the decision instead of
/// dumping two 5 000-line strings.
fn assert_same(got: &str, want: &str, what: &str) {
    if got == want {
        return;
    }
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{what}: first difference at section line {n}");
    }
    panic!(
        "{what}: {} lines against the fixture's {}",
        got.lines().count(),
        want.lines().count()
    );
}

fn check_mode(mode: BackupMode) {
    let fx = fixture();
    let name = format!("primal-dual-{}", mode.as_str());
    let quiet = golden_section(&name, false);
    assert_same(
        &primal_dual_section(&fx, mode, NoopSink, |_| None),
        &quiet,
        &format!("{name} under NoopSink"),
    );
    assert_same(
        &primal_dual_section(&fx, mode, TripwireSink, |_| None),
        &quiet,
        &format!("{name} under TripwireSink"),
    );
    assert_same(
        &primal_dual_section(&fx, mode, RingSink::new(8 * CHAINS), |ring| {
            assert!(ring.total_recorded() < 8 * CHAINS as u64, "ring evicted");
            Some(ring.into_events())
        }),
        &golden_section(&name, true),
        &format!("{name} under an enabled RingSink"),
    );
}

#[test]
fn chain_primal_dual_none_matches_golden_streams() {
    check_mode(BackupMode::None);
}

#[test]
fn chain_primal_dual_dedicated_matches_golden_streams() {
    check_mode(BackupMode::Dedicated);
}

#[test]
fn chain_primal_dual_shared_matches_golden_streams() {
    check_mode(BackupMode::Shared);
}

#[test]
fn chain_greedy_matches_golden_streams() {
    assert_same(
        &greedy_section(&fixture()),
        &golden_section("greedy", false),
        "chain-greedy",
    );
}

#[test]
fn chain_fixture_covers_all_sections_and_a_deep_pool() {
    let headers = GOLDEN.lines().filter(|l| l.starts_with('#')).count();
    assert_eq!(headers, 4, "chain fixture should hold 4 sections");
    let decisions = GOLDEN
        .lines()
        .filter(|l| l.starts_with("S ") || l.starts_with("C "))
        .count();
    assert_eq!(
        decisions,
        3 * (SINGLES + CHAINS) + CHAINS,
        "one line per decision per section"
    );
    // The point of the long horizon: plans run against a pool far deeper
    // than any one (cloudlet, VNF) bucket, in both standby modes.
    for mode in ["dedicated", "shared"] {
        let section = golden_section(&format!("primal-dual-{mode}"), false);
        let live: usize = section
            .lines()
            .find_map(|l| l.strip_prefix("= pool "))
            .and_then(|l| l.split(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("pool trailer");
        let created = section
            .lines()
            .filter_map(|l| l.split(" stages=").nth(1))
            .flat_map(|l| l.split(' ').next().unwrap().split(','))
            .filter_map(|stage| stage.split(':').nth(1)?.parse::<usize>().ok())
            .max()
            .expect("some stage is protected")
            + 1;
        assert!(
            live >= 80 && created > 100,
            "{mode}: {live} standbys live at the end, {created} ever created"
        );
    }
}
