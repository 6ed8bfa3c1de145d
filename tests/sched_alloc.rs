//! Per-decision allocation budget of the four production schedulers and
//! of the chain scheduler.
//!
//! Under the default `NoopSink` every `decide()` call may allocate
//! exactly what its answer needs and nothing else: **0** times for a
//! reject, **0** for an on-site admit, **1** for an off-site admit (the
//! placement's `cloudlets` vector) — from the first call on, with no
//! warm-up exemption. A decision event owns a `String` and per-site
//! vectors, so a trace hook that escaped its `if S::ENABLED` guard and
//! built one would break the budget on that very call; the same streams
//! through an enabled `RingSink` are run last to show the counter sees
//! exactly that.
//!
//! The chain scheduler is held to a budget of its own: over the second
//! half of a mixed singles + chains stream, in all three backup modes,
//! `decide_single` allocates **0** times, a chain reject **0** unless it
//! is the first chain of its stage tuple (then the tuple's replica
//! table, at most [`CHAIN_REJECT_BUDGET`]), and a chain admit what its
//! `ChainPlacement` owns — `stages`, `segments`, a node list per segment
//! — plus at most [`CHAIN_ADMIT_SLACK`]. The first half sizes the
//! scheduler's scratch, which is the point of keeping it there.
//!
//! A whole run is held to the same standard: `Simulation::run` and
//! `Simulation::run_faulted` over an outage trace with no events may
//! allocate at most [`RUN_GROWTH_BUDGET`] more times over the first 6 144
//! requests of `Scenario::week` than over the first 3 072, for Algorithm
//! 1 and on-site greedy, whose admissions allocate nothing themselves. A
//! loop that kept per-admission state (a site list, an SLA record) before
//! a fault touched the request would spend thousands.
//!
//! Modelled on `tests/serve_alloc.rs`, with one difference: the counter
//! is thread-local. Each call is measured once and held to an exact
//! number, so the min-over-trials filter that file uses against the
//! libtest harness thread's stray allocations is not available here;
//! counting only this thread's allocations makes it unnecessary.
//!
//! Kept to a single `#[test]`, like `serve_alloc.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mec_obs::{NoopSink, RingSink, TraceSink};
use mec_sim::{Demand, FailureConfig, FailureProcess, MixedSimulation, RecoveryPolicy, Simulation};
use mec_workload::Request;
use vnfrel::chain::{BackupMode, ChainPrimalDual, ChainScheduler};
use vnfrel::offsite::{OffsiteGreedy, OffsitePrimalDual};
use vnfrel::onsite::{CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};
use vnfrel::{Decision, OnlineScheduler, Placement, ProblemInstance};
use vnfrel_bench::{MixedScenario, Scenario, ScenarioParams};

struct CountingAlloc;

thread_local! {
    // `const` initialiser and no destructor: touching it never allocates
    // and it is never torn down, so the allocator may use it at any time.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: defers to `System` for every operation; the counter is a
// thread-local `Cell` with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// The golden scenarios A–D of `tests/equivalence.rs`, then the
/// 20 000-request stream the retired `obs_overhead` race ran on:
/// `(name, requests, h_ratio, k_ratio, seed)`.
const CASES: [(&str, usize, f64, f64, u64); 5] = [
    ("A", 250, 10.0, 1.01, 1),
    ("B", 250, 10.0, 1.01, 2),
    ("C", 200, 2.5, 1.08, 3),
    ("D", 500, 10.0, 1.01, 4),
    ("obs", 20_000, 10.0, 1.01, 1),
];

/// Decisions seen, by the class the budget distinguishes.
#[derive(Default)]
struct Seen {
    rejects: u64,
    onsite_admits: u64,
    offsite_admits: u64,
}

/// Runs `alg` over the scenario holding every call to its budget;
/// returns the budget of the whole stream.
fn hold_to_budget<S: OnlineScheduler>(
    case: &str,
    s: &Scenario,
    alg: &mut S,
    seen: &mut Seen,
) -> u64 {
    let mut total = 0;
    for (i, r) in s.requests.iter().enumerate() {
        let before = allocations();
        let decision = alg.decide(r);
        let spent = allocations() - before;
        let budget = match &decision {
            Decision::Reject => {
                seen.rejects += 1;
                0
            }
            Decision::Admit(Placement::OnSite { .. }) => {
                seen.onsite_admits += 1;
                0
            }
            Decision::Admit(Placement::OffSite { .. }) => {
                seen.offsite_admits += 1;
                1
            }
        };
        assert_eq!(
            spent,
            budget,
            "scenario {case}: {} allocated {spent} times deciding request {i} ({decision:?}), \
             budget {budget}",
            alg.name()
        );
        total += budget;
    }
    total
}

/// Allocations of one whole stream through `alg`.
fn stream_allocations<S: OnlineScheduler>(s: &Scenario, alg: &mut S) -> u64 {
    let before = allocations();
    for r in &s.requests {
        alg.decide(r);
    }
    allocations() - before
}

/// The enabled-sink run must exceed the stream's budget, or the budget
/// check above could not see a leaked hook.
fn assert_tracing_is_seen<S: OnlineScheduler>(case: &str, s: &Scenario, alg: &mut S, budget: u64) {
    let traced = stream_allocations(s, alg);
    assert!(
        traced > budget,
        "scenario {case}: {} with an enabled sink allocated {traced} times, \
         no more than the noop budget {budget}",
        alg.name()
    );
}

/// Most a warm chain reject may allocate: nothing, unless it is the first
/// chain of its stage tuple, which adds the tuple's replica table to the
/// memo — the table's two arrays and its key, plus a growth step of each
/// of the memo's two containers when one is due. (The parent averaged
/// 143.5 per reject.)
const CHAIN_REJECT_BUDGET: u64 = 5;
/// Slack of a chain admit over what its `ChainPlacement` owns: a new
/// tuple's table as above, the chain's release record, and growth steps
/// of the pool's containers. This stream reaches 7.
const CHAIN_ADMIT_SLACK: u64 = 8;

/// What the chain stream's measured half allocated, by decision class.
#[derive(Default)]
struct ChainSeen {
    singles: u64,
    rejects: u64,
    rejects_allocating: u64,
    admits: u64,
}

/// Runs the mixed stream through a `ChainPrimalDual` in `mode`. The first
/// half only sizes the scheduler's scratch; every decision of the second
/// half is held to its budget.
fn hold_chain_budget(s: &MixedScenario, mode: BackupMode) -> ChainSeen {
    let mut alg = ChainPrimalDual::new(&s.instance, mode);
    let warm = (s.singles.len() + s.chains.len()) / 2;
    let mut seen = ChainSeen::default();
    let sim = MixedSimulation::new(&s.instance, &s.singles, &s.chains).unwrap();
    for (i, demand) in sim.demands().enumerate() {
        let before = allocations();
        match demand {
            Demand::Single(r) => {
                let decision = alg.decide_single(r);
                let spent = allocations() - before;
                if i >= warm {
                    seen.singles += 1;
                    assert_eq!(
                        spent,
                        0,
                        "{}: decide_single allocated {spent} times on {decision:?}",
                        mode.as_str()
                    );
                }
            }
            Demand::Chain(c) => {
                let decision = alg.decide_chain(c);
                let spent = allocations() - before;
                if i < warm {
                    continue;
                }
                match &decision {
                    Err(reason) => {
                        seen.rejects += 1;
                        seen.rejects_allocating += u64::from(spent > 0);
                        assert!(
                            spent <= CHAIN_REJECT_BUDGET,
                            "{}: chain {} rejected ({}) after {spent} allocations, \
                             budget {CHAIN_REJECT_BUDGET}",
                            mode.as_str(),
                            c.id().index(),
                            reason.as_str()
                        );
                    }
                    Ok(p) => {
                        seen.admits += 1;
                        // `stages`, `segments`, and a node list per segment.
                        let owned = 2 + p.segments.len() as u64;
                        assert!(
                            spent <= CHAIN_ADMIT_SLACK + owned,
                            "{}: chain {} admitted after {spent} allocations, its placement \
                             owns {owned}, slack {CHAIN_ADMIT_SLACK}",
                            mode.as_str(),
                            c.id().index()
                        );
                    }
                }
            }
        }
    }
    seen
}

/// Allocations of the whole mixed stream with tracing into `sink`.
fn chain_stream_allocations<K: TraceSink>(s: &MixedScenario, mode: BackupMode, sink: K) -> u64 {
    let mut alg = ChainPrimalDual::with_sink(&s.instance, mode, sink);
    let sim = MixedSimulation::new(&s.instance, &s.singles, &s.chains).unwrap();
    let before = allocations();
    for demand in sim.demands() {
        match demand {
            Demand::Single(r) => {
                alg.decide_single(r);
            }
            Demand::Chain(c) => {
                let _ = alg.decide_chain(c);
            }
        }
    }
    allocations() - before
}

fn chain_decisions_hold_their_allocation_budget() {
    let s = MixedScenario::build(672, 2_048, 23);
    for mode in [BackupMode::None, BackupMode::Dedicated, BackupMode::Shared] {
        let seen = hold_chain_budget(&s, mode);
        assert!(
            seen.singles > 0 && seen.rejects > 0 && seen.admits > 0,
            "{}: every budget class must be exercised: {} singles, {} rejects, {} admits",
            mode.as_str(),
            seen.singles,
            seen.rejects,
            seen.admits
        );
        // A warm reject allocates nothing; only the first chain of a stage
        // tuple may, and after half the stream those are few.
        assert!(
            seen.rejects_allocating * 20 <= seen.rejects,
            "{}: {} of {} warm chain rejects allocated",
            mode.as_str(),
            seen.rejects_allocating,
            seen.rejects
        );
        let quiet = chain_stream_allocations(&s, mode, NoopSink);
        let traced = chain_stream_allocations(&s, mode, RingSink::new(s.chains.len()));
        assert!(
            traced > quiet + s.chains.len() as u64,
            "{}: an enabled sink allocated {traced} times over the stream against {quiet} \
             without one — the counter must see an event per chain decision",
            mode.as_str()
        );
    }
}

/// Most a run over the 6 144-request week prefix may allocate beyond one
/// over its first half: growth steps of the schedule and of the loop's
/// expiry structures, and the validator's per-run bookkeeping.
const RUN_GROWTH_BUDGET: u64 = 32;

/// Allocations of a plain and of a fault-free faulted run of `fresh`'s
/// scheduler over `requests`, the scheduler built before counting.
fn run_allocations<'a, S: OnlineScheduler>(
    instance: &'a ProblemInstance,
    requests: &'a [Request],
    fresh: impl Fn() -> S,
) -> (u64, u64) {
    let sim = Simulation::new(instance, requests).unwrap();
    let no_faults =
        FailureProcess::from_events(instance.horizon(), [], FailureConfig::default()).unwrap();
    let mut alg = fresh();
    let before = allocations();
    sim.run(&mut alg).unwrap();
    let plain = allocations() - before;
    let mut alg = fresh();
    let before = allocations();
    let policy = RecoveryPolicy::SchemeMatching;
    sim.run_faulted(&mut alg, &no_faults, policy, None, &mut NoopSink)
        .unwrap();
    (plain, allocations() - before)
}

fn runs_allocate_what_the_stream_length_does_not_set() {
    let week = Scenario::week(131_072, 1);
    let inst = &week.instance;
    let alg1 = || OnsitePrimalDual::new(inst, CapacityPolicy::Enforce).unwrap();
    let greedy = || OnsiteGreedy::new(inst);
    let half = &week.requests[..3_072];
    let whole = &week.requests[..6_144];
    let cases = [
        (
            "alg1",
            run_allocations(inst, half, alg1),
            run_allocations(inst, whole, alg1),
        ),
        (
            "greedy",
            run_allocations(inst, half, greedy),
            run_allocations(inst, whole, greedy),
        ),
    ];
    for (name, (plain_half, faulted_half), (plain, faulted)) in cases {
        for (run, short, long) in [
            ("run", plain_half, plain),
            ("run_faulted", faulted_half, faulted),
        ] {
            assert!(
                long <= short + RUN_GROWTH_BUDGET,
                "{name}: {run} allocated {long} times over 6 144 week requests and {short} over \
                 3 072; budget {RUN_GROWTH_BUDGET} more"
            );
        }
    }
}

#[test]
fn decide_holds_its_allocation_budget_under_the_noop_sink() {
    const { assert!(RingSink::ENABLED) };
    let mut seen = Seen::default();
    for (case, requests, h_ratio, k_ratio, seed) in CASES {
        let s = Scenario::build(&ScenarioParams {
            requests,
            h_ratio,
            k_ratio,
            seed,
        });
        let inst = &s.instance;
        let ring = || RingSink::new(requests);

        let mut alg1 = OnsitePrimalDual::new(inst, CapacityPolicy::Enforce).unwrap();
        let budget = hold_to_budget(case, &s, &mut alg1, &mut seen);
        let mut traced =
            OnsitePrimalDual::with_sink(inst, CapacityPolicy::Enforce, ring()).unwrap();
        assert_tracing_is_seen(case, &s, &mut traced, budget);

        let budget = hold_to_budget(case, &s, &mut OnsiteGreedy::new(inst), &mut seen);
        let mut traced = OnsiteGreedy::with_sink(inst, ring());
        assert_tracing_is_seen(case, &s, &mut traced, budget);

        let budget = hold_to_budget(case, &s, &mut OffsitePrimalDual::new(inst), &mut seen);
        let mut traced = OffsitePrimalDual::with_sink(inst, ring());
        assert_tracing_is_seen(case, &s, &mut traced, budget);

        let budget = hold_to_budget(case, &s, &mut OffsiteGreedy::new(inst), &mut seen);
        let mut traced = OffsiteGreedy::with_sink(inst, ring());
        assert_tracing_is_seen(case, &s, &mut traced, budget);
    }
    chain_decisions_hold_their_allocation_budget();
    runs_allocate_what_the_stream_length_does_not_set();
    assert!(
        seen.rejects > 0 && seen.onsite_admits > 0 && seen.offsite_admits > 0,
        "every budget class must be exercised: {} rejects, {} on-site, {} off-site admits",
        seen.rejects,
        seen.onsite_admits,
        seen.offsite_admits
    );
}
