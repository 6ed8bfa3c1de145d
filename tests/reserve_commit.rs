//! Two-phase reservation audit: `CapacityLedger`'s reserve/commit
//! protocol (a self-contained primitive; the daemon's lanes share
//! nothing and never call it) must never double-charge a
//! cloudlet, never leak a hold, and never persist an in-flight hold as
//! a committed charge across snapshot/restore (the kill-mid-reserve
//! case). Exercised three ways: a multi-threaded hammer over one shared
//! ledger, proptest over randomized op sequences, and a scheduler-level
//! export/import mid-reservation.

use std::sync::Mutex;
use std::thread;

use mec_topology::generators::{self, CloudletPlacement};
use mec_topology::CloudletId;
use mec_workload::{Horizon, RequestGenerator, VnfCatalog};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::{CapacityLedger, OnlineScheduler, ProblemInstance};

/// Deterministic instance with a handful of cloudlets.
fn instance(seed: u64) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = CloudletPlacement {
        fraction: 0.6,
        capacity: (20, 40),
        reliability: (0.99, 0.9999),
    };
    let net = generators::waxman(12, 0.5, 0.3, &placement, &mut rng).unwrap();
    ProblemInstance::new(net, VnfCatalog::standard(), Horizon::new(12)).unwrap()
}

fn fresh_ledger(seed: u64) -> CapacityLedger {
    let inst = instance(seed);
    CapacityLedger::new(inst.network(), inst.horizon())
}

#[test]
fn concurrent_reserve_commit_never_overbooks_or_leaks() {
    let ledger = Mutex::new(fresh_ledger(41));
    let (cloudlets, slots) = {
        let l = ledger.lock().unwrap();
        (l.cloudlet_count(), l.horizon().len())
    };
    const THREADS: usize = 8;
    const OPS: usize = 400;

    // Each thread mimics a rescuing shard: take a hold under the lock,
    // drop the lock (the owning shard keeps deciding), then resolve the
    // hold later. Commits are tallied per cell so the final grid can be
    // checked against exactly what was committed.
    let committed: Vec<f64> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ledger = &ledger;
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(1000 + t as u64);
                    let mut mine = vec![0.0f64; cloudlets * slots];
                    for _ in 0..OPS {
                        let c = rng.gen_range(0..cloudlets);
                        let first = rng.gen_range(0..slots);
                        let last = rng.gen_range(first..slots);
                        let amount = rng.gen_range(1..6) as f64;
                        let hold = ledger.lock().unwrap().try_reserve_window(
                            CloudletId(c),
                            first,
                            last,
                            amount,
                        );
                        let Some(id) = hold else { continue };
                        // The hold outlives the lock: other threads
                        // reserve and resolve in between.
                        if rng.gen_bool(0.5) {
                            thread::yield_now();
                        }
                        let mut l = ledger.lock().unwrap();
                        if rng.gen_bool(0.7) {
                            l.commit_reservation(id).expect("hold is live");
                            for s in first..=last {
                                mine[c * slots + s] += amount;
                            }
                        } else {
                            l.cancel_reservation(id).expect("hold is live");
                        }
                    }
                    mine
                })
            })
            .collect();
        let mut total = vec![0.0f64; cloudlets * slots];
        for h in handles {
            for (acc, v) in total.iter_mut().zip(h.join().unwrap()) {
                *acc += v;
            }
        }
        total
    });

    let l = ledger.lock().unwrap();
    assert_eq!(l.reservation_count(), 0, "a hold leaked");
    for c in 0..cloudlets {
        let cap = l.capacity(CloudletId(c));
        for s in 0..slots {
            let used = l.used(CloudletId(c), s);
            assert!(
                used <= cap + 1e-9,
                "cloudlet {c} slot {s} overbooked: {used} > cap {cap}"
            );
            let expected = committed[c * slots + s];
            assert!(
                (used - expected).abs() < 1e-6,
                "cloudlet {c} slot {s}: ledger says {used}, commits sum to {expected} \
                 (double-charge or lost commit)"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized single-owner op sequences: reserve a batch of holds,
    /// resolve them in an arbitrary order/arm mix, and the ledger must
    /// equal a charge-only ledger that performed just the commits.
    #[test]
    fn reserve_resolve_sequences_match_direct_charges(
        seed in 0u64..1_000,
        n_ops in 1usize..40,
        op_seed in 0u64..1_000_000,
    ) {
        let mut two_phase = fresh_ledger(seed % 7);
        let mut direct = two_phase.clone();
        let cloudlets = two_phase.cloudlet_count();
        let slots = two_phase.horizon().len();

        let mut rng = ChaCha8Rng::seed_from_u64(op_seed);
        let mut pending = Vec::new();
        for _ in 0..n_ops {
            let c = CloudletId(rng.gen_range(0..cloudlets));
            let first = rng.gen_range(0..slots);
            let last = (first + rng.gen_range(0usize..4)).min(slots - 1);
            let amount = rng.gen_range(1..6) as f64;
            let commit = rng.gen_bool(0.5);
            if let Some(id) = two_phase.try_reserve_window(c, first, last, amount) {
                pending.push((id, c, first, last, amount, commit));
            }
        }
        prop_assert_eq!(two_phase.reservation_count(), pending.len());

        // Resolve in reverse order (≠ issue order) to shake the id map.
        for &(id, c, first, last, amount, commit) in pending.iter().rev() {
            if commit {
                two_phase.commit_reservation(id).unwrap();
                direct.charge_window(c, first, last, amount);
            } else {
                two_phase.cancel_reservation(id).unwrap();
            }
            // Ids resolve exactly once.
            prop_assert!(two_phase.commit_reservation(id).is_err());
            prop_assert!(two_phase.cancel_reservation(id).is_err());
        }

        prop_assert_eq!(two_phase.reservation_count(), 0);
        prop_assert_eq!(two_phase.used_grid(), direct.used_grid());
    }
}

#[test]
fn kill_mid_reserve_drops_the_hold_instead_of_charging_it() {
    // A scheduler that dies between reserve and commit (a crashed
    // cross-shard rescue) must come back with the hold gone: snapshots
    // carry committed charges only.
    let inst = instance(42);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let requests = RequestGenerator::new(inst.horizon())
        .generate(40, inst.catalog(), &mut rng)
        .unwrap();

    let mut primary = OffsitePrimalDual::new(&inst);
    for r in &requests {
        primary.decide(r);
    }
    let committed: Vec<f64> = primary.ledger().used_grid().to_vec();

    // Mid-rescue: a foreign shard holds capacity on cloudlet 0 but the
    // process dies before the commit.
    let c0 = CloudletId(0);
    let headroom_before = primary.ledger().capacity(c0) - primary.ledger().used(c0, 0);
    let hold = primary
        .ledger_mut()
        .try_reserve_window(c0, 0, 2, 1.0)
        .expect("capacity for a 1.0 hold");
    assert_eq!(primary.ledger().reservation_count(), 1);

    // The exported state is what a snapshot persists: the hold must not
    // appear in it.
    let state = primary.export_state();
    assert_eq!(
        state.used, committed,
        "an uncommitted hold leaked into the exported usage grid"
    );

    // Restart path: a fresh scheduler imports the snapshot and sees the
    // pre-hold headroom — the hold was dropped, not charged.
    let mut restarted = OffsitePrimalDual::new(&inst);
    restarted.import_state(&state).expect("state fits");
    assert_eq!(restarted.ledger().reservation_count(), 0);
    assert_eq!(restarted.ledger().used_grid(), committed.as_slice());
    assert!(
        (restarted.ledger().capacity(c0) - restarted.ledger().used(c0, 0) - headroom_before).abs()
            < 1e-12,
        "restored headroom must not reflect the dead hold"
    );

    // In-place restore (the daemon's own crash-recovery arm) also
    // clears the in-flight reservation table.
    primary.import_state(&state).expect("state fits");
    assert_eq!(primary.ledger().reservation_count(), 0);
    assert!(primary.ledger_mut().commit_reservation(hold).is_err());

    // And both copies decide identically afterwards: recovery left no
    // phantom capacity behind.
    let probe = &requests[0];
    assert_eq!(
        format!("{:?}", primary.decide(probe)),
        format!("{:?}", restarted.decide(probe))
    );
}
