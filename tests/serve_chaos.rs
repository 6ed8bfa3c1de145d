//! Chaos-machinery coverage: replay-safety of the fault schedule
//! (property-tested — equal seeds must yield byte-identical plans),
//! reachability of every snapshot-I/O injection boundary through the
//! real save pipeline, the typed loadgen deadline, and the sharded
//! tier's self-healing contract (a supervised restart after an injected
//! panic must end revenue-bit-identical to an un-chaosed run, and — with
//! span-compacted recovery bases under the replayed suffix —
//! state-bit-identical too).

#[path = "serve_common.rs"]
mod common;

use std::time::Duration;

use common::scenario;
use mec_serve::{
    chaos_matrix, run_loadgen, ChaosConfig, ChaosPlan, ChaosScenario, ChaosSnapshotIo, LineClient,
    LoadgenConfig, ServeError, ShardedConfig, Snapshot, SnapshotStep,
};
use proptest::prelude::*;
use vnfrel::Scheme;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay safety: the schedule is a pure function of (seed, config).
    /// Two plans drawn from equal inputs render byte-identical schedule
    /// text, and derived per-link plans are equally deterministic.
    #[test]
    fn equal_seeds_yield_byte_identical_schedules(
        seed in 0u64..=u64::MAX,
        drop_ppk in 0u32..256,
        delay_ppk in 0u32..256,
        truncate_ppk in 0u32..256,
        stall_ppk in 0u32..256,
        partition_ppk in 0u32..64,
        disk_fail_ppk in 0u32..1024,
        salt in 0u64..=u64::MAX,
    ) {
        let config = ChaosConfig {
            drop_ppk,
            delay_ppk,
            truncate_ppk,
            stall_ppk,
            partition_ppk,
            disk_fail_ppk,
            ..ChaosConfig::default()
        };
        let a = ChaosPlan::new(seed, config);
        let b = ChaosPlan::new(seed, config);
        prop_assert_eq!(a.schedule_text(), b.schedule_text());
        prop_assert_eq!(
            a.derive(salt).schedule_text(),
            b.derive(salt).schedule_text()
        );
        // A different seed must not reproduce the schedule (the all-
        // forward schedule at zero fault rates is the one degenerate
        // case where every seed agrees).
        let any_faults = drop_ppk + delay_ppk + truncate_ppk + stall_ppk + partition_ppk > 0
            || disk_fail_ppk > 0;
        if any_faults {
            prop_assert_ne!(
                a.schedule_text(),
                ChaosPlan::new(seed ^ 0x9e37_79b9, config).schedule_text()
            );
        }
    }
}

/// Every one of the six write-temp/fsync/rename boundaries must be
/// reachable through the real [`Snapshot::save_with`] pipeline — a seam
/// that can only fail some boundaries would leave crash paths untested.
/// And no failed attempt, at any boundary, may damage the snapshot
/// already on disk.
#[test]
fn every_snapshot_boundary_injects_and_never_tears_the_snapshot() {
    let dir = std::env::temp_dir().join(format!("vnfrel-chaos-seam-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seam.snap");

    // Fail every attempt: the drawn boundary is uniform per attempt, so
    // the 64-attempt schedule covers all six boundaries for this seed
    // (asserted below, not assumed).
    let plan = ChaosPlan::new(
        11,
        ChaosConfig {
            disk_fail_ppk: 1024,
            ..ChaosConfig::default()
        },
    );
    let seam = ChaosSnapshotIo::new(&plan);

    // Seed the target with one good snapshot, seam disarmed.
    let golden = Snapshot {
        algorithm: "seam-test".to_string(),
        config: "seam-test".to_string(),
        next_id: 3,
        slot: 1,
        stats: mec_serve::ServeStats::default(),
        state: vnfrel::SchedulerState::default(),
        epoch: 1,
        seq: 3,
        recent: Vec::new(),
    };
    // (Through the production seam, not the chaos one: even a disarmed
    // chaos seam consumes a schedule cell per attempt.)
    golden.save(&path).unwrap();
    let reference = std::fs::read(&path).unwrap();

    let mut failures = 0;
    for attempt in 0..64 {
        match golden.save_with(&path, &*seam) {
            Ok(()) => {}
            Err(e) => {
                failures += 1;
                assert!(
                    e.to_string().contains("chaos"),
                    "attempt {attempt} failed for a non-injected reason: {e}"
                );
            }
        }
        // Crash consistency at every boundary: the target file never
        // holds anything but a complete snapshot.
        Snapshot::load(&path)
            .unwrap_or_else(|e| panic!("attempt {attempt} left a torn snapshot behind: {e}"));
    }
    assert_eq!(failures, 64, "disk_fail_ppk=1024 must fail every attempt");
    let coverage = seam.coverage();
    for (step, hits) in SnapshotStep::ALL.iter().zip(coverage) {
        assert!(
            hits > 0,
            "boundary {} was never injected (coverage {coverage:?})",
            step.as_str()
        );
    }
    // A successful save still goes through after the schedule runs dry
    // or the seam is disarmed — the seam must not wedge the pipeline.
    seam.disarm();
    golden.save_with(&path, &*seam).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The loadgen deadline is a typed failure, not a hang or a generic
/// error: retrying against a dead address must end in
/// [`ServeError::Deadline`] once the budget elapses (the CLI maps it to
/// exit code 8).
#[test]
fn loadgen_deadline_fails_typed_against_a_dead_peer() {
    let (_instance, reqs) = scenario(4, 81);
    let mut config = LoadgenConfig::new(common::unused_addr());
    config.reconnect = true;
    config.deadline = Some(Duration::from_millis(200));
    let started = std::time::Instant::now();
    match run_loadgen(&reqs, &config) {
        Err(ServeError::Deadline { what, budget_ms }) => {
            assert_eq!(what, "loadgen");
            assert_eq!(budget_ms, 200);
        }
        other => panic!("expected a typed deadline, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "deadline took far longer than its budget to fire"
    );
}

/// The self-healing contract: killing every decide thread mid-stream
/// with `chaos-panic` and letting the per-shard supervisors restore and
/// replay must end with revenue *bit-identical* to the same trace served
/// without any chaos. Replay re-derives state instead of re-charging, so
/// even the float accumulation order must match. This is the library's
/// process cell — one restart per shard, and `decided`, `admitted` and
/// `revenue` (`f64 ==`) equal to the sharded golden run's — over a
/// scenario that is not the drill's own.
#[test]
fn supervised_restart_after_injected_panic_is_revenue_bit_identical() {
    let (instance, requests) = scenario(40, 82);
    let scenarios = [ChaosScenario {
        scheme: Scheme::OnSite,
        instance,
        requests,
        fingerprint: "supervised-restart".to_string(),
    }];
    let plan = ChaosPlan::new(7, ChaosConfig::default());
    let report = chaos_matrix(String::new(), &scenarios, &plan, None, &mut |_| {}).unwrap();
    let cell = (report.cells.iter())
        .find(|cell| cell.family == "process")
        .expect("the matrix has a process cell");
    assert!(cell.clean, "{}", cell.line);
    assert!(
        cell.line.contains("2 decide threads killed and healed"),
        "{}",
        cell.line
    );
}

/// What one shard's recovery log must hold, reconstructed from the
/// stream alone: one entry per request decided on its home shard; the
/// one that brings the suffix to `RECOVERY_COMPACT` folds it into the
/// base. Nothing a request does ever leaves its home shard.
#[derive(Default, Clone, Copy)]
struct RecoveryLogModel {
    suffix: usize,
    compactions: usize,
}

impl RecoveryLogModel {
    // `RECOVERY_COMPACT` in daemon.rs.
    const COMPACT: usize = 64;

    fn note(logs: &mut [Self], request: &mec_workload::Request) {
        let home = &mut logs[request.id().index() % logs.len()];
        home.suffix += 1;
        if home.suffix >= Self::COMPACT {
            home.suffix = 0;
            home.compactions += 1;
        }
    }

    // Span-compacted three times, with half a suffix to replay on top.
    fn ripe(&self) -> bool {
        self.compactions >= 3 && self.suffix >= Self::COMPACT / 2
    }
}

/// The recovery base is refreshed in place over the slot span its suffix
/// touched, never re-exported whole — so a base that missed a cell would
/// only show after a restore. Drive an off-site S = 2 daemon in
/// lock-step until both shards have compacted at least three times and
/// hold half a suffix each, kill both decide threads, finish the stream,
/// and compare every shard's final state with an unpanicked twin's, bit
/// for bit.
#[test]
fn restore_after_span_compactions_rebuilds_the_twins_state_bit_for_bit() {
    use mec_serve::ControlAction;

    const SHARDS: usize = 2;
    let (instance, reqs) = common::week_scenario(240, 83);

    // Returns the final report and whether the panics were injected.
    let run = |chaos: bool| {
        let mut config = ShardedConfig::new("127.0.0.1:0");
        config.shards = SHARDS;
        let (addr, daemon) = common::spawn_sharded(instance.clone(), Scheme::OffSite, config);
        let mut conn = LineClient::connect(addr).unwrap();
        let mut logs = [RecoveryLogModel::default(); SHARDS];
        let mut panicked = false;
        for request in &reqs {
            common::decide(&mut conn, request);
            RecoveryLogModel::note(&mut logs, request);
            if chaos && !panicked && logs.iter().all(RecoveryLogModel::ripe) {
                for shard in 0..SHARDS {
                    conn.control(ControlAction::ChaosPanic(shard)).unwrap();
                }
                panicked = true;
            }
        }
        conn.control(ControlAction::Shutdown).unwrap();
        (daemon.join().unwrap().unwrap(), panicked)
    };

    let (healed, panicked) = run(true);
    assert!(
        panicked,
        "the stream never left both shards three compactions in with half a suffix to replay"
    );
    let (twin, _) = run(false);

    assert_eq!(healed.shard_restarts, SHARDS as u64);
    assert_eq!(twin.shard_restarts, 0);
    assert_eq!(healed.stats.revenue.to_bits(), twin.stats.revenue.to_bits());
    for (s, (a, b)) in healed
        .shard_states
        .iter()
        .zip(&twin.shard_states)
        .enumerate()
    {
        common::assert_states_bit_equal(a, b, &format!("shard {s}"));
        assert!(
            a.lambda.iter().any(|&l| l != 0.0),
            "shard {s} never priced anything"
        );
    }
}
