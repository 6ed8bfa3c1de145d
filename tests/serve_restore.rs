//! Snapshot/restore determinism (golden-stream comparison, like
//! `tests/equivalence.rs`): a daemon killed mid-trace and restored from
//! its last snapshot must produce a decision stream that — concatenated
//! with the pre-kill prefix — is byte-identical to an uninterrupted run.
//!
//! The "kill" loses work on purpose: the first daemon keeps deciding
//! *after* the snapshot was taken, and those post-snapshot decisions are
//! discarded. The restored daemon replays exactly those requests again;
//! if restore were not bit-exact (prices, usage grid, Σδ), the replayed
//! suffix would diverge from the golden stream.

#[path = "serve_common.rs"]
mod common;

use common::{scenario, spawn_daemon, submit_all, try_spawn_daemon, Algo};
use mec_serve::{ControlAction, LineClient, ServeConfig};

fn check_restore(algo: Algo) {
    let (instance, reqs) = scenario(1200, 11);
    let cut = 500;
    let lost = 120; // decided after the snapshot, then "lost" in the kill
    let dir = std::env::temp_dir().join(format!("vnfrel-serve-restore-{algo:?}"));
    std::fs::create_dir_all(&dir).unwrap();
    let fingerprint = "restore-test:seed=11";

    // Golden: one uninterrupted daemon over the whole trace.
    let golden = {
        let (addr, daemon) = spawn_daemon(instance.clone(), algo, {
            let mut c = ServeConfig::new("127.0.0.1:0");
            c.fingerprint = fingerprint.to_string();
            c
        });
        let mut client = LineClient::connect(addr).unwrap();
        let stream = submit_all(&mut client, &reqs);
        client.control(ControlAction::Shutdown).unwrap();
        daemon.join().unwrap().unwrap();
        stream
    };

    // Interrupted: decide `cut`, snapshot, decide `lost` more, then die
    // without using the newer state (the snapshot file from the explicit
    // control is copied aside before the shutdown overwrites it).
    let snap_live = dir.join("live.snap");
    let snap_kept = dir.join("kept.snap");
    let mut prefix = {
        let (addr, daemon) = spawn_daemon(instance.clone(), algo, {
            let mut c = ServeConfig::new("127.0.0.1:0");
            c.fingerprint = fingerprint.to_string();
            c.snapshot_path = Some(snap_live.clone());
            c
        });
        let mut client = LineClient::connect(addr).unwrap();
        let stream = submit_all(&mut client, &reqs[..cut]);
        client.control(ControlAction::Snapshot).unwrap();
        std::fs::copy(&snap_live, &snap_kept).unwrap();
        // Work the kill will lose.
        submit_all(&mut client, &reqs[cut..cut + lost]);
        client.control(ControlAction::Shutdown).unwrap();
        daemon.join().unwrap().unwrap();
        stream
    };

    // Restored: a fresh daemon resumes from the kept snapshot and
    // replays everything after the cut (including the lost work).
    let suffix = {
        let (addr, daemon) = spawn_daemon(instance, algo, {
            let mut c = ServeConfig::new("127.0.0.1:0");
            c.fingerprint = fingerprint.to_string();
            c.snapshot_path = Some(snap_kept.clone());
            c.resume = true;
            c
        });
        let mut client = LineClient::connect(addr).unwrap();
        let stream = submit_all(&mut client, &reqs[cut..]);
        client.control(ControlAction::Shutdown).unwrap();
        let (report, _) = daemon.join().unwrap().unwrap();
        assert_eq!(report.next_id, reqs.len());
        assert_eq!(report.stats.decided as usize, reqs.len());
        stream
    };

    prefix.extend(suffix);
    assert_eq!(prefix.len(), golden.len());
    for (i, (a, b)) in golden.iter().zip(prefix.iter()).enumerate() {
        assert_eq!(a, b, "decision stream diverged at request {i}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_restore_reproduces_decision_stream_onsite() {
    check_restore(Algo::Onsite);
}

#[test]
fn kill_restore_reproduces_decision_stream_offsite() {
    check_restore(Algo::Offsite);
}

#[test]
fn resume_refuses_mismatched_fingerprint() {
    let (instance, reqs) = scenario(50, 3);
    let dir = std::env::temp_dir().join("vnfrel-serve-restore-mismatch");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("state.snap");

    let (addr, daemon) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = ServeConfig::new("127.0.0.1:0");
        c.fingerprint = "config-a".to_string();
        c.snapshot_path = Some(snap.clone());
        c
    });
    let mut client = LineClient::connect(addr).unwrap();
    submit_all(&mut client, &reqs);
    client.control(ControlAction::Shutdown).unwrap();
    daemon.join().unwrap().unwrap();

    // A daemon with a different fingerprint must refuse the snapshot, and
    // the refusal is the bring-up's error: it never bound for service.
    let mut c = ServeConfig::new("127.0.0.1:0");
    c.fingerprint = "config-b".to_string();
    c.snapshot_path = Some(snap.clone());
    c.resume = true;
    match try_spawn_daemon(instance, Algo::Onsite, c) {
        Err(e) => assert!(e.to_string().contains("does not match"), "{e}"),
        Ok(_) => panic!("resume with a mismatched fingerprint succeeded"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
