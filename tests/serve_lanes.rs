//! What one pipeline gives every lane count: the restrictions that used
//! to separate "the daemon" from "the sharded daemon" and are gone —
//! `chaos-panic` heals a caller-owned lane, every lane has a dedupe
//! ring — and the one that is left, refused before anything binds.

#[path = "serve_common.rs"]
mod common;

use std::net::TcpListener;

use common::{scenario, sharded_config, spawn_lane, spawn_sharded, Algo, LockStep};
use mec_serve::{
    encode_batch_into, parse_batch_reply_into, referee, serve_sharded, AckRecord, ChaosArtifacts,
    ClientMsg, ControlAction, ServeConfig, ServeError, ServeMetricIds, ServerMsg, SubmitRequest,
    BATCH_ADMIT, BATCH_REJECT,
};
use vnfrel::{SchedulerState, Scheme};

fn bits(grid: &[f64]) -> Vec<u64> {
    grid.iter().map(|v| v.to_bits()).collect()
}

fn assert_states_bit_equal(a: &SchedulerState, b: &SchedulerState, what: &str) {
    assert_eq!(bits(&a.used), bits(&b.used), "{what}: usage grid");
    assert_eq!(bits(&a.lambda), bits(&b.lambda), "{what}: dual prices");
    assert_eq!(a.sum_delta.to_bits(), b.sum_delta.to_bits(), "{what}");
    assert_eq!(a.counters, b.counters, "{what}: rejection counters");
}

/// `chaos-panic 0` against `serve()`: the supervisor re-imports lane 0's
/// recovery base into the caller's scheduler and replays the suffix. The
/// panic lands past two compactions and mid-suffix, and the healed run
/// must end in the state of a twin that never panicked — for both
/// primal-dual schedulers (span-sized compaction) and a greedy baseline
/// (the trait's whole-grid fallback).
#[test]
fn chaos_panic_heals_a_caller_owned_lane_bit_for_bit() {
    let (instance, reqs) = scenario(400, 84);
    for algo in [Algo::Onsite, Algo::Offsite, Algo::OnsiteGreedy] {
        let run = |panic_at: Option<usize>| {
            let (addr, daemon) =
                spawn_lane(instance.clone(), algo, ServeConfig::new("127.0.0.1:0"));
            let mut conn = LockStep::connect(addr);
            let mut lines = Vec::new();
            for (i, request) in reqs.iter().enumerate() {
                if panic_at == Some(i) {
                    conn.control(ControlAction::ChaosPanic(0));
                }
                lines.push(conn.submit_raw(request));
            }
            conn.control(ControlAction::Shutdown);
            let (report, state) = daemon.join().unwrap();
            (report.unwrap(), state, lines)
        };
        let (healed, healed_state, healed_lines) = run(Some(150));
        let (twin, twin_state, twin_lines) = run(None);

        assert_eq!(healed_lines, twin_lines, "{algo:?}: decision stream");
        assert_eq!(healed.stats.decided as usize, reqs.len());
        assert_eq!(
            healed.stats.revenue.to_bits(),
            twin.stats.revenue.to_bits(),
            "{algo:?}: revenue"
        );
        assert!(healed.stats.admitted > 0 && healed.stats.rejected > 0);
        assert_states_bit_equal(&healed_state, &twin_state, &format!("{algo:?}"));
    }
}

/// S = 2: an id already decided inside its lane's window is answered
/// with the first answer, in the frame type the resubmit arrives in,
/// without touching the scheduler again.
#[test]
fn every_lane_answers_resubmits_from_its_dedupe_ring() {
    let (instance, reqs) = scenario(120, 85);
    let (addr, daemon) = spawn_sharded(instance, Scheme::OnSite, sharded_config(2));
    let mut conn = LockStep::connect(addr);

    // First half as v2 singles, second half as one v3 frame per 20.
    let cut = reqs.len() / 2;
    let mut acks = Vec::new();
    let mut first_lines = Vec::new();
    for request in &reqs[..cut] {
        let line = conn.submit_raw(request);
        let ServerMsg::Decision(event) = mec_serve::parse_server(&line).unwrap() else {
            panic!("request {} answered with {line}", request.id().index());
        };
        let admitted = event.outcome.is_admit();
        acks.push(AckRecord {
            id: event.request,
            admitted,
            payment: if admitted { event.payment } else { 0.0 },
        });
        first_lines.push(line);
    }
    let mut frame = String::new();
    let mut codes = Vec::new();
    let mut first_codes = Vec::new();
    for (seq, chunk) in reqs[cut..].chunks(20).enumerate() {
        let submits: Vec<SubmitRequest> = chunk.iter().map(SubmitRequest::from).collect();
        encode_batch_into(&mut frame, seq as u64, &submits);
        parse_batch_reply_into(&conn.raw(frame.clone()), &mut codes).unwrap();
        for (request, &code) in chunk.iter().zip(&codes) {
            assert!(code == BATCH_ADMIT || code == BATCH_REJECT, "code {code}");
            let admitted = code == BATCH_ADMIT;
            acks.push(AckRecord {
                id: request.id().index(),
                admitted,
                payment: if admitted { request.payment() } else { 0.0 },
            });
        }
        first_codes.extend_from_slice(&codes);
    }

    // Resubmit everything: singles as singles, batches as batches (ids
    // of both lanes in every frame).
    for (request, first) in reqs[..cut].iter().zip(&first_lines) {
        assert_eq!(&conn.submit_raw(request), first);
    }
    let mut second_codes = Vec::new();
    for (seq, chunk) in reqs[cut..].chunks(20).enumerate() {
        let submits: Vec<SubmitRequest> = chunk.iter().map(SubmitRequest::from).collect();
        encode_batch_into(&mut frame, 100 + seq as u64, &submits);
        parse_batch_reply_into(&conn.raw(frame.clone()), &mut codes).unwrap();
        second_codes.extend_from_slice(&codes);
    }
    assert_eq!(second_codes, first_codes);
    // A single decided in a batch kept only its code: the v3 answer is
    // the first one, the v2 answer is a typed error, neither re-decides.
    let reply = conn.submit_raw(&reqs[cut]);
    assert!(
        matches!(mec_serve::parse_server(&reply), Ok(ServerMsg::Error(_))),
        "{reply}"
    );

    let hits = common::scrape_counter(addr, "vnfrel_serve_dedupe_hits_total");
    assert_eq!(hits as usize, reqs.len() + 1);
    conn.control(ControlAction::Shutdown);
    let report = daemon.join().unwrap().unwrap();
    assert_eq!(
        report.stats.decided as usize,
        reqs.len(),
        "no id decided twice"
    );
    let verdict = referee::check(&ChaosArtifacts {
        acks,
        survivor: report.stats,
        complete: true,
        deposed_acks_after_fence: 0,
    });
    assert!(verdict.is_clean(), "{:?}", verdict.violations);
}

/// Snapshots and replication cover one scheduler. With two lanes each of
/// those options is one typed configuration error before the listener
/// binds (the address below is taken, so binding first would fail with
/// `ServeError::Net` instead), and a running two-lane daemon answers the
/// matching controls with typed errors.
#[test]
fn single_scheduler_options_are_refused_with_two_lanes() {
    let (instance, _) = scenario(4, 86);
    let taken = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let with = |set: fn(&mut ServeConfig)| {
        let mut config = ServeConfig::new(addr.clone());
        config.shards = 2;
        set(&mut config);
        config
    };
    let configs = [
        with(|c| c.snapshot_path = Some(std::env::temp_dir().join("never-written.snap"))),
        with(|c| c.replicate_to = Some("127.0.0.1:1".to_string())),
        with(|c| c.standby = true),
        with(|c| c.resume = true),
    ];
    for config in &configs {
        let mut registry = mec_obs::MetricsRegistry::new();
        let ids = ServeMetricIds::register_sharded(&mut registry, instance.cloudlet_count(), 2);
        match serve_sharded(&instance, Scheme::OnSite, &registry, &ids, config, None) {
            Err(ServeError::Config(text)) => assert!(text.contains("2 lanes"), "{text}"),
            other => panic!("expected a configuration error, got {other:?}"),
        }
    }

    let (addr, daemon) = spawn_sharded(instance, Scheme::OnSite, sharded_config(2));
    let mut conn = LockStep::connect(addr);
    for action in [ControlAction::Snapshot, ControlAction::Promote] {
        match conn.round_trip(&ClientMsg::Control(action)) {
            ServerMsg::Error(text) => assert!(text.contains("2 lanes"), "{text}"),
            other => panic!("{action:?} on two lanes answered {other:?}"),
        }
    }
    conn.control(ControlAction::Shutdown);
    daemon.join().unwrap().unwrap();
}
