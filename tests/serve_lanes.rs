//! What one pipeline gives every lane count: the restrictions that used
//! to separate "the daemon" from "the sharded daemon" and are gone —
//! `chaos-panic` heals a caller-owned lane, every lane has a dedupe
//! ring — and the one that is left, refused before anything binds.

#[path = "serve_common.rs"]
mod common;

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use common::{
    assert_states_bit_equal, raw, scenario, sharded_config, spawn_daemon, spawn_sharded,
    submit_raw, Algo,
};
use mec_serve::{
    encode_batch_into, encode_client, is_batch_reply, parse_batch_reply_into, parse_server,
    referee, serve_sharded, AckRecord, ChaosArtifacts, ClientMsg, ControlAction, LineClient,
    ServeConfig, ServeError, ServeMetricIds, ServeStats, ServerMsg, SubmitRequest, BATCH_ADMIT,
    BATCH_REJECT,
};
use vnfrel::{SchedulerState, Scheme};

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
                spawn_daemon(instance.clone(), algo, ServeConfig::new("127.0.0.1:0"));
            let mut conn = LineClient::connect(addr).unwrap();
            let mut lines = Vec::new();
            for (i, request) in reqs.iter().enumerate() {
                if panic_at == Some(i) {
                    conn.control(ControlAction::ChaosPanic(0)).unwrap();
                }
                lines.push(submit_raw(&mut conn, request));
            }
            conn.control(ControlAction::Shutdown).unwrap();
            let (report, state) = daemon.join().unwrap().unwrap();
            (report, state, lines)
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
    let mut conn = LineClient::connect(addr).unwrap();

    // First half as v2 singles, second half as one v3 frame per 20.
    let cut = reqs.len() / 2;
    let mut acks = Vec::new();
    let mut first_lines = Vec::new();
    for request in &reqs[..cut] {
        let line = submit_raw(&mut conn, request);
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
        parse_batch_reply_into(&raw(&mut conn, &frame), &mut codes).unwrap();
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
        assert_eq!(&submit_raw(&mut conn, request), first);
    }
    let mut second_codes = Vec::new();
    for (seq, chunk) in reqs[cut..].chunks(20).enumerate() {
        let submits: Vec<SubmitRequest> = chunk.iter().map(SubmitRequest::from).collect();
        encode_batch_into(&mut frame, 100 + seq as u64, &submits);
        parse_batch_reply_into(&raw(&mut conn, &frame), &mut codes).unwrap();
        second_codes.extend_from_slice(&codes);
    }
    assert_eq!(second_codes, first_codes);
    // A single decided in a batch kept only its code: the v3 answer is
    // the first one, the v2 answer is a typed error, neither re-decides.
    let reply = submit_raw(&mut conn, &reqs[cut]);
    assert!(
        matches!(mec_serve::parse_server(&reply), Ok(ServerMsg::Error(_))),
        "{reply}"
    );

    let hits = common::scrape(addr, "vnfrel_serve_dedupe_hits_total");
    assert_eq!(hits as usize, reqs.len() + 1);
    conn.control(ControlAction::Shutdown).unwrap();
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

/// Snapshots and replication cover one scheduler, and every lane counts
/// into metric series of its own. With two lanes each of those options —
/// and metric ids registered for one lane — is one typed configuration
/// error before the listener binds (the address below is taken, so binding first would fail with
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
    let refused = |config: &ServeConfig, metric_lanes: usize| {
        let mut registry = mec_obs::MetricsRegistry::new();
        let cloudlets = instance.cloudlet_count();
        let ids = ServeMetricIds::register_sharded(&mut registry, cloudlets, metric_lanes);
        match serve_sharded(&instance, Scheme::OnSite, &registry, &ids, config, None) {
            Err(ServeError::Config(text)) => assert!(text.contains("2 lanes"), "{text}"),
            other => panic!("expected a configuration error, got {other:?}"),
        }
    };
    for config in &configs {
        refused(config, 2);
    }
    // So are metric ids registered for one lane: lane 1 would have
    // nowhere to count.
    refused(&with(|_| {}), 1);

    let (addr, daemon) = spawn_sharded(instance, Scheme::OnSite, sharded_config(2));
    let mut conn = LineClient::connect(addr).unwrap();
    for action in [ControlAction::Snapshot, ControlAction::Promote] {
        match conn.round_trip(&ClientMsg::Control(action)).unwrap() {
            ServerMsg::Error(text) => assert!(text.contains("2 lanes"), "{text}"),
            other => panic!("{action:?} on two lanes answered {other:?}"),
        }
    }
    conn.control(ControlAction::Shutdown).unwrap();
    daemon.join().unwrap().unwrap();
}

/// What one pipelined burst read back, and what the daemon reported.
struct Burst {
    // Batch replies in arrival order: (sequence number, codes).
    frames: Vec<(u64, Vec<u8>)>,
    // The v2 single's decision line.
    single: String,
    // Acked control verbs, in arrival order.
    acks: Vec<(ControlAction, ServeStats)>,
    restarts: u64,
    revenue: f64,
    states: Vec<SchedulerState>,
}

// One connection writes 8 v3 frames, a v2 single, `chaos-panic <lane>`
// (when `panic` names one), 8 more frames and a `stats` control in a
// single `write`, and only then starts reading. At S = 2 frame `k`
// carries ids of lane `k mod 2` only, except every fourth, which mixes
// both lanes (the gather path).
fn pipelined_burst(shards: usize, panic: Option<usize>) -> Burst {
    const FRAME: usize = 16;
    let (instance, reqs) = scenario(16 * FRAME + 1, 87);
    let (addr, daemon) = spawn_sharded(instance, Scheme::OnSite, sharded_config(shards));

    // Ids are the daemon's to route, so assign them here: lane `s` gets
    // its own increasing ids of residue `s`.
    let mut next_id: Vec<usize> = (0..shards).collect();
    let mut submit = |lane: usize, request: &mec_workload::Request| {
        let id = next_id[lane];
        next_id[lane] += shards;
        SubmitRequest {
            id,
            ..SubmitRequest::from(request)
        }
    };
    let mut script = String::new();
    let mut push = |line: &str| {
        script.push_str(line);
        script.push('\n');
    };
    let mut frame = String::new();
    let mut single = None;
    for (k, chunk) in reqs[..16 * FRAME].chunks(FRAME).enumerate() {
        if k == 8 {
            let submit = submit(0, &reqs[16 * FRAME]);
            push(&encode_client(&ClientMsg::Submit(submit)));
            single = Some(submit);
            if let Some(lane) = panic {
                let chaos = ControlAction::ChaosPanic(lane);
                push(&encode_client(&ClientMsg::Control(chaos)));
            }
        }
        let submits: Vec<SubmitRequest> = (chunk.iter().enumerate())
            .map(|(i, r)| submit(if k % 4 == 3 { i % shards } else { k % shards }, r))
            .collect();
        encode_batch_into(&mut frame, k as u64, &submits);
        push(&frame);
    }
    push(&encode_client(&ClientMsg::Control(ControlAction::Stats)));
    let single = single.expect("sent between the two halves");

    let mut conn = LineClient::connect(addr).unwrap();
    conn.stream().write_all(script.as_bytes()).unwrap();
    let timeout = Some(Duration::from_secs(30));
    conn.stream().set_read_timeout(timeout).unwrap();
    let mut burst = Burst {
        frames: Vec::new(),
        single: String::new(),
        acks: Vec::new(),
        restarts: 0,
        revenue: 0.0,
        states: Vec::new(),
    };
    let expected = 16 + 1 + 1 + usize::from(panic.is_some());
    let mut codes = Vec::new();
    for got in 0..expected {
        let line = (conn.read_line())
            .unwrap_or_else(|e| panic!("reply {got} of {expected} went missing: {e}"));
        if is_batch_reply(line) {
            let seq = parse_batch_reply_into(line, &mut codes).unwrap();
            burst.frames.push((seq, codes.clone()));
            continue;
        }
        match parse_server(line).unwrap() {
            ServerMsg::Decision(event) => {
                assert_eq!(event.request, single.id);
                assert!(burst.single.is_empty(), "the single was answered twice");
                burst.single = line.to_string();
            }
            ServerMsg::Ack(ack) => burst.acks.push((ack.action, ack.stats)),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    // Nothing more is owed: the shutdown ack is the next and last line.
    (conn.control(ControlAction::Shutdown)).expect("a reply arrived twice");
    let report = daemon.join().unwrap().unwrap();
    burst.restarts = report.shard_restarts;
    burst.revenue = report.stats.revenue;
    burst.states = report.shard_states;
    burst
}

/// The burst-shaped lane loop owes every queued item its one reply, in
/// lane order, across a panic in mid-burst: the items drained with the
/// panic marker live in the supervisor, not in the loop that died. (How
/// many items share the marker's chunk is the scheduler's call; with the
/// whole script in one `write` the worker queues it far faster than a
/// lane wakes, and at S = 1 the chunk typically holds the nine items
/// behind the marker. The outbox is empty at a `chaos-panic` by
/// construction — the ack that precedes the marker flushes it — so what
/// this pins for replies is that none is lost or doubled around it.)
#[test]
fn a_pipelined_burst_is_answered_exactly_once_across_a_panic() {
    for shards in [1, 2] {
        let healed = pipelined_burst(shards, Some(shards - 1));
        let twin = pipelined_burst(shards, None);

        // Every frame exactly once, and the single (checked on arrival).
        let by_seq: BTreeMap<u64, &Vec<u8>> = healed
            .frames
            .iter()
            .map(|(seq, codes)| (*seq, codes))
            .collect();
        assert_eq!(healed.frames.len(), 16, "S = {shards}");
        assert_eq!(
            by_seq.keys().copied().collect::<Vec<_>>(),
            (0..16).collect::<Vec<_>>()
        );
        assert!(!healed.single.is_empty());
        for codes in by_seq.values() {
            assert!(codes.iter().all(|&c| c == BATCH_ADMIT || c == BATCH_REJECT));
        }
        // Per-lane order: the frames one lane answers alone come back in
        // the order they were sent.
        for lane in 0..shards {
            let seqs: Vec<u64> = (healed.frames.iter().map(|(seq, _)| *seq))
                .filter(|seq| seq % 4 != 3 && *seq as usize % shards == lane)
                .collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "lane {lane}: {seqs:?}"
            );
        }
        // The acks: chaos-panic first, and the `stats` ack — queued
        // behind everything — counts everything.
        let actions: Vec<ControlAction> = healed.acks.iter().map(|(a, _)| *a).collect();
        let chaos = ControlAction::ChaosPanic(shards - 1);
        assert_eq!(actions, [chaos, ControlAction::Stats]);
        assert_eq!(healed.acks[1].1.decided, 16 * 16 + 1, "S = {shards}");
        assert_eq!(healed.restarts, 1);
        assert_eq!(twin.restarts, 0);

        // Same answers and the same state, to the bit, as the twin.
        assert_eq!(healed.single, twin.single);
        let twin_by_seq: BTreeMap<u64, &Vec<u8>> = twin
            .frames
            .iter()
            .map(|(seq, codes)| (*seq, codes))
            .collect();
        assert_eq!(by_seq, twin_by_seq, "S = {shards}: reply codes");
        assert_eq!(healed.acks[1].1, twin.acks[0].1, "S = {shards}: counters");
        assert_eq!(healed.revenue.to_bits(), twin.revenue.to_bits());
        for (lane, (a, b)) in healed.states.iter().zip(&twin.states).enumerate() {
            assert_states_bit_equal(a, b, &format!("S = {shards}, lane {lane}"));
        }
    }
}

/// A connection that writes but never reads costs its lane one write
/// timeout, not one per reply: the first flush that cannot complete
/// condemns it, what is queued behind for it is dropped without a
/// syscall, and a second connection on the same lane is answered as
/// soon as that one timeout has passed.
#[test]
fn a_connection_that_never_reads_is_condemned_after_one_write_timeout() {
    let (instance, reqs) = scenario(12, 88);
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.workers = 2;
    let (addr, daemon) = spawn_daemon(instance, Algo::Onsite, config);

    // The hog resubmits request 0 without ever reading: dedupe answers
    // every resubmit, so replies pile up until both socket buffers are
    // full and the lane's flush blocks.
    let mut hog = TcpStream::connect(addr).unwrap();
    hog.set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut line = encode_client(&ClientMsg::Submit(SubmitRequest::from(&reqs[0])));
    line.push('\n');
    let wedged = (0..500_000).any(|_| hog.write_all(line.as_bytes()).is_err());
    assert!(wedged, "the hog never managed to fill the socket buffers");

    // Up to a queue's worth (256) of the hog's submits are still waiting
    // on the lane. One write timeout (2 s) is owed; one per queued reply
    // would be minutes.
    let started = Instant::now();
    let mut fresh = LineClient::connect(addr).unwrap();
    for request in &reqs[1..] {
        // While the lane sits in that one timeout its queue is full of
        // the hog's submits and sheds; a shed id may be sent again.
        let submit = SubmitRequest::from(request);
        loop {
            match fresh.round_trip(&ClientMsg::Submit(submit)).unwrap() {
                ServerMsg::Decision(event) => break assert_eq!(event.request, submit.id),
                ServerMsg::Overload(_) => std::thread::sleep(Duration::from_millis(20)),
                other => panic!("the second connection was answered {other:?}"),
            }
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "the lane paid more than one write timeout: {:?}",
        started.elapsed()
    );

    // Whichever daemon thread the hog wedged — the lane in a flush, or
    // the hog's own worker in an overload reply while the lane stayed
    // free and answered the fresh connection at once — condemns the
    // connection one write timeout (2 s) after it blocked. Only then may
    // the hog read (earlier, it would un-wedge the writer): what was
    // already buffered, then a FIN or a reset, never silence.
    std::thread::sleep(Duration::from_secs(3).saturating_sub(started.elapsed()));
    hog.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut sink = Vec::new();
    let end = hog.read_to_end(&mut sink).map_err(|e| e.kind());
    assert!(
        !matches!(
            end,
            Err(std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
        ),
        "the hog's connection is still open: {end:?}"
    );

    fresh.control(ControlAction::Shutdown).unwrap();
    let (report, _) = daemon.join().unwrap().unwrap();
    assert_eq!(report.stats.decided as usize, reqs.len());
}
