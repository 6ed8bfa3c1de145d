//! Batched (protocol v3) frame tests: codec round-trips under proptest
//! with bit-exact floats, size-limit enforcement at both ends, typed
//! errors for malformed frames, and end-to-end batch serving against
//! the sharded daemon — including a `--shards 1` open-loop run whose
//! revenue is bit-identical to the batch [`Simulation`] engine.

#[path = "serve_common.rs"]
mod common;

use common::scenario;
use mec_serve::{
    encode_batch_into, encode_batch_reply_into, is_batch_frame, is_batch_reply, parse_batch_into,
    parse_batch_reply_into, run_open_loop, LineClient, OpenLoopConfig, ServeError, ShardedReport,
    Spawned, SubmitRequest, BATCH_ADMIT, BATCH_ERROR, BATCH_OVERLOAD, BATCH_REJECT, MAX_BATCH,
};
use mec_sim::Simulation;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::{ProblemInstance, Scheme};

fn req(
    id: usize,
    vnf: usize,
    reliability: f64,
    arrival: usize,
    duration: usize,
    payment: f64,
) -> SubmitRequest {
    SubmitRequest {
        id,
        vnf,
        reliability,
        arrival,
        duration,
        payment,
    }
}

/// A request whose floats exercise the encoder: scientific notation,
/// subnormals, long decimal expansions, integral values.
#[allow(clippy::excessive_precision)] // the rounding IS the test input
fn awkward(i: usize) -> SubmitRequest {
    const FLOATS: [f64; 6] = [
        0.1 + 0.2,
        1e-300,
        123_456_789.123_456_789,
        5e-324,
        1.0,
        0.999_999_999_999_999_9,
    ];
    req(
        i,
        i % 16,
        FLOATS[(i + 1) % FLOATS.len()].min(0.999_999_999_999_999_9),
        i % 256,
        1 + i % 64,
        FLOATS[i % FLOATS.len()],
    )
}

/// Deterministic random batch of `n` requests.
fn random_batch(n: usize, seed: u64) -> Vec<SubmitRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            req(
                rng.gen_range(0..1_000_000),
                rng.gen_range(0..16),
                rng.gen_range(0.5..0.99999),
                rng.gen_range(0..256),
                rng.gen_range(1..64),
                rng.gen_range(1e-3..1e4),
            )
        })
        .collect()
}

fn random_codes(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0u8..=3)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batch_frames_round_trip_bit_exact(
        seq in 0u64..1_000_000,
        n in 1usize..64,
        seed in 0u64..1_000_000,
    ) {
        let reqs = random_batch(n, seed);
        let mut line = String::new();
        encode_batch_into(&mut line, seq, &reqs);
        prop_assert!(is_batch_frame(&line));
        prop_assert!(!line.contains('\n'));
        let mut back = Vec::new();
        prop_assert_eq!(parse_batch_into(&line, &mut back).unwrap(), seq);
        prop_assert_eq!(back.len(), reqs.len());
        for (a, b) in back.iter().zip(reqs.iter()) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.vnf, b.vnf);
            prop_assert_eq!(a.arrival, b.arrival);
            prop_assert_eq!(a.duration, b.duration);
            prop_assert_eq!(a.reliability.to_bits(), b.reliability.to_bits());
            prop_assert_eq!(a.payment.to_bits(), b.payment.to_bits());
        }
    }

    #[test]
    fn batch_replies_round_trip(
        seq in 0u64..1_000_000,
        n in 1usize..256,
        seed in 0u64..1_000_000,
    ) {
        let codes = random_codes(n, seed);
        let mut line = String::new();
        encode_batch_reply_into(&mut line, seq, &codes);
        prop_assert!(is_batch_reply(&line));
        let mut back = Vec::new();
        prop_assert_eq!(parse_batch_reply_into(&line, &mut back).unwrap(), seq);
        prop_assert_eq!(back, codes);
    }

    #[test]
    fn torn_batch_frames_error_never_panic(
        cut in 1usize..200,
        n_codes in 1usize..16,
        seed in 0u64..1_000_000,
    ) {
        // Any strict prefix of a valid frame must parse to a typed
        // Protocol error, not a panic or a bogus success.
        let reqs: Vec<SubmitRequest> = (0..4).map(awkward).collect();
        let mut line = String::new();
        encode_batch_into(&mut line, 7, &reqs);
        let cut = cut.min(line.len() - 1);
        let torn = &line[..cut];
        let mut out = Vec::new();
        match parse_batch_into(torn, &mut out) {
            Err(ServeError::Protocol(_)) => {}
            other => prop_assert!(false, "torn frame parsed as {:?}", other),
        }

        let mut reply = String::new();
        encode_batch_reply_into(&mut reply, 7, &random_codes(n_codes, seed));
        let rcut = cut.min(reply.len() - 1).max(1);
        let mut rout = Vec::new();
        match parse_batch_reply_into(&reply[..rcut], &mut rout) {
            Err(ServeError::Protocol(_)) => {}
            other => prop_assert!(false, "torn reply parsed as {:?}", other),
        }
    }
}

#[test]
fn awkward_floats_survive_the_batch_codec() {
    let reqs: Vec<SubmitRequest> = (0..12).map(awkward).collect();
    let mut line = String::new();
    encode_batch_into(&mut line, u64::MAX >> 1, &reqs);
    let mut back = Vec::new();
    assert_eq!(parse_batch_into(&line, &mut back).unwrap(), u64::MAX >> 1);
    for (a, b) in back.iter().zip(reqs.iter()) {
        assert_eq!(a.payment.to_bits(), b.payment.to_bits());
        assert_eq!(a.reliability.to_bits(), b.reliability.to_bits());
    }
}

#[test]
fn max_size_batch_round_trips() {
    let reqs: Vec<SubmitRequest> = (0..MAX_BATCH).map(awkward).collect();
    let mut line = String::new();
    encode_batch_into(&mut line, 3, &reqs);
    let mut back = Vec::new();
    assert_eq!(parse_batch_into(&line, &mut back).unwrap(), 3);
    assert_eq!(back, reqs);

    let codes: Vec<u8> = (0..MAX_BATCH).map(|i| (i % 4) as u8).collect();
    encode_batch_reply_into(&mut line, 3, &codes);
    let mut rback = Vec::new();
    assert_eq!(parse_batch_reply_into(&line, &mut rback).unwrap(), 3);
    assert_eq!(rback, codes);
}

#[test]
#[should_panic(expected = "outside 1..=")]
fn encoding_an_empty_batch_panics() {
    let mut line = String::new();
    encode_batch_into(&mut line, 0, &[]);
}

#[test]
#[should_panic(expected = "outside 1..=")]
fn encoding_an_oversized_reply_panics() {
    let mut line = String::new();
    encode_batch_reply_into(&mut line, 0, &vec![BATCH_ADMIT; MAX_BATCH + 1]);
}

#[test]
fn empty_and_oversized_batches_are_rejected_on_parse() {
    let mut out = Vec::new();
    let empty = "{\"type\":\"batch\",\"v\":3,\"b\":0,\"n\":0,\"reqs\":[]}";
    let err = parse_batch_into(empty, &mut out).unwrap_err();
    assert!(
        matches!(&err, ServeError::Protocol(m) if m.contains("empty batch")),
        "{err}"
    );

    let oversized = format!(
        "{{\"type\":\"batch\",\"v\":3,\"b\":0,\"n\":{},\"reqs\":[]}}",
        MAX_BATCH + 1
    );
    let err = parse_batch_into(&oversized, &mut out).unwrap_err();
    assert!(
        matches!(&err, ServeError::Protocol(m) if m.contains("MAX_BATCH")),
        "{err}"
    );

    let mut codes = Vec::new();
    let reply = format!(
        "{{\"type\":\"batch-reply\",\"v\":3,\"b\":0,\"n\":{},\"codes\":[]}}",
        MAX_BATCH + 1
    );
    let err = parse_batch_reply_into(&reply, &mut codes).unwrap_err();
    assert!(
        matches!(&err, ServeError::Protocol(m) if m.contains("MAX_BATCH")),
        "{err}"
    );
}

#[test]
fn header_count_must_match_the_array() {
    // n claims 2 but only one request follows: the parser must not
    // invent a second element or read past the frame.
    let mut out = Vec::new();
    let short = "{\"type\":\"batch\",\"v\":3,\"b\":1,\"n\":2,\"reqs\":[[0,1,0.9,0,1,2.5]]}";
    assert!(matches!(
        parse_batch_into(short, &mut out),
        Err(ServeError::Protocol(_))
    ));

    // n claims 1 but two requests follow: trailing bytes are an error.
    let long = "{\"type\":\"batch\",\"v\":3,\"b\":1,\"n\":1,\"reqs\":[[0,1,0.9,0,1,2.5],[1,1,0.9,0,1,2.5]]}";
    assert!(matches!(
        parse_batch_into(long, &mut out),
        Err(ServeError::Protocol(_))
    ));
}

#[test]
fn unknown_reply_codes_are_rejected() {
    let mut codes = Vec::new();
    let bad = format!(
        "{{\"type\":\"batch-reply\",\"v\":3,\"b\":0,\"n\":1,\"codes\":[{}]}}",
        BATCH_ERROR + 1
    );
    let err = parse_batch_reply_into(&bad, &mut codes).unwrap_err();
    assert!(
        matches!(&err, ServeError::Protocol(m) if m.contains("unknown batch decision code")),
        "{err}"
    );
    // The legal codes are exactly 0..=3.
    assert_eq!(
        [BATCH_REJECT, BATCH_ADMIT, BATCH_OVERLOAD, BATCH_ERROR],
        [0, 1, 2, 3]
    );
}

// ---------------------------------------------------------------------
// End-to-end: batch frames against the sharded daemon.
// ---------------------------------------------------------------------

fn spawn_sharded(instance: ProblemInstance, shards: usize) -> Spawned<ShardedReport> {
    common::spawn_sharded(instance, Scheme::OffSite, common::sharded_config(shards))
}

#[test]
fn single_shard_open_loop_matches_the_batch_engine_bit_for_bit() {
    let (instance, requests) = scenario(400, 11);
    let sim = Simulation::new(&instance, &requests).expect("valid scenario");
    let mut alg = OffsitePrimalDual::new(&instance);
    let batch = sim.run(&mut alg).expect("batch run");

    // window=1 on one connection makes the open-loop driver lock-step:
    // every id arrives in order and nothing is shed, so the decision
    // stream must be the batch engine's exactly.
    let (addr, daemon) = spawn_sharded(instance, 1);
    let mut config = OpenLoopConfig::new(addr.to_string());
    config.conns = 1;
    config.shards = 1;
    config.batch = 32;
    config.window = 1;
    config.shutdown_when_done = true;
    let client = run_open_loop(&requests, &config).expect("open-loop run");
    let report = daemon
        .join()
        .expect("daemon thread")
        .expect("clean shutdown");

    assert_eq!(client.errors, 0);
    assert_eq!(client.overloaded, 0, "window=1 must never shed");
    assert_eq!(client.decided, requests.len());
    assert_eq!(report.stats.decided as usize, requests.len());
    assert_eq!(report.stats.admitted, batch.metrics.admitted as u64);
    assert_eq!(
        report.stats.revenue.to_bits(),
        batch.metrics.revenue.to_bits(),
        "sharded --shards 1 revenue diverged from the batch engine"
    );
}

#[test]
fn sharded_batches_account_for_every_request() {
    let (instance, requests) = scenario(600, 12);
    let (addr, daemon) = spawn_sharded(instance, 2);
    let mut config = OpenLoopConfig::new(addr.to_string());
    config.conns = 2;
    config.shards = 2;
    config.batch = 16;
    config.window = 4;
    config.shutdown_when_done = true;
    let client = run_open_loop(&requests, &config).expect("open-loop run");
    let report = daemon
        .join()
        .expect("daemon thread")
        .expect("clean shutdown");

    assert_eq!(client.errors, 0);
    assert_eq!(
        client.decided + client.overloaded,
        requests.len(),
        "every request must be decided or shed"
    );
    assert_eq!(client.decided as u64, report.stats.decided);
    assert_eq!(report.per_shard_decided.len(), 2);
    assert_eq!(
        report.per_shard_decided.iter().sum::<u64>(),
        report.stats.decided
    );
}

// ---------------------------------------------------------------------
// Lanes share nothing: stream-time skew between them changes nothing.
// ---------------------------------------------------------------------

/// Drives the week stream through an S = 2 daemon in lock-step, in the
/// order `order` lists the request indices, checking that every
/// admission is placed on cloudlets of the request's home lane only.
/// Returns the daemon's final report.
fn drive_checking_homes(
    instance: ProblemInstance,
    scheme: Scheme,
    requests: &[mec_workload::Request],
    order: impl Iterator<Item = usize>,
) -> ShardedReport {
    const SHARDS: usize = 2;
    let (addr, daemon) = common::spawn_sharded(instance, scheme, common::sharded_config(SHARDS));
    let mut conn = LineClient::connect(addr).unwrap();
    for i in order {
        let event = common::decide(&mut conn, &requests[i]);
        if let mec_obs::Outcome::Admit { sites, .. } = &event.outcome {
            for site in sites {
                assert_eq!(
                    site.cloudlet % SHARDS,
                    i % SHARDS,
                    "request {i} was placed on cloudlet {} of another lane",
                    site.cloudlet
                );
            }
        }
    }
    conn.control(mec_serve::ControlAction::Shutdown).unwrap();
    daemon
        .join()
        .expect("daemon thread")
        .expect("clean shutdown")
}

/// A lane is its own scheduler over its own cloudlets and ids, so how
/// far one lane's stream runs ahead of the other's cannot matter: the
/// week stream interleaved in id order and with lane 0's whole stream
/// decided before lane 1 sees its first request must end in the same
/// per-lane states and the same revenue, to the bit.
#[test]
fn lanes_end_in_the_same_state_however_their_streams_interleave() {
    let (instance, requests) = common::week_scenario(360, 14);
    let n = requests.len();

    for scheme in [Scheme::OnSite, Scheme::OffSite] {
        let interleaved = drive_checking_homes(instance.clone(), scheme, &requests, 0..n);
        let skewed = drive_checking_homes(
            instance.clone(),
            scheme,
            &requests,
            (0..n).step_by(2).chain((1..n).step_by(2)),
        );

        assert_eq!(interleaved.stats.decided as usize, n, "{scheme:?}");
        assert!(
            interleaved.stats.admitted > 0,
            "{scheme:?}: nothing admitted"
        );
        assert_eq!(interleaved.per_shard_decided, skewed.per_shard_decided);
        assert_eq!(interleaved.shard_states, skewed.shard_states, "{scheme:?}");
        assert_eq!(
            interleaved.stats.revenue.to_bits(),
            skewed.stats.revenue.to_bits(),
            "{scheme:?}: revenue moved with the interleaving"
        );
    }
}
