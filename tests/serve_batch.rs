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

/// Deterministic batch of `n` requests whose two floats are drawn as
/// bit patterns over every positive finite `f64`: a uniform exponent
/// field and mantissa, with every fourth float subnormal (exponent field
/// 0), so the scanner sees the full range of the encoder's output.
fn bit_pattern_batch(n: usize, seed: u64) -> Vec<SubmitRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB175);
    let mut float = |k: usize| {
        let exponent: u64 = if k.is_multiple_of(4) {
            0
        } else {
            rng.gen_range(1..0x7FF)
        };
        f64::from_bits(exponent << 52 | rng.gen_range(1..1u64 << 52))
    };
    (0..n)
        .map(|i| {
            let (reliability, payment) = (float(2 * i), float(2 * i + 1));
            req(
                i.wrapping_mul(0x9E37_79B9),
                i % 16,
                reliability,
                i % 256,
                1 + i % 64,
                payment,
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
        for reqs in [random_batch(n, seed), bit_pattern_batch(n, seed)] {
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

/// The scanner's answer to malformed and borderline frames, pinned to
/// the byte: each error text is the one the parser has always given,
/// and what `str::parse::<f64>` accepts (a leading `+`, an exponent sign,
/// `-0`, an out-of-range exponent) is still accepted, to the same value.
#[test]
fn malformed_number_tokens_keep_their_error_text() {
    let frame =
        |body: &str| format!("{{\"type\":\"batch\",\"v\":3,\"b\":1,\"n\":1,\"reqs\":[[{body}]]}}");
    let huge = "18446744073709551616"; // 2^64, past usize::MAX
    let table = [
        (
            frame(&format!("{huge},2,0.9,3,4,12.5")),
            Err("batch frame integer overflows"),
        ),
        (
            format!(
                "{{\"type\":\"batch\",\"v\":3,\"b\":{huge},\"n\":1,\"reqs\":[[5,2,0.9,3,4,12.5]]}}"
            ),
            Err("batch frame integer overflows"),
        ),
        (
            frame("5,2,1e,3,4,12.5"),
            Err("malformed batch frame: expected a number at byte 47"),
        ),
        (
            frame("5,2,0.9,3,4,--1"),
            Err("malformed batch frame: expected a number at byte 55"),
        ),
        (
            frame("5,2,.,3,4,12.5"),
            Err("malformed batch frame: expected a number at byte 47"),
        ),
        (
            frame("5,2,0.9,3,4,"),
            Err("malformed batch frame: expected a number at byte 55"),
        ),
        // A non-ASCII byte inside a float, inside an integer, and where
        // a float should start.
        (
            frame("5,2,0.9\u{e9}5,3,4,12.5"),
            Err("malformed batch frame: expected ',' at byte 50"),
        ),
        (
            frame("5\u{e9},2,0.9,3,4,12.5"),
            Err("malformed batch frame: expected ',' at byte 44"),
        ),
        (
            frame("5,2,\u{e9}0.9,3,4,12.5"),
            Err("malformed batch frame: expected a number at byte 47"),
        ),
        (
            frame("5,2,0.9,3,4,1\u{2}2.5"),
            Err("malformed batch frame: expected ']' at byte 56"),
        ),
        // A leading `+` is no integer, but `str::parse` takes it on a float.
        (
            frame("+5,2,0.9,3,4,12.5"),
            Err("malformed batch frame: expected an integer at byte 43"),
        ),
        (frame("5,2,+0.9,3,4,+12.5"), Ok((0.9_f64, 12.5_f64))),
        (frame("5,2,0.9,3,4,1.5e+2"), Ok((0.9, 150.0))),
        (frame("5,2,0.9,3,4,-0"), Ok((0.9, -0.0))),
        (frame("5,2,0.9,3,4,1e400"), Ok((0.9, f64::INFINITY))),
        (
            frame("5,2,0.9,3,4,12.5") + "x",
            Err("malformed batch frame: trailing bytes after byte 62"),
        ),
    ];
    let mut out = Vec::new();
    for (line, want) in &table {
        let got = parse_batch_into(line, &mut out).map(|_| {
            let r = &out[0];
            (r.reliability.to_bits(), r.payment.to_bits())
        });
        match (got, want) {
            (Ok(got), Ok((reliability, payment))) => {
                assert_eq!(got, (reliability.to_bits(), payment.to_bits()), "{line}")
            }
            (Err(ServeError::Protocol(text)), Err(want)) => assert_eq!(&text, want, "{line}"),
            (got, want) => panic!("{line}: got {got:?}, want {want:?}"),
        }
    }
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

/// An id within `S` of `usize::MAX` leaves no next id for its lane: it
/// is refused like any other invalid request, so it cannot wrap the
/// lane's id rule back to 0 and let an id already decided be charged
/// again.
#[test]
fn an_id_that_would_wrap_the_lane_is_refused() {
    for shards in [1, 2] {
        let (instance, _) = scenario(8, 15);
        let (addr, daemon) = spawn_sharded(instance, shards);
        let mut conn = LineClient::connect(addr).unwrap();
        let first = shards - 1;
        let mut line = String::new();
        let mut codes = Vec::new();
        let mut send = |seq: u64, id: usize| {
            encode_batch_into(&mut line, seq, &[req(id, 0, 0.9, 0, 1, 5.0)]);
            conn.send_line(&line).unwrap();
            let reply = conn.read_line().unwrap();
            parse_batch_reply_into(reply, &mut codes).unwrap();
            codes[0]
        };
        assert_eq!(send(0, first), BATCH_ADMIT, "S = {shards}");
        assert_eq!(send(1, usize::MAX), BATCH_ERROR, "S = {shards}");
        // The first id again: answered from the dedupe ring, not re-decided.
        assert_eq!(send(2, first), BATCH_ADMIT, "S = {shards}");
        let refused = common::scrape(addr, "vnfrel_serve_protocol_errors_total");
        assert_eq!(refused, 1.0, "S = {shards}");

        conn.control(mec_serve::ControlAction::Shutdown).unwrap();
        let report = daemon
            .join()
            .expect("daemon thread")
            .expect("clean shutdown");
        assert_eq!(report.stats.decided, 1, "S = {shards}");
        assert_eq!(
            report.stats.revenue, 5.0,
            "S = {shards}: id {first} was charged twice"
        );
    }
}

// ---------------------------------------------------------------------
// A batch reply reads each decision's code, a v2 reply its event: the
// daemon's books must not tell the two apart.
// ---------------------------------------------------------------------

/// What a daemon's books say about one served stream.
#[derive(Debug, PartialEq)]
struct Books {
    decided: u64,
    admitted: u64,
    rejected: u64,
    revenue_bits: u64,
    // Every reject-reason counter, then the dual-cost histogram's sum
    // and count, as `/metrics` prints them.
    series: Vec<String>,
}

fn books_series(addr: std::net::SocketAddr) -> Vec<String> {
    let (_, body) = common::http_get(addr, "/metrics");
    let kept = [
        "vnfrel_rejections_by_reason_total{",
        "vnfrel_dual_cost_sum ",
        "vnfrel_dual_cost_count ",
    ];
    let lines = body
        .lines()
        .filter(|l| kept.iter().any(|k| l.starts_with(k)));
    lines.map(str::to_string).collect()
}

/// The books the decision events say a daemon must keep: per-reason
/// counts, and dual costs and payments added in decision order, each
/// lane's revenue on its own and the lanes' totals summed in lane order.
fn books_of(events: &[mec_obs::DecisionEvent], shards: usize) -> Books {
    let mut by_reason = [0u64; mec_obs::RejectReason::ALL.len()];
    let (mut admitted, mut dual_cost_sum) = (0u64, 0.0_f64);
    let mut lane_revenue = vec![0.0_f64; shards];
    for event in events {
        match &event.outcome {
            mec_obs::Outcome::Admit { dual_cost, .. } => {
                admitted += 1;
                dual_cost_sum += dual_cost;
                lane_revenue[event.request % shards] += event.payment;
            }
            mec_obs::Outcome::Reject { reason, .. } => by_reason[reason.index()] += 1,
        }
    }
    let mut series: Vec<String> = mec_obs::RejectReason::ALL
        .iter()
        .zip(by_reason)
        .map(|(r, n)| {
            format!(
                "vnfrel_rejections_by_reason_total{{reason=\"{}\"}} {n}",
                r.as_str()
            )
        })
        .collect();
    series.push(format!("vnfrel_dual_cost_sum {dual_cost_sum}"));
    series.push(format!("vnfrel_dual_cost_count {admitted}"));
    Books {
        decided: events.len() as u64,
        admitted,
        rejected: events.len() as u64 - admitted,
        revenue_bits: lane_revenue.iter().fold(0.0, |t, r| t + r).to_bits(),
        series,
    }
}

/// The stream's ids in the order both passes send them: chunks of
/// consecutive ids, each split by home lane, so every batch frame lives
/// on one lane and both passes observe the dual costs in one order.
fn lane_chunks(n: usize, shards: usize) -> Vec<Vec<usize>> {
    let chunk = 24 * shards;
    (0..n)
        .step_by(chunk)
        .flat_map(|start| {
            (0..shards).map(move |lane| {
                (start..n.min(start + chunk))
                    .filter(|i| i % shards == lane)
                    .collect::<Vec<usize>>()
            })
        })
        .filter(|ids| !ids.is_empty())
        .collect()
}

/// Serves `requests` on a fresh `shards`-lane daemon, as v3 batch frames
/// (`batches`) or as v2 singles, in [`lane_chunks`] order and lock-step.
/// Returns the books and, for singles, the decision events replied.
fn serve_stream(
    instance: &ProblemInstance,
    scheme: Scheme,
    requests: &[mec_workload::Request],
    shards: usize,
    batches: bool,
    trace: Option<std::path::PathBuf>,
) -> (Books, Vec<mec_obs::DecisionEvent>) {
    let mut config = common::sharded_config(shards);
    config.trace_path = trace;
    let (addr, daemon) = common::spawn_sharded(instance.clone(), scheme, config);
    let mut conn = LineClient::connect(addr).unwrap();
    let mut replies = Vec::new();
    let (mut line, mut codes) = (String::new(), Vec::new());
    for (seq, ids) in lane_chunks(requests.len(), shards).into_iter().enumerate() {
        if batches {
            let frame: Vec<SubmitRequest> = ids
                .iter()
                .map(|&i| SubmitRequest::from(&requests[i]))
                .collect();
            encode_batch_into(&mut line, seq as u64, &frame);
            conn.send_line(&line).unwrap();
            parse_batch_reply_into(conn.read_line().unwrap(), &mut codes).unwrap();
            assert!(codes.iter().all(|&c| c == BATCH_ADMIT || c == BATCH_REJECT));
        } else {
            replies.extend(ids.iter().map(|&i| common::decide(&mut conn, &requests[i])));
        }
    }
    let series = books_series(addr);
    conn.control(mec_serve::ControlAction::Shutdown).unwrap();
    let report = daemon
        .join()
        .expect("daemon thread")
        .expect("clean shutdown");
    let books = Books {
        decided: report.stats.decided,
        admitted: report.stats.admitted,
        rejected: report.stats.rejected,
        revenue_bits: report.stats.revenue.to_bits(),
        series,
    };
    (books, replies)
}

#[test]
fn batch_codes_and_single_events_keep_the_same_books() {
    let (instance, requests) = common::week_scenario(90, 17);
    for scheme in [Scheme::OnSite, Scheme::OffSite] {
        for shards in [1, 2] {
            let (batched, _) = serve_stream(&instance, scheme, &requests, shards, true, None);
            let (single, replies) = serve_stream(&instance, scheme, &requests, shards, false, None);
            let what = format!("{scheme:?}, S = {shards}");
            assert_eq!(single, books_of(&replies, shards), "{what}: v2 books");
            assert_eq!(batched, single, "{what}");
            assert_eq!(batched.decided as usize, requests.len(), "{what}");
            assert!(batched.admitted > 0 && batched.rejected > 0, "{what}");

            // The trace tee reads every batch decision's event: at S = 1
            // the events it writes are the v2 replies, in order.
            if shards == 1 {
                let path = std::env::temp_dir().join(format!(
                    "vnfrel-batch-tee-{scheme:?}-{}.jsonl",
                    std::process::id()
                ));
                let (teed, _) =
                    serve_stream(&instance, scheme, &requests, 1, true, Some(path.clone()));
                assert_eq!(teed, single, "{what}, traced");
                let text = std::fs::read_to_string(&path).unwrap();
                std::fs::remove_file(&path).unwrap();
                let events: Vec<mec_obs::DecisionEvent> = mec_obs::parse_trace(&text)
                    .unwrap()
                    .into_iter()
                    .filter_map(|e| match e {
                        mec_obs::TraceEvent::Decision(d) => Some(d),
                        _ => None,
                    })
                    .collect();
                assert_eq!(events, replies, "{what}: the tee's events");
            }
        }
    }
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
