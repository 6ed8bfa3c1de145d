//! Replication edge cases: clean handover parity, mid-stream join via
//! snapshot catch-up, duplicate/out-of-order frame rejection, divergence
//! detection, auto-promotion, and fencing — including a property test
//! that a deposed primary can never ack a submit after its standby was
//! promoted, regardless of where in the stream the split happened.

#[path = "serve_common.rs"]
mod common;

use std::io::Write as _;
use std::time::{Duration, Instant};

use common::{assert_silent, raw, scenario, spawn_daemon, submit_all, unused_addr, Algo};
use mec_serve::{
    encode_client, encode_repl, parse_repl, parse_server, run_loadgen, ClientMsg, ControlAction,
    LineClient, LoadgenConfig, ReplMsg, Role, ServeConfig, ServeError, ServerMsg, SubmitRequest,
};
use mec_workload::Request;
use proptest::prelude::*;

fn base_config(fingerprint: &str) -> ServeConfig {
    let mut c = ServeConfig::new("127.0.0.1:0");
    c.fingerprint = fingerprint.to_string();
    c
}

/// Writes every submit without waiting for a reply — used while no
/// standby can ack, so the replies are held.
fn send_pipelined(conn: &mut LineClient, requests: &[Request]) {
    let mut buf = String::new();
    for r in requests {
        buf.push_str(&encode_client(&ClientMsg::Submit(SubmitRequest::from(r))));
        buf.push('\n');
    }
    conn.stream().write_all(buf.as_bytes()).unwrap();
}

/// Reads one decision reply per request, in order.
fn read_decisions(conn: &mut LineClient, requests: &[Request]) -> Vec<String> {
    let lines = requests.iter().map(|_| {
        let line = conn.read_line().unwrap().to_string();
        assert!(
            matches!(parse_server(&line).unwrap(), ServerMsg::Decision(_)),
            "expected a decision line, got: {line}"
        );
        line
    });
    lines.collect()
}

/// Sends one raw replication line (the fake primary) and parses the
/// standby's answer.
fn repl(conn: &mut LineClient, msg: &ReplMsg) -> ReplMsg {
    parse_repl(&raw(conn, &encode_repl(msg))).unwrap()
}

/// The uninterrupted single-daemon decision stream for `reqs`.
fn golden_stream(
    instance: &vnfrel::ProblemInstance,
    algo: Algo,
    fingerprint: &str,
    reqs: &[Request],
) -> Vec<String> {
    let (addr, daemon) = spawn_daemon(instance.clone(), algo, base_config(fingerprint));
    let mut client = LineClient::connect(addr).unwrap();
    let stream = submit_all(&mut client, reqs);
    client.control(ControlAction::Shutdown).unwrap();
    daemon.join().unwrap().unwrap();
    stream
}

/// Polls the daemon's stats control until `pred` holds on the ack.
fn wait_for_ack(
    addr: &str,
    timeout: Duration,
    pred: impl Fn(&mec_serve::ControlAck) -> bool,
) -> mec_serve::ControlAck {
    let deadline = Instant::now() + timeout;
    loop {
        let mut c = LineClient::connect(addr).unwrap();
        if let Ok(ack) = c.control(ControlAction::Stats) {
            if pred(&ack) {
                return ack;
            }
            assert!(
                Instant::now() < deadline,
                "condition not reached before the deadline; last ack: role {} epoch {} decided {}",
                ack.role,
                ack.epoch,
                ack.stats.decided
            );
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

// ---------------------------------------------------------------------
// Handover parity: primary + standby, clean primary exit,
// promote, finish the stream on the survivor — byte-identical to the
// uninterrupted run.
// ---------------------------------------------------------------------

fn check_handover(algo: Algo) {
    let (instance, reqs) = scenario(260, 21);
    let cut = 110;
    let fp = format!("repl-handover:{algo:?}");
    let golden = golden_stream(&instance, algo, &fp, &reqs);

    let (standby_addr, standby) = spawn_daemon(instance.clone(), algo, {
        let mut c = base_config(&fp);
        c.standby = true;
        c
    });
    let (primary_addr, primary) = spawn_daemon(instance.clone(), algo, {
        let mut c = base_config(&fp);
        c.replicate_to = Some(standby_addr.to_string());
        c
    });

    let mut client = LineClient::connect(primary_addr).unwrap();
    let mut stream = submit_all(&mut client, &reqs[..cut]);
    client.control(ControlAction::Shutdown).unwrap();
    let (report, _) = primary.join().unwrap().unwrap();
    assert_eq!(report.role, Role::Primary);
    assert_eq!(report.epoch, 1);
    assert_eq!(report.stats.decided as usize, cut);

    let mut sc = LineClient::connect(standby_addr).unwrap();
    let ack = sc.control(ControlAction::Promote).unwrap();
    assert_eq!(ack.role, "primary");
    assert_eq!(ack.epoch, 2);
    // Every decision the primary acked survived the handover.
    assert_eq!(ack.stats.decided as usize, cut);
    stream.extend(submit_all(&mut sc, &reqs[cut..]));
    sc.control(ControlAction::Shutdown).unwrap();
    let (survivor, _) = standby.join().unwrap().unwrap();
    assert_eq!(survivor.role, Role::Primary);
    assert_eq!(survivor.epoch, 2);
    assert_eq!(survivor.stats.decided as usize, reqs.len());

    assert_eq!(stream.len(), golden.len());
    for (i, (a, b)) in golden.iter().zip(stream.iter()).enumerate() {
        assert_eq!(a, b, "decision stream diverged at request {i}");
    }
}

#[test]
fn handover_preserves_decision_stream_onsite() {
    check_handover(Algo::Onsite);
}

#[test]
fn handover_preserves_decision_stream_offsite() {
    check_handover(Algo::Offsite);
}

// ---------------------------------------------------------------------
// Mid-stream join: the standby boots only after the primary has decided
// a prefix. The prefix replies wait for it; catch-up goes snapshot-first,
// the snapshot's ack releases them, then frames, and the handover must
// still be byte-identical.
// ---------------------------------------------------------------------

#[test]
fn standby_joining_mid_stream_catches_up_via_snapshot() {
    let (instance, reqs) = scenario(180, 22);
    let (cut_a, cut_b) = (70, 130);
    let fp = "repl-midjoin";
    let golden = golden_stream(&instance, Algo::Onsite, fp, &reqs);

    // The primary is told to replicate to an address nothing listens on
    // yet: it decides the prefix, but no standby acks it, so no reply
    // may go out — not even after 1.5 s of waiting.
    let standby_addr = unused_addr();
    let (primary_addr, primary) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = base_config(fp);
        c.replicate_to = Some(standby_addr.clone());
        c
    });
    let mut client = LineClient::connect(primary_addr).unwrap();
    send_pipelined(&mut client, &reqs[..cut_a]);
    assert_silent(&client, Duration::from_millis(1500));

    // Boot the standby on the reserved address; the sender's reconnect
    // loop finds it and catches it up with a snapshot covering the
    // prefix, whose ack releases every held reply.
    let (bound, standby) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = base_config(fp);
        c.addr = standby_addr.clone();
        c.standby = true;
        c
    });
    assert_eq!(bound.to_string(), standby_addr);
    let mut stream = read_decisions(&mut client, &reqs[..cut_a]);
    let caught_up = wait_for_ack(&standby_addr, Duration::from_secs(10), |ack| {
        ack.stats.decided as usize >= cut_a
    });
    assert_eq!(caught_up.role, "standby");

    // Live frames from here on.
    stream.extend(submit_all(&mut client, &reqs[cut_a..cut_b]));
    client.control(ControlAction::Shutdown).unwrap();
    primary.join().unwrap().unwrap();

    let mut sc = LineClient::connect(&standby_addr).unwrap();
    let ack = sc.control(ControlAction::Promote).unwrap();
    assert_eq!(ack.role, "primary");
    assert_eq!(ack.epoch, 2);
    assert_eq!(ack.stats.decided as usize, cut_b);
    stream.extend(submit_all(&mut sc, &reqs[cut_b..]));
    sc.control(ControlAction::Shutdown).unwrap();
    let (survivor, _) = standby.join().unwrap().unwrap();
    assert_eq!(survivor.stats.decided as usize, reqs.len());

    assert_eq!(stream.len(), golden.len());
    for (i, (a, b)) in golden.iter().zip(stream.iter()).enumerate() {
        assert_eq!(a, b, "decision stream diverged at request {i}");
    }
}

/// A primary whose standby never appears holds every reply; the one
/// thing that ends a client's wait is its own budget, as the typed
/// deadline (exit code 8 at the CLI), not a hang.
#[test]
fn loadgen_deadline_bounds_the_wait_for_a_missing_standby() {
    let (instance, reqs) = scenario(4, 29);
    let (addr, primary) = spawn_daemon(instance, Algo::Onsite, {
        let mut c = base_config("repl-deadline");
        c.replicate_to = Some(unused_addr());
        c
    });
    let mut config = LoadgenConfig::new(addr.to_string());
    config.deadline = Some(Duration::from_millis(300));
    let started = Instant::now();
    match run_loadgen(&reqs, &config) {
        Err(ServeError::Deadline { budget_ms: 300, .. }) => {}
        other => panic!("expected the typed deadline, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the deadline did not bound the blocked read"
    );
    let mut control = LineClient::connect(addr).unwrap();
    control.control(ControlAction::Shutdown).unwrap();
    primary.join().unwrap().unwrap();
}

// ---------------------------------------------------------------------
// Frame-level protocol: duplicates are acked without re-applying,
// sequence gaps are refused, and a tampered decision is fatal.
// ---------------------------------------------------------------------

/// Captures the canonical submit and decision lines for the first two
/// requests of a scenario by running them through a throwaway daemon.
fn capture_frames(
    instance: &vnfrel::ProblemInstance,
    fp: &str,
    reqs: &[Request],
) -> Vec<(String, String)> {
    let (addr, daemon) = spawn_daemon(instance.clone(), Algo::Onsite, base_config(fp));
    let mut client = LineClient::connect(addr).unwrap();
    let decisions = submit_all(&mut client, &reqs[..2]);
    client.control(ControlAction::Shutdown).unwrap();
    daemon.join().unwrap().unwrap();
    reqs[..2]
        .iter()
        .zip(decisions)
        .map(|(r, d)| {
            let submit = ClientMsg::Submit(SubmitRequest::from(r));
            (encode_client(&submit), d)
        })
        .collect()
}

#[test]
fn standby_rejects_duplicate_and_out_of_order_frames() {
    let (instance, reqs) = scenario(4, 23);
    let fp = "repl-dup";
    let frames = capture_frames(&instance, fp, &reqs);

    let (addr, standby) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = base_config(fp);
        c.standby = true;
        c
    });
    let addr = addr.to_string();
    let mut fake = LineClient::connect(&addr).unwrap();
    assert_eq!(
        repl(&mut fake, &ReplMsg::Hello { epoch: 1, seq: 0 }),
        ReplMsg::State { epoch: 1, seq: 0 }
    );
    let frame1 = ReplMsg::Frame {
        epoch: 1,
        seq: 1,
        submit: frames[0].0.clone(),
        decision: frames[0].1.clone(),
    };
    assert_eq!(repl(&mut fake, &frame1), ReplMsg::Ack { epoch: 1, seq: 1 });
    // Exact duplicate: acked at the applied position, not re-applied.
    assert_eq!(repl(&mut fake, &frame1), ReplMsg::Ack { epoch: 1, seq: 1 });
    // Gap: seq 3 when 2 is expected — refused, nothing applied.
    assert_eq!(
        repl(
            &mut fake,
            &ReplMsg::Frame {
                epoch: 1,
                seq: 3,
                submit: frames[1].0.clone(),
                decision: frames[1].1.clone(),
            }
        ),
        ReplMsg::Refused {
            epoch: 1,
            expected: 2,
            got: 3
        }
    );
    // The in-order frame still applies after the refusal.
    assert_eq!(
        repl(
            &mut fake,
            &ReplMsg::Frame {
                epoch: 1,
                seq: 2,
                submit: frames[1].0.clone(),
                decision: frames[1].1.clone(),
            }
        ),
        ReplMsg::Ack { epoch: 1, seq: 2 }
    );

    // The duplicate must not have double-counted: exactly two decisions.
    let ack = wait_for_ack(&addr, Duration::from_secs(5), |ack| ack.stats.decided == 2);
    assert_eq!(ack.role, "standby");
    assert_eq!(ack.epoch, 1);

    drop(fake);
    let mut c = LineClient::connect(&addr).unwrap();
    // A standby accepts promote-then-shutdown; promotion is immediate
    // once the (closed) replication connection's EOF is processed.
    let ack = c.control(ControlAction::Promote).unwrap();
    assert_eq!(ack.epoch, 2);
    c.control(ControlAction::Shutdown).unwrap();
    let (report, _) = standby.join().unwrap().unwrap();
    assert_eq!(report.stats.decided, 2);
}

#[test]
fn tampered_decision_line_is_fatal_divergence() {
    let (instance, reqs) = scenario(4, 24);
    let fp = "repl-diverge";
    let frames = capture_frames(&instance, fp, &reqs);

    let (addr, standby) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = base_config(fp);
        c.standby = true;
        c
    });
    let mut fake = LineClient::connect(addr).unwrap();
    assert_eq!(
        repl(&mut fake, &ReplMsg::Hello { epoch: 1, seq: 0 }),
        ReplMsg::State { epoch: 1, seq: 0 }
    );
    // Request 0's submit paired with request 1's decision: the follower
    // re-decides, sees a different byte stream, and must refuse to
    // continue as a replica that could later be promoted.
    fake.send_line(&encode_repl(&ReplMsg::Frame {
        epoch: 1,
        seq: 1,
        submit: frames[0].0.clone(),
        decision: frames[1].1.clone(),
    }))
    .unwrap();
    match standby.join().unwrap() {
        Err(ServeError::Protocol(msg)) => {
            assert!(msg.contains("divergence"), "unexpected error: {msg}")
        }
        other => panic!("divergence was not fatal: {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Fencing.
// ---------------------------------------------------------------------

#[test]
fn stale_hello_after_promotion_is_fenced() {
    let (instance, reqs) = scenario(8, 25);
    let fp = "repl-fence-hello";
    let frames = capture_frames(&instance, fp, &reqs);

    let (addr, standby) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = base_config(fp);
        c.standby = true;
        c
    });
    let addr = addr.to_string();
    let mut fake = LineClient::connect(&addr).unwrap();
    assert_eq!(
        repl(&mut fake, &ReplMsg::Hello { epoch: 1, seq: 0 }),
        ReplMsg::State { epoch: 1, seq: 0 }
    );
    assert_eq!(
        repl(
            &mut fake,
            &ReplMsg::Frame {
                epoch: 1,
                seq: 1,
                submit: frames[0].0.clone(),
                decision: frames[0].1.clone(),
            }
        ),
        ReplMsg::Ack { epoch: 1, seq: 1 }
    );
    // Drop the "primary" and promote the standby.
    drop(fake);
    let mut c = LineClient::connect(&addr).unwrap();
    let ack = c.control(ControlAction::Promote).unwrap();
    assert_eq!((ack.epoch, ack.role.as_str()), (2, "primary"));
    // The deposed primary reconnects at its stale epoch: fenced, and
    // nothing it streams is applied.
    let mut stale = LineClient::connect(&addr).unwrap();
    assert_eq!(
        repl(&mut stale, &ReplMsg::Hello { epoch: 1, seq: 1 }),
        ReplMsg::Fenced {
            epoch: 2,
            stale_epoch: 1
        }
    );
    assert_eq!(
        repl(
            &mut stale,
            &ReplMsg::Frame {
                epoch: 1,
                seq: 2,
                submit: frames[1].0.clone(),
                decision: frames[1].1.clone(),
            }
        ),
        ReplMsg::Fenced {
            epoch: 2,
            stale_epoch: 1
        }
    );
    let ack = wait_for_ack(&addr, Duration::from_secs(5), |ack| ack.stats.decided == 1);
    assert_eq!(ack.epoch, 2);
    c.control(ControlAction::Shutdown).unwrap();
    standby.join().unwrap().unwrap();
}

/// One split-brain case: promote the standby while the primary is still
/// alive after `k` replicated decisions, then prove the deposed primary
/// can never ack another submit (the held reply dies with the fencing)
/// and exits with the typed fenced error.
fn deposed_primary_never_acks_case(k: usize) {
    let (instance, reqs) = scenario(16, 26);
    let fp = format!("repl-fence-{k}");
    let (standby_addr, standby) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = base_config(&fp);
        c.standby = true;
        c
    });
    let (primary_addr, primary) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = base_config(&fp);
        c.replicate_to = Some(standby_addr.to_string());
        c
    });
    let mut client = LineClient::connect(primary_addr).unwrap();
    submit_all(&mut client, &reqs[..k]);

    // Split brain on purpose: promote while the primary lives. The
    // standby force-closes the replication connection after its drain
    // grace, so the promote ack itself proves the promotion completed.
    let mut sc = LineClient::connect(standby_addr).unwrap();
    let ack = sc.control(ControlAction::Promote).unwrap();
    assert_eq!((ack.epoch, ack.role.as_str()), (2, "primary"));
    assert_eq!(ack.stats.decided as usize, k);

    // The deposed primary must never ack this submit: acceptable fates
    // are an error line, a closed connection, or silence — never a
    // decision.
    let socket = client.stream();
    socket
        .set_write_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    match client.submit(&reqs[k]) {
        // The daemon exited (a hang-up reads as `UnexpectedEof`), went
        // silent, or reset the connection.
        Err(ServeError::Io(e)) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected read error: {e}"
        ),
        Err(e) => panic!("the deposed primary's reply does not parse: {e}"),
        Ok(msg) => assert!(
            !matches!(msg, ServerMsg::Decision(_)),
            "deposed primary acked a decision after the promotion: {msg:?}"
        ),
    }

    // The deposed primary exits with the typed fenced error (exit code
    // 7 at the CLI).
    match primary.join().unwrap() {
        Err(ServeError::Fenced { epoch, by }) => {
            assert_eq!(epoch, 1);
            assert_eq!(by, 2);
        }
        other => panic!("deposed primary did not fence itself: {other:?}"),
    }

    // The survivor still serves and lost nothing it acked.
    let tail = submit_all(&mut sc, &reqs[k..]);
    assert_eq!(tail.len(), reqs.len() - k);
    sc.control(ControlAction::Shutdown).unwrap();
    let (report, _) = standby.join().unwrap().unwrap();
    assert_eq!(report.epoch, 2);
    assert_eq!(report.stats.decided as usize, reqs.len());
}

proptest! {
    // Each case boots two daemons and rides out the promote drain
    // grace, so keep the case count small; the kill point is the only
    // dimension that matters.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn deposed_primary_never_acks(k in 0usize..12) {
        deposed_primary_never_acks_case(k);
    }
}

// ---------------------------------------------------------------------
// Standby behavior and auto-promotion.
// ---------------------------------------------------------------------

#[test]
fn standby_refuses_submits_with_not_primary() {
    let (instance, reqs) = scenario(4, 27);
    let (addr, standby) = spawn_daemon(instance, Algo::Onsite, {
        let mut c = base_config("repl-refuse");
        c.standby = true;
        c
    });
    let mut client = LineClient::connect(addr).unwrap();
    match client.submit(&reqs[0]).unwrap() {
        ServerMsg::NotPrimary { epoch, id } => {
            assert_eq!(epoch, 1);
            assert_eq!(id, reqs[0].id().index());
        }
        other => panic!("expected not-primary, got {other:?}"),
    }
    // The slot clock of a standby advances only via replication.
    match client
        .round_trip(&ClientMsg::Control(ControlAction::AdvanceSlot))
        .unwrap()
    {
        ServerMsg::Error(msg) => assert!(msg.contains("standby"), "{msg}"),
        other => panic!("expected an error, got {other:?}"),
    }
    let ack = client.control(ControlAction::Promote).unwrap();
    assert_eq!(ack.epoch, 2);
    // Promoted: the same submit now gets a decision.
    assert!(matches!(
        client.submit(&reqs[0]).unwrap(),
        ServerMsg::Decision(_)
    ));
    client.control(ControlAction::Shutdown).unwrap();
    standby.join().unwrap().unwrap();
}

#[test]
fn auto_promotion_waits_for_silence_then_fires() {
    let (instance, reqs) = scenario(30, 28);
    let cut = 12;
    let fp = "repl-autopromote";
    let (standby_addr, standby) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = base_config(fp);
        c.standby = true;
        c.auto_promote_after = Some(Duration::from_millis(500));
        c
    });
    let (primary_addr, primary) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = base_config(fp);
        c.replicate_to = Some(standby_addr.to_string());
        c
    });
    let mut client = LineClient::connect(primary_addr).unwrap();
    submit_all(&mut client, &reqs[..cut]);

    // An idle but living primary heartbeats; the standby must NOT
    // promote itself while it can still hear them.
    std::thread::sleep(Duration::from_millis(1200));
    let mut sc = LineClient::connect(standby_addr).unwrap();
    let ack = sc.control(ControlAction::Stats).unwrap();
    assert_eq!(
        (ack.role.as_str(), ack.epoch),
        ("standby", 1),
        "standby self-promoted under a living primary"
    );

    // Primary gone: silence now means promotion, no operator needed.
    client.control(ControlAction::Shutdown).unwrap();
    primary.join().unwrap().unwrap();
    let ack = wait_for_ack(&standby_addr.to_string(), Duration::from_secs(10), |ack| {
        ack.role == "primary"
    });
    assert_eq!(ack.epoch, 2);

    let tail = submit_all(&mut sc, &reqs[cut..]);
    assert_eq!(tail.len(), reqs.len() - cut);
    sc.control(ControlAction::Shutdown).unwrap();
    let (report, _) = standby.join().unwrap().unwrap();
    assert_eq!(report.stats.decided as usize, reqs.len());
}
