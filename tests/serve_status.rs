//! Live-introspection coverage: the `/status` JSON endpoint across the
//! role lifecycle (primary, replicating primary, standby, post-promotion
//! survivor), the `snapshot_age_seconds` gauge flipping from its -1
//! "never" sentinel to a fresh age after the snapshot control, the
//! `dump-flight` control, and the flight-recorder dump a fenced primary
//! leaves behind.

#[path = "serve_common.rs"]
mod common;

use std::path::Path;
use std::time::Duration;

use common::{http_get, scenario, scrape, spawn_daemon, Algo};
use mec_obs::{JsonValue, TraceEvent};
use mec_serve::{
    encode_client, ClientMsg, ControlAction, LineClient, ServeConfig, ServeError, ServerMsg,
    SubmitRequest,
};

fn base_config(fingerprint: &str) -> ServeConfig {
    let mut c = ServeConfig::new("127.0.0.1:0");
    c.fingerprint = fingerprint.to_string();
    c
}

/// GET /status, asserting 200 and valid JSON.
fn get_status(addr: &str) -> JsonValue {
    let (status, body) = http_get(addr, "/status");
    assert!(status.contains("200"), "bad status line: {status}");
    mec_obs::parse_value(body.trim()).expect("/status body is JSON")
}

/// Asserts the dump file parses as a JSONL trace with at least one
/// event, returning the events.
fn parseable_dump(path: &Path) -> Vec<TraceEvent> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing flight dump {}: {e}", path.display()));
    let events = mec_obs::parse_trace(&text)
        .unwrap_or_else(|e| panic!("unparseable flight dump {}: {e}", path.display()));
    assert!(!events.is_empty(), "empty flight dump {}", path.display());
    events
}

#[test]
fn status_and_snapshot_age_track_the_snapshot_control() {
    let dir = std::env::temp_dir().join(format!("vnfrel-status-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (instance, reqs) = scenario(6, 91);
    let (addr, daemon) = spawn_daemon(instance, Algo::Onsite, {
        let mut c = base_config("status-snap");
        c.snapshot_path = Some(dir.join("live.snap"));
        c
    });
    let addr = addr.to_string();

    // Fresh primary: role/epoch/shard table present, no snapshot yet.
    let v = get_status(&addr);
    assert_eq!(v.get("role").and_then(|r| r.as_str()), Some("primary"));
    assert_eq!(v.get("epoch").and_then(|e| e.as_usize()), Some(1));
    assert_eq!(v.get("shard_count").and_then(|s| s.as_usize()), Some(1));
    assert_eq!(
        v.get("snapshot_fingerprint").and_then(|f| f.as_str()),
        Some("status-snap")
    );
    assert!(matches!(
        v.get("last_snapshot_unix_ms"),
        Some(JsonValue::Null)
    ));
    // The age gauge holds its -1 "never snapshotted" sentinel.
    assert_eq!(scrape(&*addr, "vnfrel_serve_snapshot_age_seconds"), -1.0);

    let mut client = LineClient::connect(&addr).unwrap();
    for r in &reqs[..3] {
        assert!(matches!(client.submit(r).unwrap(), ServerMsg::Decision(_)));
    }

    // The snapshot control stamps the wall clock: the ack carries it,
    // the gauge resets from -1 to a fresh age, /status mirrors it.
    let ack = client.control(ControlAction::Snapshot).unwrap();
    let ms = ack.last_snapshot_unix_ms.expect("ack carries the stamp");
    assert!(ms > 0);
    let age = scrape(&*addr, "vnfrel_serve_snapshot_age_seconds");
    assert!((0.0..60.0).contains(&age), "stale snapshot age {age}");
    let v = get_status(&addr);
    assert!(
        v.get("last_snapshot_unix_ms")
            .and_then(JsonValue::as_usize)
            .is_some_and(|ms| ms > 0),
        "/status still reports no snapshot"
    );

    // Unknown paths 404 without disturbing the daemon.
    let (status, _) = http_get(&addr, "/nope");
    assert!(status.contains("404"), "bad status line: {status}");

    let ack = client.control(ControlAction::Shutdown).unwrap();
    assert!(ack.last_snapshot_unix_ms.is_some());
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_tracks_roles_across_promotion_and_fencing_dumps_the_flight() {
    let dir = std::env::temp_dir().join(format!("vnfrel-status-fence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (instance, reqs) = scenario(8, 92);
    let fp = "status-fence";
    let (standby_addr, standby) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = base_config(fp);
        c.standby = true;
        c
    });
    let (primary_addr, primary) = spawn_daemon(instance, Algo::Onsite, {
        let mut c = base_config(fp);
        c.replicate_to = Some(standby_addr.to_string());
        c.flight_dir = Some(dir.clone());
        c
    });
    let primary_addr = primary_addr.to_string();
    let standby_addr = standby_addr.to_string();

    // Replicating primary and its standby, as /status sees them.
    let v = get_status(&primary_addr);
    assert_eq!(v.get("role").and_then(|r| r.as_str()), Some("primary"));
    assert_eq!(v.get("epoch").and_then(|e| e.as_usize()), Some(1));
    let v = get_status(&standby_addr);
    assert_eq!(v.get("role").and_then(|r| r.as_str()), Some("standby"));
    assert_eq!(v.get("epoch").and_then(|e| e.as_usize()), Some(1));

    let mut client = LineClient::connect(&primary_addr).unwrap();
    for r in &reqs[..4] {
        assert!(matches!(client.submit(r).unwrap(), ServerMsg::Decision(_)));
    }

    // Split brain on purpose: promote the standby under a living
    // primary.
    let mut sc = LineClient::connect(&standby_addr).unwrap();
    let ack = sc.control(ControlAction::Promote).unwrap();
    assert_eq!((ack.epoch, ack.role.as_str()), (2, "primary"));
    // Post-promotion survivor: /status now says primary at epoch 2.
    let v = get_status(&standby_addr);
    assert_eq!(v.get("role").and_then(|r| r.as_str()), Some("primary"));
    assert_eq!(v.get("epoch").and_then(|e| e.as_usize()), Some(2));

    // The deposed primary fences itself — and leaves a parseable
    // post-mortem: its flight recorder dumped to flight-<epoch>-0.jsonl.
    match primary.join().unwrap() {
        Err(ServeError::Fenced { epoch, by }) => {
            assert_eq!(epoch, 1);
            assert_eq!(by, 2);
        }
        other => panic!("deposed primary did not fence itself: {other:?}"),
    }
    let events = parseable_dump(&dir.join("flight-1-0.jsonl"));
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::Decision(_) | TraceEvent::StageSample { .. })),
        "flight dump holds neither decisions nor stage samples"
    );

    sc.control(ControlAction::Shutdown).unwrap();
    standby.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dump_flight_control_writes_a_parseable_ring() {
    let dir = std::env::temp_dir().join(format!("vnfrel-status-dump-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (instance, reqs) = scenario(6, 93);
    let (addr, daemon) = spawn_daemon(instance, Algo::Offsite, {
        let mut c = base_config("status-dump");
        c.flight_dir = Some(dir.clone());
        c
    });

    let mut client = LineClient::connect(addr).unwrap();
    for r in &reqs {
        assert!(matches!(client.submit(r).unwrap(), ServerMsg::Decision(_)));
    }
    let ack = client.control(ControlAction::DumpFlight).unwrap();
    assert_eq!(ack.action, ControlAction::DumpFlight);

    let events = parseable_dump(&dir.join("flight-1-0.jsonl"));
    // The ring saw both the decision stream and the pipeline spans.
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Decision(_))));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::StageSample { .. })));

    client.control(ControlAction::Shutdown).unwrap();
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dump_flight_without_a_flight_dir_still_acks() {
    let (instance, _reqs) = scenario(2, 94);
    let (addr, daemon) = spawn_daemon(instance, Algo::Onsite, base_config("status-nodir"));
    let mut client = LineClient::connect(addr).unwrap();
    let ack = client.control(ControlAction::DumpFlight).unwrap();
    assert_eq!(ack.action, ControlAction::DumpFlight);
    client.control(ControlAction::Shutdown).unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn status_reports_replication_link_state() {
    let (instance, reqs) = scenario(6, 96);
    let fp = "status-link";

    // A primary with no replication link renders `"replication": null`.
    let (solo_addr, solo) = spawn_daemon(instance.clone(), Algo::Onsite, base_config(fp));
    let v = get_status(&solo_addr.to_string());
    assert!(
        matches!(v.get("replication"), Some(JsonValue::Null)),
        "unlinked primary should report replication: null"
    );
    let mut sc = LineClient::connect(solo_addr).unwrap();
    sc.control(ControlAction::Shutdown).unwrap();
    solo.join().unwrap().unwrap();

    // Point the link at a port that was just freed: every connect is
    // refused, so the sender walks backoff → partitioned and /status
    // must render the decay live.
    let (addr, daemon) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = base_config(fp);
        c.replicate_to = Some(common::unused_addr());
        c
    });
    let addr = addr.to_string();

    // The submit is decided, but no standby ever acks its frame, so its
    // reply is never written.
    let mut client = LineClient::connect(&addr).unwrap();
    let submit = ClientMsg::Submit(SubmitRequest::from(&reqs[0]));
    client.send_line(&encode_client(&submit)).unwrap();

    // Poll until the failure counter crosses the partition threshold
    // (4 refused connects under capped jittered backoff: well under the
    // deadline). Controls and /status keep answering throughout.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let repl = loop {
        let ack = LineClient::connect(&addr)
            .unwrap()
            .control(ControlAction::Stats)
            .unwrap();
        assert_eq!((ack.role.as_str(), ack.epoch), ("primary", 1));
        let v = get_status(&addr);
        let repl = v.get("replication").cloned().expect("repl link rendered");
        let state = repl.get("state").and_then(|s| s.as_str()).unwrap_or("");
        assert!(
            matches!(state, "backoff" | "partitioned"),
            "dead peer cannot be {state:?}"
        );
        if state == "partitioned" {
            break repl;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "link never reached partitioned: {repl:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        repl.get("connected").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert!(
        repl.get("retries")
            .and_then(JsonValue::as_usize)
            .is_some_and(|r| r >= 4),
        "partitioned with fewer than 4 retries: {repl:?}"
    );
    assert_eq!(
        repl.get("last_error").and_then(|s| s.as_str()),
        Some("connect"),
        "refused connects should classify as connect errors"
    );
    common::assert_silent(&client, Duration::from_millis(200));

    // Shutdown drops the held reply: the submit's connection closes
    // without it.
    let mut control = LineClient::connect(&addr).unwrap();
    control.control(ControlAction::Shutdown).unwrap();
    daemon.join().unwrap().unwrap();
    match client.read_line() {
        Err(ServeError::Io(e)) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
            ),
            "unexpected read error: {e}"
        ),
        other => panic!("the held reply was written at shutdown: {other:?}"),
    }

    // With a live standby the same object flips to connected and the
    // acked sequence follows the sent sequence.
    let (standby_addr, standby) = spawn_daemon(instance.clone(), Algo::Onsite, {
        let mut c = base_config(fp);
        c.standby = true;
        c
    });
    let (primary_addr, primary) = spawn_daemon(instance, Algo::Onsite, {
        let mut c = base_config(fp);
        c.replicate_to = Some(standby_addr.to_string());
        c
    });
    let primary_addr = primary_addr.to_string();
    let mut client = LineClient::connect(&primary_addr).unwrap();
    for r in &reqs[..3] {
        assert!(matches!(client.submit(r).unwrap(), ServerMsg::Decision(_)));
    }
    // Each reply was already held for the standby's ack, so the link
    // must render connected with zero lag by the time submits return.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let v = get_status(&primary_addr);
        let repl = v.get("replication").cloned().expect("repl link rendered");
        let connected = repl.get("connected").and_then(JsonValue::as_bool);
        let sent = repl.get("sent_seq").and_then(JsonValue::as_usize);
        let acked = repl.get("acked_seq").and_then(JsonValue::as_usize);
        if connected == Some(true)
            && repl.get("state").and_then(|s| s.as_str()) == Some("connected")
            && sent.is_some_and(|s| s > 0)
            && acked == sent
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "live link never settled: {repl:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    client.control(ControlAction::Shutdown).unwrap();
    primary.join().unwrap().unwrap();
    let mut sc = LineClient::connect(standby_addr).unwrap();
    sc.control(ControlAction::Shutdown).unwrap();
    standby.join().unwrap().unwrap();
}

#[test]
fn sharded_status_reports_every_lane() {
    let (instance, reqs) = scenario(4, 95);
    let shards = 2;
    let mut config = common::sharded_config(shards);
    config.fingerprint = "status-lanes".to_string();
    let (addr, daemon) = common::spawn_sharded(instance, vnfrel::Scheme::OnSite, config);
    let addr = addr.to_string();

    let v = get_status(&addr);
    assert_eq!(v.get("role").and_then(|r| r.as_str()), Some("primary"));
    assert_eq!(
        v.get("shard_count").and_then(JsonValue::as_usize),
        Some(shards)
    );
    let lanes = match v.get("shards") {
        Some(JsonValue::Arr(items)) => items.len(),
        other => panic!("no shard table in /status: {other:?}"),
    };
    assert_eq!(lanes, shards);
    // More than one lane never snapshots (DESIGN.md §14) — but the
    // fingerprint is the node's, whatever the lane count.
    assert!(matches!(
        v.get("last_snapshot_unix_ms"),
        Some(JsonValue::Null)
    ));
    assert_eq!(
        v.get("snapshot_fingerprint").and_then(|f| f.as_str()),
        Some("status-lanes")
    );

    let mut client = LineClient::connect(&addr).unwrap();
    // Acks carry the node's role, epoch and slot, not constants.
    for expected_slot in [1, 2] {
        let ack = client.control(ControlAction::AdvanceSlot).unwrap();
        assert_eq!((ack.role.as_str(), ack.epoch), ("primary", 1));
        assert_eq!(ack.slot, expected_slot);
    }
    for r in &reqs {
        assert!(matches!(client.submit(r).unwrap(), ServerMsg::Decision(_)));
    }
    // Every lane counts into metric series of its own: lane 1 decided
    // the odd ids, and its stage histogram and `/status` row say so.
    let decides = scrape(
        &*addr,
        "vnfrel_serve_stage_seconds_count{shard=\"1\",stage=\"decide\"}",
    );
    assert!(decides >= 1.0, "lane 1 decided {decides} items");
    let v = get_status(&addr);
    let Some(JsonValue::Arr(lanes)) = v.get("shards") else {
        panic!("no shard table in /status: {v:?}");
    };
    for key in ["queue_depth", "shed", "backpressure"] {
        assert!(lanes[1].get(key).is_some(), "lane 1 reports no {key}");
    }
    client.control(ControlAction::Shutdown).unwrap();
    daemon.join().unwrap().unwrap();
}
