//! Wire-level hardening: torn (half-written) frames, oversized lines
//! (sent in one go or streamed without a pause), slow multi-write
//! continuations, garbage JSON and invalid UTF-8 must never wedge or
//! kill the daemon — at worst they cost the offending connection.

#[path = "serve_common.rs"]
mod common;

use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use common::{scenario, spawn_daemon, Algo};
use mec_serve::{
    encode_batch_into, encode_client, is_batch_reply, parse_batch_reply_into, parse_server,
    ClientMsg, ControlAction, LineClient, ServeConfig, ServeError, ServeReport, ServerMsg,
    SubmitRequest, MAX_LINE_BYTES,
};
use mec_workload::Request;

fn submit_line(r: &Request) -> String {
    let mut line = encode_client(&ClientMsg::Submit(SubmitRequest::from(r)));
    line.push('\n');
    line
}

/// Writes bytes that are deliberately not (yet) a line.
fn write_bytes(conn: &LineClient, bytes: &[u8]) {
    let mut socket = conn.stream();
    socket.write_all(bytes).unwrap();
    socket.flush().unwrap();
}

/// Reads one reply, which must be a typed error, and returns its text.
fn read_error(conn: &mut LineClient) -> String {
    match parse_server(conn.read_line().unwrap()).unwrap() {
        ServerMsg::Error(msg) => msg,
        other => panic!("expected an error line, got {other:?}"),
    }
}

/// Asserts the daemon dropped the connection without another line.
fn expect_closed(conn: &mut LineClient) {
    let timeout = Some(Duration::from_secs(5));
    conn.stream().set_read_timeout(timeout).unwrap();
    match conn.read_line() {
        Err(ServeError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {}
        other => panic!("expected the daemon to drop the connection, got: {other:?}"),
    }
}

/// One ordinary submit on `conn`, which must be decided.
fn submit_decides(conn: &mut LineClient, r: &Request) {
    assert!(matches!(conn.submit(r).unwrap(), ServerMsg::Decision(_)));
}

/// A one-lane daemon over `scenario(n, seed)`: its requests, a way to
/// connect to it, and a way to shut it down and collect its report.
struct Booted {
    reqs: Vec<Request>,
    addr: std::net::SocketAddr,
    daemon: common::LaneHandle,
}

fn boot(n: usize, seed: u64, fp: &str) -> Booted {
    let (instance, reqs) = scenario(n, seed);
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.fingerprint = fp.to_string();
    let (addr, daemon) = spawn_daemon(instance, Algo::Onsite, config);
    Booted { reqs, addr, daemon }
}

impl Booted {
    fn connect(&self) -> LineClient {
        LineClient::connect(self.addr).unwrap()
    }

    /// A fresh client gets ordinary service for request 0, then shuts
    /// the daemon down.
    fn serves_then_shuts_down(self) -> ServeReport {
        let mut client = self.connect();
        submit_decides(&mut client, &self.reqs[0]);
        self.shuts_down(client)
    }

    fn shuts_down(self, mut client: LineClient) -> ServeReport {
        client.control(ControlAction::Shutdown).unwrap();
        self.daemon.join().unwrap().unwrap().0
    }
}

#[test]
fn torn_frame_gets_an_error_and_daemon_survives() {
    let booted = boot(4, 31, "torn");

    // Write half a submit line and hang up the write side: the daemon
    // must call out the torn frame rather than silently discarding it
    // or treating the fragment as a request.
    let mut torn = booted.connect();
    let line = submit_line(&booted.reqs[0]);
    write_bytes(&torn, &line.as_bytes()[..line.len() / 2]);
    torn.stream().shutdown(Shutdown::Write).unwrap();
    let msg = read_error(&mut torn);
    assert!(msg.contains("torn frame"), "unexpected error: {msg}");
    expect_closed(&mut torn);

    // The fragment left no trace: a fresh client gets ordinary service
    // and the torn bytes were not counted as a decision.
    assert_eq!(booted.serves_then_shuts_down().stats.decided, 1);
}

#[test]
fn oversized_line_is_rejected_and_connection_dropped() {
    let booted = boot(4, 32, "oversized");

    // No newline in sight: the daemon must bail out once the line
    // exceeds the limit instead of buffering without bound.
    let mut hog = booted.connect();
    write_bytes(&hog, &vec![b'x'; MAX_LINE_BYTES + 10]);
    let msg = read_error(&mut hog);
    assert!(msg.contains("oversized"), "unexpected error: {msg}");
    assert!(
        msg.contains(&MAX_LINE_BYTES.to_string()),
        "error should state the limit: {msg}"
    );
    expect_closed(&mut hog);

    booted.serves_then_shuts_down();
}

#[test]
fn oversized_line_with_bytes_behind_it_still_closes_cleanly() {
    let booted = boot(4, 41, "oversized-tail");

    // The daemon stops reading one byte past the limit, which leaves
    // this line's tail unread in the socket. Closing over unread bytes
    // would reset the connection; the error line must still arrive,
    // followed by an orderly close.
    let mut hog = booted.connect();
    write_bytes(&hog, &vec![b'x'; MAX_LINE_BYTES + (200 << 10)]);
    let msg = read_error(&mut hog);
    assert!(msg.contains("oversized"), "unexpected error: {msg}");
    expect_closed(&mut hog);

    booted.serves_then_shuts_down();
}

#[test]
fn streaming_hog_is_cut_off_at_the_line_limit() {
    let booted = boot(4, 40, "stream-hog");

    // 64 MiB with no newline and no pause: the limit must hold while the
    // bytes are still arriving, not only once the sender stops.
    let mut hog = booted.connect();
    let timeout = Some(Duration::from_secs(20));
    hog.stream().set_read_timeout(timeout).unwrap();
    let mut socket = hog.stream().try_clone().unwrap();
    let streamer = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 << 10];
        let mut sent = 0usize;
        while sent < 64 << 20 {
            match socket.write(&chunk) {
                Ok(n) => sent += n,
                Err(_) => return (sent, true),
            }
        }
        (sent, false)
    });
    let msg = read_error(&mut hog);
    assert!(msg.contains("oversized"), "unexpected error: {msg}");
    let (sent, failed) = streamer.join().unwrap();
    assert!(failed, "the daemon took all {sent} bytes");
    assert!(
        sent < 16 << 20,
        "{sent} bytes went out before the daemon dropped the hog"
    );

    booted.serves_then_shuts_down();
}

#[test]
fn slow_two_part_write_still_decides() {
    let booted = boot(4, 33, "slow");

    // A client that stalls mid-line for longer than the daemon's read
    // timeout is slow, not torn: the fragment must be kept and the
    // completed line decided.
    let mut slow = booted.connect();
    let line = submit_line(&booted.reqs[0]);
    let (head, tail) = line.as_bytes().split_at(line.len() / 2);
    write_bytes(&slow, head);
    std::thread::sleep(Duration::from_millis(250));
    write_bytes(&slow, tail);
    let reply = parse_server(slow.read_line().unwrap()).unwrap();
    assert!(
        matches!(reply, ServerMsg::Decision(_)),
        "slow continuation not decided: {reply:?}"
    );
    assert_eq!(booted.shuts_down(slow).stats.decided, 1);
}

#[test]
fn garbage_json_errors_but_connection_survives() {
    let booted = boot(4, 34, "garbage");

    let mut client = booted.connect();
    client
        .send_line("{\"type\":\"submit\",\"v\":2,\"id\":oops}")
        .unwrap();
    read_error(&mut client);
    // `null` reads as NaN in every float field; the request check, not
    // the parser, refuses it, and the refused id consumes no state.
    let line = submit_line(&booted.reqs[0]);
    for field in ["reliability", "payment"] {
        let at = line.find(&format!("\"{field}\":")).unwrap() + field.len() + 3;
        let end = at + line[at..].find([',', '}']).unwrap();
        let null = format!("{}null{}", &line[..at], line[end..].trim_end());
        client.send_line(&null).unwrap();
        let msg = read_error(&mut client);
        assert!(msg.starts_with("invalid "), "{field}: {msg}");
    }
    // A complete-but-malformed line costs a reply, not the connection.
    submit_decides(&mut client, &booted.reqs[0]);
    booted.shuts_down(client);
}

#[test]
fn torn_batch_frame_gets_an_error_and_daemon_survives() {
    let booted = boot(8, 36, "torn-batch");

    // Half a v3 batch frame followed by a write-side hangup: the torn
    // frame costs an error line and the connection, never the daemon
    // and never a partial batch decided.
    let mut torn = booted.connect();
    let batch: Vec<SubmitRequest> = (booted.reqs.iter().take(4))
        .map(SubmitRequest::from)
        .collect();
    let mut line = String::new();
    encode_batch_into(&mut line, 1, &batch);
    write_bytes(&torn, &line.as_bytes()[..line.len() / 2]);
    torn.stream().shutdown(Shutdown::Write).unwrap();
    let msg = read_error(&mut torn);
    assert!(msg.contains("torn frame"), "unexpected error: {msg}");
    expect_closed(&mut torn);

    // Nothing from the fragment reached the scheduler: id 0 is still
    // the next expected request.
    assert_eq!(booted.serves_then_shuts_down().stats.decided, 1);
}

#[test]
fn malformed_batch_frame_errors_but_connection_survives() {
    let booted = boot(8, 37, "bad-batch");

    let mut client = booted.connect();
    // Complete line, hostile payload: header claims two requests but
    // carries one. Must earn a typed error, not a partial decision.
    client
        .send_line("{\"type\":\"batch\",\"v\":3,\"b\":0,\"n\":2,\"reqs\":[[0,1,0.9,0,1,2.5]]}")
        .unwrap();
    read_error(&mut client);

    // An empty batch is malformed too, on the same still-open
    // connection.
    client
        .send_line("{\"type\":\"batch\",\"v\":3,\"b\":1,\"n\":0,\"reqs\":[]}")
        .unwrap();
    let msg = read_error(&mut client);
    assert!(msg.contains("empty batch"), "unexpected error: {msg}");

    // A well-formed batch on the same connection still decides: the
    // malformed frames consumed no ids.
    let batch: Vec<SubmitRequest> = (booted.reqs.iter().take(3))
        .map(SubmitRequest::from)
        .collect();
    let mut line = String::new();
    encode_batch_into(&mut line, 2, &batch);
    client.send_line(&line).unwrap();
    let reply = client.read_line().unwrap();
    assert!(is_batch_reply(reply), "expected a batch reply: {reply}");
    let mut codes = Vec::new();
    assert_eq!(parse_batch_reply_into(reply, &mut codes).unwrap(), 2);
    assert_eq!(codes.len(), 3);

    assert_eq!(booted.shuts_down(client).stats.decided, 3);
}

#[test]
fn oversized_batch_frame_is_rejected_like_any_oversized_line() {
    let booted = boot(4, 38, "big-batch");

    // A batch-frame prefix that never ends: the shared line-length
    // guard must fire before the parser ever sees it.
    let mut hog = booted.connect();
    let mut blob = b"{\"type\":\"batch\",\"v\":3,\"b\":0,\"n\":1,\"reqs\":[[".to_vec();
    blob.resize(MAX_LINE_BYTES + 10, b'1');
    write_bytes(&hog, &blob);
    let msg = read_error(&mut hog);
    assert!(msg.contains("oversized"), "unexpected error: {msg}");
    expect_closed(&mut hog);

    booted.serves_then_shuts_down();
}

#[test]
fn slow_loris_client_cannot_pin_the_only_worker() {
    let (instance, reqs) = scenario(4, 39);
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.fingerprint = "loris".to_string();
    // One worker: if the hog could pin it, the daemon would be dead to
    // every other client.
    config.workers = 1;
    let (addr, daemon) = spawn_daemon(instance, Algo::Onsite, config);

    // The hog submits the same request over and over without ever
    // draining a reply. Dedupe answers each resubmit, so the daemon
    // keeps writing into a connection nobody reads; once both socket
    // buffers fill, the daemon's reply write blocks until its write
    // timeout fires and the connection is dropped.
    let mut hog = TcpStream::connect(addr).unwrap();
    hog.set_nodelay(true).unwrap();
    hog.set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let line = submit_line(&reqs[0]);
    // An error is either our own 500ms write timeout (buffers full —
    // the daemon worker is now stuck in its reply write) or the daemon
    // having dropped us already.
    let wedged = (0..500_000).any(|_| hog.write_all(line.as_bytes()).is_err());
    assert!(wedged, "the hog never managed to fill the socket buffers");

    // The worker must shake the hog loose within WRITE_TIMEOUT (2s) and
    // serve a fresh client. The generous read timeout is the test's
    // failure detector, not the expected latency.
    let mut fresh = LineClient::connect(addr).unwrap();
    let timeout = Some(Duration::from_secs(20));
    fresh.stream().set_read_timeout(timeout).unwrap();
    loop {
        // The freed worker can reach the fresh client before the decide
        // thread, freed in the same instant, has drained the hog's queued
        // submits: an overload reply is an answer too (the worker is not
        // pinned), and a shed id may be sent again.
        match fresh.submit(&reqs[1]) {
            Ok(ServerMsg::Overload(_)) => std::thread::sleep(Duration::from_millis(10)),
            Ok(ServerMsg::Decision(_)) => break,
            Ok(other) => panic!("fresh client not decided: {other:?}"),
            Err(e) => panic!("the hog pinned the worker, the fresh client got: {e}"),
        }
    }

    drop(hog);
    fresh.control(ControlAction::Shutdown).unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn invalid_utf8_drops_the_connection_only() {
    let booted = boot(4, 35, "utf8");

    let mut bad = booted.connect();
    write_bytes(&bad, b"\xff\xfe\n");
    expect_closed(&mut bad);

    booted.serves_then_shuts_down();
}
