//! Wire-level hardening: torn (half-written) frames, oversized lines,
//! slow multi-write continuations, garbage JSON and invalid UTF-8 must
//! never wedge or kill the daemon — at worst they cost the offending
//! connection.

#[path = "serve_common.rs"]
mod common;

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use common::{scenario, spawn_daemon, Algo};
use mec_serve::{
    encode_batch_into, encode_client, is_batch_reply, parse_batch_reply_into, parse_server,
    ClientMsg, ControlAction, ServeConfig, ServerMsg, SubmitRequest, MAX_LINE_BYTES,
};
use mec_workload::Request;

fn submit_line(r: &Request) -> String {
    let mut line = encode_client(&ClientMsg::Submit(SubmitRequest {
        id: r.id().index(),
        vnf: r.vnf().index(),
        reliability: r.reliability_requirement().value(),
        arrival: r.arrival(),
        duration: r.duration(),
        payment: r.payment(),
    }));
    line.push('\n');
    line
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
            line: String::new(),
        }
    }

    /// Reads one reply line; panics if the daemon closed the connection.
    fn read_reply(&mut self) -> String {
        self.line.clear();
        assert!(
            self.reader.read_line(&mut self.line).unwrap() > 0,
            "daemon closed the connection"
        );
        self.line.trim().to_string()
    }

    /// Reads until EOF, asserting the daemon closed the connection.
    fn expect_closed(&mut self) {
        self.reader
            .get_mut()
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        self.line.clear();
        assert_eq!(
            self.reader.read_line(&mut self.line).unwrap(),
            0,
            "expected the daemon to drop the connection, got: {}",
            self.line
        );
    }

    fn submit(&mut self, r: &Request) -> ServerMsg {
        self.writer.write_all(submit_line(r).as_bytes()).unwrap();
        parse_server(&self.read_reply()).unwrap()
    }

    fn shutdown_daemon(&mut self) {
        let mut line = encode_client(&ClientMsg::Control(ControlAction::Shutdown));
        line.push('\n');
        self.writer.write_all(line.as_bytes()).unwrap();
        let reply = self.read_reply();
        assert!(
            matches!(parse_server(&reply).unwrap(), ServerMsg::Ack(_)),
            "shutdown not acked: {reply}"
        );
    }
}

fn boot(
    n: usize,
    seed: u64,
    fp: &str,
) -> (
    Vec<Request>,
    String,
    std::thread::JoinHandle<Result<mec_serve::ServeReport, mec_serve::ServeError>>,
) {
    let (instance, reqs) = scenario(n, seed);
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.fingerprint = fp.to_string();
    let (addr, daemon) = spawn_daemon(instance, Algo::Onsite, config);
    (reqs, addr.to_string(), daemon)
}

#[test]
fn torn_frame_gets_an_error_and_daemon_survives() {
    let (reqs, addr, daemon) = boot(4, 31, "torn");

    // Write half a submit line and hang up the write side: the daemon
    // must call out the torn frame rather than silently discarding it
    // or treating the fragment as a request.
    let mut torn = Client::connect(&addr);
    let line = submit_line(&reqs[0]);
    let half = &line.as_bytes()[..line.len() / 2];
    torn.writer.write_all(half).unwrap();
    torn.writer.flush().unwrap();
    torn.writer.shutdown(Shutdown::Write).unwrap();
    let reply = torn.read_reply();
    match parse_server(&reply).unwrap() {
        ServerMsg::Error(msg) => {
            assert!(msg.contains("torn frame"), "unexpected error: {msg}")
        }
        other => panic!("expected a torn-frame error, got {other:?}"),
    }
    torn.expect_closed();

    // The fragment left no trace: a fresh client gets ordinary service
    // and the torn bytes were not counted as a decision.
    let mut client = Client::connect(&addr);
    assert!(matches!(client.submit(&reqs[0]), ServerMsg::Decision(_)));
    client.shutdown_daemon();
    let report = daemon.join().unwrap().unwrap();
    assert_eq!(report.stats.decided, 1);
}

#[test]
fn oversized_line_is_rejected_and_connection_dropped() {
    let (reqs, addr, daemon) = boot(4, 32, "oversized");

    let mut hog = Client::connect(&addr);
    // No newline in sight: the daemon must bail out once the line
    // exceeds the limit instead of buffering without bound.
    let blob = vec![b'x'; MAX_LINE_BYTES + 10];
    hog.writer.write_all(&blob).unwrap();
    hog.writer.flush().unwrap();
    let reply = hog.read_reply();
    match parse_server(&reply).unwrap() {
        ServerMsg::Error(msg) => {
            assert!(msg.contains("oversized"), "unexpected error: {msg}");
            assert!(
                msg.contains(&MAX_LINE_BYTES.to_string()),
                "error should state the limit: {msg}"
            );
        }
        other => panic!("expected an oversized-frame error, got {other:?}"),
    }
    hog.expect_closed();

    let mut client = Client::connect(&addr);
    assert!(matches!(client.submit(&reqs[0]), ServerMsg::Decision(_)));
    client.shutdown_daemon();
    daemon.join().unwrap().unwrap();
}

#[test]
fn slow_two_part_write_still_decides() {
    let (reqs, addr, daemon) = boot(4, 33, "slow");

    // A client that stalls mid-line for longer than the daemon's read
    // timeout is slow, not torn: the fragment must be kept and the
    // completed line decided.
    let mut slow = Client::connect(&addr);
    let line = submit_line(&reqs[0]);
    let (head, tail) = line.as_bytes().split_at(line.len() / 2);
    slow.writer.write_all(head).unwrap();
    slow.writer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(250));
    slow.writer.write_all(tail).unwrap();
    slow.writer.flush().unwrap();
    let reply = slow.read_reply();
    assert!(
        matches!(parse_server(&reply).unwrap(), ServerMsg::Decision(_)),
        "slow continuation not decided: {reply}"
    );
    slow.shutdown_daemon();
    let report = daemon.join().unwrap().unwrap();
    assert_eq!(report.stats.decided, 1);
}

#[test]
fn garbage_json_errors_but_connection_survives() {
    let (reqs, addr, daemon) = boot(4, 34, "garbage");

    let mut client = Client::connect(&addr);
    client
        .writer
        .write_all(b"{\"type\":\"submit\",\"v\":2,\"id\":oops}\n")
        .unwrap();
    let reply = client.read_reply();
    assert!(
        matches!(parse_server(&reply).unwrap(), ServerMsg::Error(_)),
        "expected an error line, got: {reply}"
    );
    // A complete-but-malformed line costs a reply, not the connection.
    assert!(matches!(client.submit(&reqs[0]), ServerMsg::Decision(_)));
    client.shutdown_daemon();
    daemon.join().unwrap().unwrap();
}

fn submit_of(r: &Request) -> SubmitRequest {
    SubmitRequest {
        id: r.id().index(),
        vnf: r.vnf().index(),
        reliability: r.reliability_requirement().value(),
        arrival: r.arrival(),
        duration: r.duration(),
        payment: r.payment(),
    }
}

#[test]
fn torn_batch_frame_gets_an_error_and_daemon_survives() {
    let (reqs, addr, daemon) = boot(8, 36, "torn-batch");

    // Half a v3 batch frame followed by a write-side hangup: the torn
    // frame costs an error line and the connection, never the daemon
    // and never a partial batch decided.
    let mut torn = Client::connect(&addr);
    let batch: Vec<SubmitRequest> = reqs.iter().take(4).map(submit_of).collect();
    let mut line = String::new();
    encode_batch_into(&mut line, 1, &batch);
    line.push('\n');
    let half = &line.as_bytes()[..line.len() / 2];
    torn.writer.write_all(half).unwrap();
    torn.writer.flush().unwrap();
    torn.writer.shutdown(Shutdown::Write).unwrap();
    let reply = torn.read_reply();
    match parse_server(&reply).unwrap() {
        ServerMsg::Error(msg) => {
            assert!(msg.contains("torn frame"), "unexpected error: {msg}")
        }
        other => panic!("expected a torn-frame error, got {other:?}"),
    }
    torn.expect_closed();

    // Nothing from the fragment reached the scheduler: id 0 is still
    // the next expected request.
    let mut client = Client::connect(&addr);
    assert!(matches!(client.submit(&reqs[0]), ServerMsg::Decision(_)));
    client.shutdown_daemon();
    let report = daemon.join().unwrap().unwrap();
    assert_eq!(report.stats.decided, 1);
}

#[test]
fn malformed_batch_frame_errors_but_connection_survives() {
    let (reqs, addr, daemon) = boot(8, 37, "bad-batch");

    let mut client = Client::connect(&addr);
    // Complete line, hostile payload: header claims two requests but
    // carries one. Must earn a typed error, not a partial decision.
    client
        .writer
        .write_all(b"{\"type\":\"batch\",\"v\":3,\"b\":0,\"n\":2,\"reqs\":[[0,1,0.9,0,1,2.5]]}\n")
        .unwrap();
    let reply = client.read_reply();
    assert!(
        matches!(parse_server(&reply).unwrap(), ServerMsg::Error(_)),
        "expected an error line, got: {reply}"
    );

    // An empty batch is malformed too, on the same still-open
    // connection.
    client
        .writer
        .write_all(b"{\"type\":\"batch\",\"v\":3,\"b\":1,\"n\":0,\"reqs\":[]}\n")
        .unwrap();
    let reply = client.read_reply();
    match parse_server(&reply).unwrap() {
        ServerMsg::Error(msg) => assert!(msg.contains("empty batch"), "unexpected error: {msg}"),
        other => panic!("expected an empty-batch error, got {other:?}"),
    }

    // A well-formed batch on the same connection still decides: the
    // malformed frames consumed no ids.
    let batch: Vec<SubmitRequest> = reqs.iter().take(3).map(submit_of).collect();
    let mut line = String::new();
    encode_batch_into(&mut line, 2, &batch);
    line.push('\n');
    client.writer.write_all(line.as_bytes()).unwrap();
    let reply = client.read_reply();
    assert!(is_batch_reply(&reply), "expected a batch reply: {reply}");
    let mut codes = Vec::new();
    assert_eq!(parse_batch_reply_into(&reply, &mut codes).unwrap(), 2);
    assert_eq!(codes.len(), 3);

    client.shutdown_daemon();
    let report = daemon.join().unwrap().unwrap();
    assert_eq!(report.stats.decided, 3);
}

#[test]
fn oversized_batch_frame_is_rejected_like_any_oversized_line() {
    let (reqs, addr, daemon) = boot(4, 38, "big-batch");

    // A batch-frame prefix that never ends: the shared line-length
    // guard must fire before the parser ever sees it.
    let mut hog = Client::connect(&addr);
    let mut blob = b"{\"type\":\"batch\",\"v\":3,\"b\":0,\"n\":1,\"reqs\":[[".to_vec();
    blob.resize(MAX_LINE_BYTES + 10, b'1');
    hog.writer.write_all(&blob).unwrap();
    hog.writer.flush().unwrap();
    let reply = hog.read_reply();
    match parse_server(&reply).unwrap() {
        ServerMsg::Error(msg) => assert!(msg.contains("oversized"), "unexpected error: {msg}"),
        other => panic!("expected an oversized-frame error, got {other:?}"),
    }
    hog.expect_closed();

    let mut client = Client::connect(&addr);
    assert!(matches!(client.submit(&reqs[0]), ServerMsg::Decision(_)));
    client.shutdown_daemon();
    daemon.join().unwrap().unwrap();
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
    let addr = addr.to_string();

    // The hog submits the same request over and over without ever
    // draining a reply. Dedupe answers each resubmit, so the daemon
    // keeps writing into a connection nobody reads; once both socket
    // buffers fill, the daemon's reply write blocks until its write
    // timeout fires and the connection is dropped.
    let hog = TcpStream::connect(&addr).unwrap();
    hog.set_nodelay(true).unwrap();
    hog.set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut hog_writer = hog.try_clone().unwrap();
    let line = submit_line(&reqs[0]);
    let mut wedged = false;
    for _ in 0..500_000 {
        if hog_writer.write_all(line.as_bytes()).is_err() {
            // Either our own 500ms write timeout fired (buffers full —
            // the daemon worker is now stuck in its reply write) or the
            // daemon already dropped us.
            wedged = true;
            break;
        }
    }
    assert!(wedged, "the hog never managed to fill the socket buffers");

    // The worker must shake the hog loose within WRITE_TIMEOUT (2s) and
    // serve a fresh client. The generous read timeout is the test's
    // failure detector, not the expected latency.
    let fresh = TcpStream::connect(&addr).unwrap();
    fresh.set_nodelay(true).unwrap();
    fresh
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut fresh_writer = fresh.try_clone().unwrap();
    let mut fresh_reader = BufReader::new(fresh);
    let mut reply = String::new();
    loop {
        fresh_writer
            .write_all(submit_line(&reqs[1]).as_bytes())
            .unwrap();
        reply.clear();
        assert!(
            fresh_reader.read_line(&mut reply).unwrap() > 0,
            "daemon never answered the fresh client: the hog pinned the worker"
        );
        // The freed worker can reach the fresh client before the decide
        // thread, freed in the same instant, has drained the hog's queued
        // submits: an overload reply is an answer too (the worker is not
        // pinned), and a shed id may be sent again.
        match parse_server(reply.trim()).unwrap() {
            ServerMsg::Overload(_) => std::thread::sleep(Duration::from_millis(10)),
            ServerMsg::Decision(_) => break,
            other => panic!("fresh client not decided: {other:?}"),
        }
    }

    drop(hog_writer);
    drop(hog);
    let mut shutdown_line = encode_client(&ClientMsg::Control(ControlAction::Shutdown));
    shutdown_line.push('\n');
    fresh_writer.write_all(shutdown_line.as_bytes()).unwrap();
    reply.clear();
    assert!(fresh_reader.read_line(&mut reply).unwrap() > 0);
    assert!(
        matches!(parse_server(reply.trim()).unwrap(), ServerMsg::Ack(_)),
        "shutdown not acked: {reply}"
    );
    daemon.join().unwrap().unwrap();
}

#[test]
fn invalid_utf8_drops_the_connection_only() {
    let (reqs, addr, daemon) = boot(4, 35, "utf8");

    let mut bad = Client::connect(&addr);
    bad.writer.write_all(b"\xff\xfe\n").unwrap();
    bad.writer.flush().unwrap();
    bad.expect_closed();

    let mut client = Client::connect(&addr);
    assert!(matches!(client.submit(&reqs[0]), ServerMsg::Decision(_)));
    client.shutdown_daemon();
    daemon.join().unwrap().unwrap();
}
