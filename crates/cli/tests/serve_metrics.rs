//! `vnfrel serve --shards 2` through the installed binary: every lane
//! counts into metric series of its own. The daemon announces the port it
//! bound on stderr; eight lock-step submits put four requests on each
//! lane, and `/metrics` must then show lane 1's decide histogram counting
//! them (it read zero — there was no `shard="1"` series at all — while
//! the CLI registered one metric lane for any lane count).

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use mec_serve::{ControlAction, LineClient, ServerMsg};
use mec_topology::Reliability;
use mec_workload::{Horizon, Request, RequestId, VnfTypeId};

/// Kills (and reaps) the daemon if the test fails before shutting it down.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn two_lanes_export_two_metric_lanes() {
    let daemon = Command::new(env!("CARGO_BIN_EXE_vnfrel"))
        .args(["serve", "--scheme", "offsite", "--shards", "2"])
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("vnfrel serve spawns");
    let mut daemon = KillOnDrop(daemon);
    let mut stderr = BufReader::new(daemon.0.stderr.take().expect("stderr is piped"));
    let mut notes = String::new();
    let addr = loop {
        let mut line = String::new();
        let n = stderr.read_line(&mut line).expect("daemon stderr reads");
        assert!(n > 0, "the daemon exited without listening:\n{notes}");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
        notes.push_str(&line);
    };

    let mut client = LineClient::connect(&addr).unwrap();
    for id in 0..8 {
        let reliability = Reliability::new(0.9).unwrap();
        let horizon = Horizon::new(16);
        let request =
            Request::new(RequestId(id), VnfTypeId(0), reliability, 0, 1, 5.0, horizon).unwrap();
        match client.submit(&request).unwrap() {
            ServerMsg::Decision(event) => assert_eq!(event.request, id),
            other => panic!("request {id} answered with {other:?}"),
        }
    }

    let mut scrape = TcpStream::connect(&addr).unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut metrics = String::new();
    scrape.read_to_string(&mut metrics).unwrap();
    for lane in 0..2 {
        let series =
            format!("vnfrel_serve_stage_seconds_count{{shard=\"{lane}\",stage=\"decide\"}} ");
        let decides: f64 = (metrics.lines())
            .find_map(|l| l.strip_prefix(series.as_str())?.trim().parse().ok())
            .unwrap_or_else(|| panic!("no decide histogram for lane {lane} in:\n{metrics}"));
        assert!(decides >= 1.0, "lane {lane} counted {decides} decide spans");
        let depth = format!("vnfrel_serve_shard_queue_depth{{shard=\"{lane}\"}}");
        assert!(metrics.contains(&depth), "no queue gauge for lane {lane}");
    }

    let ack = client.control(ControlAction::Shutdown).unwrap();
    assert_eq!(ack.stats.decided, 8);
    let status = daemon.0.wait().expect("daemon exits");
    assert!(status.success(), "vnfrel serve exited with {status}");
    let mut summary = String::new();
    (daemon.0.stdout.take().expect("stdout is piped"))
        .read_to_string(&mut summary)
        .unwrap();
    assert!(
        summary.contains("per-shard decided: shard 0: 4, shard 1: 4"),
        "{summary}"
    );
}
