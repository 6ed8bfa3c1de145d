//! Shared helpers for the `mec-serve` integration tests: a deterministic
//! scenario builder and an in-process daemon spawned on an ephemeral
//! port. Not a test target itself — included via `#[path]`.

#![allow(dead_code)]

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use mec_obs::DecisionEvent;
use mec_serve::{
    encode_client, parse_server, ClientMsg, LineClient, ServeConfig, ServeError, ServeReport,
    ServerMsg, ShardedConfig, ShardedReport, Spawned, SubmitRequest,
};
use mec_topology::generators::{self, CloudletPlacement};
use mec_topology::zoo;
use mec_workload::{DurationModel, Horizon, Request, RequestGenerator, VnfCatalog};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};
use vnfrel::{ProblemInstance, SchedulerState, Scheme};

/// Deterministic scenario: a Waxman edge network plus a generated
/// request stream, both derived from `seed`.
pub fn scenario(requests: usize, seed: u64) -> (ProblemInstance, Vec<Request>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = CloudletPlacement {
        fraction: 0.6,
        capacity: (20, 40),
        reliability: (0.99, 0.9999),
    };
    let net = generators::waxman(12, 0.5, 0.3, &placement, &mut rng).unwrap();
    let instance = ProblemInstance::new(net, VnfCatalog::standard(), Horizon::new(12)).unwrap();
    let reqs = RequestGenerator::new(instance.horizon())
        .generate(requests, instance.catalog(), &mut rng)
        .unwrap();
    (instance, reqs)
}

/// The first `slots` minutes of a week-shaped stream: Abilene with a
/// cloudlet (40–56 units) at every access point, ≈ 13 arrivals per slot
/// with durations of 5–120 slots, so demand runs near three times
/// capacity and every window is far shorter than the horizon.
pub fn week_scenario(slots: usize, seed: u64) -> (ProblemInstance, Vec<Request>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = CloudletPlacement {
        fraction: 1.0,
        capacity: (40, 56),
        reliability: (0.99, 0.9999),
    };
    let net = zoo::abilene().into_network(&placement, &mut rng).unwrap();
    let instance = ProblemInstance::new(net, VnfCatalog::standard(), Horizon::new(slots)).unwrap();
    let reqs = RequestGenerator::new(instance.horizon())
        .durations(DurationModel::Uniform { lo: 5, hi: 120 })
        .unwrap()
        .reliability_band(0.9, 0.95)
        .unwrap()
        .payment_rate_band(1.0, 10.0)
        .unwrap()
        .generate(13 * slots, instance.catalog(), &mut rng)
        .unwrap();
    (instance, reqs)
}

/// Writes one line on `conn` and returns the one reply line, as sent.
pub fn raw(conn: &mut LineClient, line: &str) -> String {
    conn.send_line(line).unwrap();
    conn.read_line().unwrap().to_string()
}

/// Submits `request` on `conn` and returns the reply line as sent.
pub fn submit_raw(conn: &mut LineClient, request: &Request) -> String {
    let submit = ClientMsg::Submit(SubmitRequest::from(request));
    raw(conn, &encode_client(&submit))
}

/// Submits every request in lock-step and returns the decision lines.
pub fn submit_all(conn: &mut LineClient, requests: &[Request]) -> Vec<String> {
    let lines = requests.iter().map(|r| {
        let line = submit_raw(conn, r);
        assert!(
            matches!(parse_server(&line).unwrap(), ServerMsg::Decision(_)),
            "expected a decision line, got: {line}"
        );
        line
    });
    lines.collect()
}

/// Submits `request` on `conn` and returns its decision.
pub fn decide(conn: &mut LineClient, request: &Request) -> DecisionEvent {
    match conn.submit(request).unwrap() {
        ServerMsg::Decision(event) => event,
        other => panic!("request {} answered with {other:?}", request.id().index()),
    }
}

/// Two scheduler states equal to the bit: both grids and `Σ δ` by
/// `to_bits`, and the rejection counters.
pub fn assert_states_bit_equal(a: &SchedulerState, b: &SchedulerState, what: &str) {
    let bits = |grid: &[f64]| grid.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&a.used), bits(&b.used), "{what}: usage grid");
    assert_eq!(bits(&a.lambda), bits(&b.lambda), "{what}: dual prices");
    assert_eq!(a.sum_delta.to_bits(), b.sum_delta.to_bits(), "{what}");
    assert_eq!(a.counters, b.counters, "{what}: rejection counters");
}

/// A loopback address nothing listens on (bound, then released): a dead
/// peer, or where a daemon that only boots later will listen.
pub fn unused_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

/// Asserts that nothing arrives on `conn` for `quiet` (a peek that
/// times out), then clears the read timeout again.
pub fn assert_silent(conn: &LineClient, quiet: std::time::Duration) {
    let socket = conn.stream();
    socket.set_read_timeout(Some(quiet)).unwrap();
    match socket.peek(&mut [0u8; 1]) {
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected read error: {e}"
        ),
        Ok(0) => panic!("the daemon closed the connection"),
        Ok(_) => panic!("a reply arrived within {quiet:?}"),
    }
    socket.set_read_timeout(None).unwrap();
}

/// Minimal HTTP/1.0 GET against the daemon's scrape path; returns
/// (status line, body).
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    std::io::Read::read_to_string(&mut stream, &mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP response with a blank line");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// The value of series `name` in the daemon's `GET /metrics` body.
pub fn scrape(addr: impl ToSocketAddrs, name: &str) -> f64 {
    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "bad status line: {status}");
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} not exported"))
}

/// Which scheduler the daemon runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Algorithm 1 (on-site) with capacity enforcement.
    Onsite,
    /// Algorithm 2 (off-site).
    Offsite,
    /// The on-site greedy baseline (ledger-only state, no prices).
    OnsiteGreedy,
}

/// What a one-lane daemon's thread yields: the report and the
/// scheduler's final `export_state()`.
pub type LaneHandle = std::thread::JoinHandle<Result<(ServeReport, SchedulerState), ServeError>>;

/// A running one-lane daemon: its address and its handle.
pub type Lane = (SocketAddr, LaneHandle);

/// Starts a daemon over one caller-owned `algo` scheduler on
/// `config.addr`.
pub fn spawn_daemon(instance: ProblemInstance, algo: Algo, config: ServeConfig) -> Lane {
    try_spawn_daemon(instance, algo, config).expect("daemon bound")
}

/// [`spawn_daemon`], handing a start-up refusal back.
pub fn try_spawn_daemon(
    instance: ProblemInstance,
    algo: Algo,
    config: ServeConfig,
) -> Result<Lane, ServeError> {
    mec_serve::spawn_lane(instance, config, move |instance, tap| {
        Ok(match algo {
            Algo::Onsite => Box::new(
                OnsitePrimalDual::with_sink(instance, CapacityPolicy::Enforce, tap).unwrap(),
            ),
            Algo::Offsite => Box::new(OffsitePrimalDual::with_sink(instance, tap)),
            Algo::OnsiteGreedy => Box::new(OnsiteGreedy::with_sink(instance, tap)),
        })
    })
}

/// Starts a daemon with `config.shards` lanes over schedulers the
/// daemon builds for `scheme`, on `config.addr`.
pub fn spawn_sharded(
    instance: ProblemInstance,
    scheme: Scheme,
    config: ShardedConfig,
) -> Spawned<ShardedReport> {
    mec_serve::spawn_sharded(instance, scheme, config).expect("sharded daemon bound")
}

/// `shards` lanes on `127.0.0.1:0` with room for open-loop windows.
pub fn sharded_config(shards: usize) -> ShardedConfig {
    let mut config = ShardedConfig::new("127.0.0.1:0");
    config.shards = shards;
    config.queue_capacity = 4096;
    config
}
