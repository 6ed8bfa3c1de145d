//! Shared helpers for the `mec-serve` integration tests: a deterministic
//! scenario builder and an in-process daemon spawned on an ephemeral
//! port. Not a test target itself — included via `#[path]`.

#![allow(dead_code)]

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;

use mec_obs::{DecisionEvent, MetricsRegistry};
use mec_serve::{
    encode_client, parse_server, serve, serve_sharded, ClientMsg, ControlAction, DecisionTap,
    ServeConfig, ServeError, ServeMetricIds, ServeReport, ServerMsg, ShardedConfig, ShardedReport,
    SubmitRequest,
};
use mec_topology::generators::{self, CloudletPlacement};
use mec_topology::zoo;
use mec_workload::{DurationModel, Horizon, Request, RequestGenerator, VnfCatalog};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, ProblemInstance, SchedulerState, Scheme};

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

/// One connection driven in lock-step with v2 frames: every call writes
/// one line and reads its one reply, so the caller knows exactly what
/// the daemon has decided at every point.
pub struct LockStep {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LockStep {
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        LockStep {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// Writes one line and returns the one reply line, as sent.
    pub fn raw(&mut self, mut line: String) -> String {
        line.push('\n');
        self.writer.write_all(line.as_bytes()).unwrap();
        line.clear();
        assert!(
            self.reader.read_line(&mut line).unwrap() > 0,
            "daemon hung up"
        );
        line.trim().to_string()
    }

    /// Sends one message and parses its reply.
    pub fn round_trip(&mut self, msg: &ClientMsg) -> ServerMsg {
        parse_server(&self.raw(encode_client(msg))).unwrap()
    }

    /// Submits `request` as a v2 frame and returns the reply line.
    pub fn submit_raw(&mut self, request: &Request) -> String {
        self.raw(encode_client(&ClientMsg::Submit(SubmitRequest::from(
            request,
        ))))
    }

    /// Submits `request` and returns its decision.
    pub fn submit(&mut self, request: &Request) -> DecisionEvent {
        match self.round_trip(&ClientMsg::Submit(SubmitRequest::from(request))) {
            ServerMsg::Decision(event) => event,
            other => panic!("request {} answered with {other:?}", request.id().index()),
        }
    }

    /// Sends a control frame and expects its ack.
    pub fn control(&mut self, action: ControlAction) {
        match self.round_trip(&ClientMsg::Control(action)) {
            ServerMsg::Ack(_) => {}
            other => panic!("{action:?} not acked: {other:?}"),
        }
    }
}

/// The value of counter `name` in the daemon's `GET /metrics` body.
pub fn scrape_counter(addr: SocketAddr, name: &str) -> f64 {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    std::io::Read::read_to_string(&mut stream, &mut response).unwrap();
    response
        .lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
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

/// What a daemon over a caller-owned scheduler leaves behind: its report
/// and the scheduler's final `export_state()`.
pub type LaneExit = (Result<ServeReport, ServeError>, SchedulerState);

// `serve` over a scheduler built on this thread.
fn run_lane(
    instance: &ProblemInstance,
    algo: Algo,
    config: &ServeConfig,
    tx: mpsc::Sender<SocketAddr>,
) -> LaneExit {
    let tap = DecisionTap::new();
    let mut scheduler: Box<dyn OnlineScheduler + '_> = match algo {
        Algo::Onsite => Box::new(
            OnsitePrimalDual::with_sink(instance, CapacityPolicy::Enforce, tap.clone()).unwrap(),
        ),
        Algo::Offsite => Box::new(OffsitePrimalDual::with_sink(instance, tap.clone())),
        Algo::OnsiteGreedy => Box::new(OnsiteGreedy::with_sink(instance, tap.clone())),
    };
    let mut registry = MetricsRegistry::new();
    let ids = ServeMetricIds::register(&mut registry, instance.cloudlet_count());
    let report = serve(scheduler.as_mut(), &tap, &registry, &ids, config, Some(tx));
    (report, scheduler.export_state())
}

/// Starts a daemon thread over one caller-owned scheduler on
/// `127.0.0.1:0` and returns the bound address plus the join handle
/// yielding the final [`ServeReport`].
pub fn spawn_daemon(
    instance: ProblemInstance,
    algo: Algo,
    config: ServeConfig,
) -> (
    SocketAddr,
    thread::JoinHandle<Result<ServeReport, ServeError>>,
) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || run_lane(&instance, algo, &config, tx).0);
    (rx.recv().expect("daemon bound"), handle)
}

/// [`spawn_daemon`] whose handle also yields the scheduler's final
/// state.
pub fn spawn_lane(
    instance: ProblemInstance,
    algo: Algo,
    config: ServeConfig,
) -> (SocketAddr, thread::JoinHandle<LaneExit>) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || run_lane(&instance, algo, &config, tx));
    (rx.recv().expect("daemon bound"), handle)
}

/// Starts a daemon thread with `config.shards` lanes over schedulers
/// the daemon builds for `scheme`, on `config.addr`.
pub fn spawn_sharded(
    instance: ProblemInstance,
    scheme: Scheme,
    config: ShardedConfig,
) -> (
    SocketAddr,
    thread::JoinHandle<Result<ShardedReport, ServeError>>,
) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let mut registry = MetricsRegistry::new();
        let ids = ServeMetricIds::register_sharded(
            &mut registry,
            instance.cloudlet_count(),
            config.shards,
        );
        serve_sharded(&instance, scheme, &registry, &ids, &config, Some(tx))
    });
    (rx.recv().expect("sharded daemon bound"), handle)
}

/// `shards` lanes on `127.0.0.1:0` with room for open-loop windows.
pub fn sharded_config(shards: usize) -> ShardedConfig {
    let mut config = ShardedConfig::new("127.0.0.1:0");
    config.shards = shards;
    config.queue_capacity = 4096;
    config
}
