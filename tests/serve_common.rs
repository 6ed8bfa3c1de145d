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
    encode_client, parse_server, serve, ClientMsg, ControlAction, DecisionTap, ServeConfig,
    ServeError, ServeMetricIds, ServeReport, ServerMsg, SubmitRequest,
};
use mec_topology::generators::{self, CloudletPlacement};
use mec_topology::zoo;
use mec_workload::{DurationModel, Horizon, Request, RequestGenerator, VnfCatalog};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, ProblemInstance};

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

    fn round_trip(&mut self, msg: &ClientMsg) -> ServerMsg {
        let mut line = encode_client(msg);
        line.push('\n');
        self.writer.write_all(line.as_bytes()).unwrap();
        line.clear();
        assert!(
            self.reader.read_line(&mut line).unwrap() > 0,
            "daemon hung up"
        );
        parse_server(line.trim()).unwrap()
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

/// Which scheduler the daemon runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Algorithm 1 (on-site) with capacity enforcement.
    Onsite,
    /// Algorithm 2 (off-site).
    Offsite,
}

/// Starts a daemon thread on `127.0.0.1:0` and returns the bound
/// address plus the join handle yielding the final [`ServeReport`].
pub fn spawn_daemon(
    instance: ProblemInstance,
    algo: Algo,
    config: ServeConfig,
) -> (
    SocketAddr,
    thread::JoinHandle<Result<ServeReport, ServeError>>,
) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let tap = DecisionTap::new();
        let mut onsite;
        let mut offsite;
        let scheduler: &mut dyn OnlineScheduler = match algo {
            Algo::Onsite => {
                onsite =
                    OnsitePrimalDual::with_sink(&instance, CapacityPolicy::Enforce, tap.clone())
                        .unwrap();
                &mut onsite
            }
            Algo::Offsite => {
                offsite = OffsitePrimalDual::with_sink(&instance, tap.clone());
                &mut offsite
            }
        };
        let mut registry = MetricsRegistry::new();
        let ids = ServeMetricIds::register(&mut registry, scheduler.ledger().cloudlet_count());
        serve(scheduler, &tap, &registry, &ids, &config, Some(tx))
    });
    let addr = rx.recv().expect("daemon bound");
    (addr, handle)
}
