//! The serving tier: both daemons brought up in-process on an ephemeral
//! port, and the public wire codec the benchmark's own load generator is
//! built on.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use mec_obs::{MetricsRegistry, PipelineStage};
use mec_serve::{
    encode_batch_into, encode_client, parse_batch_reply_into, parse_server, serve, serve_sharded,
    ClientMsg, ControlAction, DecisionTap, ServeConfig, ServeMetricIds, ServeStats, ServerMsg,
    ShardedConfig, SubmitRequest,
};
use mec_workload::Request;
use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, ProblemInstance, Scheme};

pub use mec_serve::{BATCH_ADMIT, BATCH_REJECT};

/// The wire form of one request.
pub type Submit = SubmitRequest;

/// Pipeline stages the daemons time, in pipeline order (the
/// replication-ack stage is left out: no workload replicates).
pub const STAGES: [&str; 6] = [
    "ingress-parse",
    "queue-wait",
    "dispatch",
    "decide",
    "reserve-commit",
    "reply-write",
];

/// Σ seconds each stage of [`STAGES`] was observed for, over all shards,
/// read from the daemon's own `vnfrel_serve_stage_seconds` histograms.
pub type StageSeconds = [f64; 6];

fn stage_seconds(registry: &MetricsRegistry, ids: &ServeMetricIds) -> StageSeconds {
    let mut out = [0.0; 6];
    for (slot, name) in out.iter_mut().zip(STAGES) {
        let stage = PipelineStage::from_wire(name).expect("STAGES holds wire names");
        for shard in 0..ids.stage.shard_count() {
            *slot += registry.histogram_value(ids.stage.id(shard, stage)).1;
        }
    }
    out
}

/// The wire form of `request`.
pub fn submit_of(request: &Request) -> Submit {
    SubmitRequest {
        id: request.id().index(),
        vnf: request.vnf().index(),
        reliability: request.reliability_requirement().value(),
        arrival: request.arrival(),
        duration: request.duration(),
        payment: request.payment(),
    }
}

/// One v3 batch frame as a newline-terminated line.
pub fn encode_batch_line(out: &mut String, seq: u64, reqs: &[Submit]) {
    encode_batch_into(out, seq, reqs);
    out.push('\n');
}

/// Parses a v3 batch reply into `codes`, returning the echoed sequence
/// number, or `None` for anything else.
pub fn parse_batch_reply(line: &str, codes: &mut Vec<u8>) -> Option<u64> {
    parse_batch_reply_into(line, codes).ok()
}

/// One v2 single submit as a newline-terminated line.
pub fn encode_submit_line(submit: &Submit) -> String {
    let mut line = encode_client(&ClientMsg::Submit(*submit));
    line.push('\n');
    line
}

/// Control verbs the load generator sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Report counters; used as a ping that proves a worker is reading
    /// the connection.
    Stats,
    /// Write a snapshot now.
    Snapshot,
    /// Drain, snapshot and exit.
    Shutdown,
}

/// One control frame as a newline-terminated line.
pub fn encode_control_line(control: Control) -> String {
    let action = match control {
        Control::Stats => ControlAction::Stats,
        Control::Snapshot => ControlAction::Snapshot,
        Control::Shutdown => ControlAction::Shutdown,
    };
    let mut line = encode_client(&ClientMsg::Control(action));
    line.push('\n');
    line
}

/// The daemon's counters as carried by an ack.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counters {
    /// Requests decided.
    pub decided: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed by backpressure.
    pub overloaded: u64,
    /// Σ payment over admitted requests.
    pub revenue: f64,
}

impl From<ServeStats> for Counters {
    fn from(s: ServeStats) -> Self {
        Counters {
            decided: s.decided,
            admitted: s.admitted,
            overloaded: s.overloaded,
            revenue: s.revenue,
        }
    }
}

/// A parsed non-batch server line.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Decision for request `id`.
    Decision {
        /// Request id.
        id: usize,
        /// Admitted or rejected.
        admitted: bool,
    },
    /// Control acknowledgement with the daemon's counters.
    Ack(Counters),
    /// Overload, error or not-primary line, or an unparseable one.
    Failed,
}

/// Parses one non-batch server line.
pub fn parse_reply(line: &str) -> Reply {
    match parse_server(line) {
        Ok(ServerMsg::Decision(d)) => Reply::Decision {
            id: d.request,
            admitted: d.outcome.is_admit(),
        },
        Ok(ServerMsg::Ack(a)) => Reply::Ack(a.stats.into()),
        _ => Reply::Failed,
    }
}

/// What a cleanly shut down daemon reported.
#[derive(Debug, Clone)]
pub struct DaemonOutcome {
    /// Final counters.
    pub counters: Counters,
    /// Requests decided per shard.
    pub per_shard_decided: Vec<u64>,
    /// Admissions completed by the cross-shard reserve/commit path.
    pub cross_shard_admits: u64,
    /// In-situ stage time.
    pub stages: StageSeconds,
    /// `ledger().max_overflow()` where the caller owns the scheduler
    /// (classic daemon); zero for the sharded daemon, whose ledgers are
    /// private.
    pub max_overflow: f64,
}

/// A daemon running on its own thread.
#[derive(Debug)]
pub struct Daemon {
    /// The bound address.
    pub addr: SocketAddr,
    handle: JoinHandle<DaemonOutcome>,
}

impl Daemon {
    /// Waits for the daemon to exit (after a `shutdown` control).
    ///
    /// # Panics
    ///
    /// Panics if the daemon thread panicked or `serve` returned an error.
    pub fn join(self) -> DaemonOutcome {
        self.handle.join().expect("daemon thread panicked")
    }
}

/// `shard::serve_sharded` with Algorithm 2 on `127.0.0.1:0`, one worker
/// per load connection.
pub fn spawn_sharded(instance: Arc<ProblemInstance>, shards: usize, conns: usize) -> Daemon {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let mut registry = MetricsRegistry::new();
        let ids =
            ServeMetricIds::register_sharded(&mut registry, instance.cloudlet_count(), shards);
        let mut config = ShardedConfig::new("127.0.0.1:0");
        config.shards = shards;
        config.queue_capacity = 4096;
        // One per load connection; `shutdown` rides on one of them.
        config.workers = conns.max(1);
        let report = serve_sharded(
            &instance,
            Scheme::OffSite,
            &registry,
            &ids,
            &config,
            Some(tx),
        )
        .expect("sharded daemon shut down cleanly");
        DaemonOutcome {
            counters: report.stats.into(),
            per_shard_decided: report.per_shard_decided,
            cross_shard_admits: report.cross_shard_admits,
            stages: stage_seconds(&registry, &ids),
            max_overflow: 0.0,
        }
    });
    Daemon {
        addr: rx.recv().expect("sharded daemon bound"),
        handle,
    }
}

/// `daemon::serve` with Algorithm 1 on `127.0.0.1:0`, snapshots (on a
/// `snapshot` control and at shutdown) going to `snapshot_path`.
pub fn spawn_classic(instance: Arc<ProblemInstance>, snapshot_path: Option<PathBuf>) -> Daemon {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let tap = DecisionTap::new();
        let mut alg1 = OnsitePrimalDual::with_sink(&instance, CapacityPolicy::Enforce, tap.clone())
            .expect("the enforce policy is always valid");
        let mut registry = MetricsRegistry::new();
        let ids = ServeMetricIds::register(&mut registry, instance.cloudlet_count());
        let mut config = ServeConfig::new("127.0.0.1:0");
        config.queue_capacity = 4096;
        config.workers = 1;
        config.snapshot_path = snapshot_path;
        let report = serve(&mut alg1, &tap, &registry, &ids, &config, Some(tx))
            .expect("classic daemon shut down cleanly");
        DaemonOutcome {
            counters: report.stats.into(),
            per_shard_decided: vec![report.stats.decided],
            cross_shard_admits: 0,
            stages: stage_seconds(&registry, &ids),
            max_overflow: alg1.ledger().max_overflow(),
        }
    });
    Daemon {
        addr: rx.recv().expect("classic daemon bound"),
        handle,
    }
}
