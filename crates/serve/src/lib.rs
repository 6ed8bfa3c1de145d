//! `mec-serve`: a long-running online admission daemon for the vnfrel
//! schedulers, plus the closed-loop load generator that drives it.
//!
//! The batch engine (`mec-sim`) replays a whole trace in one call; this
//! crate runs the *same* schedulers against live traffic. Clients submit
//! requests over line-delimited JSON on TCP ([`protocol`]); workers route
//! them to per-lane bounded queues, each feeding one decide thread that
//! owns a scheduler, its dual prices and its capacity ledger
//! ([`daemon`]); decisions stream back with full reject reasons and
//! placement sites. There is one daemon: [`serve`] runs it with one lane
//! over a scheduler the caller owns, [`serve_sharded`] with `S` lanes
//! over schedulers it builds ([`shard`]). A one-lane daemon persists its
//! state crash-consistently ([`snapshot`]) so a killed process resumes
//! and continues the decision stream byte for byte, and replicates it to
//! a hot standby ([`replica`]); every daemon exposes Prometheus metrics
//! over `GET /metrics`, heals a panicked decide thread from its recovery
//! log, and drains cleanly on SIGINT/SIGTERM or a `shutdown` control
//! message. [`harness`] brings either daemon up on a thread of its own
//! and [`client`] is the one way to talk to it in lock-step; [`drill`]
//! runs the chaos matrix on top of the two.
//!
//! Everything is `std`-only: `std::net` sockets, `Mutex`/`Condvar`
//! bounded queues ([`pool`]), scoped threads. See DESIGN.md §12–§14 for
//! the architecture and EXPERIMENTS.md for the throughput methodology.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod client;
pub mod daemon;
pub mod drill;
pub mod epoch;
mod error;
pub mod flight;
pub mod harness;
pub mod loadgen;
pub mod pool;
pub mod protocol;
pub mod referee;
pub mod replica;
pub mod shard;
pub mod snapshot;
pub mod status;
mod tap;

pub mod metrics;
mod node;

pub use chaos::{
    full_jitter_backoff, ChaosConfig, ChaosPlan, ChaosProxy, ChaosSnapshotIo, NetFault,
    RealSnapshotIo, SnapshotIo, SnapshotStep,
};
pub use client::LineClient;
pub use daemon::{serve, Role, ServeConfig, ServeReport};
pub use drill::{chaos_matrix, ChaosCell, ChaosReport, ChaosScenario};
pub use epoch::{Epoch, FenceCheck};
pub use error::ServeError;
pub use flight::{FlightRecorder, SharedFlight, FLIGHT_CAPACITY};
pub use harness::{spawn_lane, spawn_sharded, Spawned};
pub use loadgen::{
    run_loadgen, run_open_loop, LatencySummary, LoadgenConfig, LoadgenReport, OpenLoopConfig,
    OpenLoopReport,
};
pub use metrics::{ServeMetricIds, ShardLaneIds, StageIds, STAGE_LATENCY_BUCKETS};
pub use protocol::{
    encode_batch_into, encode_batch_reply_into, encode_client, encode_server, encode_server_into,
    is_batch_frame, is_batch_reply, parse_batch_into, parse_batch_reply_into, parse_client,
    parse_server, ClientMsg, ControlAck, ControlAction, OverloadReject, ServeStats, ServerMsg,
    SubmitRequest, BATCH_ADMIT, BATCH_ERROR, BATCH_OVERLOAD, BATCH_REJECT, MAX_BATCH,
    MAX_LINE_BYTES, PROTOCOL_VERSION,
};
pub use referee::{AckRecord, ChaosArtifacts, RefereeInvariant, RefereeReport, RefereeViolation};
pub use replica::{encode_repl, parse_repl, ReplMsg};
pub use shard::{serve_sharded, ShardedConfig, ShardedReport};
pub use snapshot::{Snapshot, SNAPSHOT_VERSION};
pub use status::{now_unix_ms, StatusShared};
pub use tap::DecisionTap;
