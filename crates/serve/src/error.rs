use std::fmt;
use std::io;
use std::path::PathBuf;

use mec_obs::ParseError;
use vnfrel::VnfrelError;

/// Errors surfaced by the serving daemon, snapshot store and load
/// generator.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or connecting the TCP socket failed.
    Net {
        /// What was being attempted (`"bind"`, `"connect"`, …).
        action: &'static str,
        /// The address involved.
        addr: String,
        /// Underlying I/O error.
        source: io::Error,
    },
    /// A socket or file I/O operation failed mid-session.
    Io(io::Error),
    /// A wire message could not be parsed or violated the protocol.
    Protocol(String),
    /// A snapshot file is corrupt or does not match this configuration.
    Snapshot(String),
    /// Reading or writing the snapshot file failed.
    SnapshotIo {
        /// The snapshot path involved.
        path: PathBuf,
        /// Underlying I/O error.
        source: io::Error,
    },
    /// The daemon was configured inconsistently (e.g. a scheduler built
    /// without the daemon's decision tap).
    Config(String),
    /// Restoring scheduler state from a snapshot failed.
    State(VnfrelError),
    /// This node was fenced: a peer at a newer epoch exists (a standby
    /// was promoted), so this node must stop acking decisions and exit.
    Fenced {
        /// This node's (stale) epoch.
        epoch: u64,
        /// The newer epoch that fenced it.
        by: u64,
    },
    /// An overall time budget (e.g. the loadgen's `--deadline-ms`) was
    /// exhausted before the work completed; retrying further would just
    /// spin against a dead cluster.
    Deadline {
        /// What gave up.
        what: &'static str,
        /// The configured budget, milliseconds.
        budget_ms: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Net {
                action,
                addr,
                source,
            } => write!(f, "cannot {action} {addr}: {source}"),
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            ServeError::SnapshotIo { path, source } => {
                write!(f, "snapshot i/o error at {}: {source}", path.display())
            }
            ServeError::Config(msg) => write!(f, "serve configuration error: {msg}"),
            ServeError::State(e) => write!(f, "state restore failed: {e}"),
            ServeError::Fenced { epoch, by } => write!(
                f,
                "fenced: this node's epoch {epoch} was superseded by epoch {by}; \
                 a standby was promoted and this node must not ack further decisions"
            ),
            ServeError::Deadline { what, budget_ms } => write!(
                f,
                "deadline exceeded: {what} did not complete within {budget_ms} ms"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Net { source, .. } | ServeError::SnapshotIo { source, .. } => Some(source),
            ServeError::Io(e) => Some(e),
            ServeError::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<VnfrelError> for ServeError {
    fn from(e: VnfrelError) -> Self {
        ServeError::State(e)
    }
}

/// Malformed JSON, or a frame missing a field or holding one of the
/// wrong type, is a protocol error; snapshot decoding re-labels it.
impl From<ParseError> for ServeError {
    fn from(e: ParseError) -> Self {
        ServeError::Protocol(e.to_string())
    }
}
