//! Crash-consistent persistence of the daemon's serving state.
//!
//! A snapshot is a single JSON line capturing everything the decide
//! thread accumulates: the scheduler's [`SchedulerState`] (usage grid,
//! dual prices, rejection counters), the dense id cursor, the virtual
//! slot clock and the protocol-level counters. Floats use the byte-exact
//! `{:?}` encoding (see `mec_obs::json`), so restore is bit-identical
//! and a restored daemon continues the decision stream byte for byte.
//!
//! Writes go to `<path>.tmp` first and are fsynced before an atomic
//! rename over `<path>`; a crash mid-write leaves the previous snapshot
//! intact. Loading validates the schema version, the algorithm name and
//! a caller-supplied configuration fingerprint before any state touches
//! the scheduler, so a snapshot from a different scenario fails cleanly.
//!
//! There is one format, version [`SNAPSHOT_VERSION`]. It carries the
//! replication epoch/seq position and the recent-decision ring used for
//! idempotent resubmits after a failover, and ends in an FNV-1a 64-bit
//! checksum as the final `crc` field (computed over every byte before
//! it). Decode reads `type` and `v`, refuses any other version, and
//! verifies the checksum before it reads any other field, so any
//! corruption — a flipped byte, a truncation, a rewritten version —
//! fails with a typed [`ServeError::Snapshot`] (exit code 6 at the CLI).

use std::fs;
use std::io::Write as _;
use std::path::Path;

use mec_obs::{parse_value, Field, JsonWriter};
use vnfrel::SchedulerState;

use crate::error::ServeError;
use crate::protocol::ServeStats;

/// Snapshot schema version, the only one that loads.
pub const SNAPSHOT_VERSION: usize = 2;

/// FNV-1a 64-bit hash — tiny, dependency-free, and plenty to catch
/// torn writes and bit rot (this is an integrity check, not a MAC).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One persisted serving state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `OnlineScheduler::name()` of the scheduler that produced it.
    pub algorithm: String,
    /// Opaque fingerprint of the scenario configuration (topology,
    /// catalog, seed, policy); restore refuses on mismatch.
    pub config: String,
    /// Dense id of the next request to decide.
    pub next_id: usize,
    /// Virtual slot clock.
    pub slot: usize,
    /// Protocol-level counters.
    pub stats: ServeStats,
    /// The scheduler's mutable state.
    pub state: SchedulerState,
    /// Fencing epoch at snapshot time.
    pub epoch: u64,
    /// Replication log position the snapshot covers.
    pub seq: u64,
    /// Recent decision lines, oldest first, for the idempotent-resubmit
    /// ring.
    pub recent: Vec<String>,
}

fn serr(msg: impl Into<String>) -> ServeError {
    ServeError::Snapshot(msg.into())
}

impl Snapshot {
    /// Encodes the snapshot as one JSON line (no trailing newline),
    /// ending in the `crc` checksum field.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(256 + 24 * (self.state.used.len() * 2));
        let mut w = JsonWriter::new(&mut out);
        w.begin_obj().key("type").str("snapshot");
        w.key("v").usize(SNAPSHOT_VERSION);
        w.key("algorithm").str(&self.algorithm);
        w.key("config").str(&self.config);
        w.key("next_id")
            .usize(self.next_id)
            .key("slot")
            .usize(self.slot);
        w.key("decided").num(self.stats.decided as f64);
        w.key("admitted").num(self.stats.admitted as f64);
        w.key("rejected").num(self.stats.rejected as f64);
        w.key("overloaded").num(self.stats.overloaded as f64);
        w.key("revenue").num(self.stats.revenue);
        w.key("sum_delta").num(self.state.sum_delta);
        w.key("used").nums(&self.state.used);
        w.key("lambda").nums(&self.state.lambda);
        w.key("counters").begin_arr();
        for &c in &self.state.counters {
            w.num(c as f64);
        }
        w.end_arr();
        w.key("epoch")
            .num(self.epoch as f64)
            .key("seq")
            .num(self.seq as f64);
        w.key("recent").begin_arr();
        for line in &self.recent {
            w.str(line);
        }
        w.end_arr();
        // The checksum covers every byte before the crc field itself.
        let crc = format!("{:016x}", fnv1a64(w.written().as_bytes()));
        w.key("crc").str(&crc).end_obj();
        out
    }

    /// Decodes a snapshot line.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] on malformed JSON, wrong `type`, a
    /// version other than [`SNAPSHOT_VERSION`], a checksum mismatch, or
    /// a missing or mistyped field.
    pub fn decode(text: &str) -> Result<Self, ServeError> {
        Self::decode_fields(text.trim()).map_err(|e| match e {
            ServeError::Protocol(msg) => ServeError::Snapshot(msg),
            other => other,
        })
    }

    fn decode_fields(text: &str) -> Result<Self, ServeError> {
        let v = parse_value(text)?;
        let ty = v.field("type")?.str()?;
        if ty != "snapshot" {
            return Err(serr(format!("expected a snapshot line, got '{ty}'")));
        }
        let version = v.field("v")?.usize()?;
        if version != SNAPSHOT_VERSION {
            return Err(serr(format!(
                "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
            )));
        }
        // No other field is read before the checksum passes.
        let want = v.field("crc")?.str()?;
        let prefix_len = text
            .rfind(",\"crc\":\"")
            .ok_or_else(|| serr("snapshot must end in the crc field"))?;
        let got = format!("{:016x}", fnv1a64(&text.as_bytes()[..prefix_len]));
        if got != want {
            return Err(serr(format!(
                "snapshot checksum mismatch (stored {want}, computed {got}): \
                 the file is corrupt or truncated"
            )));
        }
        let counters = v.field("counters")?.items()?.map(Field::u64);
        let counters = counters.collect::<Result<_, _>>()?;
        let recent = v.field("recent")?.items()?;
        let recent = recent
            .map(|line| line.str().map(str::to_string))
            .collect::<Result<_, _>>()?;
        Ok(Snapshot {
            algorithm: v.field("algorithm")?.str()?.to_string(),
            config: v.field("config")?.str()?.to_string(),
            next_id: v.field("next_id")?.usize()?,
            slot: v.field("slot")?.usize()?,
            stats: ServeStats {
                decided: v.field("decided")?.u64()?,
                admitted: v.field("admitted")?.u64()?,
                rejected: v.field("rejected")?.u64()?,
                overloaded: v.field("overloaded")?.u64()?,
                revenue: v.field("revenue")?.f64()?,
            },
            state: SchedulerState {
                used: v.field("used")?.f64s()?,
                lambda: v.field("lambda")?.f64s()?,
                sum_delta: v.field("sum_delta")?.f64()?,
                counters,
            },
            epoch: v.field("epoch")?.u64()?,
            seq: v.field("seq")?.u64()?,
            recent,
        })
    }

    /// Writes the snapshot crash-consistently: temp file, fsync, rename.
    ///
    /// # Errors
    ///
    /// [`ServeError::SnapshotIo`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ServeError> {
        self.save_with(path, &crate::chaos::RealSnapshotIo)
    }

    /// [`Snapshot::save`] with an explicit I/O seam: `seam.fault(step)`
    /// is consulted at every boundary of the write-temp/fsync/rename
    /// sequence and an `Err` aborts the save exactly there, leaving
    /// whatever the sequence had durably produced so far (never a
    /// half-written file under the final name — the rename is last).
    pub fn save_with(
        &self,
        path: &Path,
        seam: &dyn crate::chaos::SnapshotIo,
    ) -> Result<(), ServeError> {
        use crate::chaos::SnapshotStep;
        let io_err = |source: std::io::Error| ServeError::SnapshotIo {
            path: path.to_path_buf(),
            source,
        };
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            seam.fault(SnapshotStep::Create).map_err(io_err)?;
            let mut f = fs::File::create(&tmp).map_err(io_err)?;
            seam.fault(SnapshotStep::WriteAll).map_err(io_err)?;
            f.write_all(self.encode().as_bytes()).map_err(io_err)?;
            f.write_all(b"\n").map_err(io_err)?;
            seam.fault(SnapshotStep::PostTempWrite).map_err(io_err)?;
            seam.fault(SnapshotStep::Fsync).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
            seam.fault(SnapshotStep::PostFsyncPreRename)
                .map_err(io_err)?;
        }
        seam.fault(SnapshotStep::Rename).map_err(io_err)?;
        fs::rename(&tmp, path).map_err(io_err)
    }

    /// Loads and decodes a snapshot file.
    ///
    /// # Errors
    ///
    /// [`ServeError::SnapshotIo`] if the file cannot be read,
    /// [`ServeError::Snapshot`] if it does not decode.
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        let text = fs::read_to_string(path).map_err(|source| ServeError::SnapshotIo {
            path: path.to_path_buf(),
            source,
        })?;
        Snapshot::decode(&text)
    }

    /// Checks the snapshot against the running daemon's identity.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] naming the mismatched field.
    pub fn validate(&self, algorithm: &str, config: &str) -> Result<(), ServeError> {
        if self.algorithm != algorithm {
            return Err(serr(format!(
                "snapshot was taken by '{}' but the daemon runs '{algorithm}'",
                self.algorithm
            )));
        }
        if self.config != config {
            return Err(serr(format!(
                "snapshot configuration '{}' does not match '{config}'",
                self.config
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            algorithm: "alg1-primal-dual".into(),
            config: "zoo:seed=42".into(),
            next_id: 17,
            slot: 4,
            stats: ServeStats {
                decided: 17,
                admitted: 11,
                rejected: 6,
                overloaded: 2,
                revenue: 123.456789,
            },
            state: SchedulerState {
                used: vec![0.0, 1.5, 0.25, 3.0],
                lambda: vec![0.1 + 0.2, 0.0, 1e-9, 7.0],
                sum_delta: 42.125,
                counters: vec![3, 0, 3],
            },
            epoch: 2,
            seq: 19,
            recent: vec![
                "{\"type\":\"decision\",\"request\":15}".to_string(),
                "{\"type\":\"decision\",\"request\":16}".to_string(),
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_exact() {
        let snap = sample();
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        for (a, b) in decoded.state.lambda.iter().zip(snap.state.lambda.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn save_load_round_trips_and_replaces_atomically() {
        let dir = std::env::temp_dir().join("vnfrel-snapshot-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        let snap = sample();
        snap.save(&path).unwrap();
        let mut newer = snap.clone();
        newer.next_id = 18;
        newer.save(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), newer);
        assert!(!path.with_extension("snap.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_rejects_mismatches() {
        let snap = sample();
        assert!(snap.validate("alg1-primal-dual", "zoo:seed=42").is_ok());
        assert!(snap.validate("alg2-primal-dual", "zoo:seed=42").is_err());
        assert!(snap.validate("alg1-primal-dual", "zoo:seed=43").is_err());
    }

    #[test]
    fn decode_rejects_corruption() {
        assert!(Snapshot::decode("{").is_err());
        assert!(Snapshot::decode("{\"type\":\"decision\"}").is_err());
        let wrong_version = sample().encode().replace("\"v\":2", "\"v\":9");
        assert!(Snapshot::decode(&wrong_version).is_err());
        let truncated = &sample().encode()[..40];
        assert!(Snapshot::decode(truncated).is_err());
    }

    #[test]
    fn checksum_catches_a_single_flipped_byte() {
        let encoded = sample().encode();
        assert!(encoded.contains("\"crc\":\""), "v2 must carry a checksum");
        // Flip one byte of a numeric payload: the result is still valid
        // JSON with a plausible value, so only the checksum can tell.
        let flipped = encoded.replace("42.125", "42.126");
        assert_ne!(flipped, encoded, "the flip must land");
        let err = Snapshot::decode(&flipped).unwrap_err();
        assert!(
            err.to_string().contains("checksum"),
            "expected a checksum error, got: {err}"
        );
        // Truncation that still ends at a field boundary is caught too.
        let cut = format!("{}\"}}", &encoded[..encoded.len() - 20]);
        assert!(Snapshot::decode(&cut).is_err());
    }

    fn assert_unsupported_v1(text: &str) {
        match Snapshot::decode(text) {
            Err(ServeError::Snapshot(msg)) => assert!(
                msg.contains("unsupported snapshot version 1"),
                "unexpected refusal: {msg}"
            ),
            other => panic!("a v1 line must be refused, got {other:?}"),
        }
    }

    #[test]
    fn v1_snapshots_are_refused() {
        // A v1 line as PR 2 wrote it: no epoch/seq/recent, no crc.
        let v1 = "{\"type\":\"snapshot\",\"v\":1,\"algorithm\":\"alg1-primal-dual\",\
                  \"config\":\"zoo:seed=42\",\"next_id\":17,\"slot\":4,\"decided\":17,\
                  \"admitted\":11,\"rejected\":6,\"overloaded\":2,\"revenue\":123.5,\
                  \"sum_delta\":42.125,\"used\":[0.0,1.5],\"lambda\":[0.25,0.0],\
                  \"counters\":[3,0,3]}";
        assert_unsupported_v1(v1);
    }

    #[test]
    fn a_rewritten_version_byte_is_refused() {
        // One byte turns a checksummed line into a "v1" one; it must not
        // load with its epoch reset and its ring dropped, nor let a
        // second corruption past the checksum it no longer declares.
        let encoded = sample().encode();
        let v1 = encoded.replacen("\"v\":2", "\"v\":1", 1);
        assert_ne!(v1, encoded, "the rewrite must land");
        assert_unsupported_v1(&v1);
        assert_unsupported_v1(&v1.replace("1.5", "9.5"));
    }
}
