//! Live introspection: the shared state behind `GET /status`.
//!
//! The `/metrics` endpoint answers "how much"; `/status` answers "what
//! is this node right now" — role, fencing epoch, uptime, the per-shard
//! queue table, and when state was last made durable. All of it is
//! lock-free reads over atomics mirrored from the decide thread(s), so
//! a scrape never blocks the serving path.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use mec_obs::{JsonWriter, MetricsRegistry};

use crate::daemon::Role;
use crate::metrics::ServeMetricIds;
use crate::replica::ReplHandle;

/// Milliseconds since the Unix epoch, now. Saturates at zero if the
/// system clock is before 1970 (it will not be).
pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Node-level state shared between lane 0's node (writer) and every
/// other thread (the HTTP scrape path, the lanes' not-primary check).
/// One instance per daemon, whatever its lane count.
#[derive(Debug)]
pub struct StatusShared {
    // 0 = primary, 1 = standby; mirrors `Role`.
    role: AtomicU8,
    epoch: AtomicU64,
    start: Instant,
    shards: usize,
    // Wall-clock ms of the last snapshot write; 0 = never.
    last_snapshot_ms: AtomicU64,
    fingerprint: String,
    // The replication sender's shared handle, when this node replicates
    // to a standby. The Mutex only guards the Option/Arc installation;
    // everything rendered from it is atomics.
    repl: Mutex<Option<Arc<ReplHandle>>>,
}

impl StatusShared {
    /// Creates the shared state for a node starting in `role` at
    /// `epoch` with `shards` ingress lanes.
    pub fn new(role: Role, epoch: u64, shards: usize, fingerprint: &str) -> Self {
        StatusShared {
            role: AtomicU8::new(match role {
                Role::Primary => 0,
                Role::Standby => 1,
            }),
            epoch: AtomicU64::new(epoch),
            start: Instant::now(),
            shards: shards.max(1),
            last_snapshot_ms: AtomicU64::new(0),
            fingerprint: fingerprint.to_string(),
            repl: Mutex::new(None),
        }
    }

    /// Attaches the replication sender's handle so `/status` can render
    /// the link state. Called once at daemon startup on replicating
    /// primaries; nodes without a standby never call it and render
    /// `"replication": null`.
    pub fn set_repl(&self, handle: Arc<ReplHandle>) {
        let mut guard = self.repl.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(handle);
    }

    /// Mirrors a role change (promotion).
    pub fn set_role(&self, role: Role) {
        self.role.store(
            match role {
                Role::Primary => 0,
                Role::Standby => 1,
            },
            Ordering::Release,
        );
    }

    /// The current role.
    pub fn role(&self) -> Role {
        match self.role.load(Ordering::Acquire) {
            0 => Role::Primary,
            _ => Role::Standby,
        }
    }

    /// Mirrors an epoch change (promotion or replication catch-up).
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Release);
    }

    /// The current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Seconds since the node started serving.
    pub fn uptime_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Number of ingress lanes.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Stamps "a snapshot was just written" and returns the wall-clock
    /// milliseconds recorded.
    pub fn mark_snapshot(&self) -> u64 {
        // A pre-1970 clock would stamp 0 = "never"; clamp to 1 instead.
        let ms = now_unix_ms().max(1);
        self.last_snapshot_ms.store(ms, Ordering::Release);
        ms
    }

    /// Wall-clock ms of the last snapshot write, `None` when no
    /// snapshot has been written yet.
    pub fn last_snapshot_unix_ms(&self) -> Option<u64> {
        match self.last_snapshot_ms.load(Ordering::Acquire) {
            0 => None,
            ms => Some(ms),
        }
    }

    /// Seconds since the last snapshot write, `None` when none yet.
    pub fn snapshot_age_seconds(&self) -> Option<f64> {
        self.last_snapshot_unix_ms()
            .map(|ms| (now_unix_ms().saturating_sub(ms)) as f64 / 1000.0)
    }

    /// Renders the `/status` JSON body: role, epoch, uptime, slot, the
    /// per-shard queue table, the replication-link state (or `null` on
    /// nodes that don't replicate), and the last-snapshot fingerprint.
    pub fn render_json(&self, registry: &MetricsRegistry, ids: &ServeMetricIds) -> String {
        let mut out = String::with_capacity(256);
        let mut w = JsonWriter::new(&mut out);
        w.begin_obj().key("role").str(self.role().as_str());
        w.key("epoch").uint(self.epoch());
        w.key("uptime_seconds").num(self.uptime_seconds());
        w.key("slot").num(registry.gauge_value(ids.slot));
        w.key("shard_count").usize(self.shards);
        w.key("shards").begin_arr();
        // One lane series per lane: `daemon::run` refuses any other ids.
        for s in 0..self.shards {
            w.begin_obj().key("shard").usize(s);
            w.key("queue_depth")
                .num(registry.gauge_value(ids.lanes.queue_depth[s]));
            w.key("shed")
                .num(registry.counter_value(ids.lanes.shed[s]) as f64);
            w.key("backpressure")
                .num(registry.gauge_value(ids.lanes.backpressure[s]));
            w.end_obj();
        }
        w.end_arr().key("replication");
        let repl = {
            let guard = self.repl.lock().unwrap_or_else(|e| e.into_inner());
            guard.clone()
        };
        match repl {
            Some(h) => {
                w.begin_obj().key("state").str(h.link_state());
                w.key("connected").bool(h.connected.load(Ordering::Acquire));
                w.key("last_error").str(h.last_error_str());
                w.key("retries")
                    .uint(h.connect_failures.load(Ordering::Acquire));
                w.key("reconnects")
                    .uint(h.reconnects.load(Ordering::Acquire));
                w.key("sent_seq").uint(h.sent_seq.load(Ordering::Acquire));
                w.key("acked_seq").uint(h.acked_seq.load(Ordering::Acquire));
                w.end_obj();
            }
            None => {
                w.null();
            }
        }
        w.key("last_snapshot_unix_ms");
        match self.last_snapshot_unix_ms() {
            Some(ms) => w.uint(ms),
            None => w.null(),
        };
        w.key("snapshot_fingerprint").str(&self.fingerprint);
        w.end_obj();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_obs::{parse_value, JsonValue};

    #[test]
    fn status_json_parses_and_carries_the_shard_table() {
        let mut reg = MetricsRegistry::new();
        let ids = ServeMetricIds::register_sharded(&mut reg, 2, 2);
        let status = StatusShared::new(Role::Primary, 3, 2, "fp-1");
        ids.lanes.set_depth(&reg, 1, 4, 8);
        reg.set_gauge(ids.slot, 5.0);

        let body = status.render_json(&reg, &ids);
        let v = parse_value(body.trim()).unwrap();
        assert_eq!(v.get("role").and_then(|r| r.as_str()), Some("primary"));
        assert_eq!(v.get("epoch").and_then(|e| e.as_usize()), Some(3));
        assert_eq!(v.get("shard_count").and_then(|s| s.as_usize()), Some(2));
        assert_eq!(v.get("slot").and_then(|s| s.as_usize()), Some(5));
        assert_eq!(
            v.get("snapshot_fingerprint").and_then(|f| f.as_str()),
            Some("fp-1")
        );
        assert!(matches!(
            v.get("last_snapshot_unix_ms"),
            Some(JsonValue::Null)
        ));

        status.mark_snapshot();
        assert!(status.last_snapshot_unix_ms().is_some());
        assert!(status.snapshot_age_seconds().unwrap() < 5.0);
    }

    #[test]
    fn replication_link_state_renders_from_atomics() {
        use crate::replica::LINK_PARTITIONED_AFTER;

        let mut reg = MetricsRegistry::new();
        let ids = ServeMetricIds::register_sharded(&mut reg, 1, 1);
        let status = StatusShared::new(Role::Primary, 1, 1, "");

        // A node that doesn't replicate renders null.
        let v = parse_value(status.render_json(&reg, &ids).trim()).unwrap();
        assert!(matches!(v.get("replication"), Some(JsonValue::Null)));

        let handle = Arc::new(ReplHandle::default());
        status.set_repl(Arc::clone(&handle));
        let v = parse_value(status.render_json(&reg, &ids).trim()).unwrap();
        let r = v.get("replication").cloned().unwrap();
        assert_eq!(r.get("state").and_then(|s| s.as_str()), Some("backoff"));
        assert_eq!(r.get("last_error").and_then(|s| s.as_str()), Some("none"));
        assert_eq!(r.get("retries").and_then(|s| s.as_usize()), Some(0));

        // Enough consecutive failures flips backoff → partitioned.
        handle
            .consecutive_failures
            .store(LINK_PARTITIONED_AFTER, Ordering::Release);
        handle.connect_failures.store(7, Ordering::Release);
        let v = parse_value(status.render_json(&reg, &ids).trim()).unwrap();
        let r = v.get("replication").cloned().unwrap();
        assert_eq!(r.get("state").and_then(|s| s.as_str()), Some("partitioned"));
        assert_eq!(r.get("retries").and_then(|s| s.as_usize()), Some(7));

        // A live connection wins regardless of history.
        handle
            .connected
            .store(true, std::sync::atomic::Ordering::Release);
        let v = parse_value(status.render_json(&reg, &ids).trim()).unwrap();
        let r = v.get("replication").cloned().unwrap();
        assert_eq!(r.get("state").and_then(|s| s.as_str()), Some("connected"));
        assert_eq!(r.get("connected"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn role_and_epoch_mirror_promotion() {
        let status = StatusShared::new(Role::Standby, 1, 1, "");
        assert_eq!(status.role(), Role::Standby);
        status.set_role(Role::Primary);
        status.set_epoch(2);
        assert_eq!(status.role(), Role::Primary);
        assert_eq!(status.epoch(), 2);
        assert!(status.uptime_seconds() >= 0.0);
    }
}
