//! The chaos matrix as a library call: three fault families — network,
//! disk, process — against each scenario it is given, every cell
//! self-healing under a deterministic [`ChaosPlan`] and judged by the
//! [`referee`] (no acked admit lost, no double charge, ledger balance,
//! no ack after fencing) plus revenue bit-parity with an un-chaosed
//! golden run of the same trace.
//!
//! Everything runs in-process on [`harness::spawn_sharded`] daemons — so
//! always the primal-dual schedulers, one lane where a cell persists or
//! replicates — driven through [`client`] and the closed-loop load
//! generator.
//! `vnfrel chaos-drill` prints [`ChaosReport::lines`]; `cargo test`
//! compares them with `results/chaos_drill.txt`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

use mec_workload::Request;
use vnfrel::{ProblemInstance, Scheme};

use crate::chaos::{ChaosPlan, ChaosProxy, ChaosSnapshotIo};
use crate::client::{self, LineClient};
use crate::daemon::ServeConfig;
use crate::error::ServeError;
use crate::harness::{self, Spawned};
use crate::loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
use crate::protocol::{ControlAction, ServeStats, ServerMsg};
use crate::referee::{self, AckRecord, ChaosArtifacts};
use crate::shard::ShardedReport;
use crate::snapshot::Snapshot;

/// Snapshot-control attempts per disk cell — enough for the default
/// fail rate (~every other attempt) to hit several distinct boundaries.
const DISK_ATTEMPTS: usize = 12;

/// Decide threads in the process cell (and its golden run).
const DRILL_SHARDS: usize = 2;

/// One scheme's share of the matrix.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Which primal-dual scheduler the cells run.
    pub scheme: Scheme,
    /// The instance every daemon of these cells serves.
    pub instance: ProblemInstance,
    /// The trace, in id order. The last request is never served in a
    /// golden run: it is the probe a deposed primary must not ack.
    pub requests: Vec<Request>,
    /// The scenario fingerprint the daemons stamp their snapshots with.
    pub fingerprint: String,
}

/// One cell's verdict.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// The scenario's scheme.
    pub scheme: Scheme,
    /// `"network"`, `"disk"` or `"process"`.
    pub family: &'static str,
    /// The referee and every check of the cell's own came back clean.
    pub clean: bool,
    /// The cell's report line.
    pub line: String,
}

/// What [`chaos_matrix`] found.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The caller's first line (seeds, trace length).
    pub header: String,
    /// Three cells per scenario, in scenario order.
    pub cells: Vec<ChaosCell>,
}

impl ChaosReport {
    /// Cells that are not clean.
    pub fn dirty(&self) -> usize {
        self.cells.iter().filter(|c| !c.clean).count()
    }

    /// The report: header, one line per cell, PASS/FAIL.
    pub fn lines(&self) -> Vec<String> {
        let (dirty, total) = (self.dirty(), self.cells.len());
        let verdict = match dirty {
            0 => format!("chaos-drill: PASS ({total}/{total} cells clean)"),
            _ => format!("chaos-drill: FAIL ({dirty}/{total} cells dirty)"),
        };
        let cells = self.cells.iter().map(|c| c.line.clone());
        std::iter::once(self.header.clone())
            .chain(cells)
            .chain([verdict])
            .collect()
    }
}

/// Runs the fault matrix: per scenario two golden runs (one lane, and
/// `DRILL_SHARDS` lanes), then the network, disk and process cells.
/// `progress` hears what is starting; with a `flight_dir` the process
/// cells dump their panicked lanes' rings into one subdirectory per
/// scheme.
///
/// # Errors
///
/// [`ServeError`] when the machinery fails — a daemon that does not
/// come up, a control that is not acked, an unwritable directory. A
/// cell that ran and found a violation is not an error: it is a dirty
/// [`ChaosCell`].
pub fn chaos_matrix(
    header: String,
    scenarios: &[ChaosScenario],
    plan: &ChaosPlan,
    flight_dir: Option<&Path>,
    progress: &mut dyn FnMut(&str),
) -> Result<ChaosReport, ServeError> {
    // Per call, so that two drills in one process never share snapshots.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let scratch = std::env::temp_dir().join(format!("vnfrel-chaos-{}-{run}", std::process::id()));
    create_dir(&scratch)?;

    let mut cells = Vec::with_capacity(3 * scenarios.len());
    for scenario in scenarios {
        let label = scheme_label(scenario.scheme);
        let Some((probe, work)) = scenario.requests.split_last() else {
            return Err(ServeError::Config(format!(
                "the {label} chaos scenario has no requests"
            )));
        };
        let cell = Cell {
            scenario,
            work,
            plan,
        };

        progress(&format!(
            "chaos-drill [{label}]: golden runs ({} requests)",
            work.len()
        ));
        // Golden runs never dump flight rings: the shutdown-time ring
        // dump would overwrite the panic dumps the process cell wants.
        let golden = cell.golden(1)?;
        let golden_sharded = cell.golden(DRILL_SHARDS)?;

        progress(&format!("chaos-drill [{label}]: network cell"));
        cells.push(cell.network(probe, &golden)?);
        progress(&format!("chaos-drill [{label}]: disk cell"));
        cells.push(cell.disk(&golden, &scratch)?);
        progress(&format!("chaos-drill [{label}]: process cell"));
        let flight = flight_dir.map(|dir| dir.join(label));
        cells.push(cell.process(&golden_sharded, flight)?);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(ChaosReport { header, cells })
}

fn scheme_label(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::OnSite => "onsite",
        Scheme::OffSite => "offsite",
    }
}

fn create_dir(dir: &Path) -> Result<(), ServeError> {
    std::fs::create_dir_all(dir).map_err(|e| {
        let text = format!("failed to create {}: {e}", dir.display());
        ServeError::Io(std::io::Error::new(e.kind(), text))
    })
}

// The healed run's counters against the golden run's; revenue with
// `f64 ==`, because healing re-derives state instead of re-charging.
fn same_run(healed: &ServeStats, golden: &ServeStats) -> bool {
    (healed.decided, healed.admitted) == (golden.decided, golden.admitted)
        && healed.revenue == golden.revenue
}

// Joins a drill daemon; a panic on its thread is this thread's.
fn join<R>(daemon: JoinHandle<Result<R, ServeError>>) -> Result<R, ServeError> {
    daemon
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

// The closed-loop generator against `addr`, collecting the acked
// decision log the referee replays.
fn drive(
    requests: &[Request],
    addr: SocketAddr,
    start_at: usize,
    reconnect: bool,
    shutdown: bool,
) -> Result<LoadgenReport, ServeError> {
    let mut config = LoadgenConfig::new(addr.to_string());
    config.start_at = start_at;
    config.reconnect = reconnect;
    config.shutdown_when_done = shutdown;
    config.collect_acks = true;
    run_loadgen(requests, &config)
}

// Submits one never-before-seen request directly to a deposed primary
// and counts decision acks — the referee's split-brain evidence. Every
// other fate (error line, closed connection, silence) counts as zero.
fn probe_deposed(addr: SocketAddr, probe: &Request) -> usize {
    let Ok(mut client) = LineClient::connect(addr) else {
        return 0; // already exited: certainly not acking
    };
    let _ = client
        .stream()
        .set_write_timeout(Some(Duration::from_secs(1)));
    let _ = client
        .stream()
        .set_read_timeout(Some(Duration::from_secs(3)));
    usize::from(matches!(client.submit(probe), Ok(ServerMsg::Decision(_))))
}

// What the cells of one scenario share.
struct Cell<'a> {
    scenario: &'a ChaosScenario,
    // The scenario's requests without the probe.
    work: &'a [Request],
    plan: &'a ChaosPlan,
}

impl Cell<'_> {
    // A daemon on an ephemeral port with the scenario's fingerprint and
    // scheme; `set` adds the cell's options. One lane unless `set` says
    // otherwise, which is the daemon that persists and replicates.
    fn daemon(
        &self,
        set: impl FnOnce(&mut ServeConfig),
    ) -> Result<Spawned<ShardedReport>, ServeError> {
        let mut config = ServeConfig::new("127.0.0.1:0");
        config.fingerprint = self.scenario.fingerprint.clone();
        set(&mut config);
        let instance = self.scenario.instance.clone();
        harness::spawn_sharded(instance, self.scenario.scheme, config)
    }

    // The whole trace through an un-chaosed daemon of `shards` lanes.
    fn golden(&self, shards: usize) -> Result<ServeStats, ServeError> {
        let (addr, daemon) = self.daemon(|c| c.shards = shards)?;
        drive(self.work, addr, 0, false, true)?;
        Ok(join(daemon)?.stats)
    }

    // Puts the cell's evidence before the referee and folds its report
    // and the cell's own checks into a line.
    fn outcome(
        &self,
        family: &'static str,
        acks: Vec<AckRecord>,
        survivor: ServeStats,
        deposed_acks_after_fence: usize,
        extra: &[(&str, bool)],
        detail: String,
    ) -> ChaosCell {
        let report = referee::check(&ChaosArtifacts {
            acks,
            survivor,
            complete: true,
            deposed_acks_after_fence,
        });
        let failed: Vec<&str> = (extra.iter())
            .filter_map(|&(what, ok)| (!ok).then_some(what))
            .collect();
        let verdict = match report.violations.first() {
            None => format!("referee clean ({} acks)", report.acks_checked),
            Some(first) => format!(
                "referee DIRTY ({} violations, first: {first})",
                report.violations.len()
            ),
        };
        let extra_text = match failed.is_empty() {
            true => String::new(),
            false => format!("; FAILED: {}", failed.join(", ")),
        };
        ChaosCell {
            scheme: self.scenario.scheme,
            family,
            clean: report.is_clean() && failed.is_empty(),
            line: format!(
                "cell scheme={} family={family}: {verdict}, {detail}{extra_text}",
                scheme_label(self.scenario.scheme)
            ),
        }
    }

    // The network cell: a replicated pair with fault-injecting
    // proxies on both the client and replication links, a reconnecting
    // load generator riding out every injected close, then a deliberate
    // split brain — promote the standby under the living primary and
    // prove the deposed primary never acks again.
    fn network(&self, probe: &Request, golden: &ServeStats) -> Result<ChaosCell, ServeError> {
        let proxy = |upstream: SocketAddr, salt: u64, link: &'static str| {
            ChaosProxy::spawn(upstream, self.plan.derive(salt), None).map_err(|source| {
                ServeError::Net {
                    action: link,
                    addr: upstream.to_string(),
                    source,
                }
            })
        };
        let (standby_addr, standby) = self.daemon(|c| c.standby = true)?;
        let mut repl_proxy = proxy(standby_addr, 2, "proxy the replication link to")?;
        let repl_addr = repl_proxy.local_addr().to_string();
        let (primary_addr, primary) = self.daemon(|c| c.replicate_to = Some(repl_addr))?;
        let mut client_proxy = proxy(primary_addr, 1, "proxy the client link to")?;

        // The whole trace rides through the chaos proxy; the reconnecting
        // generator absorbs every close the proxy injects, and the dedupe
        // ring makes each resubmit idempotent.
        let lg = drive(self.work, client_proxy.local_addr(), 0, true, false)?;

        // Split brain on purpose: promote the standby while the primary is
        // alive. Every reply waits for the standby's ack, so the deposed
        // primary can never release another one — the probe and the
        // typed fenced exit are the proof.
        client::control(standby_addr, ControlAction::Promote)?;
        let deposed_acks = probe_deposed(primary_addr, probe);
        let fenced = matches!(primary.join(), Ok(Err(ServeError::Fenced { .. })));
        client::control(standby_addr, ControlAction::Shutdown)?;
        let survivor = join(standby)?.stats;
        let injected = client_proxy.injected() + repl_proxy.injected();
        client_proxy.stop();
        repl_proxy.stop();

        Ok(self.outcome(
            "network",
            lg.acks,
            survivor,
            deposed_acks,
            &[
                ("deposed primary exits fenced", fenced),
                (
                    "revenue bit-parity with the golden run",
                    same_run(&survivor, golden),
                ),
                ("faults actually injected", injected > 0),
            ],
            format!(
                "{injected} faults injected, {} reconnects, {} resubmits, revenue {:.2}",
                lg.reconnects, lg.resubmits, survivor.revenue
            ),
        ))
    }

    // The disk cell: snapshot saves fail at every write/fsync/rename
    // boundary per the plan; each failure must leave the previous
    // snapshot loadable, and resuming from the surviving snapshot must
    // end revenue-bit-identical to the golden run.
    fn disk(&self, golden: &ServeStats, scratch: &Path) -> Result<ChaosCell, ServeError> {
        let label = scheme_label(self.scenario.scheme);
        let snap_path = scratch.join(format!("chaos-{label}.snap"));
        let seam = ChaosSnapshotIo::new(&self.plan.derive(3));
        let cut = self.work.len() / 2;
        let persist = |c: &mut ServeConfig| {
            c.snapshot_path = Some(snap_path.clone());
            c.snapshot_io = seam.clone();
        };

        let (addr, daemon) = self.daemon(persist)?;
        let lg_head = drive(&self.work[..cut], addr, 0, false, false)?;

        // Hammer the snapshot control with the seam armed: every attempt
        // that fails must leave the previous snapshot loadable (the
        // write-temp/fsync/rename pipeline is crash-consistent at every
        // boundary).
        let mut failed_saves = 0usize;
        let mut torn = 0usize;
        for _ in 0..DISK_ATTEMPTS {
            if client::control(addr, ControlAction::Snapshot).is_err() {
                failed_saves += 1;
            }
            if snap_path.exists() && Snapshot::load(&snap_path).is_err() {
                torn += 1;
            }
        }
        seam.disarm();
        // Disarmed, the next save and the shutdown snapshot must succeed.
        client::control(addr, ControlAction::Snapshot)?;
        client::control(addr, ControlAction::Shutdown)?;
        let head = join(daemon)?.stats;

        // Resume from the surviving snapshot and finish the trace: the
        // failed attempts must not have cost any durable state.
        let (addr, daemon) = self.daemon(|c| {
            persist(c);
            c.resume = true;
        })?;
        let lg_tail = drive(self.work, addr, cut, false, true)?;
        let survivor = join(daemon)?.stats;
        let _ = std::fs::remove_file(&snap_path);

        let mut acks = lg_head.acks;
        acks.extend(lg_tail.acks);
        let injected = seam.injected();
        let steps_hit = seam.coverage().iter().filter(|&&c| c > 0).count();
        Ok(self.outcome(
            "disk",
            acks,
            survivor,
            0,
            &[
                ("every failed save left a loadable snapshot", torn == 0),
                ("snapshot faults actually injected", injected > 0),
                (
                    "head daemon decided exactly the prefix",
                    head.decided as usize == cut,
                ),
                (
                    "revenue bit-parity with the golden run",
                    same_run(&survivor, golden),
                ),
            ],
            format!(
                "{injected} save faults over {steps_hit} boundaries \
                 ({failed_saves}/{DISK_ATTEMPTS} saves failed, 0 torn snapshots), revenue {:.2}",
                survivor.revenue
            ),
        ))
    }

    // The process cell: chaos-panic controls kill every decide thread
    // mid-stream; the per-lane supervisors must restore from their
    // recovery logs and replay to a state revenue-bit-identical to the
    // un-chaosed sharded golden run.
    fn process(
        &self,
        golden: &ServeStats,
        flight_dir: Option<PathBuf>,
    ) -> Result<ChaosCell, ServeError> {
        let cut = self.work.len() / 2;
        if let Some(dir) = &flight_dir {
            create_dir(dir)?;
        }
        let (addr, daemon) = self.daemon(|c| {
            c.shards = DRILL_SHARDS;
            c.flight_dir = flight_dir;
        })?;
        let lg_head = drive(&self.work[..cut], addr, 0, false, false)?;
        // Kill every decide thread at a message boundary; each supervisor
        // dumps its flight ring, restores from the last compacted state,
        // and replays its recovery suffix.
        for s in 0..DRILL_SHARDS {
            client::control(addr, ControlAction::ChaosPanic(s))?;
        }
        let lg_tail = drive(self.work, addr, cut, false, true)?;
        let healed = join(daemon)?;
        let survivor = healed.stats;

        let mut acks = lg_head.acks;
        acks.extend(lg_tail.acks);
        Ok(self.outcome(
            "process",
            acks,
            survivor,
            0,
            &[
                (
                    "every shard restarted exactly once",
                    healed.shard_restarts == DRILL_SHARDS as u64,
                ),
                (
                    "revenue bit-parity with the sharded golden run",
                    same_run(&survivor, golden),
                ),
            ],
            format!(
                "{} decide threads killed and healed, revenue {:.2}",
                healed.shard_restarts, survivor.revenue
            ),
        ))
    }
}
