//! The `failover-drill` command: a kill-the-primary exercise over real
//! processes. It lives in the binary — not beside the in-process drills
//! of [`mec_serve::drill`] — because its daemons are subprocesses of
//! `current_exe()` that it SIGKILLs.

use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

use mec_serve::{client, run_loadgen, ControlAction, LoadgenConfig, ServeError, Snapshot};
use mec_workload::Request;

use crate::args::{AlgorithmChoice, FailoverDrillArgs, SimulateArgs, TopologyChoice};
use crate::error::CliError;
use crate::runner::{build_setup, wait_for_daemon, write_report, Output};

/// A daemon subprocess that is SIGKILLed (and reaped) when dropped, so
/// a failing drill never leaks daemons.
struct ChildGuard {
    child: std::process::Child,
    name: &'static str,
}

impl ChildGuard {
    /// Kills the child with SIGKILL — no signal handler runs, no drain,
    /// no snapshot. This IS the drill's failure injection.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits (bounded) for the child to exit on its own and returns its
    /// exit code.
    fn wait_exit(&mut self, timeout: Duration) -> Result<Option<i32>, CliError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status.code()),
                Ok(None) if std::time::Instant::now() >= deadline => {
                    return Err(CliError::Internal(format!(
                        "the {} did not exit within {timeout:?}",
                        self.name
                    )));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => {
                    return Err(CliError::Internal(format!(
                        "waiting on the {}: {e}",
                        self.name
                    )))
                }
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Reserves `N` free loopback ports by binding each to port 0 and
/// releasing them together: with every listener still open, the kernel
/// cannot hand the same port out twice. A daemon spawned right after
/// re-binds its port; that window is acceptable for a drill on loopback.
fn free_addrs<const N: usize>() -> Result<[String; N], CliError> {
    let listeners = (0..N)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| CliError::Net(format!("failed to reserve a loopback port: {e}")))?;
    let addrs = (listeners.iter())
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| CliError::Net(format!("failed to read the reserved port: {e}")))?;
    Ok(addrs.try_into().expect("one address per listener"))
}

/// Renders a [`TopologyChoice`] back into the `--topology` syntax.
fn topology_flag(t: &TopologyChoice) -> String {
    match t {
        TopologyChoice::Zoo(name) => name.clone(),
        TopologyChoice::ErdosRenyi { n, p } => format!("er:{n}:{p}"),
        TopologyChoice::BarabasiAlbert { n, m } => format!("ba:{n}:{m}"),
        TopologyChoice::Grid { rows, cols } => format!("grid:{rows}:{cols}"),
    }
}

/// Renders the scenario-defining simulate flags for a daemon
/// subprocess. `f64` `Display` round-trips exactly, so the subprocess
/// parses back bit-identical values and computes the same scenario
/// fingerprint.
fn sim_flags(sim: &SimulateArgs) -> Vec<String> {
    let algorithm = match sim.algorithm {
        AlgorithmChoice::PrimalDual => "primal-dual",
        AlgorithmChoice::Greedy => "greedy",
        AlgorithmChoice::Random => "random",
        AlgorithmChoice::Density => "density",
    };
    [
        "--topology",
        &topology_flag(&sim.topology),
        "--requests",
        &sim.requests.to_string(),
        "--scheme",
        &sim.scheme.to_string(),
        "--algorithm",
        algorithm,
        "--seed",
        &sim.seed.to_string(),
        "--horizon",
        &sim.horizon.to_string(),
        "--capacity",
        &format!("{}:{}", sim.capacity.0, sim.capacity.1),
        "--cloudlet-rel",
        &format!(
            "{}:{}",
            sim.cloudlet_reliability.0, sim.cloudlet_reliability.1
        ),
        "--requirement",
        &format!("{}:{}", sim.requirement.0, sim.requirement.1),
        "--payment",
        &format!("{}:{}", sim.payment_rate.0, sim.payment_rate.1),
        "--fraction",
        &sim.cloudlet_fraction.to_string(),
        "--quiet",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Why a failover drill stopped short of its verdict.
enum DrillStop {
    /// An invariant did not hold: the drill's FAIL verdict.
    Failed(String),
    /// The machinery failed (spawn, connect, file I/O); no verdict.
    Broken(CliError),
}

impl From<CliError> for DrillStop {
    fn from(e: CliError) -> Self {
        DrillStop::Broken(e)
    }
}

impl From<ServeError> for DrillStop {
    fn from(e: ServeError) -> Self {
        DrillStop::Broken(e.into())
    }
}

/// `Err(DrillStop::Failed(why()))` unless `ok`.
fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), DrillStop> {
    match ok {
        true => Ok(()),
        false => Err(DrillStop::Failed(why())),
    }
}

/// One failover drill: the scenario its daemons are spawned with, the
/// scratch directory their logs and snapshots go to, and the report so
/// far.
struct FailoverDrill<'a> {
    args: &'a FailoverDrillArgs,
    exe: PathBuf,
    flags: Vec<String>,
    dir: PathBuf,
    report: Vec<String>,
}

impl FailoverDrill<'_> {
    /// Spawns `vnfrel serve` as a subprocess with this scenario, an
    /// address, and role-specific extra flags, logging both streams to
    /// `<log>.log` in the scratch directory for post-mortems.
    fn spawn(
        &self,
        log: &str,
        name: &'static str,
        addr: &str,
        extra: &[&str],
    ) -> Result<ChildGuard, CliError> {
        let log = self.dir.join(format!("{log}.log"));
        let log_file = File::create(&log)
            .map_err(|e| CliError::Io(format!("failed to create {}: {e}", log.display())))?;
        let err_file = log_file
            .try_clone()
            .map_err(|e| CliError::Io(format!("failed to clone the log handle: {e}")))?;
        let child = std::process::Command::new(&self.exe)
            .arg("serve")
            .args(&self.flags)
            .arg("--addr")
            .arg(addr)
            .args(extra)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::from(log_file))
            .stderr(std::process::Stdio::from(err_file))
            .spawn()
            .map_err(|e| CliError::Internal(format!("failed to spawn the {name}: {e}")))?;
        Ok(ChildGuard { child, name })
    }

    /// The five phases; see [`failover_drill`].
    fn run(&mut self, requests: &[Request]) -> Result<(), DrillStop> {
        let kill_at = self.args.kill_at;

        // Phase 1 — golden run: the answer a failure-free daemon produces.
        let golden_snap = self.dir.join("golden.snap");
        let [golden_addr] = free_addrs()?;
        {
            let mut golden = self.spawn(
                "golden",
                "golden daemon",
                &golden_addr,
                &["--snapshot", &golden_snap.to_string_lossy()],
            )?;
            wait_for_daemon(&golden_addr);
            let mut config = LoadgenConfig::new(golden_addr.clone());
            config.shutdown_when_done = true;
            let golden_report = run_loadgen(requests, &config)?;
            self.report.push(format!(
                "failover-drill: golden revenue {:.2} admitted {}/{}",
                golden_report.revenue, golden_report.admitted, golden_report.sent
            ));
            let code = golden.wait_exit(Duration::from_secs(20))?;
            ensure(code == Some(0), || {
                format!("the golden daemon exited with {code:?} instead of 0")
            })?;
        }
        let golden = Snapshot::load(&golden_snap)?;

        // Phase 2 — the replicated pair. Standby first: the primary dials
        // it on boot.
        let standby_snap = self.dir.join("standby.snap");
        let [standby_addr, primary_addr] = free_addrs()?;
        let mut standby = self.spawn(
            "standby",
            "standby daemon",
            &standby_addr,
            &["--standby", "--snapshot", &standby_snap.to_string_lossy()],
        )?;
        wait_for_daemon(&standby_addr);
        let mut primary = self.spawn(
            "primary",
            "primary daemon",
            &primary_addr,
            &["--replicate-to", &standby_addr],
        )?;
        wait_for_daemon(&primary_addr);

        // Replay [0, kill_at) so the kill lands on a warmed-up pair.
        let phase1_cfg = LoadgenConfig::new(primary_addr.clone());
        let phase1 = run_loadgen(&requests[..kill_at], &phase1_cfg)?;
        ensure(phase1.decided == kill_at, || {
            format!(
                "phase 1 decided {}/{kill_at} requests before the kill",
                phase1.decided
            )
        })?;

        // Phase 3 — the remaining requests on a reconnecting generator that
        // knows both addresses, then SIGKILL the primary mid-load and
        // promote the standby underneath it.
        let mut phase2_cfg = LoadgenConfig::new(format!("{primary_addr},{standby_addr}"));
        phase2_cfg.start_at = kill_at;
        phase2_cfg.reconnect = true;
        // Full speed on loopback would finish the whole tail before the
        // kill lands; pace the sends so the stream spans the failover and
        // the SIGKILL interrupts live traffic.
        phase2_cfg.rate = 400.0;
        let (phase2, promote_ack, promote_time) =
            std::thread::scope(|scope| -> Result<_, CliError> {
                let loadgen = scope.spawn(|| run_loadgen(requests, &phase2_cfg));
                // Let a handful of post-kill_at requests through so the kill
                // interrupts live traffic, not an idle daemon.
                std::thread::sleep(Duration::from_millis(50));
                primary.kill();
                let started = std::time::Instant::now();
                let ack = client::control(&standby_addr, ControlAction::Promote)?;
                let promote_time = started.elapsed();
                let phase2 = loadgen.join().map_err(|_| {
                    CliError::Internal("the phase-2 load generator panicked".into())
                })??;
                Ok((phase2, ack, promote_time))
            })?;
        self.report.push(format!(
            "failover-drill: killed the primary (SIGKILL) after {kill_at} acked submissions"
        ));
        self.report.push(format!(
            "failover-drill: promoted the standby in {:.1}ms -> role {} epoch {}",
            promote_time.as_secs_f64() * 1e3,
            promote_ack.role,
            promote_ack.epoch
        ));
        self.report.push(format!(
            "failover-drill: survivor absorbed {} reconnects, {} resubmits, {} not-primary refusals",
            phase2.reconnects, phase2.resubmits, phase2.not_primary
        ));
        ensure(
            promote_ack.role == "primary" && promote_ack.epoch == 2,
            || {
                format!(
                    "promotion acked role {} epoch {} (wanted primary at epoch 2)",
                    promote_ack.role, promote_ack.epoch
                )
            },
        )?;
        ensure(phase2.decided == requests.len() - kill_at, || {
            format!(
                "phase 2 decided {}/{} requests across the failover",
                phase2.decided,
                requests.len() - kill_at
            )
        })?;

        // Phase 4 — fencing: a deposed primary at the old epoch must shoot
        // itself (exit 7) the moment the promoted survivor answers it, and
        // its flight recorder must leave a parseable post-mortem dump.
        let flight_dir = self.dir.join("flight");
        std::fs::create_dir_all(&flight_dir)
            .map_err(|e| CliError::Io(format!("failed to create {}: {e}", flight_dir.display())))?;
        let [fence_addr] = free_addrs()?;
        let mut deposed = self.spawn(
            "deposed",
            "deposed primary",
            &fence_addr,
            &[
                "--replicate-to",
                &standby_addr,
                "--flight-dir",
                &flight_dir.to_string_lossy(),
            ],
        )?;
        let fence_code = deposed.wait_exit(Duration::from_secs(20))?;
        self.report.push(format!(
            "failover-drill: deposed epoch-1 primary exited with code {}",
            fence_code.map_or_else(|| "<signal>".into(), |c| c.to_string())
        ));
        ensure(fence_code == Some(7), || {
            format!("the deposed primary exited with {fence_code:?}, not the fenced code 7")
        })?;
        // The deposed primary fenced at epoch 1 as the single-shard daemon:
        // the dump is flight-1-0.jsonl by construction.
        let dump_path = flight_dir.join("flight-1-0.jsonl");
        let dump = std::fs::read_to_string(&dump_path).map_err(|e| {
            DrillStop::Failed(format!(
                "the fenced primary left no flight dump at {}: {e}",
                dump_path.display()
            ))
        })?;
        let dump_events = mec_obs::parse_trace(&dump).map_err(|e| {
            DrillStop::Failed(format!(
                "the fenced primary's flight dump does not parse: {e}"
            ))
        })?;
        self.report.push(format!(
            "failover-drill: fenced primary left a parseable flight dump ({} events)",
            dump_events.len()
        ));

        // Phase 5 — drain the survivor and compare snapshots.
        let final_ack = client::control(&standby_addr, ControlAction::Shutdown)?;
        let survivor_code = standby.wait_exit(Duration::from_secs(20))?;
        ensure(survivor_code == Some(0), || {
            format!("the survivor exited with {survivor_code:?} instead of 0")
        })?;
        let survivor = Snapshot::load(&standby_snap)?;
        let checks = [
            ("state", golden.state == survivor.state),
            ("next-id", golden.next_id == survivor.next_id),
            ("slot", golden.slot == survivor.slot),
            ("stats", golden.stats == survivor.stats),
            ("fingerprint", golden.config == survivor.config),
            ("golden-epoch", golden.epoch == 1),
            ("survivor-epoch", survivor.epoch == 2),
            (
                "acked-admits-preserved",
                final_ack.stats.decided as usize == requests.len(),
            ),
            // The kill must have interrupted live traffic: the generator
            // either lost a connection or was told `not-primary` at least
            // once. All-zero means the tail finished before the SIGKILL and
            // the drill exercised nothing.
            (
                "failover-crossed-live-traffic",
                phase2.reconnects + phase2.not_primary > 0,
            ),
        ];
        let verdicts: Vec<String> = checks
            .iter()
            .map(|(name, ok)| format!("{name}={}", if *ok { "ok" } else { "MISMATCH" }))
            .collect();
        self.report
            .push(format!("failover-drill: parity {}", verdicts.join(" ")));
        self.report.push(format!(
            "failover-drill: survivor revenue {:.2} admitted {}/{} (golden revenue {:.2})",
            survivor.stats.revenue,
            survivor.stats.admitted,
            survivor.stats.decided,
            golden.stats.revenue
        ));
        match checks.iter().find(|(_, ok)| !ok) {
            Some((name, _)) => Err(DrillStop::Failed(format!(
                "parity check `{name}` failed (survivor diverged from the golden run)"
            ))),
            None => Ok(()),
        }
    }

    /// Prints (and optionally writes) the report lines.
    fn emit(&self, io: &mut Output<'_>) -> Result<(), CliError> {
        for line in &self.report {
            io.table(line)?;
        }
        if let Some(path) = &self.args.out {
            write_report(path, &self.report)?;
            io.note(format!("drill report -> {path}"))?;
        }
        Ok(())
    }
}

/// Runs the `failover-drill` command: a deterministic kill-the-primary
/// exercise that must end bit-identical to a run where nothing failed.
/// It stays in the binary because it SIGKILLs subprocesses of
/// `current_exe()`; the in-process drills are [`mec_serve::drill`].
///
/// Phases:
/// 1. **Golden**: one daemon, no replication, serve every request,
///    clean shutdown — its snapshot is the reference answer.
/// 2. **Pair**: a standby and a replicating primary. Replay the
///    first `--kill-at` requests, start the rest on a reconnecting
///    load generator, then SIGKILL the primary mid-load.
/// 3. **Promote**: ask the standby to promote (it drains the
///    replication channel first); the load generator rides the
///    `not-primary` refusals until the ack and finishes the stream.
/// 4. **Fence**: boot a stale epoch-1 "deposed primary" pointed at the
///    survivor and assert it exits with code 7 without acking anything.
/// 5. **Parity**: shut the survivor down and compare its snapshot with
///    the golden one — scheduler state byte-equal, same next id, slot
///    and counters. The epochs differ by exactly the one promotion.
///
/// # Errors
///
/// [`CliError::Internal`] with a `failover-drill: FAIL` report when any
/// invariant does not hold; spawn/connect problems map to their usual
/// categories.
pub fn failover_drill(args: &FailoverDrillArgs, io: &mut Output<'_>) -> Result<(), CliError> {
    let (instance, requests) = build_setup(&args.sim)?;
    if args.kill_at == 0 || args.kill_at >= requests.len() {
        return Err(CliError::Usage(format!(
            "--kill-at must be in 1..{} (got {})",
            requests.len(),
            args.kill_at
        )));
    }
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Internal(format!("failed to locate the vnfrel binary: {e}")))?;
    let dir = std::env::temp_dir().join(format!("vnfrel-drill-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .map_err(|e| CliError::Io(format!("failed to create {}: {e}", dir.display())))?;
    io.note(format!("{instance}"))?;
    io.note(format!(
        "drill scratch dir {} (kept on failure for the daemon logs)",
        dir.display()
    ))?;

    let mut drill = FailoverDrill {
        args,
        exe,
        flags: sim_flags(&args.sim),
        dir,
        report: vec![format!(
            "failover-drill: scenario {:?} {:?} seed {} requests {} kill-at {}",
            args.sim.scheme,
            args.sim.algorithm,
            args.sim.seed,
            requests.len(),
            args.kill_at
        )],
    };
    match drill.run(&requests) {
        Ok(()) => {
            drill.report.push("failover-drill: PASS".into());
            drill.emit(io)?;
            let _ = std::fs::remove_dir_all(&drill.dir);
            Ok(())
        }
        // The scratch dir stays, with the daemon logs.
        Err(DrillStop::Failed(why)) => {
            drill.report.push(format!("failover-drill: FAIL ({why})"));
            drill.emit(io)?;
            Err(CliError::Internal(format!(
                "failover drill failed: {why} (daemon logs in {})",
                drill.dir.display()
            )))
        }
        Err(DrillStop::Broken(e)) => Err(e),
    }
}
