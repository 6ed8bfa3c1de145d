//! Minimal, dependency-free argument parsing for the `vnfrel` binary.

use std::fmt;

/// Which topology to build.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyChoice {
    /// An embedded Topology-Zoo network by name.
    Zoo(String),
    /// Erdős–Rényi with `n` nodes and edge probability `p`.
    ErdosRenyi {
        /// Node count.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Barabási–Albert with `n` nodes, `m` links per new node.
    BarabasiAlbert {
        /// Node count.
        n: usize,
        /// Links per new node.
        m: usize,
    },
    /// rows×cols grid.
    Grid {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
}

/// Scheduler selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmChoice {
    /// The paper's primal-dual algorithm (1 or 2 per scheme).
    PrimalDual,
    /// The paper's greedy baseline.
    Greedy,
    /// Uniform-random feasible placement.
    Random,
    /// Payment-density greedy (on-site only).
    Density,
}

/// Fully parsed `simulate` options.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// Network to build.
    pub topology: TopologyChoice,
    /// Number of requests.
    pub requests: usize,
    /// Backup scheme.
    pub scheme: vnfrel::Scheme,
    /// Scheduler.
    pub algorithm: AlgorithmChoice,
    /// RNG seed.
    pub seed: u64,
    /// Horizon length in slots.
    pub horizon: usize,
    /// Cloudlet capacity range.
    pub capacity: (u64, u64),
    /// Cloudlet reliability range.
    pub cloudlet_reliability: (f64, f64),
    /// Request reliability-requirement range.
    pub requirement: (f64, f64),
    /// Payment-rate range.
    pub payment_rate: (f64, f64),
    /// Fraction of APs hosting cloudlets.
    pub cloudlet_fraction: f64,
    /// Monte-Carlo failure trials (0 = skip).
    pub failure_trials: usize,
    /// Worker threads for the Monte-Carlo check (0 = all cores).
    pub threads: usize,
    /// JSONL decision/fault trace target (`--trace`).
    pub trace: Option<String>,
    /// Metrics snapshot target (`--metrics`); `.json`/`.jsonl` selects
    /// the JSONL snapshot format, anything else Prometheus text.
    pub metrics: Option<String>,
    /// Per-slot timeline CSV target (`--timeline-csv`).
    pub timeline_csv: Option<String>,
    /// Suppress progress/provenance notes on stderr (`--quiet`/`-q`).
    pub quiet: bool,
}

impl Default for SimulateArgs {
    fn default() -> Self {
        SimulateArgs {
            topology: TopologyChoice::Zoo("abilene".into()),
            requests: 200,
            scheme: vnfrel::Scheme::OnSite,
            algorithm: AlgorithmChoice::PrimalDual,
            seed: 1,
            horizon: 16,
            capacity: (8, 12),
            cloudlet_reliability: (0.99, 0.9999),
            requirement: (0.9, 0.95),
            payment_rate: (1.0, 10.0),
            cloudlet_fraction: 0.5,
            failure_trials: 0,
            threads: 0,
            trace: None,
            metrics: None,
            timeline_csv: None,
            quiet: false,
        }
    }
}

/// Fully parsed `failures` options: a simulation plus an outage trace
/// and a recovery policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FailuresArgs {
    /// The underlying simulation setup (same flags as `simulate`).
    pub sim: SimulateArgs,
    /// Cloudlet mean time to failure, in slots.
    pub mttf: f64,
    /// Cloudlet mean time to repair, in slots.
    pub mttr: f64,
    /// Per-slot single-instance kill probability.
    pub kill_rate: f64,
    /// Recovery policy applied to requests whose placement died.
    pub policy: mec_sim::RecoveryPolicy,
    /// Seed of the failure process (independent of the workload seed so
    /// the same outage trace can be replayed against different setups).
    pub failure_seed: u64,
    /// Per-request SLA ledger CSV target (`--sla-csv`).
    pub sla_csv: Option<String>,
}

impl Default for FailuresArgs {
    fn default() -> Self {
        FailuresArgs {
            sim: SimulateArgs::default(),
            mttf: 50.0,
            mttr: 3.0,
            kill_rate: 0.05,
            policy: mec_sim::RecoveryPolicy::SchemeMatching,
            failure_seed: 1000,
            sla_csv: None,
        }
    }
}

/// Fully parsed `degradation` options: a fault simulation with
/// correlated failure domains, an optional cascade overlay, and the
/// graceful-degradation layer (headroom admission, load shedding,
/// bounded retries, runtime auditing).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationArgs {
    /// The underlying fault simulation (same flags as `failures`).
    pub failures: FailuresArgs,
    /// Number of zone-partition failure domains the cloudlets are
    /// split into.
    pub domains: usize,
    /// Domain mean time to failure, in slots.
    pub domain_mttf: f64,
    /// Domain mean time to repair, in slots.
    pub domain_mttr: f64,
    /// Cascade overlay; `None` disables secondary failures.
    pub cascade: Option<mec_sim::CascadeConfig>,
    /// The graceful-degradation knobs.
    pub config: mec_sim::DegradationConfig,
}

impl Default for DegradationArgs {
    fn default() -> Self {
        DegradationArgs {
            failures: FailuresArgs::default(),
            domains: 2,
            domain_mttf: 24.0,
            domain_mttr: 2.0,
            cascade: Some(mec_sim::CascadeConfig::default()),
            config: mec_sim::DegradationConfig::default(),
        }
    }
}

/// Fully parsed `serve` options: the scenario that defines the
/// instance and scheduler (shared with `simulate`) plus the daemon's
/// listening, queueing, ticking and persistence knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Scenario and scheduler selection (same flags as `simulate`;
    /// `--requests` et al. are accepted but only the instance-defining
    /// fields matter to the daemon).
    pub sim: SimulateArgs,
    /// Listen address (`--addr`).
    pub addr: String,
    /// Ingress queue bound (`--queue`); submits beyond it get typed
    /// overload rejections.
    pub queue: usize,
    /// Connection worker threads (`--workers`).
    pub workers: usize,
    /// Snapshot file (`--snapshot`); `None` disables persistence.
    pub snapshot: Option<String>,
    /// Load the snapshot, if present, before serving (`--resume`).
    pub resume: bool,
    /// Advance the virtual slot clock every this many milliseconds
    /// (`--tick-ms`); `None` advances only on `advance-slot` controls.
    pub tick_ms: Option<u64>,
    /// Run as a passive standby awaiting replication (`--standby`).
    pub standby: bool,
    /// Stream the decision log to a standby at this address
    /// (`--replicate-to`); primary role, mutually exclusive with
    /// `--standby`. Each decision reply waits for the standby's ack.
    pub replicate_to: Option<String>,
    /// Standby self-promotes after this many ms without hearing from a
    /// primary it has seen (`--auto-promote-ms`); `None` promotes only
    /// on an explicit `promote` control.
    pub auto_promote_ms: Option<u64>,
    /// Lanes (`--shards`): the cloudlets are partitioned across that
    /// many schedulers, each with its own decide thread and sharing
    /// nothing with the others. Each lane is bit-parity with the batch
    /// engine over its own cloudlets and ids; 1 is the only count with
    /// snapshots and replication.
    pub shards: usize,
    /// Flight-recorder dump directory (`--flight-dir`); the daemon
    /// writes `flight-<epoch>-<shard>.jsonl` there on panic, fencing,
    /// or a `dump-flight` control. `None` disables the recorder.
    pub flight_dir: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            sim: SimulateArgs::default(),
            addr: "127.0.0.1:7070".into(),
            queue: 256,
            workers: 4,
            snapshot: None,
            resume: false,
            tick_ms: None,
            standby: false,
            replicate_to: None,
            auto_promote_ms: None,
            shards: 1,
            flight_dir: None,
        }
    }
}

/// Fully parsed `loadgen` options: the scenario whose request stream is
/// replayed (must match the serving daemon's) plus client pacing.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenArgs {
    /// Scenario (same flags as `simulate`); `--requests` sets how many
    /// requests the closed loop replays.
    pub sim: SimulateArgs,
    /// Daemon address (`--addr`).
    pub addr: String,
    /// Target requests/second (`--rate`); 0 sends full speed.
    pub rate: f64,
    /// Skip requests with id below this (`--start-at`), to resume a
    /// partially served trace after a daemon restart.
    pub start_at: usize,
    /// Leave the daemon running when done (`--no-shutdown`); by default
    /// the generator sends a `shutdown` control and waits for the
    /// drain-then-snapshot ack.
    pub no_shutdown: bool,
    /// Write the admission-latency histogram artifact here
    /// (`--hist-out`).
    pub hist_out: Option<String>,
    /// Survive connection loss and `not-primary` refusals
    /// (`--reconnect`): rotate through the comma-separated `--addr`
    /// list with backoff and resubmit the in-flight request id.
    pub reconnect: bool,
    /// Drive the daemon open-loop (`--open-loop`): batched v3 frames
    /// over parallel connections with a bounded in-flight window,
    /// measuring saturation throughput instead of lock-step parity.
    pub open_loop: bool,
    /// Parallel connections in open-loop mode (`--conns`).
    pub conns: usize,
    /// Requests per batch frame in open-loop mode (`--batch`).
    pub batch: usize,
    /// Shard count of the daemon being driven (`--shards`); routes each
    /// shard's stream onto one connection to preserve per-shard order.
    pub shards: usize,
    /// Batch frames in flight per connection (`--window`).
    pub window: usize,
    /// Abort the whole run (typed, exit code 8) if it has not finished
    /// within this many milliseconds (`--deadline-ms`); `None` waits
    /// forever.
    pub deadline_ms: Option<u64>,
}

impl Default for LoadgenArgs {
    fn default() -> Self {
        LoadgenArgs {
            sim: SimulateArgs::default(),
            addr: "127.0.0.1:7070".into(),
            rate: 0.0,
            start_at: 0,
            no_shutdown: false,
            hist_out: None,
            reconnect: false,
            open_loop: false,
            conns: 2,
            batch: 64,
            shards: 1,
            window: 4,
            deadline_ms: None,
        }
    }
}

/// Fully parsed `chaos-drill` options: the scenario replayed through
/// every chaos cell plus the fault-schedule seed and report target.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosDrillArgs {
    /// Scenario (same flags as `simulate`); `--requests` sets the trace
    /// length per cell. `--scheme` is ignored — the drill matrix runs
    /// both schemes.
    pub sim: SimulateArgs,
    /// Seed of the chaos fault schedule (`--chaos-seed`), independent
    /// of the workload seed so the same outage pattern can replay
    /// against different scenarios.
    pub chaos_seed: u64,
    /// Shrink the trace for CI smoke runs (`--quick`).
    pub quick: bool,
    /// Where the greppable drill report goes (`--out`).
    pub out: String,
    /// Directory the process cell's flight recorders dump into
    /// (`--flight-dir`, one subdirectory per scheme): the panicked
    /// shards' rings plus the post-heal shutdown dumps. `None` leaves
    /// the recorders off.
    pub flight_dir: Option<String>,
}

impl Default for ChaosDrillArgs {
    fn default() -> Self {
        ChaosDrillArgs {
            sim: SimulateArgs {
                requests: 120,
                ..SimulateArgs::default()
            },
            chaos_seed: 7,
            quick: false,
            out: "results/chaos_drill.txt".into(),
            flight_dir: None,
        }
    }
}

/// Fully parsed `chaos-proxy` options: a standalone fault-injecting
/// TCP proxy for interposing on a daemon by hand.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosProxyArgs {
    /// Upstream daemon address (`--upstream`).
    pub upstream: String,
    /// Seed of the fault schedule (`--chaos-seed`).
    pub chaos_seed: u64,
    /// Suppress the provenance note on stderr.
    pub quiet: bool,
}

/// Fully parsed `failover-drill` options: the scenario shared by the
/// primary/standby pair plus the kill point and report target.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverDrillArgs {
    /// Scenario (same flags as `simulate`); `--requests` sets how many
    /// requests the drill replays across the failover.
    pub sim: SimulateArgs,
    /// Kill the primary once it has accepted at least this many
    /// submissions (`--kill-at`).
    pub kill_at: usize,
    /// Write the greppable drill report here as well as stdout
    /// (`--out`).
    pub out: Option<String>,
}

impl Default for FailoverDrillArgs {
    fn default() -> Self {
        FailoverDrillArgs {
            sim: SimulateArgs {
                requests: 120,
                ..SimulateArgs::default()
            },
            kill_at: 40,
            out: None,
        }
    }
}

/// Fully parsed `chain` options: a scenario (shared with `simulate`)
/// plus the chain workload and backup-sharing knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainArgs {
    /// Scenario flags (topology, seed, horizon, capacity, …). With
    /// `--mixed`, `--requests` single-VNF requests join the workload;
    /// `--failure-trials` sizes the Monte-Carlo chain referee.
    pub sim: SimulateArgs,
    /// Number of chain requests (`--chains`).
    pub chains: usize,
    /// Chain length band (`--chain-len LO:HI`).
    pub chain_len: (usize, usize),
    /// End-to-end latency budget band (`--latency-budget LO:HI`).
    pub latency_budget: (f64, f64),
    /// Mix `--requests` single-VNF requests into the same run
    /// (`--mixed`).
    pub mixed: bool,
    /// Standby sharing: `on` = shared pool, `off` = dedicated standbys,
    /// `none` = primaries only (`--shared-backups`).
    pub backups: vnfrel::chain::BackupMode,
    /// Per-standby subscriber failure-mass cap ε
    /// (`--backup-mass-cap`).
    pub mass_cap: f64,
    /// CI smoke preset: small workload, fewer trials (`--quick`).
    pub quick: bool,
}

impl Default for ChainArgs {
    fn default() -> Self {
        ChainArgs {
            sim: SimulateArgs {
                failure_trials: 20_000,
                ..SimulateArgs::default()
            },
            chains: 120,
            chain_len: (1, 3),
            latency_budget: (3.0, 12.0),
            mixed: false,
            backups: vnfrel::chain::BackupMode::Shared,
            mass_cap: vnfrel::chain::DEFAULT_MASS_CAP,
            quick: false,
        }
    }
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one simulation and print metrics.
    Simulate(SimulateArgs),
    /// Run a service-function-chain (optionally mixed) simulation.
    Chain(ChainArgs),
    /// Run a fault-aware simulation with online recovery and SLA
    /// accounting.
    Failures(FailuresArgs),
    /// Run a fault-aware simulation with correlated failure domains,
    /// cascades, and graceful degradation.
    Degradation(DegradationArgs),
    /// Run the long-running admission daemon.
    Serve(ServeArgs),
    /// Drive a running daemon with the closed-loop load generator.
    Loadgen(LoadgenArgs),
    /// Promote a standby daemon to primary (fenced failover).
    Promote {
        /// The standby's address.
        addr: String,
        /// Suppress the provenance note on stderr.
        quiet: bool,
    },
    /// Ask a running daemon to dump its flight-recorder rings to disk
    /// (`flight-<epoch>-<shard>.jsonl` under its `--flight-dir`).
    DumpFlight {
        /// The daemon's address.
        addr: String,
        /// Suppress the provenance note on stderr.
        quiet: bool,
    },
    /// Run the kill-the-primary failover drill: primary + standby pair,
    /// SIGKILL mid-load, promotion, and state-parity assertions against
    /// a single-process golden run.
    FailoverDrill(FailoverDrillArgs),
    /// Run the chaos drill: network, disk, and process fault families
    /// against both schemes, self-healing, and an invariant referee.
    ChaosDrill(ChaosDrillArgs),
    /// Run a standalone fault-injecting proxy in front of a daemon.
    ChaosProxy(ChaosProxyArgs),
    /// Aggregate a trace or flight-recorder dump into a per-stage,
    /// per-shard latency breakdown.
    ServeReport {
        /// Path of the JSONL trace / flight dump to aggregate.
        trace: String,
        /// Also write the breakdown table here.
        out: Option<String>,
        /// Suppress the provenance note on stderr.
        quiet: bool,
    },
    /// Replay a recorded trace and explain one request's decision.
    Explain {
        /// The request (or chain) id to explain.
        request: usize,
        /// Whether the id names a chain request (`chain:<N>`) instead
        /// of a single-VNF request.
        chain: bool,
        /// Path of the JSONL trace to replay.
        trace: String,
        /// Suppress the provenance note on stderr.
        quiet: bool,
    },
    /// Print stats (and optionally DOT) for a topology.
    Topo {
        /// Network to describe.
        topology: TopologyChoice,
        /// Emit Graphviz DOT instead of stats.
        dot: bool,
        /// Seed for cloudlet placement.
        seed: u64,
    },
    /// Print usage.
    Help,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text printed by `vnfrel help`.
pub const USAGE: &str = "\
vnfrel — reliability-aware VNF scheduling experiments

USAGE:
  vnfrel simulate [OPTIONS]     run one online-scheduling simulation
  vnfrel chain [OPTIONS]        schedule service function chains (optionally
                                mixed with single-VNF requests)
  vnfrel failures [OPTIONS]     simulate under dynamic outages with recovery
  vnfrel degradation [OPTIONS]  correlated domain outages, cascades, and
                                graceful degradation
  vnfrel serve [OPTIONS]        run the admission daemon (line-JSON over TCP)
  vnfrel loadgen [OPTIONS]      replay a generated trace against a daemon
  vnfrel promote <ADDR>         promote a standby daemon to primary
  vnfrel dump-flight <ADDR>     dump a daemon's flight-recorder rings
  vnfrel failover-drill [OPTIONS]  kill-the-primary replication drill
  vnfrel chaos-drill [OPTIONS]  deterministic fault-injection drill with an
                                invariant referee (network/disk/process)
  vnfrel chaos-proxy [OPTIONS]  standalone fault-injecting TCP proxy
  vnfrel serve-report <PATH>    per-stage latency breakdown of a trace or
                                flight-recorder dump
  vnfrel explain <ID> --trace <PATH>  replay a trace, explain one request
  vnfrel topo [OPTIONS]         describe a topology (--dot for Graphviz)
  vnfrel help                   show this text

Result tables go to stdout; provenance and progress notes go to stderr
(suppress them with --quiet/-q).

SIMULATE OPTIONS (defaults in brackets):
  --topology <T>        abilene|cesnet|nsfnet|aarnet|garr|att|geant|er:N:P|ba:N:M|grid:R:C [abilene]
  --requests <N>        number of requests [200]
  --scheme <S>          onsite|offsite [onsite]
  --algorithm <A>       primal-dual|greedy|random|density [primal-dual]
  --seed <U64>          RNG seed [1]
  --horizon <N>         slots in the monitoring period [16]
  --capacity <LO:HI>    cloudlet capacity range [8:12]
  --cloudlet-rel <LO:HI> cloudlet reliability range [0.99:0.9999]
  --requirement <LO:HI> request reliability requirements [0.9:0.95]
  --payment <LO:HI>     payment-rate band [1:10]
  --fraction <F>        fraction of APs hosting cloudlets [0.5]
  --failure-trials <N>  Monte-Carlo availability check (0 = off) [0]
  --threads <N>         worker threads for the Monte-Carlo check (0 = all cores) [0]
  --trace <PATH>        record one JSONL event per scheduling decision
                        (primal-dual and greedy algorithms only)
  --metrics <PATH>      write a metrics snapshot after the run;
                        .json/.jsonl selects JSONL, else Prometheus text
  --timeline-csv <PATH> write the per-slot timeline as CSV
  --quiet, -q           suppress stderr notes

CHAIN OPTIONS (scenario flags as SIMULATE — topology, seed, horizon,
capacity, … — `--failure-trials` sizes the Monte-Carlo chain referee
[20000]; plus):
  --chains <N>          number of chain requests [120]
  --chain-len <LO:HI>   stages per chain [1:3]
  --latency-budget <LO:HI> end-to-end latency budget band [3:12]
  --mixed               also generate --requests single-VNF requests
                        contending for the same capacity and prices
  --shared-backups <M>  on (shared standby pool) | off (dedicated
                        standbys) | none (primaries only) [on]
  --backup-mass-cap <F> per-standby subscriber failure-mass cap ε [0.05]
  --quick               CI smoke preset: small workload, fewer trials
  (--trace records chain decision + path events; `vnfrel explain
  chain:<ID> --trace <PATH>` replays them)

FAILURES OPTIONS (all SIMULATE OPTIONS, plus):
  --mttf <F>            cloudlet mean time to failure, slots [50]
  --mttr <F>            cloudlet mean time to repair, slots [3]
  --kill-rate <F>       per-slot single-instance kill probability [0.05]
  --policy <P>          none|onsite|offsite|matching [matching]
  --failure-seed <U64>  seed of the outage trace [1000]
  --sla-csv <PATH>      write the per-request SLA ledger as CSV
                        (--trace also records outage/kill/breach/recovery
                        events here)

DEGRADATION OPTIONS (all FAILURES OPTIONS, plus):
  --domains <N>         zone-partition failure domains [2]
  --domain-mttf <F>     domain mean time to failure, slots [24]
  --domain-mttr <F>     domain mean time to repair, slots [2]
  --no-cascade          disable the secondary-failure overlay
  --cascade-threshold <F> utilization fraction that puts survivors at
                        risk [0.85]
  --cascade-hazard <F>  per-trigger cascade probability [0.3]
  --cascade-slots <N>   slots a cascade outage lasts [2]
  --headroom <F>        capacity fraction reserved while degraded [0.1]
  --max-retries <N>     re-placement attempts per failure episode [4]
  --backoff <N>         base of the exponential retry backoff, slots [1]
  --no-shed             disable the revenue-aware load shedder
  --no-audit            disable the runtime invariant auditor

SERVE OPTIONS (scenario flags as SIMULATE — topology, seed, horizon,
capacity, scheme, algorithm, … define the instance and must match the
loadgen side — plus):
  --addr <HOST:PORT>    listen address; port 0 picks a free port [127.0.0.1:7070]
  --queue <N>           ingress queue bound; submits beyond it get typed
                        overload rejections [256]
  --workers <N>         connection worker threads [4]
  --snapshot <PATH>     crash-consistent snapshot target (written on the
                        snapshot control and at shutdown)
  --resume              load the snapshot, if present, before serving
  --tick-ms <N>         advance the virtual slot clock every N ms
                        (default: only on advance-slot control messages)
  --trace <PATH>        tee every decision to a JSONL trace
  --replicate-to <ADDR> stream the decision log to a standby daemon
                        (primary role); each decision reply waits for
                        the standby's ack, and while no standby is
                        reachable replies wait (bound it with the
                        loadgen's --deadline-ms)
  --standby             apply a primary's log and refuse submits with
                        not-primary until promoted (vnfrel promote)
  --auto-promote-ms <N> standby self-promotes after N ms of primary
                        silence (requires --standby)
  --shards <S>          partition the cloudlets across S lanes, each
                        with its own scheduler and decide thread: lane
                        s places ids = s (mod S) on cloudlets = s
                        (mod S) and shares nothing with the others (one
                        daemon at any S; S > 1 is primal-dual only and
                        refuses --snapshot/--resume/--standby/
                        --replicate-to, which cover one scheduler) [1]
  --flight-dir <DIR>    keep a bounded in-memory flight recorder of
                        recent pipeline events per shard and dump it as
                        flight-<epoch>-<shard>.jsonl on panic, fencing,
                        or the dump-flight control
  (--algorithm primal-dual|greedy only; metrics are served over HTTP as
  GET /metrics on the same port — GET /status returns a JSON summary of
  role, epoch, uptime, and per-shard queue depths — not written to a
  file; a fenced daemon — one whose standby was promoted behind its
  back — exits with code 7)

LOADGEN OPTIONS (scenario flags as SIMULATE; --requests sets the trace
length; plus):
  --addr <HOST:PORT>    daemon address [127.0.0.1:7070]
  --rate <F>            target requests/second (0 = full speed) [0]
  --start-at <ID>       skip requests below this id (resume a
                        partially served trace) [0]
  --no-shutdown         leave the daemon running when done
  --hist-out <PATH>     write the admission-latency histogram artifact
  --reconnect           survive failover: --addr may list several
                        daemons (comma-separated); connection loss and
                        not-primary refusals rotate with backoff and
                        resubmit the in-flight id (deduped server-side)
  --open-loop           drive the daemon open-loop: batched v3 frames,
                        parallel connections, bounded in-flight window;
                        measures saturation throughput and tail latency
  --conns <C>           parallel connections (--open-loop) [2]
  --batch <N>           requests per batch frame (--open-loop) [64]
  --shards <S>          shard count of the daemon being driven; routes
                        each shard onto one connection (--open-loop) [1]
  --window <W>          batch frames in flight per connection
                        (--open-loop) [4]
  --deadline-ms <N>     abort the whole run with exit code 8 if it has
                        not finished within N ms (a wall-clock budget
                        for scripted runs against flaky clusters)

PROMOTE OPTIONS:
  vnfrel promote <ADDR> | --addr <ADDR>
                        sends the promote control and waits for the new
                        epoch's ack

DUMP-FLIGHT OPTIONS:
  vnfrel dump-flight <ADDR> | --addr <ADDR>
                        sends the dump-flight control; the daemon writes
                        flight-<epoch>-<shard>.jsonl under its
                        --flight-dir (no-op ack without one)

FAILOVER-DRILL OPTIONS (scenario flags as SIMULATE; --requests sets the
trace length; plus):
  --kill-at <N>         SIGKILL the primary once it has accepted N
                        submissions (strictly inside the trace) [40]
  --out <PATH>          also write the greppable drill report here

CHAOS-DRILL OPTIONS (scenario flags as SIMULATE; --requests sets the
trace length per cell; --scheme is ignored — the matrix runs both):
  --chaos-seed <U64>    seed of the deterministic fault schedule [7]
  --quick               shrink the trace for CI smoke runs
  --out <PATH>          greppable drill report target
                        [results/chaos_drill.txt]
  --flight-dir <DIR>    dump the process cell's per-shard flight rings
                        here (one subdirectory per scheme) [off]
  (runs network faults through in-process proxies on the client and
  replication links, snapshot-I/O faults at every write/fsync/rename
  boundary, and chaos-panic decide-thread kills; each cell is refereed
  for lost acked admits, double charges, ledger balance, and acks after
  fencing, and healed state must be revenue-bit-identical to an
  un-chaosed golden run)

CHAOS-PROXY OPTIONS:
  --upstream <ADDR>     daemon address to forward to (required)
  --chaos-seed <U64>    seed of the deterministic fault schedule [7]
  --quiet, -q           suppress stderr notes
  (binds an ephemeral loopback port, prints it to stdout, and forwards
  line frames while injecting drops, delays, truncations, stalls and
  partitions per the schedule; point a loadgen --reconnect at it)

SERVE-REPORT OPTIONS:
  vnfrel serve-report <PATH> | --trace <PATH>
                        aggregate the stage samples in a JSONL trace or
                        flight-recorder dump into a per-stage, per-shard
                        p50/p90/p99 table and name the bottleneck stage
  --out <PATH>          also write the breakdown table here
  --quiet, -q           suppress stderr notes

EXPLAIN OPTIONS:
  vnfrel explain <ID> | chain:<ID>  a single-VNF request id, or a chain
                        id prefixed with `chain:`
  --trace <PATH>        the JSONL trace to replay (required)
  --quiet, -q           suppress stderr notes

TOPO OPTIONS:
  --topology <T>        as above [abilene]
  --seed <U64>          cloudlet placement seed [1]
  --dot                 emit Graphviz DOT
";

/// Parses a full argument vector (excluding the program name).
///
/// # Errors
///
/// Returns [`ParseError`] with a message suitable for direct printing.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "simulate" => {
            let out = fold(rest, SimulateArgs::default(), sim_flag)?;
            check_sim(&out)?;
            Ok(Command::Simulate(out))
        }
        "chain" => parse_chain(rest),
        "failures" => {
            let out = fold(rest, FailuresArgs::default(), failures_flag)?;
            check_sim(&out.sim)?;
            Ok(Command::Failures(out))
        }
        "degradation" => parse_degradation(rest),
        "serve" => parse_serve(rest),
        "loadgen" => parse_loadgen(rest),
        "promote" => {
            let (addr, quiet) = parse_addr("promote", rest)?;
            Ok(Command::Promote { addr, quiet })
        }
        "dump-flight" => {
            let (addr, quiet) = parse_addr("dump-flight", rest)?;
            Ok(Command::DumpFlight { addr, quiet })
        }
        "failover-drill" => parse_failover_drill(rest),
        "chaos-drill" => parse_chaos_drill(rest),
        "chaos-proxy" => parse_chaos_proxy(rest),
        "serve-report" => parse_serve_report(rest),
        "explain" => parse_explain(rest),
        "topo" => parse_topo(rest),
        other => Err(ParseError(format!(
            "unknown command `{other}` (try `vnfrel help`)"
        ))),
    }
}

/// The words after a command, handed to its flag arms one flag at a
/// time: an arm that takes a value reads it from here.
struct Cursor<'a>(std::slice::Iter<'a, String>);

impl Cursor<'_> {
    /// The word after `flag`.
    fn value(&mut self, flag: &str) -> Result<String, ParseError> {
        self.0
            .next()
            .cloned()
            .ok_or_else(|| ParseError(format!("{flag} expects a value")))
    }

    /// The word after `flag`, as a number.
    fn num<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, ParseError> {
        parse_num(&self.value(flag)?, flag)
    }

    /// The word after `flag`, as a `LO:HI` range.
    fn range<T: std::str::FromStr>(&mut self, flag: &str) -> Result<(T, T), ParseError> {
        let s = self.value(flag)?;
        let (a, b) = s
            .split_once(':')
            .ok_or_else(|| ParseError(format!("range `{s}` must look like LO:HI")))?;
        Ok((parse_num(a, "range low")?, parse_num(b, "range high")?))
    }
}

/// Reads `args` into `out`, which starts as the command's defaults, one
/// word at a time: `step` applies a flag (reading its value, if any,
/// from the cursor) and returns `Ok(false)` for a word the command does
/// not take.
fn fold<T>(
    args: &[String],
    mut out: T,
    mut step: impl FnMut(&mut T, &str, &mut Cursor<'_>) -> Result<bool, ParseError>,
) -> Result<T, ParseError> {
    let mut cur = Cursor(args.iter());
    while let Some(flag) = cur.0.next() {
        if !step(&mut out, flag, &mut cur)? {
            return Err(ParseError(format!("unknown option `{flag}`")));
        }
    }
    Ok(out)
}

/// Applies one scenario flag, shared by every command that builds a
/// scenario. Returns `Ok(false)` when `flag` is not one.
fn sim_flag(out: &mut SimulateArgs, flag: &str, cur: &mut Cursor<'_>) -> Result<bool, ParseError> {
    match flag {
        "--topology" => out.topology = parse_topology(&cur.value(flag)?)?,
        "--requests" => out.requests = cur.num(flag)?,
        "--scheme" => {
            out.scheme = match cur.value(flag)?.as_str() {
                "onsite" | "on-site" => vnfrel::Scheme::OnSite,
                "offsite" | "off-site" => vnfrel::Scheme::OffSite,
                s => return Err(ParseError(format!("unknown scheme `{s}`"))),
            }
        }
        "--algorithm" => {
            out.algorithm = match cur.value(flag)?.as_str() {
                "primal-dual" | "pd" => AlgorithmChoice::PrimalDual,
                "greedy" => AlgorithmChoice::Greedy,
                "random" => AlgorithmChoice::Random,
                "density" => AlgorithmChoice::Density,
                s => return Err(ParseError(format!("unknown algorithm `{s}`"))),
            }
        }
        "--seed" => out.seed = cur.num(flag)?,
        "--horizon" => {
            out.horizon = cur.num(flag)?;
            if out.horizon == 0 {
                return Err(ParseError("--horizon must be at least 1".into()));
            }
        }
        "--capacity" => out.capacity = cur.range(flag)?,
        "--cloudlet-rel" => out.cloudlet_reliability = cur.range(flag)?,
        "--requirement" => out.requirement = cur.range(flag)?,
        "--payment" => out.payment_rate = cur.range(flag)?,
        "--fraction" => {
            out.cloudlet_fraction = cur
                .value(flag)?
                .parse()
                .map_err(|_| ParseError("--fraction expects a float".into()))?
        }
        "--failure-trials" => out.failure_trials = cur.num(flag)?,
        "--threads" => out.threads = cur.num(flag)?,
        "--trace" => out.trace = Some(cur.value(flag)?),
        "--metrics" => out.metrics = Some(cur.value(flag)?),
        "--timeline-csv" => out.timeline_csv = Some(cur.value(flag)?),
        "--quiet" | "-q" => out.quiet = true,
        _ => return Ok(false),
    }
    Ok(true)
}

fn check_sim(out: &SimulateArgs) -> Result<(), ParseError> {
    if out.algorithm == AlgorithmChoice::Density && out.scheme == vnfrel::Scheme::OffSite {
        return Err(ParseError("--algorithm density is on-site only".into()));
    }
    Ok(())
}

/// The daemon-backed commands replay primal-dual or greedy schedulers only.
fn check_pd_or_greedy(cmd: &str, algorithm: AlgorithmChoice) -> Result<(), ParseError> {
    if !matches!(
        algorithm,
        AlgorithmChoice::PrimalDual | AlgorithmChoice::Greedy
    ) {
        return Err(ParseError(format!(
            "{cmd} supports the primal-dual and greedy algorithms only"
        )));
    }
    Ok(())
}

fn parse_chain(rest: &[String]) -> Result<Command, ParseError> {
    let out = fold(rest, ChainArgs::default(), |out, flag, cur| {
        match flag {
            "--chains" => out.chains = cur.num(flag)?,
            "--chain-len" => out.chain_len = cur.range(flag)?,
            "--latency-budget" => out.latency_budget = cur.range(flag)?,
            "--mixed" => out.mixed = true,
            "--shared-backups" => {
                out.backups = match cur.value(flag)?.as_str() {
                    "on" | "shared" => vnfrel::chain::BackupMode::Shared,
                    "off" | "dedicated" => vnfrel::chain::BackupMode::Dedicated,
                    "none" => vnfrel::chain::BackupMode::None,
                    s => {
                        return Err(ParseError(format!(
                            "--shared-backups expects on|off|none, got `{s}`"
                        )))
                    }
                }
            }
            "--backup-mass-cap" => {
                let v: f64 = cur
                    .value(flag)?
                    .parse()
                    .map_err(|_| ParseError("--backup-mass-cap expects a float".into()))?;
                if !(v > 0.0 && v < 1.0) {
                    return Err(ParseError("--backup-mass-cap must be in (0, 1)".into()));
                }
                out.mass_cap = v;
            }
            "--quick" => out.quick = true,
            _ => return sim_flag(&mut out.sim, flag, cur),
        }
        Ok(true)
    })?;
    if out.chain_len.0 == 0 || out.chain_len.0 > out.chain_len.1 {
        return Err(ParseError(
            "--chain-len expects 1 <= LO <= HI (empty chains are not admissible)".into(),
        ));
    }
    Ok(Command::Chain(out))
}

/// Applies one `failures`-family flag (shared between the `failures`
/// and `degradation` commands), falling through to the scenario flags.
/// Returns `Ok(false)` when the flag belongs to neither family.
fn failures_flag(
    out: &mut FailuresArgs,
    flag: &str,
    cur: &mut Cursor<'_>,
) -> Result<bool, ParseError> {
    match flag {
        "--mttf" => out.mttf = cur.num(flag)?,
        "--mttr" => out.mttr = cur.num(flag)?,
        "--kill-rate" => out.kill_rate = cur.num(flag)?,
        "--policy" => {
            out.policy = match cur.value(flag)?.as_str() {
                "none" => mec_sim::RecoveryPolicy::None,
                "onsite" | "on-site" => mec_sim::RecoveryPolicy::OnSite,
                "offsite" | "off-site" => mec_sim::RecoveryPolicy::OffSite,
                "matching" | "scheme-matching" => mec_sim::RecoveryPolicy::SchemeMatching,
                s => return Err(ParseError(format!("unknown recovery policy `{s}`"))),
            }
        }
        "--failure-seed" => out.failure_seed = cur.num(flag)?,
        "--sla-csv" => out.sla_csv = Some(cur.value(flag)?),
        _ => return sim_flag(&mut out.sim, flag, cur),
    }
    Ok(true)
}

fn parse_degradation(rest: &[String]) -> Result<Command, ParseError> {
    let out = fold(rest, DegradationArgs::default(), |out, flag, cur| {
        match flag {
            "--domains" => out.domains = cur.num(flag)?,
            "--domain-mttf" => out.domain_mttf = cur.num(flag)?,
            "--domain-mttr" => out.domain_mttr = cur.num(flag)?,
            "--no-cascade" => out.cascade = None,
            "--cascade-threshold" => {
                out.cascade
                    .get_or_insert_with(Default::default)
                    .utilization_threshold = cur.num(flag)?
            }
            "--cascade-hazard" => {
                out.cascade.get_or_insert_with(Default::default).hazard = cur.num(flag)?
            }
            "--cascade-slots" => {
                out.cascade
                    .get_or_insert_with(Default::default)
                    .outage_slots = cur.num(flag)?
            }
            "--headroom" => out.config.headroom = cur.num(flag)?,
            "--max-retries" => out.config.max_retries = cur.num(flag)?,
            "--backoff" => out.config.backoff_base = cur.num(flag)?,
            "--no-shed" => out.config.shed = false,
            "--no-audit" => out.config.audit = false,
            _ => return failures_flag(&mut out.failures, flag, cur),
        }
        Ok(true)
    })?;
    if out.domains == 0 {
        return Err(ParseError("--domains must be at least 1".into()));
    }
    check_sim(&out.failures.sim)?;
    Ok(Command::Degradation(out))
}

fn parse_serve(rest: &[String]) -> Result<Command, ParseError> {
    let out = fold(rest, ServeArgs::default(), |out, flag, cur| {
        match flag {
            "--addr" => out.addr = cur.value(flag)?,
            "--queue" => out.queue = cur.num(flag)?,
            "--workers" => out.workers = cur.num(flag)?,
            "--snapshot" => out.snapshot = Some(cur.value(flag)?),
            "--resume" => out.resume = true,
            "--tick-ms" => out.tick_ms = Some(cur.num(flag)?),
            "--standby" => out.standby = true,
            "--replicate-to" => out.replicate_to = Some(cur.value(flag)?),
            "--auto-promote-ms" => out.auto_promote_ms = Some(cur.num(flag)?),
            "--shards" => out.shards = cur.num(flag)?,
            "--flight-dir" => out.flight_dir = Some(cur.value(flag)?),
            _ => return sim_flag(&mut out.sim, flag, cur),
        }
        Ok(true)
    })?;
    if out.queue == 0 {
        return Err(ParseError("--queue must be at least 1".into()));
    }
    if out.standby && out.replicate_to.is_some() {
        return Err(ParseError(
            "--standby and --replicate-to are mutually exclusive (chained replication is not \
             supported)"
                .into(),
        ));
    }
    if out.auto_promote_ms.is_some() && !out.standby {
        return Err(ParseError("--auto-promote-ms requires --standby".into()));
    }
    check_pd_or_greedy("serve", out.sim.algorithm)?;
    if out.shards == 0 {
        return Err(ParseError("--shards must be at least 1".into()));
    }
    if out.shards > 1 {
        if out.standby || out.replicate_to.is_some() {
            return Err(ParseError(
                "--shards > 1 is incompatible with replication (--standby/--replicate-to); \
                 sharded serving is the throughput tier, replication needs --shards 1"
                    .into(),
            ));
        }
        if out.snapshot.is_some() || out.resume {
            return Err(ParseError(
                "--shards > 1 is incompatible with --snapshot/--resume; snapshots need \
                 --shards 1"
                    .into(),
            ));
        }
        if !matches!(out.sim.algorithm, AlgorithmChoice::PrimalDual) {
            return Err(ParseError(
                "--shards > 1 supports --algorithm primal-dual only".into(),
            ));
        }
    }
    check_sim(&out.sim)?;
    Ok(Command::Serve(out))
}

fn parse_loadgen(rest: &[String]) -> Result<Command, ParseError> {
    let out = fold(rest, LoadgenArgs::default(), |out, flag, cur| {
        match flag {
            "--addr" => out.addr = cur.value(flag)?,
            "--rate" => out.rate = cur.num(flag)?,
            "--start-at" => out.start_at = cur.num(flag)?,
            "--no-shutdown" => out.no_shutdown = true,
            "--hist-out" => out.hist_out = Some(cur.value(flag)?),
            "--reconnect" => out.reconnect = true,
            "--open-loop" => out.open_loop = true,
            "--conns" => out.conns = cur.num(flag)?,
            "--batch" => out.batch = cur.num(flag)?,
            "--shards" => out.shards = cur.num(flag)?,
            "--window" => out.window = cur.num(flag)?,
            "--deadline-ms" => out.deadline_ms = Some(cur.num(flag)?),
            _ => return sim_flag(&mut out.sim, flag, cur),
        }
        Ok(true)
    })?;
    if out.deadline_ms == Some(0) {
        return Err(ParseError("--deadline-ms must be at least 1".into()));
    }
    if out.rate < 0.0 || !out.rate.is_finite() {
        return Err(ParseError(
            "--rate must be a finite non-negative rate".into(),
        ));
    }
    let closed = LoadgenArgs::default();
    if out.open_loop {
        if out.reconnect {
            return Err(ParseError(
                "--open-loop and --reconnect are mutually exclusive (open-loop never \
                 retries; shed load is the measurement)"
                    .into(),
            ));
        }
        if out.start_at != 0 {
            return Err(ParseError("--start-at requires closed-loop mode".into()));
        }
        if out.deadline_ms.is_some() {
            return Err(ParseError("--deadline-ms requires closed-loop mode".into()));
        }
        if out.conns == 0 || out.shards == 0 || out.window == 0 {
            return Err(ParseError(
                "--conns, --shards and --window must all be at least 1".into(),
            ));
        }
        if out.batch == 0 {
            return Err(ParseError("--batch must be at least 1".into()));
        }
    } else if (out.conns, out.batch, out.shards, out.window)
        != (closed.conns, closed.batch, closed.shards, closed.window)
    {
        return Err(ParseError(
            "--conns/--batch/--shards/--window require --open-loop".into(),
        ));
    }
    check_sim(&out.sim)?;
    Ok(Command::Loadgen(out))
}

/// `promote` and `dump-flight`: the daemon's address, as the first
/// positional word or `--addr`, and `--quiet`.
fn parse_addr(cmd: &str, rest: &[String]) -> Result<(String, bool), ParseError> {
    let (addr, quiet) = fold(rest, (None, false), |(addr, quiet), flag, cur| {
        match flag {
            "--addr" => *addr = Some(cur.value(flag)?),
            "--quiet" | "-q" => *quiet = true,
            s if !s.starts_with('-') && addr.is_none() => *addr = Some(s.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let addr =
        addr.ok_or_else(|| ParseError(format!("{cmd} needs an address (vnfrel {cmd} <ADDR>)")))?;
    Ok((addr, quiet))
}

fn parse_failover_drill(rest: &[String]) -> Result<Command, ParseError> {
    let out = fold(rest, FailoverDrillArgs::default(), |out, flag, cur| {
        match flag {
            "--kill-at" => out.kill_at = cur.num(flag)?,
            "--out" => out.out = Some(cur.value(flag)?),
            _ => return sim_flag(&mut out.sim, flag, cur),
        }
        Ok(true)
    })?;
    if out.kill_at == 0 || out.kill_at >= out.sim.requests {
        return Err(ParseError(format!(
            "--kill-at must fall strictly inside the trace (1..{})",
            out.sim.requests
        )));
    }
    check_pd_or_greedy("failover-drill", out.sim.algorithm)?;
    check_sim(&out.sim)?;
    Ok(Command::FailoverDrill(out))
}

fn parse_chaos_drill(rest: &[String]) -> Result<Command, ParseError> {
    let out = fold(rest, ChaosDrillArgs::default(), |out, flag, cur| {
        match flag {
            "--chaos-seed" => out.chaos_seed = cur.num(flag)?,
            "--quick" => out.quick = true,
            "--out" => out.out = cur.value(flag)?,
            "--flight-dir" => out.flight_dir = Some(cur.value(flag)?),
            _ => return sim_flag(&mut out.sim, flag, cur),
        }
        Ok(true)
    })?;
    if out.sim.requests < 8 {
        return Err(ParseError(
            "chaos-drill needs --requests of at least 8 (every cell splits the trace)".into(),
        ));
    }
    if !matches!(out.sim.algorithm, AlgorithmChoice::PrimalDual) {
        return Err(ParseError(
            "chaos-drill supports --algorithm primal-dual only (the process cell shards)".into(),
        ));
    }
    check_sim(&out.sim)?;
    Ok(Command::ChaosDrill(out))
}

fn parse_chaos_proxy(rest: &[String]) -> Result<Command, ParseError> {
    let (upstream, chaos_seed, quiet) = fold(
        rest,
        (None, 7, false),
        |(upstream, seed, quiet), flag, cur| {
            match flag {
                "--upstream" => *upstream = Some(cur.value(flag)?),
                "--chaos-seed" => *seed = cur.num(flag)?,
                "--quiet" | "-q" => *quiet = true,
                s if !s.starts_with('-') && upstream.is_none() => *upstream = Some(s.to_string()),
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    Ok(Command::ChaosProxy(ChaosProxyArgs {
        upstream: upstream.ok_or_else(|| {
            ParseError("chaos-proxy needs an upstream (vnfrel chaos-proxy <ADDR>)".into())
        })?,
        chaos_seed,
        quiet,
    }))
}

fn parse_serve_report(rest: &[String]) -> Result<Command, ParseError> {
    let init = (None, None, false);
    let (trace, out, quiet) = fold(rest, init, |(trace, out, quiet), flag, cur| {
        match flag {
            "--trace" => *trace = Some(cur.value(flag)?),
            "--out" => *out = Some(cur.value(flag)?),
            "--quiet" | "-q" => *quiet = true,
            s if !s.starts_with('-') && trace.is_none() => *trace = Some(s.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Command::ServeReport {
        trace: trace.ok_or_else(|| {
            ParseError("serve-report needs a trace path (vnfrel serve-report <PATH>)".into())
        })?,
        out,
        quiet,
    })
}

fn parse_explain(rest: &[String]) -> Result<Command, ParseError> {
    let init = (None, None, false);
    let (request, trace, quiet) = fold(rest, init, |(request, trace, quiet), flag, cur| {
        match flag {
            "--trace" => *trace = Some(cur.value(flag)?),
            "--quiet" | "-q" => *quiet = true,
            // `chain:<N>` targets a chain request (σN namespace),
            // a bare number a single-VNF request (ρN namespace).
            s if !s.starts_with('-') && request.is_none() => {
                *request = Some(match s.strip_prefix("chain:") {
                    Some(id) => (parse_num(id, "chain id")?, true),
                    None => (parse_num(s, "request id")?, false),
                })
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let (request, chain) = request.ok_or_else(|| {
        ParseError("explain needs a request id (vnfrel explain <ID> | chain:<ID>)".into())
    })?;
    Ok(Command::Explain {
        request,
        chain,
        trace: trace.ok_or_else(|| ParseError("explain needs --trace <PATH>".into()))?,
        quiet,
    })
}

fn parse_topo(rest: &[String]) -> Result<Command, ParseError> {
    let init = (TopologyChoice::Zoo("abilene".into()), false, 1);
    let (topology, dot, seed) = fold(rest, init, |(topology, dot, seed), flag, cur| {
        match flag {
            "--topology" => *topology = parse_topology(&cur.value(flag)?)?,
            "--seed" => *seed = cur.num(flag)?,
            "--dot" => *dot = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Command::Topo {
        topology,
        dot,
        seed,
    })
}

fn parse_topology(s: &str) -> Result<TopologyChoice, ParseError> {
    let lower = s.to_ascii_lowercase();
    match lower.as_str() {
        "abilene" | "nsfnet" | "aarnet" | "att" | "att-na" | "geant" | "garr" | "cesnet" => {
            Ok(TopologyChoice::Zoo(lower))
        }
        _ if lower.starts_with("er:") => {
            let parts: Vec<&str> = lower.splitn(3, ':').collect();
            if parts.len() != 3 {
                return Err(ParseError("er topology needs er:N:P".into()));
            }
            Ok(TopologyChoice::ErdosRenyi {
                n: parse_num(parts[1], "er node count")?,
                p: parts[2]
                    .parse()
                    .map_err(|_| ParseError("er probability must be a float".into()))?,
            })
        }
        _ if lower.starts_with("ba:") => {
            let parts: Vec<&str> = lower.splitn(3, ':').collect();
            if parts.len() != 3 {
                return Err(ParseError("ba topology needs ba:N:M".into()));
            }
            Ok(TopologyChoice::BarabasiAlbert {
                n: parse_num(parts[1], "ba node count")?,
                m: parse_num(parts[2], "ba attachment count")?,
            })
        }
        _ if lower.starts_with("grid:") => {
            let parts: Vec<&str> = lower.splitn(3, ':').collect();
            if parts.len() != 3 {
                return Err(ParseError("grid topology needs grid:R:C".into()));
            }
            Ok(TopologyChoice::Grid {
                rows: parse_num(parts[1], "grid rows")?,
                cols: parse_num(parts[2], "grid cols")?,
            })
        }
        other => Err(ParseError(format!("unknown topology `{other}`"))),
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("{what}: `{s}` is not a valid number")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&sv(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&sv(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn unknown_command_and_flags() {
        assert!(parse(&sv(&["frobnicate"])).is_err());
        assert!(parse(&sv(&["simulate", "--bogus"])).is_err());
        assert!(parse(&sv(&["simulate", "--requests"])).is_err()); // missing value
        assert!(parse(&sv(&["topo", "--nope"])).is_err());
    }

    #[test]
    fn simulate_defaults() {
        let Command::Simulate(a) = parse(&sv(&["simulate"])).unwrap() else {
            panic!()
        };
        assert_eq!(a, SimulateArgs::default());
    }

    #[test]
    fn simulate_full_flags() {
        let Command::Simulate(a) = parse(&sv(&[
            "simulate",
            "--topology",
            "nsfnet",
            "--requests",
            "500",
            "--scheme",
            "offsite",
            "--algorithm",
            "greedy",
            "--seed",
            "9",
            "--horizon",
            "24",
            "--capacity",
            "10:20",
            "--cloudlet-rel",
            "0.95:0.999",
            "--requirement",
            "0.9:0.93",
            "--payment",
            "2:8",
            "--fraction",
            "0.7",
            "--failure-trials",
            "1000",
            "--threads",
            "4",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.topology, TopologyChoice::Zoo("nsfnet".into()));
        assert_eq!(a.requests, 500);
        assert_eq!(a.scheme, vnfrel::Scheme::OffSite);
        assert_eq!(a.algorithm, AlgorithmChoice::Greedy);
        assert_eq!(a.seed, 9);
        assert_eq!(a.horizon, 24);
        assert_eq!(a.capacity, (10, 20));
        assert_eq!(a.cloudlet_reliability, (0.95, 0.999));
        assert_eq!(a.requirement, (0.9, 0.93));
        assert_eq!(a.payment_rate, (2.0, 8.0));
        assert_eq!(a.cloudlet_fraction, 0.7);
        assert_eq!(a.failure_trials, 1000);
        assert_eq!(a.threads, 4);
    }

    #[test]
    fn generated_topologies() {
        assert_eq!(
            parse_topology("er:30:0.1").unwrap(),
            TopologyChoice::ErdosRenyi { n: 30, p: 0.1 }
        );
        assert_eq!(
            parse_topology("ba:50:2").unwrap(),
            TopologyChoice::BarabasiAlbert { n: 50, m: 2 }
        );
        assert_eq!(
            parse_topology("grid:3:4").unwrap(),
            TopologyChoice::Grid { rows: 3, cols: 4 }
        );
        assert!(parse_topology("er:30").is_err());
        assert!(parse_topology("mystery").is_err());
    }

    #[test]
    fn failures_defaults_and_flags() {
        let Command::Failures(a) = parse(&sv(&["failures"])).unwrap() else {
            panic!()
        };
        assert_eq!(a, FailuresArgs::default());

        let Command::Failures(a) = parse(&sv(&[
            "failures",
            "--scheme",
            "offsite",
            "--requests",
            "80",
            "--mttf",
            "20",
            "--mttr",
            "4",
            "--kill-rate",
            "0.1",
            "--policy",
            "none",
            "--failure-seed",
            "7",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.sim.scheme, vnfrel::Scheme::OffSite);
        assert_eq!(a.sim.requests, 80);
        assert_eq!(a.mttf, 20.0);
        assert_eq!(a.mttr, 4.0);
        assert_eq!(a.kill_rate, 0.1);
        assert_eq!(a.policy, mec_sim::RecoveryPolicy::None);
        assert_eq!(a.failure_seed, 7);

        for (name, policy) in [
            ("onsite", mec_sim::RecoveryPolicy::OnSite),
            ("offsite", mec_sim::RecoveryPolicy::OffSite),
            ("matching", mec_sim::RecoveryPolicy::SchemeMatching),
        ] {
            let Command::Failures(a) = parse(&sv(&["failures", "--policy", name])).unwrap() else {
                panic!()
            };
            assert_eq!(a.policy, policy);
        }
        assert!(parse(&sv(&["failures", "--policy", "prayer"])).is_err());
        assert!(parse(&sv(&["failures", "--mttf"])).is_err());
        assert!(parse(&sv(&["failures", "--bogus"])).is_err());
        assert!(parse(&sv(&[
            "failures",
            "--scheme",
            "offsite",
            "--algorithm",
            "density"
        ]))
        .is_err());
    }

    #[test]
    fn degradation_defaults_and_flags() {
        let Command::Degradation(a) = parse(&sv(&["degradation"])).unwrap() else {
            panic!()
        };
        assert_eq!(a, DegradationArgs::default());

        let Command::Degradation(a) = parse(&sv(&[
            "degradation",
            "--domains",
            "3",
            "--domain-mttf",
            "12",
            "--domain-mttr",
            "4",
            "--cascade-threshold",
            "0.6",
            "--cascade-hazard",
            "0.5",
            "--cascade-slots",
            "3",
            "--headroom",
            "0.2",
            "--max-retries",
            "2",
            "--backoff",
            "2",
            "--no-shed",
            "--mttf",
            "20",
            "--requests",
            "80",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.domains, 3);
        assert_eq!(a.domain_mttf, 12.0);
        assert_eq!(a.domain_mttr, 4.0);
        let cascade = a.cascade.unwrap();
        assert_eq!(cascade.utilization_threshold, 0.6);
        assert_eq!(cascade.hazard, 0.5);
        assert_eq!(cascade.outage_slots, 3);
        assert_eq!(a.config.headroom, 0.2);
        assert_eq!(a.config.max_retries, 2);
        assert_eq!(a.config.backoff_base, 2);
        assert!(!a.config.shed);
        assert!(a.config.audit);
        // Inherited failures and simulate flags still apply.
        assert_eq!(a.failures.mttf, 20.0);
        assert_eq!(a.failures.sim.requests, 80);

        let Command::Degradation(a) =
            parse(&sv(&["degradation", "--no-cascade", "--no-audit"])).unwrap()
        else {
            panic!()
        };
        assert!(a.cascade.is_none());
        assert!(!a.config.audit);

        assert!(parse(&sv(&["degradation", "--domains", "0"])).is_err());
        assert!(parse(&sv(&["degradation", "--bogus"])).is_err());
        assert!(parse(&sv(&["degradation", "--headroom"])).is_err());
    }

    #[test]
    fn observability_flags() {
        let Command::Simulate(a) = parse(&sv(&[
            "simulate",
            "--trace",
            "out/trace.jsonl",
            "--metrics",
            "out/metrics.prom",
            "--timeline-csv",
            "out/timeline.csv",
            "-q",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.trace.as_deref(), Some("out/trace.jsonl"));
        assert_eq!(a.metrics.as_deref(), Some("out/metrics.prom"));
        assert_eq!(a.timeline_csv.as_deref(), Some("out/timeline.csv"));
        assert!(a.quiet);

        let Command::Failures(a) = parse(&sv(&[
            "failures",
            "--sla-csv",
            "sla.csv",
            "--trace",
            "t.jsonl",
            "--quiet",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.sla_csv.as_deref(), Some("sla.csv"));
        assert_eq!(a.sim.trace.as_deref(), Some("t.jsonl"));
        assert!(a.sim.quiet);
    }

    #[test]
    fn explain_parsing() {
        let Command::Explain {
            request,
            chain,
            trace,
            quiet,
        } = parse(&sv(&["explain", "17", "--trace", "run.jsonl", "-q"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(request, 17);
        assert!(!chain);
        assert_eq!(trace, "run.jsonl");
        assert!(quiet);
        // `chain:<N>` targets the chain id namespace.
        let Command::Explain { request, chain, .. } =
            parse(&sv(&["explain", "chain:4", "--trace", "run.jsonl"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(request, 4);
        assert!(chain);
        // Both the id and the trace path are mandatory.
        assert!(parse(&sv(&["explain", "--trace", "run.jsonl"])).is_err());
        assert!(parse(&sv(&["explain", "17"])).is_err());
        assert!(parse(&sv(&["explain", "17", "--bogus"])).is_err());
        assert!(parse(&sv(&["explain", "chain:x", "--trace", "t"])).is_err());
    }

    #[test]
    fn chain_parsing() {
        let Command::Chain(a) = parse(&sv(&[
            "chain",
            "--chains",
            "40",
            "--chain-len",
            "2:4",
            "--latency-budget",
            "5:9",
            "--mixed",
            "--shared-backups",
            "off",
            "--backup-mass-cap",
            "0.1",
            "--quick",
            "--seed",
            "9",
            "--trace",
            "c.jsonl",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.chains, 40);
        assert_eq!(a.chain_len, (2, 4));
        assert_eq!(a.latency_budget, (5.0, 9.0));
        assert!(a.mixed);
        assert_eq!(a.backups, vnfrel::chain::BackupMode::Dedicated);
        assert_eq!(a.mass_cap, 0.1);
        assert!(a.quick);
        assert_eq!(a.sim.seed, 9);
        assert_eq!(a.sim.trace.as_deref(), Some("c.jsonl"));
        // Defaults.
        let Command::Chain(d) = parse(&sv(&["chain"])).unwrap() else {
            panic!()
        };
        assert_eq!(d.backups, vnfrel::chain::BackupMode::Shared);
        assert_eq!(d.sim.failure_trials, 20_000);
        // Bad values.
        assert!(parse(&sv(&["chain", "--shared-backups", "maybe"])).is_err());
        assert!(parse(&sv(&["chain", "--backup-mass-cap", "1.5"])).is_err());
        assert!(parse(&sv(&["chain", "--chain-len", "0:2"])).is_err());
    }

    #[test]
    fn density_is_onsite_only() {
        assert!(parse(&sv(&[
            "simulate",
            "--scheme",
            "offsite",
            "--algorithm",
            "density"
        ]))
        .is_err());
    }

    #[test]
    fn topo_flags() {
        let Command::Topo {
            topology,
            dot,
            seed,
        } = parse(&sv(&[
            "topo",
            "--topology",
            "geant",
            "--dot",
            "--seed",
            "4",
        ]))
        .unwrap()
        else {
            panic!()
        };
        assert_eq!(topology, TopologyChoice::Zoo("geant".into()));
        assert!(dot);
        assert_eq!(seed, 4);
    }

    #[test]
    fn bad_ranges() {
        assert!(parse(&sv(&["simulate", "--capacity", "10-20"])).is_err());
        assert!(parse(&sv(&["simulate", "--payment", "abc:2"])).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        let Command::Serve(a) = parse(&sv(&["serve"])).unwrap() else {
            panic!()
        };
        assert_eq!(a, ServeArgs::default());

        let Command::Serve(a) = parse(&sv(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--queue",
            "64",
            "--workers",
            "2",
            "--snapshot",
            "state.snap",
            "--resume",
            "--tick-ms",
            "250",
            "--scheme",
            "offsite",
            "--seed",
            "9",
            "--trace",
            "serve.jsonl",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.addr, "0.0.0.0:9000");
        assert_eq!(a.queue, 64);
        assert_eq!(a.workers, 2);
        assert_eq!(a.snapshot.as_deref(), Some("state.snap"));
        assert!(a.resume);
        assert_eq!(a.tick_ms, Some(250));
        // Scenario flags fall through to the shared simulate parser.
        assert_eq!(a.sim.scheme, vnfrel::Scheme::OffSite);
        assert_eq!(a.sim.seed, 9);
        assert_eq!(a.sim.trace.as_deref(), Some("serve.jsonl"));

        assert!(parse(&sv(&["serve", "--queue", "0"])).is_err());
        assert!(parse(&sv(&["serve", "--algorithm", "random"])).is_err());
        assert!(parse(&sv(&["serve", "--bogus"])).is_err());
        assert!(parse(&sv(&["serve", "--addr"])).is_err());
    }

    #[test]
    fn serve_replication_flags() {
        let Command::Serve(a) = parse(&sv(&["serve", "--replicate-to", "127.0.0.1:7071"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.replicate_to.as_deref(), Some("127.0.0.1:7071"));
        assert!(!a.standby);

        let Command::Serve(a) =
            parse(&sv(&["serve", "--standby", "--auto-promote-ms", "750"])).unwrap()
        else {
            panic!()
        };
        assert!(a.standby);
        assert_eq!(a.auto_promote_ms, Some(750));

        // Role and knob combinations that make no sense are refused.
        assert!(parse(&sv(&["serve", "--standby", "--replicate-to", "x:1"])).is_err());
        assert!(parse(&sv(&["serve", "--auto-promote-ms", "500"])).is_err());
    }

    #[test]
    fn the_deleted_ack_relaxation_flag_is_unknown() {
        // There is one ack rule, so its old opt-in flag is a usage error
        // (exit 2), not a silent no-op. Spelled in pieces so a grep for
        // the flag finds only history.
        let gone = ["--repl", "strict"].join("-");
        for argv in [
            vec!["serve", gone.as_str()],
            vec!["serve", "--replicate-to", "x:1", gone.as_str()],
        ] {
            let err = parse(&sv(&argv)).unwrap_err();
            assert_eq!(err.to_string(), format!("unknown option `{gone}`"));
        }
    }

    #[test]
    fn serve_shard_flags() {
        let Command::Serve(a) = parse(&sv(&["serve", "--shards", "4"])).unwrap() else {
            panic!()
        };
        assert_eq!(a.shards, 4);

        // Sharding is the throughput tier: no durability or replication
        // knobs, and only the primal-dual scheduler.
        assert!(parse(&sv(&["serve", "--shards", "0"])).is_err());
        assert!(parse(&sv(&["serve", "--shards", "2", "--standby"])).is_err());
        assert!(parse(&sv(&["serve", "--shards", "2", "--replicate-to", "x:1"])).is_err());
        assert!(parse(&sv(&["serve", "--shards", "2", "--snapshot", "s.snap"])).is_err());
        assert!(parse(&sv(&["serve", "--shards", "2", "--resume"])).is_err());
        assert!(parse(&sv(&["serve", "--shards", "2", "--algorithm", "greedy"])).is_err());
    }

    #[test]
    fn serve_flight_dir_flag() {
        let Command::Serve(a) = parse(&sv(&["serve", "--flight-dir", "/tmp/fl"])).unwrap() else {
            panic!()
        };
        assert_eq!(a.flight_dir.as_deref(), Some("/tmp/fl"));

        // The flight recorder works in both tiers: sharded serving
        // keeps one ring per shard.
        let Command::Serve(a) =
            parse(&sv(&["serve", "--shards", "2", "--flight-dir", "/tmp/fl"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.flight_dir.as_deref(), Some("/tmp/fl"));
        assert!(parse(&sv(&["serve", "--flight-dir"])).is_err());
    }

    #[test]
    fn serve_report_parsing() {
        let Command::ServeReport { trace, out, quiet } =
            parse(&sv(&["serve-report", "dump.jsonl"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(trace, "dump.jsonl");
        assert_eq!(out, None);
        assert!(!quiet);

        let Command::ServeReport { trace, out, quiet } = parse(&sv(&[
            "serve-report",
            "--trace",
            "flight-1-0.jsonl",
            "--out",
            "results/breakdown.txt",
            "-q",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(trace, "flight-1-0.jsonl");
        assert_eq!(out.as_deref(), Some("results/breakdown.txt"));
        assert!(quiet);

        assert!(parse(&sv(&["serve-report"])).is_err());
        assert!(parse(&sv(&["serve-report", "--bogus"])).is_err());
    }

    #[test]
    fn promote_parsing() {
        let Command::Promote { addr, quiet } =
            parse(&sv(&["promote", "127.0.0.1:7071", "-q"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(addr, "127.0.0.1:7071");
        assert!(quiet);
        let Command::Promote { addr, .. } =
            parse(&sv(&["promote", "--addr", "10.0.0.2:9000"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(addr, "10.0.0.2:9000");
        assert!(parse(&sv(&["promote"])).is_err());
        assert!(parse(&sv(&["promote", "--bogus"])).is_err());
    }

    #[test]
    fn dump_flight_parsing() {
        let Command::DumpFlight { addr, quiet } =
            parse(&sv(&["dump-flight", "127.0.0.1:7071", "-q"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(addr, "127.0.0.1:7071");
        assert!(quiet);
        let Command::DumpFlight { addr, .. } =
            parse(&sv(&["dump-flight", "--addr", "10.0.0.2:9000"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(addr, "10.0.0.2:9000");
        assert!(parse(&sv(&["dump-flight"])).is_err());
        assert!(parse(&sv(&["dump-flight", "--bogus"])).is_err());
    }

    #[test]
    fn loadgen_deadline_flag() {
        let Command::Loadgen(a) = parse(&sv(&["loadgen", "--deadline-ms", "1500"])).unwrap() else {
            panic!()
        };
        assert_eq!(a.deadline_ms, Some(1500));
        let Command::Loadgen(a) = parse(&sv(&["loadgen"])).unwrap() else {
            panic!()
        };
        assert_eq!(a.deadline_ms, None);
        // Zero budgets and open-loop runs are refused (the budget check
        // lives in the closed loop).
        assert!(parse(&sv(&["loadgen", "--deadline-ms", "0"])).is_err());
        assert!(parse(&sv(&["loadgen", "--open-loop", "--deadline-ms", "500"])).is_err());
        assert!(parse(&sv(&["loadgen", "--deadline-ms"])).is_err());
    }

    #[test]
    fn chaos_drill_parsing() {
        let Command::ChaosDrill(a) = parse(&sv(&["chaos-drill"])).unwrap() else {
            panic!()
        };
        assert_eq!(a, ChaosDrillArgs::default());
        assert_eq!(a.sim.requests, 120);
        assert_eq!(a.out, "results/chaos_drill.txt");

        let Command::ChaosDrill(a) = parse(&sv(&[
            "chaos-drill",
            "--quick",
            "--chaos-seed",
            "42",
            "--out",
            "x.txt",
            "--requests",
            "64",
        ]))
        .unwrap() else {
            panic!()
        };
        assert!(a.quick);
        assert_eq!(a.chaos_seed, 42);
        assert_eq!(a.out, "x.txt");
        assert_eq!(a.sim.requests, 64);
        assert_eq!(a.flight_dir, None);

        let Command::ChaosDrill(a) =
            parse(&sv(&["chaos-drill", "--flight-dir", "flights"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.flight_dir.as_deref(), Some("flights"));

        // Too-short traces and non-primal-dual schedulers are refused.
        assert!(parse(&sv(&["chaos-drill", "--requests", "4"])).is_err());
        assert!(parse(&sv(&["chaos-drill", "--algorithm", "greedy"])).is_err());
        assert!(parse(&sv(&["chaos-drill", "--bogus"])).is_err());
    }

    #[test]
    fn chaos_proxy_parsing() {
        let Command::ChaosProxy(a) = parse(&sv(&["chaos-proxy", "127.0.0.1:7070"])).unwrap() else {
            panic!()
        };
        assert_eq!(a.upstream, "127.0.0.1:7070");
        assert_eq!(a.chaos_seed, 7);
        assert!(!a.quiet);

        let Command::ChaosProxy(a) = parse(&sv(&[
            "chaos-proxy",
            "--upstream",
            "10.0.0.2:9000",
            "--chaos-seed",
            "3",
            "-q",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.upstream, "10.0.0.2:9000");
        assert_eq!(a.chaos_seed, 3);
        assert!(a.quiet);

        assert!(parse(&sv(&["chaos-proxy"])).is_err());
        assert!(parse(&sv(&["chaos-proxy", "--bogus"])).is_err());
    }

    #[test]
    fn failover_drill_parsing() {
        let Command::FailoverDrill(a) = parse(&sv(&["failover-drill"])).unwrap() else {
            panic!()
        };
        assert_eq!(a, FailoverDrillArgs::default());

        let Command::FailoverDrill(a) = parse(&sv(&[
            "failover-drill",
            "--requests",
            "200",
            "--kill-at",
            "77",
            "--out",
            "results/failover_drill.txt",
            "--seed",
            "5",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.sim.requests, 200);
        assert_eq!(a.kill_at, 77);
        assert_eq!(a.out.as_deref(), Some("results/failover_drill.txt"));
        assert_eq!(a.sim.seed, 5);

        // The kill point must fall strictly inside the trace.
        assert!(parse(&sv(&["failover-drill", "--kill-at", "0"])).is_err());
        assert!(parse(&sv(&[
            "failover-drill",
            "--requests",
            "50",
            "--kill-at",
            "50"
        ]))
        .is_err());
        assert!(parse(&sv(&["failover-drill", "--algorithm", "random"])).is_err());
    }

    #[test]
    fn loadgen_defaults_and_flags() {
        let Command::Loadgen(a) = parse(&sv(&["loadgen"])).unwrap() else {
            panic!()
        };
        assert_eq!(a, LoadgenArgs::default());

        let Command::Loadgen(a) = parse(&sv(&[
            "loadgen",
            "--addr",
            "127.0.0.1:9000",
            "--rate",
            "500",
            "--start-at",
            "100",
            "--no-shutdown",
            "--hist-out",
            "hist.txt",
            "--requests",
            "10000",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.addr, "127.0.0.1:9000");
        assert_eq!(a.rate, 500.0);
        assert_eq!(a.start_at, 100);
        assert!(a.no_shutdown);
        assert_eq!(a.hist_out.as_deref(), Some("hist.txt"));
        assert_eq!(a.sim.requests, 10000);

        assert!(parse(&sv(&["loadgen", "--rate", "-1"])).is_err());
        assert!(parse(&sv(&["loadgen", "--rate", "inf"])).is_err());
        assert!(parse(&sv(&["loadgen", "--bogus"])).is_err());

        let Command::Loadgen(a) = parse(&sv(&[
            "loadgen",
            "--addr",
            "127.0.0.1:9000,127.0.0.1:9001",
            "--reconnect",
        ]))
        .unwrap() else {
            panic!()
        };
        assert!(a.reconnect);
        assert_eq!(a.addr, "127.0.0.1:9000,127.0.0.1:9001");
    }

    #[test]
    fn loadgen_open_loop_flags() {
        let Command::Loadgen(a) = parse(&sv(&[
            "loadgen",
            "--open-loop",
            "--conns",
            "4",
            "--batch",
            "128",
            "--shards",
            "4",
            "--window",
            "8",
        ]))
        .unwrap() else {
            panic!()
        };
        assert!(a.open_loop);
        assert_eq!(a.conns, 4);
        assert_eq!(a.batch, 128);
        assert_eq!(a.shards, 4);
        assert_eq!(a.window, 8);

        // Open-loop knobs without --open-loop are refused, as are
        // nonsense combinations.
        assert!(parse(&sv(&["loadgen", "--conns", "4"])).is_err());
        assert!(parse(&sv(&["loadgen", "--open-loop", "--reconnect"])).is_err());
        assert!(parse(&sv(&["loadgen", "--open-loop", "--start-at", "5"])).is_err());
        assert!(parse(&sv(&["loadgen", "--open-loop", "--batch", "0"])).is_err());
        assert!(parse(&sv(&["loadgen", "--open-loop", "--conns", "0"])).is_err());
    }
}

#[cfg(test)]
#[path = "../../../tests/cli_args.rs"]
mod golden;
