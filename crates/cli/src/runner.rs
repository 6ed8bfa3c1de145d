//! Executes parsed commands.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Duration;

use mec_obs::{
    DecisionMetricIds, JsonlSink, MetricsRegistry, MetricsSink, NoopSink, Outcome, PipelineStage,
    TraceEvent, TraceSink,
};
use mec_sim::{
    export, failure, EngineMetricIds, EngineMetrics, FailureConfig, FailureProcess,
    InjectionMetricIds, IntraSlotOrder, RecoveryPolicy, Simulation,
};
use mec_topology::generators::{self, CloudletPlacement};
use mec_topology::stats::{to_dot, NetworkStats};
use mec_topology::{zoo, FailureDomainSet, Network};
use mec_workload::{Horizon, Request, RequestGenerator, VnfCatalog};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::baselines::{DensityGreedy, RandomPlacement};
use vnfrel::offsite::{OffsiteGreedy, OffsitePrimalDual};
use vnfrel::onsite::{CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, ProblemInstance, Scheme};

use crate::args::{
    AlgorithmChoice, ChainArgs, ChaosDrillArgs, ChaosProxyArgs, DegradationArgs, FailuresArgs,
    LoadgenArgs, ServeArgs, SimulateArgs, TopologyChoice,
};
use crate::error::CliError;
use mec_serve::{
    chaos_matrix, client, run_loadgen, run_open_loop, spawn_lane, spawn_sharded, ChaosConfig,
    ChaosPlan, ChaosProxy, ChaosScenario, ControlAction, LatencySummary, LoadgenConfig,
    OpenLoopConfig, ServeConfig, ServeError, ServeStats,
};

/// Split output channels: result tables go to `out` (stdout), progress
/// and provenance notes go to `err` (stderr) so tables stay pipeable.
/// `quiet` suppresses the notes entirely.
pub struct Output<'w> {
    out: &'w mut dyn Write,
    err: &'w mut dyn Write,
    quiet: bool,
}

impl<'w> Output<'w> {
    /// Bundles the two streams.
    pub fn new(out: &'w mut dyn Write, err: &'w mut dyn Write, quiet: bool) -> Self {
        Output { out, err, quiet }
    }

    /// Writes one line of result output (stdout).
    pub(crate) fn table(&mut self, s: impl std::fmt::Display) -> Result<(), CliError> {
        writeln!(self.out, "{s}").map_err(CliError::io)
    }

    /// Writes one line of progress/provenance output (stderr), unless
    /// `--quiet`.
    pub(crate) fn note(&mut self, s: impl std::fmt::Display) -> Result<(), CliError> {
        if self.quiet {
            return Ok(());
        }
        writeln!(self.err, "{s}").map_err(CliError::io)
    }

    /// Flushes the result stream — needed before a command blocks
    /// forever (scripts read the bound address from stdout).
    fn flush(&mut self) -> Result<(), CliError> {
        self.out.flush().map_err(CliError::io)
    }
}

/// The sink the CLI hands to schedulers and the fault-aware engine:
/// folds decision events into a metrics registry (when `--metrics`) and
/// streams every event as JSONL (when `--trace`). Both parts optional,
/// and the sink is only constructed when at least one flag is present —
/// flag-less runs keep the compile-away [`NoopSink`] path.
struct CliTraceSink<'r> {
    metrics: Option<MetricsSink<'r, NoopSink>>,
    jsonl: Option<JsonlSink<BufWriter<File>>>,
}

impl TraceSink for CliTraceSink<'_> {
    fn record(&mut self, event: TraceEvent) {
        match (&mut self.metrics, &mut self.jsonl) {
            (Some(m), Some(j)) => {
                m.record(event.clone());
                j.record(event);
            }
            (Some(m), None) => m.record(event),
            (None, Some(j)) => j.record(event),
            (None, None) => {}
        }
    }
}

type SharedSink<'r> = Rc<RefCell<CliTraceSink<'r>>>;

fn open_trace(path: &str) -> Result<JsonlSink<BufWriter<File>>, CliError> {
    let file = File::create(path)
        .map_err(|e| CliError::Io(format!("failed to create trace {path}: {e}")))?;
    Ok(JsonlSink::new(BufWriter::new(file)))
}

/// Unwraps the shared sink after a run, flushes the JSONL stream, and
/// surfaces any IO error with the target path.
fn finish_trace(
    sink: SharedSink<'_>,
    path: Option<&str>,
    io: &mut Output<'_>,
) -> Result<(), CliError> {
    let sink = Rc::try_unwrap(sink)
        .map_err(|_| {
            CliError::Internal("internal error: trace sink still shared after the run".into())
        })?
        .into_inner();
    if let Some(jsonl) = sink.jsonl {
        let path = path.unwrap_or("<trace>");
        let written = jsonl.written();
        jsonl
            .finish()
            .map_err(|e| CliError::Io(format!("failed to write trace {path}: {e}")))?;
        io.note(format!("trace: {written} events -> {path}"))?;
    }
    Ok(())
}

/// Creates `path` (when given) and streams the `what` CSV table into it,
/// reporting any mid-table write failure (rather than leaving a silently
/// truncated file behind).
fn write_csv_file(
    what: &str,
    path: Option<&str>,
    io: &mut Output<'_>,
    render: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    let file =
        File::create(path).map_err(|e| CliError::Io(format!("failed to create {path}: {e}")))?;
    let mut w = BufWriter::new(file);
    render(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| CliError::Io(format!("failed to write {path}: {e}")))?;
    io.note(format!("{what} CSV -> {path}"))
}

/// Writes the `--metrics` snapshot, when asked for; `.json`/`.jsonl`
/// extensions select the JSONL format, anything else the Prometheus text
/// exposition format.
fn write_metrics_snapshot(
    registry: &MetricsRegistry,
    path: Option<&str>,
    io: &mut Output<'_>,
) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    let body = if path.ends_with(".json") || path.ends_with(".jsonl") {
        registry.to_jsonl()
    } else {
        registry.to_prometheus()
    };
    std::fs::write(path, body)
        .map_err(|e| CliError::Io(format!("failed to write metrics {path}: {e}")))?;
    io.note(format!("metrics snapshot -> {path}"))
}

/// Builds a network from a topology choice.
///
/// # Errors
///
/// Returns a human-readable message for invalid parameter combinations.
pub fn build_network(
    choice: &TopologyChoice,
    placement: &CloudletPlacement,
    rng: &mut ChaCha8Rng,
) -> Result<Network, CliError> {
    let net = match choice {
        TopologyChoice::Zoo(name) => {
            let topo = match name.as_str() {
                "abilene" => zoo::abilene(),
                "nsfnet" => zoo::nsfnet(),
                "aarnet" => zoo::aarnet(),
                "att" | "att-na" => zoo::att_na(),
                "geant" => zoo::geant(),
                "garr" => zoo::garr(),
                "cesnet" => zoo::cesnet(),
                other => return Err(CliError::Config(format!("unknown zoo topology `{other}`"))),
            };
            topo.into_network(placement, rng)
        }
        TopologyChoice::ErdosRenyi { n, p } => generators::erdos_renyi(*n, *p, placement, rng),
        TopologyChoice::BarabasiAlbert { n, m } => {
            generators::barabasi_albert(*n, *m, placement, rng)
        }
        TopologyChoice::Grid { rows, cols } => generators::grid(*rows, *cols, placement, rng),
    };
    net.map_err(|e| CliError::Config(format!("failed to build topology: {e}")))
}

/// Runs `$body` — a block that builds a scheduler over `$sink`, runs it,
/// and evaluates to the report — once, for whichever sink the flags ask
/// for: the shared [`CliTraceSink`] (flushed and reported afterwards)
/// when `--trace` or `--metrics` is present, the compile-away
/// [`NoopSink`] otherwise. `TraceSink::ENABLED` is an associated const,
/// so the two are separate instantiations, not one trait object.
macro_rules! with_trace_sink {
    ($io:expr, $trace:expr, $metrics:expr, |$sink:ident| $body:block) => {{
        let (trace, metrics): (Option<&str>, Option<MetricsSink<'_, NoopSink>>) =
            ($trace, $metrics);
        if trace.is_some() || metrics.is_some() {
            let shared = Rc::new(RefCell::new(CliTraceSink {
                metrics,
                jsonl: trace.map(open_trace).transpose()?,
            }));
            let out = {
                let $sink = Rc::clone(&shared);
                $body
            };
            finish_trace(shared, trace, $io)?;
            out
        } else {
            let $sink = NoopSink;
            $body
        }
    }};
}

/// Builds the instance a `simulate`-family command operates on. The
/// returned RNG has consumed the topology draws; the workload
/// generators continue it.
fn build_instance(args: &SimulateArgs) -> Result<(ProblemInstance, ChaCha8Rng), CliError> {
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let placement = CloudletPlacement {
        fraction: args.cloudlet_fraction,
        capacity: args.capacity,
        reliability: args.cloudlet_reliability,
    };
    let network = build_network(&args.topology, &placement, &mut rng)?;
    let instance =
        ProblemInstance::new(network, VnfCatalog::standard(), Horizon::new(args.horizon))
            .map_err(CliError::config)?;
    Ok((instance, rng))
}

/// Draws the single-VNF request stream of `args` from `rng`.
fn generate_requests(
    args: &SimulateArgs,
    instance: &ProblemInstance,
    rng: &mut ChaCha8Rng,
) -> Result<Vec<Request>, CliError> {
    RequestGenerator::new(instance.horizon())
        .reliability_band(args.requirement.0, args.requirement.1)
        .map_err(CliError::config)?
        .payment_rate_band(args.payment_rate.0, args.payment_rate.1)
        .map_err(CliError::config)?
        .generate(args.requests, instance.catalog(), rng)
        .map_err(CliError::config)
}

/// The instance and request stream of a scenario.
pub(crate) fn build_setup(
    args: &SimulateArgs,
) -> Result<(ProblemInstance, Vec<Request>), CliError> {
    let (instance, mut rng) = build_instance(args)?;
    let requests = generate_requests(args, &instance, &mut rng)?;
    Ok((instance, requests))
}

/// Instantiates the scheduler selected by `args`, borrowing `instance`
/// and tracing every `decide()` into `sink`. Pass [`NoopSink`] for an
/// untraced scheduler; an enabled sink is only supported by the four
/// instrumented schedulers (primal-dual and greedy, each scheme).
fn make_scheduler<'a, K: TraceSink + 'a>(
    instance: &'a ProblemInstance,
    args: &SimulateArgs,
    sink: K,
) -> Result<Box<dyn OnlineScheduler + 'a>, CliError> {
    Ok(match (args.scheme, args.algorithm) {
        (Scheme::OnSite, AlgorithmChoice::PrimalDual) => Box::new(
            OnsitePrimalDual::with_sink(instance, CapacityPolicy::Enforce, sink)
                .map_err(CliError::config)?,
        ),
        (Scheme::OnSite, AlgorithmChoice::Greedy) => {
            Box::new(OnsiteGreedy::with_sink(instance, sink))
        }
        (Scheme::OffSite, AlgorithmChoice::PrimalDual) => {
            Box::new(OffsitePrimalDual::with_sink(instance, sink))
        }
        (Scheme::OffSite, AlgorithmChoice::Greedy) => {
            Box::new(OffsiteGreedy::with_sink(instance, sink))
        }
        (_, AlgorithmChoice::Random | AlgorithmChoice::Density) if K::ENABLED => {
            return Err(CliError::Usage(
                "--trace/--metrics support the primal-dual and greedy algorithms only".into(),
            ))
        }
        (scheme, AlgorithmChoice::Random) => {
            Box::new(RandomPlacement::new(instance, scheme, args.seed))
        }
        (Scheme::OnSite, AlgorithmChoice::Density) => {
            Box::new(DensityGreedy::new(instance, 0.0).map_err(CliError::config)?)
        }
        (Scheme::OffSite, AlgorithmChoice::Density) => {
            return Err(CliError::Usage("density greedy is on-site only".into()))
        }
    })
}

/// Runs the `simulate` command.
///
/// # Errors
///
/// Returns a printable message on invalid configurations or failed
/// exports (always naming the target path).
pub fn simulate(args: &SimulateArgs, io: &mut Output<'_>) -> Result<(), CliError> {
    let (instance, requests) = build_setup(args)?;
    let sim = Simulation::new(&instance, &requests).map_err(CliError::config)?;

    let want_metrics = args.metrics.is_some();
    let mut registry = MetricsRegistry::new();
    let decision_ids = want_metrics.then(|| DecisionMetricIds::register(&mut registry));
    let engine_ids =
        want_metrics.then(|| EngineMetricIds::register(&mut registry, instance.cloudlet_count()));
    let inject_ids = (want_metrics && args.failure_trials > 0)
        .then(|| InjectionMetricIds::register(&mut registry));
    let registry = &registry;
    let engine_metrics = engine_ids.map(|ids| EngineMetrics::new(registry, ids));

    let report = with_trace_sink!(
        io,
        args.trace.as_deref(),
        decision_ids.map(|ids| MetricsSink::new(registry, ids)),
        |sink| {
            let mut scheduler = make_scheduler(&instance, args, sink)?;
            sim.run_ordered(
                scheduler.as_mut(),
                IntraSlotOrder::Arrival,
                engine_metrics.as_ref(),
            )
            .map_err(CliError::internal)?
        }
    );

    io.note(format!("{instance}"))?;
    io.table(&report.metrics)?;
    io.table(format!(
        "feasible: {} ({} reliability / {} capacity violations)",
        report.validation.is_feasible(),
        report.validation.reliability_violations(),
        report.validation.capacity_violations()
    ))?;

    if args.failure_trials > 0 {
        // Trials are chunk-seeded from the workload seed, so the report
        // is identical for any --threads value.
        let fr = failure::inject_failures_parallel(
            &instance,
            &requests,
            &report.schedule,
            args.failure_trials,
            args.seed,
            args.threads,
            inject_ids.map(|ids| (registry, ids)),
        )
        .map_err(CliError::internal)?;
        io.table(format!(
            "failure injection: {} trials, worst margin {:+.4}, statistical violations {}",
            fr.trials,
            fr.worst_margin().unwrap_or(f64::NAN),
            fr.statistical_violations(3.0).len()
        ))?;
    }

    write_csv_file("timeline", args.timeline_csv.as_deref(), io, |w| {
        export::write_timeline_csv(w, &report)
    })?;
    write_metrics_snapshot(registry, args.metrics.as_deref(), io)
}

/// Runs the `chain` command: a service-function-chain workload
/// (optionally mixed with single-VNF requests) through the chain
/// primal-dual scheduler, followed by the Monte-Carlo chain referee.
/// Statistical reliability violations among admitted chains are a hard
/// failure — the command exits non-zero.
///
/// # Errors
///
/// Returns a printable message on invalid configurations, failed
/// exports, or Monte-Carlo reliability violations.
pub fn chain(args: &ChainArgs, io: &mut Output<'_>) -> Result<(), CliError> {
    use mec_sim::{inject_chain_failures, MixedSimulation};
    use mec_workload::ChainGenerator;
    use vnfrel::chain::ChainPrimalDual;

    let mut args = args.clone();
    if args.quick {
        args.chains = args.chains.min(30);
        args.sim.requests = args.sim.requests.min(30);
        args.sim.failure_trials = args.sim.failure_trials.min(4_000);
    }
    let (instance, mut rng) = build_instance(&args.sim)?;
    // Without `--mixed` no single-VNF request is drawn at all.
    let singles = match args.mixed {
        true => generate_requests(&args.sim, &instance, &mut rng)?,
        false => Vec::new(),
    };
    let chains = ChainGenerator::new(instance.horizon(), instance.network().ap_count())
        .length_band(args.chain_len.0, args.chain_len.1)
        .map_err(CliError::config)?
        .reliability_band(args.sim.requirement.0, args.sim.requirement.1)
        .map_err(CliError::config)?
        .payment_rate_band(args.sim.payment_rate.0, args.sim.payment_rate.1)
        .map_err(CliError::config)?
        .latency_budget_band(args.latency_budget.0, args.latency_budget.1)
        .map_err(CliError::config)?
        .generate(args.chains, instance.catalog(), &mut rng)
        .map_err(CliError::config)?;
    let sim = MixedSimulation::new(&instance, &singles, &chains).map_err(CliError::config)?;

    let mut registry = MetricsRegistry::new();
    let decision_ids =
        (args.sim.metrics.is_some()).then(|| DecisionMetricIds::register(&mut registry));
    let registry = &registry;

    let report = with_trace_sink!(
        io,
        args.sim.trace.as_deref(),
        decision_ids.map(|ids| MetricsSink::new(registry, ids)),
        |sink| {
            let mut scheduler =
                ChainPrimalDual::with_mass_cap(&instance, args.backups, args.mass_cap, sink);
            sim.run(&mut scheduler)
        }
    );

    io.note(format!("{instance}"))?;
    io.table(format!(
        "chains: {}/{} admitted, revenue {:.2} (backups: {})",
        report.admitted_chains(),
        chains.len(),
        report.chains.revenue(),
        report.mode.as_str()
    ))?;
    if args.mixed {
        io.table(format!(
            "singles: {}/{} admitted, revenue {:.2}",
            report.admitted_singles(),
            singles.len(),
            report.single_revenue
        ))?;
    }
    io.table(format!(
        "standby pool: {} instance(s); max overflow {}",
        report.standby_count, report.max_overflow
    ))?;
    if report.max_overflow > 0.0 {
        return Err(CliError::Internal(
            "capacity overflow in a chain schedule".into(),
        ));
    }
    let mut reject_counts: Vec<(&'static str, usize)> = Vec::new();
    for c in &chains {
        if let Some(reason) = report.chains.reject_reason(c.id()) {
            match reject_counts
                .iter_mut()
                .find(|(s, _)| *s == reason.as_str())
            {
                Some((_, n)) => *n += 1,
                None => reject_counts.push((reason.as_str(), 1)),
            }
        }
    }
    for (reason, n) in &reject_counts {
        io.table(format!("  rejected {n} × {reason}"))?;
    }

    if args.sim.failure_trials > 0 {
        let mut mc_rng = ChaCha8Rng::seed_from_u64(args.sim.seed ^ 0xc4a1_0000);
        let fr = inject_chain_failures(
            &instance,
            &chains,
            &report.chains,
            args.sim.failure_trials,
            &mut mc_rng,
        )
        .map_err(CliError::internal)?;
        let fr = fr.availability;
        let violations = fr.statistical_violations(3.0);
        io.table(format!(
            "chain failure injection: {} trials, worst margin {:+.4}, statistical violations {}",
            fr.trials,
            fr.worst_margin().unwrap_or(f64::NAN),
            violations.len()
        ))?;
        if !violations.is_empty() {
            return Err(CliError::Internal(format!(
                "{} admitted chain(s) measured below their reliability target: {:?}",
                violations.len(),
                violations
            )));
        }
    }
    write_metrics_snapshot(registry, args.sim.metrics.as_deref(), io)
}

/// Runs the `failures` command: a fault-aware simulation under a seeded
/// outage trace, with SLA accounting and (unless the policy already is
/// `none`) a same-trace no-recovery baseline for comparison. With
/// `--trace`, fault-lifecycle events (outages, kills, breaches,
/// recoveries) are interleaved with the scheduler's decision events in
/// one stream.
///
/// With `layer` it is the `degradation` command: the outage trace also
/// carries correlated failure domains (zone partitions of the cloudlet
/// fleet) and an optional cascade overlay, and is replayed through the
/// graceful-degradation layer — headroom-reserving admission, a
/// revenue-aware load shedder, bounded retries with exponential backoff,
/// and the runtime invariant auditor. The baseline is then always run:
/// it quantifies what the layer buys.
///
/// # Errors
///
/// Returns a printable message on invalid configurations or failed
/// exports (always naming the target path).
pub fn failures(
    args: &FailuresArgs,
    layer: Option<&DegradationArgs>,
    io: &mut Output<'_>,
) -> Result<(), CliError> {
    let (instance, requests) = build_setup(&args.sim)?;
    let sim = Simulation::new(&instance, &requests).map_err(CliError::config)?;
    let config = FailureConfig {
        cloudlet_mttf: args.mttf,
        cloudlet_mttr: args.mttr,
        instance_kill_rate: args.kill_rate,
    };
    let mut failure_rng = ChaCha8Rng::seed_from_u64(args.failure_seed);
    let (network, horizon) = (instance.network(), instance.horizon());
    let trace = match layer {
        None => FailureProcess::generate(network, &config, horizon, &mut failure_rng),
        Some(layer) => {
            layer.config.validate().map_err(CliError::config)?;
            let domains = FailureDomainSet::zones(
                network,
                layer.domains,
                layer.domain_mttf,
                layer.domain_mttr,
            )
            .map_err(CliError::config)?;
            let cascade = layer.cascade;
            FailureProcess::generate_with_domains(
                network,
                &config,
                &domains,
                cascade,
                horizon,
                &mut failure_rng,
            )
        }
    }
    .map_err(CliError::config)?;

    let mut registry = MetricsRegistry::new();
    let decision_ids =
        (args.sim.metrics.is_some()).then(|| DecisionMetricIds::register(&mut registry));
    let registry = &registry;

    let report = with_trace_sink!(
        io,
        args.sim.trace.as_deref(),
        decision_ids.map(|ids| MetricsSink::new(registry, ids)),
        |sink| {
            // The engine appends fault-lifecycle events through its own
            // handle to the same stream.
            let mut engine_sink = Clone::clone(&sink);
            let mut scheduler = make_scheduler(&instance, &args.sim, sink)?;
            sim.run_faulted(
                scheduler.as_mut(),
                &trace,
                args.policy,
                layer.map(|l| &l.config),
                &mut engine_sink,
            )
            .map_err(CliError::internal)?
        }
    );

    io.note(format!("{instance}"))?;
    io.note(format!(
        "failure process: mttf {} mttr {} kill-rate {} seed {} -> {} events",
        args.mttf,
        args.mttr,
        args.kill_rate,
        args.failure_seed,
        trace.total_events()
    ))?;
    if let Some(layer) = layer {
        io.note(format!(
            "failure domains: {} zones, mttf {} mttr {} -> {} domain events{}",
            layer.domains,
            layer.domain_mttf,
            layer.domain_mttr,
            trace.total_domain_events(),
            match &layer.cascade {
                Some(c) => format!(
                    "; cascades above {:.0}% utilization (hazard {}, {} slots)",
                    c.utilization_threshold * 100.0,
                    c.hazard,
                    c.outage_slots
                ),
                None => "; cascades off".into(),
            }
        ))?;
    }
    io.table(&report.metrics)?;
    io.table(format!("policy {}: {}", report.policy, report.sla))?;
    if layer.is_none() {
        if let Some(latency) = report.sla.mean_repair_latency() {
            io.table(format!("mean repair latency: {latency:.2} slots"))?;
        }
        io.table(format!(
            "unrecovered requests: {}",
            report.sla.unrecovered_requests()
        ))?;
    } else {
        if let Some(stats) = &report.degradation {
            io.table(format!(
                "degradation: {} degraded slots, {} vetoed admissions, {} evictions, \
                 {} cascades, {} retry episodes exhausted",
                stats.degraded_slots,
                stats.vetoed_admissions,
                stats.evictions,
                stats.cascades,
                stats.retries_exhausted
            ))?;
        }
        match &report.audit {
            Some(audit) if audit.is_clean() => {
                io.table(format!("audit: clean over {} slots", audit.slots_checked))?
            }
            Some(audit) => io.table(format!("audit: {audit}"))?,
            None => io.note("audit: off")?,
        }
    }

    // Same-trace baseline without recovery or degradation: what the
    // policy (and the layer) buys in violated slots and retained revenue.
    if layer.is_some() || args.policy != RecoveryPolicy::None {
        let mut baseline = make_scheduler(&instance, &args.sim, NoopSink)?;
        let base = sim
            .run_faulted(
                baseline.as_mut(),
                &trace,
                RecoveryPolicy::None,
                None,
                &mut NoopSink,
            )
            .map_err(CliError::internal)?;
        io.table(format!("baseline {}: {}", base.policy, base.sla))?;
        io.table(format!(
            "violated request-slots: {} -> {}",
            base.sla.violated_request_slots(),
            report.sla.violated_request_slots()
        ))?;
        if layer.is_some() {
            io.table(format!(
                "revenue retained: {:.2} -> {:.2}",
                base.sla.revenue_retained(),
                report.sla.revenue_retained()
            ))?;
        }
    }

    write_csv_file("timeline", args.sim.timeline_csv.as_deref(), io, |w| {
        export::write_fault_timeline_csv(w, &report)
    })?;
    write_csv_file("SLA", args.sla_csv.as_deref(), io, |w| {
        export::write_sla_csv(w, &report)
    })?;
    write_metrics_snapshot(registry, args.sim.metrics.as_deref(), io)
}

/// A canonical string of everything that defines the daemon's instance
/// and scheduler. Stored in snapshots and validated on resume, so a
/// daemon only resumes state produced by an identical scenario.
fn scenario_fingerprint(args: &SimulateArgs) -> String {
    format!(
        "v1|topo={:?}|scheme={:?}|algo={:?}|seed={}|horizon={}|cap={}:{}|crel={}:{}|frac={}",
        args.topology,
        args.scheme,
        args.algorithm,
        args.seed,
        args.horizon,
        args.capacity.0,
        args.capacity.1,
        args.cloudlet_reliability.0,
        args.cloudlet_reliability.1,
        args.cloudlet_fraction,
    )
}

/// Runs the `serve` command: builds the scenario's instance and serves
/// line-JSON admission requests until a shutdown control or signal.
/// `--shards 1` hands the daemon the selected scheduler wired to its
/// decision tap; `--shards S` lets it build one primal-dual scheduler
/// per cloudlet partition. Everything else — config, listener
/// announcement, summary — is the same daemon.
///
/// # Errors
///
/// [`CliError::Net`] when the address cannot be bound (bad address,
/// busy port), [`CliError::Snapshot`] when `--resume` finds a corrupt
/// or mismatched snapshot, [`CliError::Config`] on invalid scenarios.
pub fn serve(args: &ServeArgs, io: &mut Output<'_>) -> Result<(), CliError> {
    let (instance, _requests) = build_setup(&args.sim)?;

    let mut config = ServeConfig::new(args.addr.clone());
    config.shards = args.shards;
    config.queue_capacity = args.queue;
    config.workers = args.workers;
    config.snapshot_path = args.snapshot.as_ref().map(PathBuf::from);
    config.resume = args.resume;
    config.tick = args.tick_ms.map(Duration::from_millis);
    config.fingerprint = scenario_fingerprint(&args.sim);
    config.trace_path = args.sim.trace.as_ref().map(PathBuf::from);
    config.install_signal_handlers = true;
    config.standby = args.standby;
    config.replicate_to = args.replicate_to.clone();
    config.auto_promote_after = args.auto_promote_ms.map(Duration::from_millis);
    config.flight_dir = args.flight_dir.as_ref().map(PathBuf::from);

    io.note(format!("{instance}"))?;
    io.note(format!(
        "serving {:?} {:?} as {} across {} shard(s) (cloudlet j -> shard j mod {}; fingerprint {})",
        args.sim.scheme,
        args.sim.algorithm,
        if args.standby { "standby" } else { "primary" },
        args.shards,
        args.shards,
        config.fingerprint
    ))?;
    if let Some(peer) = &args.replicate_to {
        io.note(format!(
            "replicating the decision log to {peer} (acks wait for the standby)"
        ))?;
    }
    let listening = |io: &mut Output<'_>, addr: SocketAddr| {
        io.note(format!(
            "listening on {addr} (GET /metrics for Prometheus text; \
             SIGINT/SIGTERM for drain-then-snapshot shutdown)"
        ))
    };
    // Who builds the scheduler is all that differs.
    let (stats, tail, snapshot_written, per_shard) = if args.shards == 1 {
        let sim = args.sim.clone();
        let (addr, daemon) = spawn_lane(instance, config, move |instance, tap| {
            make_scheduler(instance, &sim, tap).map_err(|e| ServeError::Config(e.to_string()))
        })?;
        listening(io, addr)?;
        let (r, _state) = join_daemon(daemon)?;
        let tail = format!(
            "final slot {}, epoch {}, role {}",
            r.slot,
            r.epoch,
            r.role.as_str()
        );
        (r.stats, tail, r.snapshot_written, Vec::new())
    } else {
        let (addr, daemon) = spawn_sharded(instance, args.sim.scheme, config)?;
        listening(io, addr)?;
        let r = join_daemon(daemon)?;
        let tail = format!("{} shards", args.shards);
        (r.stats, tail, false, r.per_shard_decided)
    };

    io.table(format!(
        "served: revenue {:.2}, admitted {}/{} ({} rejected, {} overloads), {tail}",
        stats.revenue, stats.admitted, stats.decided, stats.rejected, stats.overloaded,
    ))?;
    if !per_shard.is_empty() {
        let per_shard: Vec<String> = per_shard
            .iter()
            .enumerate()
            .map(|(s, n)| format!("shard {s}: {n}"))
            .collect();
        io.table(format!("per-shard decided: {}", per_shard.join(", ")))?;
    }
    if snapshot_written {
        io.note(format!(
            "snapshot -> {}",
            args.snapshot.as_deref().unwrap_or("<none>")
        ))?;
    }
    Ok(())
}

/// Waits for a daemon started by [`spawn_lane`] or [`spawn_sharded`].
fn join_daemon<R>(daemon: std::thread::JoinHandle<Result<R, ServeError>>) -> Result<R, CliError> {
    daemon
        .join()
        .map_err(|_| CliError::Internal("the daemon thread panicked".into()))?
        .map_err(CliError::from)
}

/// Polls until the daemon at `addrs` (the first of a comma-separated
/// list) accepts connections — serve and loadgen are typically started
/// back-to-back — bounded to ~5 s, then lets [`run_loadgen`] surface the
/// real connect error.
pub(crate) fn wait_for_daemon(addrs: &str) {
    let first = addrs.split(',').next().unwrap_or(addrs).trim();
    for _ in 0..50 {
        if std::net::TcpStream::connect(first).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// What both `loadgen` modes end with: the daemon's own counters from
/// the shutdown ack, and the `--hist-out` latency histogram.
fn loadgen_tail(
    args: &LoadgenArgs,
    final_stats: Option<&ServeStats>,
    latency: &LatencySummary,
    io: &mut Output<'_>,
) -> Result<(), CliError> {
    if let Some(stats) = final_stats {
        io.table(format!(
            "daemon: revenue {:.2}, admitted {}/{} (clean drain-and-shutdown acked)",
            stats.revenue, stats.admitted, stats.decided
        ))?;
    }
    if let Some(path) = &args.hist_out {
        std::fs::write(path, latency.to_text())
            .map_err(|e| CliError::Io(format!("failed to write histogram {path}: {e}")))?;
        io.note(format!("latency histogram -> {path}"))?;
    }
    Ok(())
}

/// Runs the `loadgen` command: regenerates the scenario's request
/// stream and replays it against a running daemon, closed-loop, then
/// prints client-side bookkeeping next to the daemon's own counters
/// (from the shutdown ack) so parity with `vnfrel simulate` is a
/// string comparison.
///
/// # Errors
///
/// [`CliError::Net`] when the daemon is unreachable or the connection
/// drops, [`CliError::Io`] when `--hist-out` cannot be written.
pub fn loadgen(args: &LoadgenArgs, io: &mut Output<'_>) -> Result<(), CliError> {
    let (_instance, requests) = build_setup(&args.sim)?;
    if args.open_loop {
        return loadgen_open_loop(args, &requests, io);
    }
    let mut config = LoadgenConfig::new(args.addr.clone());
    if args.rate > 0.0 {
        config.rate = args.rate;
    }
    config.start_at = args.start_at;
    config.shutdown_when_done = !args.no_shutdown;
    config.reconnect = args.reconnect;
    config.deadline = args.deadline_ms.map(Duration::from_millis);

    io.note(format!(
        "replaying {} generated requests against {}",
        requests.len(),
        args.addr
    ))?;
    wait_for_daemon(&args.addr);
    let report = run_loadgen(&requests, &config)?;

    io.table(format!(
        "loadgen: revenue {:.2}, admitted {}/{} ({} rejected, {} overloaded, {} errors)",
        report.revenue,
        report.admitted,
        report.sent,
        report.rejected,
        report.overloaded,
        report.errors
    ))?;
    io.table(format!(
        "throughput {:.0} decisions/s over {:.2}s; latency p50 {:.1}us p90 {:.1}us \
         p99 {:.1}us max {:.1}us",
        report.throughput(),
        report.elapsed.as_secs_f64(),
        report.latency.p50 * 1e6,
        report.latency.p90 * 1e6,
        report.latency.p99 * 1e6,
        report.latency.max * 1e6
    ))?;
    if args.reconnect {
        io.table(format!(
            "resilience: {} reconnects, {} resubmits, {} not-primary refusals absorbed",
            report.reconnects, report.resubmits, report.not_primary
        ))?;
    }
    loadgen_tail(args, report.final_stats.as_ref(), &report.latency, io)
}

/// The `--open-loop` arm of [`loadgen`]: batched frames over parallel
/// connections with a bounded in-flight window, measuring saturation
/// throughput and per-frame tail latency instead of lock-step parity.
fn loadgen_open_loop(
    args: &LoadgenArgs,
    requests: &[Request],
    io: &mut Output<'_>,
) -> Result<(), CliError> {
    let mut config = OpenLoopConfig::new(args.addr.clone());
    config.conns = args.conns;
    config.shards = args.shards;
    config.batch = args.batch;
    config.window = args.window;
    if args.rate > 0.0 {
        config.rate = args.rate;
    }
    config.shutdown_when_done = !args.no_shutdown;

    io.note(format!(
        "driving {} open-loop: {} requests, {} conns, batch {}, window {}, {} daemon shard(s)",
        args.addr,
        requests.len(),
        args.conns,
        args.batch,
        args.window,
        args.shards
    ))?;
    wait_for_daemon(&args.addr);
    let report = run_open_loop(requests, &config)?;

    io.table(format!(
        "open-loop: decided {}/{} sent ({} admitted, {} rejected, {} overloaded, {} errors)",
        report.decided,
        report.sent,
        report.admitted,
        report.rejected,
        report.overloaded,
        report.errors
    ))?;
    io.table(format!(
        "open-loop throughput {:.0} decisions/s aggregate over {:.2}s; frame RTT p50 {:.1}us \
         p99 {:.1}us max {:.1}us",
        report.throughput(),
        report.elapsed.as_secs_f64(),
        report.latency.p50 * 1e6,
        report.latency.p99 * 1e6,
        report.latency.max * 1e6
    ))?;
    io.table(format!(
        "open-loop per-request latency (frame RTT / batch, comparable to closed-loop): \
         p50 {:.2}us p99 {:.2}us mean {:.2}us",
        report.per_request.p50 * 1e6,
        report.per_request.p99 * 1e6,
        report.per_request.mean * 1e6
    ))?;
    let per_conn = report
        .per_conn_decided
        .iter()
        .enumerate()
        .map(|(c, n)| format!("conn {c}: {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    io.table(format!("per-conn decided: {per_conn}"))?;
    loadgen_tail(args, report.final_stats.as_ref(), &report.latency, io)
}

/// Runs the `serve-report` command: aggregates the stage samples in a
/// JSONL trace or flight-recorder dump into a per-stage, per-shard
/// p50/p90/p99 breakdown and names the bottleneck stage — the one with
/// the largest share of total recorded stage time across all shards.
///
/// # Errors
///
/// [`CliError::Io`] when the dump cannot be read or parsed (or `--out`
/// cannot be written), [`CliError::Config`] when it holds no stage
/// samples at all.
pub fn serve_report(
    trace_path: &str,
    out: Option<&str>,
    io: &mut Output<'_>,
) -> Result<(), CliError> {
    let text = std::fs::read_to_string(trace_path)
        .map_err(|e| CliError::Io(format!("failed to read trace {trace_path}: {e}")))?;
    let events =
        mec_obs::parse_trace(&text).map_err(|e| CliError::Io(format!("{trace_path}: {e}")))?;

    // samples[shard][stage] -> sorted nanosecond samples.
    let mut samples: std::collections::BTreeMap<usize, Vec<Vec<u64>>> =
        std::collections::BTreeMap::new();
    let mut total_samples = 0usize;
    for event in &events {
        if let TraceEvent::StageSample {
            shard,
            stage,
            nanos,
        } = event
        {
            samples
                .entry(*shard)
                .or_insert_with(|| vec![Vec::new(); PipelineStage::COUNT])[stage.index()]
            .push(*nanos);
            total_samples += 1;
        }
    }
    io.note(format!(
        "trace {trace_path}: {} events, {} stage samples across {} shard(s)",
        events.len(),
        total_samples,
        samples.len()
    ))?;
    if total_samples == 0 {
        return Err(CliError::Config(format!(
            "no stage samples in {trace_path}; produce a dump with `vnfrel serve --flight-dir \
             <DIR>` and the dump-flight control"
        )));
    }

    let mut lines = Vec::new();
    lines.push(format!(
        "{:<6} {:<16} {:>8} {:>11} {:>11} {:>11} {:>11}",
        "shard", "stage", "count", "p50_us", "p90_us", "p99_us", "total_ms"
    ));
    let mut stage_totals = [0u128; PipelineStage::COUNT];
    for (shard, per_stage) in &mut samples {
        for stage in PipelineStage::ALL {
            let v = &mut per_stage[stage.index()];
            if v.is_empty() {
                continue;
            }
            v.sort_unstable();
            let total_ns: u128 = v.iter().map(|&n| u128::from(n)).sum();
            stage_totals[stage.index()] += total_ns;
            lines.push(format!(
                "{:<6} {:<16} {:>8} {:>11.2} {:>11.2} {:>11.2} {:>11.3}",
                shard,
                stage.as_str(),
                v.len(),
                percentile_ns(v, 0.50) / 1e3,
                percentile_ns(v, 0.90) / 1e3,
                percentile_ns(v, 0.99) / 1e3,
                total_ns as f64 / 1e6,
            ));
        }
    }
    let bottleneck = PipelineStage::ALL
        .into_iter()
        .max_by_key(|s| stage_totals[s.index()])
        .expect("PipelineStage::ALL is non-empty");
    let grand: u128 = stage_totals.iter().sum();
    lines.push(format!(
        "bottleneck: {} ({:.1}% of {:.3}ms total stage time)",
        bottleneck.as_str(),
        stage_totals[bottleneck.index()] as f64 / grand as f64 * 100.0,
        grand as f64 / 1e6,
    ));
    for line in &lines {
        io.table(line)?;
    }
    if let Some(path) = out {
        let mut text = lines.join("\n");
        text.push('\n');
        std::fs::write(path, text)
            .map_err(|e| CliError::Io(format!("failed to write report {path}: {e}")))?;
        io.note(format!("stage breakdown -> {path}"))?;
    }
    Ok(())
}

/// Linear-interpolated percentile over sorted nanosecond samples.
fn percentile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Runs the `explain` command: replays a recorded JSONL trace and prints
/// every event concerning one request, re-deriving the dual-cost
/// arithmetic of its decision as a consistency check.
///
/// The checks: an admission's total dual cost must equal the sum of its
/// per-site dual costs, and wherever both a dual cost and a margin were
/// recorded the identity `margin = payment − dual cost` must hold (the
/// off-site primal-dual's admission margin is its δ_i bookkeeping value,
/// which follows a different formula and is skipped).
///
/// # Errors
///
/// Returns a printable message when the trace cannot be read or parsed,
/// the request does not appear in it, or the arithmetic does not check
/// out.
pub fn explain(
    request: usize,
    chain: bool,
    trace_path: &str,
    io: &mut Output<'_>,
) -> Result<(), CliError> {
    let text = std::fs::read_to_string(trace_path)
        .map_err(|e| CliError::Io(format!("failed to read trace {trace_path}: {e}")))?;
    let events =
        mec_obs::parse_trace(&text).map_err(|e| CliError::Io(format!("{trace_path}: {e}")))?;
    io.note(format!("trace {trace_path}: {} events", events.len()))?;

    if chain {
        return explain_chain(request, &events, trace_path, io);
    }

    let mine: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.request() == Some(request))
        .collect();
    if mine.is_empty() {
        return Err(CliError::Config(format!(
            "request {request} does not appear in {trace_path} ({} events scanned)",
            events.len()
        )));
    }

    let mut mismatches = 0usize;
    for event in mine {
        match event {
            TraceEvent::Decision(d) => {
                io.table(format!(
                    "slot {}: {} ({} scheme) decided on request {} (payment {})",
                    d.slot, d.algorithm, d.scheme, d.request, d.payment
                ))?;
                match &d.outcome {
                    Outcome::Admit {
                        dual_cost,
                        margin,
                        sites,
                    } => {
                        io.table(format!(
                            "  ADMITTED: dual cost {dual_cost}, margin {margin}"
                        ))?;
                        for s in sites {
                            io.table(format!(
                                "    cloudlet {}: {} instance(s), dual cost {}",
                                s.cloudlet, s.instances, s.dual_cost
                            ))?;
                        }
                        let site_sum: f64 = sites.iter().map(|s| s.dual_cost).sum();
                        check_cost_sum(io, "site", site_sum, *dual_cost, &mut mismatches)?;
                        // Algorithm 2's margin is δ_i (Eq. 66 bookkeeping),
                        // not payment − cost; skip the identity there.
                        if d.algorithm != "alg2-primal-dual" {
                            check_margin(io, d.payment, *dual_cost, *margin, &mut mismatches)?;
                        }
                    }
                    Outcome::Reject {
                        reason,
                        dual_cost,
                        margin,
                    } => {
                        let (payment, reason) = (d.payment, reason.as_str());
                        explain_reject(io, reason, payment, *dual_cost, *margin, &mut mismatches)?;
                    }
                }
            }
            TraceEvent::InstanceKill { slot, cloudlet, .. } => {
                io.table(format!(
                    "slot {slot}: one instance killed on cloudlet {cloudlet}"
                ))?;
            }
            TraceEvent::SlaBreach { slot, .. } => {
                io.table(format!(
                    "slot {slot}: surviving placement fell below the requirement (SLA breach)"
                ))?;
            }
            TraceEvent::Recovery {
                slot,
                success,
                cloudlets,
                ..
            } => {
                if *success {
                    io.table(format!(
                        "slot {slot}: recovered onto cloudlet(s) {cloudlets:?}"
                    ))?;
                } else {
                    io.table(format!("slot {slot}: recovery attempt failed"))?;
                }
            }
            TraceEvent::Eviction { slot, density, .. } => {
                io.table(format!(
                    "slot {slot}: evicted by the load shedder (payment density {density})"
                ))?;
            }
            // Fleet-level events carry no request id and never pass the
            // `request()` filter above (chain events live in their own
            // id namespace — `explain chain:<ID>` replays them).
            TraceEvent::ChainDecision(_)
            | TraceEvent::ChainPath { .. }
            | TraceEvent::StageSample { .. }
            | TraceEvent::OutageStart { .. }
            | TraceEvent::OutageEnd { .. }
            | TraceEvent::DomainOutageStart { .. }
            | TraceEvent::DomainOutageEnd { .. }
            | TraceEvent::Cascade { .. }
            | TraceEvent::DegradedEnter { .. }
            | TraceEvent::DegradedExit { .. }
            | TraceEvent::AuditViolation { .. }
            | TraceEvent::Promotion { .. }
            | TraceEvent::Fenced { .. }
            | TraceEvent::ReplCatchup { .. }
            | TraceEvent::ChaosFault { .. }
            | TraceEvent::ShardRestart { .. } => {}
        }
    }
    if mismatches > 0 {
        return Err(CliError::Internal(format!(
            "{mismatches} dual-cost arithmetic mismatch(es) in {trace_path}"
        )));
    }
    Ok(())
}

/// Replays the chain-decision and chain-path events of one chain and
/// re-verifies the recorded arithmetic: stage dual costs must sum to
/// the total, the margin must equal payment − dual cost, and the
/// per-segment path latencies must sum to the recorded end-to-end
/// latency, which must fit the budget.
fn explain_chain(
    chain: usize,
    events: &[TraceEvent],
    trace_path: &str,
    io: &mut Output<'_>,
) -> Result<(), CliError> {
    use mec_obs::ChainOutcome;

    let mine: Vec<&TraceEvent> = events.iter().filter(|e| e.chain() == Some(chain)).collect();
    if mine.is_empty() {
        return Err(CliError::Config(format!(
            "chain {chain} does not appear in {trace_path} ({} events scanned)",
            events.len()
        )));
    }

    let mut mismatches = 0usize;
    let mut path_sum = 0.0f64;
    let mut saw_path = false;
    for event in &mine {
        match event {
            TraceEvent::ChainPath {
                segment,
                nodes,
                latency,
                ..
            } => {
                io.table(format!(
                    "segment {segment}: nodes {nodes:?}, latency {latency}"
                ))?;
                path_sum += latency;
                saw_path = true;
            }
            TraceEvent::ChainDecision(d) => {
                io.table(format!(
                    "slot {}: {} decided on chain {} (payment {})",
                    d.slot, d.algorithm, d.chain, d.payment
                ))?;
                match &d.outcome {
                    ChainOutcome::Admit {
                        dual_cost,
                        margin,
                        latency,
                        budget,
                        availability,
                        stages,
                    } => {
                        io.table(format!(
                            "  ADMITTED: dual cost {dual_cost}, margin {margin}, \
                             latency {latency} (budget {budget}), availability {availability}"
                        ))?;
                        for (k, s) in stages.iter().enumerate() {
                            let backup = match (s.standby, s.backup_shared) {
                                (Some(id), Some(true)) => format!(", standby β{id} (shared)"),
                                (Some(id), _) => format!(", standby β{id} (dedicated)"),
                                (None, _) => String::new(),
                            };
                            io.table(format!(
                                "    stage {k}: vnf {} on cloudlet {}, {} replica(s), \
                                 dual cost {}{backup}",
                                s.vnf, s.cloudlet, s.replicas, s.dual_cost
                            ))?;
                        }
                        let stage_sum: f64 = stages.iter().map(|s| s.dual_cost).sum();
                        check_cost_sum(io, "stage", stage_sum, *dual_cost, &mut mismatches)?;
                        check_margin(io, d.payment, *dual_cost, *margin, &mut mismatches)?;
                        if saw_path {
                            if approx(path_sum, *latency) {
                                io.table(format!(
                                    "  check: segment latencies sum to {path_sum} = recorded \
                                     latency [ok]"
                                ))?;
                            } else {
                                mismatches += 1;
                                io.table(format!(
                                    "  check: segment latencies sum to {path_sum} but recorded \
                                     latency is {latency} [MISMATCH]"
                                ))?;
                            }
                        }
                        if *latency <= *budget {
                            io.table(format!(
                                "  check: latency {latency} within budget {budget} [ok]"
                            ))?;
                        } else {
                            mismatches += 1;
                            io.table(format!(
                                "  check: latency {latency} EXCEEDS budget {budget} [MISMATCH]"
                            ))?;
                        }
                    }
                    ChainOutcome::Reject {
                        reason,
                        dual_cost,
                        margin,
                    } => {
                        let (payment, reason) = (d.payment, reason.as_str());
                        explain_reject(io, reason, payment, *dual_cost, *margin, &mut mismatches)?;
                    }
                }
            }
            // `chain()` answers None for every other variant.
            _ => {}
        }
    }
    if mismatches > 0 {
        return Err(CliError::Internal(format!(
            "{mismatches} chain arithmetic mismatch(es) in {trace_path}"
        )));
    }
    Ok(())
}

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// Checks that an admission's per-site (or per-stage) dual costs sum to
/// its recorded total.
fn check_cost_sum(
    io: &mut Output<'_>,
    part: &str,
    sum: f64,
    total: f64,
    mismatches: &mut usize,
) -> Result<(), CliError> {
    if approx(sum, total) {
        return io.table(format!(
            "  check: {part} dual costs sum to {sum} = recorded total [ok]"
        ));
    }
    *mismatches += 1;
    io.table(format!(
        "  check: {part} dual costs sum to {sum} but total is {total} [MISMATCH]"
    ))
}

/// Prints a rejection (a request's or a chain's) and re-checks the
/// margin identity where both sides of it were recorded.
fn explain_reject(
    io: &mut Output<'_>,
    reason: &str,
    payment: f64,
    dual_cost: Option<f64>,
    margin: Option<f64>,
    mismatches: &mut usize,
) -> Result<(), CliError> {
    io.table(format!("  REJECTED: {reason}"))?;
    if let Some(c) = dual_cost {
        io.table(format!("    cheapest dual cost seen: {c}"))?;
    }
    if let Some(m) = margin {
        io.table(format!("    payment margin: {m}"))?;
    }
    if let (Some(c), Some(m)) = (dual_cost, margin) {
        check_margin(io, payment, c, m, mismatches)?;
    }
    Ok(())
}

fn check_margin(
    io: &mut Output<'_>,
    payment: f64,
    dual_cost: f64,
    margin: f64,
    mismatches: &mut usize,
) -> Result<(), CliError> {
    let derived = payment - dual_cost;
    if approx(derived, margin) {
        io.table(format!(
            "  check: payment − dual cost = {derived} = recorded margin [ok]"
        ))?;
    } else {
        *mismatches += 1;
        io.table(format!(
            "  check: payment − dual cost = {derived} but recorded margin is {margin} [MISMATCH]"
        ))?;
    }
    Ok(())
}

/// Runs the `topo` command.
///
/// # Errors
///
/// Returns a printable message on invalid configurations.
pub fn topo(
    choice: &TopologyChoice,
    dot: bool,
    seed: u64,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = CloudletPlacement::balanced();
    let network = build_network(choice, &placement, &mut rng)?;
    if dot {
        write!(out, "{}", to_dot(&network)).map_err(CliError::io)?;
    } else {
        writeln!(out, "{}", NetworkStats::compute(&network)).map_err(CliError::io)?;
    }
    Ok(())
}

/// Runs the `promote` command: asks a standby daemon to promote itself
/// to primary. The daemon drains its replication channel first, so the
/// ack arriving means every decision the old primary managed to stream
/// is already applied.
///
/// # Errors
///
/// [`CliError::Net`] when the standby is unreachable or refuses (it is
/// already mid-promotion, or the address points at something else).
pub fn promote(addr: &str, io: &mut Output<'_>) -> Result<(), CliError> {
    io.note(format!("requesting promotion of {addr}"))?;
    let ack = client::control(addr, ControlAction::Promote)?;
    io.table(format!(
        "promoted: {addr} is now {} at epoch {} (slot {}, {} decided, revenue {:.2})",
        ack.role, ack.epoch, ack.slot, ack.stats.decided, ack.stats.revenue
    ))?;
    Ok(())
}

/// Runs the `dump-flight` command: asks a running daemon to dump its
/// flight-recorder rings to `flight-<epoch>-<shard>.jsonl` files under
/// its `--flight-dir`. A daemon without a flight directory acks without
/// writing anything (the recorders are off).
///
/// # Errors
///
/// [`CliError::Net`] when the daemon is unreachable or refuses.
pub fn dump_flight(addr: &str, io: &mut Output<'_>) -> Result<(), CliError> {
    io.note(format!("requesting a flight dump from {addr}"))?;
    let ack = client::control(addr, ControlAction::DumpFlight)?;
    io.table(format!(
        "flight dump acked by {addr} ({} at epoch {}, slot {}, {} decided)",
        ack.role, ack.epoch, ack.slot, ack.stats.decided
    ))?;
    Ok(())
}

/// Writes report lines to `path`, one per line.
pub(crate) fn write_report(path: &str, lines: &[String]) -> Result<(), CliError> {
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text).map_err(|e| CliError::Io(format!("failed to write {path}: {e}")))
}

/// Runs the `chaos-drill` command: the full fault matrix of
/// [`mec_serve::drill`] — network, disk, and process families against
/// both backup schemes — each cell self-healing under a deterministic
/// chaos schedule and refereed for the serving tier's durability
/// invariants (no acked admit lost, no double charge, ledger balance, no
/// acks after fencing). Healed state must be revenue-bit-identical to an
/// un-chaosed golden run.
///
/// # Errors
///
/// [`CliError::Internal`] with a `chaos-drill: FAIL` report when any
/// cell is dirty; infrastructure problems map to their usual
/// categories. The report is written to `--out` either way.
pub fn chaos_drill(args: &ChaosDrillArgs, io: &mut Output<'_>) -> Result<(), CliError> {
    let n = if args.quick {
        args.sim.requests.min(48)
    } else {
        args.sim.requests
    };
    let mut scenarios = Vec::new();
    for scheme in [Scheme::OnSite, Scheme::OffSite] {
        let mut sim = args.sim.clone();
        sim.scheme = scheme;
        sim.requests = n + 1; // the extra request is the fencing probe
        let (instance, requests) = build_setup(&sim)?;
        scenarios.push(ChaosScenario {
            scheme,
            instance,
            requests,
            fingerprint: scenario_fingerprint(&sim),
        });
    }
    let header = format!(
        "chaos-drill: workload seed {}, chaos seed {}, {} requests per cell{}",
        args.sim.seed,
        args.chaos_seed,
        n,
        if args.quick { " (quick)" } else { "" }
    );
    let plan = ChaosPlan::new(args.chaos_seed, ChaosConfig::default());
    let flight_dir = args.flight_dir.as_deref().map(Path::new);
    let report = chaos_matrix(header, &scenarios, &plan, flight_dir, &mut |starting| {
        let _ = io.note(starting);
    })?;

    let lines = report.lines();
    for line in &lines {
        io.table(line)?;
    }
    if let Some(parent) = Path::new(&args.out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CliError::Io(format!("failed to create {}: {e}", parent.display())))?;
        }
    }
    write_report(&args.out, &lines)?;
    io.note(format!("chaos report -> {}", args.out))?;
    let (dirty, total) = (report.dirty(), report.cells.len());
    if dirty > 0 {
        return Err(CliError::Internal(format!(
            "chaos drill failed: {dirty} of {total} cells dirty (see {})",
            args.out
        )));
    }
    Ok(())
}

/// Runs the `chaos-proxy` command: a standalone fault-injecting TCP
/// proxy for interposing on a daemon by hand. Prints the bound address
/// to stdout and forwards until killed.
///
/// # Errors
///
/// [`CliError::Net`] when the upstream does not resolve or the proxy
/// cannot bind.
pub fn chaos_proxy(args: &ChaosProxyArgs, io: &mut Output<'_>) -> Result<(), CliError> {
    use std::net::ToSocketAddrs;
    let upstream = args
        .upstream
        .to_socket_addrs()
        .map_err(|e| CliError::Net(format!("failed to resolve {}: {e}", args.upstream)))?
        .next()
        .ok_or_else(|| CliError::Net(format!("{} resolved to no address", args.upstream)))?;
    let plan = ChaosPlan::new(args.chaos_seed, ChaosConfig::default());
    let proxy = ChaosProxy::spawn(upstream, plan, None)
        .map_err(|e| CliError::Net(format!("failed to spawn the chaos proxy: {e}")))?;
    io.table(format!("listening on {}", proxy.local_addr()))?;
    io.flush()?;
    io.note(format!(
        "forwarding to {upstream} with chaos seed {} (drops, delays, truncations, stalls, \
         partitions per the deterministic schedule); Ctrl-C to stop",
        args.chaos_seed
    ))?;
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::SimulateArgs;

    /// Runs `simulate`, returning (stdout, stderr).
    fn run_simulate(args: &SimulateArgs) -> Result<(String, String), CliError> {
        let mut out = Vec::new();
        let mut err = Vec::new();
        simulate(args, &mut Output::new(&mut out, &mut err, args.quiet))?;
        Ok((
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        ))
    }

    fn run_failures(args: &FailuresArgs) -> Result<(String, String), CliError> {
        let mut out = Vec::new();
        let mut err = Vec::new();
        failures(
            args,
            None,
            &mut Output::new(&mut out, &mut err, args.sim.quiet),
        )?;
        Ok((
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        ))
    }

    fn temp_path(tag: &str) -> String {
        let dir = std::env::temp_dir().join("vnfrel-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{tag}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn simulate_runs_every_algorithm() {
        for (scheme, algo) in [
            (Scheme::OnSite, AlgorithmChoice::PrimalDual),
            (Scheme::OnSite, AlgorithmChoice::Greedy),
            (Scheme::OnSite, AlgorithmChoice::Random),
            (Scheme::OnSite, AlgorithmChoice::Density),
            (Scheme::OffSite, AlgorithmChoice::PrimalDual),
            (Scheme::OffSite, AlgorithmChoice::Greedy),
            (Scheme::OffSite, AlgorithmChoice::Random),
        ] {
            let args = SimulateArgs {
                requests: 40,
                scheme,
                algorithm: algo,
                failure_trials: 200,
                ..SimulateArgs::default()
            };
            let (out, err) =
                run_simulate(&args).unwrap_or_else(|e| panic!("{scheme} {algo:?}: {e}"));
            assert!(out.contains("revenue"), "{out}");
            assert!(out.contains("feasible: true"), "{out}");
            assert!(out.contains("failure injection"), "{out}");
            // The instance banner is provenance, not a result table.
            assert!(err.contains("cloudlets"), "{err}");
            assert!(!out.contains("cloudlets,"), "{out}");
        }
    }

    #[test]
    fn quiet_suppresses_stderr_notes() {
        let args = SimulateArgs {
            requests: 20,
            quiet: true,
            ..SimulateArgs::default()
        };
        let (out, err) = run_simulate(&args).unwrap();
        assert!(out.contains("revenue"));
        assert!(err.is_empty(), "{err}");
    }

    #[test]
    fn simulate_with_trace_and_metrics_exports_both() {
        let trace_path = temp_path("sim-trace.jsonl");
        let metrics_path = temp_path("sim-metrics.prom");
        let args = SimulateArgs {
            requests: 50,
            trace: Some(trace_path.clone()),
            metrics: Some(metrics_path.clone()),
            ..SimulateArgs::default()
        };
        let (out, err) = run_simulate(&args).unwrap();
        assert!(out.contains("revenue"));
        assert!(err.contains("trace: "), "{err}");

        // Exactly one decision event per request, and the admit/reject
        // split matches the printed metrics.
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let events = mec_obs::parse_trace(&text).unwrap();
        assert_eq!(events.len(), 50);
        let admits = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Decision(d) if d.outcome.is_admit()))
            .count();
        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(
            prom.contains(&format!("vnfrel_admissions_total {admits}")),
            "{prom}"
        );
        assert!(
            prom.contains(&format!("vnfrel_rejections_total {}", 50 - admits)),
            "{prom}"
        );
        assert!(
            prom.contains("vnfrel_decide_latency_seconds_count 50"),
            "{prom}"
        );

        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&metrics_path).ok();
    }

    #[test]
    fn explain_replays_a_recorded_trace() {
        let trace_path = temp_path("explain-trace.jsonl");
        let args = SimulateArgs {
            requests: 30,
            trace: Some(trace_path.clone()),
            ..SimulateArgs::default()
        };
        run_simulate(&args).unwrap();

        // Every recorded request must explain cleanly (arithmetic checks
        // included — explain() errors on any mismatch).
        for id in [0usize, 7, 29] {
            let mut out = Vec::new();
            let mut err = Vec::new();
            explain(
                id,
                false,
                &trace_path,
                &mut Output::new(&mut out, &mut err, false),
            )
            .unwrap_or_else(|e| panic!("request {id}: {e}"));
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains(&format!("request {id} ")), "{text}");
            assert!(
                text.contains("ADMITTED") || text.contains("REJECTED"),
                "{text}"
            );
        }
        // Unknown ids are an error, not silence.
        let mut out = Vec::new();
        let mut err = Vec::new();
        let missing = explain(
            10_000,
            false,
            &trace_path,
            &mut Output::new(&mut out, &mut err, false),
        );
        assert!(missing.is_err());

        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn chain_command_runs_and_explains() {
        let trace_path = temp_path("chain-trace.jsonl");
        let args = ChainArgs {
            sim: SimulateArgs {
                seed: 5,
                trace: Some(trace_path.clone()),
                failure_trials: 2_000,
                ..SimulateArgs::default()
            },
            chains: 25,
            mixed: true,
            quick: true,
            ..ChainArgs::default()
        };
        let mut out = Vec::new();
        let mut err = Vec::new();
        chain(&args, &mut Output::new(&mut out, &mut err, false)).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("chains:"), "{text}");
        assert!(text.contains("singles:"), "{text}");
        assert!(text.contains("statistical violations 0"), "{text}");

        // Every admitted chain in the trace explains cleanly; the
        // arithmetic checks (stage sums, margin, path sums, budget) are
        // hard errors inside explain().
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let events = mec_obs::parse_trace(&text).unwrap();
        let chain_ids: Vec<usize> = events.iter().filter_map(|e| e.chain()).collect();
        assert!(!chain_ids.is_empty());
        for id in chain_ids.iter().take(5) {
            let mut out = Vec::new();
            let mut err = Vec::new();
            explain(
                *id,
                true,
                &trace_path,
                &mut Output::new(&mut out, &mut err, false),
            )
            .unwrap_or_else(|e| panic!("chain {id}: {e}"));
            let text = String::from_utf8(out).unwrap();
            assert!(
                text.contains("ADMITTED") || text.contains("REJECTED"),
                "{text}"
            );
        }
        // A chain id is not a request id: the namespaces are disjoint.
        let mut out = Vec::new();
        let mut err = Vec::new();
        assert!(explain(
            10_000,
            true,
            &trace_path,
            &mut Output::new(&mut out, &mut err, false)
        )
        .is_err());

        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn export_errors_name_the_target_path() {
        let bad = "/nonexistent-dir-for-vnfrel-test/trace.jsonl";
        let args = SimulateArgs {
            requests: 5,
            trace: Some(bad.into()),
            ..SimulateArgs::default()
        };
        let e = run_simulate(&args).unwrap_err();
        assert!(matches!(e, CliError::Io(_)), "{e}");
        assert!(e.to_string().contains(bad), "{e}");

        let args = SimulateArgs {
            requests: 5,
            timeline_csv: Some("/nonexistent-dir-for-vnfrel-test/t.csv".into()),
            ..SimulateArgs::default()
        };
        let e = run_simulate(&args).unwrap_err();
        assert!(
            e.to_string()
                .contains("/nonexistent-dir-for-vnfrel-test/t.csv"),
            "{e}"
        );
    }

    #[test]
    fn trace_and_metrics_reject_random_and_density() {
        for algorithm in [AlgorithmChoice::Random, AlgorithmChoice::Density] {
            let args = SimulateArgs {
                algorithm,
                trace: Some(temp_path("never-written.jsonl")),
                ..SimulateArgs::default()
            };
            let e = run_simulate(&args).unwrap_err();
            assert!(matches!(e, CliError::Usage(_)), "{e}");
            assert!(e.to_string().contains("primal-dual and greedy"), "{e}");
        }
    }

    #[test]
    fn failures_runs_every_policy_and_compares() {
        for policy in [
            RecoveryPolicy::None,
            RecoveryPolicy::OnSite,
            RecoveryPolicy::OffSite,
            RecoveryPolicy::SchemeMatching,
        ] {
            let args = FailuresArgs {
                sim: SimulateArgs {
                    requests: 60,
                    ..SimulateArgs::default()
                },
                mttf: 10.0,
                mttr: 3.0,
                kill_rate: 0.05,
                policy,
                failure_seed: 5,
                sla_csv: None,
            };
            let (out, err) = run_failures(&args).unwrap_or_else(|e| panic!("{policy}: {e}"));
            assert!(err.contains("failure process"), "{err}");
            assert!(out.contains(&format!("policy {policy}")), "{out}");
            if policy == RecoveryPolicy::None {
                assert!(!out.contains("baseline"), "{out}");
            } else {
                assert!(out.contains("baseline none"), "{out}");
                assert!(out.contains("violated request-slots"), "{out}");
            }
        }
    }

    #[test]
    fn failures_trace_interleaves_faults_and_exports_csvs() {
        let trace_path = temp_path("fault-trace.jsonl");
        let timeline_path = temp_path("fault-timeline.csv");
        let sla_path = temp_path("fault-sla.csv");
        let args = FailuresArgs {
            sim: SimulateArgs {
                requests: 60,
                trace: Some(trace_path.clone()),
                timeline_csv: Some(timeline_path.clone()),
                ..SimulateArgs::default()
            },
            mttf: 10.0,
            mttr: 3.0,
            kill_rate: 0.05,
            policy: RecoveryPolicy::SchemeMatching,
            failure_seed: 5,
            sla_csv: Some(sla_path.clone()),
        };
        let (out, _err) = run_failures(&args).unwrap();
        assert!(out.contains("policy scheme-matching"), "{out}");

        let text = std::fs::read_to_string(&trace_path).unwrap();
        let events = mec_obs::parse_trace(&text).unwrap();
        // One decision per request plus at least one fault event (the
        // aggressive mttf guarantees outages in 16 slots).
        let decisions = events.iter().filter(|e| e.kind() == "decision").count();
        assert_eq!(decisions, 60);
        assert!(events.len() > 60, "no fault events in {}", events.len());

        let timeline = std::fs::read_to_string(&timeline_path).unwrap();
        assert!(timeline.starts_with("slot,arrivals,admitted,active,events"));
        let sla = std::fs::read_to_string(&sla_path).unwrap();
        assert!(sla.starts_with("request,payment,duration"));

        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&timeline_path).ok();
        std::fs::remove_file(&sla_path).ok();
    }

    #[test]
    fn simulate_rejects_offsite_density() {
        // The parser already blocks this; the runner must too.
        let args = SimulateArgs {
            scheme: Scheme::OffSite,
            algorithm: AlgorithmChoice::Density,
            ..SimulateArgs::default()
        };
        assert!(run_simulate(&args).is_err());
    }

    #[test]
    fn topo_stats_and_dot() {
        let mut buf = Vec::new();
        topo(&TopologyChoice::Zoo("nsfnet".into()), false, 1, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("14 nodes"), "{text}");

        let mut buf = Vec::new();
        topo(
            &TopologyChoice::Grid { rows: 2, cols: 2 },
            true,
            1,
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("graph mec {"));
    }

    #[test]
    fn build_network_variants() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let p = CloudletPlacement::balanced();
        for choice in [
            TopologyChoice::Zoo("geant".into()),
            TopologyChoice::ErdosRenyi { n: 20, p: 0.2 },
            TopologyChoice::BarabasiAlbert { n: 20, m: 2 },
            TopologyChoice::Grid { rows: 3, cols: 3 },
        ] {
            let net = build_network(&choice, &p, &mut rng).unwrap();
            assert!(net.is_connected());
        }
        assert!(build_network(&TopologyChoice::Zoo("nope".into()), &p, &mut rng).is_err());
    }
}
