//! Executes parsed commands.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::mpsc;
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
    AlgorithmChoice, ChainArgs, ChaosDrillArgs, ChaosProxyArgs, DegradationArgs, FailoverDrillArgs,
    FailuresArgs, LoadgenArgs, ServeArgs, SimulateArgs, TopologyChoice,
};
use crate::error::CliError;
use mec_serve::{
    encode_client, parse_server, referee, run_loadgen, run_open_loop, serve as serve_daemon,
    serve_sharded, ChaosArtifacts, ChaosConfig, ChaosPlan, ChaosProxy, ChaosSnapshotIo, ClientMsg,
    ControlAck, ControlAction, DecisionTap, LoadgenConfig, LoadgenReport, OpenLoopConfig,
    ServeConfig, ServeError, ServeMetricIds, ServeReport, ServeStats, ServerMsg, ShardedReport,
    Snapshot, SubmitRequest,
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
    fn table(&mut self, s: impl std::fmt::Display) -> Result<(), CliError> {
        writeln!(self.out, "{s}").map_err(CliError::io)
    }

    /// Writes one line of progress/provenance output (stderr), unless
    /// `--quiet`.
    fn note(&mut self, s: impl std::fmt::Display) -> Result<(), CliError> {
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

/// Creates `path` and streams a CSV table into it, reporting any mid-table
/// write failure (rather than leaving a silently truncated file behind).
fn write_csv_file(
    path: &str,
    render: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), CliError> {
    let file =
        File::create(path).map_err(|e| CliError::Io(format!("failed to create {path}: {e}")))?;
    let mut w = BufWriter::new(file);
    render(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| CliError::Io(format!("failed to write {path}: {e}")))
}

/// Writes a metrics snapshot; `.json`/`.jsonl` extensions select the
/// JSONL format, anything else the Prometheus text exposition format.
fn write_metrics_snapshot(registry: &MetricsRegistry, path: &str) -> Result<(), CliError> {
    let body = if path.ends_with(".json") || path.ends_with(".jsonl") {
        registry.to_jsonl()
    } else {
        registry.to_prometheus()
    };
    std::fs::write(path, body)
        .map_err(|e| CliError::Io(format!("failed to write metrics {path}: {e}")))
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

/// Builds the instance and request stream a `simulate`-family command
/// operates on. The returned RNG has consumed the topology and workload
/// draws and may be reused for downstream sampling.
fn build_setup(
    args: &SimulateArgs,
) -> Result<(ProblemInstance, Vec<Request>, ChaCha8Rng), CliError> {
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
    let requests = RequestGenerator::new(instance.horizon())
        .reliability_band(args.requirement.0, args.requirement.1)
        .map_err(CliError::config)?
        .payment_rate_band(args.payment_rate.0, args.payment_rate.1)
        .map_err(CliError::config)?
        .generate(args.requests, instance.catalog(), &mut rng)
        .map_err(CliError::config)?;
    Ok((instance, requests, rng))
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
    let (instance, requests, _rng) = build_setup(args)?;
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

    let report = if args.trace.is_some() || want_metrics {
        let sink = Rc::new(RefCell::new(CliTraceSink {
            metrics: decision_ids.map(|ids| MetricsSink::new(registry, ids)),
            jsonl: args.trace.as_deref().map(open_trace).transpose()?,
        }));
        let mut scheduler = make_scheduler(&instance, args, Rc::clone(&sink))?;
        let report = sim
            .run_ordered(
                scheduler.as_mut(),
                IntraSlotOrder::Arrival,
                engine_metrics.as_ref(),
            )
            .map_err(CliError::internal)?;
        drop(scheduler);
        finish_trace(sink, args.trace.as_deref(), io)?;
        report
    } else {
        let mut scheduler = make_scheduler(&instance, args, NoopSink)?;
        sim.run(scheduler.as_mut()).map_err(CliError::internal)?
    };

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
        let fr = match inject_ids {
            Some(ids) => failure::inject_failures_parallel_metered(
                &instance,
                &requests,
                &report.schedule,
                args.failure_trials,
                args.seed,
                args.threads,
                (registry, ids),
            ),
            None => failure::inject_failures_parallel(
                &instance,
                &requests,
                &report.schedule,
                args.failure_trials,
                args.seed,
                args.threads,
            ),
        }
        .map_err(CliError::internal)?;
        io.table(format!(
            "failure injection: {} trials, worst margin {:+.4}, statistical violations {}",
            fr.trials,
            fr.worst_margin().unwrap_or(f64::NAN),
            fr.statistical_violations(3.0).len()
        ))?;
    }

    if let Some(path) = &args.timeline_csv {
        write_csv_file(path, |w| export::write_timeline_csv(w, &report))?;
        io.note(format!("timeline CSV -> {path}"))?;
    }
    if let Some(path) = &args.metrics {
        write_metrics_snapshot(registry, path)?;
        io.note(format!("metrics snapshot -> {path}"))?;
    }
    Ok(())
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
    let mut rng = ChaCha8Rng::seed_from_u64(args.sim.seed);
    let placement = CloudletPlacement {
        fraction: args.sim.cloudlet_fraction,
        capacity: args.sim.capacity,
        reliability: args.sim.cloudlet_reliability,
    };
    let network = build_network(&args.sim.topology, &placement, &mut rng)?;
    let instance = ProblemInstance::new(
        network,
        VnfCatalog::standard(),
        Horizon::new(args.sim.horizon),
    )
    .map_err(CliError::config)?;
    let singles = if args.mixed {
        RequestGenerator::new(instance.horizon())
            .reliability_band(args.sim.requirement.0, args.sim.requirement.1)
            .map_err(CliError::config)?
            .payment_rate_band(args.sim.payment_rate.0, args.sim.payment_rate.1)
            .map_err(CliError::config)?
            .generate(args.sim.requests, instance.catalog(), &mut rng)
            .map_err(CliError::config)?
    } else {
        Vec::new()
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

    let want_metrics = args.sim.metrics.is_some();
    let mut registry = MetricsRegistry::new();
    let decision_ids = want_metrics.then(|| DecisionMetricIds::register(&mut registry));
    let registry = &registry;

    let report = if args.sim.trace.is_some() || want_metrics {
        let sink = Rc::new(RefCell::new(CliTraceSink {
            metrics: decision_ids.map(|ids| MetricsSink::new(registry, ids)),
            jsonl: args.sim.trace.as_deref().map(open_trace).transpose()?,
        }));
        let mut scheduler = ChainPrimalDual::with_mass_cap(
            &instance,
            args.backups,
            args.mass_cap,
            Rc::clone(&sink),
        );
        let report = sim.run(&mut scheduler);
        drop(scheduler);
        finish_trace(sink, args.sim.trace.as_deref(), io)?;
        report
    } else {
        let mut scheduler =
            ChainPrimalDual::with_mass_cap(&instance, args.backups, args.mass_cap, NoopSink);
        sim.run(&mut scheduler)
    };

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
    if let Some(path) = &args.sim.metrics {
        write_metrics_snapshot(registry, path)?;
        io.note(format!("metrics snapshot -> {path}"))?;
    }
    Ok(())
}

/// Runs the `failures` command: a fault-aware simulation under a seeded
/// outage trace, with SLA accounting and (unless the policy already is
/// `none`) a same-trace no-recovery baseline for comparison. With
/// `--trace`, fault-lifecycle events (outages, kills, breaches,
/// recoveries) are interleaved with the scheduler's decision events in
/// one stream.
///
/// # Errors
///
/// Returns a printable message on invalid configurations or failed
/// exports (always naming the target path).
pub fn failures(args: &FailuresArgs, io: &mut Output<'_>) -> Result<(), CliError> {
    let (instance, requests, _) = build_setup(&args.sim)?;
    let sim = Simulation::new(&instance, &requests).map_err(CliError::config)?;
    let config = FailureConfig {
        cloudlet_mttf: args.mttf,
        cloudlet_mttr: args.mttr,
        instance_kill_rate: args.kill_rate,
    };
    let trace = FailureProcess::generate(
        instance.network(),
        &config,
        instance.horizon(),
        &mut ChaCha8Rng::seed_from_u64(args.failure_seed),
    )
    .map_err(CliError::config)?;

    let want_metrics = args.sim.metrics.is_some();
    let mut registry = MetricsRegistry::new();
    let decision_ids = want_metrics.then(|| DecisionMetricIds::register(&mut registry));
    let registry = &registry;

    let report = if args.sim.trace.is_some() || want_metrics {
        let sink = Rc::new(RefCell::new(CliTraceSink {
            metrics: decision_ids.map(|ids| MetricsSink::new(registry, ids)),
            jsonl: args.sim.trace.as_deref().map(open_trace).transpose()?,
        }));
        let mut scheduler = make_scheduler(&instance, &args.sim, Rc::clone(&sink))?;
        // The engine appends fault-lifecycle events through its own
        // handle to the same stream.
        let mut engine_sink = Rc::clone(&sink);
        let report = sim
            .run_faulted(
                scheduler.as_mut(),
                &trace,
                args.policy,
                None,
                &mut engine_sink,
            )
            .map_err(CliError::internal)?;
        drop(scheduler);
        drop(engine_sink);
        finish_trace(sink, args.sim.trace.as_deref(), io)?;
        report
    } else {
        let mut scheduler = make_scheduler(&instance, &args.sim, NoopSink)?;
        sim.run_faulted(scheduler.as_mut(), &trace, args.policy, None, &mut NoopSink)
            .map_err(CliError::internal)?
    };

    io.note(format!("{instance}"))?;
    io.note(format!(
        "failure process: mttf {} mttr {} kill-rate {} seed {} -> {} events",
        args.mttf,
        args.mttr,
        args.kill_rate,
        args.failure_seed,
        trace.total_events()
    ))?;
    io.table(&report.metrics)?;
    io.table(format!("policy {}: {}", report.policy, report.sla))?;
    if let Some(latency) = report.sla.mean_repair_latency() {
        io.table(format!("mean repair latency: {latency:.2} slots"))?;
    }
    io.table(format!(
        "unrecovered requests: {}",
        report.sla.unrecovered_requests()
    ))?;

    if args.policy != RecoveryPolicy::None {
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
    }

    if let Some(path) = &args.sim.timeline_csv {
        write_csv_file(path, |w| export::write_fault_timeline_csv(w, &report))?;
        io.note(format!("timeline CSV -> {path}"))?;
    }
    if let Some(path) = &args.sla_csv {
        write_csv_file(path, |w| export::write_sla_csv(w, &report))?;
        io.note(format!("SLA CSV -> {path}"))?;
    }
    if let Some(path) = &args.sim.metrics {
        write_metrics_snapshot(registry, path)?;
        io.note(format!("metrics snapshot -> {path}"))?;
    }
    Ok(())
}

/// Runs the `degradation` command: a fault-aware simulation whose
/// outage trace carries correlated failure domains (zone partitions of
/// the cloudlet fleet) and an optional cascade overlay, replayed through
/// the graceful-degradation layer — headroom-reserving admission, a
/// revenue-aware load shedder, bounded retries with exponential backoff,
/// and the runtime invariant auditor. A same-trace no-recovery baseline
/// quantifies what the layer buys.
///
/// # Errors
///
/// Returns a printable message on invalid configurations or failed
/// exports (always naming the target path).
pub fn degradation(args: &DegradationArgs, io: &mut Output<'_>) -> Result<(), CliError> {
    let fargs = &args.failures;
    let (instance, requests, _) = build_setup(&fargs.sim)?;
    let sim = Simulation::new(&instance, &requests).map_err(CliError::config)?;
    let config = FailureConfig {
        cloudlet_mttf: fargs.mttf,
        cloudlet_mttr: fargs.mttr,
        instance_kill_rate: fargs.kill_rate,
    };
    let domains = FailureDomainSet::zones(
        instance.network(),
        args.domains,
        args.domain_mttf,
        args.domain_mttr,
    )
    .map_err(CliError::config)?;
    let trace = FailureProcess::generate_with_domains(
        instance.network(),
        &config,
        &domains,
        args.cascade,
        instance.horizon(),
        &mut ChaCha8Rng::seed_from_u64(fargs.failure_seed),
    )
    .map_err(CliError::config)?;

    let report = if fargs.sim.trace.is_some() {
        let sink = Rc::new(RefCell::new(CliTraceSink {
            metrics: None,
            jsonl: fargs.sim.trace.as_deref().map(open_trace).transpose()?,
        }));
        let mut scheduler = make_scheduler(&instance, &fargs.sim, Rc::clone(&sink))?;
        let mut engine_sink = Rc::clone(&sink);
        let report = sim
            .run_faulted(
                scheduler.as_mut(),
                &trace,
                fargs.policy,
                Some(&args.config),
                &mut engine_sink,
            )
            .map_err(CliError::internal)?;
        drop(scheduler);
        drop(engine_sink);
        finish_trace(sink, fargs.sim.trace.as_deref(), io)?;
        report
    } else {
        let mut scheduler = make_scheduler(&instance, &fargs.sim, NoopSink)?;
        sim.run_faulted(
            scheduler.as_mut(),
            &trace,
            fargs.policy,
            Some(&args.config),
            &mut NoopSink,
        )
        .map_err(CliError::internal)?
    };

    io.note(format!("{instance}"))?;
    io.note(format!(
        "failure process: mttf {} mttr {} kill-rate {} seed {} -> {} events",
        fargs.mttf,
        fargs.mttr,
        fargs.kill_rate,
        fargs.failure_seed,
        trace.total_events()
    ))?;
    io.note(format!(
        "failure domains: {} zones, mttf {} mttr {} -> {} domain events{}",
        args.domains,
        args.domain_mttf,
        args.domain_mttr,
        trace.total_domain_events(),
        match &args.cascade {
            Some(c) => format!(
                "; cascades above {:.0}% utilization (hazard {}, {} slots)",
                c.utilization_threshold * 100.0,
                c.hazard,
                c.outage_slots
            ),
            None => "; cascades off".into(),
        }
    ))?;
    io.table(&report.metrics)?;
    io.table(format!("policy {}: {}", report.policy, report.sla))?;
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
        Some(audit) => {
            io.table(format!("audit: {audit}"))?;
        }
        None => io.note("audit: off".to_string())?,
    }

    // Same-trace baseline without recovery or degradation: what the
    // layer buys in violated slots and retained revenue.
    let mut baseline = make_scheduler(&instance, &fargs.sim, NoopSink)?;
    let base = sim
        .run_faulted(
            baseline.as_mut(),
            &trace,
            RecoveryPolicy::None,
            None,
            &mut NoopSink,
        )
        .map_err(CliError::config)?;
    io.table(format!("baseline {}: {}", base.policy, base.sla))?;
    io.table(format!(
        "violated request-slots: {} -> {}",
        base.sla.violated_request_slots(),
        report.sla.violated_request_slots()
    ))?;
    io.table(format!(
        "revenue retained: {:.2} -> {:.2}",
        base.sla.revenue_retained(),
        report.sla.revenue_retained()
    ))?;

    if let Some(path) = &fargs.sim.timeline_csv {
        write_csv_file(path, |w| export::write_fault_timeline_csv(w, &report))?;
        io.note(format!("timeline CSV -> {path}"))?;
    }
    if let Some(path) = &fargs.sla_csv {
        write_csv_file(path, |w| export::write_sla_csv(w, &report))?;
        io.note(format!("SLA CSV -> {path}"))?;
    }
    Ok(())
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

/// Runs the `serve` command: builds the scenario's instance and blocks
/// serving line-JSON admission requests until a shutdown control or
/// signal. `--shards 1` hands the daemon the selected scheduler wired to
/// its decision tap; `--shards S` lets it build one primal-dual
/// scheduler per cloudlet partition. Everything else — config, listener
/// announcement, summary — is the same daemon.
///
/// # Errors
///
/// [`CliError::Net`] when the address cannot be bound (bad address,
/// busy port), [`CliError::Snapshot`] when `--resume` finds a corrupt
/// or mismatched snapshot, [`CliError::Config`] on invalid scenarios.
pub fn serve(args: &ServeArgs, io: &mut Output<'_>) -> Result<(), CliError> {
    let (instance, _requests, _rng) = build_setup(&args.sim)?;
    let mut registry = MetricsRegistry::new();
    let ids = ServeMetricIds::register(&mut registry, instance.cloudlet_count());

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
    config.repl_strict = args.repl_strict;
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
            "replicating the decision log to {peer}{}",
            if args.repl_strict {
                " (strict: acks wait for the standby)"
            } else {
                ""
            }
        ))?;
    }
    // The daemon blocks this thread; announce the bound address from a
    // helper thread so `--addr 127.0.0.1:0` runs still print where they
    // actually listen.
    let (tx, rx) = mpsc::channel();
    let quiet = args.sim.quiet;
    let announce = std::thread::spawn(move || {
        if let Ok(addr) = rx.recv() {
            if !quiet {
                eprintln!(
                    "listening on {addr} (GET /metrics for Prometheus text; \
                     SIGINT/SIGTERM for drain-then-snapshot shutdown)"
                );
            }
        }
    });
    // Who builds the scheduler is all that differs.
    let result = if args.shards == 1 {
        let tap = DecisionTap::new();
        let mut scheduler = make_scheduler(&instance, &args.sim, tap.clone())?;
        serve_daemon(scheduler.as_mut(), &tap, &registry, &ids, &config, Some(tx)).map(|r| {
            let tail = format!(
                "final slot {}, epoch {}, role {}",
                r.slot,
                r.epoch,
                r.role.as_str()
            );
            (r.stats, tail, r.snapshot_written, Vec::new())
        })
    } else {
        serve_sharded(
            &instance,
            args.sim.scheme,
            &registry,
            &ids,
            &config,
            Some(tx),
        )
        .map(|r| {
            let tail = format!(
                "{} shards, {} cross-shard admits",
                args.shards, r.cross_shard_admits
            );
            (r.stats, tail, false, r.per_shard_decided)
        })
    };
    announce.join().ok();
    let (stats, tail, snapshot_written, per_shard) = result?;

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

/// Polls until the daemon accepts connections — serve and loadgen are
/// typically started back-to-back — bounded to ~5 s, then lets
/// [`run_loadgen`] surface the real connect error.
fn wait_for_daemon(addr: &str) {
    for _ in 0..50 {
        if std::net::TcpStream::connect(addr).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
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
    let (_instance, requests, _rng) = build_setup(&args.sim)?;
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
    if let Some(first) = args.addr.split(',').next() {
        wait_for_daemon(first.trim());
    }
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
    if let Some(stats) = &report.final_stats {
        io.table(format!(
            "daemon: revenue {:.2}, admitted {}/{} (clean drain-and-shutdown acked)",
            stats.revenue, stats.admitted, stats.decided
        ))?;
    }
    if let Some(path) = &args.hist_out {
        std::fs::write(path, report.latency.to_text())
            .map_err(|e| CliError::Io(format!("failed to write histogram {path}: {e}")))?;
        io.note(format!("latency histogram -> {path}"))?;
    }
    Ok(())
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
    if let Some(first) = args.addr.split(',').next() {
        wait_for_daemon(first.trim());
    }
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
    if let Some(stats) = &report.final_stats {
        io.table(format!(
            "daemon: revenue {:.2}, admitted {}/{} (clean drain-and-shutdown acked)",
            stats.revenue, stats.admitted, stats.decided
        ))?;
    }
    if let Some(path) = &args.hist_out {
        std::fs::write(path, report.latency.to_text())
            .map_err(|e| CliError::Io(format!("failed to write histogram {path}: {e}")))?;
        io.note(format!("latency histogram -> {path}"))?;
    }
    Ok(())
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
                        if approx(site_sum, *dual_cost) {
                            io.table(format!(
                                "  check: site dual costs sum to {site_sum} = recorded total [ok]"
                            ))?;
                        } else {
                            mismatches += 1;
                            io.table(format!(
                                "  check: site dual costs sum to {site_sum} but total is \
                                 {dual_cost} [MISMATCH]"
                            ))?;
                        }
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
                        io.table(format!("  REJECTED: {}", reason.as_str()))?;
                        if let Some(c) = dual_cost {
                            io.table(format!("    cheapest dual cost seen: {c}"))?;
                        }
                        if let Some(m) = margin {
                            io.table(format!("    payment margin: {m}"))?;
                        }
                        if let (Some(c), Some(m)) = (dual_cost, margin) {
                            check_margin(io, d.payment, *c, *m, &mut mismatches)?;
                        }
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
                        if approx(stage_sum, *dual_cost) {
                            io.table(format!(
                                "  check: stage dual costs sum to {stage_sum} = recorded \
                                 total [ok]"
                            ))?;
                        } else {
                            mismatches += 1;
                            io.table(format!(
                                "  check: stage dual costs sum to {stage_sum} but total is \
                                 {dual_cost} [MISMATCH]"
                            ))?;
                        }
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
                        io.table(format!("  REJECTED: {}", reason.as_str()))?;
                        if let Some(c) = dual_cost {
                            io.table(format!("    cheapest dual cost seen: {c}"))?;
                        }
                        if let Some(m) = margin {
                            io.table(format!("    payment margin: {m}"))?;
                        }
                        if let (Some(c), Some(m)) = (dual_cost, margin) {
                            check_margin(io, d.payment, *c, *m, &mut mismatches)?;
                        }
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

/// Opens one connection, sends one control message, and returns the
/// daemon's ack. Used by `promote` and the failover drill; a control is
/// one request/one reply, so a throwaway connection keeps it simple.
fn send_control(addr: &str, action: ControlAction) -> Result<ControlAck, CliError> {
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError::Net(format!("failed to connect to {addr}: {e}")))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream
        .try_clone()
        .map_err(|e| CliError::Net(format!("failed to clone the connection to {addr}: {e}")))?;
    let mut reader = BufReader::new(stream);
    writer
        .write_all(encode_client(&ClientMsg::Control(action)).as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| CliError::Net(format!("failed to send the control to {addr}: {e}")))?;
    let mut reply = String::new();
    let n = reader
        .read_line(&mut reply)
        .map_err(|e| CliError::Net(format!("failed to read the ack from {addr}: {e}")))?;
    if n == 0 {
        return Err(CliError::Net(format!(
            "{addr} closed the connection before acking the control"
        )));
    }
    match parse_server(reply.trim_end()).map_err(CliError::from)? {
        ServerMsg::Ack(ack) => Ok(ack),
        ServerMsg::Error(e) => Err(CliError::Net(format!("{addr} refused the control: {e}"))),
        other => Err(CliError::Net(format!(
            "unexpected reply to the control from {addr}: {other:?}"
        ))),
    }
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
    let ack = send_control(addr, ControlAction::Promote)?;
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
    let ack = send_control(addr, ControlAction::DumpFlight)?;
    io.table(format!(
        "flight dump acked by {addr} ({} at epoch {}, slot {}, {} decided)",
        ack.role, ack.epoch, ack.slot, ack.stats.decided
    ))?;
    Ok(())
}

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

/// Reserves a free loopback port by binding to port 0 and immediately
/// releasing it. A daemon spawned right after re-binds the same port;
/// the race window is acceptable for a drill on loopback.
fn free_addr() -> Result<String, CliError> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| CliError::Net(format!("failed to reserve a loopback port: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CliError::Net(format!("failed to read the reserved port: {e}")))?;
    Ok(addr.to_string())
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
    let scheme = match sim.scheme {
        Scheme::OnSite => "on-site",
        Scheme::OffSite => "off-site",
    };
    [
        "--topology",
        &topology_flag(&sim.topology),
        "--requests",
        &sim.requests.to_string(),
        "--scheme",
        scheme,
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

/// Spawns `vnfrel serve` as a subprocess with this scenario, an
/// address, and role-specific extra flags, logging both streams to
/// `log` for post-mortems.
fn spawn_daemon(
    exe: &Path,
    flags: &[String],
    addr: &str,
    extra: &[&str],
    log: &Path,
    name: &'static str,
) -> Result<ChildGuard, CliError> {
    let log_file = File::create(log)
        .map_err(|e| CliError::Io(format!("failed to create {}: {e}", log.display())))?;
    let err_file = log_file
        .try_clone()
        .map_err(|e| CliError::Io(format!("failed to clone the log handle: {e}")))?;
    let child = std::process::Command::new(exe)
        .arg("serve")
        .args(flags)
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

/// Runs the `failover-drill` command: a deterministic kill-the-primary
/// exercise that must end bit-identical to a run where nothing failed.
///
/// Phases:
/// 1. **Golden**: one daemon, no replication, serve every request,
///    clean shutdown — its snapshot is the reference answer.
/// 2. **Pair**: a standby and a strict-replication primary. Replay the
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
    let (instance, requests, _rng) = build_setup(&args.sim)?;
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
    let flags = sim_flags(&args.sim);
    io.note(format!("{instance}"))?;
    io.note(format!(
        "drill scratch dir {} (kept on failure for the daemon logs)",
        dir.display()
    ))?;

    let mut report: Vec<String> = Vec::new();
    report.push(format!(
        "failover-drill: scenario {:?} {:?} seed {} requests {} kill-at {}",
        args.sim.scheme,
        args.sim.algorithm,
        args.sim.seed,
        requests.len(),
        args.kill_at
    ));

    // Phase 1 — golden run: the answer a failure-free daemon produces.
    let golden_snap = dir.join("golden.snap");
    let golden_addr = free_addr()?;
    {
        let mut golden = spawn_daemon(
            &exe,
            &flags,
            &golden_addr,
            &["--snapshot", &golden_snap.to_string_lossy()],
            &dir.join("golden.log"),
            "golden daemon",
        )?;
        wait_for_daemon(&golden_addr);
        let mut config = LoadgenConfig::new(golden_addr.clone());
        config.shutdown_when_done = true;
        let golden_report = run_loadgen(&requests, &config)?;
        report.push(format!(
            "failover-drill: golden revenue {:.2} admitted {}/{}",
            golden_report.revenue, golden_report.admitted, golden_report.sent
        ));
        let code = golden.wait_exit(Duration::from_secs(20))?;
        if code != Some(0) {
            return drill_fail(
                args,
                io,
                dir,
                report,
                format!("the golden daemon exited with {code:?} instead of 0"),
            );
        }
    }
    let golden = Snapshot::load(&golden_snap)?;

    // Phase 2 — the replicated pair. Standby first: the primary dials
    // it on boot.
    let standby_snap = dir.join("standby.snap");
    let standby_addr = free_addr()?;
    let primary_addr = free_addr()?;
    let mut standby = spawn_daemon(
        &exe,
        &flags,
        &standby_addr,
        &["--standby", "--snapshot", &standby_snap.to_string_lossy()],
        &dir.join("standby.log"),
        "standby daemon",
    )?;
    wait_for_daemon(&standby_addr);
    let mut primary = spawn_daemon(
        &exe,
        &flags,
        &primary_addr,
        &["--replicate-to", &standby_addr, "--repl-strict"],
        &dir.join("primary.log"),
        "primary daemon",
    )?;
    wait_for_daemon(&primary_addr);

    // Replay [0, kill_at) so the kill lands on a warmed-up pair.
    let mut phase1_cfg = LoadgenConfig::new(primary_addr.clone());
    phase1_cfg.shutdown_when_done = false;
    let phase1 = run_loadgen(&requests[..args.kill_at], &phase1_cfg)?;
    if phase1.decided != args.kill_at {
        return drill_fail(
            args,
            io,
            dir,
            report,
            format!(
                "phase 1 decided {}/{} requests before the kill",
                phase1.decided, args.kill_at
            ),
        );
    }

    // Phase 3 — the remaining requests on a reconnecting generator that
    // knows both addresses, then SIGKILL the primary mid-load and
    // promote the standby underneath it.
    let mut phase2_cfg = LoadgenConfig::new(format!("{primary_addr},{standby_addr}"));
    phase2_cfg.start_at = args.kill_at;
    phase2_cfg.shutdown_when_done = false;
    phase2_cfg.reconnect = true;
    // Full speed on loopback would finish the whole tail before the
    // kill lands; pace the sends so the stream spans the failover and
    // the SIGKILL interrupts live traffic.
    phase2_cfg.rate = 400.0;
    let (phase2, promote_ack, promote_time) = std::thread::scope(|scope| -> Result<_, CliError> {
        let loadgen = scope.spawn(|| run_loadgen(&requests, &phase2_cfg));
        // Let a handful of post-kill_at requests through so the kill
        // interrupts live traffic, not an idle daemon.
        std::thread::sleep(Duration::from_millis(50));
        primary.kill();
        let started = std::time::Instant::now();
        let ack = send_control(&standby_addr, ControlAction::Promote)?;
        let promote_time = started.elapsed();
        let phase2 = loadgen
            .join()
            .map_err(|_| CliError::Internal("the phase-2 load generator panicked".into()))??;
        Ok((phase2, ack, promote_time))
    })?;
    report.push(format!(
        "failover-drill: killed the primary (SIGKILL) after {} acked submissions",
        args.kill_at
    ));
    report.push(format!(
        "failover-drill: promoted the standby in {:.1}ms -> role {} epoch {}",
        promote_time.as_secs_f64() * 1e3,
        promote_ack.role,
        promote_ack.epoch
    ));
    report.push(format!(
        "failover-drill: survivor absorbed {} reconnects, {} resubmits, {} not-primary refusals",
        phase2.reconnects, phase2.resubmits, phase2.not_primary
    ));
    if promote_ack.role != "primary" || promote_ack.epoch != 2 {
        return drill_fail(
            args,
            io,
            dir,
            report,
            format!(
                "promotion acked role {} epoch {} (wanted primary at epoch 2)",
                promote_ack.role, promote_ack.epoch
            ),
        );
    }
    if phase2.decided != requests.len() - args.kill_at {
        return drill_fail(
            args,
            io,
            dir,
            report,
            format!(
                "phase 2 decided {}/{} requests across the failover",
                phase2.decided,
                requests.len() - args.kill_at
            ),
        );
    }

    // Phase 4 — fencing: a deposed primary at the old epoch must shoot
    // itself (exit 7) the moment the promoted survivor answers it, and
    // its flight recorder must leave a parseable post-mortem dump.
    let flight_dir = dir.join("flight");
    std::fs::create_dir_all(&flight_dir)
        .map_err(|e| CliError::Io(format!("failed to create {}: {e}", flight_dir.display())))?;
    let fence_addr = free_addr()?;
    let mut deposed = spawn_daemon(
        &exe,
        &flags,
        &fence_addr,
        &[
            "--replicate-to",
            &standby_addr,
            "--repl-strict",
            "--flight-dir",
            &flight_dir.to_string_lossy(),
        ],
        &dir.join("deposed.log"),
        "deposed primary",
    )?;
    let fence_code = deposed.wait_exit(Duration::from_secs(20))?;
    report.push(format!(
        "failover-drill: deposed epoch-1 primary exited with code {}",
        fence_code.map_or_else(|| "<signal>".into(), |c| c.to_string())
    ));
    if fence_code != Some(7) {
        return drill_fail(
            args,
            io,
            dir,
            report,
            format!("the deposed primary exited with {fence_code:?}, not the fenced code 7"),
        );
    }
    // The deposed primary fenced at epoch 1 as the single-shard daemon:
    // the dump is flight-1-0.jsonl by construction.
    let dump_path = flight_dir.join("flight-1-0.jsonl");
    let dump_events = match std::fs::read_to_string(&dump_path) {
        Ok(text) => match mec_obs::parse_trace(&text) {
            Ok(events) => events.len(),
            Err(e) => {
                return drill_fail(
                    args,
                    io,
                    dir,
                    report,
                    format!("the fenced primary's flight dump does not parse: {e}"),
                );
            }
        },
        Err(e) => {
            return drill_fail(
                args,
                io,
                dir,
                report,
                format!(
                    "the fenced primary left no flight dump at {}: {e}",
                    dump_path.display()
                ),
            );
        }
    };
    report.push(format!(
        "failover-drill: fenced primary left a parseable flight dump ({dump_events} events)"
    ));

    // Phase 5 — drain the survivor and compare snapshots.
    let final_ack = send_control(&standby_addr, ControlAction::Shutdown)?;
    let survivor_code = standby.wait_exit(Duration::from_secs(20))?;
    if survivor_code != Some(0) {
        return drill_fail(
            args,
            io,
            dir,
            report,
            format!("the survivor exited with {survivor_code:?} instead of 0"),
        );
    }
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
    report.push(format!("failover-drill: parity {}", verdicts.join(" ")));
    report.push(format!(
        "failover-drill: survivor revenue {:.2} admitted {}/{} (golden revenue {:.2})",
        survivor.stats.revenue,
        survivor.stats.admitted,
        survivor.stats.decided,
        golden.stats.revenue
    ));
    if let Some((name, _)) = checks.iter().find(|(_, ok)| !ok) {
        return drill_fail(
            args,
            io,
            dir,
            report,
            format!("parity check `{name}` failed (survivor diverged from the golden run)"),
        );
    }

    report.push("failover-drill: PASS".into());
    emit_drill_report(args, io, &report)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Prints (and optionally writes) the drill report lines.
fn emit_drill_report(
    args: &FailoverDrillArgs,
    io: &mut Output<'_>,
    report: &[String],
) -> Result<(), CliError> {
    for line in report {
        io.table(line)?;
    }
    if let Some(path) = &args.out {
        let mut text = report.join("\n");
        text.push('\n');
        std::fs::write(path, text)
            .map_err(|e| CliError::Io(format!("failed to write {path}: {e}")))?;
        io.note(format!("drill report -> {path}"))?;
    }
    Ok(())
}

/// Finishes a failed drill: appends the FAIL line, emits the report
/// (keeping the scratch dir with the daemon logs), and returns the
/// typed error.
fn drill_fail(
    args: &FailoverDrillArgs,
    io: &mut Output<'_>,
    dir: PathBuf,
    mut report: Vec<String>,
    why: String,
) -> Result<(), CliError> {
    report.push(format!("failover-drill: FAIL ({why})"));
    emit_drill_report(args, io, &report)?;
    Err(CliError::Internal(format!(
        "failover drill failed: {why} (daemon logs in {})",
        dir.display()
    )))
}

// ---------------------------------------------------------------------
// chaos-drill and chaos-proxy
// ---------------------------------------------------------------------

/// Snapshot-control attempts per disk cell — enough for the default
/// fail rate (~every other attempt) to hit several distinct boundaries.
const DISK_ATTEMPTS: usize = 12;

/// Decide threads in the process cell (and its golden run).
const DRILL_SHARDS: usize = 2;

/// Renders a scheme for drill report lines.
fn scheme_label(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::OnSite => "onsite",
        Scheme::OffSite => "offsite",
    }
}

/// Builds the submit message for one request (fencing probe and raw
/// clients).
fn drill_submit(r: &Request) -> ClientMsg {
    ClientMsg::Submit(SubmitRequest {
        id: r.id().index(),
        vnf: r.vnf().index(),
        reliability: r.reliability_requirement().value(),
        arrival: r.arrival(),
        duration: r.duration(),
        payment: r.payment(),
    })
}

/// Runs `daemon` on its own thread and waits for the address it binds.
fn drill_spawn<R: Send + 'static>(
    daemon: impl FnOnce(mpsc::Sender<std::net::SocketAddr>) -> Result<R, ServeError> + Send + 'static,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<Result<R, ServeError>>,
) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || daemon(tx));
    let addr = rx
        .recv()
        .expect("the drill daemon reports its bound address");
    (addr, handle)
}

/// Spawns an in-process daemon over a drill-built scheduler for a drill
/// cell. The drill always runs the primal-dual schedulers (enforced at
/// parse time).
fn drill_daemon(
    instance: ProblemInstance,
    scheme: Scheme,
    config: ServeConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<Result<ServeReport, ServeError>>,
) {
    drill_spawn(move |tx| {
        let tap = DecisionTap::new();
        let sim = SimulateArgs {
            scheme,
            ..SimulateArgs::default()
        };
        let mut scheduler = make_scheduler(&instance, &sim, tap.clone())
            .expect("the drill scenario admits a primal-dual scheduler");
        let mut registry = MetricsRegistry::new();
        let ids = ServeMetricIds::register(&mut registry, instance.cloudlet_count());
        serve_daemon(scheduler.as_mut(), &tap, &registry, &ids, &config, Some(tx))
    })
}

/// Spawns an in-process sharded daemon for the process cell. With a
/// flight directory the per-shard rings are armed, so the supervisor
/// dumps each panicked shard's lead-up before healing it.
fn drill_sharded(
    instance: ProblemInstance,
    scheme: Scheme,
    flight_dir: Option<PathBuf>,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<Result<ShardedReport, ServeError>>,
) {
    drill_spawn(move |tx| {
        let mut registry = MetricsRegistry::new();
        let ids = ServeMetricIds::register(&mut registry, instance.cloudlet_count());
        let mut config = ServeConfig::new("127.0.0.1:0");
        config.shards = DRILL_SHARDS;
        config.flight_dir = flight_dir;
        serve_sharded(&instance, scheme, &registry, &ids, &config, Some(tx))
    })
}

/// Closed-loop loadgen for drill cells, always collecting the acked
/// decision log the referee replays.
fn drill_loadgen(
    requests: &[Request],
    addr: &str,
    start_at: usize,
    reconnect: bool,
    shutdown: bool,
) -> Result<LoadgenReport, CliError> {
    let mut config = LoadgenConfig::new(addr.to_string());
    config.start_at = start_at;
    config.reconnect = reconnect;
    config.shutdown_when_done = shutdown;
    config.collect_acks = true;
    run_loadgen(requests, &config).map_err(CliError::from)
}

/// Joins a drill daemon thread, mapping panics and serve errors.
fn drill_join<T>(
    handle: std::thread::JoinHandle<Result<T, ServeError>>,
    name: &str,
) -> Result<T, CliError> {
    handle
        .join()
        .map_err(|_| CliError::Internal(format!("the {name} daemon thread panicked")))?
        .map_err(CliError::from)
}

/// Submits one never-before-seen request directly to a deposed primary
/// and counts decision acks — the referee's split-brain evidence. Every
/// other fate (error line, closed connection, silence) counts as zero.
fn probe_deposed(addr: std::net::SocketAddr, probe: &Request) -> usize {
    let Ok(stream) = std::net::TcpStream::connect(addr) else {
        return 0; // already exited: certainly not acking
    };
    stream.set_nodelay(true).ok();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.set_read_timeout(Some(Duration::from_secs(3)));
    let Ok(mut writer) = stream.try_clone() else {
        return 0;
    };
    let mut line = encode_client(&drill_submit(probe));
    line.push('\n');
    if writer.write_all(line.as_bytes()).is_err() {
        return 0;
    }
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(en) if en > 0 => match parse_server(reply.trim_end()) {
            Ok(ServerMsg::Decision(_)) => 1,
            _ => 0,
        },
        _ => 0,
    }
}

/// One chaos cell's verdict: a report line and whether the referee (and
/// the cell's own parity checks) came back clean.
struct CellOutcome {
    line: String,
    clean: bool,
}

impl CellOutcome {
    /// Folds the referee report and the cell's extra checks into the
    /// report line.
    fn new(
        scheme: Scheme,
        family: &str,
        report: &mec_serve::RefereeReport,
        extra: &[(&str, bool)],
        detail: String,
    ) -> CellOutcome {
        let failed_extra: Vec<&str> = extra
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(what, _)| *what)
            .collect();
        let clean = report.is_clean() && failed_extra.is_empty();
        let verdict = if report.is_clean() {
            format!("referee clean ({} acks)", report.acks_checked)
        } else {
            format!(
                "referee DIRTY ({} violations, first: {})",
                report.violations.len(),
                report.violations[0]
            )
        };
        let extra_text = if failed_extra.is_empty() {
            String::new()
        } else {
            format!("; FAILED: {}", failed_extra.join(", "))
        };
        CellOutcome {
            line: format!(
                "cell scheme={} family={family}: {verdict}, {detail}{extra_text}",
                scheme_label(scheme)
            ),
            clean,
        }
    }
}

/// The network cell: a strict replicated pair with fault-injecting
/// proxies on both the client and replication links, a reconnecting
/// load generator riding out every injected close, then a deliberate
/// split brain — promote the standby under the living primary and prove
/// the deposed primary never acks again.
fn network_cell(
    instance: &ProblemInstance,
    scheme: Scheme,
    fp: &str,
    work: &[Request],
    probe: &Request,
    plan: &ChaosPlan,
    golden: &ServeStats,
) -> Result<CellOutcome, CliError> {
    let (standby_addr, standby) = drill_daemon(instance.clone(), scheme, {
        let mut c = ServeConfig::new("127.0.0.1:0");
        c.fingerprint = fp.to_string();
        c.standby = true;
        c
    });
    let mut repl_proxy = ChaosProxy::spawn(standby_addr, plan.derive(2), None)
        .map_err(|e| CliError::Net(format!("failed to spawn the replication-link proxy: {e}")))?;
    let (primary_addr, primary) = drill_daemon(instance.clone(), scheme, {
        let mut c = ServeConfig::new("127.0.0.1:0");
        c.fingerprint = fp.to_string();
        c.replicate_to = Some(repl_proxy.local_addr().to_string());
        c.repl_strict = true;
        c
    });
    let mut client_proxy = ChaosProxy::spawn(primary_addr, plan.derive(1), None)
        .map_err(|e| CliError::Net(format!("failed to spawn the client-link proxy: {e}")))?;

    // The whole trace rides through the chaos proxy; --reconnect
    // absorbs every close the proxy injects, and the dedupe ring makes
    // each resubmit idempotent.
    let lg = drill_loadgen(work, &client_proxy.local_addr().to_string(), 0, true, false)?;

    // Split brain on purpose: promote the standby while the primary is
    // alive. Strict replication means the deposed primary can never
    // release another ack — the probe and the typed fenced exit are the
    // proof.
    send_control(&standby_addr.to_string(), ControlAction::Promote)?;
    let deposed_acks = probe_deposed(primary_addr, probe);
    let fenced = matches!(primary.join(), Ok(Err(ServeError::Fenced { .. })));
    send_control(&standby_addr.to_string(), ControlAction::Shutdown)?;
    let survivor = drill_join(standby, "survivor")?;
    let injected = client_proxy.injected() + repl_proxy.injected();
    client_proxy.stop();
    repl_proxy.stop();

    let artifacts = ChaosArtifacts {
        acks: lg.acks,
        survivor: survivor.stats,
        complete: true,
        deposed_acks_after_fence: deposed_acks,
    };
    let report = referee::check(&artifacts);
    Ok(CellOutcome::new(
        scheme,
        "network",
        &report,
        &[
            ("deposed primary exits fenced", fenced),
            (
                "revenue bit-parity with the golden run",
                survivor.stats.revenue == golden.revenue
                    && survivor.stats.decided == golden.decided,
            ),
            ("faults actually injected", injected > 0),
        ],
        format!(
            "{injected} faults injected, {} reconnects, {} resubmits, revenue {:.2}",
            lg.reconnects, lg.resubmits, survivor.stats.revenue
        ),
    ))
}

/// The disk cell: snapshot saves fail at every write/fsync/rename
/// boundary per the plan; each failure must leave the previous snapshot
/// loadable, and resuming from the surviving snapshot must end
/// revenue-bit-identical to the golden run.
fn disk_cell(
    instance: &ProblemInstance,
    scheme: Scheme,
    fp: &str,
    work: &[Request],
    plan: &ChaosPlan,
    golden: &ServeStats,
    scratch: &Path,
) -> Result<CellOutcome, CliError> {
    let snap_path = scratch.join(format!("chaos-{}.snap", scheme_label(scheme)));
    let seam = ChaosSnapshotIo::new(&plan.derive(3));
    let cut = work.len() / 2;

    let (addr, daemon) = drill_daemon(instance.clone(), scheme, {
        let mut c = ServeConfig::new("127.0.0.1:0");
        c.fingerprint = fp.to_string();
        c.snapshot_path = Some(snap_path.clone());
        c.snapshot_io = seam.clone();
        c
    });
    let addr_s = addr.to_string();
    let lg_head = drill_loadgen(&work[..cut], &addr_s, 0, false, false)?;

    // Hammer the snapshot control with the seam armed: every attempt
    // that fails must leave the previous snapshot loadable (the
    // write-temp/fsync/rename pipeline is crash-consistent at every
    // boundary).
    let mut failed_saves = 0usize;
    let mut torn = 0usize;
    for _ in 0..DISK_ATTEMPTS {
        if send_control(&addr_s, ControlAction::Snapshot).is_err() {
            failed_saves += 1;
        }
        if snap_path.exists() && Snapshot::load(&snap_path).is_err() {
            torn += 1;
        }
    }
    seam.disarm();
    // Disarmed, the next save and the shutdown snapshot must succeed.
    send_control(&addr_s, ControlAction::Snapshot)?;
    send_control(&addr_s, ControlAction::Shutdown)?;
    let head = drill_join(daemon, "disk-cell")?;

    // Resume from the surviving snapshot and finish the trace: the
    // failed attempts must not have cost any durable state.
    let (addr2, daemon2) = drill_daemon(instance.clone(), scheme, {
        let mut c = ServeConfig::new("127.0.0.1:0");
        c.fingerprint = fp.to_string();
        c.snapshot_path = Some(snap_path.clone());
        c.snapshot_io = seam.clone();
        c.resume = true;
        c
    });
    let lg_tail = drill_loadgen(work, &addr2.to_string(), cut, false, true)?;
    let survivor = drill_join(daemon2, "disk-cell resume")?;
    let _ = std::fs::remove_file(&snap_path);

    let mut acks = lg_head.acks;
    acks.extend(lg_tail.acks);
    let artifacts = ChaosArtifacts {
        acks,
        survivor: survivor.stats,
        complete: true,
        deposed_acks_after_fence: 0,
    };
    let report = referee::check(&artifacts);
    let injected = seam.injected();
    let steps_hit = seam.coverage().iter().filter(|&&c| c > 0).count();
    Ok(CellOutcome::new(
        scheme,
        "disk",
        &report,
        &[
            ("every failed save left a loadable snapshot", torn == 0),
            ("snapshot faults actually injected", injected > 0),
            (
                "head daemon decided exactly the prefix",
                head.stats.decided as usize == cut,
            ),
            (
                "revenue bit-parity with the golden run",
                survivor.stats.revenue == golden.revenue
                    && survivor.stats.decided == golden.decided,
            ),
        ],
        format!(
            "{injected} save faults over {} boundaries ({failed_saves}/{DISK_ATTEMPTS} saves \
             failed, 0 torn snapshots), revenue {:.2}",
            steps_hit, survivor.stats.revenue
        ),
    ))
}

/// The process cell: chaos-panic controls kill both decide threads
/// mid-stream; the per-shard supervisors must restore from their
/// recovery logs and replay to a state revenue-bit-identical to the
/// un-chaosed sharded golden run.
fn process_cell(
    instance: &ProblemInstance,
    scheme: Scheme,
    work: &[Request],
    golden: &ShardedReport,
    flight_dir: Option<&Path>,
) -> Result<CellOutcome, CliError> {
    let cut = work.len() / 2;
    let flight = match flight_dir {
        Some(dir) => {
            // One subdirectory per scheme: both cells dump rings named
            // flight-1-<shard>.jsonl, so a shared directory would let
            // the offsite cell overwrite the onsite dumps.
            let sub = dir.join(scheme_label(scheme));
            std::fs::create_dir_all(&sub)
                .map_err(|e| CliError::Io(format!("failed to create {}: {e}", sub.display())))?;
            Some(sub)
        }
        None => None,
    };
    let (addr, daemon) = drill_sharded(instance.clone(), scheme, flight);
    let addr_s = addr.to_string();
    let lg_head = drill_loadgen(&work[..cut], &addr_s, 0, false, false)?;
    // Kill every decide thread at a message boundary; each supervisor
    // dumps its flight ring, restores from the last compacted state,
    // and replays its recovery suffix.
    for s in 0..DRILL_SHARDS {
        send_control(&addr_s, ControlAction::ChaosPanic(s))?;
    }
    let lg_tail = drill_loadgen(work, &addr_s, cut, false, true)?;
    let survivor = drill_join(daemon, "process-cell")?;

    let mut acks = lg_head.acks;
    acks.extend(lg_tail.acks);
    let artifacts = ChaosArtifacts {
        acks,
        survivor: survivor.stats,
        complete: true,
        deposed_acks_after_fence: 0,
    };
    let report = referee::check(&artifacts);
    Ok(CellOutcome::new(
        scheme,
        "process",
        &report,
        &[
            (
                "every shard restarted exactly once",
                survivor.shard_restarts == DRILL_SHARDS as u64,
            ),
            (
                "revenue bit-parity with the sharded golden run",
                survivor.stats.revenue == golden.stats.revenue
                    && survivor.stats.decided == golden.stats.decided,
            ),
        ],
        format!(
            "{} decide threads killed and healed, revenue {:.2}",
            survivor.shard_restarts, survivor.stats.revenue
        ),
    ))
}

/// Runs the `chaos-drill` command: the full fault matrix — network,
/// disk, and process families against both backup schemes — each cell
/// self-healing under a deterministic chaos schedule and refereed for
/// the serving tier's durability invariants (no acked admit lost, no
/// double charge, ledger balance, no acks after fencing). Healed state
/// must be revenue-bit-identical to an un-chaosed golden run.
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
    let plan = ChaosPlan::new(args.chaos_seed, ChaosConfig::default());
    let scratch = std::env::temp_dir().join(format!("vnfrel-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| CliError::Io(format!("failed to create {}: {e}", scratch.display())))?;

    let mut lines = vec![format!(
        "chaos-drill: workload seed {}, chaos seed {}, {} requests per cell{}",
        args.sim.seed,
        args.chaos_seed,
        n,
        if args.quick { " (quick)" } else { "" }
    )];
    let mut dirty = 0usize;
    for scheme in [Scheme::OnSite, Scheme::OffSite] {
        let mut sim = args.sim.clone();
        sim.scheme = scheme;
        sim.requests = n + 1; // the extra request is the fencing probe
        let (instance, requests, _rng) = build_setup(&sim)?;
        let fp = scenario_fingerprint(&sim);
        let work = &requests[..n];
        let probe = &requests[n];

        io.note(format!(
            "chaos-drill [{}]: golden runs ({n} requests)",
            scheme_label(scheme)
        ))?;
        let (gaddr, gdaemon) = drill_daemon(instance.clone(), scheme, {
            let mut c = ServeConfig::new("127.0.0.1:0");
            c.fingerprint = fp.clone();
            c
        });
        drill_loadgen(work, &gaddr.to_string(), 0, false, true)?;
        let golden = drill_join(gdaemon, "golden")?.stats;
        // Golden runs never dump flight rings: the shutdown-time ring
        // dump would overwrite the panic dumps the process cell wants.
        let (gsaddr, gsdaemon) = drill_sharded(instance.clone(), scheme, None);
        drill_loadgen(work, &gsaddr.to_string(), 0, false, true)?;
        let golden_sharded = drill_join(gsdaemon, "sharded golden")?;

        io.note(format!(
            "chaos-drill [{}]: network cell",
            scheme_label(scheme)
        ))?;
        let cell = network_cell(&instance, scheme, &fp, work, probe, &plan, &golden)?;
        dirty += usize::from(!cell.clean);
        lines.push(cell.line);

        io.note(format!("chaos-drill [{}]: disk cell", scheme_label(scheme)))?;
        let cell = disk_cell(&instance, scheme, &fp, work, &plan, &golden, &scratch)?;
        dirty += usize::from(!cell.clean);
        lines.push(cell.line);

        io.note(format!(
            "chaos-drill [{}]: process cell",
            scheme_label(scheme)
        ))?;
        let cell = process_cell(
            &instance,
            scheme,
            work,
            &golden_sharded,
            args.flight_dir.as_deref().map(Path::new),
        )?;
        dirty += usize::from(!cell.clean);
        lines.push(cell.line);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let total = 6;
    lines.push(if dirty == 0 {
        format!("chaos-drill: PASS ({total}/{total} cells clean)")
    } else {
        format!("chaos-drill: FAIL ({dirty}/{total} cells dirty)")
    });
    for line in &lines {
        io.table(line)?;
    }
    if let Some(parent) = Path::new(&args.out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CliError::Io(format!("failed to create {}: {e}", parent.display())))?;
        }
    }
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(&args.out, text)
        .map_err(|e| CliError::Io(format!("failed to write {}: {e}", args.out)))?;
    io.note(format!("chaos report -> {}", args.out))?;
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
        failures(args, &mut Output::new(&mut out, &mut err, args.sim.quiet))?;
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
