//! The traced pass's per-layer suite: every layer timed from outside,
//! in isolation, plus the daemons' own stage histograms read in situ and
//! the reconciliation between the two.
//!
//! Layers are the repository's modules; each metric is named
//! `<crate>.<module>.<what>_<unit>`. The suite does not depend on which
//! workload the run measured: it builds its own fixtures from `--seed`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::adapter::probes::{self, Ledger, Paths, Prices, Registry, Wire};
use crate::adapter::scenario::{self, Shape};
use crate::adapter::sched::{self, Alg, Backup, Batch, Mixed};
use crate::adapter::serve;
use crate::alloc;
use crate::host::{pin_to_last_cpu, Pinned};
use crate::loadgen::{connect, drive_closed, PacedPlan};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, paced_point, saturating_point, BATCH_WEEK_PREFIX, FULL_STREAM};

/// Width, in slots, of the windows the week-horizon probes touch.
const WEEK_WINDOW: usize = 60;
/// Width of the 16-slot-horizon windows.
const SHORT_WINDOW: usize = 8;
/// Rates of the paced sweep, requests per second.
const PACED_RATES: [f64; 4] = [5_000.0, 10_000.0, 20_000.0, 40_000.0];
/// p99 limit a paced rate must meet to count as sustained.
const PACED_P99_LIMIT_S: f64 = 1e-3;

struct Suite<'t> {
    out: Vec<(String, f64)>,
    micro: Duration,
    tracer: &'t mut Tracer,
}

impl Suite<'_> {
    // Runs one probe inside a span named after its metric.
    fn probe(&mut self, name: &'static str, f: impl FnOnce(Duration) -> f64) {
        let start = Instant::now();
        let value = f(self.micro);
        self.tracer.record(name, 0, 0, start, Instant::now());
        self.out.push((name.to_string(), value));
    }

    fn put(&mut self, name: &str, value: f64) {
        self.out.push((name.to_string(), value));
    }
}

// Nanoseconds per operation: `f(batch)` is called until `budget` is
// spent (at least three times); the median batch time is divided by
// the batch size.
fn per_op_ns(budget: Duration, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let deadline = Instant::now() + budget;
    let mut times = Vec::new();
    while times.len() < 3 || Instant::now() < deadline {
        let start = Instant::now();
        f(batch);
        times.push(start.elapsed().as_secs_f64());
    }
    stats::median(&mut times) * 1e9 / batch as f64
}

// Median seconds of one call of `f`, repeated within `budget`.
fn median_call_s(budget: Duration, mut f: impl FnMut()) -> f64 {
    per_op_ns(budget, 1, |_| f()) * 1e-9
}

// Keeps a probe's result alive past the optimiser, then drops it.
fn sink<T>(value: T) {
    std::hint::black_box(value);
}

// Live bytes `build` leaves allocated (zero without the counting
// allocator); the product is dropped afterwards.
fn live_bytes<T>(build: impl FnOnce() -> T) -> f64 {
    let before = alloc::reading().live;
    let product = build();
    let after = alloc::reading().live;
    drop(product);
    (after - before).max(0) as f64
}

/// Runs every probe; `budget` is the wall time the suite may take.
/// Returns the measured `(name, value)` pairs and whether every
/// correctness check inside the suite passed.
pub fn suite(
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    pinned: &mut Option<Pinned>,
) -> (Vec<(String, f64)>, bool) {
    let mut s = Suite {
        out: Vec::with_capacity(128),
        // About sixty timed micro-probes share a third of the budget.
        micro: (budget / 180).clamp(Duration::from_millis(5), Duration::from_millis(40)),
        tracer,
    };

    // ---- fixtures -----------------------------------------------------
    let mut rng = scenario::rng(seed);
    let week_net = scenario::network(Shape::Week);
    let week = Arc::new(scenario::instance(Shape::Week, week_net.clone()));
    let week_reqs = scenario::requests(Shape::Week, &week, FULL_STREAM, &mut rng);
    let mut rng = scenario::rng(seed);
    let scarce_net = scenario::network(Shape::Scarce);
    let scarce = scenario::instance(Shape::Scarce, scarce_net.clone());
    let scarce_reqs = scenario::requests(Shape::Scarce, &scarce, FULL_STREAM / 4, &mut rng);
    let mut rng = scenario::rng(seed);
    let day_net = scenario::network(Shape::Day);
    let day = Arc::new(scenario::instance(Shape::Day, day_net));
    let day_reqs = scenario::requests(Shape::Day, &day, FULL_STREAM / 8, &mut rng);
    let chain = workloads::chain_fixture(seed, 0, &mut Tracer::new(false));
    let rich_week = probes::abundant_instance(Shape::Week);
    let rich_chain = probes::abundant_instance(Shape::Chain);

    // ---- topology -----------------------------------------------------
    s.probe("topology.build_us", |b| {
        median_call_s(b, || sink(scenario::network(Shape::Week))) * 1e6
    });
    s.probe("topology.all_pairs_us", |b| {
        median_call_s(b, || sink(probes::all_pairs(&week_net))) * 1e6
    });

    // ---- workload -----------------------------------------------------
    s.probe("workload.generate_ns_per_req", |b| {
        let mut rng = scenario::rng(seed);
        per_op_ns(b, 8_192, |n| {
            sink(scenario::requests(Shape::Week, &week, n, &mut rng))
        })
    });
    s.probe("workload.chain_generate_ns_per_req", |b| {
        let mut rng = scenario::rng(seed);
        per_op_ns(b, 2_048, |n| {
            sink(scenario::chains(&chain.instance, n, &mut rng))
        })
    });
    s.put("workload.request_bytes", probes::request_bytes() as f64);

    // ---- core.instance --------------------------------------------------
    s.probe("core.instance.new_us.t16", |b| {
        median_call_s(b, || {
            sink(scenario::instance(Shape::Scarce, scarce_net.clone()))
        }) * 1e6
    });
    s.probe("core.instance.new_us.t10080", |b| {
        median_call_s(b, || {
            sink(scenario::instance(Shape::Week, week_net.clone()))
        }) * 1e6
    });
    let instance_bytes = {
        let net = week_net.clone();
        let with_net = live_bytes(|| scenario::instance(Shape::Week, net));
        // The instance owns the network it was given; count the tables only.
        (with_net - live_bytes(|| week_net.clone())).max(0.0)
    };
    s.put(
        "core.instance.bytes_per_vnf_cloudlet",
        instance_bytes / (scenario::catalog(Shape::Week).len() * week.cloudlet_count()) as f64,
    );

    // ---- core.pricing ---------------------------------------------------
    let cloudlets = week.cloudlet_count();
    let mut week_prices = Prices::new(cloudlets, Shape::Week.slots());
    let mut short_prices = Prices::new(cloudlets, Shape::Scarce.slots());
    s.probe("core.pricing.window_sum_ns", |b| {
        per_op_ns(b, 4_096, |n| sink(week_prices.window_sums(n, WEEK_WINDOW)))
    });
    s.probe("core.pricing.update_window_ns.t16", |b| {
        per_op_ns(b, 4_096, |n| {
            sink(short_prices.update_windows(n, SHORT_WINDOW))
        })
    });
    s.probe("core.pricing.update_window_ns.t10080", |b| {
        per_op_ns(b, 256, |n| sink(week_prices.update_windows(n, WEEK_WINDOW)))
    });
    s.put(
        "core.pricing.bytes_per_cloudlet_slot",
        live_bytes(|| Prices::new(cloudlets, Shape::Week.slots()))
            / (cloudlets * Shape::Week.slots()) as f64,
    );

    // ---- core.ledger ----------------------------------------------------
    let mut ledger = Ledger::new(&week);
    s.probe("core.ledger.fits_window_ns", |b| {
        per_op_ns(b, 4_096, |n| sink(ledger.fits_windows(n, WEEK_WINDOW)))
    });
    s.probe("core.ledger.charge_window_ns", |b| {
        per_op_ns(b, 4_096, |n| sink(ledger.charge_windows(n, WEEK_WINDOW)))
    });
    s.probe("core.ledger.reserve_commit_ns", |b| {
        per_op_ns(b, 2_048, |n| sink(ledger.reserve_commits(n, WEEK_WINDOW)))
    });
    s.probe("core.ledger.release_ns", |b| {
        per_op_ns(b, 4_096, |n| sink(ledger.releases(n, WEEK_WINDOW)))
    });
    s.put(
        "core.ledger.bytes_per_cloudlet_slot",
        live_bytes(|| Ledger::new(&week)) / (cloudlets * Shape::Week.slots()) as f64,
    );

    // ---- core.onsite / core.offsite -------------------------------------
    // Admit path: abundant capacity, every feasible request admitted.
    // Reject path: the scarce instance after a warm-up that fills it.
    // Share and revenue: the sched_batch week prefix, exact per seed.
    let mut bare_alg2_ns = 0.0;
    for alg in Alg::ALL {
        let start = Instant::now();
        let mut admit_times = Vec::new();
        let mut reject_times = Vec::new();
        let deadline = Instant::now() + s.micro * 2;
        while admit_times.len() < 3 || Instant::now() < deadline {
            let (t, admitted) =
                probes::decide_after_warmup(alg, &rich_week, &[], &week_reqs[..2_048]);
            admit_times.push(t / 2_048.0);
            debug_assert!(
                admitted > 1_800,
                "abundant capacity should admit nearly all"
            );
            let (t, _) = probes::decide_after_warmup(
                alg,
                &scarce,
                &scarce_reqs[..8_192],
                &scarce_reqs[8_192..16_384],
            );
            reject_times.push(t / 8_192.0);
        }
        let standard = sched::reference(alg, &week, &week_reqs[..BATCH_WEEK_PREFIX]);
        s.tracer.record("core.decide", 0, 0, start, Instant::now());
        let key = alg.key();
        s.put(
            &format!("core.{key}.decide_admit_ns"),
            stats::median(&mut admit_times) * 1e9,
        );
        s.put(
            &format!("core.{key}.decide_reject_ns"),
            stats::median(&mut reject_times) * 1e9,
        );
        s.put(
            &format!("core.{key}.admitted_share"),
            standard.admitted as f64 / standard.decisions as f64,
        );
        s.put(&format!("core.{key}.revenue"), standard.revenue);
        if alg == Alg::Alg2 {
            bare_alg2_ns = median_call_s(s.micro * 2, || {
                sched::decide_blocks(
                    alg,
                    &week,
                    &week_reqs[..BATCH_WEEK_PREFIX],
                    usize::MAX,
                    &mut Vec::new(),
                    None,
                );
            }) * 1e9
                / BATCH_WEEK_PREFIX as f64;
        }
    }

    // ---- core.chain -----------------------------------------------------
    let rich_chains = {
        let mut rng = scenario::rng(seed ^ 0xcd);
        scenario::chains(&rich_chain, 1_024, &mut rng)
    };
    for backup in [Backup::None, Backup::Dedicated, Backup::Shared] {
        let name: &'static str = match backup {
            Backup::None => "core.chain.decide_admit_ns.none",
            Backup::Dedicated => "core.chain.decide_admit_ns.dedicated",
            Backup::Shared => "core.chain.decide_admit_ns.shared",
        };
        s.probe(name, |b| {
            median_call_s(b, || {
                probes::chain_decide_after_warmup(&rich_chain, backup, &[], &rich_chains);
            }) * 1e9
                / rich_chains.len() as f64
        });
    }
    s.probe("core.chain.decide_reject_ns", |b| {
        let (warm, timed) = chain.chains[..2 * chain.chain_prefix].split_at(chain.chain_prefix);
        let mut times = Vec::new();
        let deadline = Instant::now() + b * 2;
        while times.len() < 3 || Instant::now() < deadline {
            let (t, _) =
                probes::chain_decide_after_warmup(&chain.instance, Backup::Shared, warm, timed);
            times.push(t / timed.len() as f64);
        }
        stats::median(&mut times) * 1e9
    });
    let mixed = Mixed::new(
        &chain.instance,
        &chain.singles[..chain.single_prefix],
        &chain.chains[..chain.chain_prefix],
    );
    let mut mixed_outcome = mixed.run(Backup::Shared);
    s.probe("sim.chain_run.ns_per_decision", |b| {
        median_call_s(b * 2, || mixed_outcome = mixed.run(Backup::Shared)) * 1e9
            / mixed_outcome.decisions as f64
    });
    s.put(
        "core.chain.admitted_share",
        mixed_outcome.admitted_chains as f64 / chain.chain_prefix as f64,
    );
    s.put("core.chain.pool_standbys", mixed_outcome.standbys as f64);
    let chain_net = chain.instance.network();
    s.probe("core.chain.path_cold_ns", |b| {
        per_op_ns(b, chain_net.ap_count(), |_| {
            sink(Paths::new(chain_net).fill())
        })
    });
    let mut paths = Paths::new(chain_net);
    paths.fill();
    s.probe("core.chain.path_hot_ns", |b| {
        per_op_ns(b, 4_096, |n| sink(paths.lookups(n)))
    });
    s.put(
        "core.chain.path_table_bytes",
        live_bytes(|| {
            let mut p = Paths::new(chain_net);
            p.fill();
            p
        }),
    );
    s.probe("core.chain.pool_plan_commit_ns", |b| {
        per_op_ns(b, 512, |n| sink(probes::pool_plan_commits(&rich_chain, n)))
    });

    // ---- sim --------------------------------------------------------------
    let batch = Batch::new(&week, &week_reqs[..BATCH_WEEK_PREFIX]);
    s.probe("sim.engine.overhead_ns_per_req", |b| {
        let sim_ns =
            median_call_s(b * 2, || sink(batch.run(Alg::Alg2))) * 1e9 / BATCH_WEEK_PREFIX as f64;
        sim_ns - bare_alg2_ns
    });
    // The probes that need a second CPU: unpin for their duration.
    drop(pinned.take());
    s.probe("sim.parallel.efficiency", |b| {
        let reqs = &week_reqs[..2_048];
        let serial = median_call_s(b * 2, || sink(probes::parallel_replays(&week, reqs, 4, 1)));
        let two = median_call_s(b * 2, || sink(probes::parallel_replays(&week, reqs, 4, 2)));
        serial / (2.0 * two)
    });
    // What a second shard buys when it may have a CPU of its own (ROADMAP
    // item 2's N-core line): the run's pinned `serve_week_s2` cannot say.
    let start = Instant::now();
    let free_s1 = saturating_point(seed, Shape::Week, 8_192, 1);
    let free_s2 = saturating_point(seed, Shape::Week, 8_192, 2);
    s.tracer
        .record("serve.shard.unpinned", 0, 0, start, Instant::now());
    let rate = |p: &workloads::SatPoint| p.timed.decisions as f64 / p.timed.wall_s;
    s.put("serve.shard.s1_over_s2", rate(&free_s1) / rate(&free_s2));
    *pinned = pin_to_last_cpu();

    // ---- serve.protocol / serve.pool --------------------------------------
    let wire = Wire::new(&week_reqs);
    let per_frame = wire.batch() as f64;
    let parse_batch_ns = {
        let mut v = 0.0;
        s.probe("serve.protocol.parse_batch_ns_per_req", |b| {
            v = per_op_ns(b, 256, |n| sink(wire.parse_batches(n))) / per_frame;
            v
        });
        v
    };
    let encode_reply_ns = {
        let mut v = 0.0;
        s.probe("serve.protocol.encode_batch_reply_ns_per_req", |b| {
            v = per_op_ns(b, 256, |n| sink(wire.encode_batch_replies(n))) / per_frame;
            v
        });
        v
    };
    s.probe("serve.protocol.parse_single_ns", |b| {
        per_op_ns(b, 1_024, |n| sink(wire.parse_singles(n)))
    });
    s.probe("serve.protocol.encode_single_ns", |b| {
        per_op_ns(b, 1_024, |n| sink(wire.encode_singles(n)))
    });
    s.put(
        "serve.protocol.wire_bytes_per_req",
        wire.batch_wire_bytes_per_request(),
    );
    s.probe("serve.pool.hop_ns", |b| {
        per_op_ns(b, 4_096, |n| sink(probes::queue_hops(n)))
    });
    s.probe("serve.pool.handoff_ns", |b| {
        // A round trip is two hand-offs.
        per_op_ns(b * 2, 1_024, |n| sink(probes::queue_handoffs(n))) / 2.0
    });

    // ---- serve.stage / serve.gap / serve.shard: in situ -------------------
    let start = Instant::now();
    let s2 = saturating_point(seed, Shape::Week, 8_192, 2);
    s.tracer
        .record("serve.in_situ", 0, 0, start, Instant::now());
    let decided = s2.timed.decisions.max(1) as f64;
    let stage_ns: Vec<f64> = s2
        .outcome
        .stages
        .iter()
        .map(|t| t * 1e9 / decided)
        .collect();
    for (name, ns) in serve::STAGES.iter().zip(&stage_ns) {
        s.put(&format!("serve.stage.{name}.ns_per_req"), *ns);
    }
    // Two workers and two decide threads serve the two connections.
    let daemon_threads = 4.0;
    // Time a thread spent inside a stage: queue-wait is an item waiting,
    // not a thread working, and reserve-commit nests inside decide.
    let busy: f64 = [0, 2, 3, 5].iter().map(|&i| s2.outcome.stages[i]).sum();
    s.put(
        "serve.stage.coverage",
        busy / (s2.timed.wall_s * daemon_threads),
    );
    // The same against the CPU the daemon's threads burned: CPU that no
    // stage's wall time accounts for is work nobody attributed.
    let daemon_cpu = (s2.timed.cpu_s - s2.timed.gen_cpu_s).max(1e-9);
    s.put(
        "serve.stage.unexplained_share",
        (1.0 - busy / daemon_cpu).max(0.0),
    );
    s.put("serve.gap.parse", stage_ns[0] / parse_batch_ns);
    s.put("serve.gap.decide", stage_ns[3] / bare_alg2_ns);
    s.put("serve.gap.reply", stage_ns[5] / encode_reply_ns);
    s.put(
        "serve.shard.cross_shard_admits",
        s2.outcome.cross_shard_admits as f64,
    );
    s.put(
        "serve.shard.overloaded",
        s2.outcome.counters.overloaded as f64,
    );
    let per_shard = &s2.outcome.per_shard_decided;
    let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
    s.put(
        "serve.shard.skew",
        per_shard.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
    );
    s.put(
        "serve.daemon.bringup_us",
        free_s1.bringup_s.min(s2.bringup_s) * 1e6,
    );

    // ---- alloc: one codec-saturation repetition ---------------------------
    let start = Instant::now();
    let codec = saturating_point(seed, Shape::Scarce, 65_536, 1);
    s.tracer.record("alloc", 0, 0, start, Instant::now());
    let codec_decided = codec.timed.decisions.max(1) as f64;
    s.put(
        "alloc.count_per_decision",
        codec.allocations.0 as f64 / codec_decided,
    );
    s.put(
        "alloc.bytes_per_decision",
        codec.allocations.1 as f64 / codec_decided,
    );
    let mut all_ok = free_s1.ok && free_s2.ok && s2.ok && codec.ok;

    // ---- serve.daemon: closed loop on the classic daemon -------------------
    s.probe("serve.daemon.closed_loop_rtt_p50_us", |_| {
        let daemon = serve::spawn_classic(Arc::clone(&day), None);
        let mut conn = connect(daemon.addr);
        conn.ping().expect("daemon answers a stats control");
        let mut rtts = Vec::with_capacity(512);
        let plan = PacedPlan::new(&day_reqs[..512], 0);
        all_ok &= drive_closed(&mut conn, &plan, &mut rtts) == 0;
        conn.shutdown();
        daemon.join();
        stats::median(&mut rtts) * 1e6
    });

    // ---- serve.snapshot ------------------------------------------------------
    // What the paced daemon writes: Algorithm 1's state on the day shape.
    let snapshot = probes::snapshot_of(&day, &day_reqs[..workloads::PACED_PREFIX]);
    let text = probes::snapshot_encode(&snapshot);
    s.probe("serve.snapshot.encode_ms", |b| {
        median_call_s(b, || sink(probes::snapshot_encode(&snapshot))) * 1e3
    });
    s.probe("serve.snapshot.decode_ms", |b| {
        median_call_s(b, || all_ok &= probes::snapshot_decode(&text, &snapshot)) * 1e3
    });
    let path = workloads::out_dir().join(format!("probe-snapshot-{}.json", std::process::id()));
    std::fs::create_dir_all(workloads::out_dir()).expect("benchmark/out is writable");
    s.probe("serve.snapshot.save_ms", |b| {
        median_call_s(b, || all_ok &= probes::snapshot_save(&snapshot, &path)) * 1e3
    });
    let _ = std::fs::remove_file(&path);
    s.put("serve.snapshot.bytes", text.len() as f64);

    // ---- obs ---------------------------------------------------------------
    s.probe("obs.sink.ring_ns_per_event", |b| {
        let mut times = Vec::new();
        let deadline = Instant::now() + b;
        while times.len() < 3 || Instant::now() < deadline {
            let (t, recorded) = probes::ring_records(2_048);
            times.push(t / recorded as f64);
        }
        stats::median(&mut times) * 1e9
    });
    s.probe("obs.json.encode_ns_per_event", |b| {
        per_op_ns(b, 1_024, |n| sink(probes::json_encodes(n)))
    });
    let registry = Registry::new();
    s.probe("obs.metrics.observe_ns", |b| {
        per_op_ns(b, 4_096, |n| sink(registry.observes(n)))
    });
    s.probe("obs.metrics.render_us", |b| {
        median_call_s(b, || sink(registry.render())) * 1e6
    });

    // ---- paced sweep -----------------------------------------------------------
    let start = Instant::now();
    let mut max_rate_ok = 0.0;
    let (mut sent, mut failed) = (0usize, 0usize);
    for rate in PACED_RATES {
        // 0.3 s per point, a snapshot every 2000 submits as in the workload.
        let requests = (rate * 0.3) as usize;
        let (tally, latency, lag) = paced_point(seed, rate, requests);
        sent += tally.sent;
        failed += tally.failed;
        let p50 = stats::percentile_sorted(&latency, 0.50);
        let p99 = stats::percentile_sorted(&latency, 0.99);
        let last_due = tally.started + Duration::from_secs_f64((requests - 1) as f64 / rate);
        let drained_late = tally
            .finished
            .saturating_duration_since(last_due)
            .as_secs_f64();
        // No growing backlog: the last reply follows the last due time
        // by no more than the latency limit.
        if tally.failed == 0 && p99 <= PACED_P99_LIMIT_S && drained_late <= PACED_P99_LIMIT_S {
            max_rate_ok = rate;
        }
        if rate == 5_000.0 {
            s.put("paced.r5000.p50_us", p50 * 1e6);
            s.put("paced.r5000.p99_us", p99 * 1e6);
        } else if rate == 20_000.0 {
            s.put("paced.r20000.p50_us", p50 * 1e6);
            s.put("paced.r20000.p99_us", p99 * 1e6);
        } else if rate == workloads::PACED_RATE {
            s.put(
                "paced.gen_lag_p99_us",
                stats::percentile_sorted(&lag, 0.99) * 1e6,
            );
        }
    }
    s.tracer.record("paced.sweep", 0, 0, start, Instant::now());
    s.put("paced.max_rate_ok", max_rate_ok);
    s.put("paced.failed_share", failed as f64 / sent.max(1) as f64);

    if !all_ok {
        eprintln!("correctness check failed inside the per-layer suite");
    }
    (s.out, all_ok)
}
