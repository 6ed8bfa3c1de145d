//! Daemon ↔ batch parity: driving the daemon with the closed-loop load
//! generator over a deterministic trace must reproduce the batch
//! `Simulation` run of the same trace exactly — same admit/reject
//! counts, bit-identical revenue — for both schemes. The daemon is the
//! same schedulers behind a socket, not a reimplementation. At `S > 1`
//! the same holds lane by lane: lane `s` is the batch engine over the
//! cloudlets and ids `≡ s (mod S)`.

#[path = "serve_common.rs"]
mod common;

use common::{
    assert_states_bit_equal, scenario, sharded_config, spawn_daemon, spawn_sharded, submit_raw,
    week_scenario, Algo,
};
use mec_serve::shard::build_shard_instances;
use mec_serve::{
    run_loadgen, run_open_loop, ControlAction, LineClient, LoadgenConfig, OpenLoopConfig,
    ServeConfig,
};
use mec_sim::Simulation;
use mec_workload::{Request, RequestId};
use vnfrel::offsite::OffsitePrimalDual;
use vnfrel::onsite::{CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};
use vnfrel::{OnlineScheduler, ProblemInstance, SchedulerState, Scheme};

fn check_parity(algo: Algo, requests: usize, seed: u64) {
    let (instance, reqs) = scenario(requests, seed);

    let sim = Simulation::new(&instance, &reqs).unwrap();
    let batch = match algo {
        Algo::Onsite => {
            let mut alg = OnsitePrimalDual::new(&instance, CapacityPolicy::Enforce).unwrap();
            sim.run(&mut alg).unwrap()
        }
        Algo::Offsite => {
            let mut alg = OffsitePrimalDual::new(&instance);
            sim.run(&mut alg).unwrap()
        }
        Algo::OnsiteGreedy => {
            let mut alg = OnsiteGreedy::new(&instance);
            sim.run(&mut alg).unwrap()
        }
    };

    let (addr, daemon) = spawn_daemon(instance, algo, ServeConfig::new("127.0.0.1:0"));
    let mut lg = LoadgenConfig::new(addr.to_string());
    lg.shutdown_when_done = true;
    let client = run_loadgen(&reqs, &lg).unwrap();
    let (report, _) = daemon.join().unwrap().unwrap();

    assert_eq!(client.sent, reqs.len());
    assert_eq!(client.decided, reqs.len());
    assert_eq!(client.overloaded, 0, "closed loop cannot overload");
    assert_eq!(client.errors, 0);

    // Client-side bookkeeping, daemon counters and the batch engine must
    // all agree; revenue is a sum in identical order, so it is
    // bit-identical, not approximately equal.
    assert_eq!(client.admitted, batch.metrics.admitted);
    assert_eq!(client.rejected, reqs.len() - batch.metrics.admitted);
    assert_eq!(client.revenue.to_bits(), batch.metrics.revenue.to_bits());

    assert_eq!(report.stats.decided as usize, reqs.len());
    assert_eq!(report.stats.admitted as usize, batch.metrics.admitted);
    assert_eq!(
        report.stats.revenue.to_bits(),
        batch.metrics.revenue.to_bits()
    );
    assert_eq!(report.next_id, reqs.len());

    let final_stats = client.final_stats.expect("shutdown ack carries stats");
    assert_eq!(final_stats.decided, report.stats.decided);
    assert_eq!(final_stats.admitted, report.stats.admitted);
}

#[test]
fn daemon_matches_batch_onsite() {
    check_parity(Algo::Onsite, 2000, 7);
}

#[test]
fn daemon_matches_batch_offsite() {
    check_parity(Algo::Offsite, 2000, 7);
}

#[test]
fn daemon_matches_batch_small_seeds() {
    for seed in [1, 2, 3] {
        check_parity(Algo::Onsite, 300, seed);
        check_parity(Algo::Offsite, 300, seed);
    }
}

/// The two constructors are one daemon: the same 2 000-request trace,
/// closed-loop, through `serve` over a caller-owned scheduler and through
/// `serve_sharded` with one lane must give byte-identical decision lines,
/// revenue bit-equal to `Simulation::run`, and the same final scheduler
/// state.
#[test]
fn one_lane_is_one_daemon_whoever_builds_the_scheduler() {
    let (instance, reqs) = scenario(2000, 7);
    let sim = Simulation::new(&instance, &reqs).unwrap();
    let drive = |addr: std::net::SocketAddr| {
        let mut conn = LineClient::connect(addr).unwrap();
        let lines: Vec<String> = reqs.iter().map(|r| submit_raw(&mut conn, r)).collect();
        conn.control(ControlAction::Shutdown).unwrap();
        lines
    };
    for (algo, scheme) in [
        (Algo::Onsite, Scheme::OnSite),
        (Algo::Offsite, Scheme::OffSite),
    ] {
        let batch = match algo {
            Algo::Onsite => sim
                .run(&mut OnsitePrimalDual::new(&instance, CapacityPolicy::Enforce).unwrap())
                .unwrap(),
            _ => sim.run(&mut OffsitePrimalDual::new(&instance)).unwrap(),
        };

        let (addr, daemon) = spawn_daemon(instance.clone(), algo, ServeConfig::new("127.0.0.1:0"));
        let caller_lines = drive(addr);
        let (caller, caller_state) = daemon.join().unwrap().unwrap();

        let (addr, daemon) = spawn_sharded(instance.clone(), scheme, sharded_config(1));
        let built_lines = drive(addr);
        let built = daemon.join().unwrap().unwrap();

        assert_eq!(caller_lines, built_lines, "{algo:?}: decision lines");
        for stats in [&caller.stats, &built.stats] {
            assert_eq!(stats.decided as usize, reqs.len());
            assert_eq!(stats.admitted as usize, batch.metrics.admitted);
            assert_eq!(stats.revenue.to_bits(), batch.metrics.revenue.to_bits());
        }
        assert_eq!(caller.next_id, reqs.len());
        assert_eq!(built.shard_states[0], caller_state, "{algo:?}: final state");
    }
}

/// Lane `s` of an `S`-lane daemon as the batch engine replays it: the
/// same scheduler over the lane's sub-instance, fed the requests with
/// ids `≡ s (mod S)` in order (renumbered, because the engine wants
/// dense ids; no scheduler reads them). Returns the scheduler's final
/// state and the run's revenue.
fn batch_lane(
    sub: &ProblemInstance,
    scheme: Scheme,
    reqs: &[Request],
    s: usize,
    shards: usize,
) -> (SchedulerState, f64) {
    let lane_reqs: Vec<Request> = (reqs.iter().skip(s).step_by(shards).enumerate())
        .map(|(k, r)| {
            assert_eq!(r.id().index(), k * shards + s, "ids are dense");
            Request::new(
                RequestId(k),
                r.vnf(),
                r.reliability_requirement(),
                r.arrival(),
                r.duration(),
                r.payment(),
                sub.horizon(),
            )
            .unwrap()
        })
        .collect();
    let sim = Simulation::new(sub, &lane_reqs).unwrap();
    let mut alg: Box<dyn OnlineScheduler> = match scheme {
        Scheme::OnSite => Box::new(OnsitePrimalDual::new(sub, CapacityPolicy::Enforce).unwrap()),
        Scheme::OffSite => Box::new(OffsitePrimalDual::new(sub)),
    };
    let revenue = sim.run(alg.as_mut()).unwrap().metrics.revenue;
    (alg.export_state(), revenue)
}

/// What `S > 1` means, as a test: lanes share nothing, so an S = 2
/// daemon driven open-loop over two connections — its lanes racing each
/// other on real threads — ends with every lane in the state, and the
/// daemon at the revenue, of per-lane batch runs, to the bit.
#[test]
fn every_lane_of_two_matches_its_own_batch_run_bit_for_bit() {
    const SHARDS: usize = 2;
    for (instance, reqs) in [scenario(2000, 7), week_scenario(240, 83)] {
        let subs = build_shard_instances(&instance, SHARDS).unwrap();
        for scheme in [Scheme::OnSite, Scheme::OffSite] {
            let (addr, daemon) = spawn_sharded(instance.clone(), scheme, sharded_config(SHARDS));
            let mut config = OpenLoopConfig::new(addr.to_string());
            config.conns = SHARDS;
            config.shards = SHARDS;
            config.batch = 16;
            config.shutdown_when_done = true;
            let client = run_open_loop(&reqs, &config).unwrap();
            let report = daemon.join().unwrap().unwrap();
            assert_eq!(client.errors + client.overloaded, 0, "nothing may be shed");
            assert_eq!(report.stats.decided as usize, reqs.len());
            assert!(report.stats.admitted > 0, "{scheme:?}: nothing admitted");

            let mut revenue = 0.0;
            for (s, sub) in subs.iter().enumerate() {
                let (state, lane_revenue) = batch_lane(sub, scheme, &reqs, s, SHARDS);
                let what = format!("{scheme:?}: lane {s}");
                assert_states_bit_equal(&report.shard_states[s], &state, &what);
                revenue += lane_revenue;
            }
            assert_eq!(
                report.stats.revenue.to_bits(),
                revenue.to_bits(),
                "{scheme:?}: summed revenue"
            );
        }
    }
}
