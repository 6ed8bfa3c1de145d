//! Property-based tests tying all schedulers to the paper's guarantees:
//! feasibility of every schedule, weak duality, competitive ratio, and
//! dominance of the offline optimum.

use mec_topology::generators::{self, CloudletPlacement};
use mec_workload::{Horizon, RequestGenerator, VnfCatalog};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vnfrel::bounds::OnsiteBounds;
use vnfrel::offsite::{OffsiteGreedy, OffsitePrimalDual};
use vnfrel::onsite::{offline::OfflineConfig, CapacityPolicy, OnsiteGreedy, OnsitePrimalDual};
use vnfrel::{run_online, validate_schedule, OnlineScheduler, ProblemInstance, Scheme};

fn build_instance(seed: u64, cloudlets: usize, horizon: usize) -> ProblemInstance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = CloudletPlacement {
        fraction: 1.0,
        capacity: (6, 20),
        reliability: (0.99, 0.9999),
    };
    let net = generators::ring(cloudlets.max(1), &placement, &mut rng).unwrap();
    ProblemInstance::new(net, VnfCatalog::standard(), Horizon::new(horizon)).unwrap()
}

fn build_requests(
    instance: &ProblemInstance,
    seed: u64,
    count: usize,
) -> Vec<mec_workload::Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(1));
    RequestGenerator::new(instance.horizon())
        .reliability_band(0.9, 0.98)
        .unwrap()
        .generate(count, instance.catalog(), &mut rng)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_onsite_scheduler_produces_feasible_schedules(
        seed in 0u64..500,
        cloudlets in 1usize..6,
        count in 1usize..80,
    ) {
        let inst = build_instance(seed, cloudlets, 16);
        let reqs = build_requests(&inst, seed, count);

        let mut alg1 = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let s1 = run_online(&mut alg1, &reqs).unwrap();
        let rep = validate_schedule(&inst, &reqs, &s1, Scheme::OnSite).unwrap();
        prop_assert!(rep.is_feasible(), "alg1 violations: {:?}", rep.violations);
        prop_assert!((rep.recomputed_revenue - s1.revenue()).abs() < 1e-6);

        let mut greedy = OnsiteGreedy::new(&inst);
        let sg = run_online(&mut greedy, &reqs).unwrap();
        let rep = validate_schedule(&inst, &reqs, &sg, Scheme::OnSite).unwrap();
        prop_assert!(rep.is_feasible(), "greedy violations: {:?}", rep.violations);
    }

    #[test]
    fn every_offsite_scheduler_produces_feasible_schedules(
        seed in 0u64..500,
        cloudlets in 1usize..6,
        count in 1usize..80,
    ) {
        let inst = build_instance(seed, cloudlets, 16);
        let reqs = build_requests(&inst, seed, count);

        let mut alg2 = OffsitePrimalDual::new(&inst);
        let s2 = run_online(&mut alg2, &reqs).unwrap();
        let rep = validate_schedule(&inst, &reqs, &s2, Scheme::OffSite).unwrap();
        prop_assert!(rep.is_feasible(), "alg2 violations: {:?}", rep.violations);
        prop_assert_eq!(alg2.ledger().max_overflow(), 0.0);

        let mut greedy = OffsiteGreedy::new(&inst);
        let sg = run_online(&mut greedy, &reqs).unwrap();
        let rep = validate_schedule(&inst, &reqs, &sg, Scheme::OffSite).unwrap();
        prop_assert!(rep.is_feasible(), "greedy violations: {:?}", rep.violations);
    }

    #[test]
    fn weak_duality_holds_for_algorithm1(
        seed in 0u64..300,
        cloudlets in 1usize..5,
        count in 1usize..60,
    ) {
        let inst = build_instance(seed, cloudlets, 12);
        let reqs = build_requests(&inst, seed, count);
        let mut alg1 = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let s = run_online(&mut alg1, &reqs).unwrap();
        prop_assert!(
            s.revenue() <= alg1.dual_objective() + 1e-6,
            "revenue {} > dual {}",
            s.revenue(),
            alg1.dual_objective()
        );
    }

    #[test]
    fn offline_optimum_dominates_online_algorithms(
        seed in 0u64..120,
        count in 1usize..16,
    ) {
        // Small instances so branch-and-bound is exact.
        let inst = build_instance(seed, 3, 8);
        let reqs = build_requests(&inst, seed, count);

        let offline = vnfrel::onsite::offline::solve(&inst, &reqs, &OfflineConfig::default())
            .unwrap();
        prop_assert!(offline.exact, "expected exact offline optimum");
        let opt = offline.revenue();

        let mut alg1 = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let s1 = run_online(&mut alg1, &reqs).unwrap();
        prop_assert!(s1.revenue() <= opt + 1e-6, "alg1 {} > opt {}", s1.revenue(), opt);

        let mut greedy = OnsiteGreedy::new(&inst);
        let sg = run_online(&mut greedy, &reqs).unwrap();
        prop_assert!(sg.revenue() <= opt + 1e-6, "greedy {} > opt {}", sg.revenue(), opt);

        // The offline schedule itself must be feasible.
        if let Some((_, schedule)) = &offline.incumbent {
            let rep = validate_schedule(&inst, &reqs, schedule, Scheme::OnSite).unwrap();
            prop_assert!(rep.is_feasible(), "offline violations: {:?}", rep.violations);
        }
    }

    #[test]
    fn offsite_offline_dominates_and_is_feasible(
        seed in 0u64..80,
        count in 1usize..10,
    ) {
        let inst = build_instance(seed, 3, 6);
        let reqs = build_requests(&inst, seed, count);
        let offline = vnfrel::offsite::offline::solve(&inst, &reqs, &OfflineConfig::default())
            .unwrap();
        let opt = offline.revenue();

        let mut alg2 = OffsitePrimalDual::new(&inst);
        let s2 = run_online(&mut alg2, &reqs).unwrap();
        prop_assert!(
            offline.incumbent.is_none() || s2.revenue() <= opt + 1e-6,
            "alg2 {} > opt {}",
            s2.revenue(),
            opt
        );
        if let Some((_, schedule)) = &offline.incumbent {
            let rep = validate_schedule(&inst, &reqs, schedule, Scheme::OffSite).unwrap();
            prop_assert!(rep.is_feasible(), "offline violations: {:?}", rep.violations);
        }
    }

    #[test]
    fn raw_alg1_respects_lemma8_violation_bound(
        seed in 0u64..200,
        count in 1usize..80,
    ) {
        let inst = build_instance(seed, 4, 12);
        let reqs = build_requests(&inst, seed, count);
        let mut raw = OnsitePrimalDual::new(&inst, CapacityPolicy::AllowViolations).unwrap();
        run_online(&mut raw, &reqs).unwrap();
        if let Ok(bounds) = OnsiteBounds::compute(&inst, &reqs) {
            // Lemma 8: per-(slot,cloudlet) load ≤ ξ ⇒ relative overflow
            // ≤ ξ/cap_min − 1 … we check the weaker, safe form.
            let observed = raw.ledger().max_overflow();
            let allowed = (bounds.xi() / bounds.cap_min - 1.0).max(0.0) + 1e-9;
            prop_assert!(
                observed <= allowed,
                "overflow {} exceeds Lemma 8 bound {} (xi={})",
                observed,
                allowed,
                bounds.xi()
            );
        }
    }

    #[test]
    fn scaled_policies_never_overflow_and_scale1_equals_enforce(
        seed in 0u64..150,
        count in 1usize..60,
    ) {
        // Scaling is not monotone in admissions (the gate perturbs which
        // cloudlet wins the argmin, which shifts later prices), but every
        // scaled run must stay within capacity, and σ = 1 must reproduce
        // the Enforce policy decision-for-decision.
        let inst = build_instance(seed, 3, 12);
        let reqs = build_requests(&inst, seed, count);
        for scale in [1.0, 1.5, 2.0, 4.0] {
            let mut alg =
                OnsitePrimalDual::new(&inst, CapacityPolicy::Scaled(scale)).unwrap();
            let s = run_online(&mut alg, &reqs).unwrap();
            prop_assert_eq!(alg.ledger().max_overflow(), 0.0);
            if scale == 1.0 {
                let mut enforce =
                    OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
                let e = run_online(&mut enforce, &reqs).unwrap();
                prop_assert_eq!(&s, &e, "Scaled(1.0) diverged from Enforce");
            }
        }
    }
}

mod chain_props {
    use super::*;
    use mec_topology::NodeId;
    use mec_topology::Reliability;
    use mec_workload::VnfTypeId;
    use vnfrel::chain::alloc::{allocate_replicas, chain_availability, chain_availability_raw};
    use vnfrel::chain::{
        run_chain_online, BackupMode, ChainGreedy, ChainPrimalDual, ChainRequest, ChainRequestId,
        ChainScheduler,
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn allocation_feasible_and_never_beaten_by_uniform(
            seed in 0u64..2000,
            stages_n in 1usize..5,
            rc in 0.985f64..0.9999,
            rq in 0.9f64..0.98,
        ) {
            prop_assume!(rc > rq);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let stages: Vec<(Reliability, u64)> = (0..stages_n)
                .map(|_| {
                    let r = Reliability::new(rand::Rng::gen_range(&mut rng, 0.9..0.9995)).unwrap();
                    (r, rand::Rng::gen_range(&mut rng, 1..4u64))
                })
                .collect();
            let rc = Reliability::new(rc).unwrap();
            let rq = Reliability::new(rq).unwrap();
            let alloc = allocate_replicas(&stages, rc, rq).expect("feasible when rc > rq");
            prop_assert!(alloc.replicas.iter().all(|&n| n >= 1));
            prop_assert!(
                chain_availability(&stages, &alloc.replicas, rc) >= rq.value(),
                "allocation must meet the requirement"
            );
            // A uniform allocation at the max per-stage count is feasible;
            // the DP must never cost more.
            let max_n = *alloc.replicas.iter().max().unwrap();
            let uniform = vec![max_n; stages.len()];
            if chain_availability(&stages, &uniform, rc) >= rq.value() {
                let uniform_cost: u64 = stages
                    .iter()
                    .zip(&uniform)
                    .map(|(&(_, c), &n)| u64::from(n) * c)
                    .sum();
                prop_assert!(alloc.total_compute <= uniform_cost);
            }
        }

        #[test]
        fn chain_schedulers_feasible_and_reliable(
            seed in 0u64..500,
            count in 1usize..50,
        ) {
            let inst = build_instance(seed, 3, 12);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc4a1);
            let horizon = inst.horizon();
            let reqs: Vec<ChainRequest> = (0..count)
                .map(|i| {
                    let len = rand::Rng::gen_range(&mut rng, 1..4usize);
                    let stages: Vec<VnfTypeId> = (0..len)
                        .map(|_| VnfTypeId(rand::Rng::gen_range(&mut rng, 0..10usize)))
                        .collect();
                    let arrival = rand::Rng::gen_range(&mut rng, 0..horizon.len() - 1);
                    let duration = rand::Rng::gen_range(&mut rng, 1..=(horizon.len() - arrival).min(4));
                    let ingress =
                        NodeId(rand::Rng::gen_range(&mut rng, 0..inst.network().ap_count()));
                    ChainRequest::new(
                        ChainRequestId(i),
                        stages,
                        Reliability::new(rand::Rng::gen_range(&mut rng, 0.9..0.95)).unwrap(),
                        f64::INFINITY,
                        ingress,
                        arrival,
                        duration,
                        rand::Rng::gen_range(&mut rng, 0.5..20.0),
                        horizon,
                    )
                    .unwrap()
                })
                .collect();

            let mut pd = ChainPrimalDual::new(&inst, BackupMode::None);
            let spd = run_chain_online(&mut pd, &reqs).unwrap();
            prop_assert_eq!(pd.ledger().max_overflow(), 0.0);

            let mut shared = ChainPrimalDual::new(&inst, BackupMode::Shared);
            let ssh = run_chain_online(&mut shared, &reqs).unwrap();
            prop_assert_eq!(shared.ledger().max_overflow(), 0.0);

            let mut gr = ChainGreedy::new(&inst);
            let sgr = run_chain_online(&mut gr, &reqs).unwrap();
            prop_assert_eq!(gr.ledger().max_overflow(), 0.0);

            // Every admitted chain meets its end-to-end requirement.
            // Without standbys the exact availability must clear the bar;
            // with standbys the scheduler's certificate (a sound lower
            // bound, verified by the Monte-Carlo referee in mec-sim) must.
            for schedule in [&spd, &sgr] {
                for r in &reqs {
                    if let Some(p) = schedule.placement(r.id()) {
                        let stages: Vec<(f64, u64)> = r
                            .stages()
                            .iter()
                            .map(|&s| {
                                let v = inst.catalog().get(s).unwrap();
                                (v.reliability().value(), v.compute())
                            })
                            .collect();
                        let mut gate = 1.0;
                        let mut seen: Vec<usize> = Vec::new();
                        for sp in &p.stages {
                            if !seen.contains(&sp.cloudlet.index()) {
                                seen.push(sp.cloudlet.index());
                                gate *= inst.cloudlet_reliability(sp.cloudlet);
                            }
                        }
                        let reps: Vec<u32> = p.stages.iter().map(|s| s.replicas).collect();
                        prop_assert!(
                            gate * chain_availability_raw(&stages, &reps, 1.0) + 1e-9
                                >= r.reliability_requirement().value()
                        );
                    }
                }
            }
            for r in &reqs {
                if let Some(p) = ssh.placement(r.id()) {
                    prop_assert!(
                        p.availability + 1e-9 >= r.reliability_requirement().value()
                    );
                    prop_assert!(p.latency <= r.latency_budget());
                }
            }
        }
    }
}
