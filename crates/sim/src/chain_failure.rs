//! Monte-Carlo failure injection for service function chains.
//!
//! The chain scheduler's availability certificates are analytical (and,
//! with standbys, conservative); this module checks them empirically.
//! Each trial samples:
//!
//! 1. an up/down state for every cloudlet (probability `r(c_j)`),
//! 2. for every admitted chain in id order, stage by stage, whether any
//!    primary replica survives (each replica is up with probability
//!    `r(f_k)`, and only counts if its hosting cloudlet is up),
//! 3. one aliveness draw per *standby instance* in ascending standby-id
//!    order (up iff its hosting cloudlet is up and the single instance
//!    survives its own `r(f)` draw).
//!
//! A failed stage protected by a live standby can be rescued — but a
//! standby rescues at most **one** failed subscriber per trial (it is a
//! single spare instance); contending claims resolve in ascending
//! `(chain, stage)` order. This is exactly the contention the shared
//! pool's mass-cap admission test bounds analytically, so measured
//! chain survival must meet `R_i` for every admitted chain, shared or
//! dedicated. The draw order above is the module's RNG contract: fixed
//! seeds give bit-identical reports.

use std::collections::HashMap;

use rand::Rng;

use mec_workload::{ChainRequest, ChainRequestId};
use vnfrel::chain::ChainSchedule;
use vnfrel::ProblemInstance;

use crate::failure::{FailureReport, RequestAvailability};
use crate::SimError;

/// Result of a chain failure-injection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainFailureReport {
    /// Measured availability of each admitted chain, in id order: the
    /// fraction of trials in which every stage survived (or was rescued
    /// by a standby).
    pub availability: FailureReport<ChainRequestId>,
    /// Per entry of `availability.requests`: the fraction of trials in which a
    /// standby rescue was needed and granted.
    pub rescued: Vec<f64>,
}

/// One placed stage, resolved for the trial loop.
struct StageSpec {
    /// Primary host cloudlet index.
    cloudlet: usize,
    /// VNF software reliability `r(f_k)`.
    r_f: f64,
    /// Primary replica count.
    replicas: u32,
    /// Standby protecting this stage, if any.
    standby: Option<usize>,
}

/// A standby instance, resolved for the trial loop.
struct StandbySpec {
    cloudlet: usize,
    r_f: f64,
}

struct ChainCampaign {
    cloudlet_rel: Vec<f64>,
    /// Per admitted chain, in id order: `(id, required, stages)`.
    admitted: Vec<(ChainRequestId, f64, Vec<StageSpec>)>,
    /// Standby specs in ascending standby-id order, with their dense
    /// position (standby ids are pool-global; only those referenced by
    /// an admitted chain appear here).
    standbys: Vec<(usize, StandbySpec)>,
}

fn prepare(
    instance: &ProblemInstance,
    chains: &[ChainRequest],
    schedule: &ChainSchedule,
) -> Result<ChainCampaign, SimError> {
    if schedule.len() != chains.len() {
        return Err(SimError::Mismatch(
            "chain schedule length differs from chain count",
        ));
    }
    let m = instance.cloudlet_count();
    let cloudlet_rel: Vec<f64> = instance
        .network()
        .cloudlets()
        .map(|c| c.reliability().value())
        .collect();
    let mut admitted = Vec::new();
    let mut standby_map: HashMap<usize, StandbySpec> = HashMap::new();
    for c in chains {
        let Some(p) = schedule.placement(c.id()) else {
            continue;
        };
        if p.stages.len() != c.stages().len() {
            return Err(SimError::Mismatch("placement stage count mismatch"));
        }
        let mut stages = Vec::with_capacity(p.stages.len());
        for sp in &p.stages {
            if sp.cloudlet.index() >= m {
                return Err(SimError::Mismatch("placement references unknown cloudlet"));
            }
            let vnf = instance
                .catalog()
                .get(sp.vnf)
                .ok_or(SimError::Mismatch("placement references unknown vnf type"))?;
            let r_f = vnf.reliability().value();
            if let Some(id) = sp.standby {
                // Standbys co-locate with the stage's primary cloudlet
                // and run one instance of the stage's VNF type.
                standby_map.entry(id.index()).or_insert(StandbySpec {
                    cloudlet: sp.cloudlet.index(),
                    r_f,
                });
            }
            stages.push(StageSpec {
                cloudlet: sp.cloudlet.index(),
                r_f,
                replicas: sp.replicas,
                standby: sp.standby.map(|s| s.index()),
            });
        }
        admitted.push((c.id(), c.reliability_requirement().value(), stages));
    }
    let mut standbys: Vec<(usize, StandbySpec)> = standby_map.into_iter().collect();
    standbys.sort_by_key(|&(id, _)| id);
    Ok(ChainCampaign {
        cloudlet_rel,
        admitted,
        standbys,
    })
}

/// Runs `trials` independent failure samples against an admitted chain
/// schedule. See the module docs for the sampling model and RNG
/// contract.
///
/// # Errors
///
/// Returns [`SimError`] when the schedule does not cover the chains or
/// references unknown cloudlets/VNFs.
pub fn inject_chain_failures<R: Rng + ?Sized>(
    instance: &ProblemInstance,
    chains: &[ChainRequest],
    schedule: &ChainSchedule,
    trials: usize,
    rng: &mut R,
) -> Result<ChainFailureReport, SimError> {
    let c = prepare(instance, chains, schedule)?;
    let n = c.admitted.len();
    let mut survived = vec![0usize; n];
    let mut rescued = vec![0usize; n];
    let mut cloudlet_up = vec![false; c.cloudlet_rel.len()];
    let mut standby_up: HashMap<usize, bool> = HashMap::new();
    // (standby id, chain position, stage) claims, filled per trial.
    let mut claims: Vec<(usize, usize, usize)> = Vec::new();
    // Failed stages per chain position, filled per trial.
    let mut failed: Vec<Vec<usize>> = vec![Vec::new(); n];

    for _ in 0..trials {
        for (j, up) in cloudlet_up.iter_mut().enumerate() {
            *up = rng.gen_bool(c.cloudlet_rel[j]);
        }
        claims.clear();
        for (pos, (_, _, stages)) in c.admitted.iter().enumerate() {
            failed[pos].clear();
            for (k, s) in stages.iter().enumerate() {
                let alive = cloudlet_up[s.cloudlet] && (0..s.replicas).any(|_| rng.gen_bool(s.r_f));
                if !alive {
                    failed[pos].push(k);
                    if let Some(id) = s.standby {
                        claims.push((id, pos, k));
                    }
                }
            }
        }
        standby_up.clear();
        for &(id, ref spec) in &c.standbys {
            standby_up.insert(id, cloudlet_up[spec.cloudlet] && rng.gen_bool(spec.r_f));
        }
        // Resolve claims in ascending (chain, stage) order per standby:
        // `claims` is already in that order because chains and stages
        // were visited ascending; the first claim on a live standby
        // wins, later ones stay failed.
        for &(id, pos, k) in &claims {
            let up = standby_up.get_mut(&id).expect("known standby");
            if *up {
                *up = false;
                failed[pos].retain(|&f| f != k);
                rescued[pos] += 1;
            }
        }
        for (pos, f) in failed.iter().enumerate() {
            if f.is_empty() {
                survived[pos] += 1;
            }
        }
    }

    let denom = trials.max(1) as f64;
    let requests = c
        .admitted
        .iter()
        .zip(&survived)
        .map(|(&(request, required, _), &s)| RequestAvailability {
            request,
            required,
            measured: s as f64 / denom,
            trials,
        })
        .collect();
    Ok(ChainFailureReport {
        availability: FailureReport { requests, trials },
        rescued: rescued.iter().map(|&r| r as f64 / denom).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::generators::{self, CloudletPlacement};
    use mec_workload::{ChainGenerator, Horizon, VnfCatalog};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vnfrel::chain::{run_chain_online, BackupMode, ChainPrimalDual};

    fn instance(seed: u64) -> ProblemInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let placement = CloudletPlacement {
            fraction: 1.0,
            capacity: (25, 45),
            reliability: (0.995, 0.9999),
        };
        let net = generators::ring(4, &placement, &mut rng).unwrap();
        ProblemInstance::new(net, VnfCatalog::standard(), Horizon::new(14)).unwrap()
    }

    fn chains(inst: &ProblemInstance, count: usize, seed: u64) -> Vec<ChainRequest> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        ChainGenerator::new(inst.horizon(), inst.network().ap_count())
            .length_band(1, 3)
            .unwrap()
            .reliability_band(0.9, 0.96)
            .unwrap()
            .latency_budget_band(4.0, 12.0)
            .unwrap()
            .generate(count, inst.catalog(), &mut rng)
            .unwrap()
    }

    #[test]
    fn delivered_reliability_meets_target_in_every_mode() {
        let inst = instance(3);
        let reqs = chains(&inst, 30, 17);
        for mode in [BackupMode::None, BackupMode::Dedicated, BackupMode::Shared] {
            let mut alg = ChainPrimalDual::new(&inst, mode);
            let schedule = run_chain_online(&mut alg, &reqs).unwrap();
            assert!(schedule.admitted_count() > 0, "{mode:?}: nothing admitted");
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            let report = inject_chain_failures(&inst, &reqs, &schedule, 20_000, &mut rng).unwrap();
            let violations = report.availability.statistical_violations(3.0);
            assert!(
                violations.is_empty(),
                "{mode:?}: measured availability below target for {violations:?} \
                 (worst margin {:?})",
                report.availability.worst_margin()
            );
        }
    }

    #[test]
    fn shared_standbys_actually_rescue() {
        let inst = instance(5);
        let reqs = chains(&inst, 25, 23);
        let mut alg = ChainPrimalDual::new(&inst, BackupMode::Shared);
        let schedule = run_chain_online(&mut alg, &reqs).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let report = inject_chain_failures(&inst, &reqs, &schedule, 20_000, &mut rng).unwrap();
        // If any standbys were committed, some trials must have used one.
        if alg.pool().standby_count() > 0 {
            let total_rescued: f64 = report.rescued.iter().sum();
            assert!(total_rescued > 0.0, "standbys exist but never rescued");
        }
    }

    #[test]
    fn reports_are_deterministic_for_a_seed() {
        let inst = instance(3);
        let reqs = chains(&inst, 15, 17);
        let mut alg = ChainPrimalDual::new(&inst, BackupMode::Shared);
        let schedule = run_chain_online(&mut alg, &reqs).unwrap();
        let r1 = inject_chain_failures(
            &inst,
            &reqs,
            &schedule,
            5_000,
            &mut ChaCha8Rng::seed_from_u64(42),
        )
        .unwrap();
        let r2 = inject_chain_failures(
            &inst,
            &reqs,
            &schedule,
            5_000,
            &mut ChaCha8Rng::seed_from_u64(42),
        )
        .unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn mismatched_schedule_is_rejected() {
        let inst = instance(3);
        let reqs = chains(&inst, 10, 17);
        let empty = ChainSchedule::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(inject_chain_failures(&inst, &reqs, &empty, 10, &mut rng).is_err());
    }
}
