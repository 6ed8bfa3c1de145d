//! Monte-Carlo failure injection.
//!
//! The paper's reliability guarantees are analytical; this module checks
//! them *empirically*: each trial samples an up/down state for every
//! cloudlet (probability `r(c_j)`) and for every placed VNF instance
//! (probability `r(f_i)`), then asks whether each admitted request still
//! has at least one live instance — an instance is live only if both its
//! software and its hosting cloudlet are up. Over many trials the
//! measured survival rate of each request should match the analytical
//! availability of its placement and, in particular, meet `R_i`.

use rand::Rng;

use mec_workload::{Request, RequestId};
use vnfrel::{Placement, ProblemInstance, Schedule};

use crate::SimError;

/// Measured availability of one admitted request: a single-VNF request
/// by default, or a chain ([`crate::inject_chain_failures`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestAvailability<Id = RequestId> {
    /// The request.
    pub request: Id,
    /// Required availability `R_i`.
    pub required: f64,
    /// Fraction of trials in which the request survived.
    pub measured: f64,
    /// Number of trials.
    pub trials: usize,
}

impl<Id> RequestAvailability<Id> {
    /// Measured minus required; negative = empirical shortfall.
    pub fn margin(&self) -> f64 {
        self.measured - self.required
    }

    /// Approximate standard error of the measurement
    /// (`√(p(1−p)/n)` with the measured `p`; 0 with no trials, where no
    /// uncertainty estimate exists).
    pub fn standard_error(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        (self.measured * (1.0 - self.measured) / self.trials as f64).sqrt()
    }

    /// Whether the measurement is consistent with meeting the requirement:
    /// `measured ≥ required − z·SE`.
    pub fn meets_requirement(&self, z: f64) -> bool {
        self.measured + z * self.standard_error() >= self.required
    }
}

/// Result of a failure-injection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport<Id = RequestId> {
    /// One entry per admitted request, in id order.
    pub requests: Vec<RequestAvailability<Id>>,
    /// Number of trials run.
    pub trials: usize,
}

impl<Id: Copy> FailureReport<Id> {
    /// Smallest margin across admitted requests (`None` if none admitted).
    ///
    /// NaN margins (possible only from hand-built reports with NaN
    /// fields) sort as largest, so a finite worst margin wins over them
    /// instead of panicking mid-fold.
    pub fn worst_margin(&self) -> Option<f64> {
        self.requests
            .iter()
            .map(|r| r.margin())
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Requests whose measurement is statistically below requirement at
    /// the given z-score (3.0 ≈ 99.7% confidence).
    pub fn statistical_violations(&self, z: f64) -> Vec<Id> {
        self.requests
            .iter()
            .filter(|r| !r.meets_requirement(z))
            .map(|r| r.request)
            .collect()
    }
}

/// Admitted requests with placements and reliabilities resolved once,
/// shared by the serial and chunk-parallel trial loops.
struct Campaign<'a> {
    cloudlet_rel: Vec<f64>,
    admitted: Vec<&'a Request>,
    /// `(r(f_i), placement)` per admitted request, in id order.
    placed: Vec<(f64, &'a Placement)>,
}

fn prepare<'a>(
    instance: &ProblemInstance,
    requests: &'a [Request],
    schedule: &'a Schedule,
) -> Result<Campaign<'a>, SimError> {
    if schedule.len() != requests.len() {
        return Err(SimError::Mismatch(
            "schedule length differs from request count",
        ));
    }
    let admitted: Vec<&Request> = requests
        .iter()
        .filter(|r| schedule.is_admitted(r.id()))
        .collect();
    let cloudlet_rel: Vec<f64> = instance
        .network()
        .cloudlets()
        .map(|c| c.reliability().value())
        .collect();

    // Resolve the VNF reliability and placement of every admitted request
    // once, outside the hot trial loop (previously an O(trials × requests)
    // stream of redundant catalog lookups).
    let mut placed: Vec<(f64, &Placement)> = Vec::with_capacity(admitted.len());
    for r in &admitted {
        let vnf = instance
            .catalog()
            .get(r.vnf())
            .ok_or(SimError::Mismatch("request references unknown vnf type"))?;
        let placement = schedule.placement(r.id()).expect("admitted");
        let sites = match placement {
            Placement::OnSite { cloudlet, .. } => std::slice::from_ref(cloudlet),
            Placement::OffSite { cloudlets } => cloudlets,
        };
        if sites.iter().any(|c| c.index() >= cloudlet_rel.len()) {
            return Err(SimError::Mismatch("placement references unknown cloudlet"));
        }
        placed.push((vnf.reliability().value(), placement));
    }
    Ok(Campaign {
        cloudlet_rel,
        admitted,
        placed,
    })
}

/// Runs `trials` samples, adding survivals into `survived` (one counter
/// per admitted request). The per-trial draw order — all cloudlet states,
/// then each placed request in id order — is the module's RNG contract:
/// both entry points produce identical counts from identical streams.
fn run_trials<R: Rng + ?Sized>(
    c: &Campaign<'_>,
    trials: usize,
    rng: &mut R,
    survived: &mut [usize],
) {
    let mut cloudlet_up = vec![false; c.cloudlet_rel.len()];
    for _ in 0..trials {
        for (j, up) in cloudlet_up.iter_mut().enumerate() {
            *up = rng.gen_bool(c.cloudlet_rel[j]);
        }
        for (k, &(r_f, placement)) in c.placed.iter().enumerate() {
            let alive = match placement {
                Placement::OnSite {
                    cloudlet,
                    instances,
                } => {
                    let j = cloudlet.index();
                    cloudlet_up[j] && (0..*instances).any(|_| rng.gen_bool(r_f))
                }
                Placement::OffSite { cloudlets } => cloudlets
                    .iter()
                    .any(|j| cloudlet_up[j.index()] && rng.gen_bool(r_f)),
            };
            if alive {
                survived[k] += 1;
            }
        }
    }
}

fn assemble(c: &Campaign<'_>, survived: &[usize], trials: usize) -> FailureReport {
    let requests = c
        .admitted
        .iter()
        .zip(survived)
        .map(|(r, &s)| RequestAvailability {
            request: r.id(),
            required: r.reliability_requirement().value(),
            measured: s as f64 / trials.max(1) as f64,
            trials,
        })
        .collect();
    FailureReport { requests, trials }
}

/// Runs `trials` independent failure samples against an admitted
/// schedule.
///
/// # Errors
///
/// Returns [`SimError`] when the schedule does not cover the requests or
/// references unknown cloudlets/VNFs.
pub fn inject_failures<R: Rng + ?Sized>(
    instance: &ProblemInstance,
    requests: &[Request],
    schedule: &Schedule,
    trials: usize,
    rng: &mut R,
) -> Result<FailureReport, SimError> {
    let campaign = prepare(instance, requests, schedule)?;
    let mut survived = vec![0usize; campaign.placed.len()];
    run_trials(&campaign, trials, rng, &mut survived);
    Ok(assemble(&campaign, &survived, trials))
}

/// Trials per task in [`inject_failures_parallel`]. Fixed (not derived
/// from the thread count) so the chunk grid — and therefore every RNG
/// stream and the exact survival counts — is identical at any `threads`.
const TRIAL_CHUNK: usize = 512;

/// [`inject_failures`] fanned out over `threads` scoped worker threads.
///
/// The campaign is split into fixed [`TRIAL_CHUNK`]-sized chunks; chunk
/// `c` draws from `ChaCha8Rng::seed_from_u64(seed)` on stream `c + 1`,
/// and per-request survival counts are summed over chunks in chunk
/// order. Results are a pure function of `(inputs, seed)` — **not** of
/// `threads` — which the determinism suite asserts. The trade-off versus
/// the serial entry point is a different (chunked) stream layout, so
/// counts match `inject_failures` statistically but not sample-by-sample.
///
/// With `metered`, each worker chunk also accumulates trial/survival
/// counts into a private [`mec_obs::MetricsShard`] (no shared cache lines
/// inside the trial loop), absorbed into the registry as results are
/// folded in, in chunk order. The returned report is the same either way.
///
/// # Errors
///
/// Returns [`SimError`] for the same mismatches as [`inject_failures`].
pub fn inject_failures_parallel(
    instance: &ProblemInstance,
    requests: &[Request],
    schedule: &Schedule,
    trials: usize,
    seed: u64,
    threads: usize,
    metered: Option<(&mec_obs::MetricsRegistry, crate::obs::InjectionMetricIds)>,
) -> Result<FailureReport, SimError> {
    use rand::SeedableRng;

    let campaign = prepare(instance, requests, schedule)?;
    let n_chunks = trials.div_ceil(TRIAL_CHUNK);
    let chunks: Vec<usize> = (0..n_chunks).collect();
    let counts = crate::parallel::parallel_map(&chunks, threads, |&c| {
        let lo = c * TRIAL_CHUNK;
        let hi = trials.min(lo + TRIAL_CHUNK);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        rng.set_stream(c as u64 + 1);
        let mut survived = vec![0usize; campaign.placed.len()];
        run_trials(&campaign, hi - lo, &mut rng, &mut survived);
        let shard = metered.map(|(reg, ids)| {
            let mut shard = reg.shard();
            shard.add(ids.trials, (hi - lo) as u64);
            shard.add(ids.survivals, survived.iter().map(|&s| s as u64).sum());
            shard
        });
        (survived, shard)
    });
    let mut survived = vec![0usize; campaign.placed.len()];
    for (chunk, shard) in counts {
        for (total, s) in survived.iter_mut().zip(chunk) {
            *total += s;
        }
        if let (Some((reg, _)), Some(shard)) = (metered, shard) {
            reg.absorb(&shard);
        }
    }
    Ok(assemble(&campaign, &survived, trials))
}

/// Like [`inject_failures`], but samples component states *per slot* and
/// counts a request as served only when at least one instance is alive in
/// **every** slot of its execution window.
///
/// The paper's `R_i` is an instantaneous availability target, so
/// [`inject_failures`] is the faithful check; window survival is strictly
/// harder (roughly `availability^d`) and quantifies what a "whole-session
/// uptime" SLA would additionally require.
///
/// # Errors
///
/// Returns [`SimError`] for mismatched inputs, as [`inject_failures`].
pub fn inject_failures_windowed<R: Rng + ?Sized>(
    instance: &ProblemInstance,
    requests: &[Request],
    schedule: &Schedule,
    trials: usize,
    rng: &mut R,
) -> Result<FailureReport, SimError> {
    let campaign = prepare(instance, requests, schedule)?;
    let cloudlet_rel = &campaign.cloudlet_rel;
    let mut survived = vec![0usize; campaign.placed.len()];
    for _ in 0..trials {
        let placed = campaign.admitted.iter().zip(&campaign.placed);
        for ((r, &(r_f, placement)), count) in placed.zip(&mut survived) {
            // Independent component states per slot of the window.
            let all_slots_alive = r.slots().all(|_t| match placement {
                Placement::OnSite {
                    cloudlet,
                    instances,
                } => {
                    rng.gen_bool(cloudlet_rel[cloudlet.index()])
                        && (0..*instances).any(|_| rng.gen_bool(r_f))
                }
                Placement::OffSite { cloudlets } => cloudlets
                    .iter()
                    .any(|j| rng.gen_bool(cloudlet_rel[j.index()]) && rng.gen_bool(r_f)),
            });
            if all_slots_alive {
                *count += 1;
            }
        }
    }

    let mut report = assemble(&campaign, &survived, trials);
    // The window target is the per-slot target compounded over the
    // duration.
    for (a, r) in report.requests.iter_mut().zip(&campaign.admitted) {
        a.required = a.required.powi(r.duration() as i32);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::{NetworkBuilder, Reliability};
    use mec_workload::{Horizon, RequestGenerator, VnfCatalog};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vnfrel::offsite::OffsitePrimalDual;
    use vnfrel::onsite::{CapacityPolicy, OnsitePrimalDual};
    use vnfrel::run_online;

    fn instance() -> ProblemInstance {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let c = b.add_ap("b");
        let d = b.add_ap("c");
        b.add_link(a, c, 1.0).unwrap();
        b.add_link(c, d, 1.0).unwrap();
        b.add_cloudlet(a, 40, Reliability::new(0.999).unwrap())
            .unwrap();
        b.add_cloudlet(c, 40, Reliability::new(0.995).unwrap())
            .unwrap();
        b.add_cloudlet(d, 40, Reliability::new(0.99).unwrap())
            .unwrap();
        ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(10)).unwrap()
    }

    #[test]
    fn onsite_placements_meet_requirements_empirically() {
        let inst = instance();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let reqs = RequestGenerator::new(inst.horizon())
            .reliability_band(0.9, 0.97)
            .unwrap()
            .generate(30, inst.catalog(), &mut rng)
            .unwrap();
        let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let schedule = run_online(&mut alg, &reqs).unwrap();
        let report = inject_failures(&inst, &reqs, &schedule, 20_000, &mut rng).unwrap();
        assert!(!report.requests.is_empty());
        let violations = report.statistical_violations(4.0);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn offsite_placements_meet_requirements_empirically() {
        let inst = instance();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let reqs = RequestGenerator::new(inst.horizon())
            .reliability_band(0.9, 0.97)
            .unwrap()
            .generate(30, inst.catalog(), &mut rng)
            .unwrap();
        let mut alg = OffsitePrimalDual::new(&inst);
        let schedule = run_online(&mut alg, &reqs).unwrap();
        let report = inject_failures(&inst, &reqs, &schedule, 20_000, &mut rng).unwrap();
        let violations = report.statistical_violations(4.0);
        assert!(violations.is_empty(), "violations: {violations:?}");
        assert_eq!(report.trials, 20_000);
    }

    #[test]
    fn measured_availability_tracks_analytical_value() {
        // A single request with a known placement: measured availability
        // should approximate r_c·(1 − (1 − r_f)^n).
        use mec_topology::CloudletId;
        use mec_workload::{RequestId, VnfTypeId};
        use vnfrel::{Decision, Placement, Schedule};
        let inst = instance();
        let r = Request::new(
            RequestId(0),
            VnfTypeId(2), // IDS: r = 0.9
            Reliability::new(0.9).unwrap(),
            0,
            1,
            1.0,
            inst.horizon(),
        )
        .unwrap();
        let mut s = Schedule::new();
        s.record(
            &r,
            Decision::Admit(Placement::OnSite {
                cloudlet: CloudletId(0),
                instances: 2,
            }),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let report = inject_failures(&inst, &[r], &s, 200_000, &mut rng).unwrap();
        let analytical = 0.999 * (1.0 - 0.1f64.powi(2));
        let measured = report.requests[0].measured;
        assert!(
            (measured - analytical).abs() < 0.005,
            "measured {measured} vs analytical {analytical}"
        );
    }

    #[test]
    fn windowed_survival_meets_compounded_target() {
        let inst = instance();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let reqs = RequestGenerator::new(inst.horizon())
            .reliability_band(0.9, 0.95)
            .unwrap()
            .generate(25, inst.catalog(), &mut rng)
            .unwrap();
        let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let schedule = run_online(&mut alg, &reqs).unwrap();
        let report = inject_failures_windowed(&inst, &reqs, &schedule, 20_000, &mut rng).unwrap();
        // Per-slot availability ≥ R_i and independent slots ⇒ window
        // survival ≥ R_i^d; no statistical violation expected.
        let violations = report.statistical_violations(4.0);
        assert!(violations.is_empty(), "violations: {violations:?}");
        // Windowed survival is harder than instantaneous availability.
        let plain = inject_failures(&inst, &reqs, &schedule, 20_000, &mut rng).unwrap();
        for (w, p) in report.requests.iter().zip(&plain.requests) {
            assert_eq!(w.request, p.request);
            assert!(w.measured <= p.measured + 0.02, "{}", w.request);
            assert!(w.required <= p.required + 1e-12);
        }
    }

    #[test]
    fn parallel_injection_is_thread_count_invariant() {
        let inst = instance();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let reqs = RequestGenerator::new(inst.horizon())
            .reliability_band(0.9, 0.97)
            .unwrap()
            .generate(25, inst.catalog(), &mut rng)
            .unwrap();
        let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let schedule = run_online(&mut alg, &reqs).unwrap();
        // 2500 trials → 5 chunks: results must not depend on threads.
        let t1 = inject_failures_parallel(&inst, &reqs, &schedule, 2500, 99, 1, None).unwrap();
        for threads in [2, 4, 8] {
            let tn =
                inject_failures_parallel(&inst, &reqs, &schedule, 2500, 99, threads, None).unwrap();
            assert_eq!(t1, tn, "threads={threads}");
        }
        // And it agrees statistically with the serial injector.
        let serial = inject_failures(&inst, &reqs, &schedule, 20_000, &mut rng).unwrap();
        assert!(t1.statistical_violations(4.0).is_empty());
        assert!(serial.statistical_violations(4.0).is_empty());
    }

    #[test]
    fn metered_injection_matches_plain_and_counts_trials() {
        use crate::obs::InjectionMetricIds;
        use mec_obs::MetricsRegistry;

        let inst = instance();
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let reqs = RequestGenerator::new(inst.horizon())
            .reliability_band(0.9, 0.97)
            .unwrap()
            .generate(20, inst.catalog(), &mut rng)
            .unwrap();
        let mut alg = OnsitePrimalDual::new(&inst, CapacityPolicy::Enforce).unwrap();
        let schedule = run_online(&mut alg, &reqs).unwrap();

        let mut reg = MetricsRegistry::new();
        let ids = InjectionMetricIds::register(&mut reg);
        let metered =
            inject_failures_parallel(&inst, &reqs, &schedule, 1500, 42, 4, Some((&reg, ids)))
                .unwrap();
        let plain = inject_failures_parallel(&inst, &reqs, &schedule, 1500, 42, 4, None).unwrap();
        assert_eq!(metered, plain);
        assert_eq!(reg.counter_value(ids.trials), 1500);
        let expected_survivals: u64 = metered
            .requests
            .iter()
            .map(|r| (r.measured * 1500.0).round() as u64)
            .sum();
        assert_eq!(reg.counter_value(ids.survivals), expected_survivals);
    }

    #[test]
    fn parallel_injection_validates_inputs() {
        let inst = instance();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let reqs = RequestGenerator::new(inst.horizon())
            .generate(3, inst.catalog(), &mut rng)
            .unwrap();
        let s = Schedule::new();
        assert!(inject_failures_parallel(&inst, &reqs, &s, 10, 0, 4, None).is_err());
    }

    #[test]
    fn mismatched_schedule_is_an_error() {
        let inst = instance();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let reqs = RequestGenerator::new(inst.horizon())
            .generate(3, inst.catalog(), &mut rng)
            .unwrap();
        let s = Schedule::new(); // empty ≠ 3 requests
        assert!(inject_failures(&inst, &reqs, &s, 10, &mut rng).is_err());
        assert!(inject_failures_windowed(&inst, &reqs, &s, 10, &mut rng).is_err());

        // A placement on a cloudlet the instance does not have, on-site
        // or off-site, is rejected up front by every entry point rather
        // than sampled as a dead site.
        let unknown = mec_topology::CloudletId(99);
        let placements = [
            Placement::OnSite {
                cloudlet: unknown,
                instances: 1,
            },
            Placement::OffSite {
                cloudlets: vec![mec_topology::CloudletId(0), unknown],
            },
        ];
        let one = &reqs[..1];
        for placement in placements {
            let mut s = Schedule::new();
            s.record(&reqs[0], vnfrel::Decision::Admit(placement.clone()));
            let what = format!("{placement:?}");
            assert!(
                inject_failures(&inst, one, &s, 10, &mut rng).is_err(),
                "{what}"
            );
            assert!(
                inject_failures_windowed(&inst, one, &s, 10, &mut rng).is_err(),
                "{what}"
            );
            let parallel = inject_failures_parallel(&inst, one, &s, 10, 0, 1, None);
            assert!(parallel.is_err(), "{what}");
        }
    }

    #[test]
    fn margin_and_standard_error() {
        let a = RequestAvailability {
            request: mec_workload::RequestId(0),
            required: 0.95,
            measured: 0.97,
            trials: 10_000,
        };
        assert!((a.margin() - 0.02).abs() < 1e-12);
        assert!(a.standard_error() > 0.0 && a.standard_error() < 0.01);
        assert!(a.meets_requirement(3.0));
    }

    #[test]
    fn zero_trials_and_nan_margins_stay_finite() {
        // trials == 0 used to divide by zero (SE = NaN) and poison every
        // downstream comparison.
        let a = RequestAvailability {
            request: mec_workload::RequestId(0),
            required: 0.95,
            measured: 0.0,
            trials: 0,
        };
        assert_eq!(a.standard_error(), 0.0);
        assert!(!a.meets_requirement(3.0));

        // A NaN margin must not panic the fold; the finite entry wins.
        let report = FailureReport {
            requests: vec![
                RequestAvailability {
                    request: mec_workload::RequestId(0),
                    required: f64::NAN,
                    measured: 0.9,
                    trials: 100,
                },
                RequestAvailability {
                    request: mec_workload::RequestId(1),
                    required: 0.95,
                    measured: 0.90,
                    trials: 100,
                },
            ],
            trials: 100,
        };
        let worst = report.worst_margin().unwrap();
        assert!((worst + 0.05).abs() < 1e-12);

        // And an empty report still reports no margin at all.
        let empty: FailureReport = FailureReport {
            requests: Vec::new(),
            trials: 0,
        };
        assert_eq!(empty.worst_margin(), None);
        assert!(empty.statistical_violations(3.0).is_empty());
    }
}
