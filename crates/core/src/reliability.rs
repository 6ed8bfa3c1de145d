//! Reliability arithmetic for the on-site and off-site backup schemes.
//!
//! All formulas follow Section III of the paper. A VNF instance placed in
//! cloudlet `c_j` is available only while both the software and the
//! cloudlet are up; the two schemes combine instances differently:
//!
//! * **on-site** — all `N_ij` instances share cloudlet `c_j`, so
//!   `P(A_i) = r(c_j)·(1 − (1 − r(f_i))^{N_ij})` (Eq. 2) and the minimum
//!   replica count is `N_ij = ⌈log_{1−r(f_i)}(1 − R_i / r(c_j))⌉` (Eq. 3),
//!   defined only when `r(c_j) > R_i`;
//! * **off-site** — one instance per chosen cloudlet, failures independent,
//!   so `P(A_i) = 1 − Π_j (1 − r(f_i)·r(c_j))` (Eq. 10).

use mec_topology::Reliability;

/// Availability of an on-site placement with `n` instances (Eq. 2).
///
/// `r(c_j) · (1 − (1 − r(f_i))^n)`; `n = 0` yields 0.
pub fn onsite_availability(vnf: Reliability, cloudlet: Reliability, n: u32) -> f64 {
    cloudlet.value() * (1.0 - vnf.failure().powi(n as i32))
}

/// Minimum number of on-site instances meeting requirement `req` (Eq. 3).
///
/// Returns `None` when `r(c_j) ≤ R_i`: the cloudlet caps achievable
/// availability at `r(c_j)`, so no replica count suffices.
///
/// # Example
///
/// ```
/// # use mec_topology::Reliability;
/// # use vnfrel::reliability::{onsite_instances, onsite_availability};
/// let vnf = Reliability::new(0.9).unwrap();
/// let cloudlet = Reliability::new(0.999).unwrap();
/// let req = Reliability::new(0.99).unwrap();
/// let n = onsite_instances(vnf, cloudlet, req).unwrap();
/// assert!(onsite_availability(vnf, cloudlet, n) >= req.value());
/// assert!(n == 1 || onsite_availability(vnf, cloudlet, n - 1) < req.value());
/// ```
pub fn onsite_instances(vnf: Reliability, cloudlet: Reliability, req: Reliability) -> Option<u32> {
    if cloudlet.value() <= req.value() {
        return None;
    }
    // N = ⌈ ln(1 − R/r_c) / ln(1 − r_f) ⌉, both logs negative.
    let target = 1.0 - req.value() / cloudlet.value(); // in (0, 1)
    let n = (target.ln() / vnf.ln_failure()).ceil();
    // The division can land a hair off the true integer either way: below
    // it (too few instances: step up) or, when `req` sits exactly on a
    // rung, above it (one too many: step down). Verify both ways.
    let mut n = n.max(1.0) as u32;
    while onsite_availability(vnf, cloudlet, n) < req.value() {
        n += 1;
        debug_assert!(n < 10_000, "runaway replica count");
    }
    while n > 1 && onsite_availability(vnf, cloudlet, n - 1) >= req.value() {
        n -= 1;
    }
    Some(n)
}

/// [`onsite_instances`] by its definition: the least `n` with
/// `onsite_availability(n) ≥ R`, found by linear search. The oracle the
/// table lookups and the closed form are tested against.
#[cfg(test)]
pub(crate) fn onsite_instances_by_search(
    vnf: Reliability,
    cloudlet: Reliability,
    req: Reliability,
) -> Option<u32> {
    if cloudlet.value() <= req.value() {
        return None;
    }
    (1..).find(|&n| onsite_availability(vnf, cloudlet, n) >= req.value())
}

/// Availability of an off-site placement across the given cloudlets
/// (Eq. 10): `1 − Π (1 − r(f_i)·r(c_j))`.
pub fn offsite_availability<I>(vnf: Reliability, cloudlets: I) -> f64
where
    I: IntoIterator<Item = Reliability>,
{
    let fail: f64 = cloudlets
        .into_iter()
        .map(|c| 1.0 - vnf.value() * c.value())
        .product();
    1.0 - fail
}

/// The linearization coefficient `ln(1 − r(f_i)·r(c_j))` used by the
/// off-site ILP transformation (Eq. 44) and Algorithm 2 — always negative.
pub fn offsite_ln_coefficient(vnf: Reliability, cloudlet: Reliability) -> f64 {
    (1.0 - vnf.value() * cloudlet.value()).ln()
}

/// Whether a set of off-site cloudlets meets requirement `req`, computed
/// in log-space (`Σ ln(1 − r_f·r_c) ≤ ln(1 − R)`), which is how both
/// Algorithm 2 and the ILP decide it.
pub fn offsite_meets_requirement<I>(vnf: Reliability, cloudlets: I, req: Reliability) -> bool
where
    I: IntoIterator<Item = Reliability>,
{
    let sum: f64 = cloudlets
        .into_iter()
        .map(|c| offsite_ln_coefficient(vnf, c))
        .sum();
    sum <= req.failure().ln() + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    #[test]
    fn single_instance_availability() {
        // One instance: r_c · r_f.
        let a = onsite_availability(rel(0.9), rel(0.99), 1);
        assert!((a - 0.891).abs() < 1e-12);
        // Zero instances: nothing runs.
        assert_eq!(onsite_availability(rel(0.9), rel(0.99), 0), 0.0);
    }

    #[test]
    fn availability_increases_with_replicas_but_caps_at_cloudlet() {
        let vnf = rel(0.9);
        let c = rel(0.995);
        let mut prev = 0.0;
        for n in 1..12 {
            let a = onsite_availability(vnf, c, n);
            assert!(a > prev);
            assert!(a < c.value());
            prev = a;
        }
    }

    #[test]
    fn onsite_instances_minimal() {
        let vnf = rel(0.9);
        let c = rel(0.999);
        for req in [0.9, 0.95, 0.99, 0.995, 0.998] {
            let req = rel(req);
            let n = onsite_instances(vnf, c, req).unwrap();
            assert!(
                onsite_availability(vnf, c, n) >= req.value(),
                "n={n} too small"
            );
            if n > 1 {
                assert!(
                    onsite_availability(vnf, c, n - 1) < req.value(),
                    "n={n} not minimal for req {}",
                    req.value()
                );
            }
        }
    }

    #[test]
    fn onsite_instances_is_minimal_on_a_rung() {
        // r_f 0.995, r_c 0.99: the requirement equal to the 5-instance
        // rung takes exactly 5 instances, not 6.
        let (vnf, c) = (rel(0.995), rel(0.99));
        let rung = rel(onsite_availability(vnf, c, 5));
        assert_eq!(onsite_instances(vnf, c, rung), Some(5));
        // Every rung 1–5 of the ten standard VNF types over 2 000 cloudlet
        // reliabilities in [0.99, 0.9999), and one ulp either side.
        let mut rung_cases = 0;
        for vnf in mec_workload::VnfCatalog::standard().iter() {
            let vnf = vnf.reliability();
            for i in 0..2000 {
                let c = rel(0.99 + 0.0099 * f64::from(i) / 2000.0);
                for n in 1..=5 {
                    let a = onsite_availability(vnf, c, n);
                    for r in [a.next_down(), a, a.next_up()] {
                        if let Ok(req) = Reliability::new(r) {
                            assert_eq!(
                                onsite_instances(vnf, c, req),
                                onsite_instances_by_search(vnf, c, req),
                                "r_f {}, r_c {}, R {r:e} (rung {n})",
                                vnf.value(),
                                c.value()
                            );
                            rung_cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(rung_cases, 300_000);
    }

    #[test]
    fn onsite_instances_unreachable_requirement() {
        // r_c ≤ R → impossible.
        assert_eq!(onsite_instances(rel(0.9), rel(0.95), rel(0.95)), None);
        assert_eq!(onsite_instances(rel(0.9), rel(0.94), rel(0.95)), None);
        // Just above is possible.
        assert!(onsite_instances(rel(0.9), rel(0.951), rel(0.95)).is_some());
    }

    #[test]
    fn onsite_instances_one_when_requirement_low() {
        // r_f·r_c = 0.891 ≥ 0.5 → a single instance suffices.
        assert_eq!(onsite_instances(rel(0.9), rel(0.99), rel(0.5)), Some(1));
    }

    #[test]
    fn onsite_instances_worked_example() {
        // vnf 0.9, cloudlet 0.9999, req 0.99:
        // target = 1 − 0.99/0.9999 ≈ 0.009901; ln/ln(0.1) ≈ 2.004 → N = 3.
        assert_eq!(onsite_instances(rel(0.9), rel(0.9999), rel(0.99)), Some(3));
    }

    #[test]
    fn offsite_availability_matches_closed_form() {
        let vnf = rel(0.9);
        let sites = [rel(0.99), rel(0.98)];
        let p = offsite_availability(vnf, sites);
        let expect = 1.0 - (1.0 - 0.9 * 0.99) * (1.0 - 0.9 * 0.98);
        assert!((p - expect).abs() < 1e-12);
        // Empty set: availability 0.
        assert_eq!(offsite_availability(vnf, std::iter::empty()), 0.0);
    }

    #[test]
    fn offsite_log_space_check_agrees_with_direct() {
        let vnf = rel(0.92);
        let sites = [rel(0.99), rel(0.97), rel(0.95)];
        for req in [0.9, 0.99, 0.999, 0.9999, 0.99999] {
            let req = rel(req);
            let direct = offsite_availability(vnf, sites.iter().copied()) >= req.value();
            let logspace = offsite_meets_requirement(vnf, sites.iter().copied(), req);
            assert_eq!(direct, logspace, "disagree at req {}", req.value());
        }
    }

    #[test]
    fn offsite_ln_coefficient_is_negative() {
        assert!(offsite_ln_coefficient(rel(0.9), rel(0.99)) < 0.0);
        assert!(offsite_ln_coefficient(rel(0.0001), rel(0.0001)) < 0.0);
    }

    #[test]
    fn offsite_can_exceed_single_cloudlet_reliability() {
        // The whole point of the off-site scheme: availability can exceed
        // every individual cloudlet's reliability.
        let vnf = rel(0.99);
        let sites = vec![rel(0.95), rel(0.95), rel(0.95)];
        let p = offsite_availability(vnf, sites);
        assert!(p > 0.95);
    }
}
