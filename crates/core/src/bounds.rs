//! Theoretical guarantees of Algorithm 1 — the competitive ratio
//! `1 + a_max` (Theorem 1) and the capacity-violation bound `ξ` (Lemma 8),
//! computed from a concrete instance + request stream so experiments can
//! compare observed behaviour against the proved bounds.

use mec_workload::Request;

use crate::error::VnfrelError;
use crate::instance::ProblemInstance;
use crate::reliability::onsite_instances;

/// The quantities of Theorem 1 / Lemma 8 for one instance + workload.
#[derive(Debug, Clone, PartialEq)]
pub struct OnsiteBounds {
    /// `a_max = max_{i,j} N_ij·c(f_i)` over eligible (request, cloudlet)
    /// pairs.
    pub a_max: f64,
    /// `a_min = min_{i,j} N_ij·c(f_i)`.
    pub a_min: f64,
    /// Maximum payment among requests.
    pub pay_max: f64,
    /// Minimum payment among requests.
    pub pay_min: f64,
    /// Maximum request duration in slots.
    pub d_max: f64,
    /// Minimum request duration in slots.
    pub d_min: f64,
    /// Maximum cloudlet capacity.
    pub cap_max: f64,
    /// Minimum cloudlet capacity.
    pub cap_min: f64,
}

impl OnsiteBounds {
    /// Computes the bound ingredients.
    ///
    /// # Errors
    ///
    /// Returns [`VnfrelError::InvalidParameter`] when no (request,
    /// cloudlet) pair is eligible — the bounds are undefined for a
    /// workload that can never be served.
    pub fn compute(instance: &ProblemInstance, requests: &[Request]) -> Result<Self, VnfrelError> {
        let mut a_max = f64::MIN;
        let mut a_min = f64::MAX;
        let mut pay_max = f64::MIN;
        let mut pay_min = f64::MAX;
        let mut d_max = f64::MIN;
        let mut d_min = f64::MAX;
        for r in requests {
            let vnf = instance.catalog().require(r.vnf())?;
            pay_max = pay_max.max(r.payment());
            pay_min = pay_min.min(r.payment());
            d_max = d_max.max(r.duration() as f64);
            d_min = d_min.min(r.duration() as f64);
            for cloudlet in instance.network().cloudlets() {
                if let Some(n) = onsite_instances(
                    vnf.reliability(),
                    cloudlet.reliability(),
                    r.reliability_requirement(),
                ) {
                    let a = f64::from(n) * vnf.compute() as f64;
                    a_max = a_max.max(a);
                    a_min = a_min.min(a);
                }
            }
        }
        if a_max == f64::MIN {
            return Err(VnfrelError::InvalidParameter(
                "no eligible (request, cloudlet) pair",
            ));
        }
        let cap_max = instance
            .network()
            .cloudlets()
            .map(|c| c.capacity() as f64)
            .fold(f64::MIN, f64::max);
        let cap_min = instance
            .network()
            .cloudlets()
            .map(|c| c.capacity() as f64)
            .fold(f64::MAX, f64::min);
        Ok(OnsiteBounds {
            a_max,
            a_min,
            pay_max,
            pay_min,
            d_max,
            d_min,
            cap_max,
            cap_min,
        })
    }

    /// The competitive ratio `1 + a_max` of Theorem 1.
    pub fn competitive_ratio(&self) -> f64 {
        1.0 + self.a_max
    }

    /// The capacity-violation bound `ξ` of Lemma 8, expressed in computing
    /// units (the per-(slot, cloudlet) load of the raw Algorithm 1 never
    /// exceeds this).
    pub fn xi(&self) -> f64 {
        let inner = self.pay_max * self.d_max / self.pay_min
            * (1.0 / self.a_min
                + self.a_max / (self.a_min * self.cap_min)
                + self.a_max / (self.d_min * self.cap_min))
            + 1.0;
        self.a_max / (self.cap_min * (1.0 + self.a_min / self.cap_max).log2()) * inner.log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::{NetworkBuilder, Reliability};
    use mec_workload::{Horizon, RequestId, VnfCatalog, VnfTypeId};

    fn rel(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    fn instance() -> ProblemInstance {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let c = b.add_ap("b");
        b.add_link(a, c, 1.0).unwrap();
        b.add_cloudlet(a, 50, rel(0.999)).unwrap();
        b.add_cloudlet(c, 100, rel(0.995)).unwrap();
        ProblemInstance::new(b.build().unwrap(), VnfCatalog::standard(), Horizon::new(10)).unwrap()
    }

    fn request(id: usize, vnf: usize, pay: f64, dur: usize) -> Request {
        Request::new(
            RequestId(id),
            VnfTypeId(vnf),
            rel(0.9),
            0,
            dur,
            pay,
            Horizon::new(10),
        )
        .unwrap()
    }

    #[test]
    fn bounds_ordering_invariants() {
        let inst = instance();
        let reqs = vec![
            request(0, 0, 4.0, 2),
            request(1, 2, 9.0, 5),
            request(2, 8, 1.0, 1),
        ];
        let b = OnsiteBounds::compute(&inst, &reqs).unwrap();
        assert!(b.a_max >= b.a_min && b.a_min > 0.0);
        assert!(b.pay_max >= b.pay_min);
        assert!(b.d_max >= b.d_min);
        assert!(b.cap_max >= b.cap_min);
        assert_eq!(b.cap_max, 100.0);
        assert_eq!(b.cap_min, 50.0);
        assert!(b.competitive_ratio() > 1.0);
        assert!(b.xi() > 0.0);
    }

    #[test]
    fn a_values_reflect_replica_counts() {
        let inst = instance();
        // IDS (vnf 2): compute 3, r = 0.9 → multiple replicas needed at
        // req 0.9 with cloudlet 0.995 … a = N·3 ≥ 6.
        let reqs = vec![request(0, 2, 5.0, 1)];
        let b = OnsiteBounds::compute(&inst, &reqs).unwrap();
        assert!(b.a_max >= 6.0, "a_max {}", b.a_max);
    }

    #[test]
    fn no_eligible_pair_is_an_error() {
        let mut bld = NetworkBuilder::new();
        let a = bld.add_ap("a");
        bld.add_cloudlet(a, 10, rel(0.91)).unwrap();
        let inst = ProblemInstance::new(
            bld.build().unwrap(),
            VnfCatalog::standard(),
            Horizon::new(10),
        )
        .unwrap();
        let r = Request::new(
            RequestId(0),
            VnfTypeId(0),
            rel(0.95),
            0,
            1,
            1.0,
            Horizon::new(10),
        )
        .unwrap();
        assert!(matches!(
            OnsiteBounds::compute(&inst, &[r]),
            Err(VnfrelError::InvalidParameter(_))
        ));
    }

    #[test]
    fn xi_grows_with_payment_spread() {
        let inst = instance();
        let tight =
            OnsiteBounds::compute(&inst, &[request(0, 1, 5.0, 2), request(1, 1, 5.0, 2)]).unwrap();
        let wide =
            OnsiteBounds::compute(&inst, &[request(0, 1, 50.0, 2), request(1, 1, 0.5, 2)]).unwrap();
        assert!(wide.xi() > tight.xi());
    }
}
