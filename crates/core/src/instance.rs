use std::fmt;

use mec_topology::{CloudletId, Network, Reliability};
use mec_workload::{Horizon, Request, VnfCatalog, VnfTypeId};

use crate::error::VnfrelError;
use crate::reliability::{offsite_ln_coefficient, onsite_availability, onsite_instances};

/// Which backup scheme a scheduler operates under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// All primary and backup instances of a request share one cloudlet.
    OnSite,
    /// At most one instance of a request per cloudlet.
    OffSite,
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::OnSite => write!(f, "on-site"),
            Scheme::OffSite => write!(f, "off-site"),
        }
    }
}

/// A complete problem instance: the MEC network, the VNF catalog, and the
/// slotted monitoring horizon.
///
/// Requests are kept separate because the online algorithms consume them
/// as a stream; [`ProblemInstance::check_requests`] validates that a
/// stream is compatible with this instance.
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    network: Network,
    catalog: VnfCatalog,
    horizon: Horizon,
    tables: ReliabilityTables,
}

/// Per-(VNF-type, cloudlet) reliability arithmetic, precomputed once at
/// instance construction so the online `decide()` hot path does no
/// `ln`/`ceil`/`powi` work per request.
///
/// * `ln_coef[v·m + j] = ln(1 − r(f_v)·r(c_j))` — the off-site
///   linearization coefficient (Eq. 44), bit-identical to computing it
///   per request since the inputs are the same;
/// * an *availability ladder* per (type, cloudlet): the on-site
///   availability `A(n) = r(c_j)·(1 − (1 − r(f_v))^n)` (Eq. 2) tabulated
///   for `n = 1, 2, …` until the residual failure mass `(1 − r_f)^n`
///   drops below f64 resolution. `N_ij` for a concrete requirement is a
///   short forward scan for the first rung meeting it — the minimal
///   replica count of Eq. 3 without any logarithms.
#[derive(Debug, Clone)]
struct ReliabilityTables {
    cloudlets: usize,
    /// `r(c_j)` per cloudlet, dense by id.
    cloudlet_rel: Vec<f64>,
    /// `ln(1 − r_f·r_c)` per `(vnf · m + cloudlet)`; always negative.
    ln_coef: Vec<f64>,
    /// CSR-style offsets into `ladder`: entry `v·m + j` spans
    /// `ladder[off[v·m + j] .. off[v·m + j + 1]]`.
    ladder_off: Vec<u32>,
    /// Concatenated availability ladders; entry `i` of a span is `A(i+1)`.
    ladder: Vec<f64>,
}

/// Hard cap on ladder length; requirements between the last rung and
/// `r(c_j)` fall back to the closed form of
/// [`onsite_instances`](crate::reliability::onsite_instances).
const MAX_LADDER: u32 = 64;

impl ReliabilityTables {
    fn build(network: &Network, catalog: &VnfCatalog) -> Self {
        let m = network.cloudlet_count();
        let cloudlet_rel: Vec<f64> = network
            .cloudlets()
            .map(|c| c.reliability().value())
            .collect();
        let n_types = catalog.len();
        let mut ln_coef = Vec::with_capacity(n_types * m);
        let mut ladder_off = Vec::with_capacity(n_types * m + 1);
        let mut ladder = Vec::new();
        ladder_off.push(0u32);
        for vnf in catalog.iter() {
            let rf = vnf.reliability();
            for cloudlet in network.cloudlets() {
                let rc = cloudlet.reliability();
                ln_coef.push(offsite_ln_coefficient(rf, rc));
                let mut n = 1u32;
                loop {
                    // Same powi-based arithmetic as `onsite_availability`
                    // so ladder rungs are bit-identical to the values the
                    // pre-table code compared against.
                    ladder.push(onsite_availability(rf, rc, n));
                    if rf.failure().powi(n as i32) < 1e-18 || n >= MAX_LADDER {
                        break;
                    }
                    n += 1;
                }
                ladder_off.push(ladder.len() as u32);
            }
        }
        ReliabilityTables {
            cloudlets: m,
            cloudlet_rel,
            ln_coef,
            ladder_off,
            ladder,
        }
    }
}

impl ProblemInstance {
    /// Bundles a network, catalog, and horizon into an instance.
    ///
    /// # Errors
    ///
    /// Returns [`VnfrelError::InvalidInstance`] if the network has no
    /// cloudlets or the catalog is empty.
    pub fn new(
        network: Network,
        catalog: VnfCatalog,
        horizon: Horizon,
    ) -> Result<Self, VnfrelError> {
        if network.cloudlet_count() == 0 {
            return Err(VnfrelError::InvalidInstance("network has no cloudlets"));
        }
        if catalog.is_empty() {
            return Err(VnfrelError::InvalidInstance("vnf catalog is empty"));
        }
        let tables = ReliabilityTables::build(&network, &catalog);
        Ok(ProblemInstance {
            network,
            catalog,
            horizon,
            tables,
        })
    }

    /// Minimum on-site replica count `N_ij` (Eq. 3) for a request with
    /// requirement `req`, from the precomputed availability ladder:
    /// `None` when `r(c_j) ≤ R_i`, otherwise the first rung meeting the
    /// requirement. Agrees with
    /// [`onsite_instances`](crate::reliability::onsite_instances) but
    /// does no logarithm work.
    #[inline]
    pub fn onsite_instances_for(
        &self,
        vnf: VnfTypeId,
        cloudlet: CloudletId,
        req: Reliability,
    ) -> Option<u32> {
        let t = &self.tables;
        let j = cloudlet.index();
        let r = req.value();
        if t.cloudlet_rel[j] <= r {
            return None;
        }
        let k = vnf.index() * t.cloudlets + j;
        let lo = t.ladder_off[k] as usize;
        let hi = t.ladder_off[k + 1] as usize;
        for (i, &a) in t.ladder[lo..hi].iter().enumerate() {
            if a >= r {
                return Some(i as u32 + 1);
            }
        }
        // The requirement sits between the last tabulated rung and
        // r(c_j) (possible only for very failure-prone VNF types whose
        // ladder hit MAX_LADDER): use the closed form.
        let vnf_rel = self.catalog.get(vnf)?.reliability();
        let cloudlet_rel = self.network.cloudlet(cloudlet)?.reliability();
        onsite_instances(vnf_rel, cloudlet_rel, req)
    }

    /// Precomputed off-site linearization coefficient
    /// `ln(1 − r(f_v)·r(c_j))` (Eq. 44); always negative.
    #[inline]
    pub fn offsite_ln_coef(&self, vnf: VnfTypeId, cloudlet: CloudletId) -> f64 {
        self.tables.ln_coef[vnf.index() * self.tables.cloudlets + cloudlet.index()]
    }

    /// Precomputed cloudlet reliability `r(c_j)` by dense index.
    #[inline]
    pub fn cloudlet_reliability(&self, cloudlet: CloudletId) -> f64 {
        self.tables.cloudlet_rel[cloudlet.index()]
    }

    /// The MEC network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The VNF catalog.
    pub fn catalog(&self) -> &VnfCatalog {
        &self.catalog
    }

    /// The monitoring horizon.
    pub fn horizon(&self) -> Horizon {
        self.horizon
    }

    /// Number of cloudlets `m`.
    pub fn cloudlet_count(&self) -> usize {
        self.network.cloudlet_count()
    }

    /// Validates that a request stream can be scheduled against this
    /// instance: ids dense in arrival order, windows inside the horizon,
    /// VNF types present in the catalog.
    ///
    /// # Errors
    ///
    /// * [`VnfrelError::NonDenseRequestIds`] if ids do not equal positions.
    /// * [`VnfrelError::Workload`] for unknown VNF types or out-of-horizon
    ///   windows.
    pub fn check_requests(&self, requests: &[Request]) -> Result<(), VnfrelError> {
        for (i, r) in requests.iter().enumerate() {
            if r.id().index() != i {
                return Err(VnfrelError::NonDenseRequestIds {
                    position: i,
                    found: r.id().index(),
                });
            }
            self.catalog.require(r.vnf())?;
            self.check_window(r)?;
        }
        Ok(())
    }

    /// Checks one request's window against this instance's horizon (the
    /// request may have been built against a longer one).
    ///
    /// # Errors
    ///
    /// Returns [`VnfrelError::Workload`] for an out-of-horizon window.
    pub(crate) fn check_window(&self, r: &Request) -> Result<(), VnfrelError> {
        if self.horizon.contains_window(r.arrival(), r.duration()) {
            Ok(())
        } else {
            Err(VnfrelError::Workload(
                mec_workload::WorkloadError::WindowOutsideHorizon {
                    arrival: r.arrival(),
                    duration: r.duration(),
                    horizon: self.horizon.len(),
                },
            ))
        }
    }
}

impl fmt::Display for ProblemInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} vnf types | {}",
            self.network,
            self.catalog.len(),
            self.horizon
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::{NetworkBuilder, Reliability};
    use mec_workload::{Request, RequestId, VnfTypeId};

    fn network(with_cloudlet: bool) -> Network {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        if with_cloudlet {
            b.add_cloudlet(a, 10, Reliability::new(0.99).unwrap())
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn rejects_degenerate_instances() {
        let err = ProblemInstance::new(network(false), VnfCatalog::standard(), Horizon::new(5))
            .unwrap_err();
        assert!(matches!(err, VnfrelError::InvalidInstance(_)));
        let empty = VnfCatalog::from_specs(Vec::<(&str, u64, f64)>::new()).unwrap();
        let err = ProblemInstance::new(network(true), empty, Horizon::new(5)).unwrap_err();
        assert!(matches!(err, VnfrelError::InvalidInstance(_)));
    }

    #[test]
    fn accepts_and_exposes_parts() {
        let inst =
            ProblemInstance::new(network(true), VnfCatalog::standard(), Horizon::new(5)).unwrap();
        assert_eq!(inst.cloudlet_count(), 1);
        assert_eq!(inst.catalog().len(), 10);
        assert_eq!(inst.horizon().len(), 5);
        assert!(inst.to_string().contains("vnf types"));
        assert_eq!(Scheme::OnSite.to_string(), "on-site");
        assert_eq!(Scheme::OffSite.to_string(), "off-site");
    }

    #[test]
    fn check_requests_catches_bad_streams() {
        let inst =
            ProblemInstance::new(network(true), VnfCatalog::standard(), Horizon::new(5)).unwrap();
        let h = Horizon::new(5);
        let r = |id: usize, vnf: usize| {
            Request::new(
                RequestId(id),
                VnfTypeId(vnf),
                Reliability::new(0.9).unwrap(),
                0,
                2,
                1.0,
                h,
            )
            .unwrap()
        };
        assert!(inst.check_requests(&[r(0, 0), r(1, 3)]).is_ok());
        // Non-dense ids.
        assert!(matches!(
            inst.check_requests(&[r(1, 0)]),
            Err(VnfrelError::NonDenseRequestIds { .. })
        ));
        // Unknown VNF type.
        assert!(matches!(
            inst.check_requests(&[r(0, 42)]),
            Err(VnfrelError::Workload(_))
        ));
        // Window outside this instance's (shorter) horizon.
        let short =
            ProblemInstance::new(network(true), VnfCatalog::standard(), Horizon::new(1)).unwrap();
        assert!(matches!(
            short.check_requests(&[r(0, 0)]),
            Err(VnfrelError::Workload(_))
        ));
    }

    /// Builds an instance whose cloudlets have the given reliabilities.
    fn instance_with(rels: &[f64], catalog: VnfCatalog) -> ProblemInstance {
        let mut b = NetworkBuilder::new();
        for (i, &r) in rels.iter().enumerate() {
            let ap = b.add_ap(format!("ap{i}"));
            b.add_cloudlet(ap, 10, Reliability::new(r).unwrap())
                .unwrap();
        }
        ProblemInstance::new(b.build().unwrap(), catalog, Horizon::new(4)).unwrap()
    }

    #[test]
    fn tables_match_closed_forms_on_standard_catalog() {
        use crate::reliability::{offsite_ln_coefficient, onsite_instances};
        let inst = instance_with(&[0.95, 0.99, 0.999, 0.9999], VnfCatalog::standard());
        for vnf in inst.catalog().iter() {
            for c in inst.network().cloudlets() {
                assert_eq!(
                    inst.offsite_ln_coef(vnf.id(), c.id()),
                    offsite_ln_coefficient(vnf.reliability(), c.reliability()),
                    "ln_coef table must be bit-identical"
                );
                for req in [0.9, 0.93, 0.95, 0.97, 0.99, 0.995, 0.9989] {
                    let req = Reliability::new(req).unwrap();
                    assert_eq!(
                        inst.onsite_instances_for(vnf.id(), c.id(), req),
                        onsite_instances(vnf.reliability(), c.reliability(), req),
                        "ladder lookup must agree with the closed form \
                         (vnf {:?}, cloudlet {:?}, req {})",
                        vnf.id(),
                        c.id(),
                        req.value()
                    );
                }
            }
        }
    }

    #[test]
    fn ladder_fallback_handles_failure_prone_vnfs() {
        use crate::reliability::onsite_instances;
        // A VNF with r_f = 0.3 needs a long ladder: (1 − 0.3)^64 ≈ 1e-10
        // is still above the 1e-18 cutoff, so MAX_LADDER truncates it and
        // requirements beyond the last rung exercise the closed-form
        // fallback.
        let catalog = VnfCatalog::from_specs(vec![("Flaky", 1u64, 0.3f64)]).unwrap();
        let inst = instance_with(&[0.999999], catalog);
        let vnf = inst.catalog().iter().next().unwrap();
        let c = CloudletId(0);
        for req in [0.5, 0.9, 0.99, 0.9999, 0.99999, 0.999998] {
            let req = Reliability::new(req).unwrap();
            assert_eq!(
                inst.onsite_instances_for(vnf.id(), c, req),
                onsite_instances(
                    vnf.reliability(),
                    inst.network().cloudlet(c).unwrap().reliability(),
                    req
                ),
                "fallback must agree with the closed form at req {}",
                req.value()
            );
        }
    }

    proptest::proptest! {
        /// The availability-ladder lookup agrees with the closed-form
        /// `onsite_instances` across the realistic parameter space.
        #[test]
        fn ladder_matches_closed_form(
            rc in 0.5f64..0.99999,
            req in 0.5f64..0.999,
            vnf_idx in 0usize..10,
        ) {
            use crate::reliability::onsite_instances;
            let inst = instance_with(&[rc], VnfCatalog::standard());
            let vnf = inst.catalog().iter().nth(vnf_idx).unwrap();
            let req = Reliability::new(req).unwrap();
            let got = inst.onsite_instances_for(vnf.id(), CloudletId(0), req);
            let want = onsite_instances(
                vnf.reliability(),
                inst.network().cloudlet(CloudletId(0)).unwrap().reliability(),
                req,
            );
            proptest::prop_assert_eq!(got, want);
        }
    }
}
