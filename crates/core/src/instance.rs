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
/// * an *availability table* per VNF type: the on-site availability
///   `A(n) = r(c_j)·(1 − (1 − r(f_v))^n)` (Eq. 2) for `n = 1, 2, …` until
///   the residual failure mass `(1 − r_f)^n` drops below f64 resolution.
///   That length depends on `r(f_v)` alone, so the table is rung-major
///   without padding: row `k` holds `A(k + 1)` of every cloudlet. `N_ij`
///   for a concrete requirement, for all cloudlets at once, is the count
///   of rungs below it — the minimal replica count of Eq. 3 without any
///   logarithms.
#[derive(Debug, Clone)]
struct ReliabilityTables {
    cloudlets: usize,
    /// `r(c_j)` per cloudlet, dense by id.
    cloudlet_rel: Vec<f64>,
    /// `ln(1 − r_f·r_c)` per `(vnf · m + cloudlet)`; always negative.
    ln_coef: Vec<f64>,
    /// Offsets into `rungs`: VNF `v`'s table spans
    /// `rungs[rung_off[v] .. rung_off[v + 1]]`, a whole number of rows.
    rung_off: Vec<u32>,
    /// Concatenated availability tables; entry `k·m + j` of VNF `v`'s
    /// span is `A(k + 1)` at cloudlet `j`.
    rungs: Vec<f64>,
}

/// Hard cap on table length; requirements between the last rung and
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
        let mut rung_off = Vec::with_capacity(n_types + 1);
        let mut rungs = Vec::new();
        rung_off.push(0u32);
        for vnf in catalog.iter() {
            let rf = vnf.reliability();
            for cloudlet in network.cloudlets() {
                ln_coef.push(offsite_ln_coefficient(rf, cloudlet.reliability()));
            }
            let mut n = 1u32;
            loop {
                for cloudlet in network.cloudlets() {
                    // Same powi-based arithmetic as `onsite_availability`
                    // so rungs are bit-identical to the values the
                    // closed form compares against.
                    rungs.push(onsite_availability(rf, cloudlet.reliability(), n));
                }
                if rf.failure().powi(n as i32) < 1e-18 || n >= MAX_LADDER {
                    break;
                }
                n += 1;
            }
            rung_off.push(rungs.len() as u32);
        }
        ReliabilityTables {
            cloudlets: m,
            cloudlet_rel,
            ln_coef,
            rung_off,
            rungs,
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

    /// Minimum on-site replica counts `N_ij` (Eq. 3) of every cloudlet
    /// for VNF type `vnf` under requirement `req`, written to
    /// `out[j]`: 0 when `r(c_j) ≤ R_i` (no count suffices), otherwise the
    /// index of the first rung meeting the requirement. It reads the
    /// type's table one row (one rung of every cloudlet) at a time,
    /// counting the rungs below `R_i`, and stops at the first row with
    /// none below; rungs only rise, so that count is the minimum.
    /// Agrees with [`onsite_instances`](crate::reliability::onsite_instances)
    /// but does no logarithm work.
    ///
    /// # Panics
    ///
    /// Panics if `vnf` is not in the catalog or `out` is shorter than the
    /// cloudlet count.
    #[inline]
    pub(crate) fn onsite_instances_row(&self, vnf: VnfTypeId, req: Reliability, out: &mut [u32]) {
        let t = &self.tables;
        let r = req.value();
        let out = &mut out[..t.cloudlets];
        for (n, &rc) in out.iter_mut().zip(&t.cloudlet_rel) {
            *n = u32::from(rc > r);
        }
        let v = vnf.index();
        let table = &t.rungs[t.rung_off[v] as usize..t.rung_off[v + 1] as usize];
        let mut rows = 0u32;
        for row in table.chunks_exact(t.cloudlets) {
            rows += 1;
            let mut below = false;
            for (n, &a) in out.iter_mut().zip(row) {
                let step = (*n != 0) & (a < r);
                *n += u32::from(step);
                below |= step;
            }
            if !below {
                return;
            }
        }
        // Some requirement sits between the last tabulated rung and
        // r(c_j) (possible only for very failure-prone VNF types whose
        // table hit MAX_LADDER): use the closed form there.
        let vnf_rel = self.catalog.get(vnf).expect("vnf in catalog").reliability();
        for (n, cloudlet) in out.iter_mut().zip(self.network.cloudlets()) {
            if *n > rows {
                *n = onsite_instances(vnf_rel, cloudlet.reliability(), req)
                    .expect("eligible cloudlet");
            }
        }
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

    /// `N_ij` of every cloudlet by the definition, 0 for ineligible.
    fn by_search(inst: &ProblemInstance, vnf: VnfTypeId, req: Reliability) -> Vec<u32> {
        use crate::reliability::onsite_instances_by_search;
        let rf = inst.catalog().get(vnf).unwrap().reliability();
        inst.network()
            .cloudlets()
            .map(|c| onsite_instances_by_search(rf, c.reliability(), req).unwrap_or(0))
            .collect()
    }

    /// Every rung of every cloudlet exactly, one ulp either side of it,
    /// and every `r(c_j)`: the requirements at which a lookup can be off
    /// by one.
    fn edge_requirements(inst: &ProblemInstance, vnf: VnfTypeId, rungs: u32) -> Vec<f64> {
        let rf = inst.catalog().get(vnf).unwrap().reliability();
        let mut reqs = Vec::new();
        for c in inst.network().cloudlets() {
            reqs.push(c.reliability().value());
            for n in 1..=rungs {
                let a = onsite_availability(rf, c.reliability(), n);
                reqs.extend([a.next_down(), a, a.next_up()]);
            }
        }
        reqs.retain(|&r| Reliability::new(r).is_ok());
        reqs
    }

    /// The row lookup against the definition of `N_ij` and the closed
    /// form, and the off-site coefficients against theirs.
    #[test]
    fn tables_match_closed_forms_on_standard_catalog() {
        use crate::reliability::onsite_instances;
        // Eligible and ineligible cloudlets side by side, needing
        // different counts: a requirement between two r(c_j) leaves some
        // cloudlets at 0 and others at several instances.
        let rels = [0.95, 0.999, 0.93, 0.99, 0.9999, 0.97, 0.999];
        let inst = instance_with(&rels, VnfCatalog::standard());
        let mut row = vec![u32::MAX; rels.len()];
        let mut mixed = 0;
        for vnf in inst.catalog().iter() {
            for c in inst.network().cloudlets() {
                assert_eq!(
                    inst.offsite_ln_coef(vnf.id(), c.id()),
                    offsite_ln_coefficient(vnf.reliability(), c.reliability()),
                    "ln_coef table must be bit-identical"
                );
            }
            let mut reqs = edge_requirements(&inst, vnf.id(), 12);
            reqs.extend([0.5, 0.9, 0.93, 0.95, 0.97, 0.99, 0.995, 0.9989, 0.99989]);
            for r in reqs {
                let req = Reliability::new(r).unwrap();
                inst.onsite_instances_row(vnf.id(), req, &mut row);
                let want = by_search(&inst, vnf.id(), req);
                assert_eq!(row, want, "vnf {:?}, req {r:e}", vnf.id());
                let closed: Vec<u32> = inst
                    .network()
                    .cloudlets()
                    .map(|c| onsite_instances(vnf.reliability(), c.reliability(), req).unwrap_or(0))
                    .collect();
                assert_eq!(row, closed, "closed form, vnf {:?}, req {r:e}", vnf.id());
                let eligible = want.iter().filter(|&&n| n > 0).count();
                let counts: std::collections::BTreeSet<u32> =
                    want.iter().copied().filter(|&n| n > 0).collect();
                mixed += usize::from(0 < eligible && eligible < rels.len() && counts.len() > 1);
            }
        }
        assert!(
            mixed > 100,
            "{mixed} requirements mixing counts and ineligible cloudlets"
        );
    }

    #[test]
    fn ladder_fallback_handles_failure_prone_vnfs() {
        // A VNF with r_f = 0.3 needs a long table: (1 − 0.3)^64 ≈ 1e-10
        // is still above the 1e-18 cutoff, so MAX_LADDER truncates it and
        // requirements beyond the last rung take the closed form.
        let catalog = VnfCatalog::from_specs(vec![("Flaky", 1u64, 0.3f64)]).unwrap();
        let rels = [0.999999, 0.99, 0.9999999, 0.5];
        let inst = instance_with(&rels, catalog);
        let vnf = VnfTypeId(0);
        let mut row = vec![u32::MAX; rels.len()];
        let mut reqs = edge_requirements(&inst, vnf, MAX_LADDER + 8);
        reqs.extend([0.3, 0.5, 0.9, 0.99, 0.9999, 0.99999, 0.999998]);
        let mut past_table = 0;
        for r in reqs {
            let req = Reliability::new(r).unwrap();
            inst.onsite_instances_row(vnf, req, &mut row);
            let want = by_search(&inst, vnf, req);
            assert_eq!(row, want, "req {r:e}");
            past_table += usize::from(want.iter().any(|&n| n > MAX_LADDER));
        }
        assert!(past_table > 10, "{past_table} requirements past the table");
    }

    proptest::proptest! {
        /// The row lookup agrees with the definition and with the closed
        /// form across the realistic parameter space.
        #[test]
        fn ladder_matches_closed_form(
            rc0 in 0.5f64..0.99999,
            rc1 in 0.5f64..0.99999,
            rc2 in 0.5f64..0.99999,
            cloudlets in 1usize..4,
            req in 0.5f64..0.999,
            vnf_idx in 0usize..10,
        ) {
            use crate::reliability::onsite_instances;
            let rels = &[rc0, rc1, rc2][..cloudlets];
            let inst = instance_with(rels, VnfCatalog::standard());
            let vnf = inst.catalog().iter().nth(vnf_idx).unwrap();
            let req = Reliability::new(req).unwrap();
            let mut row = vec![u32::MAX; rels.len()];
            inst.onsite_instances_row(vnf.id(), req, &mut row);
            proptest::prop_assert_eq!(&row, &by_search(&inst, vnf.id(), req));
            let closed: Vec<u32> = inst
                .network()
                .cloudlets()
                .map(|c| onsite_instances(vnf.reliability(), c.reliability(), req).unwrap_or(0))
                .collect();
            proptest::prop_assert_eq!(row, closed);
        }
    }
}
