use std::fmt;

use mec_topology::Reliability;

use crate::error::WorkloadError;

/// Identifier of a VNF type within a [`VnfCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VnfTypeId(pub usize);

impl VnfTypeId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VnfTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A virtualized network function type `f_i ∈ F`.
///
/// Each type has a compute demand `c(f_i)` in computing units (the same
/// units cloudlet capacities are measured in) and a software reliability
/// `r(f_i) ∈ (0, 1)` — the probability a single instance is operational.
#[derive(Debug, Clone, PartialEq)]
pub struct VnfType {
    id: VnfTypeId,
    name: String,
    compute: u64,
    reliability: Reliability,
}

impl VnfType {
    /// Creates a VNF type.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ZeroCompute`] if `compute == 0`.
    pub fn new(
        id: VnfTypeId,
        name: impl Into<String>,
        compute: u64,
        reliability: Reliability,
    ) -> Result<Self, WorkloadError> {
        if compute == 0 {
            return Err(WorkloadError::ZeroCompute);
        }
        Ok(VnfType {
            id,
            name: name.into(),
            compute,
            reliability,
        })
    }

    /// Dense identifier within the owning catalog.
    pub fn id(&self) -> VnfTypeId {
        self.id
    }

    /// Human-readable name, e.g. `"Firewall"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Compute demand `c(f_i)` of one instance, in computing units.
    pub fn compute(&self) -> u64 {
        self.compute
    }

    /// Software reliability `r(f_i)` of one instance.
    pub fn reliability(&self) -> Reliability {
        self.reliability
    }
}

impl fmt::Display for VnfType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} c={} r={}",
            self.id, self.name, self.compute, self.reliability
        )
    }
}

/// The set `F` of available VNF types.
///
/// # Example
///
/// ```
/// # use mec_workload::VnfCatalog;
/// let cat = VnfCatalog::standard();
/// assert_eq!(cat.len(), 10);
/// for v in cat.iter() {
///     assert!((1..=3).contains(&v.compute()));
///     let r = v.reliability().value();
///     assert!((0.9..=0.9999).contains(&r));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VnfCatalog {
    types: Vec<VnfType>,
}

impl VnfCatalog {
    /// Builds a catalog from `(name, compute, reliability)` triples.
    ///
    /// # Errors
    ///
    /// Returns the first construction error ([`WorkloadError::ZeroCompute`]
    /// or a reliability range error).
    pub fn from_specs<I, S>(specs: I) -> Result<Self, WorkloadError>
    where
        I: IntoIterator<Item = (S, u64, f64)>,
        S: Into<String>,
    {
        let mut types = Vec::new();
        for (i, (name, compute, rel)) in specs.into_iter().enumerate() {
            let reliability = Reliability::new(rel)?;
            types.push(VnfType::new(VnfTypeId(i), name, compute, reliability)?);
        }
        Ok(VnfCatalog { types })
    }

    /// The catalog used by the paper's evaluation: 10 VNF types with
    /// reliabilities between 0.9 and 0.9999 and compute demands of 1–3
    /// computing units (parameters follow Kong et al., GLOBECOM 2017).
    pub fn standard() -> Self {
        Self::from_specs([
            ("Firewall", 2u64, 0.995),
            ("NAT", 1, 0.99),
            ("IDS", 3, 0.9),
            ("LoadBalancer", 2, 0.9999),
            ("WanOptimizer", 3, 0.95),
            ("FlowMonitor", 1, 0.98),
            ("VPNGateway", 2, 0.97),
            ("DPI", 3, 0.92),
            ("ProxyCache", 1, 0.9995),
            ("TranscoderV", 2, 0.93),
        ])
        .expect("standard catalog parameters are valid")
    }

    /// Number of types `n = |F|`.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the catalog has no types.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Looks a type up by id.
    pub fn get(&self, id: VnfTypeId) -> Option<&VnfType> {
        self.types.get(id.index())
    }

    /// Looks a type up by id, as an indexing operation.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::UnknownVnfType`] for an out-of-range id.
    pub fn require(&self, id: VnfTypeId) -> Result<&VnfType, WorkloadError> {
        self.get(id)
            .ok_or(WorkloadError::UnknownVnfType(id.index()))
    }

    /// Iterates over all types in id order.
    pub fn iter(&self) -> impl Iterator<Item = &VnfType> + '_ {
        self.types.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_matches_paper_parameters() {
        let cat = VnfCatalog::standard();
        assert_eq!(cat.len(), 10);
        assert!(!cat.is_empty());
        for v in cat.iter() {
            assert!((1..=3).contains(&v.compute()));
            let r = v.reliability().value();
            assert!((0.9..=0.9999).contains(&r), "{} out of range", v.name());
        }
    }

    #[test]
    fn ids_are_dense() {
        let cat = VnfCatalog::standard();
        for (i, v) in cat.iter().enumerate() {
            assert_eq!(v.id(), VnfTypeId(i));
            assert_eq!(cat.get(v.id()).unwrap().name(), v.name());
        }
    }

    #[test]
    fn require_reports_unknown() {
        let cat = VnfCatalog::standard();
        assert!(cat.require(VnfTypeId(0)).is_ok());
        assert_eq!(
            cat.require(VnfTypeId(99)).unwrap_err(),
            WorkloadError::UnknownVnfType(99)
        );
    }

    #[test]
    fn rejects_zero_compute() {
        assert_eq!(
            VnfCatalog::from_specs([("x", 0u64, 0.9)]).unwrap_err(),
            WorkloadError::ZeroCompute
        );
    }

    #[test]
    fn rejects_bad_reliability() {
        assert!(matches!(
            VnfCatalog::from_specs([("x", 1u64, 1.0)]).unwrap_err(),
            WorkloadError::Reliability(_)
        ));
    }

    #[test]
    fn display_forms() {
        let cat = VnfCatalog::standard();
        let v = cat.get(VnfTypeId(0)).unwrap();
        assert!(v.to_string().contains("Firewall"));
        assert_eq!(VnfTypeId(3).to_string(), "f3");
    }
}
