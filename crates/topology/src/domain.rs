//! Shared-risk failure domains.
//!
//! The paper's availability model (Eqs. 3 and 10) assumes cloudlets fail
//! independently, but edge deployments fail in *correlated* groups: a
//! power zone, an aggregation switch, or a rack takes several cloudlets
//! down at once. A [`FailureDomain`] names such a shared-risk group — a
//! set of cloudlets that crash and repair *together* — with its own
//! MTTF/MTTR, so a fault injector can sample domain-level outages on top
//! of the independent per-cloudlet process.
//!
//! Domains can be given explicitly ([`FailureDomainSet::from_groups`]) or
//! derived from the graph itself: [`FailureDomainSet::zones`] partitions
//! cloudlets into hop-distance zones (shared power/aggregation risk of
//! physical proximity). Explicit groups may overlap — a cloudlet is down
//! while *any* of its domains is down.

use crate::error::TopologyError;
use crate::graph::Network;
use crate::ids::{CloudletId, NodeId};

/// A shared-risk group of cloudlets with a common outage process.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureDomain {
    members: Vec<CloudletId>,
    mttf: f64,
    mttr: f64,
    label: String,
}

impl FailureDomain {
    /// Builds a domain over `members` with the given mean time to failure
    /// and repair (both in slots).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EmptyDomain`] when `members` is empty,
    /// [`TopologyError::DuplicateDomainMember`] when a cloudlet appears
    /// twice in the *same* domain, and
    /// [`TopologyError::InvalidDomainRate`] when a mean time is not a
    /// finite number ≥ 1.
    pub fn new(
        members: Vec<CloudletId>,
        mttf: f64,
        mttr: f64,
        label: impl Into<String>,
    ) -> Result<Self, TopologyError> {
        if members.is_empty() {
            return Err(TopologyError::EmptyDomain);
        }
        let mut seen = vec![];
        for &c in &members {
            if seen.contains(&c) {
                return Err(TopologyError::DuplicateDomainMember(c));
            }
            seen.push(c);
        }
        for rate in [mttf, mttr] {
            if !rate.is_finite() || rate < 1.0 {
                return Err(TopologyError::InvalidDomainRate(rate));
            }
        }
        Ok(FailureDomain {
            members,
            mttf,
            mttr,
            label: label.into(),
        })
    }

    /// Member cloudlets, in the order given at construction.
    pub fn members(&self) -> &[CloudletId] {
        &self.members
    }

    /// Mean time to failure of the whole domain, in slots.
    pub fn mttf(&self) -> f64 {
        self.mttf
    }

    /// Mean time to repair of the whole domain, in slots.
    pub fn mttr(&self) -> f64 {
        self.mttr
    }

    /// Human-readable label (e.g. `"zone-2"` or `"cut@ap7"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether `cloudlet` belongs to this domain.
    pub fn contains(&self, cloudlet: CloudletId) -> bool {
        self.members.contains(&cloudlet)
    }
}

/// An ordered collection of failure domains over one network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailureDomainSet {
    domains: Vec<FailureDomain>,
}

impl FailureDomainSet {
    /// A set with no domains — correlated outages disabled.
    pub fn empty() -> Self {
        FailureDomainSet::default()
    }

    /// Builds a set from explicit member lists, all sharing one MTTF/MTTR.
    ///
    /// Groups may overlap (a cloudlet in two groups is down while either
    /// is); a cloudlet repeated inside *one* group is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownCloudlet`] for a member index
    /// outside the network, plus the [`FailureDomain::new`] errors.
    pub fn from_groups(
        network: &Network,
        groups: &[Vec<CloudletId>],
        mttf: f64,
        mttr: f64,
    ) -> Result<Self, TopologyError> {
        let m = network.cloudlet_count();
        let mut domains = Vec::with_capacity(groups.len());
        for (d, group) in groups.iter().enumerate() {
            for &c in group {
                if c.index() >= m {
                    return Err(TopologyError::UnknownCloudlet(c));
                }
            }
            domains.push(FailureDomain::new(
                group.clone(),
                mttf,
                mttr,
                format!("group-{d}"),
            )?);
        }
        Ok(FailureDomainSet { domains })
    }

    /// Partitions the cloudlets into `zones` hop-distance zones.
    ///
    /// Seeds are chosen by the farthest-point heuristic (first the
    /// lowest-id cloudlet, then repeatedly the cloudlet maximizing its
    /// hop distance to all chosen seeds, ties to the lowest id); every
    /// cloudlet joins the zone of its nearest seed. `zones` is clamped to
    /// `[1, cloudlet_count]`. The construction is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EmptyDomain`] when the network has no
    /// cloudlets or `zones == 0`, and [`TopologyError::InvalidDomainRate`]
    /// for a mean time that is not finite and ≥ 1.
    pub fn zones(
        network: &Network,
        zones: usize,
        mttf: f64,
        mttr: f64,
    ) -> Result<Self, TopologyError> {
        if zones == 0 || network.cloudlet_count() == 0 {
            return Err(TopologyError::EmptyDomain);
        }
        let sites: Vec<(CloudletId, NodeId)> =
            network.cloudlets().map(|c| (c.id(), c.node())).collect();
        let zones = zones.min(sites.len());
        // Hop distances from every cloudlet's AP to every node.
        let dist: Vec<Vec<usize>> = sites
            .iter()
            .map(|&(_, node)| network.hop_distances(node))
            .collect();
        // Farthest-point seeding over cloudlet indices.
        let mut seeds: Vec<usize> = vec![0];
        while seeds.len() < zones {
            let next = (0..sites.len())
                .filter(|i| !seeds.contains(i))
                .max_by_key(|&i| {
                    let d = seeds
                        .iter()
                        .map(|&s| dist[s][sites[i].1.index()])
                        .min()
                        .unwrap_or(0);
                    // Prefer the farthest cloudlet; break ties toward the
                    // lowest id by keying on (distance, reversed index).
                    (d, usize::MAX - i)
                })
                .expect("fewer seeds than cloudlets");
            seeds.push(next);
        }
        let mut members: Vec<Vec<CloudletId>> = vec![Vec::new(); zones];
        for (i, &(id, node)) in sites.iter().enumerate() {
            let zone = seeds
                .iter()
                .enumerate()
                .min_by_key(|&(_, &s)| {
                    if s == i {
                        (0, 0)
                    } else {
                        (dist[s][node.index()], s)
                    }
                })
                .map(|(z, _)| z)
                .expect("at least one seed");
            members[zone].push(id);
        }
        let mut domains = Vec::new();
        for (z, group) in members.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            domains.push(FailureDomain::new(group, mttf, mttr, format!("zone-{z}"))?);
        }
        Ok(FailureDomainSet { domains })
    }

    /// The domains, in id order.
    pub fn domains(&self) -> &[FailureDomain] {
        &self.domains
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the set has no domains.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Indices of the domains containing `cloudlet`.
    pub fn domains_of(&self, cloudlet: CloudletId) -> Vec<usize> {
        self.domains
            .iter()
            .enumerate()
            .filter(|(_, d)| d.contains(cloudlet))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::reliability::Reliability;

    /// A chain ap0–ap1–…–ap{n−1}, cloudlet on every AP.
    fn chain(n: usize) -> Network {
        let mut b = NetworkBuilder::new();
        let mut prev = None;
        for i in 0..n {
            let ap = b.add_ap(format!("ap{i}"));
            if let Some(p) = prev {
                b.add_link(p, ap, 1.0).unwrap();
            }
            prev = Some(ap);
            b.add_cloudlet(ap, 10, Reliability::new(0.99).unwrap())
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn explicit_groups_validate_members() {
        let net = chain(4);
        let ok = FailureDomainSet::from_groups(
            &net,
            &[vec![CloudletId(0), CloudletId(1)], vec![CloudletId(3)]],
            20.0,
            3.0,
        )
        .unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.domains()[0].members().len(), 2);
        assert!(ok.domains()[0].contains(CloudletId(1)));
        assert_eq!(ok.domains_of(CloudletId(3)), vec![1]);
        assert!(ok.domains_of(CloudletId(2)).is_empty());

        let unknown =
            FailureDomainSet::from_groups(&net, &[vec![CloudletId(9)]], 20.0, 3.0).unwrap_err();
        assert_eq!(unknown, TopologyError::UnknownCloudlet(CloudletId(9)));
        let dup =
            FailureDomainSet::from_groups(&net, &[vec![CloudletId(0), CloudletId(0)]], 20.0, 3.0)
                .unwrap_err();
        assert_eq!(dup, TopologyError::DuplicateDomainMember(CloudletId(0)));
        assert!(FailureDomainSet::from_groups(&net, &[vec![]], 20.0, 3.0).is_err());
    }

    #[test]
    fn domain_rates_validated() {
        for (mttf, mttr) in [
            (0.5, 3.0),
            (20.0, 0.0),
            (f64::NAN, 3.0),
            (20.0, f64::INFINITY),
        ] {
            let e = FailureDomain::new(vec![CloudletId(0)], mttf, mttr, "x").unwrap_err();
            assert!(matches!(e, TopologyError::InvalidDomainRate(_)));
        }
        let d = FailureDomain::new(vec![CloudletId(0)], 1.0, 1.0, "x").unwrap();
        assert!((d.mttf() - 1.0).abs() < 1e-12);
        assert!((d.mttr() - 1.0).abs() < 1e-12);
        assert_eq!(d.label(), "x");
    }

    #[test]
    fn zones_partition_all_cloudlets() {
        let net = chain(6);
        let set = FailureDomainSet::zones(&net, 3, 25.0, 4.0).unwrap();
        assert!(!set.is_empty() && set.len() <= 3);
        let mut covered: Vec<usize> = set
            .domains()
            .iter()
            .flat_map(|d| d.members().iter().map(|c| c.index()))
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, vec![0, 1, 2, 3, 4, 5], "zones must partition");
        // Zones of a chain are contiguous runs.
        for d in set.domains() {
            let idx: Vec<usize> = d.members().iter().map(|c| c.index()).collect();
            for w in idx.windows(2) {
                assert_eq!(w[1], w[0] + 1, "zone not contiguous on a chain: {idx:?}");
            }
        }
        // Deterministic: same inputs, same partition.
        let again = FailureDomainSet::zones(&net, 3, 25.0, 4.0).unwrap();
        assert_eq!(set, again);
        // Degenerate parameters.
        assert!(FailureDomainSet::zones(&net, 0, 25.0, 4.0).is_err());
        let one = FailureDomainSet::zones(&net, 1, 25.0, 4.0).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one.domains()[0].members().len(), 6);
        let many = FailureDomainSet::zones(&net, 99, 25.0, 4.0).unwrap();
        assert_eq!(many.len(), 6);
    }

    #[test]
    fn overlapping_groups_are_allowed_across_domains() {
        let net = chain(3);
        let set = FailureDomainSet::from_groups(
            &net,
            &[
                vec![CloudletId(0), CloudletId(1)],
                vec![CloudletId(1), CloudletId(2)],
            ],
            15.0,
            2.0,
        )
        .unwrap();
        assert_eq!(set.domains_of(CloudletId(1)), vec![0, 1]);
    }
}
