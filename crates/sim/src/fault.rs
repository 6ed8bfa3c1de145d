//! Dynamic fault injection: a seeded, schedule-independent stream of
//! per-slot outage events.
//!
//! Unlike [`crate::failure`], which samples *static* up/down states to
//! validate admission-time guarantees, this module generates failures
//! that unfold *during* a run, forcing the driver to react: cloudlets
//! crash and are repaired following a discrete-time MTTF/MTTR Markov
//! chain, and individual VNF instances die at a per-slot hazard rate.
//!
//! The stream is generated from the topology and a seed only — it never
//! looks at a schedule — so the *same* events can be replayed against
//! different schedulers, schemes, and recovery policies, which is what
//! makes policy comparisons on "the same outage trace" meaningful.

use mec_topology::{FailureDomainSet, Network};
use mec_workload::{Horizon, TimeSlot};
use rand::Rng;

use crate::SimError;

/// Parameters of the cascade overlay: when a failure domain dies, each
/// surviving cloudlet whose post-outage utilization exceeds
/// `utilization_threshold` suffers a secondary ("cascading") outage with
/// probability `hazard`, lasting `outage_slots` slots.
///
/// The uniform draws deciding whether a cascade fires are sampled at
/// generation time — one per `(slot, cloudlet)`, schedule-independent —
/// so replays against different schedulers compare identical randomness;
/// only *whether* a draw fires depends on the replayed utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeConfig {
    /// Utilization fraction above which a surviving cloudlet is at risk.
    pub utilization_threshold: f64,
    /// Per-trigger probability that an at-risk cloudlet cascades.
    pub hazard: f64,
    /// Slots a cascading outage lasts before the cloudlet returns.
    pub outage_slots: usize,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            utilization_threshold: 0.85,
            hazard: 0.3,
            outage_slots: 2,
        }
    }
}

impl CascadeConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Mismatch`] when the threshold or hazard leaves
    /// `[0, 1]` or the outage duration is zero.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.utilization_threshold.is_finite()
            || !(0.0..=1.0).contains(&self.utilization_threshold)
        {
            return Err(SimError::Mismatch(
                "cascade utilization threshold must be in [0, 1]",
            ));
        }
        if !self.hazard.is_finite() || !(0.0..=1.0).contains(&self.hazard) {
            return Err(SimError::Mismatch("cascade hazard must be in [0, 1]"));
        }
        if self.outage_slots == 0 {
            return Err(SimError::Mismatch(
                "cascade outage must last at least one slot",
            ));
        }
        Ok(())
    }
}

/// A domain-level outage transition, pinned to a slot.
///
/// Domain events are carried *alongside* the per-cloudlet
/// [`FailureEvent`] stream: when a domain crashes, the process also
/// emits net [`FailureEvent::CloudletDown`] transitions for every member
/// that was up, so replay drivers that only understand cloudlet events
/// stay correct; the domain markers add the grouping for tracing and
/// degraded-mode tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainEvent {
    /// The whole domain crashes: every member cloudlet goes down
    /// atomically in this slot.
    Down {
        /// The slot the outage takes effect.
        slot: TimeSlot,
        /// Index of the domain (into the generating
        /// [`FailureDomainSet`]).
        domain: usize,
    },
    /// The domain finishes repair; members come back unless still held
    /// down by the independent process or another domain.
    Up {
        /// The slot the repair completes.
        slot: TimeSlot,
        /// Index of the repaired domain.
        domain: usize,
    },
}

impl DomainEvent {
    /// The slot this event takes effect.
    pub fn slot(&self) -> TimeSlot {
        match *self {
            DomainEvent::Down { slot, .. } | DomainEvent::Up { slot, .. } => slot,
        }
    }

    /// The domain this event touches.
    pub fn domain(&self) -> usize {
        match *self {
            DomainEvent::Down { domain, .. } | DomainEvent::Up { domain, .. } => domain,
        }
    }
}

/// Parameters of the failure process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureConfig {
    /// Mean time to failure of a cloudlet, in slots. Each up cloudlet
    /// crashes in a slot with probability `1/cloudlet_mttf`.
    pub cloudlet_mttf: f64,
    /// Mean time to repair, in slots. Each down cloudlet comes back in a
    /// slot with probability `1/cloudlet_mttr`.
    pub cloudlet_mttr: f64,
    /// Per-slot probability that some single VNF instance on an up
    /// cloudlet dies (software crash, not a cloudlet outage).
    pub instance_kill_rate: f64,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig {
            cloudlet_mttf: 50.0,
            cloudlet_mttr: 3.0,
            instance_kill_rate: 0.05,
        }
    }
}

impl FailureConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Mismatch`] when a mean time is below one slot
    /// or the kill rate is outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.cloudlet_mttf.is_finite() || self.cloudlet_mttf < 1.0 {
            return Err(SimError::Mismatch("cloudlet MTTF must be ≥ 1 slot"));
        }
        if !self.cloudlet_mttr.is_finite() || self.cloudlet_mttr < 1.0 {
            return Err(SimError::Mismatch("cloudlet MTTR must be ≥ 1 slot"));
        }
        if !self.instance_kill_rate.is_finite() || !(0.0..=1.0).contains(&self.instance_kill_rate) {
            return Err(SimError::Mismatch("instance kill rate must be in [0, 1]"));
        }
        Ok(())
    }

    fn p_fail(&self) -> f64 {
        (1.0 / self.cloudlet_mttf).clamp(0.0, 1.0)
    }

    fn p_repair(&self) -> f64 {
        (1.0 / self.cloudlet_mttr).clamp(0.0, 1.0)
    }
}

/// One outage event, pinned to a slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureEvent {
    /// A cloudlet crashes: every VNF instance hosted there dies and its
    /// remaining capacity commitments are void.
    CloudletDown {
        /// The slot the crash takes effect.
        slot: TimeSlot,
        /// Index of the crashed cloudlet.
        cloudlet: usize,
    },
    /// A crashed cloudlet finishes repair and accepts placements again
    /// (instances killed by the crash do **not** come back).
    CloudletUp {
        /// The slot the repair completes.
        slot: TimeSlot,
        /// Index of the repaired cloudlet.
        cloudlet: usize,
    },
    /// A single VNF instance on an (up) cloudlet dies.
    ///
    /// The event is generated without looking at any schedule, so it
    /// cannot name a victim instance directly; instead it carries a
    /// uniform `selector` that the driver resolves against the instances
    /// actually hosted there at application time (`selector % live`).
    /// Replays with different schedules stay comparable: same slots, same
    /// cloudlets, same selectors.
    InstanceKill {
        /// The slot the instance dies.
        slot: TimeSlot,
        /// Index of the hosting cloudlet.
        cloudlet: usize,
        /// Uniform draw resolved against live instances at apply time.
        selector: u64,
    },
}

impl FailureEvent {
    /// The slot this event takes effect.
    pub fn slot(&self) -> TimeSlot {
        match *self {
            FailureEvent::CloudletDown { slot, .. }
            | FailureEvent::CloudletUp { slot, .. }
            | FailureEvent::InstanceKill { slot, .. } => slot,
        }
    }

    /// The cloudlet this event touches.
    pub fn cloudlet(&self) -> usize {
        match *self {
            FailureEvent::CloudletDown { cloudlet, .. }
            | FailureEvent::CloudletUp { cloudlet, .. }
            | FailureEvent::InstanceKill { cloudlet, .. } => cloudlet,
        }
    }
}

/// A fully materialized, deterministic event stream over a horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureProcess {
    by_slot: Vec<Vec<FailureEvent>>,
    config: FailureConfig,
    /// Domain-level transitions per slot; empty when the stream was
    /// generated without domains.
    domains_by_slot: Vec<Vec<DomainEvent>>,
    /// Member cloudlet indices per domain id.
    domain_members: Vec<Vec<usize>>,
    /// Cascade overlay parameters, when enabled.
    cascade: Option<CascadeConfig>,
    /// Pre-drawn cascade uniforms, row-major `slot * m + cloudlet`;
    /// empty when cascades are disabled.
    cascade_draws: Vec<f64>,
    /// Cloudlet count the cascade draws were generated for.
    cascade_width: usize,
}

impl FailureProcess {
    /// Samples the event stream for `network` over `horizon`.
    ///
    /// All cloudlets start up. Per slot, in cloudlet-id order: an up
    /// cloudlet crashes with probability `1/MTTF`; a down cloudlet is
    /// repaired with probability `1/MTTR`; a cloudlet that is up after
    /// its transition additionally draws an instance kill with
    /// probability `instance_kill_rate`. The draw order is fixed, so a
    /// given `(network, config, rng seed)` always yields the identical
    /// stream — independent of any schedule it is later applied to.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Mismatch`] for invalid config parameters.
    pub fn generate<R: Rng + ?Sized>(
        network: &Network,
        config: &FailureConfig,
        horizon: Horizon,
        rng: &mut R,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let m = network.cloudlets().count();
        let p_fail = config.p_fail();
        let p_repair = config.p_repair();
        let mut up = vec![true; m];
        let mut by_slot: Vec<Vec<FailureEvent>> = vec![Vec::new(); horizon.len()];
        for (t, events) in by_slot.iter_mut().enumerate() {
            for (j, state) in up.iter_mut().enumerate() {
                if *state {
                    if rng.gen_bool(p_fail) {
                        *state = false;
                        events.push(FailureEvent::CloudletDown {
                            slot: t,
                            cloudlet: j,
                        });
                    }
                } else if rng.gen_bool(p_repair) {
                    *state = true;
                    events.push(FailureEvent::CloudletUp {
                        slot: t,
                        cloudlet: j,
                    });
                }
                if *state && rng.gen_bool(config.instance_kill_rate) {
                    events.push(FailureEvent::InstanceKill {
                        slot: t,
                        cloudlet: j,
                        selector: rng.gen::<u64>(),
                    });
                }
            }
        }
        Ok(FailureProcess {
            by_slot,
            config: *config,
            domains_by_slot: vec![Vec::new(); horizon.len()],
            ..Self::empty()
        })
    }

    /// Samples a stream with *correlated* domain outages (and optionally
    /// a cascade overlay) on top of the independent per-cloudlet process.
    ///
    /// The draw order per slot is fixed: first every cloudlet in id
    /// order (state transition, then kill draw — identical to
    /// [`FailureProcess::generate`]), then every domain in id order (an
    /// up domain crashes with probability `1/mttf(d)`, a down one
    /// repairs with probability `1/mttr(d)`), then — when `cascade` is
    /// set — one uniform per cloudlet in id order, stored for the replay
    /// driver. A cloudlet is *effectively* down while its independent
    /// state is down **or** any containing domain is down; the emitted
    /// [`FailureEvent::CloudletDown`]/[`FailureEvent::CloudletUp`] events
    /// are the net effective transitions, so per-cloudlet replay drivers
    /// need no domain awareness. Instance kills are suppressed on
    /// effectively-down cloudlets.
    ///
    /// Like [`FailureProcess::generate`], the stream depends only on
    /// `(network, configs, domains, seed)` — never on a schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Mismatch`] for invalid config parameters or a
    /// domain member outside the network.
    pub fn generate_with_domains<R: Rng + ?Sized>(
        network: &Network,
        config: &FailureConfig,
        domains: &FailureDomainSet,
        cascade: Option<CascadeConfig>,
        horizon: Horizon,
        rng: &mut R,
    ) -> Result<Self, SimError> {
        config.validate()?;
        if let Some(c) = &cascade {
            c.validate()?;
        }
        let m = network.cloudlets().count();
        let domain_members: Vec<Vec<usize>> = domains
            .domains()
            .iter()
            .map(|d| d.members().iter().map(|c| c.index()).collect())
            .collect();
        if domain_members.iter().flatten().any(|&j| j >= m) {
            return Err(SimError::Mismatch(
                "failure domain references unknown cloudlet",
            ));
        }
        let p_fail = config.p_fail();
        let p_repair = config.p_repair();
        let mut ind_up = vec![true; m];
        let mut dom_up = vec![true; domain_members.len()];
        let mut eff_up = vec![true; m];
        let mut by_slot: Vec<Vec<FailureEvent>> = vec![Vec::new(); horizon.len()];
        let mut domains_by_slot: Vec<Vec<DomainEvent>> = vec![Vec::new(); horizon.len()];
        let mut cascade_draws: Vec<f64> = Vec::new();
        for t in 0..horizon.len() {
            // 1. Independent per-cloudlet transitions + kill draws, in
            //    the exact order of `generate`. Kills are buffered until
            //    effective states are known.
            let mut kills: Vec<(usize, u64)> = Vec::new();
            for (j, state) in ind_up.iter_mut().enumerate() {
                if *state {
                    if rng.gen_bool(p_fail) {
                        *state = false;
                    }
                } else if rng.gen_bool(p_repair) {
                    *state = true;
                }
                if *state && rng.gen_bool(config.instance_kill_rate) {
                    kills.push((j, rng.gen::<u64>()));
                }
            }
            // 2. Domain transitions, in domain-id order.
            for (d, state) in dom_up.iter_mut().enumerate() {
                let dom = &domains.domains()[d];
                if *state {
                    if rng.gen_bool((1.0 / dom.mttf()).clamp(0.0, 1.0)) {
                        *state = false;
                        domains_by_slot[t].push(DomainEvent::Down { slot: t, domain: d });
                    }
                } else if rng.gen_bool((1.0 / dom.mttr()).clamp(0.0, 1.0)) {
                    *state = true;
                    domains_by_slot[t].push(DomainEvent::Up { slot: t, domain: d });
                }
            }
            // 3. Cascade uniforms — always one per cloudlet so the draw
            //    count never depends on what happened above.
            if cascade.is_some() {
                for _ in 0..m {
                    cascade_draws.push(rng.gen::<f64>());
                }
            }
            // 4. Emit net effective transitions, then surviving kills.
            for j in 0..m {
                let held_down = domain_members
                    .iter()
                    .zip(&dom_up)
                    .any(|(members, &up)| !up && members.contains(&j));
                let now_up = ind_up[j] && !held_down;
                if now_up != eff_up[j] {
                    by_slot[t].push(if now_up {
                        FailureEvent::CloudletUp {
                            slot: t,
                            cloudlet: j,
                        }
                    } else {
                        FailureEvent::CloudletDown {
                            slot: t,
                            cloudlet: j,
                        }
                    });
                    eff_up[j] = now_up;
                }
            }
            for (j, selector) in kills {
                if eff_up[j] {
                    by_slot[t].push(FailureEvent::InstanceKill {
                        slot: t,
                        cloudlet: j,
                        selector,
                    });
                }
            }
        }
        Ok(FailureProcess {
            by_slot,
            config: *config,
            domains_by_slot,
            domain_members,
            cascade,
            cascade_draws,
            cascade_width: if cascade.is_some() { m } else { 0 },
        })
    }

    /// Builds a process from an explicit event list — a recorded trace
    /// or a handcrafted scenario. Events are bucketed by slot; relative
    /// order within a slot is preserved.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Mismatch`] for invalid config parameters or
    /// an event pinned past the horizon.
    pub fn from_events<I>(
        horizon: Horizon,
        events: I,
        config: FailureConfig,
    ) -> Result<Self, SimError>
    where
        I: IntoIterator<Item = FailureEvent>,
    {
        config.validate()?;
        let mut by_slot: Vec<Vec<FailureEvent>> = vec![Vec::new(); horizon.len()];
        for e in events {
            let Some(bucket) = by_slot.get_mut(e.slot()) else {
                return Err(SimError::Mismatch("failure event pinned past the horizon"));
            };
            bucket.push(e);
        }
        let slots = by_slot.len();
        Ok(FailureProcess {
            by_slot,
            config,
            domains_by_slot: vec![Vec::new(); slots],
            ..Self::empty()
        })
    }

    /// The trace of a run without faults: every slot reads back empty,
    /// and nothing is allocated. The other constructors start from it.
    pub(crate) fn empty() -> Self {
        FailureProcess {
            by_slot: Vec::new(),
            config: FailureConfig::default(),
            domains_by_slot: Vec::new(),
            domain_members: Vec::new(),
            cascade: None,
            cascade_draws: Vec::new(),
            cascade_width: 0,
        }
    }

    /// Adds handcrafted domain-level events (and the member lists they
    /// refer to) to a process built with
    /// [`FailureProcess::from_events`] — for scenario tests that need
    /// domain markers without sampling. Matching net cloudlet events are
    /// **not** synthesized; the caller supplies those explicitly.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Mismatch`] for an event pinned past the
    /// horizon or referencing a domain outside `members`.
    pub fn with_domain_events<I>(
        mut self,
        members: Vec<Vec<usize>>,
        events: I,
    ) -> Result<Self, SimError>
    where
        I: IntoIterator<Item = DomainEvent>,
    {
        for e in events {
            if e.domain() >= members.len() {
                return Err(SimError::Mismatch("domain event references unknown domain"));
            }
            let Some(bucket) = self.domains_by_slot.get_mut(e.slot()) else {
                return Err(SimError::Mismatch("domain event pinned past the horizon"));
            };
            bucket.push(e);
        }
        self.domain_members = members;
        Ok(self)
    }

    /// Attaches a cascade overlay with handcrafted uniforms to a process
    /// built with [`FailureProcess::from_events`] — for scenario tests
    /// that need deterministic secondary failures. `draws` is row-major
    /// `slot * width + cloudlet`; coordinates past the supplied vector
    /// read back as `1.0` (never below any hazard).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Mismatch`] for invalid cascade parameters or
    /// a zero `width`.
    pub fn with_cascade(
        mut self,
        cascade: CascadeConfig,
        width: usize,
        draws: Vec<f64>,
    ) -> Result<Self, SimError> {
        cascade.validate()?;
        if width == 0 {
            return Err(SimError::Mismatch("cascade width must be positive"));
        }
        self.cascade = Some(cascade);
        self.cascade_width = width;
        self.cascade_draws = draws;
        Ok(self)
    }

    /// Events taking effect in `slot` (empty past the horizon).
    pub fn events_at(&self, slot: TimeSlot) -> &[FailureEvent] {
        self.by_slot.get(slot).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of slots covered.
    pub fn horizon_len(&self) -> usize {
        self.by_slot.len()
    }

    /// Total number of events over the horizon.
    pub fn total_events(&self) -> usize {
        self.by_slot.iter().map(Vec::len).sum()
    }

    /// The config the stream was generated from.
    pub fn config(&self) -> &FailureConfig {
        &self.config
    }

    /// All events in slot order, flattened — handy for digests in
    /// determinism tests.
    pub fn iter(&self) -> impl Iterator<Item = &FailureEvent> + '_ {
        self.by_slot.iter().flatten()
    }

    /// Domain-level transitions taking effect in `slot` (always empty
    /// for streams generated without domains).
    pub fn domain_events_at(&self, slot: TimeSlot) -> &[DomainEvent] {
        self.domains_by_slot
            .get(slot)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of failure domains the stream was generated over.
    pub fn domain_count(&self) -> usize {
        self.domain_members.len()
    }

    /// Member cloudlet indices of domain `d` (empty for unknown ids).
    pub fn domain_members(&self, d: usize) -> &[usize] {
        self.domain_members.get(d).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The cascade overlay parameters, when the stream carries one.
    pub fn cascade(&self) -> Option<&CascadeConfig> {
        self.cascade.as_ref()
    }

    /// The pre-drawn cascade uniform for `(slot, cloudlet)`.
    ///
    /// Returns `1.0` (never below any hazard) when cascades are disabled
    /// or the coordinates are out of range, so replay drivers can probe
    /// unconditionally.
    pub fn cascade_draw(&self, slot: TimeSlot, cloudlet: usize) -> f64 {
        if self.cascade_width == 0 || cloudlet >= self.cascade_width {
            return 1.0;
        }
        self.cascade_draws
            .get(slot * self.cascade_width + cloudlet)
            .copied()
            .unwrap_or(1.0)
    }

    /// Total domain-level events over the horizon.
    pub fn total_domain_events(&self) -> usize {
        self.domains_by_slot.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::{CloudletId, NetworkBuilder, Reliability};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn network(cloudlets: usize) -> Network {
        let mut b = NetworkBuilder::new();
        let mut prev = None;
        for i in 0..cloudlets {
            let ap = b.add_ap(format!("ap{i}"));
            if let Some(p) = prev {
                b.add_link(p, ap, 1.0).unwrap();
            }
            prev = Some(ap);
            b.add_cloudlet(ap, 20, Reliability::new(0.99).unwrap())
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn same_seed_same_stream() {
        let net = network(4);
        let cfg = FailureConfig::default();
        let h = Horizon::new(40);
        let a = FailureProcess::generate(&net, &cfg, h, &mut ChaCha8Rng::seed_from_u64(3)).unwrap();
        let b = FailureProcess::generate(&net, &cfg, h, &mut ChaCha8Rng::seed_from_u64(3)).unwrap();
        assert_eq!(a, b);
        let c = FailureProcess::generate(&net, &cfg, h, &mut ChaCha8Rng::seed_from_u64(4)).unwrap();
        assert!(a != c || a.total_events() == 0);
    }

    #[test]
    fn down_and_up_alternate_per_cloudlet() {
        let net = network(3);
        let cfg = FailureConfig {
            cloudlet_mttf: 4.0,
            cloudlet_mttr: 2.0,
            instance_kill_rate: 0.0,
        };
        let p = FailureProcess::generate(
            &net,
            &cfg,
            Horizon::new(200),
            &mut ChaCha8Rng::seed_from_u64(1),
        )
        .unwrap();
        // Per cloudlet, the Down/Up subsequence must strictly alternate
        // starting with Down.
        for j in 0..3 {
            let mut expect_down = true;
            for e in p.iter().filter(|e| e.cloudlet() == j) {
                match e {
                    FailureEvent::CloudletDown { .. } => {
                        assert!(expect_down, "two Downs without an Up at cloudlet {j}");
                        expect_down = false;
                    }
                    FailureEvent::CloudletUp { .. } => {
                        assert!(!expect_down, "Up without a preceding Down at cloudlet {j}");
                        expect_down = true;
                    }
                    FailureEvent::InstanceKill { .. } => unreachable!("kill rate is 0"),
                }
            }
        }
        assert!(p.total_events() > 0, "MTTF 4 over 200 slots must crash");
    }

    #[test]
    fn kills_only_on_up_cloudlets() {
        let net = network(2);
        let cfg = FailureConfig {
            cloudlet_mttf: 3.0,
            cloudlet_mttr: 5.0,
            instance_kill_rate: 0.5,
        };
        let p = FailureProcess::generate(
            &net,
            &cfg,
            Horizon::new(100),
            &mut ChaCha8Rng::seed_from_u64(9),
        )
        .unwrap();
        // Track state while replaying: a kill may only appear while the
        // cloudlet is up (after this slot's transition).
        let mut up = [true; 2];
        for t in 0..p.horizon_len() {
            for e in p.events_at(t) {
                match e {
                    FailureEvent::CloudletDown { cloudlet, .. } => up[*cloudlet] = false,
                    FailureEvent::CloudletUp { cloudlet, .. } => up[*cloudlet] = true,
                    FailureEvent::InstanceKill { cloudlet, .. } => {
                        assert!(up[*cloudlet], "kill on a down cloudlet at slot {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let net = network(1);
        let h = Horizon::new(4);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for cfg in [
            FailureConfig {
                cloudlet_mttf: 0.5,
                ..FailureConfig::default()
            },
            FailureConfig {
                cloudlet_mttr: 0.0,
                ..FailureConfig::default()
            },
            FailureConfig {
                instance_kill_rate: 1.5,
                ..FailureConfig::default()
            },
            FailureConfig {
                instance_kill_rate: f64::NAN,
                ..FailureConfig::default()
            },
        ] {
            assert!(FailureProcess::generate(&net, &cfg, h, &mut rng).is_err());
        }
    }

    #[test]
    fn domain_outages_take_members_down_atomically() {
        let net = network(4);
        let domains = mec_topology::FailureDomainSet::from_groups(
            &net,
            &[vec![CloudletId(0), CloudletId(1)], vec![CloudletId(3)]],
            5.0,
            2.0,
        )
        .unwrap();
        let cfg = FailureConfig {
            cloudlet_mttf: 1e9, // effectively no independent outages
            cloudlet_mttr: 1.0,
            instance_kill_rate: 0.0,
        };
        let p = FailureProcess::generate_with_domains(
            &net,
            &cfg,
            &domains,
            None,
            Horizon::new(120),
            &mut ChaCha8Rng::seed_from_u64(5),
        )
        .unwrap();
        assert!(p.total_domain_events() > 0, "MTTF 5 over 120 slots");
        assert_eq!(p.domain_count(), 2);
        assert_eq!(p.domain_members(0), &[0, 1]);
        // Replay: after each slot, every member of a down domain must be
        // effectively down, and cloudlet 2 (no domain) must stay up.
        let mut up = [true; 4];
        let mut dom_up = [true; 2];
        for t in 0..p.horizon_len() {
            for e in p.events_at(t) {
                match e {
                    FailureEvent::CloudletDown { cloudlet, .. } => up[*cloudlet] = false,
                    FailureEvent::CloudletUp { cloudlet, .. } => up[*cloudlet] = true,
                    FailureEvent::InstanceKill { .. } => unreachable!("kill rate is 0"),
                }
            }
            for e in p.domain_events_at(t) {
                match e {
                    DomainEvent::Down { domain, .. } => dom_up[*domain] = false,
                    DomainEvent::Up { domain, .. } => dom_up[*domain] = true,
                }
            }
            for (d, &du) in dom_up.iter().enumerate() {
                if !du {
                    for &j in p.domain_members(d) {
                        assert!(!up[j], "slot {t}: domain {d} down but member {j} up");
                    }
                }
            }
            assert!(up[2], "slot {t}: domain-free cloudlet went down");
        }
    }

    #[test]
    fn domain_generation_is_seed_deterministic() {
        let net = network(3);
        let domains = mec_topology::FailureDomainSet::zones(&net, 2, 8.0, 2.0).unwrap();
        let cfg = FailureConfig::default();
        let h = Horizon::new(60);
        let cascade = Some(CascadeConfig::default());
        let a = FailureProcess::generate_with_domains(
            &net,
            &cfg,
            &domains,
            cascade,
            h,
            &mut ChaCha8Rng::seed_from_u64(11),
        )
        .unwrap();
        let b = FailureProcess::generate_with_domains(
            &net,
            &cfg,
            &domains,
            cascade,
            h,
            &mut ChaCha8Rng::seed_from_u64(11),
        )
        .unwrap();
        assert_eq!(a, b);
        // Cascade draws cover every (slot, cloudlet) cell and look uniform.
        for t in 0..60 {
            for j in 0..3 {
                let d = a.cascade_draw(t, j);
                assert!((0.0..1.0).contains(&d));
            }
        }
        // Out of range or disabled → 1.0 (never fires).
        assert_eq!(a.cascade_draw(0, 99), 1.0);
        let plain =
            FailureProcess::generate(&net, &cfg, h, &mut ChaCha8Rng::seed_from_u64(11)).unwrap();
        assert_eq!(plain.cascade_draw(0, 0), 1.0);
        assert!(plain.cascade().is_none());
        assert_eq!(plain.domain_count(), 0);
    }

    #[test]
    fn empty_domain_set_matches_independent_event_multiset() {
        let net = network(3);
        let cfg = FailureConfig {
            cloudlet_mttf: 4.0,
            cloudlet_mttr: 2.0,
            instance_kill_rate: 0.2,
        };
        let h = Horizon::new(80);
        let plain =
            FailureProcess::generate(&net, &cfg, h, &mut ChaCha8Rng::seed_from_u64(21)).unwrap();
        let domained = FailureProcess::generate_with_domains(
            &net,
            &cfg,
            &mec_topology::FailureDomainSet::empty(),
            None,
            h,
            &mut ChaCha8Rng::seed_from_u64(21),
        )
        .unwrap();
        // Same draws, same states — the per-slot event multisets agree
        // (ordering within a slot differs by construction).
        for t in 0..h.len() {
            let mut a: Vec<FailureEvent> = plain.events_at(t).to_vec();
            let mut b: Vec<FailureEvent> = domained.events_at(t).to_vec();
            let key = |e: &FailureEvent| match *e {
                FailureEvent::CloudletDown { cloudlet, .. } => (cloudlet, 0, 0),
                FailureEvent::CloudletUp { cloudlet, .. } => (cloudlet, 1, 0),
                FailureEvent::InstanceKill {
                    cloudlet, selector, ..
                } => (cloudlet, 2, selector),
            };
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "slot {t}");
        }
    }

    #[test]
    fn invalid_cascade_and_domain_refs_are_rejected() {
        let net = network(2);
        let h = Horizon::new(4);
        let cfg = FailureConfig::default();
        let domains = mec_topology::FailureDomainSet::empty();
        for cascade in [
            CascadeConfig {
                utilization_threshold: 1.5,
                ..CascadeConfig::default()
            },
            CascadeConfig {
                hazard: -0.1,
                ..CascadeConfig::default()
            },
            CascadeConfig {
                outage_slots: 0,
                ..CascadeConfig::default()
            },
        ] {
            assert!(FailureProcess::generate_with_domains(
                &net,
                &cfg,
                &domains,
                Some(cascade),
                h,
                &mut ChaCha8Rng::seed_from_u64(0),
            )
            .is_err());
        }
        // Domain set built against a *larger* network is rejected here.
        let big = network(5);
        let wide =
            mec_topology::FailureDomainSet::from_groups(&big, &[vec![CloudletId(4)]], 5.0, 2.0)
                .unwrap();
        assert!(FailureProcess::generate_with_domains(
            &net,
            &cfg,
            &wide,
            None,
            h,
            &mut ChaCha8Rng::seed_from_u64(0),
        )
        .is_err());
    }

    #[test]
    fn handcrafted_domain_events_validate() {
        let net = network(2);
        let h = Horizon::new(6);
        let base = FailureProcess::from_events(h, [], FailureConfig::default()).unwrap();
        let p = base
            .clone()
            .with_domain_events(
                vec![vec![0, 1]],
                [
                    DomainEvent::Down { slot: 1, domain: 0 },
                    DomainEvent::Up { slot: 3, domain: 0 },
                ],
            )
            .unwrap();
        assert_eq!(p.domain_events_at(1).len(), 1);
        assert_eq!(p.domain_events_at(1)[0].domain(), 0);
        assert_eq!(p.domain_events_at(3)[0].slot(), 3);
        assert_eq!(p.total_domain_events(), 2);
        assert!(base
            .clone()
            .with_domain_events(vec![], [DomainEvent::Down { slot: 0, domain: 0 }])
            .is_err());
        assert!(base
            .with_domain_events(vec![vec![0]], [DomainEvent::Down { slot: 9, domain: 0 }])
            .is_err());
        let _ = net;
    }

    #[test]
    fn events_past_horizon_are_empty() {
        let net = network(1);
        let p = FailureProcess::generate(
            &net,
            &FailureConfig::default(),
            Horizon::new(5),
            &mut ChaCha8Rng::seed_from_u64(2),
        )
        .unwrap();
        assert_eq!(p.horizon_len(), 5);
        assert!(p.events_at(99).is_empty());
        assert!((p.config().cloudlet_mttf - 50.0).abs() < 1e-12);
    }
}
