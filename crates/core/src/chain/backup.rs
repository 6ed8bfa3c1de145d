//! Shared backup standbys for chain stages.
//!
//! A *standby* is one idle instance of a VNF type held at a cloudlet
//! that can take over when a stage's primary replicas all fail. Under
//! dedicated provisioning every protected stage owns its standby; the
//! [`SharedBackupPool`] instead lets standbys cover stages of *multiple*
//! admitted chains, with an analytic no-simultaneous-failure admission
//! test: each subscriber contributes its failure mass
//! `(1 − r(f_k))^{n_k}` (the probability its primaries are all dead and
//! the standby is actually needed), and a standby accepts a new
//! subscriber only while its total mass stays ≤ `mass_cap` (ε). By the
//! union bound the probability that *some co-subscriber* claims the
//! standby in a slot is then ≤ ε, so a stage can count the standby as
//! available with probability at least `r(f) · (1 − ε)` — a sound
//! contention discount that stays valid under any future joins (the cap
//! bounds co-subscriber mass no matter who arrives later).
//!
//! Capacity: a standby charges `c(f)` units at its cloudlet over the
//! *hull* of its subscribers' activity windows. Joins extend the hull
//! only when needed; releases shrink it back, so the ledger never leaks
//! and is never double-credited.
//!
//! Cost: only a standby of the stage's own `(cloudlet, VNF)` can take a
//! join, so the pool keeps its live standbys indexed by that pair and a
//! plan visits one bucket per stage — not every standby ever created.
//! Buckets hold ids in ascending order because joins are first-fit:
//! which standby a stage joins (and so every later plan) depends on the
//! visiting order, and ascending id is the order a scan of the whole pool
//! would meet them in.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use mec_topology::CloudletId;
use mec_workload::{TimeSlot, VnfTypeId};

use crate::ledger::CapacityLedger;

/// Stable identifier of a standby in one pool. Never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StandbyId(pub usize);

impl StandbyId {
    /// The dense slot index in the pool.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for StandbyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "β{}", self.0)
    }
}

/// How chain stages are protected by standby instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackupMode {
    /// No standbys; the replica allocation alone must meet the target.
    None,
    /// Every protected stage gets its own standby instance.
    Dedicated,
    /// Standbys are shared across chains under the mass-cap test.
    #[default]
    Shared,
}

impl BackupMode {
    /// Stable name for reports and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            BackupMode::None => "none",
            BackupMode::Dedicated => "dedicated",
            BackupMode::Shared => "shared",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Subscriber {
    chain: usize,
    stage: usize,
    mass: f64,
    first: TimeSlot,
    last: TimeSlot,
}

#[derive(Debug, Clone, PartialEq)]
struct Standby {
    cloudlet: CloudletId,
    vnf: VnfTypeId,
    compute: u64,
    /// Charged window hull over all subscribers.
    first: TimeSlot,
    last: TimeSlot,
    /// Total subscriber failure mass (Σ of `Subscriber::mass`).
    mass: f64,
    subscribers: Subscribers,
}

/// A live standby's subscribers, in subscription order. There is always
/// at least one, held inline: most standbys are never joined, and those
/// own no heap memory.
#[derive(Debug, Clone, PartialEq)]
struct Subscribers {
    first: Subscriber,
    more: Vec<Subscriber>,
}

impl Subscribers {
    fn iter(&self) -> impl Iterator<Item = &Subscriber> {
        std::iter::once(&self.first).chain(&self.more)
    }

    fn len(&self) -> usize {
        1 + self.more.len()
    }

    /// Drops every subscription of `chain`, keeping the others in order.
    /// Returns how many went and whether that was all of them — the list
    /// is then dead (`first` is stale) and its standby must be deleted.
    fn remove_chain(&mut self, chain: usize) -> (usize, bool) {
        let before = self.len();
        self.more.retain(|sub| sub.chain != chain);
        if self.first.chain == chain {
            if self.more.is_empty() {
                return (before, true);
            }
            self.first = self.more.remove(0);
        }
        (before - self.len(), false)
    }
}

impl Standby {
    /// Slots a subscriber over `[first, last]` adds to the charged hull:
    /// the new hull `min(first)..=max(last)` minus the old one. The hull
    /// is one interval, so a window that does not touch it also pays for
    /// the gap in between — `release_chain` credits the whole hull back.
    fn hull_extension(&self, first: TimeSlot, last: TimeSlot) -> impl Iterator<Item = TimeSlot> {
        let [before, after] = self.hull_extension_ranges(first, last);
        before.chain(after)
    }

    /// [`Standby::hull_extension`] as its two runs of slots: the one
    /// before the hull and the one after it (either may be empty).
    fn hull_extension_ranges(&self, first: TimeSlot, last: TimeSlot) -> [Range<TimeSlot>; 2] {
        [
            first.min(self.first)..self.first,
            self.last + 1..last.max(self.last) + 1,
        ]
    }
}

/// One stage's planned protection, produced by [`SharedBackupPool::plan`]
/// and consumed by [`SharedBackupPool::commit`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedStage {
    /// Standby to join, or `None` to create a fresh one.
    pub join: Option<StandbyId>,
    /// Cloudlet hosting the standby (the stage's primary host).
    pub cloudlet: CloudletId,
    /// VNF type of the standby.
    pub vnf: VnfTypeId,
    /// Compute units one standby instance occupies per slot.
    pub compute: u64,
    /// The stage's failure mass `(1 − r(f))^n`.
    pub mass: f64,
    /// Stage index within its chain.
    pub stage: usize,
    /// Activity window of the subscribing chain.
    pub first: TimeSlot,
    /// Last active slot (inclusive).
    pub last: TimeSlot,
}

/// A consistent set of planned protections for one chain (two-phase:
/// plan against current + pending state, then commit or drop).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BackupPlan {
    /// Planned stages, in chain-stage order.
    pub stages: Vec<PlannedStage>,
    /// Total *new* compute the plan would charge (created standbys plus
    /// hull extensions of joined ones), summed over slots.
    pub new_compute_slots: f64,
}

/// The inputs [`SharedBackupPool::plan`] needs per protected stage.
#[derive(Debug, Clone, Copy)]
pub struct StageNeed {
    /// Stage index within the chain.
    pub stage: usize,
    /// VNF type of the stage.
    pub vnf: VnfTypeId,
    /// Compute units of one instance of that type.
    pub compute: u64,
    /// Cloudlet hosting the stage's primaries (standbys co-locate).
    pub cloudlet: CloudletId,
    /// The stage's failure mass `(1 − r(f))^n` under its planned
    /// replica count.
    pub mass: f64,
}

/// Buffers [`SharedBackupPool::plan_into`] reuses from call to call.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// Charges accumulated by earlier planned stages, so one plan is
    /// internally consistent: `(cloudlet, slots, compute per slot)`, in
    /// planning order.
    acc: Vec<(usize, Range<TimeSlot>, f64)>,
    /// Mass already planned onto an existing standby by this plan.
    planned_mass: Vec<(StandbyId, f64)>,
}

impl PlanScratch {
    /// Compute this plan has already earmarked at cloudlet `j` in slot `t`.
    fn accumulated(&self, j: CloudletId, t: TimeSlot) -> f64 {
        self.acc
            .iter()
            .filter(|(aj, slots, _)| *aj == j.index() && slots.contains(&t))
            .map(|&(_, _, a)| a)
            .sum()
    }
}

/// Pool of standby instances shared across admitted chains.
#[derive(Debug, Clone)]
pub struct SharedBackupPool {
    /// Slot-stable storage; `None` marks released standbys (ids are
    /// never reused).
    standbys: Vec<Option<Standby>>,
    mass_cap: f64,
    live: usize,
    /// Live standby ids by `cloudlet * vnf_stride + vnf`, ascending
    /// within a bucket (see the module docs for why the order matters).
    /// Derived from `standbys`; grown on demand.
    buckets: Vec<Vec<StandbyId>>,
    vnf_stride: usize,
    /// `(chain, standby)` for every standby a chain subscribes to, so a
    /// release visits the chain's own standbys (in ascending id order)
    /// instead of the whole pool. Derived from `standbys`.
    subscriptions: BTreeSet<(usize, StandbyId)>,
}

/// Pools are equal when they hold the same standbys under the same cap;
/// the index is derived state whose stride depends on insertion history.
impl PartialEq for SharedBackupPool {
    fn eq(&self, other: &Self) -> bool {
        self.standbys == other.standbys && self.mass_cap == other.mass_cap
    }
}

impl SharedBackupPool {
    /// Creates an empty pool with the given per-standby mass cap ε.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < mass_cap < 1`.
    pub fn new(mass_cap: f64) -> Self {
        assert!(
            mass_cap > 0.0 && mass_cap < 1.0,
            "mass cap must be in (0, 1), got {mass_cap}"
        );
        SharedBackupPool {
            standbys: Vec::new(),
            mass_cap,
            live: 0,
            buckets: Vec::new(),
            vnf_stride: 0,
            subscriptions: BTreeSet::new(),
        }
    }

    /// The per-standby subscriber failure-mass cap ε.
    pub fn mass_cap(&self) -> f64 {
        self.mass_cap
    }

    /// Number of live standbys.
    pub fn standby_count(&self) -> usize {
        self.live
    }

    /// Whether the pool currently holds no live standbys.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total `compute × hull-slots` currently charged by live standbys.
    pub fn charged_compute_slots(&self) -> f64 {
        // `+ 0.0` normalizes the empty sum's -0.0 for display.
        self.standbys
            .iter()
            .flatten()
            .map(|s| s.compute as f64 * (s.last - s.first + 1) as f64)
            .sum::<f64>()
            + 0.0
    }

    /// Live standbys of `vnf` at `cloudlet`, ascending by id.
    fn bucket(&self, cloudlet: CloudletId, vnf: VnfTypeId) -> &[StandbyId] {
        if vnf.index() >= self.vnf_stride {
            return &[];
        }
        self.buckets
            .get(cloudlet.index() * self.vnf_stride + vnf.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Files a freshly created standby under its bucket. Ids only grow,
    /// so pushing keeps the bucket ascending.
    fn index_insert(&mut self, cloudlet: CloudletId, vnf: VnfTypeId, id: StandbyId) {
        if vnf.index() >= self.vnf_stride {
            // Re-stride: move every bucket to its slot under the wider
            // stride. Rare — the stride doubles, and VNF ids are dense.
            let (old_stride, stride) = (self.vnf_stride, (vnf.index() + 1).next_power_of_two());
            let old = std::mem::take(&mut self.buckets);
            self.buckets
                .resize_with(old.len().div_ceil(old_stride.max(1)) * stride, Vec::new);
            for (i, b) in old.into_iter().enumerate() {
                self.buckets[i / old_stride * stride + i % old_stride] = b;
            }
            self.vnf_stride = stride;
        }
        let slot = cloudlet.index() * self.vnf_stride + vnf.index();
        if slot >= self.buckets.len() {
            self.buckets
                .resize_with((cloudlet.index() + 1) * self.vnf_stride, Vec::new);
        }
        debug_assert!(self.buckets[slot].last().is_none_or(|&b| b < id));
        self.buckets[slot].push(id);
    }

    /// Plans protection for every listed stage of one chain over the
    /// window `[first, last]`, without mutating anything.
    ///
    /// In [`BackupMode::Shared`] each stage first tries to *join* an
    /// existing standby of its VNF type at its cloudlet (mass headroom
    /// and hull-extension capacity permitting), otherwise creates a new
    /// one; [`BackupMode::Dedicated`] always creates. `pending(j, t)`
    /// reports capacity the caller has already earmarked at cloudlet `j`
    /// in slot `t` but not yet charged (the chain's own primaries) —
    /// the plan's capacity checks account for it, and for the plan's own
    /// accumulating charges, so commit can never overflow.
    ///
    /// Returns `None` when some stage cannot be protected within
    /// capacity. [`BackupMode::None`] yields an empty plan.
    pub fn plan(
        &self,
        mode: BackupMode,
        needs: &[StageNeed],
        first: TimeSlot,
        last: TimeSlot,
        ledger: &CapacityLedger,
        pending: &dyn Fn(CloudletId, TimeSlot) -> f64,
    ) -> Option<BackupPlan> {
        let mut plan = BackupPlan::default();
        let mut scratch = PlanScratch::default();
        self.plan_into(
            mode,
            needs,
            first,
            last,
            ledger,
            pending,
            &mut scratch,
            &mut plan,
        )
        .then_some(plan)
    }

    /// [`SharedBackupPool::plan`] into caller-owned buffers: `plan` is
    /// overwritten (and meaningless when `false` comes back), `scratch`
    /// is working memory. Allocates only to grow either.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn plan_into<P>(
        &self,
        mode: BackupMode,
        needs: &[StageNeed],
        first: TimeSlot,
        last: TimeSlot,
        ledger: &CapacityLedger,
        pending: P,
        scratch: &mut PlanScratch,
        plan: &mut BackupPlan,
    ) -> bool
    where
        P: Fn(CloudletId, TimeSlot) -> f64,
    {
        plan.stages.clear();
        plan.new_compute_slots = 0.0;
        if matches!(mode, BackupMode::None) {
            return true;
        }
        scratch.acc.clear();
        scratch.planned_mass.clear();
        for need in needs {
            let compute = need.compute as f64;
            let room = |scratch: &PlanScratch, t: TimeSlot| {
                ledger.residual(need.cloudlet, t)
                    - pending(need.cloudlet, t)
                    - scratch.accumulated(need.cloudlet, t)
                    >= compute
            };
            // Slots the stage adds to the ledger: a join's hull
            // extension, or the whole window of a fresh standby.
            let mut join = None;
            let mut charged = 0;
            if matches!(mode, BackupMode::Shared) {
                for &id in self.bucket(need.cloudlet, need.vnf) {
                    let s = self.standbys[id.index()]
                        .as_ref()
                        .expect("buckets hold live standbys only");
                    debug_assert!(s.vnf == need.vnf && s.cloudlet == need.cloudlet);
                    let extra: f64 = scratch
                        .planned_mass
                        .iter()
                        .filter(|&&(planned, _)| planned == id)
                        .map(|&(_, m)| m)
                        .sum();
                    if s.mass + extra + need.mass > self.mass_cap {
                        continue;
                    }
                    if !s.hull_extension(first, last).all(|t| room(scratch, t)) {
                        continue;
                    }
                    for slots in s.hull_extension_ranges(first, last) {
                        if !slots.is_empty() {
                            charged += slots.len();
                            scratch.acc.push((need.cloudlet.index(), slots, compute));
                        }
                    }
                    scratch.planned_mass.push((id, need.mass));
                    join = Some(id);
                    break;
                }
            }
            if join.is_none() {
                // Create a fresh standby (dedicated fallback).
                if !(first..=last).all(|t| room(scratch, t)) {
                    return false;
                }
                charged = last + 1 - first;
                scratch
                    .acc
                    .push((need.cloudlet.index(), first..last + 1, compute));
            }
            // One addition per slot, not a product: the total is the
            // float the slot-by-slot bookkeeping always produced.
            for _ in 0..charged {
                plan.new_compute_slots += compute;
            }
            plan.stages.push(PlannedStage {
                join,
                cloudlet: need.cloudlet,
                vnf: need.vnf,
                compute: need.compute,
                mass: need.mass,
                stage: need.stage,
                first,
                last,
            });
        }
        true
    }

    /// Commits a plan for `chain`, charging the ledger for created
    /// standbys and hull extensions. Returns, per planned stage in plan
    /// order, the standby id and whether the stage *joined* an existing
    /// standby (shared) rather than creating one.
    ///
    /// # Panics
    ///
    /// Panics if a joined standby no longer exists — plans must be
    /// committed against the pool state they were computed from.
    pub fn commit(
        &mut self,
        plan: &BackupPlan,
        chain: usize,
        ledger: &mut CapacityLedger,
    ) -> Vec<(StandbyId, bool)> {
        let mut out = Vec::with_capacity(plan.stages.len());
        self.commit_into(plan, chain, ledger, &mut out);
        out
    }

    /// [`SharedBackupPool::commit`] into a caller-owned vector, which is
    /// overwritten.
    pub(crate) fn commit_into(
        &mut self,
        plan: &BackupPlan,
        chain: usize,
        ledger: &mut CapacityLedger,
        out: &mut Vec<(StandbyId, bool)>,
    ) {
        out.clear();
        for p in &plan.stages {
            let sub = Subscriber {
                chain,
                stage: p.stage,
                mass: p.mass,
                first: p.first,
                last: p.last,
            };
            let (id, joined) = match p.join {
                Some(id) => {
                    let s = self.standbys[id.index()]
                        .as_mut()
                        .expect("joined standby must be live at commit");
                    // Charge only the hull extension.
                    for t in s.hull_extension(p.first, p.last) {
                        ledger.charge(s.cloudlet, t..=t, s.compute as f64);
                    }
                    s.first = s.first.min(p.first);
                    s.last = s.last.max(p.last);
                    s.mass += p.mass;
                    s.subscribers.more.push(sub);
                    (id, true)
                }
                None => {
                    let id = StandbyId(self.standbys.len());
                    ledger.charge(p.cloudlet, p.first..=p.last, p.compute as f64);
                    self.standbys.push(Some(Standby {
                        cloudlet: p.cloudlet,
                        vnf: p.vnf,
                        compute: p.compute,
                        first: p.first,
                        last: p.last,
                        mass: p.mass,
                        subscribers: Subscribers {
                            first: sub,
                            more: Vec::new(),
                        },
                    }));
                    self.live += 1;
                    self.index_insert(p.cloudlet, p.vnf, id);
                    (id, false)
                }
            };
            self.subscriptions.insert((chain, id));
            out.push((id, joined));
        }
    }

    /// Releases every subscription `chain` holds, shrinking standby
    /// hulls (crediting the ledger for slots no longer covered) and
    /// deleting standbys left without subscribers. Returns the number of
    /// subscriptions removed — `0` when the chain holds none, so a
    /// double release is a no-op rather than a double credit.
    pub fn release_chain(&mut self, chain: usize, ledger: &mut CapacityLedger) -> usize {
        let mut removed = 0;
        // The chain's standbys, in ascending id order.
        while let Some(&(owner, id)) = self
            .subscriptions
            .range((chain, StandbyId(0))..)
            .next()
            .filter(|&&(owner, _)| owner == chain)
        {
            self.subscriptions.remove(&(owner, id));
            let slot = &mut self.standbys[id.index()];
            let s = slot.as_mut().expect("subscribed standbys are live");
            let (dropped, emptied) = s.subscribers.remove_chain(chain);
            removed += dropped;
            if emptied {
                ledger
                    .release(s.cloudlet, s.first..=s.last, s.compute as f64)
                    .expect("pool releases only what it charged");
                let bucket =
                    &mut self.buckets[s.cloudlet.index() * self.vnf_stride + s.vnf.index()];
                bucket.retain(|&b| b != id);
                *slot = None;
                self.live -= 1;
                continue;
            }
            // Shrink the hull to the remaining subscribers and recompute
            // the mass from scratch (no float drift).
            let new_first = s.subscribers.iter().map(|x| x.first).min().expect("some");
            let new_last = s.subscribers.iter().map(|x| x.last).max().expect("some");
            for t in s.first..=s.last {
                if t < new_first || t > new_last {
                    ledger
                        .release(s.cloudlet, t..=t, s.compute as f64)
                        .expect("pool releases only what it charged");
                }
            }
            s.first = new_first;
            s.last = new_last;
            s.mass = s.subscribers.iter().map(|x| x.mass).sum();
        }
        removed
    }

    /// The standbys (id, cloudlet, vnf, subscriber count) currently
    /// live, for reports.
    pub fn standbys(&self) -> impl Iterator<Item = (StandbyId, CloudletId, VnfTypeId, usize)> + '_ {
        self.standbys.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref()
                .map(|s| (StandbyId(i), s.cloudlet, s.vnf, s.subscribers.len()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::{NetworkBuilder, Reliability};
    use mec_workload::Horizon;
    use proptest::prelude::*;

    fn ledger(caps: &[u64]) -> CapacityLedger {
        let mut b = NetworkBuilder::new();
        let mut prev = None;
        for (i, &cap) in caps.iter().enumerate() {
            let ap = b.add_ap(format!("ap{i}"));
            if let Some(p) = prev {
                b.add_link(p, ap, 1.0).unwrap();
            }
            prev = Some(ap);
            b.add_cloudlet(ap, cap, Reliability::new(0.99).unwrap())
                .unwrap();
        }
        CapacityLedger::new(&b.build().unwrap(), Horizon::new(10))
    }

    fn need(stage: usize, vnf: usize, compute: u64, cloudlet: usize, mass: f64) -> StageNeed {
        StageNeed {
            stage,
            vnf: VnfTypeId(vnf),
            compute,
            cloudlet: CloudletId(cloudlet),
            mass,
        }
    }

    const NO_PENDING: fn(CloudletId, TimeSlot) -> f64 = |_, _| 0.0;

    #[test]
    fn shared_mode_joins_instead_of_creating() {
        let mut led = ledger(&[10]);
        let mut pool = SharedBackupPool::new(0.05);
        let plan = pool
            .plan(
                BackupMode::Shared,
                &[need(0, 3, 2, 0, 0.01)],
                0,
                4,
                &led,
                &NO_PENDING,
            )
            .unwrap();
        let ids = pool.commit(&plan, 0, &mut led);
        assert_eq!(ids.len(), 1);
        assert!(!ids[0].1, "first chain creates");
        assert_eq!(pool.standby_count(), 1);
        let used_after_one = led.used(CloudletId(0), 2);

        // Second chain, same vnf+cloudlet, overlapping window: joins.
        let plan2 = pool
            .plan(
                BackupMode::Shared,
                &[need(0, 3, 2, 0, 0.01)],
                1,
                5,
                &led,
                &NO_PENDING,
            )
            .unwrap();
        let ids2 = pool.commit(&plan2, 1, &mut led);
        assert!(ids2[0].1, "second chain joins");
        assert_eq!(ids2[0].0, ids[0].0);
        assert_eq!(pool.standby_count(), 1);
        // Overlap slots not re-charged; only slot 5 extended.
        assert_eq!(led.used(CloudletId(0), 2), used_after_one);
        assert_eq!(led.used(CloudletId(0), 5), 2.0);

        // Dedicated mode always creates.
        let plan3 = pool
            .plan(
                BackupMode::Dedicated,
                &[need(0, 3, 2, 0, 0.01)],
                0,
                4,
                &led,
                &NO_PENDING,
            )
            .unwrap();
        let ids3 = pool.commit(&plan3, 2, &mut led);
        assert!(!ids3[0].1);
        assert_eq!(pool.standby_count(), 2);
    }

    #[test]
    fn mass_cap_forces_a_second_standby() {
        let mut led = ledger(&[10]);
        let mut pool = SharedBackupPool::new(0.05);
        let p1 = pool
            .plan(
                BackupMode::Shared,
                &[need(0, 1, 1, 0, 0.03)],
                0,
                3,
                &led,
                &NO_PENDING,
            )
            .unwrap();
        pool.commit(&p1, 0, &mut led);
        // 0.03 + 0.03 > 0.05: the join is refused, a second standby is
        // created.
        let p2 = pool
            .plan(
                BackupMode::Shared,
                &[need(0, 1, 1, 0, 0.03)],
                0,
                3,
                &led,
                &NO_PENDING,
            )
            .unwrap();
        let ids = pool.commit(&p2, 1, &mut led);
        assert!(!ids[0].1);
        assert_eq!(pool.standby_count(), 2);
        // But a small-mass stage still joins the first standby.
        let p3 = pool
            .plan(
                BackupMode::Shared,
                &[need(0, 1, 1, 0, 0.01)],
                0,
                3,
                &led,
                &NO_PENDING,
            )
            .unwrap();
        let ids3 = pool.commit(&p3, 2, &mut led);
        assert!(ids3[0].1);
    }

    #[test]
    fn plan_respects_capacity_and_pending_loads() {
        let led = ledger(&[3]);
        let pool = SharedBackupPool::new(0.1);
        // Standby needs 2 units; pending primaries already take 2 of 3.
        let pending = |j: CloudletId, _t: TimeSlot| if j.index() == 0 { 2.0 } else { 0.0 };
        assert!(pool
            .plan(
                BackupMode::Dedicated,
                &[need(0, 0, 2, 0, 0.01)],
                0,
                2,
                &led,
                &pending,
            )
            .is_none());
        // Without the pending load it fits.
        assert!(pool
            .plan(
                BackupMode::Dedicated,
                &[need(0, 0, 2, 0, 0.01)],
                0,
                2,
                &led,
                &NO_PENDING,
            )
            .is_some());
        // Two stages in one plan account for each other: 2 + 2 > 3.
        assert!(pool
            .plan(
                BackupMode::Dedicated,
                &[need(0, 0, 2, 0, 0.01), need(1, 0, 2, 0, 0.01)],
                0,
                2,
                &led,
                &NO_PENDING,
            )
            .is_none());
    }

    #[test]
    fn release_shrinks_hulls_and_never_double_credits() {
        let mut led = ledger(&[10]);
        let baseline = led.used_grid().to_vec();
        let mut pool = SharedBackupPool::new(0.1);
        // Chain 0 over [0,5], chain 1 over [3,8]; shared standby hull
        // becomes [0,8].
        let p0 = pool
            .plan(
                BackupMode::Shared,
                &[need(0, 2, 1, 0, 0.02)],
                0,
                5,
                &led,
                &NO_PENDING,
            )
            .unwrap();
        pool.commit(&p0, 0, &mut led);
        let p1 = pool
            .plan(
                BackupMode::Shared,
                &[need(0, 2, 1, 0, 0.02)],
                3,
                8,
                &led,
                &NO_PENDING,
            )
            .unwrap();
        pool.commit(&p1, 1, &mut led);
        assert_eq!(led.used(CloudletId(0), 7), 1.0);

        // Release chain 0: hull shrinks to [3,8], slots 0..=2 credited.
        assert_eq!(pool.release_chain(0, &mut led), 1);
        assert_eq!(led.used(CloudletId(0), 1), 0.0);
        assert_eq!(led.used(CloudletId(0), 4), 1.0);
        assert_eq!(pool.standby_count(), 1);

        // Double release: no-op, no double credit.
        assert_eq!(pool.release_chain(0, &mut led), 0);
        assert_eq!(led.used(CloudletId(0), 4), 1.0);

        // Release chain 1: pool empty, ledger back to baseline.
        assert_eq!(pool.release_chain(1, &mut led), 1);
        assert!(pool.is_empty());
        assert_eq!(led.used_grid(), &baseline[..]);
        assert_eq!(pool.charged_compute_slots(), 0.0);
        assert_eq!(pool.standbys().count(), 0);
    }

    #[test]
    fn gap_join_charges_the_whole_hull_extension() {
        // Chain 0 over [0,2], chain 1 over [6,8]: the windows do not
        // touch, the shared standby's hull becomes [0,8], and the join
        // pays for the gap 3..=5 as well as its own window.
        for release_order in [[0, 1], [1, 0]] {
            let mut led = ledger(&[10]);
            let baseline = led.used_grid().to_vec();
            let mut pool = SharedBackupPool::new(0.1);
            let p0 = pool
                .plan(
                    BackupMode::Shared,
                    &[need(0, 2, 1, 0, 0.02)],
                    0,
                    2,
                    &led,
                    &NO_PENDING,
                )
                .unwrap();
            pool.commit(&p0, 0, &mut led);
            let p1 = pool
                .plan(
                    BackupMode::Shared,
                    &[need(0, 2, 1, 0, 0.02)],
                    6,
                    8,
                    &led,
                    &NO_PENDING,
                )
                .unwrap();
            assert_eq!(p1.new_compute_slots, 6.0, "gap 3..=5 plus window 6..=8");
            let ids = pool.commit(&p1, 1, &mut led);
            assert!(ids[0].1, "second chain joins across the gap");
            assert_eq!(pool.standby_count(), 1);
            assert_eq!(pool.charged_compute_slots(), 9.0);
            for t in 0..=8 {
                assert_eq!(led.used(CloudletId(0), t), 1.0, "slot {t}");
            }
            assert_eq!(led.used(CloudletId(0), 9), 0.0);

            let [a, b] = release_order;
            assert_eq!(pool.release_chain(a, &mut led), 1);
            assert_eq!(pool.standby_count(), 1);
            assert_eq!(pool.release_chain(a, &mut led), 0, "double release");
            assert_eq!(pool.release_chain(b, &mut led), 1);
            assert_eq!(pool.release_chain(b, &mut led), 0, "double release");
            assert!(pool.is_empty());
            assert_eq!(led.used_grid(), &baseline[..]);
            assert_eq!(pool.charged_compute_slots(), 0.0);
        }
    }

    #[test]
    fn gap_join_is_refused_when_the_gap_has_no_room() {
        // A foreign charge fills slot 4, inside the would-be gap 3..=5,
        // so the join across it cannot be charged; a fresh standby over
        // the joiner's own window is planned instead.
        let mut led = ledger(&[1]);
        let mut pool = SharedBackupPool::new(0.1);
        let p0 = pool
            .plan(
                BackupMode::Shared,
                &[need(0, 2, 1, 0, 0.02)],
                0,
                2,
                &led,
                &NO_PENDING,
            )
            .unwrap();
        pool.commit(&p0, 0, &mut led);
        led.charge(CloudletId(0), 4..=4, 1.0);
        let p1 = pool
            .plan(
                BackupMode::Shared,
                &[need(0, 2, 1, 0, 0.02)],
                6,
                8,
                &led,
                &NO_PENDING,
            )
            .unwrap();
        assert_eq!(p1.stages[0].join, None);
        assert_eq!(p1.new_compute_slots, 3.0);
        pool.commit(&p1, 1, &mut led);
        assert_eq!(led.max_overflow(), 0.0);
    }

    #[test]
    fn none_mode_plans_nothing() {
        let led = ledger(&[5]);
        let pool = SharedBackupPool::new(0.1);
        let plan = pool
            .plan(
                BackupMode::None,
                &[need(0, 0, 1, 0, 0.5)],
                0,
                3,
                &led,
                &NO_PENDING,
            )
            .unwrap();
        assert!(plan.stages.is_empty());
        assert_eq!(plan.new_compute_slots, 0.0);
        assert_eq!(BackupMode::Shared.as_str(), "shared");
        assert_eq!(BackupMode::Dedicated.as_str(), "dedicated");
        assert_eq!(BackupMode::None.as_str(), "none");
        assert_eq!(StandbyId(3).to_string(), "β3");
        assert_eq!(StandbyId(3).index(), 3);
    }
    /// The pool's plan as the pool computed it before it had an index:
    /// every stage walks the whole `standbys` vector, tombstones
    /// included, in id order, with per-slot bookkeeping. Test-only
    /// reference for the indexed [`SharedBackupPool::plan`].
    fn plan_by_scan(
        pool: &SharedBackupPool,
        mode: BackupMode,
        needs: &[StageNeed],
        first: TimeSlot,
        last: TimeSlot,
        ledger: &CapacityLedger,
        pending: &dyn Fn(CloudletId, TimeSlot) -> f64,
    ) -> Option<BackupPlan> {
        let mut plan = BackupPlan::default();
        if matches!(mode, BackupMode::None) {
            return Some(plan);
        }
        let mut acc: Vec<(usize, TimeSlot, f64)> = Vec::new();
        let mut planned_mass: Vec<(StandbyId, f64)> = Vec::new();
        let accumulated = |acc: &[(usize, TimeSlot, f64)], j: CloudletId, t: TimeSlot| -> f64 {
            acc.iter()
                .filter(|&&(aj, at, _)| aj == j.index() && at == t)
                .map(|&(_, _, a)| a)
                .sum()
        };
        for need in needs {
            let mut join = None;
            if matches!(mode, BackupMode::Shared) {
                for (idx, slot) in pool.standbys.iter().enumerate() {
                    let Some(s) = slot else { continue };
                    if s.vnf != need.vnf || s.cloudlet != need.cloudlet {
                        continue;
                    }
                    let extra: f64 = planned_mass
                        .iter()
                        .filter(|&&(id, _)| id.index() == idx)
                        .map(|&(_, m)| m)
                        .sum();
                    if s.mass + extra + need.mass > pool.mass_cap {
                        continue;
                    }
                    let ext: Vec<TimeSlot> = s.hull_extension(first, last).collect();
                    let fits = ext.iter().all(|&t| {
                        ledger.residual(need.cloudlet, t)
                            - pending(need.cloudlet, t)
                            - accumulated(&acc, need.cloudlet, t)
                            >= need.compute as f64
                    });
                    if !fits {
                        continue;
                    }
                    for &t in &ext {
                        acc.push((need.cloudlet.index(), t, need.compute as f64));
                        plan.new_compute_slots += need.compute as f64;
                    }
                    planned_mass.push((StandbyId(idx), need.mass));
                    join = Some(StandbyId(idx));
                    break;
                }
            }
            if join.is_none() {
                let fits = (first..=last).all(|t| {
                    ledger.residual(need.cloudlet, t)
                        - pending(need.cloudlet, t)
                        - accumulated(&acc, need.cloudlet, t)
                        >= need.compute as f64
                });
                if !fits {
                    return None;
                }
                for t in first..=last {
                    acc.push((need.cloudlet.index(), t, need.compute as f64));
                    plan.new_compute_slots += need.compute as f64;
                }
            }
            plan.stages.push(PlannedStage {
                join,
                cloudlet: need.cloudlet,
                vnf: need.vnf,
                compute: need.compute,
                mass: need.mass,
                stage: need.stage,
                first,
                last,
            });
        }
        Some(plan)
    }

    /// The derived state says what `standbys` says: every bucket lists
    /// exactly the live standbys of its `(cloudlet, vnf)` in ascending
    /// id order, and the subscription set is exactly the subscribers.
    fn assert_index_matches_standbys(pool: &SharedBackupPool) {
        let mut listed = 0;
        for (slot, bucket) in pool.buckets.iter().enumerate() {
            assert!(bucket.windows(2).all(|w| w[0] < w[1]), "bucket {slot}");
            for &id in bucket {
                let s = pool.standbys[id.index()].as_ref().expect("listed is live");
                assert_eq!(
                    slot,
                    s.cloudlet.index() * pool.vnf_stride + s.vnf.index(),
                    "{id} filed under the wrong bucket"
                );
                assert_eq!(pool.bucket(s.cloudlet, s.vnf), &bucket[..]);
            }
            listed += bucket.len();
        }
        assert_eq!(listed, pool.live);
        assert_eq!(pool.standbys.iter().flatten().count(), pool.live);
        let subscribed: BTreeSet<(usize, StandbyId)> = pool
            .standbys
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.as_ref()?)))
            .flat_map(|(i, s)| {
                s.subscribers
                    .iter()
                    .map(move |sub| (sub.chain, StandbyId(i)))
            })
            .collect();
        assert_eq!(subscribed, pool.subscriptions);
    }

    #[test]
    fn releasing_the_last_subscriber_unlists_the_standby_for_good() {
        let mut led = ledger(&[10, 10]);
        let mut pool = SharedBackupPool::new(0.1);
        let stage = [need(0, 3, 1, 1, 0.02)];
        let p0 = pool
            .plan(BackupMode::Shared, &stage, 0, 4, &led, &NO_PENDING)
            .unwrap();
        let first_id = pool.commit(&p0, 0, &mut led)[0].0;
        assert_eq!(
            pool.bucket(CloudletId(1), VnfTypeId(3)),
            &[first_id],
            "a created standby is listed under its (cloudlet, vnf)"
        );
        assert!(pool.bucket(CloudletId(0), VnfTypeId(3)).is_empty());
        assert!(pool.bucket(CloudletId(1), VnfTypeId(2)).is_empty());
        assert!(pool.bucket(CloudletId(7), VnfTypeId(9)).is_empty());

        // A second subscriber keeps it listed when the first leaves.
        let p1 = pool
            .plan(BackupMode::Shared, &stage, 2, 6, &led, &NO_PENDING)
            .unwrap();
        assert_eq!(pool.commit(&p1, 1, &mut led), vec![(first_id, true)]);
        assert_eq!(pool.release_chain(0, &mut led), 1);
        assert_eq!(pool.bucket(CloudletId(1), VnfTypeId(3)), &[first_id]);
        assert_index_matches_standbys(&pool);

        // The last one leaving unlists it; a double release removes 0.
        assert_eq!(pool.release_chain(1, &mut led), 1);
        assert!(pool.bucket(CloudletId(1), VnfTypeId(3)).is_empty());
        assert_eq!(pool.release_chain(1, &mut led), 0);
        assert_eq!(pool.release_chain(0, &mut led), 0);
        assert!(pool.is_empty());
        assert_index_matches_standbys(&pool);

        // The released id is never offered again: the same stage now
        // creates, under a fresh id.
        let p2 = pool
            .plan(BackupMode::Shared, &stage, 0, 4, &led, &NO_PENDING)
            .unwrap();
        assert_eq!(p2.stages[0].join, None);
        let (second_id, joined) = pool.commit(&p2, 2, &mut led)[0];
        assert!(!joined && second_id > first_id);
        assert_eq!(pool.bucket(CloudletId(1), VnfTypeId(3)), &[second_id]);
        assert_index_matches_standbys(&pool);
    }

    #[test]
    fn a_wider_vnf_id_restrides_the_index_without_losing_a_bucket() {
        let mut led = ledger(&[20, 20, 20]);
        let mut pool = SharedBackupPool::new(0.1);
        // VNF ids arrive in an order that widens the stride three times
        // (1 → 2 → 4 → 16), at cloudlets in no particular order.
        let mut created = Vec::new();
        for (chain, (vnf, cloudlet)) in [(0, 2), (1, 0), (3, 2), (1, 1), (9, 0), (0, 1)]
            .into_iter()
            .enumerate()
        {
            let stage = [need(0, vnf, 1, cloudlet, 0.02)];
            let p = pool
                .plan(BackupMode::Shared, &stage, 0, 2, &led, &NO_PENDING)
                .unwrap();
            assert_eq!(p.stages[0].join, None, "vnf {vnf} at cloudlet {cloudlet}");
            created.push((pool.commit(&p, chain, &mut led)[0].0, vnf, cloudlet));
            assert_index_matches_standbys(&pool);
        }
        for &(id, vnf, cloudlet) in &created {
            assert_eq!(pool.bucket(CloudletId(cloudlet), VnfTypeId(vnf)), &[id]);
        }
        // Every one of them is still joinable.
        for (chain, &(id, vnf, cloudlet)) in created.iter().enumerate() {
            let stage = [need(0, vnf, 1, cloudlet, 0.02)];
            let p = pool
                .plan(BackupMode::Shared, &stage, 1, 2, &led, &NO_PENDING)
                .unwrap();
            assert_eq!(p.stages[0].join, Some(id));
            pool.commit(&p, 100 + chain, &mut led);
        }
        assert_index_matches_standbys(&pool);
    }

    proptest! {
        /// Two pools live the same life — admissions of one to three
        /// stages over few enough `(cloudlet, vnf)` pairs that buckets
        /// fill up, with masses that let two or three subscribers share,
        /// and releases of chains committed earlier (some already
        /// released) — one planning through the index and one through
        /// the whole-pool scan: plans, commit results, release counts,
        /// ledgers and pool contents never differ.
        #[test]
        fn indexed_plan_equals_the_whole_pool_scan(
            seed in 0u64..u64::MAX,
            steps in 1usize..60,
            dedicated in 0u8..4,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mode = if dedicated == 0 { BackupMode::Dedicated } else { BackupMode::Shared };
            let (mut led, mut scan_led) = (ledger(&[7, 5, 9]), ledger(&[7, 5, 9]));
            let (mut pool, mut scan_pool) =
                (SharedBackupPool::new(0.1), SharedBackupPool::new(0.1));
            let mut committed: Vec<usize> = Vec::new();
            for chain in 0..steps {
                if rng.gen_range(0u32..5) > 0 {
                    let needs: Vec<StageNeed> = (0..rng.gen_range(1usize..=3))
                        .map(|k| {
                            // A type's compute is a property of the type.
                            let vnf = rng.gen_range(0usize..5);
                            need(
                                k,
                                vnf,
                                1 + vnf as u64 % 2,
                                rng.gen_range(0usize..3),
                                [0.01, 0.03, 0.04][rng.gen_range(0usize..3)],
                            )
                        })
                        .collect();
                    let first = rng.gen_range(0usize..8);
                    let last = first + rng.gen_range(0usize..3);
                    let earmarked = f64::from(rng.gen_range(0u8..3));
                    let pending = move |j: CloudletId, _t: TimeSlot| {
                        if j.index() == 0 { earmarked } else { 0.0 }
                    };
                    let plan = pool.plan(mode, &needs, first, last, &led, &pending);
                    let scanned =
                        plan_by_scan(&scan_pool, mode, &needs, first, last, &scan_led, &pending);
                    prop_assert_eq!(&plan, &scanned);
                    if let Some(plan) = plan {
                        prop_assert_eq!(
                            pool.commit(&plan, chain, &mut led),
                            scan_pool.commit(&plan, chain, &mut scan_led)
                        );
                        committed.push(chain);
                    }
                } else if !committed.is_empty() {
                    let chain = committed[rng.gen_range(0..committed.len())];
                    prop_assert_eq!(
                        pool.release_chain(chain, &mut led),
                        scan_pool.release_chain(chain, &mut scan_led)
                    );
                }
                prop_assert_eq!(&pool, &scan_pool);
                prop_assert_eq!(led.used_grid(), scan_led.used_grid());
                prop_assert_eq!(led.max_overflow(), 0.0);
                assert_index_matches_standbys(&pool);
            }
        }
    }
}
