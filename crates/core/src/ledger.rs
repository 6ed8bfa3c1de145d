use std::collections::HashMap;
use std::fmt;

use mec_topology::CloudletId;
use mec_topology::Network;
use mec_workload::{Horizon, TimeSlot};

/// Handle for an in-flight two-phase reservation created by
/// [`CapacityLedger::try_reserve_window`]. Resolved by either
/// [`CapacityLedger::commit_reservation`] (the capacity becomes a real
/// charge) or [`CapacityLedger::cancel_reservation`] (the hold is
/// returned). Ids are never reused within one ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReservationId(u64);

impl ReservationId {
    /// The raw id, for diagnostics.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// One pending window hold: enough to undo or commit it later.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reservation {
    cloudlet: usize,
    first: TimeSlot,
    last: TimeSlot,
    amount: f64,
}

/// Per-cloudlet, per-slot accounting of committed computing capacity.
///
/// Stored as `f64` so the scaling ablation (which inflates demands by a
/// non-integer factor, after Fan & Ansari) can charge fractional amounts.
/// The ledger supports deliberate over-commitment: the *raw* Algorithm 1
/// may violate capacity by a bounded amount (Lemma 8), and
/// [`CapacityLedger::max_overflow`] reports the worst violation observed.
///
/// # The high-water invariant
///
/// Each row `j` carries a mark `high[j]`, one past the furthest slot any
/// charge ever touched: `used` is zero (`±0.0`) at every slot
/// `t ≥ high[j]`. Every charging call raises the mark once to cover its
/// window, [`CapacityLedger::restore_used`] sets it to one past the last
/// non-zero cell, and [`CapacityLedger::release`] never lowers it (a
/// mark that sits too high only costs reads of zeros). The whole-grid
/// reads — [`CapacityLedger::max_overflow`],
/// [`CapacityLedger::mean_utilization`] — stop at the mark and return
/// the bits a full sweep would: a skipped cell adds `0/cap = 0.0` to a
/// non-negative sum and offers `0/cap − 1 < 0` to a maximum that starts
/// at zero.
///
/// Equality compares state — capacities, shape, `used` and the
/// outstanding reservations: the marks and the hold grid's allocation
/// are bookkeeping, so a ledger restored from
/// [`CapacityLedger::used_grid`] equals the live one and one that
/// reserved and cancelled equals one that never reserved.
#[derive(Debug, Clone)]
pub struct CapacityLedger {
    caps: Vec<f64>,
    /// Row-major residual grid: `used[cloudlet * slots + slot]`. One
    /// contiguous buffer keeps the per-request window scans of the hot
    /// scheduling path on a single cache line per cloudlet.
    used: Vec<f64>,
    /// Per row, one past the furthest slot ever charged; `used` is zero
    /// from there on.
    high: Vec<usize>,
    /// Row-major grid of capacity held by in-flight two-phase
    /// reservations (same shape as `used`), allocated by the first
    /// [`CapacityLedger::try_reserve_window`]: no scheduler or daemon
    /// reserves, so a run never pays for it. All-zero whenever
    /// `reservations` is empty, and read only when it is not.
    reserved: Vec<f64>,
    /// Outstanding reservations by id. Committing moves the held
    /// capacity into `used`; cancelling returns it.
    reservations: HashMap<u64, Reservation>,
    next_reservation: u64,
    slots: usize,
    horizon: Horizon,
}

impl PartialEq for CapacityLedger {
    fn eq(&self, other: &Self) -> bool {
        self.caps == other.caps
            && self.slots == other.slots
            && self.horizon == other.horizon
            && self.used == other.used
            && self.reservations == other.reservations
    }
}

impl CapacityLedger {
    /// Creates a ledger covering every cloudlet of `network` over `horizon`.
    pub fn new(network: &Network, horizon: Horizon) -> Self {
        let caps: Vec<f64> = network.cloudlets().map(|c| c.capacity() as f64).collect();
        let slots = horizon.len();
        let used = vec![0.0; slots * caps.len()];
        let high = vec![0; caps.len()];
        CapacityLedger {
            caps,
            used,
            high,
            reserved: Vec::new(),
            reservations: HashMap::new(),
            next_reservation: 0,
            slots,
            horizon,
        }
    }

    /// Capacity `cap_j` of a cloudlet.
    ///
    /// # Panics
    ///
    /// Panics if `cloudlet` is out of range.
    #[inline]
    pub fn capacity(&self, cloudlet: CloudletId) -> f64 {
        self.caps[cloudlet.index()]
    }

    /// Committed usage of a cloudlet in a slot.
    ///
    /// # Panics
    ///
    /// Panics if `cloudlet` or `slot` is out of range.
    #[inline]
    pub fn used(&self, cloudlet: CloudletId, slot: TimeSlot) -> f64 {
        self.used[cloudlet.index() * self.slots + slot]
    }

    /// Remaining capacity of a cloudlet in a slot (may be negative after
    /// deliberate over-commitment).
    #[inline]
    pub fn residual(&self, cloudlet: CloudletId, slot: TimeSlot) -> f64 {
        self.caps[cloudlet.index()] - self.used[cloudlet.index() * self.slots + slot]
    }

    /// Capacity held by outstanding reservations on a cloudlet in a slot.
    #[inline]
    pub fn reserved(&self, cloudlet: CloudletId, slot: TimeSlot) -> f64 {
        self.held(cloudlet.index() * self.slots + slot)
    }

    /// The charged prefix of a cloudlet's row: committed usage in slots
    /// `0..high`, where `high` is one past the furthest slot ever
    /// charged. Every slot beyond the slice holds zero.
    ///
    /// # Panics
    ///
    /// Panics if `cloudlet` is out of range.
    #[inline]
    pub fn charged_row(&self, cloudlet: CloudletId) -> &[f64] {
        let j = cloudlet.index();
        &self.used[j * self.slots..][..self.high[j]]
    }

    /// Raises row `j`'s high-water mark to at least `end`, one past the
    /// last slot a charge touched.
    #[inline]
    fn mark(&mut self, j: usize, end: usize) {
        self.high[j] = self.high[j].max(end);
    }

    /// Reservation hold on a raw grid cell; `0.0` without the grid read
    /// when no reservation is outstanding anywhere.
    #[inline]
    fn held(&self, idx: usize) -> f64 {
        if self.reservations.is_empty() {
            0.0
        } else {
            self.reserved[idx]
        }
    }

    /// Whether `amount` units fit in every slot of `slots` without
    /// exceeding capacity, counting outstanding reservation holds as
    /// unavailable.
    #[inline]
    pub fn fits<I>(&self, cloudlet: CloudletId, slots: I, amount: f64) -> bool
    where
        I: IntoIterator<Item = TimeSlot>,
    {
        let base = cloudlet.index() * self.slots;
        slots
            .into_iter()
            .all(|t| self.residual(cloudlet, t) - self.held(base + t) + 1e-9 >= amount)
    }

    /// [`CapacityLedger::fits`] over the inclusive window
    /// `[first, last]`, as a branch-light scan of the contiguous row —
    /// the form the schedulers use on every (request, cloudlet) pair.
    /// The no-reservation fast path reads only the `used` row.
    #[inline]
    pub fn fits_window(
        &self,
        cloudlet: CloudletId,
        first: TimeSlot,
        last: TimeSlot,
        amount: f64,
    ) -> bool {
        debug_assert!(last < self.slots);
        let cap = self.caps[cloudlet.index()];
        let base = cloudlet.index() * self.slots;
        if self.reservations.is_empty() {
            self.used[base + first..=base + last]
                .iter()
                .all(|&u| cap - u + 1e-9 >= amount)
        } else {
            self.used[base + first..=base + last]
                .iter()
                .zip(&self.reserved[base + first..=base + last])
                .all(|(&u, &r)| cap - u - r + 1e-9 >= amount)
        }
    }

    /// [`CapacityLedger::fits_window`] over the one slot `slot`: the
    /// first cell of its scan, with the same holds and tolerance, as a
    /// direct cell read. Every capacity-first scan asks it at the arrival
    /// slot before the window: Algorithm 2 of every priced cloudlet, so a
    /// cloudlet full there is never ordered; Algorithm 1 of every
    /// eligible cloudlet, so one full there is never a gate candidate;
    /// both greedy baselines of each cloudlet they try.
    #[inline]
    pub(crate) fn fits_slot(&self, cloudlet: CloudletId, slot: TimeSlot, amount: f64) -> bool {
        let idx = cloudlet.index() * self.slots + slot;
        self.caps[cloudlet.index()] - self.used[idx] - self.held(idx) + 1e-9 >= amount
    }

    /// Commits `amount` units in every slot of `slots`, allowing
    /// over-commitment (callers that must not overflow check
    /// [`CapacityLedger::fits`] first).
    #[inline]
    pub fn charge<I>(&mut self, cloudlet: CloudletId, slots: I, amount: f64)
    where
        I: IntoIterator<Item = TimeSlot>,
    {
        let base = cloudlet.index() * self.slots;
        let mut end = 0;
        for t in slots {
            debug_assert!(t < self.slots);
            self.used[base + t] += amount;
            end = end.max(t + 1);
        }
        self.mark(cloudlet.index(), end);
    }

    /// [`CapacityLedger::charge`] over the inclusive window
    /// `[first, last]` on the contiguous row.
    #[inline]
    pub fn charge_window(
        &mut self,
        cloudlet: CloudletId,
        first: TimeSlot,
        last: TimeSlot,
        amount: f64,
    ) {
        debug_assert!(last < self.slots);
        let base = cloudlet.index() * self.slots;
        for u in &mut self.used[base + first..=base + last] {
            *u += amount;
        }
        self.mark(cloudlet.index(), last + 1);
    }

    /// Returns `amount` units in every slot of `slots` — the inverse of
    /// [`CapacityLedger::charge`], used when a placement dies (cloudlet
    /// outage, instance kill) or is torn down for re-placement.
    ///
    /// The whole release is validated before any cell is mutated: on
    /// error the ledger is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`VnfrelError::ReleaseUnderflow`] when any touched cell
    /// holds less than `amount` (within a `1e-9` tolerance) — i.e. the
    /// caller is releasing capacity that was never charged.
    pub fn release<I>(
        &mut self,
        cloudlet: CloudletId,
        slots: I,
        amount: f64,
    ) -> Result<(), crate::VnfrelError>
    where
        I: IntoIterator<Item = TimeSlot> + Clone,
    {
        let row =
            &mut self.used[cloudlet.index() * self.slots..(cloudlet.index() + 1) * self.slots];
        for t in slots.clone() {
            if row[t] + 1e-9 < amount {
                return Err(crate::VnfrelError::ReleaseUnderflow {
                    cloudlet: cloudlet.index(),
                    slot: t,
                    used: row[t],
                    amount,
                });
            }
        }
        for t in slots {
            // Clamp at zero so a full release of the last charge cannot
            // leave a −1e-16 residue from float rounding.
            row[t] = (row[t] - amount).max(0.0);
        }
        Ok(())
    }

    /// First phase of a two-phase cross-owner charge: holds `amount`
    /// units over the inclusive window `[first, last]` if (and only if)
    /// they fit after subtracting both committed usage and every other
    /// outstanding hold. The hold keeps concurrent reservers from
    /// overbooking the same headroom; it becomes a real charge on
    /// [`CapacityLedger::commit_reservation`] and evaporates on
    /// [`CapacityLedger::cancel_reservation`].
    ///
    /// Self-contained: no scheduler or daemon in this workspace reserves;
    /// `tests/reserve_commit.rs` audits the protocol and the benchmark
    /// times it (`core.ledger.reserve_commit_ns`).
    ///
    /// Returns `None` (ledger untouched) when the window does not fit
    /// or `amount` is non-positive or non-finite.
    ///
    /// # Panics
    ///
    /// Panics if `cloudlet` or the window is out of range.
    pub fn try_reserve_window(
        &mut self,
        cloudlet: CloudletId,
        first: TimeSlot,
        last: TimeSlot,
        amount: f64,
    ) -> Option<ReservationId> {
        if !amount.is_finite() || amount <= 0.0 {
            return None;
        }
        if !self.fits_window(cloudlet, first, last, amount) {
            return None;
        }
        if self.reserved.is_empty() {
            self.reserved = vec![0.0; self.used.len()];
        }
        let base = cloudlet.index() * self.slots;
        for r in &mut self.reserved[base + first..=base + last] {
            *r += amount;
        }
        let id = self.next_reservation;
        self.next_reservation += 1;
        self.reservations.insert(
            id,
            Reservation {
                cloudlet: cloudlet.index(),
                first,
                last,
                amount,
            },
        );
        Some(ReservationId(id))
    }

    /// Second phase, success arm: converts the hold into a committed
    /// charge (the reservation id is consumed).
    ///
    /// # Errors
    ///
    /// Returns [`VnfrelError::UnknownReservation`](crate::VnfrelError)
    /// when `id` was never issued or was already resolved.
    pub fn commit_reservation(&mut self, id: ReservationId) -> Result<(), crate::VnfrelError> {
        let rsv = self
            .reservations
            .remove(&id.0)
            .ok_or(crate::VnfrelError::UnknownReservation { id: id.0 })?;
        let base = rsv.cloudlet * self.slots;
        for idx in base + rsv.first..=base + rsv.last {
            // Clamp at zero so releasing the last hold on a cell cannot
            // leave a −1e-16 residue from float rounding.
            self.reserved[idx] = (self.reserved[idx] - rsv.amount).max(0.0);
            self.used[idx] += rsv.amount;
        }
        self.mark(rsv.cloudlet, rsv.last + 1);
        Ok(())
    }

    /// Second phase, failure arm: returns the held capacity without
    /// charging anything (the reservation id is consumed).
    ///
    /// # Errors
    ///
    /// Returns [`VnfrelError::UnknownReservation`](crate::VnfrelError)
    /// when `id` was never issued or was already resolved.
    pub fn cancel_reservation(&mut self, id: ReservationId) -> Result<(), crate::VnfrelError> {
        let rsv = self
            .reservations
            .remove(&id.0)
            .ok_or(crate::VnfrelError::UnknownReservation { id: id.0 })?;
        let base = rsv.cloudlet * self.slots;
        for idx in base + rsv.first..=base + rsv.last {
            self.reserved[idx] = (self.reserved[idx] - rsv.amount).max(0.0);
        }
        Ok(())
    }

    /// Number of unresolved reservations.
    #[inline]
    pub fn reservation_count(&self) -> usize {
        self.reservations.len()
    }

    /// The committed-usage grid in row-major
    /// `used[cloudlet * slots + slot]` order — the complete mutable
    /// state of the ledger. Reservation holds are deliberately *not*
    /// part of this grid: a snapshot taken mid-two-phase must persist
    /// only committed charges, so a crash between reserve and commit
    /// loses the hold rather than leaking a phantom charge. Used by
    /// snapshot/restore in `mec-serve`.
    #[inline]
    pub fn used_grid(&self) -> &[f64] {
        &self.used
    }

    /// Replaces the committed-usage grid with `grid`.
    ///
    /// Capacities, slot count and horizon are construction-time
    /// invariants and are *not* part of the restore payload; callers
    /// must rebuild the ledger from the same network/horizon first.
    /// Negative cells are rejected, but over-committed cells (above
    /// capacity) are accepted — the raw Algorithm 1 legitimately
    /// overflows by a bounded amount.
    ///
    /// # Errors
    ///
    /// Returns [`VnfrelError::StateRestore`](crate::VnfrelError) when
    /// `grid` has the wrong length or holds a negative or non-finite
    /// value.
    pub fn restore_used(&mut self, grid: &[f64]) -> Result<(), crate::VnfrelError> {
        if grid.len() != self.used.len() {
            return Err(crate::VnfrelError::StateRestore(
                "usage grid length mismatch",
            ));
        }
        if grid.iter().any(|u| !u.is_finite() || *u < 0.0) {
            return Err(crate::VnfrelError::StateRestore(
                "negative or non-finite usage in snapshot",
            ));
        }
        self.used.copy_from_slice(grid);
        for (high, row) in self.high.iter_mut().zip(grid.chunks_exact(self.slots)) {
            *high = row.iter().rposition(|&u| u != 0.0).map_or(0, |t| t + 1);
        }
        // Restore adopts a snapshot's committed world: any reservation
        // still in flight belongs to the pre-crash incarnation and must
        // not survive as a hold (kill-mid-reserve drops, never charges).
        self.reservations.clear();
        self.reserved.fill(0.0);
        Ok(())
    }

    /// Largest relative violation `max(0, used/cap − 1)` over all
    /// cloudlets and slots.
    pub fn max_overflow(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for (j, &cap) in self.caps.iter().enumerate() {
            for &u in self.charged_row(CloudletId(j)) {
                worst = worst.max(u / cap - 1.0);
            }
        }
        worst.max(0.0)
    }

    /// Mean utilization (used/cap averaged over cloudlets and slots),
    /// counting over-committed slots at their real ratio.
    pub fn mean_utilization(&self) -> f64 {
        let mut total = 0.0;
        for (j, &cap) in self.caps.iter().enumerate() {
            for &u in self.charged_row(CloudletId(j)) {
                total += u / cap;
            }
        }
        // The uncharged cells count as the zeros they hold.
        let cells = self.used.len();
        if cells == 0 {
            0.0
        } else {
            total / cells as f64
        }
    }

    /// Number of cloudlets tracked.
    pub fn cloudlet_count(&self) -> usize {
        self.caps.len()
    }

    /// The horizon this ledger covers.
    pub fn horizon(&self) -> Horizon {
        self.horizon
    }
}

impl fmt::Display for CapacityLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ledger: {} cloudlets × {} slots, mean util {:.3}, max overflow {:.3}",
            self.caps.len(),
            self.horizon.len(),
            self.mean_utilization(),
            self.max_overflow()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::{NetworkBuilder, Reliability};

    fn ledger() -> CapacityLedger {
        ledger_over(5)
    }

    /// Two cloudlets of capacity 10 and 4 over `slots` slots.
    fn ledger_over(slots: usize) -> CapacityLedger {
        let mut b = NetworkBuilder::new();
        let a = b.add_ap("a");
        let c = b.add_ap("b");
        b.add_cloudlet(a, 10, Reliability::new(0.99).unwrap())
            .unwrap();
        b.add_cloudlet(c, 4, Reliability::new(0.95).unwrap())
            .unwrap();
        CapacityLedger::new(&b.build().unwrap(), Horizon::new(slots))
    }

    /// The whole-grid sweeps `max_overflow` and `mean_utilization` were
    /// before the high-water mark bounded them — the oracle the bounded
    /// reads must match bit for bit.
    fn whole_grid_reads(l: &CapacityLedger) -> (f64, f64) {
        let mut worst: f64 = 0.0;
        let mut total = 0.0;
        let mut cells = 0usize;
        for (j, row) in l.used.chunks_exact(l.slots).enumerate() {
            for &u in row {
                worst = worst.max(u / l.caps[j] - 1.0);
                total += u / l.caps[j];
                cells += 1;
            }
        }
        (worst.max(0.0), total / cells as f64)
    }

    fn assert_bounded_reads_match(l: &CapacityLedger, ctx: &str) {
        let (overflow, mean) = whole_grid_reads(l);
        assert_eq!(l.max_overflow().to_bits(), overflow.to_bits(), "{ctx}");
        assert_eq!(l.mean_utilization().to_bits(), mean.to_bits(), "{ctx}");
        for (j, row) in l.used.chunks_exact(l.slots).enumerate() {
            assert!(l.high[j] <= l.slots, "{ctx}: mark past the row");
            assert!(
                row[l.high[j]..].iter().all(|&u| u == 0.0),
                "{ctx}: row {j} is charged beyond its mark {}",
                l.high[j]
            );
        }
    }

    #[test]
    fn fits_and_charge() {
        let mut l = ledger();
        let c0 = CloudletId(0);
        assert!(l.fits(c0, 0..=2, 10.0));
        assert!(!l.fits(c0, 0..=2, 10.5));
        l.charge(c0, 0..=2, 7.0);
        assert!(l.fits(c0, 0..=2, 3.0));
        assert!(!l.fits(c0, 0..=2, 3.5));
        assert!(l.fits(c0, 3..=4, 10.0)); // other slots untouched
        assert_eq!(l.used(c0, 1), 7.0);
        assert_eq!(l.residual(c0, 1), 3.0);
        assert_eq!(l.used(c0, 4), 0.0);
    }

    #[test]
    fn window_forms_agree_with_iterator_forms() {
        let mut l = ledger();
        let c0 = CloudletId(0);
        l.charge_window(c0, 1, 3, 4.0);
        let mut l2 = ledger();
        l2.charge(c0, 1..=3, 4.0);
        assert_eq!(l, l2, "charge_window must equal charge over the window");
        for amount in [3.0, 6.0, 6.0 + 1e-10, 6.5, 10.0] {
            for (first, last) in [(0, 4), (1, 3), (2, 2), (0, 0), (4, 4)] {
                assert_eq!(
                    l.fits_window(c0, first, last, amount),
                    l.fits(c0, first..=last, amount),
                    "fits_window([{first},{last}], {amount})"
                );
            }
        }
    }

    #[test]
    fn one_slot_read_agrees_with_the_window_scan_at_the_tolerance_edge() {
        let c1 = CloudletId(1); // cap 4
        let mut l = ledger();
        l.charge_window(c1, 0, 4, 2.5);
        // With no hold, then with a hold outstanding on slot 2 only.
        for hold in [None, Some(0.25)] {
            if let Some(h) = hold {
                l.try_reserve_window(c1, 2, 2, h).unwrap();
            }
            let free = 4.0 - 2.5 - hold.unwrap_or(0.0);
            for amount in [free - 1e-9, free, free + 5e-10, free + 1e-9, free + 2e-9] {
                for t in 0..5 {
                    assert_eq!(
                        l.fits_slot(c1, t, amount),
                        l.fits_window(c1, t, t, amount),
                        "slot {t}, amount {amount}, hold {hold:?}"
                    );
                }
            }
            assert!(l.fits_slot(c1, 2, free + 5e-10), "inside the tolerance");
            assert!(!l.fits_slot(c1, 2, free + 2e-9), "past the tolerance");
        }
        assert!(
            l.fits_slot(c1, 1, 1.5) && !l.fits_slot(c1, 2, 1.5),
            "holds count"
        );
    }

    #[test]
    fn overflow_tracking() {
        let mut l = ledger();
        let c1 = CloudletId(1); // cap 4
        assert_eq!(l.max_overflow(), 0.0);
        l.charge(c1, 0..=0, 6.0);
        assert!((l.max_overflow() - 0.5).abs() < 1e-12);
        assert!(l.residual(c1, 0) < 0.0);
    }

    #[test]
    fn utilization_average() {
        let mut l = ledger();
        // Fill cloudlet 0 fully in all 5 slots: 5 cells at 1.0, 5 at 0.
        l.charge(CloudletId(0), 0..5, 10.0);
        assert!((l.mean_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn release_inverts_charge() {
        let mut l = ledger();
        let c0 = CloudletId(0);
        l.charge(c0, 0..=2, 7.0);
        l.charge(c0, 1..=3, 2.0);
        l.release(c0, 0..=2, 7.0).unwrap();
        assert_eq!(l.used(c0, 0), 0.0);
        assert_eq!(l.used(c0, 1), 2.0);
        assert_eq!(l.used(c0, 3), 2.0);
        l.release(c0, 1..=3, 2.0).unwrap();
        for t in 0..5 {
            assert_eq!(l.used(c0, t), 0.0);
        }
    }

    #[test]
    fn release_of_uncharged_capacity_is_rejected_atomically() {
        let mut l = ledger();
        let c0 = CloudletId(0);
        l.charge(c0, 0..=1, 5.0);
        // Slot 2 was never charged: the whole release must fail and
        // leave slots 0–1 untouched.
        let err = l.release(c0, 0..=2, 5.0).unwrap_err();
        assert!(matches!(
            err,
            crate::VnfrelError::ReleaseUnderflow { slot: 2, .. }
        ));
        assert_eq!(l.used(c0, 0), 5.0);
        assert_eq!(l.used(c0, 1), 5.0);
        assert_eq!(l.used(c0, 2), 0.0);
    }

    #[test]
    fn reserve_commit_turns_hold_into_charge() {
        let mut l = ledger();
        let c0 = CloudletId(0); // cap 10
        let rsv = l.try_reserve_window(c0, 1, 3, 6.0).unwrap();
        assert_eq!(l.reservation_count(), 1);
        assert_eq!(l.reserved(c0, 2), 6.0);
        // The hold is invisible to the committed grid but blocks fits.
        assert_eq!(l.used(c0, 2), 0.0);
        assert!(!l.fits_window(c0, 1, 3, 5.0));
        assert!(l.fits_window(c0, 1, 3, 4.0));
        assert!(l.fits_window(c0, 4, 4, 10.0)); // outside the window
        l.commit_reservation(rsv).unwrap();
        assert_eq!(l.reservation_count(), 0);
        assert_eq!(l.reserved(c0, 2), 0.0);
        assert_eq!(l.used(c0, 2), 6.0);
        assert!(!l.fits_window(c0, 1, 3, 5.0));
    }

    #[test]
    fn cancel_returns_the_hold_untouched() {
        let mut l = ledger();
        let c0 = CloudletId(0);
        let rsv = l.try_reserve_window(c0, 0, 4, 9.0).unwrap();
        assert!(l.try_reserve_window(c0, 2, 2, 2.0).is_none());
        l.cancel_reservation(rsv).unwrap();
        assert_eq!(l.reservation_count(), 0);
        assert!(l.fits_window(c0, 0, 4, 10.0));
        for t in 0..5 {
            assert_eq!(l.used(c0, t), 0.0);
            assert_eq!(l.reserved(c0, t), 0.0);
        }
    }

    #[test]
    fn reservation_ids_resolve_exactly_once() {
        let mut l = ledger();
        let c0 = CloudletId(0);
        let rsv = l.try_reserve_window(c0, 0, 0, 1.0).unwrap();
        l.commit_reservation(rsv).unwrap();
        assert!(matches!(
            l.commit_reservation(rsv),
            Err(crate::VnfrelError::UnknownReservation { .. })
        ));
        assert!(matches!(
            l.cancel_reservation(rsv),
            Err(crate::VnfrelError::UnknownReservation { .. })
        ));
    }

    #[test]
    fn concurrent_holds_cannot_overbook() {
        let mut l = ledger();
        let c1 = CloudletId(1); // cap 4
        let a = l.try_reserve_window(c1, 0, 2, 3.0).unwrap();
        // Second reserver sees the first hold and is refused.
        assert!(l.try_reserve_window(c1, 1, 1, 2.0).is_none());
        let b = l.try_reserve_window(c1, 1, 1, 1.0).unwrap();
        l.commit_reservation(a).unwrap();
        l.commit_reservation(b).unwrap();
        assert_eq!(l.used(c1, 1), 4.0);
        assert_eq!(l.max_overflow(), 0.0);
    }

    #[test]
    fn degenerate_reserve_amounts_are_refused() {
        let mut l = ledger();
        let c0 = CloudletId(0);
        assert!(l.try_reserve_window(c0, 0, 0, 0.0).is_none());
        assert!(l.try_reserve_window(c0, 0, 0, -1.0).is_none());
        assert!(l.try_reserve_window(c0, 0, 0, f64::NAN).is_none());
        assert!(l.try_reserve_window(c0, 0, 0, f64::INFINITY).is_none());
        assert_eq!(l.reservation_count(), 0);
    }

    #[test]
    fn restore_drops_in_flight_reservations() {
        let mut l = ledger();
        let c0 = CloudletId(0);
        l.charge_window(c0, 0, 1, 2.0);
        let snapshot: Vec<f64> = l.used_grid().to_vec();
        let rsv = l.try_reserve_window(c0, 2, 4, 5.0).unwrap();
        // The snapshot grid never saw the hold...
        assert_eq!(l.used_grid(), snapshot.as_slice());
        // ...and restoring (the kill-mid-reserve path) forgets it.
        l.restore_used(&snapshot).unwrap();
        assert_eq!(l.reservation_count(), 0);
        assert!(l.fits_window(c0, 2, 4, 10.0));
        assert!(matches!(
            l.commit_reservation(rsv),
            Err(crate::VnfrelError::UnknownReservation { .. })
        ));
    }

    #[test]
    fn the_mark_follows_charges_and_survives_releases() {
        let mut l = ledger_over(12);
        let (c0, c1) = (CloudletId(0), CloudletId(1));
        assert_eq!(l.high, [0, 0]);
        l.charge_window(c0, 2, 5, 3.0);
        assert_eq!(l.high, [6, 0]);
        l.charge(c1, [7, 1, 4], 6.0); // not in slot order; overflows cap 4
        assert_eq!(l.high, [6, 8]);
        l.charge_window(c0, 0, 1, 1.0);
        assert_eq!(l.high, [6, 8], "a window below the mark leaves it");
        assert_eq!(l.charged_row(c0), [1.0, 1.0, 3.0, 3.0, 3.0, 3.0]);
        assert_bounded_reads_match(&l, "charged");
        assert!((l.max_overflow() - 0.5).abs() < 1e-12);

        // Emptying the furthest slot never lowers the mark…
        l.release(c1, [7], 6.0).unwrap();
        assert_eq!(l.high, [6, 8]);
        assert_bounded_reads_match(&l, "released");
        // …a restore of that grid, trailing zeros and all, does.
        let saved = l.used_grid().to_vec();
        let mut restored = ledger_over(12);
        restored.restore_used(&saved).unwrap();
        assert_eq!(restored.high, [6, 5]);
        assert_bounded_reads_match(&restored, "restored");
        assert_eq!(restored, l, "equality is on state, not on the marks");

        let rsv = l.try_reserve_window(c0, 9, 11, 2.0).unwrap();
        assert_eq!(l.high, [6, 8], "a hold is not a charge");
        l.commit_reservation(rsv).unwrap();
        assert_eq!(l.high, [12, 8]);
        assert_bounded_reads_match(&l, "committed");
    }

    #[test]
    fn equality_ignores_the_hold_grid_allocation() {
        let mut reserved = ledger();
        let never = ledger();
        assert!(never.reserved.is_empty(), "new allocates one grid");
        let rsv = reserved
            .try_reserve_window(CloudletId(0), 1, 3, 2.0)
            .unwrap();
        assert_ne!(reserved, never, "an outstanding hold is state");
        reserved.cancel_reservation(rsv).unwrap();
        assert!(!reserved.reserved.is_empty());
        assert_eq!(reserved, never);
        assert_eq!(reserved.reserved(CloudletId(0), 2), 0.0);
        assert_eq!(never.reserved(CloudletId(0), 2), 0.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `max_overflow` and `mean_utilization` return the bits of a
        /// whole-grid sweep, and nothing is charged at or beyond a row's
        /// mark, under random schedules of every mutating call.
        #[test]
        fn bounded_reads_are_bit_identical_to_a_whole_grid_sweep(
            seed in 0u64..u64::MAX,
            slots in 1usize..40,
            steps in 1usize..80,
        ) {
            let mut l = ledger_over(slots);
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // What a later step may release or resolve. Amounts are
            // multiples of 1/4 so charges and releases cancel exactly.
            let mut charges: Vec<(CloudletId, Vec<TimeSlot>, f64)> = Vec::new();
            let mut holds: Vec<ReservationId> = Vec::new();
            for step in 0..steps {
                let c = CloudletId((next() % 2) as usize);
                let first = (next() % slots as u64) as usize;
                let last = first + (next() % (slots - first) as u64) as usize;
                let amount = (1 + next() % 12) as f64 / 4.0;
                match next() % 8 {
                    0 => {
                        l.charge_window(c, first, last, amount);
                        charges.push((c, (first..=last).collect(), amount));
                    }
                    // The window's slots, furthest first.
                    1 => {
                        let order: Vec<TimeSlot> = (first..=last).rev().collect();
                        l.charge(c, order.iter().copied(), amount);
                        charges.push((c, order, amount));
                    }
                    // Release a live charge — the one reaching furthest
                    // every other time, so marks end up above their rows.
                    2 | 3 if !charges.is_empty() => {
                        let i = if next() % 2 == 0 {
                            let reach = |(_, s, _): &(_, Vec<TimeSlot>, _)| s.iter().copied().max();
                            (0..charges.len()).max_by_key(|&i| reach(&charges[i])).unwrap()
                        } else {
                            (next() % charges.len() as u64) as usize
                        };
                        let (c, order, amount) = charges.swap_remove(i);
                        l.release(c, order, amount).unwrap();
                    }
                    4 => holds.extend(l.try_reserve_window(c, first, last, amount)),
                    5 if !holds.is_empty() => {
                        let id = holds.swap_remove((next() % holds.len() as u64) as usize);
                        if next() % 2 == 0 {
                            let rsv = l.reservations[&id.0];
                            l.commit_reservation(id).unwrap();
                            charges.push((
                                CloudletId(rsv.cloudlet),
                                (rsv.first..=rsv.last).collect(),
                                rsv.amount,
                            ));
                        } else {
                            l.cancel_reservation(id).unwrap();
                        }
                    }
                    // Restore from the live grid (trailing zeros where
                    // releases emptied the furthest slots); drops holds.
                    6 => {
                        let saved = l.used_grid().to_vec();
                        let live = l.clone();
                        l.restore_used(&saved).unwrap();
                        holds.clear();
                        for (j, row) in saved.chunks_exact(slots).enumerate() {
                            let end = row.iter().rposition(|&u| u != 0.0).map_or(0, |t| t + 1);
                            proptest::prop_assert_eq!(l.high[j], end);
                            proptest::prop_assert!(l.high[j] <= live.high[j]);
                        }
                        if live.reservation_count() == 0 {
                            proptest::prop_assert_eq!(&l, &live);
                        }
                    }
                    _ => {}
                }
                assert_bounded_reads_match(&l, &format!("seed {seed} step {step}"));
            }
        }
    }

    #[test]
    fn display_summarises() {
        let l = ledger();
        assert!(l.to_string().contains("2 cloudlets"));
        assert_eq!(l.cloudlet_count(), 2);
        assert_eq!(l.horizon().len(), 5);
    }
}
