//! Flat dual-price storage with per-cloudlet prefix sums.
//!
//! Both primal-dual schedulers maintain one dual price `λ_{tj}` per
//! (slot, cloudlet) and repeatedly need the window sum
//! `Σ_{t ∈ [a_i, d_i]} λ_{tj}` for *every* cloudlet on *every* arrival.
//! [`DualPrices`] stores the grid row-major (one contiguous row per
//! cloudlet) and maintains, per row, the exclusive prefix sums
//! `P_j[s] = Σ_{u < s} λ_{uj}`, so a window sum is two loads and a
//! subtraction — O(1) per cloudlet instead of O(|window|).
//!
//! # The high-water invariant
//!
//! The paper's dual updates (Eq. 34, Eq. 67) touch only the admitted
//! request's active slots, and an online stream's windows advance with
//! time, so at any moment a row is non-zero only up to some slot and
//! zero beyond it. Each row keeps that boundary as a
//! *high-water mark* `high[j]`: one past the furthest slot any update
//! has touched. Two facts hold for every row at all times:
//!
//! 1. `λ_{uj}` is zero (`±0.0`) for every `u ≥ high[j]`;
//! 2. `P_j[s]` for `s ≤ high[j]` is the strict left-to-right fold
//!    `((0.0 + λ_0) + λ_1) + … + λ_{s−1}`. Cells above `high[j]` are
//!    never read and may hold anything.
//!
//! The fold never produces `−0.0` (it starts at `+0.0`, and IEEE-754
//! round-to-nearest addition yields `−0.0` only from two negative
//! zeros), and `x ± 0.0` is `x` bit for bit for every other `x`, so the
//! eagerly folded prefix would be *constant* from `high[j]` on:
//! `P_j[s] = P_j[high[j]]` for all `s ≥ high[j]`. Reads therefore clamp
//! their indices to `high[j]` and return the very bits an eager O(T)
//! fold would have stored — decisions, revenue and golden files do not
//! move — while [`DualPrices::update_window`] re-folds only
//! `min(first, high[j]) .. max(high[j], last + 1)`: the span of slots
//! that have ever been priced, not the horizon. An admission near the
//! stream's frontier costs O(window); the worst case (a row priced all
//! the way to `T`, an update at slot 0) is the O(T) every update paid
//! before the mark existed.
//!
//! [`DualPrices::row_total`] is bit-identical to the naive
//! `row.iter().sum::<f64>()` the schedulers used before this layout
//! existed; window sums differ from a naive per-slot loop only by float
//! re-association (verified to a 1e-9 relative bound by the property
//! tests below).

/// Dual prices `λ[cloudlet][slot]` in contiguous row-major storage, with
/// per-cloudlet prefix sums for O(1) window queries.
///
/// Equality compares shape and `λ` only: the prefix rows and high-water
/// marks are derived, and prefix cells above a row's mark are
/// unspecified.
#[derive(Debug, Clone)]
pub struct DualPrices {
    cloudlets: usize,
    slots: usize,
    /// `lambda[j * slots + t]` = `λ_{tj}`.
    lambda: Vec<f64>,
    /// `prefix[j * (slots + 1) + s]` = `Σ_{u < s} λ_{uj}` for
    /// `s ≤ high[j]`; unspecified above.
    prefix: Vec<f64>,
    /// Per row, one past the furthest slot an update has touched; every
    /// `λ` at or beyond it is zero.
    high: Vec<usize>,
}

impl PartialEq for DualPrices {
    fn eq(&self, other: &Self) -> bool {
        self.cloudlets == other.cloudlets
            && self.slots == other.slots
            && self.lambda == other.lambda
    }
}

impl DualPrices {
    /// All-zero prices for `cloudlets × slots`.
    pub fn new(cloudlets: usize, slots: usize) -> Self {
        DualPrices {
            cloudlets,
            slots,
            lambda: vec![0.0; cloudlets * slots],
            prefix: vec![0.0; cloudlets * (slots + 1)],
            high: vec![0; cloudlets],
        }
    }

    /// Number of cloudlet rows.
    #[inline]
    pub fn cloudlet_count(&self) -> usize {
        self.cloudlets
    }

    /// Number of slots per row.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The price `λ_{tj}`.
    #[inline]
    pub fn get(&self, cloudlet: usize, slot: usize) -> f64 {
        self.lambda[cloudlet * self.slots + slot]
    }

    /// `Σ_{t ∈ [first, last]} λ_{tj}` (inclusive window) in O(1).
    #[inline]
    pub fn window_sum(&self, cloudlet: usize, first: usize, last: usize) -> f64 {
        debug_assert!(first <= last && last < self.slots);
        let base = cloudlet * (self.slots + 1);
        let high = self.high[cloudlet];
        self.prefix[base + (last + 1).min(high)] - self.prefix[base + first.min(high)]
    }

    /// Total `Σ_t λ_{tj}` of one row — bit-identical to summing the row
    /// left to right.
    #[inline]
    pub fn row_total(&self, cloudlet: usize) -> f64 {
        self.prefix[cloudlet * (self.slots + 1) + self.high[cloudlet]]
    }

    /// The full `λ` grid in row-major `lambda[cloudlet * slots + slot]`
    /// order — the complete mutable state of the structure (the prefix
    /// sums and high-water marks are derived). Used by snapshot/restore
    /// in `mec-serve`.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.lambda
    }

    /// Replaces the `λ` grid with `values`, sets each row's high-water
    /// mark to one past its last non-zero price and rebuilds the prefix
    /// row up to it.
    ///
    /// Prefix rows are accumulated strictly left-to-right, exactly as
    /// incremental [`DualPrices::update_window`] calls would have left
    /// them (positions below an update's window keep their previously
    /// accumulated values, which are themselves left-to-right folds of
    /// unchanged prices) — so a restore from [`DualPrices::values`] is
    /// bit-identical to the live structure and subsequent decisions
    /// reproduce the original stream byte for byte. The restored mark
    /// may sit below the live one (an update can leave trailing zeros);
    /// both read the same bits, by the module-level invariant.
    ///
    /// # Errors
    ///
    /// Returns [`VnfrelError::StateRestore`](crate::VnfrelError) when
    /// `values` has the wrong length or holds a non-finite price.
    pub fn restore(&mut self, values: &[f64]) -> Result<(), crate::VnfrelError> {
        if values.len() != self.lambda.len() {
            return Err(crate::VnfrelError::StateRestore(
                "dual-price grid length mismatch",
            ));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(crate::VnfrelError::StateRestore(
                "non-finite dual price in snapshot",
            ));
        }
        self.lambda.copy_from_slice(values);
        for j in 0..self.cloudlets {
            let row = &self.lambda[j * self.slots..(j + 1) * self.slots];
            let high = row.iter().rposition(|&l| l != 0.0).map_or(0, |t| t + 1);
            self.high[j] = high;
            let prefix = &mut self.prefix[j * (self.slots + 1)..][..=high];
            let mut acc = 0.0;
            prefix[0] = acc;
            for (p, &l) in prefix[1..].iter_mut().zip(row) {
                acc += l;
                *p = acc;
            }
        }
        Ok(())
    }

    /// Applies `f` to `λ_{tj}` for `t ∈ [first, last]` on one cloudlet
    /// row, raises the row's high-water mark to cover the window and
    /// re-folds the prefix row from the window's start to the mark —
    /// O(slots ever priced past `first`), not O(T).
    #[inline]
    pub fn update_window<F>(&mut self, cloudlet: usize, first: usize, last: usize, mut f: F)
    where
        F: FnMut(f64) -> f64,
    {
        debug_assert!(first <= last && last < self.slots);
        let base = cloudlet * self.slots;
        for l in &mut self.lambda[base + first..=base + last] {
            *l = f(*l);
        }
        // A window starting past the mark folds the zeros in between
        // too: those prefix cells were never written.
        let start = first.min(self.high[cloudlet]);
        let end = self.high[cloudlet].max(last + 1);
        self.high[cloudlet] = end;
        let prefix = &mut self.prefix[cloudlet * (self.slots + 1) + start..][..=end - start];
        let mut acc = prefix[0];
        for (p, &l) in prefix[1..]
            .iter_mut()
            .zip(&self.lambda[base + start..base + end])
        {
            acc += l;
            *p = acc;
        }
    }
}

/// Lazily yields candidate indices in ascending `(key, index)` order.
///
/// Replaces a full `sort` of the candidate list with
/// `select_nth_unstable`-style partial selection: keys are partitioned
/// and sorted one small block at a time, so a consumer that stops after
/// the cheapest feasible prefix (the common case — most requests admit
/// on the first candidate or reject quickly) never pays for ordering the
/// rest of the list.
#[derive(Debug)]
pub(crate) struct CheapestFirst<'a> {
    keys: &'a mut Vec<(f64, u32)>,
    /// Keys in `..sorted` are in their final ascending order.
    sorted: usize,
    cursor: usize,
}

/// How many candidates each partial-selection step orders.
const SELECT_BLOCK: usize = 8;

/// Below this size each `next()` does a straight min-scan instead of any
/// partitioning: for the handful of cloudlets in a typical MEC topology
/// one O(m) scan beats even one block sort, and the common consumer
/// stops after a single candidate.
const SCAN_THRESHOLD: usize = 32;

impl<'a> CheapestFirst<'a> {
    #[inline]
    pub(crate) fn new(keys: &'a mut Vec<(f64, u32)>) -> Self {
        CheapestFirst {
            keys,
            sorted: 0,
            cursor: 0,
        }
    }

    /// Index (the `u32` payload) of the next-cheapest candidate.
    #[inline]
    pub(crate) fn next(&mut self) -> Option<u32> {
        if self.cursor >= self.keys.len() {
            return None;
        }
        if self.keys.len() <= SCAN_THRESHOLD {
            // Selection by min-scan: move the cheapest remaining key to
            // the cursor slot. Identical (key, index) order to a full
            // sort, paid one candidate at a time.
            let mut min = self.cursor;
            for i in self.cursor + 1..self.keys.len() {
                let (a, b) = (self.keys[i], self.keys[min]);
                if a.0 < b.0 || (a.0 == b.0 && a.1 < b.1) {
                    min = i;
                }
            }
            self.keys.swap(self.cursor, min);
        } else if self.cursor == self.sorted {
            let cmp = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
            let tail = &mut self.keys[self.sorted..];
            let step = SELECT_BLOCK.min(tail.len());
            if step < tail.len() {
                tail.select_nth_unstable_by(step - 1, cmp);
            }
            tail[..step].sort_unstable_by(cmp);
            self.sorted += step;
        }
        let idx = self.keys[self.cursor].1;
        self.cursor += 1;
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-optimization reference: a naive per-slot sum over a
    /// `Vec<Vec<f64>>` grid, kept to pin the prefix-sum fast path.
    fn naive_window_sum(grid: &[Vec<f64>], j: usize, first: usize, last: usize) -> f64 {
        (first..=last).map(|t| grid[j][t]).sum()
    }

    fn mirrored(prices: &DualPrices) -> Vec<Vec<f64>> {
        (0..prices.cloudlet_count())
            .map(|j| (0..prices.slots()).map(|t| prices.get(j, t)).collect())
            .collect()
    }

    #[test]
    fn window_sum_matches_naive_after_updates() {
        let mut p = DualPrices::new(3, 16);
        // A deterministic pseudo-random update/query schedule.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let j = (next() % 3) as usize;
            let a = (next() % 16) as usize;
            let d = a + (next() as usize % (16 - a));
            let w = (next() % 1000) as f64 / 100.0;
            p.update_window(j, a, d, |l| l * (1.0 + w / 10.0) + w);
            let grid = mirrored(&p);
            for jj in 0..3 {
                for first in 0..16 {
                    for last in first..16 {
                        let fast = p.window_sum(jj, first, last);
                        let naive = naive_window_sum(&grid, jj, first, last);
                        let tol = 1e-9 * naive.abs().max(1.0);
                        assert!(
                            (fast - naive).abs() <= tol,
                            "window [{first},{last}] cloudlet {jj}: {fast} vs {naive}"
                        );
                    }
                }
                // Row totals are accumulated exactly like iter().sum().
                let total: f64 = grid[jj].iter().sum();
                assert_eq!(p.row_total(jj), total);
            }
        }
    }

    /// Test-only oracle: the eager structure this module replaced. Every
    /// prefix row is re-folded left to right over the *whole* horizon
    /// after each mutation, and reads never clamp.
    struct EagerOracle {
        slots: usize,
        lambda: Vec<f64>,
        prefix: Vec<f64>,
    }

    impl EagerOracle {
        fn new(cloudlets: usize, slots: usize) -> Self {
            EagerOracle {
                slots,
                lambda: vec![0.0; cloudlets * slots],
                prefix: vec![0.0; cloudlets * (slots + 1)],
            }
        }

        fn refold(&mut self, j: usize) {
            let mut acc = 0.0;
            self.prefix[j * (self.slots + 1)] = acc;
            for t in 0..self.slots {
                acc += self.lambda[j * self.slots + t];
                self.prefix[j * (self.slots + 1) + t + 1] = acc;
            }
        }

        fn update_window(&mut self, j: usize, first: usize, last: usize, f: impl Fn(f64) -> f64) {
            for t in first..=last {
                let l = &mut self.lambda[j * self.slots + t];
                *l = f(*l);
            }
            self.refold(j);
        }

        fn window_sum(&self, j: usize, first: usize, last: usize) -> f64 {
            let base = j * (self.slots + 1);
            self.prefix[base + last + 1] - self.prefix[base + first]
        }

        fn row_total(&self, j: usize) -> f64 {
            self.prefix[j * (self.slots + 1) + self.slots]
        }
    }

    fn assert_reads_match(p: &DualPrices, oracle: &EagerOracle, context: &str) {
        for j in 0..p.cloudlet_count() {
            assert_eq!(
                p.row_total(j).to_bits(),
                oracle.row_total(j).to_bits(),
                "{context}: row_total({j})"
            );
            for first in 0..p.slots() {
                for last in first..p.slots() {
                    assert_eq!(
                        p.window_sum(j, first, last).to_bits(),
                        oracle.window_sum(j, first, last).to_bits(),
                        "{context}: window_sum({j}, {first}, {last})"
                    );
                }
            }
        }
    }

    /// One past the last non-zero price of row `j`.
    fn last_nonzero_end(p: &DualPrices, j: usize) -> usize {
        (0..p.slots())
            .rev()
            .find(|&t| p.get(j, t) != 0.0)
            .map_or(0, |t| t + 1)
    }

    #[test]
    fn clamped_reads_match_the_eager_fold_at_the_marks_edges() {
        const T: usize = 24;
        let mut p = DualPrices::new(2, T);
        let mut oracle = EagerOracle::new(2, T);
        let bump = |l: f64| l * 1.1 + 0.3;
        let mut apply = |p: &mut DualPrices, j, first, last, what: &str| {
            p.update_window(j, first, last, bump);
            oracle.update_window(j, first, last, bump);
            assert_reads_match(p, &oracle, what);
        };
        apply(&mut p, 0, 3, 5, "first update");
        assert_eq!(p.high[0], 6);
        // Starts past the mark: the never-written cells in between must
        // be folded, not read as they were.
        apply(&mut p, 0, 10, 12, "update starting past the mark");
        assert_eq!(p.high[0], 13);
        // Non-monotone: back below everything priced so far.
        apply(&mut p, 0, 0, 1, "non-monotone update");
        assert_eq!(p.high[0], 13, "the mark never retreats on update");
        apply(&mut p, 0, 0, T - 1, "full-row update");
        assert_eq!(p.high[0], T);
        assert_eq!(p.high[1], 0, "an untouched row stays unmarked");
    }

    #[test]
    fn restore_sets_the_mark_to_the_last_nonzero_price() {
        const T: usize = 16;
        let mut p = DualPrices::new(3, T);
        let mut oracle = EagerOracle::new(3, T);
        p.update_window(0, 2, 9, |_| 1.5);
        // Trailing zeros inside an update's window: the live mark covers
        // them, a restored one does not.
        p.update_window(0, 6, 9, |_| 0.0);
        p.update_window(2, T - 1, T - 1, |_| 0.25);
        assert_eq!(p.high, [10, 0, T]);

        let saved = p.values().to_vec();
        let mut restored = DualPrices::new(3, T);
        // Stale prefix cells above the restored mark must never be read.
        restored.update_window(0, 0, T - 1, |_| 99.0);
        restored.update_window(1, 0, T - 1, |_| 99.0);
        restored.restore(&saved).unwrap();
        assert_eq!(restored.high, [6, 0, T]);
        assert_eq!(restored, p, "equality is on shape and λ only");

        oracle.lambda.copy_from_slice(&saved);
        (0..3).for_each(|j| oracle.refold(j));
        assert_reads_match(&p, &oracle, "live");
        assert_reads_match(&restored, &oracle, "restored");

        // Restore-then-update, starting past the restored mark.
        let bump = |l: f64| l * 1.25 + 0.125;
        restored.update_window(0, 8, 11, bump);
        restored.update_window(1, 4, 4, bump);
        oracle.update_window(0, 8, 11, bump);
        oracle.update_window(1, 4, 4, bump);
        assert_reads_match(&restored, &oracle, "restore then update");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `window_sum` and `row_total` return the bits an eager
        /// whole-row fold would, under random update / restore schedules
        /// with no ordering between windows.
        #[test]
        fn reads_are_bit_identical_to_an_eager_whole_row_fold(
            seed in 0u64..u64::MAX,
            slots in 1usize..40,
            steps in 1usize..60,
        ) {
            const M: usize = 3;
            let mut p = DualPrices::new(M, slots);
            let mut oracle = EagerOracle::new(M, slots);
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for step in 0..steps {
                let j = (next() % M as u64) as usize;
                match next() % 8 {
                    // Restore from the live grid, or from an all-zero
                    // one; both must leave the mark at the last non-zero
                    // price.
                    0 => {
                        let saved = if next() % 4 == 0 {
                            vec![0.0; M * slots]
                        } else {
                            p.values().to_vec()
                        };
                        p.restore(&saved).unwrap();
                        oracle.lambda.copy_from_slice(&saved);
                        (0..M).for_each(|j| oracle.refold(j));
                        for j in 0..M {
                            proptest::prop_assert_eq!(p.high[j], last_nonzero_end(&p, j));
                        }
                    }
                    // A full-row update.
                    1 => {
                        let w = (next() % 1000) as f64 / 300.0;
                        let f = move |l: f64| l * (1.0 + w / 7.0) + w;
                        p.update_window(j, 0, slots - 1, f);
                        oracle.update_window(j, 0, slots - 1, f);
                    }
                    // A window anywhere in the row: before, across or
                    // past the current mark.
                    _ => {
                        let first = (next() % slots as u64) as usize;
                        let last = first + (next() % (slots - first) as u64) as usize;
                        let w = (next() % 1000) as f64 / 300.0;
                        let f = move |l: f64| l * (1.0 + w / 7.0) + w;
                        p.update_window(j, first, last, f);
                        oracle.update_window(j, first, last, f);
                    }
                }
                proptest::prop_assert!(p.high.iter().all(|&h| h <= slots));
                assert_reads_match(&p, &oracle, &format!("seed {seed} step {step}"));
            }
        }
    }

    #[test]
    fn update_window_touches_only_the_window() {
        let mut p = DualPrices::new(2, 8);
        p.update_window(1, 2, 4, |_| 5.0);
        for t in 0..8 {
            assert_eq!(p.get(0, t), 0.0);
            let expect = if (2..=4).contains(&t) { 5.0 } else { 0.0 };
            assert_eq!(p.get(1, t), expect);
        }
        assert_eq!(p.window_sum(1, 0, 7), 15.0);
        assert_eq!(p.window_sum(1, 5, 7), 0.0);
    }

    #[test]
    fn cheapest_first_yields_full_ascending_order() {
        let mut keys: Vec<(f64, u32)> = vec![
            (3.0, 0),
            (1.0, 1),
            (2.0, 2),
            (1.0, 3),
            (0.5, 4),
            (9.0, 5),
            (0.5, 6),
            (4.0, 7),
            (8.0, 8),
            (7.0, 9),
            (6.0, 10),
            (5.0, 11),
        ];
        let mut expect: Vec<(f64, u32)> = keys.clone();
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut got = Vec::new();
        let mut it = CheapestFirst::new(&mut keys);
        while let Some(i) = it.next() {
            got.push(i);
        }
        let expect: Vec<u32> = expect.into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, expect, "ties must break toward the lower index");
    }

    #[test]
    fn cheapest_first_handles_empty_and_single() {
        let mut keys: Vec<(f64, u32)> = Vec::new();
        assert_eq!(CheapestFirst::new(&mut keys).next(), None);
        let mut keys = vec![(1.5, 7)];
        let mut it = CheapestFirst::new(&mut keys);
        assert_eq!(it.next(), Some(7));
        assert_eq!(it.next(), None);
    }
}
