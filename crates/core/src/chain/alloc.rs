//! Minimum-compute replica allocation for the stages of a chain hosted
//! at one cloudlet.
//!
//! Given chain stages `(r(f_k), c(f_k))`, a hosting cloudlet `r(c_j)`,
//! and an end-to-end target `R`, find integers `n_k ≥ 1` minimizing total
//! compute `Σ n_k·c(f_k)` subject to
//! `r(c_j) · Π_k (1 − (1 − r(f_k))^{n_k}) ≥ R`.
//!
//! This generalizes the single-VNF closed form `N_ij` (Eq. 3) — for
//! `K = 1` the two agree. The solver is an exact dynamic program over the
//! (integral) compute budget: per-stage replica options contribute
//! log-availability "gain", and `dp[cost]` tracks the best achievable
//! total gain; the answer is the smallest cost whose gain meets
//! `ln(R / r(c_j))`. Stage replica counts are capped at the point where a
//! stage's availability already exceeds the whole-chain target (more can
//! never help), keeping the DP small.
//!
//! Two degenerate inputs the original stub mishandled are now defined:
//!
//! * **Perfect stages** `r(f_k) = 1.0` — the [`Reliability`] newtype
//!   forbids 1.0, so the raw-`f64` entry point
//!   [`allocate_replicas_raw`] accepts it directly: a perfect stage gets
//!   exactly one replica (gain `ln 1 = 0`, never NaN or `-inf`).
//! * **Empty chains** — zero stages means the product over stages is the
//!   empty product 1.0, so the chain availability is `r(c_j)` alone:
//!   feasible (with an empty replica vector and zero compute) whenever
//!   `r(c_j) ≥ R`, infeasible otherwise. The stub returned `None`
//!   unconditionally.

use mec_topology::Reliability;
use mec_workload::VnfTypeId;

/// An optimal replica vector for a chain at one cloudlet.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainAllocation {
    /// Replicas per stage, `n_k ≥ 1`, in stage order.
    pub replicas: Vec<u32>,
    /// Total computing units per active slot, `Σ n_k · c(f_k)`.
    pub total_compute: u64,
    /// Achieved end-to-end availability (including the cloudlet factor).
    pub availability: f64,
}

/// Availability of one stage with `n` replicas: `1 − (1 − r)^n`.
///
/// Exact for `r = 1.0` (the failure mass is exactly zero, so the result
/// is exactly 1.0 — no underflow, no NaN).
fn stage_availability_raw(r: f64, n: u32) -> f64 {
    1.0 - (1.0 - r).powi(n as i32)
}

/// End-to-end availability of a replica vector at a cloudlet, raw-`f64`
/// variant: stage and cloudlet reliabilities in `(0, 1]`.
pub fn chain_availability_raw(stages: &[(f64, u64)], replicas: &[u32], cloudlet: f64) -> f64 {
    let product: f64 = stages
        .iter()
        .zip(replicas)
        .map(|(&(r, _), &n)| stage_availability_raw(r, n))
        .product();
    cloudlet * product
}

/// End-to-end availability of a replica vector at a cloudlet.
pub fn chain_availability(
    stages: &[(Reliability, u64)],
    replicas: &[u32],
    cloudlet: Reliability,
) -> f64 {
    let product: f64 = stages
        .iter()
        .zip(replicas)
        .map(|(&(r, _), &n)| stage_availability_raw(r.value(), n))
        .product();
    cloudlet.value() * product
}

/// The part of the replica DP that depends on the chain's stage types
/// `(r(f_k), c(f_k))` alone: the best-gain array over compute cost and
/// the back-pointers that reconstruct a replica vector from a cost.
///
/// The hosting cloudlet and the target enter only through
/// `ln(R / r(c_j))` in [`ReplicaDp::solve_into`]'s "smallest cost whose
/// gain meets the target" scan, so one table serves every route of a
/// chain, every cloudlet a greedy scheduler tries, and every later chain
/// with the same stage tuple.
///
/// A table is built one stage at a time ([`ReplicaDp::extend`]), from
/// the table of the empty tuple: a tuple's table is its prefix's table
/// extended by its last stage.
#[derive(Debug, Clone)]
pub(crate) struct ReplicaDp {
    /// Whether every stage reliability was in `(0, 1]`; an out-of-domain
    /// tuple solves to `None` whatever the gate and target.
    valid: bool,
    /// `dp[cost]`: best total log-availability gain over all stages at
    /// exactly `cost` compute units, `-inf` where unreachable.
    dp: Vec<f64>,
    /// `choice[k * width + cost]`: option index used at stage `k` to
    /// reach `cost` after stages `0..=k` (`NO_CHOICE` where unreachable).
    /// Option `oi` is `oi + 1` replicas, and options stop at
    /// [`MAX_REPLICAS`], so a byte holds it.
    choice: Vec<u8>,
}

const NO_CHOICE: u8 = u8::MAX;
/// Largest replica count tried per stage.
const MAX_REPLICAS: u32 = 80;

fn in_unit(v: f64) -> bool {
    v > 0.0 && v <= 1.0
}

impl ReplicaDp {
    /// The table of the empty tuple: gain 0 at cost 0, no choice rows.
    fn empty() -> Self {
        ReplicaDp {
            valid: true,
            dp: vec![0.0],
            choice: Vec::new(),
        }
    }

    /// Builds the table for one stage tuple: the empty table extended
    /// stage after stage.
    fn new(stages: &[(f64, u64)]) -> Self {
        let mut gains = Vec::new();
        stages.iter().fold(Self::empty(), |table, &stage| {
            table.extend(stage, &mut gains)
        })
    }

    /// The table of this table's tuple followed by one more stage
    /// `(r, c)`; `gains` is scratch for the stage's options.
    ///
    /// After `K − 1` stages every reachable cost is below this table's
    /// width, so a build over the whole tuple at once would hold, before
    /// its last stage, exactly this `dp` padded with `-inf` and these
    /// choice rows padded with `NO_CHOICE`. Its last pass would then
    /// visit the same sources in the same order with the same tests. The
    /// extension is therefore bit-identical to that build.
    fn extend(&self, (r, c): (f64, u64), gains: &mut Vec<f64>) -> Self {
        if !self.valid || !in_unit(r) {
            return ReplicaDp {
                valid: false,
                dp: Vec::new(),
                choice: Vec::new(),
            };
        }
        // The stage's options (n, cost, gain). Every stage must in fact
        // reach at least the end-to-end target on its own (the other
        // factors are ≤ 1), and may need to go beyond it to compensate
        // for weaker stages — so options run until the stage's
        // availability saturates numerically (additional replicas cannot
        // change the product any more). A perfect stage saturates at
        // n = 1 with gain exactly 0.
        gains.clear();
        let mut n = 1u32;
        loop {
            let avail = stage_availability_raw(r, n);
            gains.push(avail.ln());
            if 1.0 - avail < 1e-13 || n >= MAX_REPLICAS {
                break;
            }
            n += 1;
        }

        // The prefix's rows, widened by the new stage's largest cost.
        let prefix_width = self.dp.len();
        let width = prefix_width + (u64::from(n) * c) as usize;
        let stages = self.choice.len() / prefix_width;
        let mut choice = vec![NO_CHOICE; (stages + 1) * width];
        let (rows, pick) = choice.split_at_mut(stages * width);
        for (row, prefix_row) in rows
            .chunks_exact_mut(width)
            .zip(self.choice.chunks_exact(prefix_width))
        {
            row[..prefix_width].copy_from_slice(prefix_row);
        }

        // One push pass over the prefix's best gains.
        const NEG: f64 = f64::NEG_INFINITY;
        let mut dp = vec![NEG; width];
        for (cost, &gain) in self.dp.iter().enumerate() {
            if gain == NEG {
                continue;
            }
            for (oi, &g) in gains.iter().enumerate() {
                let nc = cost + (oi + 1) * c as usize;
                if gain + g > dp[nc] {
                    dp[nc] = gain + g;
                    pick[nc] = oi as u8;
                }
            }
        }
        ReplicaDp {
            valid: true,
            dp,
            choice,
        }
    }

    /// Solves for one `(cloudlet, req)` pair over the `stages` the table
    /// was built from, writing the replica vector into `replicas` (its
    /// old contents are dropped) and returning
    /// `(total_compute, availability)`. `None` exactly when
    /// [`allocate_replicas_raw`] returns `None`.
    pub(crate) fn solve_into(
        &self,
        stages: &[(f64, u64)],
        cloudlet: f64,
        req: f64,
        replicas: &mut Vec<u32>,
    ) -> Option<(u64, f64)> {
        replicas.clear();
        if !in_unit(cloudlet) || !in_unit(req) || !self.valid {
            return None;
        }
        // The cloudlet multiplies every stage product, so r(c_j) ≥ R is
        // necessary; it is also sufficient for the empty chain.
        if cloudlet < req {
            return None;
        }
        if stages.is_empty() {
            return Some((0, cloudlet));
        }
        let width = self.dp.len();
        debug_assert_eq!(self.choice.len(), stages.len() * width);
        // Per-stage target in log space: Σ ln(stage availability) ≥ ln(R/r_c).
        let ln_target = (req / cloudlet).ln(); // ≤ 0

        // Smallest cost meeting the target (with a tolerance for the
        // log-space arithmetic).
        let best_cost = self.dp.iter().position(|&g| g >= ln_target - 1e-12)?;

        // Reconstruct replica counts; the log-space DP can land a hair
        // short of the true product due to floating-point, in which case
        // the cheapest stage is nudged below.
        replicas.resize(stages.len(), 0);
        let mut cost = best_cost;
        for k in (0..stages.len()).rev() {
            let n = u32::from(self.choice[k * width + cost]) + 1;
            replicas[k] = n;
            cost -= n as usize * stages[k].1 as usize;
        }
        debug_assert_eq!(cost, 0);

        let availability = chain_availability_raw(stages, replicas, cloudlet);
        let mut nudged = availability;
        while nudged < req {
            let k = (0..stages.len())
                .min_by_key(|&k| stages[k].1)
                .expect("non-empty");
            replicas[k] += 1;
            if replicas[k] > 128 {
                // Saturated below the target (possible when R = r(c_j)
                // exactly and some stage is imperfect): genuinely infeasible.
                return None;
            }
            nudged = chain_availability_raw(stages, replicas, cloudlet);
        }
        let availability = availability.max(nudged);
        let total_compute = stages
            .iter()
            .zip(replicas.iter())
            .map(|(&(_, c), &n)| u64::from(n) * c)
            .sum();
        Some((total_compute, availability))
    }
}

/// [`ReplicaDp`] tables memoised as a trie over stage prefixes, one memo
/// per scheduler. A scheduler's catalog is fixed, so the VNF ids
/// determine the `(r(f_k), c(f_k))` tuple.
///
/// Node 0 is the empty tuple; a node's children are indexed by VNF id,
/// so a lookup walks one array read per stage and hashes nothing. A node
/// first reached is built from its parent's table by one
/// [`ReplicaDp::extend`], so a tuple costs one stage's pass once its
/// prefix is known, and chains that share a prefix share its table.
/// Nothing is ever evicted: the memo holds one table per distinct stage
/// prefix the scheduler has seen (at most `Σ_K |catalog|^K` over the
/// chain lengths in use — 259 with the root for six types and lengths
/// 1–3), each a `dp` of 8 bytes and a `choice` of `K` bytes per unit of
/// the prefix's largest useful compute.
#[derive(Debug)]
pub(crate) struct ReplicaDpMemo {
    nodes: Vec<TrieNode>,
    /// Option gains of the stage being added.
    gains: Vec<f64>,
}

#[derive(Debug)]
struct TrieNode {
    table: ReplicaDp,
    /// `children[vnf]`: the node of this tuple extended by `vnf`, `0`
    /// where not built yet (the root is nobody's child).
    children: Vec<u32>,
}

impl Default for ReplicaDpMemo {
    fn default() -> Self {
        ReplicaDpMemo {
            nodes: vec![TrieNode {
                table: ReplicaDp::empty(),
                children: Vec::new(),
            }],
            gains: Vec::new(),
        }
    }
}

impl ReplicaDpMemo {
    /// Handle of the table for `vnfs`, whose resolved parameters are
    /// `stages`; built on first sight, with any missing prefix.
    pub(crate) fn lookup(&mut self, vnfs: &[VnfTypeId], stages: &[(f64, u64)]) -> usize {
        debug_assert_eq!(vnfs.len(), stages.len());
        let mut node = 0;
        for (&vnf, &stage) in vnfs.iter().zip(stages) {
            let v = vnf.index();
            node = match self.nodes[node].children.get(v) {
                Some(&child) if child != 0 => child as usize,
                _ => {
                    let table = self.nodes[node].table.extend(stage, &mut self.gains);
                    let child = self.nodes.len();
                    self.nodes.push(TrieNode {
                        table,
                        children: Vec::new(),
                    });
                    let children = &mut self.nodes[node].children;
                    if children.len() <= v {
                        children.resize(v + 1, 0);
                    }
                    children[v] = child as u32;
                    child
                }
            };
        }
        node
    }

    /// The table behind a handle from [`ReplicaDpMemo::lookup`].
    pub(crate) fn table(&self, handle: usize) -> &ReplicaDp {
        &self.nodes[handle].table
    }
}

/// Finds the minimum-compute replica vector (see module docs), raw-`f64`
/// variant: stage reliabilities in `(0, 1]` (a perfect `1.0` stage is
/// legal and gets one replica), cloudlet and requirement in `(0, 1]`.
///
/// Returns `None` when `r(c_j) < R` (the cloudlet gates the chain, so no
/// replica count suffices) or when any input is outside its domain (NaN
/// included). An empty `stages` slice is *feasible* whenever
/// `r(c_j) ≥ R` — the allocation is the empty vector at zero compute.
/// Feasibility is judged in f64 arithmetic: at the `R = r(c_j)` boundary
/// an imperfect stage saturates (`1 − (1−r)^n` rounds to 1.0) rather
/// than failing.
///
/// One-shot form: builds the stage table and solves it once. The chain
/// schedulers keep the table (see `ReplicaDpMemo`) and only solve.
pub fn allocate_replicas_raw(
    stages: &[(f64, u64)],
    cloudlet: f64,
    req: f64,
) -> Option<ChainAllocation> {
    let mut replicas = Vec::new();
    let (total_compute, availability) =
        ReplicaDp::new(stages).solve_into(stages, cloudlet, req, &mut replicas)?;
    Some(ChainAllocation {
        replicas,
        total_compute,
        availability,
    })
}

/// Finds the minimum-compute replica vector (see module docs).
///
/// Typed front end over [`allocate_replicas_raw`]; an empty `stages`
/// slice yields the empty allocation when the cloudlet alone meets the
/// target.
pub fn allocate_replicas(
    stages: &[(Reliability, u64)],
    cloudlet: Reliability,
    req: Reliability,
) -> Option<ChainAllocation> {
    let raw: Vec<(f64, u64)> = stages.iter().map(|&(r, c)| (r.value(), c)).collect();
    allocate_replicas_raw(&raw, cloudlet.value(), req.value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::onsite_instances;
    use proptest::prelude::*;

    fn rel(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    #[test]
    fn single_stage_matches_closed_form() {
        for (rf, rc, rq) in [
            (0.9, 0.999, 0.99),
            (0.95, 0.9999, 0.995),
            (0.99, 0.999, 0.9),
            (0.9, 0.9999, 0.9995),
        ] {
            let stages = [(rel(rf), 2u64)];
            let alloc = allocate_replicas(&stages, rel(rc), rel(rq)).unwrap();
            let n = onsite_instances(rel(rf), rel(rc), rel(rq)).unwrap();
            assert_eq!(alloc.replicas, vec![n], "rf={rf} rc={rc} rq={rq}");
            assert_eq!(alloc.total_compute, u64::from(n) * 2);
            assert!(alloc.availability >= rq);
        }
    }

    #[test]
    fn infeasible_when_cloudlet_gates() {
        let stages = [(rel(0.9), 1u64), (rel(0.95), 2)];
        assert!(allocate_replicas(&stages, rel(0.95), rel(0.95)).is_none());
        assert!(allocate_replicas(&stages, rel(0.9), rel(0.95)).is_none());
        // An empty chain is gated only by the cloudlet itself.
        assert!(allocate_replicas(&[], rel(0.8), rel(0.9)).is_none());
    }

    #[test]
    fn empty_chain_is_the_cloudlet_alone() {
        let alloc = allocate_replicas(&[], rel(0.999), rel(0.9)).unwrap();
        assert!(alloc.replicas.is_empty());
        assert_eq!(alloc.total_compute, 0);
        assert!((alloc.availability - 0.999).abs() < 1e-15);
    }

    #[test]
    fn perfect_stages_get_one_replica() {
        // r(f_k) = 1.0 is representable only through the raw API (the
        // Reliability newtype is the open interval).
        let stages = [(1.0, 3u64), (0.9, 2), (1.0, 1)];
        let alloc = allocate_replicas_raw(&stages, 0.9999, 0.999).unwrap();
        assert_eq!(alloc.replicas[0], 1, "perfect stage needs no spares");
        assert_eq!(alloc.replicas[2], 1, "perfect stage needs no spares");
        assert!(alloc.availability >= 0.999);
        assert!(alloc.availability.is_finite());
        // All-perfect chain: availability is exactly the cloudlet.
        let perfect = allocate_replicas_raw(&[(1.0, 2), (1.0, 1)], 0.995, 0.99).unwrap();
        assert_eq!(perfect.replicas, vec![1, 1]);
        assert_eq!(perfect.total_compute, 3);
        assert!((perfect.availability - 0.995).abs() < 1e-15);
        // Boundary R = r(c_j): perfect stages hit it with one replica;
        // imperfect stages must saturate (1 − (1−r)^n rounds to 1.0 in
        // f64) but still deliver an allocation meeting the target.
        assert_eq!(
            allocate_replicas_raw(&[(1.0, 1)], 0.99, 0.99)
                .unwrap()
                .replicas,
            vec![1]
        );
        let boundary = allocate_replicas_raw(&[(0.999, 1)], 0.99, 0.99).unwrap();
        assert!(chain_availability_raw(&[(0.999, 1)], &boundary.replicas, 0.99) >= 0.99);
    }

    #[test]
    fn rejects_out_of_domain_inputs() {
        assert!(allocate_replicas_raw(&[(0.9, 1)], f64::NAN, 0.9).is_none());
        assert!(allocate_replicas_raw(&[(0.9, 1)], 0.99, f64::NAN).is_none());
        assert!(allocate_replicas_raw(&[(f64::NAN, 1)], 0.99, 0.9).is_none());
        assert!(allocate_replicas_raw(&[(0.0, 1)], 0.99, 0.9).is_none());
        assert!(allocate_replicas_raw(&[(1.1, 1)], 0.99, 0.9).is_none());
        assert!(allocate_replicas_raw(&[(0.9, 1)], 0.0, 0.9).is_none());
        assert!(allocate_replicas_raw(&[(0.9, 1)], 0.99, 0.0).is_none());
    }

    #[test]
    fn allocation_is_feasible_and_each_stage_has_at_least_one() {
        let stages = [(rel(0.9), 3u64), (rel(0.99), 1), (rel(0.95), 2)];
        let alloc = allocate_replicas(&stages, rel(0.9999), rel(0.99)).unwrap();
        assert_eq!(alloc.replicas.len(), 3);
        assert!(alloc.replicas.iter().all(|&n| n >= 1));
        assert!(alloc.availability >= 0.99);
        assert!(
            chain_availability(&stages, &alloc.replicas, rel(0.9999)) >= 0.99,
            "reported availability must be real"
        );
    }

    #[test]
    fn dp_is_exact_vs_brute_force() {
        // Exhaustive search over n_k ∈ 1..=6 on small chains.
        let cases = [
            (
                vec![(rel(0.9), 1u64), (rel(0.92), 2)],
                rel(0.999),
                rel(0.97),
            ),
            (
                vec![(rel(0.95), 3u64), (rel(0.9), 1)],
                rel(0.9999),
                rel(0.99),
            ),
            (
                vec![(rel(0.9), 2u64), (rel(0.9), 2), (rel(0.99), 1)],
                rel(0.999),
                rel(0.95),
            ),
        ];
        for (stages, rc, rq) in cases {
            let alloc = allocate_replicas(&stages, rc, rq).unwrap();
            // Brute force.
            let k = stages.len();
            let mut best: Option<u64> = None;
            let mut idx = vec![1u32; k];
            'outer: loop {
                let cost: u64 = stages
                    .iter()
                    .zip(&idx)
                    .map(|(&(_, c), &n)| u64::from(n) * c)
                    .sum();
                if chain_availability(&stages, &idx, rc) >= rq.value() {
                    best = Some(best.map_or(cost, |b: u64| b.min(cost)));
                }
                // Increment the counter vector.
                for digit in idx.iter_mut() {
                    *digit += 1;
                    if *digit <= 6 {
                        continue 'outer;
                    }
                    *digit = 1;
                }
                break;
            }
            let brute = best.expect("feasible within bound");
            assert_eq!(
                alloc.total_compute, brute,
                "dp {} vs brute {} for {:?}",
                alloc.total_compute, brute, stages
            );
        }
    }

    #[test]
    fn harder_requirements_cost_more() {
        let stages = [(rel(0.9), 2u64), (rel(0.95), 1)];
        let cheap = allocate_replicas(&stages, rel(0.9999), rel(0.9)).unwrap();
        let pricey = allocate_replicas(&stages, rel(0.9999), rel(0.999)).unwrap();
        assert!(pricey.total_compute > cheap.total_compute);
    }

    #[test]
    fn longer_chains_cost_more() {
        let short = [(rel(0.9), 2u64)];
        let long = [(rel(0.9), 2u64), (rel(0.9), 2), (rel(0.9), 2)];
        let a = allocate_replicas(&short, rel(0.999), rel(0.98)).unwrap();
        let b = allocate_replicas(&long, rel(0.999), rel(0.98)).unwrap();
        assert!(b.total_compute > a.total_compute);
    }

    /// The allocation as it was computed before the stage table was split
    /// from the solve: options, DP rows and back-pointers rebuilt on every
    /// call, `choice` as one `u32` vector per stage. Test-only reference
    /// for [`ReplicaDp`].
    fn allocate_in_one_pass(
        stages: &[(f64, u64)],
        cloudlet: f64,
        req: f64,
    ) -> Option<ChainAllocation> {
        let in_unit = |v: f64| v > 0.0 && v <= 1.0;
        if !in_unit(cloudlet) || !in_unit(req) || stages.iter().any(|&(r, _)| !in_unit(r)) {
            return None;
        }
        // The cloudlet multiplies every stage product, so r(c_j) ≥ R is
        // necessary; it is also sufficient for the empty chain.
        if cloudlet < req {
            return None;
        }
        if stages.is_empty() {
            return Some(ChainAllocation {
                replicas: Vec::new(),
                total_compute: 0,
                availability: cloudlet,
            });
        }
        // Per-stage target in log space: Σ ln(stage availability) ≥ ln(R/r_c).
        let ln_target = (req / cloudlet).ln(); // ≤ 0

        // Enumerate per-stage options (n, cost, gain). Every stage must in
        // fact reach at least the end-to-end target on its own (the other
        // factors are ≤ 1), and may need to go beyond it to compensate for
        // weaker stages — so options run until the stage's availability
        // saturates numerically (additional replicas cannot change the
        // product any more). A perfect stage saturates at n = 1 with gain
        // exactly 0.
        let mut options: Vec<Vec<(u32, u64, f64)>> = Vec::with_capacity(stages.len());
        for &(r, c) in stages {
            let mut opts = Vec::new();
            let mut n = 1u32;
            loop {
                let avail = stage_availability_raw(r, n);
                opts.push((n, u64::from(n) * c, avail.ln()));
                if 1.0 - avail < 1e-13 || n >= 80 {
                    break;
                }
                n += 1;
            }
            options.push(opts);
        }

        // DP over integral compute cost.
        let max_cost: u64 = options
            .iter()
            .map(|o| o.last().expect("at least one option").1)
            .sum();
        let width = max_cost as usize + 1;
        const NEG: f64 = f64::NEG_INFINITY;
        // dp[cost] = (best total gain, chosen option index per processed stage
        // is reconstructed via parent tracking).
        let mut dp = vec![NEG; width];
        dp[0] = 0.0;
        // choice[k][cost] = option index used at stage k to reach `cost`.
        let mut choice: Vec<Vec<u32>> = Vec::with_capacity(options.len());
        for opts in &options {
            let mut next = vec![NEG; width];
            let mut pick = vec![u32::MAX; width];
            for (cost, &gain) in dp.iter().enumerate() {
                if gain == NEG {
                    continue;
                }
                for (oi, &(_, c, g)) in opts.iter().enumerate() {
                    let nc = cost + c as usize;
                    if nc < width && gain + g > next[nc] {
                        next[nc] = gain + g;
                        pick[nc] = oi as u32;
                    }
                }
            }
            dp = next;
            choice.push(pick);
        }

        // Smallest cost meeting the target (with a tolerance for the
        // log-space arithmetic).
        let best_cost = (0..width).find(|&c| dp[c] >= ln_target - 1e-12)?;

        // Reconstruct replica counts; mutable because the log-space DP can
        // land a hair short of the true product due to floating-point, in
        // which case the cheapest stage is nudged below.
        let mut replicas = vec![0u32; stages.len()];
        let mut cost = best_cost;
        for k in (0..stages.len()).rev() {
            let oi = choice[k][cost] as usize;
            let (n, c, _) = options[k][oi];
            replicas[k] = n;
            cost -= c as usize;
        }
        debug_assert_eq!(cost, 0);

        let availability = chain_availability_raw(stages, &replicas, cloudlet);
        while chain_availability_raw(stages, &replicas, cloudlet) < req {
            let k = (0..stages.len())
                .min_by_key(|&k| stages[k].1)
                .expect("non-empty");
            replicas[k] += 1;
            if replicas[k] > 128 {
                // Saturated below the target (possible when R = r(c_j)
                // exactly and some stage is imperfect): genuinely infeasible.
                return None;
            }
        }
        let availability = availability.max(chain_availability_raw(stages, &replicas, cloudlet));
        let total_compute = stages
            .iter()
            .zip(&replicas)
            .map(|(&(_, c), &n)| u64::from(n) * c)
            .sum();
        Some(ChainAllocation {
            replicas,
            total_compute,
            availability,
        })
    }

    /// The stage table as it was built before tables were extended
    /// prefix by prefix: every stage's options first, then one DP pass
    /// per stage over the whole tuple's width. Test-only reference for
    /// [`ReplicaDp::extend`].
    fn build_in_one_pass(stages: &[(f64, u64)]) -> ReplicaDp {
        if stages.iter().any(|&(r, _)| !in_unit(r)) {
            return ReplicaDp {
                valid: false,
                dp: Vec::new(),
                choice: Vec::new(),
            };
        }
        let mut gains = Vec::new();
        let mut option_counts = Vec::new();
        let mut max_cost = 0u64;
        for &(r, c) in stages {
            let mut n = 1u32;
            loop {
                let avail = stage_availability_raw(r, n);
                gains.push(avail.ln());
                if 1.0 - avail < 1e-13 || n >= MAX_REPLICAS {
                    break;
                }
                n += 1;
            }
            option_counts.push(n as usize);
            max_cost += u64::from(n) * c;
        }

        let width = max_cost as usize + 1;
        const NEG: f64 = f64::NEG_INFINITY;
        let mut dp = vec![NEG; width];
        dp[0] = 0.0;
        let mut next = vec![NEG; width];
        let mut choice = vec![NO_CHOICE; stages.len() * width];
        let mut gains = gains.as_slice();
        for ((&(_, c), &count), pick) in stages
            .iter()
            .zip(option_counts.iter())
            .zip(choice.chunks_exact_mut(width))
        {
            let (opts, rest) = gains.split_at(count);
            gains = rest;
            next.fill(NEG);
            for (cost, &gain) in dp.iter().enumerate() {
                if gain == NEG {
                    continue;
                }
                for (oi, &g) in opts.iter().enumerate() {
                    let nc = cost + (oi + 1) * c as usize;
                    if nc < width && gain + g > next[nc] {
                        next[nc] = gain + g;
                        pick[nc] = oi as u8;
                    }
                }
            }
            dp.copy_from_slice(&next);
        }
        ReplicaDp {
            valid: true,
            dp,
            choice,
        }
    }

    proptest! {
        /// The trie builds every table from its prefix's table, in
        /// whatever order tuples arrive. Over a four-type catalog with
        /// perfect stages and, in half the cases, one out-of-domain type,
        /// tuples of length 0–4 are looked up at random — so prefixes are
        /// shared, revisited, and first built as part of a longer tuple.
        /// Each table equals the one-pass build bit for bit, and each
        /// solve equals the one-pass allocation.
        #[test]
        fn trie_tables_equal_the_one_pass_build(seed in 0u64..u64::MAX) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut catalog: Vec<(f64, u64)> = (0..4)
                .map(|_| {
                    let r = if rng.gen_range(0u32..4) == 0 {
                        1.0
                    } else {
                        rng.gen_range(0.85f64..0.995)
                    };
                    (r, rng.gen_range(1u64..=3))
                })
                .collect();
            if rng.gen_range(0u32..2) == 0 {
                let bad = [0.0, 1.1, f64::NAN][rng.gen_range(0usize..3)];
                catalog[rng.gen_range(0usize..4)].0 = bad;
            }
            let mut memo = ReplicaDpMemo::default();
            let mut replicas = Vec::new();
            for _ in 0..24 {
                let len = rng.gen_range(0usize..=4);
                let vnfs: Vec<VnfTypeId> =
                    (0..len).map(|_| VnfTypeId(rng.gen_range(0usize..4))).collect();
                let stages: Vec<(f64, u64)> = vnfs.iter().map(|v| catalog[v.index()]).collect();
                let handle = memo.lookup(&vnfs, &stages);
                let got = memo.table(handle);
                let want = build_in_one_pass(&stages);
                prop_assert_eq!(got.valid, want.valid, "{:?}", &stages);
                prop_assert_eq!(
                    got.dp.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
                    want.dp.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
                    "{:?}", &stages
                );
                prop_assert_eq!(&got.choice, &want.choice, "{:?}", &stages);
                for _ in 0..4 {
                    let gate = rng.gen_range(0.9f64..=1.0);
                    let target = match rng.gen_range(0u32..3) {
                        0 => gate,
                        _ => rng.gen_range(0.85f64..0.96),
                    };
                    let got = got
                        .solve_into(&stages, gate, target, &mut replicas)
                        .map(|(total_compute, availability)| ChainAllocation {
                            replicas: replicas.clone(),
                            total_compute,
                            availability,
                        });
                    let want = allocate_in_one_pass(&stages, gate, target);
                    prop_assert_eq!(
                        got.as_ref().map(|a| a.availability.to_bits()),
                        want.as_ref().map(|a| a.availability.to_bits())
                    );
                    prop_assert_eq!(got, want, "gate {} target {}", gate, target);
                }
            }
        }
    }

    proptest! {
        /// One table, many solves: whatever gates and targets share a
        /// stage tuple's table — in any order, through one reused replica
        /// buffer, through the memo — each solve equals the one-pass
        /// allocation bit for bit. Perfect stages, the empty chain, the
        /// `R = r(c_j)` boundary and gates below the target are all drawn.
        #[test]
        fn table_then_solve_equals_the_one_pass_allocation(
            k in 0usize..=3,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let stages: Vec<(f64, u64)> = (0..k)
                .map(|_| {
                    let r = if rng.gen_range(0u32..4) == 0 {
                        1.0
                    } else {
                        rng.gen_range(0.85f64..0.995)
                    };
                    (r, rng.gen_range(1u64..=3))
                })
                .collect();
            let vnfs: Vec<VnfTypeId> = (0..k).map(VnfTypeId).collect();
            let mut memo = ReplicaDpMemo::default();
            let handle = memo.lookup(&vnfs, &stages);
            prop_assert_eq!(memo.lookup(&vnfs, &stages), handle);
            let mut replicas = vec![7; 5];
            for _ in 0..12 {
                let gate = rng.gen_range(0.9f64..=1.0);
                let target = match rng.gen_range(0u32..4) {
                    0 => gate,
                    1 => rng.gen_range(0.85f64..=1.0),
                    _ => rng.gen_range(0.85f64..0.96),
                };
                let want = allocate_in_one_pass(&stages, gate, target);
                let got = memo
                    .table(handle)
                    .solve_into(&stages, gate, target, &mut replicas)
                    .map(|(total_compute, availability)| ChainAllocation {
                        replicas: replicas.clone(),
                        total_compute,
                        availability,
                    });
                prop_assert_eq!(&got, &want, "gate {} target {}", gate, target);
                prop_assert_eq!(
                    got.map(|a| a.availability.to_bits()),
                    want.as_ref().map(|a| a.availability.to_bits())
                );
                prop_assert_eq!(allocate_replicas_raw(&stages, gate, target), want);
            }
        }
    }

    proptest! {
        /// Whenever the solver returns an allocation, the allocation in
        /// fact meets the target; and on small instances where an
        /// exhaustive search over n_k ∈ 1..=6 finds the optimum, the DP
        /// matches it exactly (minimality). Perfect r = 1.0 stages are
        /// drawn with positive probability to pin the degenerate cases.
        #[test]
        fn allocation_meets_target_and_is_minimal(
            k in 0usize..=3,
            stage_seed in 0u64..u64::MAX,
            rc in 0.97f64..0.9999,
            rq in 0.85f64..0.96,
        ) {
            use rand::{Rng, SeedableRng};
            let mut srng = rand_chacha::ChaCha8Rng::seed_from_u64(stage_seed);
            let raw_stages: Vec<(f64, u64)> = (0..k)
                .map(|_| {
                    let r = if srng.gen_range(0u32..4) == 0 {
                        1.0
                    } else {
                        srng.gen_range(0.85f64..0.995)
                    };
                    (r, srng.gen_range(1u64..=3))
                })
                .collect();
            let alloc = allocate_replicas_raw(&raw_stages, rc, rq);
            // rc > rq by construction, so the only legal `None` is
            // saturation below target — impossible here since every draw
            // keeps rq/rc < the per-stage saturation ceiling.
            let alloc = alloc.expect("feasible by construction");
            let achieved = chain_availability_raw(&raw_stages, &alloc.replicas, rc);
            prop_assert!(achieved >= rq, "achieved {achieved} < target {rq}");
            prop_assert!((alloc.availability - achieved).abs() < 1e-12);
            prop_assert!(alloc.replicas.iter().all(|&n| n >= 1));
            prop_assert_eq!(
                alloc.total_compute,
                raw_stages
                    .iter()
                    .zip(&alloc.replicas)
                    .map(|(&(_, c), &n)| u64::from(n) * c)
                    .sum::<u64>()
            );

            // Exhaustive minimality check over the small box.
            let k = raw_stages.len();
            let mut best: Option<u64> = None;
            if k > 0 {
                let mut idx = vec![1u32; k];
                'outer: loop {
                    if chain_availability_raw(&raw_stages, &idx, rc) >= rq {
                        let cost: u64 = raw_stages
                            .iter()
                            .zip(&idx)
                            .map(|(&(_, c), &n)| u64::from(n) * c)
                            .sum();
                        best = Some(best.map_or(cost, |b| b.min(cost)));
                    }
                    for digit in idx.iter_mut() {
                        *digit += 1;
                        if *digit <= 6 {
                            continue 'outer;
                        }
                        *digit = 1;
                    }
                    break;
                }
            } else {
                best = Some(0);
            }
            if let Some(brute) = best {
                // The DP searches a superset of the brute-force box, so
                // it can never do worse; when its answer stays inside the
                // box it must match exactly.
                prop_assert!(alloc.total_compute <= brute);
                if alloc.replicas.iter().all(|&n| n <= 6) {
                    prop_assert_eq!(alloc.total_compute, brute);
                }
            }
        }
    }
}
