//! The frozen reference lap: the yardstick every timing is divided by.
//!
//! The hosts this benchmark runs on change speed by tens of percent in
//! phases lasting tens of seconds (neighbours' cache and memory traffic),
//! which no within-run estimator survives. Dividing each timed region by
//! an *adjacent lap of similar code* does. This file is that lap: an
//! Algorithm-2-shaped admission loop — per-cloudlet window price sums,
//! payment test, candidate sort, capacity check, charge and price update
//! — over 11 cloudlets × 16 slots and 2048 requests drawn from its own
//! splitmix64 stream, with state and result vectors allocated fresh each
//! lap, written in the pre-optimization style of
//! `crates/bench/src/legacy.rs` (nested grids, per-slot sums, a full sort
//! per request).
//!
//! It is **frozen**: it uses `std` only and nothing from the workspace,
//! so no later optimisation of the program can speed the yardstick up,
//! and it uses only IEEE-exact arithmetic (`+ - * /`, comparisons), so
//! its output digest is the same on every platform.
//! `tests/build_contract.rs` pins the digest and rejects a workspace
//! import. Changing this file changes the unit of every reported time:
//! `host::REF_NOMINAL_US` must be re-measured and every baseline retaken.

/// Cloudlets in the lap's fleet.
pub const CLOUDLETS: usize = 11;
/// Slots in the lap's horizon.
pub const SLOTS: usize = 16;
/// Requests admitted or rejected per lap.
pub const REQUESTS: usize = 2048;
/// VNF types in the lap's catalog.
const VNFS: usize = 10;
/// Seed of the lap's own request stream (never the benchmark `--seed`:
/// the yardstick must not vary with the workload).
const STREAM_SEED: u64 = 0x7265_666c_6170_3031; // "reflap01"

/// FNV-1a digest of [`lap`]'s output over [`LapInput::frozen`]. Pinned
/// by `tests/build_contract.rs`.
pub const LAP_DIGEST: u64 = 0x2d95_bf5b_1f5e_b8c6;

#[derive(Debug, Clone, Copy)]
struct LapRequest {
    vnf: usize,
    first: usize,
    last: usize,
    compute: f64,
    ln_target: f64,
    payment: f64,
}

/// The lap's fixed inputs: capacities, per-(VNF, cloudlet) log-failure
/// coefficients and the request stream.
#[derive(Debug, Clone)]
pub struct LapInput {
    caps: Vec<f64>,
    ln_coef: Vec<Vec<f64>>,
    requests: Vec<LapRequest>,
}

/// What one lap produced; [`LapOutput::digest`] folds all of it.
#[derive(Debug, Clone, PartialEq)]
pub struct LapOutput {
    /// One code per request: 1 admitted, 0 rejected.
    pub codes: Vec<u8>,
    /// Sites chosen for each admitted request, in admission order.
    pub sites: Vec<Vec<usize>>,
    /// Σ payment over admitted requests.
    pub revenue: f64,
    /// Final dual prices, `lambda[cloudlet][slot]`.
    pub lambda: Vec<Vec<f64>>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Uniform in [lo, hi) from the top 53 bits: exact in IEEE arithmetic.
fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    let unit = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * unit
}

fn below(state: &mut u64, n: usize) -> usize {
    (splitmix64(state) % n as u64) as usize
}

impl LapInput {
    /// The one input the lap is ever run on.
    pub fn frozen() -> Self {
        let mut s = STREAM_SEED;
        let caps: Vec<f64> = (0..CLOUDLETS)
            .map(|_| (8 + below(&mut s, 5)) as f64)
            .collect();
        // ln(1 − r_f·r_c) for reliabilities in 0.9..0.9999 spans about
        // −8.5..−2.3; drawn directly so the lap needs no `ln`.
        let ln_coef: Vec<Vec<f64>> = (0..VNFS)
            .map(|_| {
                (0..CLOUDLETS)
                    .map(|_| uniform(&mut s, -6.0, -2.0))
                    .collect()
            })
            .collect();
        let mut requests: Vec<LapRequest> = (0..REQUESTS)
            .map(|_| {
                let vnf = below(&mut s, VNFS);
                let first = below(&mut s, SLOTS);
                let duration = 1 + below(&mut s, 8);
                let last = (first + duration - 1).min(SLOTS - 1);
                let compute = (1 + vnf % 3) as f64;
                // ln(1 − R) for requirements R in 0.9..0.95.
                let ln_target = uniform(&mut s, -3.0, -2.3);
                let rate = uniform(&mut s, 1.0, 10.0);
                let payment = rate * (last - first + 1) as f64 * compute * 0.92;
                LapRequest {
                    vnf,
                    first,
                    last,
                    compute,
                    ln_target,
                    payment,
                }
            })
            .collect();
        // Arrival order, as the online streams are.
        requests.sort_by_key(|r| r.first);
        LapInput {
            caps,
            ln_coef,
            requests,
        }
    }
}

/// The lap compiled [`COPIES`] times. The machine code of one copy
/// lands wherever the rest of the binary leaves it, and where its loops
/// fall relative to fetch and cache-line boundaries moved its time by
/// 3.5 % between two builds that differed in unrelated functions; that
/// would shift every normalised metric of a later change alike. The
/// copies differ in placement, a lap set runs each once and takes the
/// median, and the median of eight placements moves far less from build
/// to build than any one of them.
pub const LAP_COPIES: [fn(&LapInput) -> LapOutput; COPIES] = [
    lap_copy::<0>,
    lap_copy::<1>,
    lap_copy::<2>,
    lap_copy::<3>,
    lap_copy::<4>,
    lap_copy::<5>,
    lap_copy::<6>,
    lap_copy::<7>,
];

/// Copies of the lap's machine code, and laps in one lap set.
pub const COPIES: usize = 8;

/// One lap: every request of the frozen stream offered to a fresh
/// Algorithm-2-shaped scheduler.
pub fn lap(input: &LapInput) -> LapOutput {
    lap_copy::<0>(input)
}

// Indexed loops over nested grids are the frozen style (see the module
// comment): the lint's rewrite would change the yardstick.
#[allow(clippy::needless_range_loop)]
#[inline(never)]
fn lap_copy<const COPY: usize>(input: &LapInput) -> LapOutput {
    // Identical bodies would be folded into one function; `COPY` stores
    // of differing constants keep the copies apart and push the loops
    // below to a different offset in each.
    for i in 0..=COPY {
        std::hint::black_box(i);
    }
    let mut lambda = vec![vec![0.0f64; SLOTS]; CLOUDLETS];
    let mut used = vec![vec![0.0f64; SLOTS]; CLOUDLETS];
    let mut codes: Vec<u8> = Vec::new();
    let mut sites: Vec<Vec<usize>> = Vec::new();
    let mut revenue = 0.0f64;

    for r in &input.requests {
        let mut candidates: Vec<(f64, usize, f64)> = Vec::new(); // (ratio, j, ln_coef)
        for j in 0..CLOUDLETS {
            let ln_coef = input.ln_coef[r.vnf][j];
            let lambda_sum: f64 = (r.first..=r.last).map(|t| lambda[j][t]).sum();
            let ratio = lambda_sum / (-ln_coef);
            if r.payment + r.ln_target * r.compute * ratio <= 0.0 {
                continue;
            }
            candidates.push((ratio, j, ln_coef));
        }
        if candidates.is_empty() {
            codes.push(0);
            continue;
        }
        candidates.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });

        let mut selected: Vec<(usize, f64)> = Vec::new();
        let mut ln_sum = 0.0;
        for &(_, j, ln_coef) in &candidates {
            let fits = (r.first..=r.last).all(|t| input.caps[j] - used[j][t] + 1e-9 >= r.compute);
            if !fits {
                continue;
            }
            selected.push((j, ln_coef));
            ln_sum += ln_coef;
            if ln_sum <= r.ln_target + 1e-12 {
                break;
            }
        }
        if ln_sum > r.ln_target + 1e-12 {
            codes.push(0);
            continue;
        }

        let d = (r.last - r.first + 1) as f64;
        for &(j, ln_coef) in &selected {
            let factor = r.ln_target * r.compute / (ln_coef * input.caps[j]);
            for t in r.first..=r.last {
                used[j][t] += r.compute;
                let l = lambda[j][t];
                lambda[j][t] = l * (1.0 + factor) + factor * r.payment / d;
            }
        }
        codes.push(1);
        revenue += r.payment;
        sites.push(selected.iter().map(|&(j, _)| j).collect());
    }
    LapOutput {
        codes,
        sites,
        revenue,
        lambda,
    }
}

impl LapOutput {
    /// FNV-1a over codes, sites, revenue bits and price bits.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.codes);
        for s in &self.sites {
            for &j in s {
                eat(&[j as u8]);
            }
            eat(&[0xff]);
        }
        eat(&self.revenue.to_bits().to_le_bytes());
        for row in &self.lambda {
            for v in row {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        hash
    }
}
