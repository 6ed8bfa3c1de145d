//! Smoke tests for the figure-regeneration harness: tiny versions of the
//! Figure 1/2 sweeps must build, be internally consistent, and show the
//! paper's qualitative orderings where the theory guarantees them.

use std::fmt::Write as _;

use mec_sim::experiment::SweepTable;
use vnfrel::Scheme;
use vnfrel_bench::{
    fig1_both_sweep, fig1_sweep, fig2a_sweep, fig2b_sweep, Scenario, ScenarioParams,
};

/// The `bench_report --quick` Figure 1 tables (sizes 50–200, seed 1,
/// both panels) as the serial pre-optimization harness produced them at
/// commit `647adb2`, the last one that holds it
/// (`crates/bench/src/legacy.rs`). Floats are in `{:?}` form, which
/// round-trips every bit.
const FIG1_QUICK: &str = include_str!("../crates/bench/tests/golden/fig1_quick.txt");

/// Renders both panels in the fixture's line format.
fn render_fig1(on: &SweepTable, off: &SweepTable) -> String {
    let mut out = String::new();
    for (panel, table) in [("onsite", on), ("offsite", off)] {
        let _ = writeln!(
            out,
            "# panel={panel} x={} y={} columns={}",
            table.x_label,
            table.y_label,
            table.columns.join(",")
        );
        for (x, vals) in &table.rows {
            let _ = write!(out, "{x:?}");
            for v in vals {
                let _ = write!(out, " {v:?}");
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn fig1_quick_tables_match_the_golden_at_one_and_four_threads() {
    let sizes: Vec<usize> = (1..=4).map(|i| i * 50).collect();
    for threads in [1, 4] {
        let (on, off) = fig1_both_sweep(&sizes, &[1], threads);
        assert_eq!(
            render_fig1(&on, &off),
            FIG1_QUICK,
            "fig1_both_sweep at --threads {threads} diverged from fig1_quick.txt"
        );
    }
}

#[test]
fn fig1a_smoke_opt_dominates() {
    let table = fig1_sweep(Scheme::OnSite, &[20, 40], &[1], true, 1_000, 1);
    for row in 0..table.rows.len() {
        let opt = table.value(row, "Optimal").unwrap();
        let alg = table.value(row, "Algorithm 1").unwrap();
        let greedy = table.value(row, "Greedy").unwrap();
        assert!(alg <= opt + 1e-6, "alg {alg} > opt {opt}");
        assert!(greedy <= opt + 1e-6, "greedy {greedy} > opt {opt}");
        assert!(alg >= 0.0 && greedy >= 0.0);
    }
}

#[test]
fn fig1b_smoke_opt_dominates() {
    let table = fig1_sweep(Scheme::OffSite, &[10, 20], &[1], true, 1_000, 1);
    for row in 0..table.rows.len() {
        let opt = table.value(row, "Optimal").unwrap();
        assert!(table.value(row, "Algorithm 2").unwrap() <= opt + 1e-6);
        assert!(table.value(row, "Greedy").unwrap() <= opt + 1e-6);
    }
}

#[test]
fn fig2a_smoke_revenue_declines_with_h() {
    // More payment-rate spread (H up, pr_min down) ⇒ less revenue, on
    // average. Use multiple seeds and compare the endpoints.
    let table = fig2a_sweep(&[1.0, 8.0], 250, &[1, 2, 3, 4], 2);
    let at_h1 = table.value(0, "Algorithm 1").unwrap();
    let at_h8 = table.value(1, "Algorithm 1").unwrap();
    assert!(
        at_h8 < at_h1,
        "revenue should drop with H: H=1 → {at_h1}, H=8 → {at_h8}"
    );
}

#[test]
fn fig2b_smoke_alg2_stays_above_greedy_as_k_grows() {
    // The paper's Figure 2(b) claims: revenue decreases with K, and
    // Algorithm 2 "always achieves better performance than the greedy
    // algorithm by varying the value of K".
    let table = fig2b_sweep(&[1.0, 1.2], 400, &[1, 2, 3, 4], 2);
    for row in 0..table.rows.len() {
        let alg = table.value(row, "Algorithm 2").unwrap();
        let greedy = table.value(row, "Greedy (off-site)").unwrap();
        assert!(
            alg > greedy,
            "row {row}: alg2 {alg:.1} should beat greedy {greedy:.1}"
        );
    }
    // Revenue declines as cloudlets get less reliable.
    let alg_first = table.value(0, "Algorithm 2").unwrap();
    let alg_last = table.value(1, "Algorithm 2").unwrap();
    assert!(alg_last < alg_first, "alg2 revenue should drop with K");
}

#[test]
fn scenario_revenue_scale_is_sane() {
    // With abundant capacity (few requests) almost everything is
    // admitted, so all algorithms are near the total payment sum.
    let s = Scenario::build(&ScenarioParams {
        requests: 10,
        ..ScenarioParams::default()
    });
    let total: f64 = s.requests.iter().map(|r| r.payment()).sum();
    let alg1 = s.alg1_revenue();
    assert!(alg1 > 0.0 && alg1 <= total + 1e-9);
}
