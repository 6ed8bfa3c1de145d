//! A self-contained linear- and mixed-integer-programming solver.
//!
//! This crate substitutes for the CPLEX Optimizer used in the paper's
//! evaluation to compute offline optima. It provides:
//!
//! * [`Model`] — a small modeling API (variables with structural bounds,
//!   linear constraints, max/min objectives),
//! * [`solve_lp`] — dense two-phase primal simplex with *bounded
//!   variables*: upper bounds such as `X_i ≤ 1` and `Y_ij ≤ 1` are handled
//!   in the ratio test rather than as constraint rows, which keeps the
//!   VNF-placement models compact,
//! * [`solve_mip`] — best-first branch-and-bound over the LP relaxation
//!   with node/time budgets, reporting incumbent + dual bound (an anytime
//!   optimizer).
//!
//! # Example
//!
//! ```
//! use lp_solver::{Model, Sense, Cmp, solve_mip, BnbConfig};
//! # fn main() -> Result<(), lp_solver::SolverError> {
//! // A tiny knapsack: max 10a + 13b, 3a + 4b ≤ 6, a, b ∈ {0, 1}.
//! let mut m = Model::new(Sense::Maximize);
//! let a = m.add_binary_var(10.0)?;
//! let b = m.add_binary_var(13.0)?;
//! m.add_constraint(vec![(a, 3.0), (b, 4.0)], Cmp::Le, 6.0)?;
//! let sol = solve_mip(&m, &BnbConfig::default())?.expect_solution();
//! assert!((sol.objective - 13.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod branch_bound;
mod error;
mod model;
mod simplex;

pub use branch_bound::{solve_mip, BnbConfig, MipOutcome, MipSolution};
pub use error::SolverError;
pub use model::{Cmp, Model, Sense, VarId, VarKind};
pub use simplex::{solve_lp, LpOutcome, LpSolution};
