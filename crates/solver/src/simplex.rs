//! Dense two-phase primal simplex with bounded variables.
//!
//! Variables live in `[lb, ub]` with `lb` finite and `ub` possibly `+∞`;
//! bounds are handled structurally (nonbasic variables sit at either bound,
//! the ratio test considers bound flips), so `x ≤ 1`-style rows never enter
//! the constraint matrix. Phase 1 minimizes the sum of artificial
//! variables; Dantzig pricing is used initially with a switch to Bland's
//! rule for guaranteed termination.

use crate::error::SolverError;
use crate::model::{Cmp, Model, Sense};

/// Numerical tolerance for reduced costs and feasibility.
const EPS: f64 = 1e-9;
/// Minimum acceptable pivot magnitude.
const PIVOT_TOL: f64 = 1e-8;

/// Result of solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal(LpSolution),
    /// No point satisfies all constraints and bounds.
    Infeasible,
    /// The objective can be improved without bound.
    Unbounded,
}

impl LpOutcome {
    /// Unwraps the optimal solution.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is not [`LpOutcome::Optimal`].
    pub fn expect_optimal(self) -> LpSolution {
        match self {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected an optimal LP solution, got {other:?}"),
        }
    }
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Objective value in the model's original sense.
    pub objective: f64,
    /// Value of each variable, indexed by [`VarId`](crate::VarId) order.
    pub values: Vec<f64>,
    /// One dual (shadow price) per constraint, in the model's sense: for
    /// a maximization, the dual of a binding `≤` row is ≥ 0 and measures
    /// the marginal objective gain per unit of extra right-hand side.
    pub duals: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Basic(usize),
    AtLower,
    AtUpper,
}

struct Tableau {
    /// m × ncols coefficient matrix, kept basis-reduced.
    a: Vec<Vec<f64>>,
    /// Actual values of basic variables, one per row.
    xb: Vec<f64>,
    /// Column of the basic variable in each row.
    basis: Vec<usize>,
    /// Status of every column.
    status: Vec<Status>,
    /// Shifted upper bound of every column (lb already removed, so the
    /// effective domain is `[0, ubs[j]]`).
    ubs: Vec<f64>,
    /// Reduced-cost row for the current phase.
    d: Vec<f64>,
    /// Phase cost vector (for rebuilding `d` after basis changes).
    cost: Vec<f64>,
    /// First artificial column (artificials occupy `art_start..ncols`).
    art_start: usize,
}

impl Tableau {
    fn value_of(&self, col: usize) -> f64 {
        match self.status[col] {
            Status::Basic(r) => self.xb[r],
            Status::AtLower => 0.0,
            Status::AtUpper => self.ubs[col],
        }
    }

    /// Rebuilds the reduced-cost row from `cost` given the current basis.
    fn rebuild_reduced_costs(&mut self) {
        self.d = self.cost.clone();
        for (row, &b) in self.basis.iter().enumerate() {
            let cb = self.cost[b];
            if cb != 0.0 {
                for j in 0..self.d.len() {
                    self.d[j] -= cb * self.a[row][j];
                }
            }
        }
    }

    /// One simplex iteration. Returns `Ok(true)` when optimal, `Ok(false)`
    /// after a pivot or bound flip, `Err(())` when unbounded.
    fn iterate(&mut self, bland: bool) -> Result<bool, ()> {
        let ncols = self.d.len();
        // Entering variable selection.
        let mut enter: Option<(usize, bool)> = None; // (col, from_lower)
        let mut best = EPS;
        for j in 0..ncols {
            let fixed = self.ubs[j] <= EPS; // fixed vars never enter
            if fixed {
                continue;
            }
            match self.status[j] {
                Status::AtLower if self.d[j] < -EPS => {
                    if bland {
                        enter = Some((j, true));
                        break;
                    }
                    if -self.d[j] > best {
                        best = -self.d[j];
                        enter = Some((j, true));
                    }
                }
                Status::AtUpper if self.d[j] > EPS => {
                    if bland {
                        enter = Some((j, false));
                        break;
                    }
                    if self.d[j] > best {
                        best = self.d[j];
                        enter = Some((j, false));
                    }
                }
                _ => {}
            }
        }
        let Some((j, from_lower)) = enter else {
            return Ok(true); // optimal
        };

        // Ratio test. The entering variable moves t ≥ 0 away from its
        // current bound; basic variable i changes by delta_i · t.
        let sign = if from_lower { -1.0 } else { 1.0 };
        let mut t_limit = self.ubs[j]; // bound-flip distance (may be inf)
        let mut leave: Option<(usize, bool)> = None; // (row, leaves_at_upper)
        for i in 0..self.a.len() {
            let delta = sign * self.a[i][j];
            // Candidate limit for this row, if its basic variable binds.
            let candidate = if delta < -PIVOT_TOL {
                // Basic value decreasing toward its lower bound 0.
                Some((self.xb[i].max(0.0) / (-delta), false))
            } else if delta > PIVOT_TOL {
                // Basic value increasing toward its upper bound.
                let ub = self.ubs[self.basis[i]];
                ub.is_finite()
                    .then(|| (((ub - self.xb[i]).max(0.0)) / delta, true))
            } else {
                None
            };
            if let Some((t, at_upper)) = candidate {
                if t < t_limit - 1e-12 {
                    t_limit = t;
                    leave = Some((i, at_upper));
                } else if (t - t_limit).abs() <= 1e-12 {
                    // Tie: prefer evicting the smallest basis column
                    // (Bland-flavoured, aids termination).
                    match leave {
                        Some((r, _)) if self.basis[i] >= self.basis[r] => {}
                        _ => {
                            t_limit = t;
                            leave = Some((i, at_upper));
                        }
                    }
                }
            }
        }

        if t_limit.is_infinite() {
            return Err(()); // unbounded direction
        }

        match leave {
            None => {
                // Bound flip: entering variable crosses to its other bound.
                for i in 0..self.a.len() {
                    self.xb[i] += sign * self.a[i][j] * t_limit;
                }
                self.status[j] = if from_lower {
                    Status::AtUpper
                } else {
                    Status::AtLower
                };
                Ok(false)
            }
            Some((r, leaves_at_upper)) => {
                // Update basic values.
                for i in 0..self.a.len() {
                    if i != r {
                        self.xb[i] += sign * self.a[i][j] * t_limit;
                    }
                }
                let entering_value = if from_lower {
                    t_limit
                } else {
                    self.ubs[j] - t_limit
                };
                let leaving = self.basis[r];
                self.status[leaving] = if leaves_at_upper {
                    Status::AtUpper
                } else {
                    Status::AtLower
                };
                // Row reduction.
                let piv = self.a[r][j];
                debug_assert!(piv.abs() > PIVOT_TOL * 0.1, "tiny pivot {piv}");
                let inv = 1.0 / piv;
                for v in self.a[r].iter_mut() {
                    *v *= inv;
                }
                for i in 0..self.a.len() {
                    if i != r {
                        let f = self.a[i][j];
                        if f != 0.0 {
                            // Manual row update to avoid borrow conflicts.
                            let (head, tail) = self.a.split_at_mut(r.max(i));
                            let (row_i, row_r) = if i < r {
                                (&mut head[i], &tail[0])
                            } else {
                                (&mut tail[0], &head[r])
                            };
                            for (vi, vr) in row_i.iter_mut().zip(row_r.iter()) {
                                *vi -= f * vr;
                            }
                        }
                    }
                }
                let dj = self.d[j];
                if dj != 0.0 {
                    for (dv, rv) in self.d.iter_mut().zip(self.a[r].iter()) {
                        *dv -= dj * rv;
                    }
                }
                self.basis[r] = j;
                self.status[j] = Status::Basic(r);
                self.xb[r] = entering_value;
                Ok(false)
            }
        }
    }
}

/// Solves a linear program, relaxing any integrality markers.
///
/// # Errors
///
/// * [`SolverError::EmptyModel`] for a model with no variables.
/// * [`SolverError::IterationLimit`] if simplex fails to terminate within
///   a generous iteration budget (indicates severe numerical trouble).
///
/// Infeasibility and unboundedness are reported through [`LpOutcome`],
/// not as errors.
pub fn solve_lp(model: &Model) -> Result<LpOutcome, SolverError> {
    let n = model.num_vars();
    if n == 0 {
        return Err(SolverError::EmptyModel);
    }
    let m = model.num_constraints();

    // Shift variables so lb = 0 and pre-compute adjusted rhs.
    let lbs: Vec<f64> = (0..n).map(|j| model.vars[j].lb).collect();
    let mut ubs: Vec<f64> = (0..n)
        .map(|j| model.vars[j].ub - model.vars[j].lb)
        .collect();

    // Count slacks/artificials per row after rhs normalization.
    #[derive(Clone, Copy)]
    struct RowPlan {
        flip: bool,
        cmp: Cmp,
    }
    let mut plans = Vec::with_capacity(m);
    let mut rhs = Vec::with_capacity(m);
    for c in &model.constraints {
        let shift: f64 = c.terms.iter().map(|&(v, coef)| coef * lbs[v.index()]).sum();
        let mut b = c.rhs - shift;
        let mut cmp = c.cmp;
        let flip = b < 0.0;
        if flip {
            b = -b;
            cmp = match cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
        plans.push(RowPlan { flip, cmp });
        rhs.push(b);
    }

    let n_slack = plans
        .iter()
        .filter(|p| matches!(p.cmp, Cmp::Le | Cmp::Ge))
        .count();
    let n_art = plans
        .iter()
        .filter(|p| matches!(p.cmp, Cmp::Ge | Cmp::Eq))
        .count();
    let ncols = n + n_slack + n_art;
    let art_start = n + n_slack;

    let mut a = vec![vec![0.0; ncols]; m];
    for (i, c) in model.constraints.iter().enumerate() {
        let s = if plans[i].flip { -1.0 } else { 1.0 };
        for &(v, coef) in &c.terms {
            a[i][v.index()] += s * coef;
        }
    }
    // Slack/surplus and artificial columns; build the initial basis.
    // `row_aux` remembers, per row, the auxiliary column and its sign so
    // duals can be read off the reduced-cost row after phase 2
    // (`y_i = −d[aux] / sign`).
    let mut basis = vec![usize::MAX; m];
    let mut status = vec![Status::AtLower; ncols];
    let mut row_aux: Vec<(usize, f64)> = Vec::with_capacity(m);
    let mut col = n;
    let mut art_col = art_start;
    for (i, p) in plans.iter().enumerate() {
        match p.cmp {
            Cmp::Le => {
                a[i][col] = 1.0;
                basis[i] = col;
                row_aux.push((col, 1.0));
                col += 1;
            }
            Cmp::Ge => {
                a[i][col] = -1.0; // surplus
                row_aux.push((col, -1.0));
                col += 1;
                a[i][art_col] = 1.0;
                basis[i] = art_col;
                art_col += 1;
            }
            Cmp::Eq => {
                row_aux.push((art_col, 1.0));
                a[i][art_col] = 1.0;
                basis[i] = art_col;
                art_col += 1;
            }
        }
    }
    ubs.extend(std::iter::repeat_n(f64::INFINITY, ncols - n));
    for (i, &b) in basis.iter().enumerate() {
        status[b] = Status::Basic(i);
    }

    let mut t = Tableau {
        a,
        xb: rhs,
        basis,
        status,
        ubs,
        d: Vec::new(),
        cost: vec![0.0; ncols],
        art_start,
    };

    let max_iters = 200 * (m + ncols) + 20_000;

    // Phase 1: minimize the sum of artificials (skip if none).
    if n_art > 0 {
        for j in t.art_start..ncols {
            t.cost[j] = 1.0;
        }
        t.rebuild_reduced_costs();
        if run(&mut t, max_iters)?.is_err() {
            // Phase 1 minimizes a sum of non-negative variables and can
            // never actually be unbounded; treat it as infeasibility.
            return Ok(LpOutcome::Infeasible);
        }
        let infeas: f64 = (t.art_start..ncols).map(|j| t.value_of(j)).sum();
        if infeas > 1e-6 {
            return Ok(LpOutcome::Infeasible);
        }
        // Freeze artificials at zero so they can never re-enter.
        for j in t.art_start..ncols {
            t.ubs[j] = 0.0;
        }
    }

    // Phase 2: the real objective (internal sense: minimize).
    let sense_mul = match model.sense() {
        Sense::Maximize => -1.0,
        Sense::Minimize => 1.0,
    };
    for j in 0..ncols {
        t.cost[j] = if j < n {
            sense_mul * model.vars[j].objective
        } else {
            0.0
        };
    }
    t.rebuild_reduced_costs();
    match run(&mut t, max_iters)? {
        Ok(()) => {}
        Err(()) => return Ok(LpOutcome::Unbounded),
    }

    // Extract the solution in original coordinates.
    let values: Vec<f64> = (0..n).map(|j| lbs[j] + t.value_of(j)).collect();
    let objective = model.objective_value(&values);
    // Dual values: the reduced cost of row i's auxiliary column equals
    // `0 − y_i·sign` (its true cost is 0 and its column is a ±unit
    // vector), so `y_i = −d[aux]/sign`; undo the rhs-normalization flip
    // and the internal minimize convention.
    let duals: Vec<f64> = (0..m)
        .map(|i| {
            let (aux, sign) = row_aux[i];
            let y_internal = -t.d[aux] / sign;
            let y_row = if plans[i].flip {
                -y_internal
            } else {
                y_internal
            };
            sense_mul * y_row
        })
        .collect();
    Ok(LpOutcome::Optimal(LpSolution {
        objective,
        values,
        duals,
    }))
}

/// Runs simplex iterations to optimality.
///
/// Outer `Result` is a hard solver error; inner `Result` is
/// `Ok(())` = optimal, `Err(())` = unbounded.
fn run(t: &mut Tableau, max_iters: usize) -> Result<Result<(), ()>, SolverError> {
    let bland_after = max_iters / 2;
    for iter in 0..max_iters {
        match t.iterate(iter >= bland_after) {
            Ok(true) => return Ok(Ok(())),
            Ok(false) => {}
            Err(()) => return Ok(Err(())),
        }
    }
    Err(SolverError::IterationLimit(max_iters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense, VarId};

    fn opt(m: &Model) -> LpSolution {
        solve_lp(m).unwrap().expect_optimal()
    }

    #[test]
    fn simple_max_two_vars() {
        // max 3x + 2y s.t. x + y ≤ 4, x ≤ 2, y ≤ 3 → x=2, y=2, obj=10.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, Some(2.0), 3.0).unwrap();
        let y = m.add_var(0.0, Some(3.0), 2.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0)
            .unwrap();
        let s = opt(&m);
        assert!((s.objective - 10.0).abs() < 1e-7, "obj {}", s.objective);
        assert!((s.values[0] - 2.0).abs() < 1e-7);
        assert!((s.values[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn classic_lp_with_three_constraints() {
        // max 5x + 4y s.t. 6x + 4y ≤ 24, x + 2y ≤ 6 → (3, 1.5), obj 21.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, None, 5.0).unwrap();
        let y = m.add_var(0.0, None, 4.0).unwrap();
        m.add_constraint(vec![(x, 6.0), (y, 4.0)], Cmp::Le, 24.0)
            .unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Le, 6.0)
            .unwrap();
        let s = opt(&m);
        assert!((s.objective - 21.0).abs() < 1e-7);
        assert!((s.values[0] - 3.0).abs() < 1e-7);
        assert!((s.values[1] - 1.5).abs() < 1e-7);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y ≥ 4, x ≥ 1 → (4, 0)? check: obj(4,0)=8;
        // obj(1,3)=11 → optimum x=4,y=0, obj 8.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, None, 2.0).unwrap();
        let y = m.add_var(0.0, None, 3.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0)
            .unwrap();
        m.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0).unwrap();
        let s = opt(&m);
        assert!((s.objective - 8.0).abs() < 1e-7, "obj {}", s.objective);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 3, x − y = 1 → (2, 1), obj 3.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, None, 1.0).unwrap();
        let y = m.add_var(0.0, None, 1.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 3.0)
            .unwrap();
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0)
            .unwrap();
        let s = opt(&m);
        assert!((s.objective - 3.0).abs() < 1e-7);
        assert!((s.values[0] - 2.0).abs() < 1e-7);
        assert!((s.values[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn duals_of_textbook_lp() {
        // max 5x + 4y s.t. 6x + 4y ≤ 24, x + 2y ≤ 6 → y = (0.75, 0.5)
        // and strong duality: 24·0.75 + 6·0.5 = 21 = objective.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, None, 5.0).unwrap();
        let y = m.add_var(0.0, None, 4.0).unwrap();
        m.add_constraint(vec![(x, 6.0), (y, 4.0)], Cmp::Le, 24.0)
            .unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Le, 6.0)
            .unwrap();
        let s = opt(&m);
        assert!((s.duals[0] - 0.75).abs() < 1e-7, "duals {:?}", s.duals);
        assert!((s.duals[1] - 0.5).abs() < 1e-7, "duals {:?}", s.duals);
        let dual_obj = 24.0 * s.duals[0] + 6.0 * s.duals[1];
        assert!((dual_obj - s.objective).abs() < 1e-7);
    }

    #[test]
    fn duals_nonnegative_for_max_le_rows_and_zero_when_slack() {
        // max x s.t. x ≤ 2 (binding), x + y ≤ 100 (slack, y free to 0).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, None, 1.0).unwrap();
        let y = m.add_var(0.0, None, 0.0).unwrap();
        m.add_constraint(vec![(x, 1.0)], Cmp::Le, 2.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 100.0)
            .unwrap();
        let s = opt(&m);
        assert!((s.duals[0] - 1.0).abs() < 1e-7, "duals {:?}", s.duals);
        assert!(s.duals[1].abs() < 1e-9, "slack row must have zero dual");
    }

    #[test]
    fn duals_for_minimization_ge_rows() {
        // min 2x + 3y s.t. x + y ≥ 4 → optimum x = 4, dual of the ≥ row
        // is the cheaper unit cost, 2.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, None, 2.0).unwrap();
        let y = m.add_var(0.0, None, 3.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0)
            .unwrap();
        let s = opt(&m);
        assert!((s.duals[0] - 2.0).abs() < 1e-7, "duals {:?}", s.duals);
        assert!((4.0 * s.duals[0] - s.objective).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, Some(1.0), 1.0).unwrap();
        m.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0).unwrap();
        assert_eq!(solve_lp(&m).unwrap(), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, None, 1.0).unwrap();
        let y = m.add_var(0.0, None, 0.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Le, 1.0)
            .unwrap();
        assert_eq!(solve_lp(&m).unwrap(), LpOutcome::Unbounded);
    }

    #[test]
    fn bounded_above_by_variable_bounds_only() {
        // No constraints at all: optimum sits at the bounds.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, Some(7.0), 2.0).unwrap();
        let y = m.add_var(1.0, Some(2.0), -5.0).unwrap();
        let _ = (x, y);
        let s = opt(&m);
        assert!((s.values[0] - 7.0).abs() < 1e-7);
        assert!((s.values[1] - 1.0).abs() < 1e-7);
        assert!((s.objective - 9.0).abs() < 1e-7);
    }

    #[test]
    fn nonzero_lower_bounds_are_shifted_correctly() {
        // min x + y with x ≥ 2, y ≥ 3, x + y ≥ 7 → obj 7.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(2.0, None, 1.0).unwrap();
        let y = m.add_var(3.0, None, 1.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 7.0)
            .unwrap();
        let s = opt(&m);
        assert!((s.objective - 7.0).abs() < 1e-7);
        assert!(s.values[0] >= 2.0 - 1e-9 && s.values[1] >= 3.0 - 1e-9);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // max x s.t. −x ≤ −2 (i.e. x ≥ 2), x ≤ 5.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, Some(5.0), 1.0).unwrap();
        m.add_constraint(vec![(x, -1.0)], Cmp::Le, -2.0).unwrap();
        let s = opt(&m);
        assert!((s.objective - 5.0).abs() < 1e-7);
    }

    #[test]
    fn fixed_variables_are_respected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(3.0, Some(3.0), 10.0).unwrap();
        let y = m.add_var(0.0, Some(10.0), 1.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 8.0)
            .unwrap();
        let s = opt(&m);
        assert!((s.values[0] - 3.0).abs() < 1e-9);
        assert!((s.values[1] - 5.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Highly degenerate: many redundant constraints through the origin.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, None, 1.0).unwrap();
        let y = m.add_var(0.0, None, 1.0).unwrap();
        for k in 1..=6 {
            m.add_constraint(vec![(x, k as f64), (y, 1.0)], Cmp::Le, k as f64)
                .unwrap();
        }
        let s = opt(&m);
        // Optimum: x=1,y=0 gives 1; x=0,y=1 gives 1 (first row binds y ≤ 1
        // only via k=1 row x+y≤1). All rows: kx + y ≤ k. At x=0: y ≤ 1.
        assert!((s.objective - 1.0).abs() < 1e-7, "obj {}", s.objective);
    }

    #[test]
    fn packing_lp_matches_hand_solution() {
        // Fractional knapsack: max 4a + 3b + 2c, a+b+c ≤ 1.5, all ≤ 1.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_var(0.0, Some(1.0), 4.0).unwrap();
        let b = m.add_var(0.0, Some(1.0), 3.0).unwrap();
        let c = m.add_var(0.0, Some(1.0), 2.0).unwrap();
        m.add_constraint(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Cmp::Le, 1.5)
            .unwrap();
        let s = opt(&m);
        assert!((s.objective - 5.5).abs() < 1e-7); // a=1, b=0.5
        assert!((s.values[0] - 1.0).abs() < 1e-7);
        assert!((s.values[1] - 0.5).abs() < 1e-7);
    }

    #[test]
    fn solution_is_always_feasible() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..6)
            .map(|i| {
                m.add_var(0.0, Some(1.0 + i as f64), (i + 1) as f64)
                    .unwrap()
            })
            .collect();
        for k in 0..4 {
            let terms = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, ((i + k) % 3 + 1) as f64))
                .collect();
            m.add_constraint(terms, Cmp::Le, 10.0 + k as f64).unwrap();
        }
        let s = opt(&m);
        assert!(m.is_feasible(&s.values, 1e-6));
    }

    #[test]
    fn empty_model_is_an_error() {
        let m = Model::new(Sense::Maximize);
        assert_eq!(solve_lp(&m).unwrap_err(), SolverError::EmptyModel);
    }
}
