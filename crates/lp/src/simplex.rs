//! A dense two-phase primal simplex solver.
//!
//! The solver minimises `c · x` subject to linear constraints `a_i · x {<=, >=, =} b_i`
//! and `x >= 0`. It uses the standard tableau method with Bland's rule for both the
//! entering and the leaving variable, which guarantees termination (no cycling) at the
//! cost of speed — entirely acceptable for the instance sizes the rounding experiments
//! need (a few hundred variables and constraints).
//!
//! The implementation favours clarity over micro-optimisation: the tableau is a dense
//! row-major `Vec<f64>`, and each pivot is a rank-1 update over the full tableau,
//! parallelised over rows with rayon when the tableau is large.

use crate::faclp::LpError;
use parfaclo_metric::SCRATCH_BYTES_CAP;
use rayon::prelude::*;

/// Relational operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `a · x <= b`
    Le,
    /// `a · x >= b`
    Ge,
    /// `a · x = b`
    Eq,
}

/// One linear constraint `a · x (op) b`, with `a` given sparsely as
/// `(variable index, coefficient)` pairs.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sparse coefficient list; indices must be `< num_vars` of the program.
    pub coeffs: Vec<(usize, f64)>,
    /// The relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// Convenience constructor.
    pub fn new(coeffs: Vec<(usize, f64)>, op: ConstraintOp, rhs: f64) -> Self {
        Constraint { coeffs, op, rhs }
    }
}

/// A linear program in minimisation form over non-negative variables.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    /// Number of decision variables.
    pub num_vars: usize,
    /// Objective coefficients (length `num_vars`); the solver minimises.
    pub objective: Vec<f64>,
    /// The constraints.
    pub constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates an empty program with `num_vars` variables and a zero objective.
    pub fn new(num_vars: usize) -> Self {
        LinearProgram {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Sets the objective coefficient of variable `var`.
    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        assert!(var < self.num_vars, "variable index out of range");
        self.objective[var] = coeff;
    }

    /// Adds a constraint.
    pub fn add_constraint(&mut self, c: Constraint) {
        for &(v, _) in &c.coeffs {
            assert!(
                v < self.num_vars,
                "constraint references unknown variable {v}"
            );
        }
        self.constraints.push(c);
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimplexOutcome {
    /// An optimal solution was found.
    Optimal,
    /// The constraints are inconsistent.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

/// The result of solving a [`LinearProgram`].
#[derive(Debug, Clone)]
pub struct SimplexSolution {
    /// Whether the solve succeeded.
    pub outcome: SimplexOutcome,
    /// Optimal objective value (only meaningful when `outcome == Optimal`).
    pub value: f64,
    /// Optimal variable assignment (only meaningful when `outcome == Optimal`).
    pub x: Vec<f64>,
    /// Number of simplex pivots performed across both phases.
    pub pivots: usize,
}

const TOL: f64 = 1e-9;

struct Tableau {
    rows: usize, // number of constraints
    cols: usize, // total columns incl. rhs
    data: Vec<f64>,
    basis: Vec<usize>,
    /// objective row (reduced costs) with one extra entry for the objective value
    obj: Vec<f64>,
    pivots: usize,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let cols = self.cols;
        let pivot_val = self.at(row, col);
        debug_assert!(pivot_val.abs() > TOL);
        // Normalise the pivot row.
        {
            let r = &mut self.data[row * cols..(row + 1) * cols];
            for v in r.iter_mut() {
                *v /= pivot_val;
            }
        }
        let pivot_row: Vec<f64> = self.data[row * cols..(row + 1) * cols].to_vec();
        // Eliminate the pivot column from all other rows (parallel when large).
        let eliminate = |r_idx: usize, r: &mut [f64]| {
            if r_idx == row {
                return;
            }
            let factor = r[col];
            if factor.abs() > TOL {
                for (v, &p) in r.iter_mut().zip(pivot_row.iter()) {
                    *v -= factor * p;
                }
            }
        };
        if self.rows * cols > 64 * 1024 {
            self.data
                .par_chunks_mut(cols)
                .enumerate()
                .for_each(|(r_idx, r)| eliminate(r_idx, r));
        } else {
            for (r_idx, r) in self.data.chunks_mut(cols).enumerate() {
                eliminate(r_idx, r);
            }
        }
        // Objective row.
        let factor = self.obj[col];
        if factor.abs() > TOL {
            for (v, &p) in self.obj.iter_mut().zip(pivot_row.iter()) {
                *v -= factor * p;
            }
        }
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Runs simplex iterations with Bland's rule until optimality or unboundedness.
    /// `active_cols` restricts the entering-variable choice (used to freeze artificial
    /// columns in phase 2).
    fn run(&mut self, active_cols: usize, max_pivots: usize) -> SimplexOutcome {
        loop {
            if self.pivots > max_pivots {
                // With Bland's rule this should never happen; treat as a defensive limit.
                panic!("simplex exceeded {max_pivots} pivots — numerical trouble");
            }
            // Bland: entering variable = smallest index with negative reduced cost.
            let entering = (0..active_cols).find(|&c| self.obj[c] < -TOL);
            let col = match entering {
                Some(c) => c,
                None => return SimplexOutcome::Optimal,
            };
            // Ratio test with Bland tie-breaking (smallest basis variable index).
            let mut best: Option<(usize, f64)> = None;
            for r in 0..self.rows {
                let a = self.at(r, col);
                if a > TOL {
                    let ratio = self.at(r, self.cols - 1) / a;
                    match best {
                        None => best = Some((r, ratio)),
                        Some((br, bratio)) => {
                            if ratio < bratio - TOL
                                || ((ratio - bratio).abs() <= TOL && self.basis[r] < self.basis[br])
                            {
                                best = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            match best {
                None => return SimplexOutcome::Unbounded,
                Some((row, _)) => self.pivot(row, col),
            }
        }
    }
}

/// A constraint normalised to a non-negative right-hand side:
/// `(coefficients, operator, rhs)`.
type NormalisedRow = (Vec<(usize, f64)>, ConstraintOp, f64);

/// Solves the program with the two-phase primal simplex method.
///
/// # Errors
/// Refuses with [`LpError::TableauTooLarge`], before allocating, when the dense
/// tableau would exceed [`SCRATCH_BYTES_CAP`].
pub fn solve(lp: &LinearProgram) -> Result<SimplexSolution, LpError> {
    let n = lp.num_vars;
    let m = lp.constraints.len();

    // Normalise constraints so every right-hand side is non-negative.
    let mut rows: Vec<NormalisedRow> = Vec::with_capacity(m);
    for c in &lp.constraints {
        if c.rhs < 0.0 {
            let flipped: Vec<(usize, f64)> = c.coeffs.iter().map(|&(v, a)| (v, -a)).collect();
            let op = match c.op {
                ConstraintOp::Le => ConstraintOp::Ge,
                ConstraintOp::Ge => ConstraintOp::Le,
                ConstraintOp::Eq => ConstraintOp::Eq,
            };
            rows.push((flipped, op, -c.rhs));
        } else {
            rows.push((c.coeffs.clone(), c.op, c.rhs));
        }
    }

    // Column layout: [original vars | slacks/surpluses | artificials | rhs].
    let num_slack = rows
        .iter()
        .filter(|(_, op, _)| *op != ConstraintOp::Eq)
        .count();
    let num_artificial = rows
        .iter()
        .filter(|(_, op, _)| *op != ConstraintOp::Le)
        .count();
    let cols = n + num_slack + num_artificial + 1;
    let rhs_col = cols - 1;
    let tableau_bytes = m.checked_mul(cols).and_then(|cells| cells.checked_mul(8));
    if tableau_bytes.map_or(true, |bytes| bytes as u64 > SCRATCH_BYTES_CAP) {
        return Err(LpError::TableauTooLarge { rows: m, cols });
    }

    let mut data = vec![0.0; m * cols];
    let mut basis = vec![usize::MAX; m];
    let mut slack_idx = n;
    let mut art_idx = n + num_slack;
    let mut artificial_cols = Vec::new();

    for (r, (coeffs, op, rhs)) in rows.iter().enumerate() {
        for &(v, a) in coeffs {
            data[r * cols + v] += a;
        }
        data[r * cols + rhs_col] = *rhs;
        match op {
            ConstraintOp::Le => {
                data[r * cols + slack_idx] = 1.0;
                basis[r] = slack_idx;
                slack_idx += 1;
            }
            ConstraintOp::Ge => {
                data[r * cols + slack_idx] = -1.0;
                slack_idx += 1;
                data[r * cols + art_idx] = 1.0;
                basis[r] = art_idx;
                artificial_cols.push(art_idx);
                art_idx += 1;
            }
            ConstraintOp::Eq => {
                data[r * cols + art_idx] = 1.0;
                basis[r] = art_idx;
                artificial_cols.push(art_idx);
                art_idx += 1;
            }
        }
    }

    let max_pivots = 50_000 + 200 * (m + cols);

    // Phase 1: minimise the sum of artificial variables.
    let mut tab = Tableau {
        rows: m,
        cols,
        data,
        basis,
        obj: vec![0.0; cols],
        pivots: 0,
    };
    if !artificial_cols.is_empty() {
        // Phase-1 objective: sum of artificials, expressed in terms of non-basic
        // variables by subtracting the rows whose basic variable is artificial.
        let mut obj = vec![0.0; cols];
        for &a in &artificial_cols {
            obj[a] = 1.0;
        }
        for r in 0..m {
            if artificial_cols.contains(&tab.basis[r]) {
                for (c, o) in obj.iter_mut().enumerate() {
                    *o -= tab.at(r, c);
                }
            }
        }
        tab.obj = obj;
        match tab.run(cols - 1, max_pivots) {
            SimplexOutcome::Unbounded => unreachable!("phase-1 objective is bounded below by 0"),
            SimplexOutcome::Optimal => {}
            SimplexOutcome::Infeasible => unreachable!(),
        }
        let phase1_value = -tab.obj[rhs_col];
        if phase1_value > 1e-6 {
            return Ok(SimplexSolution {
                outcome: SimplexOutcome::Infeasible,
                value: f64::NAN,
                x: vec![],
                pivots: tab.pivots,
            });
        }
        // Drive any artificial variables still in the basis out of it (degenerate rows).
        for r in 0..m {
            if artificial_cols.contains(&tab.basis[r]) {
                // Find a non-artificial column with a non-zero entry to pivot on.
                if let Some(c) = (0..n + num_slack).find(|&c| tab.at(r, c).abs() > TOL) {
                    tab.pivot(r, c);
                }
                // If none exists the row is redundant; leaving the artificial at value 0
                // in the basis is harmless as long as it can never re-enter (phase 2
                // restricts entering columns to the non-artificial ones).
            }
        }
    }

    // Phase 2: original objective expressed over the current basis.
    let mut obj = vec![0.0; cols];
    obj[..n].copy_from_slice(&lp.objective[..n]);
    for r in 0..m {
        let b = tab.basis[r];
        let cb = if b < n { lp.objective[b] } else { 0.0 };
        if cb.abs() > 0.0 {
            for (c, o) in obj.iter_mut().enumerate() {
                *o -= cb * tab.at(r, c);
            }
        }
    }
    tab.obj = obj;
    // Artificial columns are frozen in phase 2 by restricting the entering choice.
    let outcome = tab.run(n + num_slack, max_pivots);
    if outcome == SimplexOutcome::Unbounded {
        return Ok(SimplexSolution {
            outcome,
            value: f64::NEG_INFINITY,
            x: vec![],
            pivots: tab.pivots,
        });
    }

    // Extract the solution.
    let mut x = vec![0.0; n];
    for r in 0..m {
        let b = tab.basis[r];
        if b < n {
            x[b] = tab.at(r, rhs_col);
        }
    }
    let value: f64 = lp.objective.iter().zip(x.iter()).map(|(c, v)| c * v).sum();
    Ok(SimplexSolution {
        outcome: SimplexOutcome::Optimal,
        value,
        x,
        pivots: tab.pivots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn simple_le_maximisation_as_minimisation() {
        // maximise x + y s.t. x + 2y <= 4, 3x + y <= 6  →  minimise -(x + y).
        // Optimum at intersection x = 8/5, y = 6/5, value 14/5.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -1.0);
        lp.set_objective(1, -1.0);
        lp.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, 2.0)],
            ConstraintOp::Le,
            4.0,
        ));
        lp.add_constraint(Constraint::new(
            vec![(0, 3.0), (1, 1.0)],
            ConstraintOp::Le,
            6.0,
        ));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.outcome, SimplexOutcome::Optimal);
        assert_close(sol.value, -14.0 / 5.0);
        assert_close(sol.x[0], 8.0 / 5.0);
        assert_close(sol.x[1], 6.0 / 5.0);
    }

    #[test]
    fn ge_constraints_need_phase_one() {
        // minimise 2x + 3y s.t. x + y >= 4, x >= 1. Optimum x = 4, y = 0, value 8.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 2.0);
        lp.set_objective(1, 3.0);
        lp.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, 1.0)],
            ConstraintOp::Ge,
            4.0,
        ));
        lp.add_constraint(Constraint::new(vec![(0, 1.0)], ConstraintOp::Ge, 1.0));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.outcome, SimplexOutcome::Optimal);
        assert_close(sol.value, 8.0);
        assert_close(sol.x[0], 4.0);
        assert_close(sol.x[1], 0.0);
    }

    #[test]
    fn equality_constraints() {
        // minimise x + y s.t. x + y = 3, x - y = 1 → x = 2, y = 1, value 3.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, 1.0)],
            ConstraintOp::Eq,
            3.0,
        ));
        lp.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, -1.0)],
            ConstraintOp::Eq,
            1.0,
        ));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.outcome, SimplexOutcome::Optimal);
        assert_close(sol.value, 3.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 1.0);
    }

    #[test]
    fn infeasible_program_detected() {
        // x >= 5 and x <= 2 simultaneously.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add_constraint(Constraint::new(vec![(0, 1.0)], ConstraintOp::Ge, 5.0));
        lp.add_constraint(Constraint::new(vec![(0, 1.0)], ConstraintOp::Le, 2.0));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.outcome, SimplexOutcome::Infeasible);
    }

    #[test]
    fn unbounded_program_detected() {
        // minimise -x s.t. x >= 1 (x can grow without bound).
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, -1.0);
        lp.add_constraint(Constraint::new(vec![(0, 1.0)], ConstraintOp::Ge, 1.0));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.outcome, SimplexOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // -x <= -2  ⇔  x >= 2; minimise x → 2.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add_constraint(Constraint::new(vec![(0, -1.0)], ConstraintOp::Le, -2.0));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.outcome, SimplexOutcome::Optimal);
        assert_close(sol.value, 2.0);
    }

    #[test]
    fn degenerate_program_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -1.0);
        lp.set_objective(1, -1.0);
        lp.add_constraint(Constraint::new(vec![(0, 1.0)], ConstraintOp::Le, 1.0));
        lp.add_constraint(Constraint::new(vec![(1, 1.0)], ConstraintOp::Le, 1.0));
        lp.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, 1.0)],
            ConstraintOp::Le,
            2.0,
        ));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.outcome, SimplexOutcome::Optimal);
        assert_close(sol.value, -2.0);
    }

    #[test]
    fn redundant_equality_rows_are_tolerated() {
        // x + y = 2 stated twice.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 2.0);
        lp.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, 1.0)],
            ConstraintOp::Eq,
            2.0,
        ));
        lp.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, 1.0)],
            ConstraintOp::Eq,
            2.0,
        ));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.outcome, SimplexOutcome::Optimal);
        assert_close(sol.value, 2.0);
        assert_close(sol.x[0], 2.0);
    }

    #[test]
    fn zero_objective_returns_any_feasible_point() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(Constraint::new(
            vec![(0, 1.0), (1, 1.0)],
            ConstraintOp::Ge,
            1.0,
        ));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.outcome, SimplexOutcome::Optimal);
        assert!(sol.x[0] + sol.x[1] >= 1.0 - 1e-9);
        assert_close(sol.value, 0.0);
    }
}
