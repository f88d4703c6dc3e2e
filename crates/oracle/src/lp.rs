//! A small, dependency-free linear-programming solver.
//!
//! The RUSH paper notes (Sec. III-B) that the Time-Aware Scheduling problem
//! "can be transformed and efficiently solved using linear programming
//! techniques (e.g., simplex method)" — the approach of the authors' prior
//! CoRA scheduler — before motivating onion peeling as the faster
//! alternative. This module provides that reference path: a dense two-phase
//! tableau [`simplex`](Problem::solve) with Bland's anti-cycling rule,
//! adequate for the problem sizes the cross-validation tests need
//! (tens of variables).
//!
//! # Example
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x ≤ 2`:
//!
//! ```
//! use rush_oracle::lp::{Problem, Relation, Solution};
//!
//! let mut p = Problem::maximize(vec![3.0, 2.0]);
//! p.constrain(vec![1.0, 1.0], Relation::Le, 4.0);
//! p.constrain(vec![1.0, 0.0], Relation::Le, 2.0);
//! match p.solve() {
//!     Solution::Optimal { objective, x } => {
//!         assert!((objective - 10.0).abs() < 1e-9); // x=2, y=2
//!         assert!((x[0] - 2.0).abs() < 1e-9);
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

mod tas;

pub use tas::{level_feasible_lp, max_min_level_lp};

/// Numerical tolerance for pivoting and feasibility decisions.
const EPS: f64 = 1e-9;

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum Solution {
    /// An optimal solution exists.
    Optimal {
        /// The optimal decision vector.
        x: Vec<f64>,
        /// The optimal objective value (in the *maximization* sense).
        objective: f64,
    },
    /// No point satisfies all constraints.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
}

impl Solution {
    /// The optimal objective, if any.
    pub fn objective(&self) -> Option<f64> {
        match self {
            Solution::Optimal { objective, .. } => Some(*objective),
            _ => None,
        }
    }
}

/// A linear program over non-negative variables `x ≥ 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// Objective coefficients (maximization).
    c: Vec<f64>,
    rows: Vec<(Vec<f64>, Relation, f64)>,
}

impl Problem {
    /// Starts a maximization problem over `c.len()` non-negative variables.
    pub fn maximize(c: Vec<f64>) -> Self {
        Problem { c, rows: Vec::new() }
    }

    /// Starts a minimization problem (internally negated).
    pub fn minimize(c: Vec<f64>) -> Self {
        Problem { c: c.into_iter().map(|v| -v).collect(), rows: Vec::new() }
    }

    /// Adds the constraint `a·x REL b`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len()` differs from the variable count.
    pub fn constrain(&mut self, a: Vec<f64>, rel: Relation, b: f64) -> &mut Self {
        assert_eq!(a.len(), self.c.len(), "constraint arity mismatch");
        self.rows.push((a, rel, b));
        self
    }

    /// Number of decision variables.
    pub fn vars(&self) -> usize {
        self.c.len()
    }

    /// Number of constraints.
    pub fn constraints(&self) -> usize {
        self.rows.len()
    }

    /// Solves with two-phase tableau simplex (Bland's rule).
    pub fn solve(&self) -> Solution {
        Tableau::new(self).solve()
    }
}

/// Dense simplex tableau.
///
/// Layout: columns `[structural | slack/surplus | artificial | rhs]`, one
/// row per constraint plus the objective row last.
struct Tableau {
    /// `rows × cols` matrix; last row is the objective, last column the rhs.
    a: Vec<Vec<f64>>,
    /// Basis variable (column index) per constraint row.
    basis: Vec<usize>,
    n_struct: usize,
    n_slack: usize,
    n_artificial: usize,
    /// Original (maximization) objective, padded to all columns.
    obj: Vec<f64>,
}

impl Tableau {
    fn new(p: &Problem) -> Self {
        let m = p.rows.len();
        let n = p.c.len();
        // Normalize to b ≥ 0.
        let mut rows: Vec<(Vec<f64>, Relation, f64)> = p.rows.clone();
        for (a, rel, b) in &mut rows {
            if *b < 0.0 {
                for v in a.iter_mut() {
                    *v = -*v;
                }
                *b = -*b;
                *rel = match *rel {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
            }
        }
        let n_slack = rows.iter().filter(|(_, r, _)| *r != Relation::Eq).count();
        // Artificial variables: for Ge and Eq rows.
        let n_artificial = rows.iter().filter(|(_, r, _)| *r != Relation::Le).count();
        let cols = n + n_slack + n_artificial + 1;
        let mut a = vec![vec![0.0; cols]; m + 1];
        let mut basis = vec![0usize; m];
        let mut slack_i = 0usize;
        let mut art_i = 0usize;
        for (i, (coef, rel, b)) in rows.iter().enumerate() {
            a[i][..n].copy_from_slice(coef);
            a[i][cols - 1] = *b;
            match rel {
                Relation::Le => {
                    a[i][n + slack_i] = 1.0;
                    basis[i] = n + slack_i;
                    slack_i += 1;
                }
                Relation::Ge => {
                    a[i][n + slack_i] = -1.0; // surplus
                    slack_i += 1;
                    a[i][n + n_slack + art_i] = 1.0;
                    basis[i] = n + n_slack + art_i;
                    art_i += 1;
                }
                Relation::Eq => {
                    a[i][n + n_slack + art_i] = 1.0;
                    basis[i] = n + n_slack + art_i;
                    art_i += 1;
                }
            }
        }
        let mut obj = vec![0.0; cols];
        obj[..n].copy_from_slice(&p.c);
        Tableau { a, basis, n_struct: n, n_slack, n_artificial, obj }
    }

    fn cols(&self) -> usize {
        // bound: the tableau always carries at least the objective row
        self.a[0].len()
    }

    fn rows(&self) -> usize {
        self.a.len() - 1
    }

    /// Pivot on (row, col) with full elimination.
    fn pivot(&mut self, row: usize, col: usize) {
        let piv = self.a[row][col];
        debug_assert!(piv.abs() > EPS, "pivot too small");
        for v in self.a[row].iter_mut() {
            *v /= piv;
        }
        let pivot_row = self.a[row].clone();
        for (r, arow) in self.a.iter_mut().enumerate() {
            if r == row {
                continue;
            }
            let factor = arow[col];
            if factor.abs() > EPS {
                for (v, pv) in arow.iter_mut().zip(pivot_row.iter()) {
                    *v -= factor * pv;
                }
            }
        }
        self.basis[row] = col;
    }

    /// Runs the simplex loop on the current objective row (stored in the
    /// last tableau row, in "reduced cost" form where positive entries mean
    /// improvement is possible). Returns false if unbounded.
    fn iterate(&mut self, allowed_cols: usize) -> bool {
        loop {
            let last = self.a.len() - 1;
            // Bland's rule: smallest improving column index.
            let Some(col) =
                (0..allowed_cols).find(|&j| self.a[last][j] > EPS)
            else {
                return true; // optimal
            };
            // Ratio test, Bland tie-break on basis index.
            let rhs_col = self.cols() - 1;
            let mut best: Option<(f64, usize)> = None;
            for r in 0..self.rows() {
                let coef = self.a[r][col];
                if coef > EPS {
                    let ratio = self.a[r][rhs_col] / coef;
                    let better = match best {
                        None => true,
                        Some((bratio, brow)) => {
                            ratio < bratio - EPS
                                || (ratio < bratio + EPS && self.basis[r] < self.basis[brow])
                        }
                    };
                    if better {
                        best = Some((ratio, r));
                    }
                }
            }
            let Some((_, row)) = best else {
                return false; // unbounded
            };
            self.pivot(row, col);
        }
    }

    /// Loads an objective (maximization coefficients per column) into the
    /// last row in reduced-cost form given the current basis.
    fn load_objective(&mut self, coeffs: &[f64]) {
        let cols = self.cols();
        let last = self.a.len() - 1;
        for j in 0..cols {
            self.a[last][j] = if j < coeffs.len() { coeffs[j] } else { 0.0 };
        }
        // Eliminate basis columns from the objective row.
        for r in 0..self.rows() {
            let b = self.basis[r];
            let factor = self.a[last][b];
            if factor.abs() > EPS {
                let brow = self.a[r].clone();
                for (v, bv) in self.a[last].iter_mut().zip(brow.iter()) {
                    *v -= factor * bv;
                }
            }
        }
    }

    fn solve(mut self) -> Solution {
        let n_total = self.n_struct + self.n_slack + self.n_artificial;
        let rhs_col = self.cols() - 1;

        // Phase 1: minimize the sum of artificial variables, i.e. maximize
        // −Σ artificials.
        if self.n_artificial > 0 {
            let mut phase1 = vec![0.0; n_total];
            for v in phase1.iter_mut().skip(self.n_struct + self.n_slack) {
                *v = -1.0;
            }
            self.load_objective(&phase1);
            if !self.iterate(n_total) {
                #[expect(
                    clippy::unreachable,
                    reason = "structurally impossible branch: the phase-1 objective is bounded by construction"
                )]
                {
                    unreachable!("phase-1 cannot be unbounded");
                }
            }
            let last = self.a.len() - 1;
            // Max of −Σ artificials must be ~0 for feasibility.
            if self.a[last][rhs_col].abs() > 1e-7 {
                return Solution::Infeasible;
            }
            // Drive any artificial still in the basis out of it.
            for r in 0..self.rows() {
                if self.basis[r] >= self.n_struct + self.n_slack {
                    if let Some(col) = (0..self.n_struct + self.n_slack)
                        .find(|&j| self.a[r][j].abs() > EPS)
                    {
                        self.pivot(r, col);
                    }
                    // Otherwise the row is all-zero (redundant constraint):
                    // the degenerate artificial stays at value 0, harmless.
                }
            }
        }

        // Phase 2: the real objective, restricted to structural + slack.
        let obj = self.obj.clone();
        self.load_objective(&obj);
        if !self.iterate(self.n_struct + self.n_slack) {
            return Solution::Unbounded;
        }

        let mut x = vec![0.0; self.n_struct];
        for r in 0..self.rows() {
            if self.basis[r] < self.n_struct {
                x[self.basis[r]] = self.a[r][rhs_col];
            }
        }
        let objective = self.obj[..self.n_struct]
            .iter()
            .zip(&x)
            .map(|(c, v)| c * v)
            .sum();
        Solution::Optimal { x, objective }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_opt(s: &Solution, expect: f64) {
        match s {
            Solution::Optimal { objective, .. } => {
                assert!((objective - expect).abs() < 1e-7, "objective {objective} != {expect}")
            }
            other => panic!("expected optimal {expect}, got {other:?}"),
        }
    }

    #[test]
    fn textbook_max() {
        // max 3x + 5y; x ≤ 4; 2y ≤ 12; 3x + 2y ≤ 18 → 36 at (2, 6).
        let mut p = Problem::maximize(vec![3.0, 5.0]);
        p.constrain(vec![1.0, 0.0], Relation::Le, 4.0);
        p.constrain(vec![0.0, 2.0], Relation::Le, 12.0);
        p.constrain(vec![3.0, 2.0], Relation::Le, 18.0);
        let s = p.solve();
        assert_opt(&s, 36.0);
        let Solution::Optimal { x, .. } = s else { unreachable!() };
        assert!((x[0] - 2.0).abs() < 1e-7 && (x[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn minimization_with_ge() {
        // min x + 2y; x + y ≥ 3; y ≥ 1 → 4 at (2, 1).
        let mut p = Problem::minimize(vec![1.0, 2.0]);
        p.constrain(vec![1.0, 1.0], Relation::Ge, 3.0);
        p.constrain(vec![0.0, 1.0], Relation::Ge, 1.0);
        match p.solve() {
            // objective() is in maximization sense: −4.
            Solution::Optimal { objective, x } => {
                assert!((objective + 4.0).abs() < 1e-7);
                assert!((x[0] - 2.0).abs() < 1e-7);
                assert!((x[1] - 1.0).abs() < 1e-7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn equality_constraints() {
        // max x + y; x + y = 5; x ≤ 3 → 5.
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.constrain(vec![1.0, 1.0], Relation::Eq, 5.0);
        p.constrain(vec![1.0, 0.0], Relation::Le, 3.0);
        assert_opt(&p.solve(), 5.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::maximize(vec![1.0]);
        p.constrain(vec![1.0], Relation::Le, 1.0);
        p.constrain(vec![1.0], Relation::Ge, 2.0);
        assert_eq!(p.solve(), Solution::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::maximize(vec![1.0, 0.0]);
        p.constrain(vec![0.0, 1.0], Relation::Le, 1.0);
        assert_eq!(p.solve(), Solution::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x ≥ −1 written as −x ≤ 1: max −x → 0 at x = 0.
        let mut p = Problem::maximize(vec![-1.0]);
        p.constrain(vec![-1.0], Relation::Le, 1.0);
        assert_opt(&p.solve(), 0.0);
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Classic Beale-style degeneracy; Bland's rule must terminate.
        let mut p = Problem::maximize(vec![0.75, -150.0, 0.02, -6.0]);
        p.constrain(vec![0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0);
        p.constrain(vec![0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0);
        p.constrain(vec![0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0);
        assert_opt(&p.solve(), 0.05);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 listed twice (redundant artificial stays degenerate).
        let mut p = Problem::maximize(vec![1.0, 0.0]);
        p.constrain(vec![1.0, 1.0], Relation::Eq, 2.0);
        p.constrain(vec![1.0, 1.0], Relation::Eq, 2.0);
        assert_opt(&p.solve(), 2.0);
    }

    #[test]
    fn transportation_style_feasibility() {
        // Two jobs, two intervals (len 10, cap 2 each): job A needs 15 by
        // interval 1 end, job B needs 5 total — feasible (total 20 = cap).
        // Variables: a1 a2 b1 b2.
        let mut p = Problem::maximize(vec![0.0; 4]);
        p.constrain(vec![1.0, 0.0, 1.0, 0.0], Relation::Le, 20.0); // int 1 cap
        p.constrain(vec![0.0, 1.0, 0.0, 1.0], Relation::Le, 20.0); // int 2 cap
        p.constrain(vec![1.0, 1.0, 0.0, 0.0], Relation::Ge, 15.0); // A total...
        p.constrain(vec![1.0, 0.0, 0.0, 0.0], Relation::Ge, 15.0); // ...by int 1
        p.constrain(vec![0.0, 0.0, 1.0, 1.0], Relation::Ge, 5.0); // B total
        assert!(matches!(p.solve(), Solution::Optimal { .. }));
        // Tighten beyond capacity: infeasible.
        let mut p2 = Problem::maximize(vec![0.0; 4]);
        p2.constrain(vec![1.0, 0.0, 1.0, 0.0], Relation::Le, 20.0);
        p2.constrain(vec![0.0, 1.0, 0.0, 1.0], Relation::Le, 20.0);
        p2.constrain(vec![1.0, 0.0, 0.0, 0.0], Relation::Ge, 15.0);
        p2.constrain(vec![0.0, 0.0, 1.0, 0.0], Relation::Ge, 10.0);
        assert_eq!(p2.solve(), Solution::Infeasible);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Problem::maximize(vec![1.0, 2.0]).constrain(vec![1.0], Relation::Le, 1.0);
    }

    #[test]
    fn accessors() {
        let mut p = Problem::maximize(vec![1.0]);
        p.constrain(vec![1.0], Relation::Le, 1.0);
        assert_eq!(p.vars(), 1);
        assert_eq!(p.constraints(), 1);
        assert_eq!(p.solve().objective(), Some(1.0));
        assert_eq!(Solution::Infeasible.objective(), None);
    }
}
