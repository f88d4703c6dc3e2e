//! Property tests for the simplex solver: optimality against random
//! feasible points, feasibility of reported optima, and monotonicity.

use proptest::prelude::*;
use rush_oracle::lp::{Problem, Relation, Solution};

/// A random bounded LP instance: objective, per-variable upper bounds, and
/// extra `a·x ≤ b` rows.
type LpInstance = (Vec<f64>, Vec<f64>, Vec<(Vec<f64>, f64)>);

/// Random bounded maximization problems: n vars with upper bounds and a
/// few random ≤ constraints (the origin is always feasible).
fn bounded_lp() -> impl Strategy<Value = LpInstance> {
    (1usize..5).prop_flat_map(|n| {
        (
            prop::collection::vec(-5.0f64..5.0, n),
            prop::collection::vec(0.5f64..10.0, n),
            prop::collection::vec((prop::collection::vec(0.0f64..3.0, n), 1.0f64..20.0), 0..4),
        )
    })
}

proptest! {
    /// The reported optimum is feasible and dominates random feasible
    /// points sampled inside the box.
    #[test]
    fn optimum_is_feasible_and_dominant(
        (c, bounds, extra) in bounded_lp(),
        samples in prop::collection::vec(0.0f64..1.0, 64),
    ) {
        let n = c.len();
        let mut p = Problem::maximize(c.clone());
        for (i, &u) in bounds.iter().enumerate() {
            let mut row = vec![0.0; n];
            row[i] = 1.0;
            p.constrain(row, Relation::Le, u);
        }
        for (a, b) in &extra {
            p.constrain(a.clone(), Relation::Le, *b);
        }
        let Solution::Optimal { x, objective } = p.solve() else {
            return Err(TestCaseError::fail("bounded feasible LP not optimal"));
        };
        for (i, &u) in bounds.iter().enumerate() {
            prop_assert!(x[i] >= -1e-7 && x[i] <= u + 1e-7);
        }
        for (a, b) in &extra {
            let lhs: f64 = a.iter().zip(&x).map(|(ai, xi)| ai * xi).sum();
            prop_assert!(lhs <= b + 1e-6, "constraint violated: {lhs} > {b}");
        }
        for chunk in samples.chunks(n) {
            if chunk.len() < n {
                break;
            }
            let cand: Vec<f64> = chunk.iter().zip(&bounds).map(|(t, u)| t * u).collect();
            let feasible = extra
                .iter()
                .all(|(a, b)| a.iter().zip(&cand).map(|(ai, xi)| ai * xi).sum::<f64>() <= *b);
            if feasible {
                let val: f64 = c.iter().zip(&cand).map(|(ci, xi)| ci * xi).sum();
                prop_assert!(
                    objective >= val - 1e-6,
                    "random feasible point beats the optimum: {val} > {objective}"
                );
            }
        }
    }

    /// Scaling the objective scales the optimum (positive homogeneity).
    #[test]
    fn objective_scaling((c, bounds, extra) in bounded_lp(), k in 0.1f64..5.0) {
        let n = c.len();
        let build = |coef: Vec<f64>| {
            let mut p = Problem::maximize(coef);
            for (i, &u) in bounds.iter().enumerate() {
                let mut row = vec![0.0; n];
                row[i] = 1.0;
                p.constrain(row, Relation::Le, u);
            }
            for (a, b) in &extra {
                p.constrain(a.clone(), Relation::Le, *b);
            }
            p
        };
        let base = build(c.clone()).solve().objective().unwrap();
        let scaled = build(c.iter().map(|v| v * k).collect()).solve().objective().unwrap();
        prop_assert!(
            (scaled - k * base).abs() < 1e-5 * (1.0 + base.abs()),
            "scaling broke: {scaled} vs {}",
            k * base
        );
    }

    /// Tightening every extra constraint never improves the optimum.
    #[test]
    fn monotone_in_rhs((c, bounds, extra) in bounded_lp(), shrink in 0.1f64..0.9) {
        if extra.is_empty() {
            return Ok(());
        }
        let n = c.len();
        let build = |factor: f64| {
            let mut p = Problem::maximize(c.clone());
            for (i, &u) in bounds.iter().enumerate() {
                let mut row = vec![0.0; n];
                row[i] = 1.0;
                p.constrain(row, Relation::Le, u);
            }
            for (a, b) in &extra {
                p.constrain(a.clone(), Relation::Le, b * factor);
            }
            p.solve().objective().unwrap()
        };
        let loose = build(1.0);
        let tight = build(shrink);
        prop_assert!(tight <= loose + 1e-6, "tightening improved: {tight} > {loose}");
    }
}
