//! Property tests: the branch & bound must agree with exhaustive
//! enumeration on randomly generated tiny 0-1 programs.

use proptest::prelude::*;
use troy_ilp::{Cmp, LinExpr, Model, SolveParams, SolveStatus, VarId};

/// A randomly generated 0-1 program, small enough to brute force.
#[derive(Debug, Clone)]
struct TinyIlp {
    maximize: bool,
    num_vars: usize,
    objective: Vec<i32>,
    /// Constraints as (coefficients, sense, rhs).
    rows: Vec<(Vec<i32>, Cmp, i32)>,
}

fn tiny_ilp() -> impl Strategy<Value = TinyIlp> {
    (2usize..=6, any::<bool>()).prop_flat_map(|(n, maximize)| {
        let obj = proptest::collection::vec(-9i32..=9, n);
        let row = (
            proptest::collection::vec(-5i32..=5, n),
            prop_oneof![Just(Cmp::Le), Just(Cmp::Ge), Just(Cmp::Eq)],
            -6i32..=12,
        );
        let rows = proptest::collection::vec(row, 1..=4);
        (obj, rows).prop_map(move |(objective, rows)| TinyIlp {
            maximize,
            num_vars: n,
            objective,
            rows,
        })
    })
}

fn build(t: &TinyIlp) -> (Model, Vec<VarId>) {
    let mut m = if t.maximize {
        Model::maximize()
    } else {
        Model::minimize()
    };
    let vars: Vec<VarId> = (0..t.num_vars).map(|i| m.binary(format!("x{i}"))).collect();
    let mut obj = LinExpr::new();
    for (&c, &v) in t.objective.iter().zip(&vars) {
        obj.add_term(f64::from(c), v);
    }
    m.set_objective(obj);
    for (i, (coeffs, sense, rhs)) in t.rows.iter().enumerate() {
        let mut e = LinExpr::new();
        for (&c, &v) in coeffs.iter().zip(&vars) {
            e.add_term(f64::from(c), v);
        }
        m.add_constraint(format!("r{i}"), e, *sense, f64::from(*rhs));
    }
    (m, vars)
}

/// Exhaustive optimum over all 2^n assignments; `None` when infeasible.
fn brute_force(t: &TinyIlp) -> Option<i64> {
    let mut best: Option<i64> = None;
    for mask in 0u32..(1 << t.num_vars) {
        let assignment: Vec<i64> = (0..t.num_vars).map(|i| i64::from(mask >> i & 1)).collect();
        let feasible = t.rows.iter().all(|(coeffs, sense, rhs)| {
            let lhs: i64 = coeffs
                .iter()
                .zip(&assignment)
                .map(|(&c, &x)| i64::from(c) * x)
                .sum();
            match sense {
                Cmp::Le => lhs <= i64::from(*rhs),
                Cmp::Eq => lhs == i64::from(*rhs),
                Cmp::Ge => lhs >= i64::from(*rhs),
            }
        });
        if !feasible {
            continue;
        }
        let obj: i64 = t
            .objective
            .iter()
            .zip(&assignment)
            .map(|(&c, &x)| i64::from(c) * x)
            .sum();
        best = Some(match best {
            None => obj,
            Some(b) if t.maximize => b.max(obj),
            Some(b) => b.min(obj),
        });
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn solver_matches_brute_force(t in tiny_ilp()) {
        let (model, _) = build(&t);
        let expected = brute_force(&t);
        let result = model.solve(&SolveParams::default());
        match expected {
            None => {
                prop_assert_eq!(result.status(), SolveStatus::Infeasible);
            }
            Some(best) => {
                prop_assert_eq!(result.status(), SolveStatus::Optimal);
                let got = result.objective().expect("optimal has objective");
                prop_assert!((got - best as f64).abs() < 1e-6,
                    "solver {} vs brute force {}", got, best);
                // And the reported assignment must actually be feasible.
                let values = result.values().expect("optimal has values");
                prop_assert!(model.check_feasible(values, 1e-6).is_none());
            }
        }
    }

    #[test]
    fn reported_values_always_reproduce_the_objective(t in tiny_ilp()) {
        let (model, _) = build(&t);
        let result = model.solve(&SolveParams::default());
        if let (Some(values), Some(obj)) = (result.values(), result.objective()) {
            let recomputed = model.objective_value(values);
            prop_assert!((recomputed - obj).abs() < 1e-6);
        }
    }
}
