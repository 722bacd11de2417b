//! Tests pinning the sparse revised simplex to the dense reference engine.
//!
//! The two engines share no linear-algebra code (CSC + LU/eta-file + devex
//! vs dense basis inverse + Dantzig), so agreement on random programs is
//! strong evidence that the sparse core's algebra is right. Warm starts
//! are additionally checked against cold starts: inheriting the parent
//! basis may change the pivot *path*, but never the optimum. Each engine
//! drives the same branch and bound through [`Model::branch_and_bound`].

use std::time::Instant;

use proptest::prelude::*;

use crate::cancel::Cancellation;
use crate::model::{Cmp, LinExpr, Model, VarId};
use crate::simplex::{solve_lp, Basis, LpProblem, LpResult};
use crate::solve::{NodeLp, SolveParams, SolveResult, SolveStatus};

/// The dense engine as a node-LP solver: it always cold-starts, so the
/// parent basis is ignored.
fn dense(
    prob: &LpProblem,
    max_iters: usize,
    deadline: Option<Instant>,
    cancel: Option<&Cancellation>,
    _warm: Option<&Basis>,
) -> LpResult {
    crate::dense::solve_lp_dense(prob, max_iters, deadline, cancel)
}

/// The sparse engine with warm starts switched off.
fn sparse_cold(
    prob: &LpProblem,
    max_iters: usize,
    deadline: Option<Instant>,
    cancel: Option<&Cancellation>,
    _warm: Option<&Basis>,
) -> LpResult {
    solve_lp(prob, max_iters, deadline, cancel, None)
}

fn solve_with(m: &Model, node_lp: NodeLp) -> SolveResult {
    m.branch_and_bound(&SolveParams::default(), node_lp)
}

/// A randomly generated small integer program.
#[derive(Debug, Clone)]
struct SmallIlp {
    maximize: bool,
    num_vars: usize,
    /// Upper bound per variable (1 = binary; larger = general integer).
    upper: Vec<i32>,
    objective: Vec<i32>,
    /// Constraints as (coefficients, sense, rhs).
    rows: Vec<(Vec<i32>, Cmp, i32)>,
}

fn small_ilp() -> impl Strategy<Value = SmallIlp> {
    (2usize..=6, any::<bool>()).prop_flat_map(|(n, maximize)| {
        let upper = proptest::collection::vec(1i32..=4, n);
        let obj = proptest::collection::vec(-9i32..=9, n);
        let row = (
            proptest::collection::vec(-5i32..=5, n),
            prop_oneof![Just(Cmp::Le), Just(Cmp::Ge), Just(Cmp::Eq)],
            -8i32..=16,
        );
        let rows = proptest::collection::vec(row, 1..=4);
        (upper, obj, rows).prop_map(move |(upper, objective, rows)| SmallIlp {
            maximize,
            num_vars: n,
            upper,
            objective,
            rows,
        })
    })
}

fn build(t: &SmallIlp) -> (Model, Vec<VarId>) {
    let mut m = if t.maximize {
        Model::maximize()
    } else {
        Model::minimize()
    };
    let vars: Vec<VarId> = (0..t.num_vars)
        .map(|i| m.integer(format!("x{i}"), 0.0, f64::from(t.upper[i])))
        .collect();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sparse_and_dense_engines_agree_on_random_programs(t in small_ilp()) {
        let (model, _) = build(&t);
        let sparse = solve_with(&model, solve_lp);
        let dense = solve_with(&model, dense);
        prop_assert_eq!(sparse.status(), dense.status(),
            "sparse {:?} vs dense {:?}", sparse.status(), dense.status());
        if sparse.status() == SolveStatus::Optimal {
            let s = sparse.objective().expect("optimal has objective");
            let d = dense.objective().expect("optimal has objective");
            prop_assert!((s - d).abs() < 1e-6,
                "sparse optimum {} vs dense optimum {}", s, d);
            // Both reported assignments must genuinely be feasible.
            prop_assert!(model
                .check_feasible(sparse.values().unwrap(), 1e-6)
                .is_none());
            prop_assert!(model
                .check_feasible(dense.values().unwrap(), 1e-6)
                .is_none());
        }
    }

    #[test]
    fn warm_starts_never_change_the_optimum(t in small_ilp()) {
        let (model, _) = build(&t);
        let warm = solve_with(&model, solve_lp);
        let cold = solve_with(&model, sparse_cold);
        prop_assert_eq!(warm.status(), cold.status());
        if warm.status() == SolveStatus::Optimal {
            let w = warm.objective().expect("optimal");
            let c = cold.objective().expect("optimal");
            prop_assert!((w - c).abs() < 1e-6,
                "warm-start optimum {} vs cold-start optimum {}", w, c);
        }
    }

    #[test]
    fn warm_starts_are_deterministic(t in small_ilp()) {
        // Two identical warm-started solves must agree exactly — the
        // engine is single-threaded IEEE arithmetic, so node counts and
        // iteration counts are reproducible (this is what lets CI gate on
        // iteration-count regressions).
        let (model, _) = build(&t);
        let a = solve_with(&model, solve_lp);
        let b = solve_with(&model, solve_lp);
        prop_assert_eq!(a.status(), b.status());
        prop_assert_eq!(a.nodes(), b.nodes());
        prop_assert_eq!(a.lp_iterations(), b.lp_iterations());
        prop_assert_eq!(a.objective(), b.objective());
    }
}

#[test]
fn dense_engine_matches_sparse_end_to_end() {
    let mut m = Model::maximize();
    let a = m.binary("a");
    let b = m.binary("b");
    let c = m.binary("c");
    m.set_objective(LinExpr::term(10.0, a) + LinExpr::term(13.0, b) + LinExpr::term(7.0, c));
    m.add_le(
        "cap",
        LinExpr::term(5.0, a) + LinExpr::term(6.0, b) + LinExpr::term(4.0, c),
        10.0,
    );
    for (engine, node_lp) in [("sparse", solve_lp as NodeLp), ("dense", dense)] {
        let r = solve_with(&m, node_lp);
        assert_eq!(r.status(), SolveStatus::Optimal, "{engine}");
        assert_eq!(r.objective().unwrap().round() as i64, 20, "{engine}");
    }
}

#[test]
fn warm_start_matches_cold_start_over_the_tree() {
    // Same model solved with and without warm starts must land on the
    // same optimum (node/iteration counts may differ).
    let mut m = Model::minimize();
    let x = m.integer("x", 0.0, 10.0);
    let y = m.integer("y", 0.0, 10.0);
    let z = m.integer("z", 0.0, 10.0);
    m.set_objective(LinExpr::term(3.0, x) + LinExpr::term(4.0, y) + LinExpr::term(2.0, z));
    m.add_ge("c1", LinExpr::term(2.0, x) + LinExpr::term(1.0, y), 7.0);
    m.add_ge("c2", LinExpr::term(1.0, x) + LinExpr::term(3.0, z), 9.0);
    m.add_ge("c3", LinExpr::term(1.0, y) + LinExpr::term(1.0, z), 4.0);
    let warm = solve_with(&m, solve_lp);
    let cold = solve_with(&m, sparse_cold);
    assert_eq!(warm.status(), SolveStatus::Optimal);
    assert_eq!(cold.status(), SolveStatus::Optimal);
    assert!((warm.objective().unwrap() - cold.objective().unwrap()).abs() < 1e-6);
    assert!(
        warm.lp_iterations() <= cold.lp_iterations(),
        "warm starts took more iterations ({}) than cold starts ({})",
        warm.lp_iterations(),
        cold.lp_iterations()
    );
}
