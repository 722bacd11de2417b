//! Cross-solver agreement: the three back ends bound each other.

use std::time::Duration;

use troy_dfg::benchmarks;
use troyhls::{
    validate, Catalog, ExactSolver, GreedySolver, IlpSolver, Mode, SolveOptions, SynthesisProblem,
    Synthesizer,
};

fn options(secs: u64) -> SolveOptions {
    SolveOptions {
        time_limit: Duration::from_secs(secs),
        ..SolveOptions::default()
    }
}

#[test]
fn ilp_and_exact_agree_on_polynom_detection_only() {
    let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
        .mode(Mode::DetectionOnly)
        .detection_latency(4)
        .area_limit(40_000)
        .build()
        .expect("valid");
    let e = ExactSolver::new()
        .synthesize(&p, &options(60))
        .expect("feasible");
    let i = IlpSolver::new()
        .synthesize(&p, &options(120))
        .expect("feasible");
    assert_eq!(e.cost, i.cost);
    assert!(validate(&p, &i.implementation).is_empty());
}

#[test]
fn greedy_upper_bounds_exact_across_the_suite() {
    for dfg in benchmarks::paper_suite() {
        let cp = dfg.critical_path_len();
        let name = dfg.name().to_owned();
        let p = SynthesisProblem::builder(dfg, Catalog::paper8())
            .mode(Mode::DetectionRecovery)
            .detection_latency(cp + 1)
            .recovery_latency(cp)
            .build()
            .expect("valid");
        let e = ExactSolver::new()
            .synthesize(&p, &SolveOptions::quick())
            .expect("feasible");
        let g = GreedySolver::new()
            .synthesize(&p, &SolveOptions::quick())
            .expect("feasible");
        assert!(
            g.cost >= e.cost,
            "{name}: greedy {} undercuts exact {}",
            g.cost,
            e.cost
        );
    }
}

#[test]
fn infeasible_instances_are_agreed_upon() {
    // Area too small for even one multiplier.
    let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
        .mode(Mode::DetectionOnly)
        .detection_latency(4)
        .area_limit(4_000)
        .build()
        .expect("valid");
    assert!(ExactSolver::new().synthesize(&p, &options(30)).is_err());
    assert!(GreedySolver::new().synthesize(&p, &options(30)).is_err());
    assert!(IlpSolver::new().synthesize(&p, &options(60)).is_err());
}

#[test]
fn loosening_latency_never_raises_the_exact_cost() {
    let base = benchmarks::dtmf();
    let mut last = u64::MAX;
    for lambda in [4usize, 6, 8] {
        let p = SynthesisProblem::builder(base.clone(), Catalog::paper8())
            .mode(Mode::DetectionOnly)
            .detection_latency(lambda)
            .build()
            .expect("valid");
        let s = ExactSolver::new()
            .synthesize(&p, &SolveOptions::quick())
            .expect("feasible");
        assert!(s.cost <= last, "λ={lambda}: cost {} after {}", s.cost, last);
        if s.proven_optimal {
            last = s.cost;
        }
    }
}

#[test]
fn recovery_mode_always_costs_at_least_detection_only() {
    for dfg in benchmarks::paper_suite() {
        let cp = dfg.critical_path_len();
        let name = dfg.name().to_owned();
        let det = SynthesisProblem::builder(dfg.clone(), Catalog::paper8())
            .mode(Mode::DetectionOnly)
            .detection_latency(cp + 1)
            .build()
            .expect("valid");
        let rec = SynthesisProblem::builder(dfg, Catalog::paper8())
            .mode(Mode::DetectionRecovery)
            .detection_latency(cp + 1)
            .recovery_latency(cp + 1)
            .build()
            .expect("valid");
        let sd = ExactSolver::new()
            .synthesize(&det, &SolveOptions::quick())
            .expect("feasible");
        let sr = ExactSolver::new()
            .synthesize(&rec, &SolveOptions::quick())
            .expect("feasible");
        assert!(
            sr.cost >= sd.cost,
            "{name}: recovery {} < detection {}",
            sr.cost,
            sd.cost
        );
    }
}

#[test]
fn exact_and_ilp_agree_on_random_catalogs() {
    // Tiny detection-only instances over random catalogs: the exact
    // license-lattice solver and the paper's ILP must find the same
    // minimum cost.
    let mut dfg = troy_dfg::Dfg::new("tiny");
    let a = dfg.add_op_with(troy_dfg::OpKind::Mul, "a", 2);
    let b = dfg.add_op_with(troy_dfg::OpKind::Mul, "b", 2);
    let c = dfg.add_op_with(troy_dfg::OpKind::Add, "c", 0);
    dfg.add_edge(a, c).expect("acyclic");
    dfg.add_edge(b, c).expect("acyclic");

    for seed in 0..6u64 {
        let catalog = Catalog::random(4, seed);
        let p = SynthesisProblem::builder(dfg.clone(), catalog)
            .mode(Mode::DetectionOnly)
            .detection_latency(3)
            .build()
            .expect("valid");
        let e = ExactSolver::new()
            .synthesize(&p, &options(30))
            .expect("feasible");
        let i = IlpSolver::new()
            .synthesize(&p, &options(90))
            .expect("feasible");
        assert!(validate(&p, &i.implementation).is_empty(), "seed {seed}");
        assert!(e.proven_optimal, "seed {seed}");
        if i.proven_optimal {
            assert_eq!(e.cost, i.cost, "seed {seed}");
        } else {
            assert!(i.cost >= e.cost, "seed {seed}");
        }
    }
}
