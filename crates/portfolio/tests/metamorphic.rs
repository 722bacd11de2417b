//! Cross-backend metamorphic properties on random small DFGs.
//!
//! The relations that must hold whatever the instance:
//!
//! - cost dominance: the exact optimum never exceeds the annealer's
//!   cost, which never exceeds the greedy cost it was seeded from;
//! - soundness: every back end emits a design on every case, and it
//!   passes the independent validator, reports its own license cost and
//!   carries zero `TD` (design-rule) diagnostics from `troy-analysis`;
//! - mode monotonicity: detection-only protection never costs more than
//!   detection + recovery on the same DFG and catalog.

use proptest::prelude::*;
use std::time::Duration;
use troy_dfg::{random_dfg, RandomDfgConfig};
use troy_portfolio::{synthesize_isolated, Backend};
use troyhls::{validate, Catalog, Mode, SolveOptions, SynthesisProblem};

fn opts() -> SolveOptions {
    SolveOptions {
        time_limit: Duration::from_secs(15),
        node_limit: 120_000,
        ..SolveOptions::default()
    }
}

/// The ILP gets 1 s instead of 15: it proved 8 of the 24 soundness cases
/// in 15 s and ran the budget out on the other 16, 263 s of the test's
/// 265 s. Its greedy warm start is an incumbent from the first node, so
/// a shorter budget still returns a design on every case — the test
/// asserts that each back end does.
fn opts_for(backend: Backend) -> SolveOptions {
    match backend {
        Backend::Ilp => SolveOptions {
            time_limit: Duration::from_secs(1),
            ..opts()
        },
        _ => opts(),
    }
}

fn build(
    mode: Mode,
    ops: usize,
    depth: usize,
    mul: u8,
    seed: u64,
    slack: usize,
) -> SynthesisProblem {
    let cfg = RandomDfgConfig {
        ops,
        max_depth: depth,
        mul_ratio_percent: mul,
        edge_bias_percent: 80,
    };
    let dfg = random_dfg(&cfg, seed);
    let cp = dfg.critical_path_len();
    SynthesisProblem::builder(dfg, Catalog::paper8())
        .mode(mode)
        .detection_latency(cp + slack)
        .recovery_latency(cp + slack)
        .build()
        .expect("constraints are feasible by construction")
}

fn small_instance() -> impl Strategy<Value = (usize, usize, u8, u64, usize)> {
    (
        2usize..=8,   // ops
        1usize..=3,   // depth
        0u8..=100,    // mul ratio
        any::<u64>(), // seed
        0usize..=2,   // latency slack
    )
}

fn mode_of(pick: bool) -> Mode {
    if pick {
        Mode::DetectionRecovery
    } else {
        Mode::DetectionOnly
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exact_never_beaten_and_annealing_never_worse_than_greedy(
        (ops, depth, mul, seed, slack) in small_instance(),
        recovery in any::<bool>(),
    ) {
        let p = build(mode_of(recovery), ops, depth, mul, seed, slack);
        let o = opts();
        let exact = Backend::Exact.solver().synthesize(&p, &o);
        let greedy = Backend::Greedy.solver().synthesize(&p, &o);
        let annealing = Backend::Annealing.solver().synthesize(&p, &o);
        if let (Ok(e), Ok(g), Ok(a)) = (&exact, &greedy, &annealing) {
            prop_assert!(e.cost <= a.cost, "exact {} > annealing {}", e.cost, a.cost);
            prop_assert!(a.cost <= g.cost, "annealing {} > greedy {}", a.cost, g.cost);
        }
    }

    #[test]
    fn every_backend_design_validates_and_lints_clean(
        (ops, depth, mul, seed, slack) in small_instance(),
        recovery in any::<bool>(),
    ) {
        let p = build(mode_of(recovery), ops, depth, mul, seed, slack);
        for backend in Backend::ALL {
            let s = backend
                .solver()
                .synthesize(&p, &opts_for(backend))
                .map_err(|e| TestCaseError::fail(format!("{backend}: no design: {e}")))?;
            let violations = validate(&p, &s.implementation);
            prop_assert!(violations.is_empty(), "{backend}: {violations:?}");
            prop_assert_eq!(s.implementation.license_cost(&p), s.cost, "{}", backend);
            let report = troy_analysis::lint(&p, Some(&s.implementation));
            let td: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|d| d.code.as_str().starts_with("TD"))
                .collect();
            prop_assert!(td.is_empty(), "{backend}: {td:?}");
        }
    }

    #[test]
    fn detection_only_never_costs_more_than_full_recovery(
        (ops, depth, mul, seed, slack) in small_instance(),
    ) {
        let detect = build(Mode::DetectionOnly, ops, depth, mul, seed, slack);
        let recover = build(Mode::DetectionRecovery, ops, depth, mul, seed, slack);
        let o = opts();
        let d = synthesize_isolated(Backend::Exact, &detect, &o);
        let r = synthesize_isolated(Backend::Exact, &recover, &o);
        if let (Ok(d), Ok(r)) = (d, r) {
            // Only a meaningful comparison when both costs are proven:
            // best-effort incumbents may order either way.
            if d.proven_optimal && r.proven_optimal {
                prop_assert!(
                    d.cost <= r.cost,
                    "detection {} > recovery {}",
                    d.cost,
                    r.cost
                );
            }
        }
    }
}
