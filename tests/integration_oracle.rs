//! The Figure 5 oracle: one known-good instance, one known-good answer,
//! every path through the system.
//!
//! The paper works its motivational example end to end — `polynom` on
//! the Table 1 catalog with λ_det = 4, λ_rec = 3, A̅ = 22000 — and
//! reports the optimum license bill **$4160**. Every synthesis path this
//! workspace offers (all four back ends, alone and through the batch
//! pool) must land on exactly that number with a fully valid design; any
//! drift in a solver or the constraint expansion shows up here first.
//! The supervisor ladder's path is pinned in `troy-resilience`'s chaos
//! suite (`chaos_off_reproduces_fig5_through_the_full_ladder`).

use troy_bench::motivational_problem;
use troy_portfolio::{solve_batch, Backend, BatchConfig};
use troyhls::{validate, SolveOptions, SynthesisProblem};

const FIG5_OPTIMUM: u64 = 4160;

fn check(problem: &SynthesisProblem, label: &str, cost: u64, imp: &troyhls::Implementation) {
    assert_eq!(cost, FIG5_OPTIMUM, "{label}: wrong Figure 5 cost");
    let violations = validate(problem, imp);
    assert!(violations.is_empty(), "{label}: {violations:?}");
    assert_eq!(
        imp.license_cost(problem),
        FIG5_OPTIMUM,
        "{label}: reported cost disagrees with the implementation"
    );
    // Every optimum must also earn a security certificate from the
    // independent cone prover: no single vendor and no colluding pair
    // controls both detection copies of the (single) output cone.
    let cert = troy_analysis::certify(problem, imp)
        .unwrap_or_else(|d| panic!("{label}: prover rejected the optimum: {d:?}"));
    assert!(cert.single_vendor_safe, "{label}: uncertified");
    assert_eq!(cert.min_collusion_size, 2, "{label}");
    assert_eq!(
        cert.pair_exposed_cones, 0,
        "{label}: a vendor pair controls the polynom cone"
    );
    assert!(
        cert.verify(problem, imp),
        "{label}: certificate must verify"
    );
}

#[test]
fn every_backend_reproduces_the_figure5_optimum() {
    let problem = motivational_problem();
    // Generous budget: the ILP prover needs ~90 s to close the gap on an
    // unoptimized (dev-profile) build, and this test demands the proof.
    let options = SolveOptions {
        time_limit: std::time::Duration::from_secs(600),
        node_limit: usize::MAX,
        ..SolveOptions::default()
    };
    for backend in Backend::ALL {
        let s = backend
            .solver()
            .synthesize(&problem, &options)
            .unwrap_or_else(|e| panic!("{backend}: figure 5 is feasible, got {e}"));
        check(&problem, backend.name(), s.cost, &s.implementation);
        if backend.can_prove() {
            assert!(s.proven_optimal, "{backend}: provers must prove figure 5");
        }
    }
}

#[test]
fn batched_portfolio_reproduces_the_figure5_optimum() {
    let problems = vec![motivational_problem()];
    let results = solve_batch(&problems, &BatchConfig::default(), None);
    let r = results[0].as_ref().expect("figure 5 is feasible");
    check(
        &problems[0],
        "batch",
        r.synthesis.cost,
        &r.synthesis.implementation,
    );
    assert_eq!(r.winner, Backend::Exact, "batch rows default to exact");
    assert!(
        r.synthesis.proven_optimal,
        "the exact solver proves figure 5"
    );
    assert!(!r.timed_out);
}
