//! Structural invariants of the regenerated paper tables. Absolute dollars
//! differ from the paper (its 8-vendor price list is not published); the
//! *shape* — who costs more, where infeasibility bites — must hold.

use std::collections::BTreeMap;

use troy_bench::{
    harness_options, motivational_problem, problem_for, run_row, table3_specs, table4_specs,
};
use troyhls::{validate, ExactSolver, Mode, SolveOptions, Synthesizer};

fn quick() -> SolveOptions {
    SolveOptions::quick()
}

#[test]
fn figure5_row_reproduces_4160_exactly() {
    let p = motivational_problem();
    let s = ExactSolver::new()
        .synthesize(&p, &quick())
        .expect("feasible");
    assert_eq!(s.cost, 4160);
    assert!(s.proven_optimal);
}

/// The rows the paper marks `*` that the exact solver once left unproven:
/// `(benchmark, mode, λ, proven optimum)`.
const FORMERLY_UNPROVEN: [(&str, Mode, usize, u64); 3] = [
    ("diff2", Mode::DetectionOnly, 14, 4320),
    ("fir16", Mode::DetectionOnly, 12, 3070),
    ("mof2", Mode::DetectionRecovery, 24, 3850),
];

/// Fig. 5 and all 24 rows are proven optimal under the harness budget and
/// under `SolveOptions::default()`, the budget the daemon and CLI use.
#[test]
fn all_25_paper_problems_are_proven_under_the_serving_options() {
    for options in [harness_options(), SolveOptions::default()] {
        let s = ExactSolver::new()
            .synthesize(&motivational_problem(), &options)
            .expect("feasible");
        assert_eq!((s.cost, s.proven_optimal), (4160, true));
        for spec in table3_specs().iter().chain(table4_specs().iter()) {
            let r = run_row(spec, &options);
            let id = format!("{} {:?} λ={}", spec.benchmark, spec.mode, spec.lambda);
            assert!(r.proven_optimal, "{id} is not proven");
            let cost = r.stats.expect("proven rows have a design").license_cost;
            if let Some(&(.., optimum)) = FORMERLY_UNPROVEN
                .iter()
                .find(|&&(b, m, l, _)| (b, m, l) == (spec.benchmark, spec.mode, spec.lambda))
            {
                assert_eq!(cost, optimum, "{id}");
            }
        }
    }
}

#[test]
fn all_24_table_rows_produce_valid_designs() {
    for spec in table3_specs().iter().chain(table4_specs().iter()) {
        let r = run_row(spec, &quick());
        let imp = r
            .implementation
            .unwrap_or_else(|| panic!("{} λ={} found no design", spec.benchmark, spec.lambda));
        let p = problem_for(spec);
        let vs = validate(&p, &imp);
        assert!(
            vs.is_empty(),
            "{} λ={}: {vs:?}",
            spec.benchmark,
            spec.lambda
        );
        let stats = r.stats.unwrap();
        assert!(stats.area <= spec.area);
    }
}

#[test]
fn recovery_always_costs_more_than_detection_per_benchmark() {
    // The paper's headline conclusion: detection-only designs
    // underestimate the diversity a recoverable design needs.
    let mut det_best: BTreeMap<&str, u64> = BTreeMap::new();
    for spec in table3_specs() {
        let r = run_row(&spec, &quick());
        if let Some(stats) = r.stats {
            let e = det_best.entry(spec.benchmark).or_insert(u64::MAX);
            *e = (*e).min(stats.license_cost);
        }
    }
    for spec in table4_specs() {
        let r = run_row(&spec, &quick());
        if let Some(stats) = r.stats {
            let det = det_best[spec.benchmark];
            assert!(
                stats.license_cost > det,
                "{}: recovery {} vs detection {}",
                spec.benchmark,
                stats.license_cost,
                det
            );
        }
    }
}

#[test]
fn recovery_needs_at_least_as_many_vendors() {
    for (s3, s4) in table3_specs().iter().zip(table4_specs().iter()) {
        assert_eq!(s3.benchmark, s4.benchmark);
        let r3 = run_row(s3, &quick());
        let r4 = run_row(s4, &quick());
        if let (Some(a), Some(b)) = (r3.stats, r4.stats) {
            assert!(
                b.licenses_used >= a.licenses_used,
                "{}: t {} -> {}",
                s3.benchmark,
                a.licenses_used,
                b.licenses_used
            );
        }
    }
}

#[test]
fn paper_rows_agree_on_the_same_shape() {
    // In the paper too, every benchmark's Table 4 mc exceeds its Table 3
    // mc — sanity-check the transcribed constants themselves.
    let t3: BTreeMap<&str, u64> = table3_specs()
        .into_iter()
        .map(|s| (s.benchmark, s.paper.mc))
        .fold(BTreeMap::new(), |mut m, (k, v)| {
            let e = m.entry(k).or_insert(u64::MAX);
            *e = (*e).min(v);
            m
        });
    for s in table4_specs() {
        assert!(
            s.paper.mc > t3[s.benchmark],
            "{}: paper T4 {} vs T3 {}",
            s.benchmark,
            s.paper.mc,
            t3[s.benchmark]
        );
    }
}
