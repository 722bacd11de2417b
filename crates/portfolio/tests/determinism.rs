//! Determinism regression suite: the same problems produce byte-identical
//! reports whatever the execution strategy — sequential, parallel pool,
//! cold cache or warm cache. This is what licenses the batch pool as a
//! drop-in replacement for the sequential table harness.

use std::fmt::Write as _;

use troy_dfg::benchmarks;
use troy_portfolio::{solve_batch, BatchConfig, PortfolioResult, ResultCache};
use troyhls::{Catalog, Mode, SolveOptions, SynthesisError, SynthesisProblem};

/// Quick, fully solvable instances (three benchmarks × both modes) so
/// every back end finishes well inside its budget — the regime where the
/// batch pool guarantees determinism.
fn grid() -> Vec<SynthesisProblem> {
    let mut out = Vec::new();
    for name in ["polynom", "diff2", "dtmf"] {
        for mode in [Mode::DetectionOnly, Mode::DetectionRecovery] {
            let dfg = benchmarks::by_name(name).expect("known benchmark");
            let cp = dfg.critical_path_len();
            out.push(
                SynthesisProblem::builder(dfg, Catalog::paper8())
                    .mode(mode)
                    .detection_latency(cp + 1)
                    .recovery_latency(cp + 1)
                    .build()
                    .expect("well-formed"),
            );
        }
    }
    out
}

/// Canonical textual report of a batch: everything observable except
/// wall-clock fields (`elapsed`, `from_cache`), which legitimately vary.
fn report(
    problems: &[SynthesisProblem],
    results: &[Result<PortfolioResult, SynthesisError>],
) -> String {
    let mut out = String::new();
    for (p, r) in problems.iter().zip(results) {
        match r {
            Ok(r) => {
                let stats = r.synthesis.implementation.stats(p);
                let _ = writeln!(
                    out,
                    "{} {} cost={} proven={} timed_out={} winner={} u={} t={} v={} area={}",
                    p.dfg().name(),
                    p.mode(),
                    r.synthesis.cost,
                    r.synthesis.proven_optimal,
                    r.timed_out,
                    r.winner,
                    stats.instances_used,
                    stats.licenses_used,
                    stats.vendors_used,
                    stats.area,
                );
                // Full assignment dump: catches schedule/binding drift
                // that cost-level comparison would miss.
                for (copy, a) in r.synthesis.implementation.iter() {
                    let _ = writeln!(
                        out,
                        "  op{} {:?} cycle={} vendor={}",
                        copy.op.index(),
                        copy.role,
                        a.cycle,
                        a.vendor.index()
                    );
                }
            }
            Err(e) => {
                let _ = writeln!(out, "{} {} error={e}", p.dfg().name(), p.mode());
            }
        }
    }
    out
}

fn config(jobs: usize) -> BatchConfig {
    BatchConfig {
        jobs,
        options: SolveOptions::quick(),
        ..BatchConfig::default()
    }
}

#[test]
fn jobs_1_and_jobs_4_produce_identical_reports() {
    let problems = grid();
    let sequential = report(&problems, &solve_batch(&problems, &config(1), None));
    let parallel = report(&problems, &solve_batch(&problems, &config(4), None));
    assert!(!sequential.is_empty());
    assert_eq!(sequential, parallel);
}

#[test]
fn cold_and_warm_cache_produce_identical_reports() {
    let dir = std::env::temp_dir().join(format!("troy-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let problems = grid();
    let cache = ResultCache::on_disk(&dir).expect("create cache dir");

    let cold_results = solve_batch(&problems, &config(2), Some(&cache));
    assert!(cold_results
        .iter()
        .all(|r| !r.as_ref().expect("feasible").from_cache));
    let cold = report(&problems, &cold_results);

    // Warm via the same handle (memory layer)…
    let warm_results = solve_batch(&problems, &config(2), Some(&cache));
    assert!(warm_results
        .iter()
        .all(|r| r.as_ref().expect("feasible").from_cache));
    assert_eq!(cold, report(&problems, &warm_results));

    // …and via a fresh handle that can only hit the disk layer.
    let reopened = ResultCache::on_disk(&dir).expect("reopen cache dir");
    let disk_results = solve_batch(&problems, &config(2), Some(&reopened));
    assert!(disk_results
        .iter()
        .all(|r| r.as_ref().expect("feasible").from_cache));
    assert_eq!(cold, report(&problems, &disk_results));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_uncached_runs_are_reproducible() {
    let problems = grid();
    let one = report(&problems, &solve_batch(&problems, &config(3), None));
    let two = report(&problems, &solve_batch(&problems, &config(3), None));
    assert_eq!(one, two);
}
