//! Benchmark harness for the TroyHLS reproduction: the exact experiment
//! grid of the DAC'14 paper's Tables 3 and 4 (plus the Figure 5
//! motivational instance), with the paper's reported numbers carried along
//! for side-by-side comparison.
//!
//! The binaries `tables` and `figures` regenerate every table and figure;
//! `tables`, `ilp-bench`, `campaign-bench` and `cluster-bench` also check
//! their committed `BENCH_*.json` records with `--check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use troy_dfg::benchmarks;
use troy_portfolio::{solve_batch, BatchConfig, ResultCache};
use troyhls::{
    Catalog, DesignStats, ExactSolver, Implementation, Mode, SolveOptions, SynthesisProblem,
    Synthesizer,
};

/// One experiment row: a benchmark under constraints, plus what the paper
/// reported for it.
#[derive(Debug, Clone, Copy)]
pub struct RowSpec {
    /// Benchmark name (see [`troy_dfg::benchmarks::by_name`]).
    pub benchmark: &'static str,
    /// Protection mode (Table 3 = detection only, Table 4 = +recovery).
    pub mode: Mode,
    /// The paper's λ: total schedule length. Detection-only rows use it as
    /// the detection window; recovery rows split it across both phases.
    pub lambda: usize,
    /// The paper's area bound `A̅`.
    pub area: u64,
    /// Paper-reported columns.
    pub paper: PaperRow,
}

/// The paper's reported result columns for one row.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// IP-core instances used.
    pub u: usize,
    /// Distinct licenses bought.
    pub t: usize,
    /// Distinct vendors used.
    pub v: usize,
    /// Minimum license cost in dollars.
    pub mc: u64,
    /// `true` for rows the paper marks `*` (best within an hour).
    pub approx: bool,
}

/// Outcome of re-running one row with this implementation.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// The spec that was run.
    pub spec: RowSpec,
    /// Design statistics, when a design was found.
    pub stats: Option<DesignStats>,
    /// The synthesized design itself.
    pub implementation: Option<Implementation>,
    /// Whether our solver proved optimality.
    pub proven_optimal: bool,
    /// Wall-clock solve time.
    pub elapsed: Duration,
}

/// Table 3 of the paper: designs with detection only (12 rows).
#[must_use]
pub fn table3_specs() -> Vec<RowSpec> {
    let row = |benchmark, lambda, area, u, t, v, mc, approx| RowSpec {
        benchmark,
        mode: Mode::DetectionOnly,
        lambda,
        area,
        paper: PaperRow {
            u,
            t,
            v,
            mc,
            approx,
        },
    };
    vec![
        row("polynom", 3, 30_000, 8, 6, 4, 3580, false),
        row("polynom", 6, 20_000, 6, 6, 5, 3320, false),
        row("diff2", 4, 50_000, 14, 7, 5, 4130, false),
        row("diff2", 14, 30_000, 9, 7, 5, 4130, false),
        row("dtmf", 4, 70_000, 16, 5, 5, 2960, false),
        row("dtmf", 8, 30_000, 9, 5, 5, 2960, false),
        row("mof2", 7, 80_000, 18, 4, 4, 2440, false),
        row("mof2", 14, 40_000, 8, 4, 4, 2440, false),
        row("ellipticicass", 8, 30_000, 28, 6, 5, 2690, false),
        row("ellipticicass", 16, 20_000, 29, 7, 6, 3240, true),
        row("fir16", 6, 200_000, 41, 5, 5, 2960, false),
        row("fir16", 12, 140_000, 31, 5, 5, 2960, false),
    ]
}

/// Table 4 of the paper: designs with detection and recovery (12 rows).
#[must_use]
pub fn table4_specs() -> Vec<RowSpec> {
    let row = |benchmark, lambda, area, u, t, v, mc, approx| RowSpec {
        benchmark,
        mode: Mode::DetectionRecovery,
        lambda,
        area,
        paper: PaperRow {
            u,
            t,
            v,
            mc,
            approx,
        },
    };
    vec![
        row("polynom", 6, 60_000, 10, 9, 7, 5140, false),
        row("polynom", 12, 30_000, 9, 9, 6, 5140, false),
        row("diff2", 8, 80_000, 17, 9, 7, 5140, false),
        row("diff2", 14, 30_000, 9, 9, 6, 5190, false),
        row("dtmf", 8, 70_000, 20, 6, 5, 3830, false),
        row("dtmf", 15, 35_000, 12, 6, 5, 3830, false),
        row("mof2", 14, 80_000, 17, 6, 5, 3830, false),
        row("mof2", 24, 40_000, 22, 6, 5, 3830, false),
        row("ellipticicass", 16, 50_000, 31, 7, 6, 3180, true),
        row("ellipticicass", 24, 40_000, 44, 9, 8, 4850, true),
        row("fir16", 12, 220_000, 39, 6, 5, 3830, false),
        row("fir16", 16, 180_000, 40, 6, 4, 4390, true),
    ]
}

/// The Figure 5 motivational instance: polynom on the Table 1 catalog,
/// λ_det = 4, λ_rec = 3, area ≤ 22000. The paper's optimum is **$4160**.
///
/// # Panics
///
/// Panics if the instance fails validation (it cannot — constants are
/// known-good).
#[must_use]
pub fn motivational_problem() -> SynthesisProblem {
    SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
        .mode(Mode::DetectionRecovery)
        .detection_latency(4)
        .recovery_latency(3)
        .area_limit(22_000)
        .build()
        .expect("the motivational instance is well-formed")
}

/// Builds the [`SynthesisProblem`] for a row (8-vendor experiment catalog).
///
/// # Panics
///
/// Panics on an unknown benchmark name or invalid constraints — the specs
/// in this crate are known-good.
#[must_use]
pub fn problem_for(spec: &RowSpec) -> SynthesisProblem {
    let dfg = benchmarks::by_name(spec.benchmark)
        .unwrap_or_else(|| panic!("unknown benchmark {}", spec.benchmark));
    let builder = SynthesisProblem::builder(dfg, Catalog::paper8()).mode(spec.mode);
    let builder = match spec.mode {
        Mode::DetectionOnly => builder.detection_latency(spec.lambda),
        Mode::DetectionRecovery => builder.total_latency(spec.lambda),
    };
    builder
        .area_limit(spec.area)
        .build()
        .expect("table rows are well-formed")
}

/// Runs one row with the exact solver.
#[must_use]
pub fn run_row(spec: &RowSpec, options: &SolveOptions) -> RowResult {
    let problem = problem_for(spec);
    let t0 = Instant::now();
    match ExactSolver::new().synthesize(&problem, options) {
        Ok(s) => RowResult {
            spec: *spec,
            stats: Some(s.implementation.stats(&problem)),
            proven_optimal: s.proven_optimal,
            implementation: Some(s.implementation),
            elapsed: t0.elapsed(),
        },
        Err(_) => RowResult {
            spec: *spec,
            stats: None,
            implementation: None,
            proven_optimal: false,
            elapsed: t0.elapsed(),
        },
    }
}

/// Runs a whole table's rows concurrently over the batch pool, returning
/// results in spec order.
///
/// With [`troy_portfolio::Backend::Exact`] selected (the
/// [`BatchConfig::default`] backend) every row is solved by
/// the same engine [`run_row`] uses, so the two paths agree row for row;
/// the win is wall-clock (rows spread over `config.jobs` workers) and,
/// when `cache` is given, free re-runs of unchanged grids.
#[must_use]
pub fn run_rows(
    specs: &[RowSpec],
    config: &BatchConfig,
    cache: Option<&ResultCache>,
) -> Vec<RowResult> {
    let problems: Vec<SynthesisProblem> = specs.iter().map(problem_for).collect();
    let results = solve_batch(&problems, config, cache);
    specs
        .iter()
        .zip(problems.iter())
        .zip(results)
        .map(|((spec, problem), outcome)| match outcome {
            Ok(r) => RowResult {
                spec: *spec,
                stats: Some(r.synthesis.implementation.stats(problem)),
                proven_optimal: r.synthesis.proven_optimal,
                implementation: Some(r.synthesis.implementation),
                elapsed: r.elapsed,
            },
            Err(_) => RowResult {
                spec: *spec,
                stats: None,
                implementation: None,
                proven_optimal: false,
                elapsed: Duration::ZERO,
            },
        })
        .collect()
}

/// Formats a full table (header + one line per row result), paper numbers
/// beside measured ones.
#[must_use]
pub fn format_table(title: &str, results: &[RowResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<14} {:>3} {:>3} {:>7} | {:>3} {:>2} {:>2} {:>6} | {:>3} {:>2} {:>2} {:>6} {:>5} {:>10}",
        "benchmark", "n", "lam", "A", "u", "t", "v", "mc", "u'", "t'", "v'", "mc'", "opt", "time"
    );
    let _ = writeln!(
        out,
        "{:-<14} {:-<3} {:-<3} {:-<7} + {:-<17} + {:-<33}",
        "", "", "", "", " paper ", " measured "
    );
    for r in results {
        let n = troy_dfg::benchmarks::by_name(r.spec.benchmark).map_or(0, |g| g.len());
        let paper_mc = format!(
            "{}{}",
            r.spec.paper.mc,
            if r.spec.paper.approx { "*" } else { "" }
        );
        match &r.stats {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "{:<14} {:>3} {:>3} {:>7} | {:>3} {:>2} {:>2} {:>6} | {:>3} {:>2} {:>2} {:>6} {:>5} {:>10}",
                    r.spec.benchmark,
                    n,
                    r.spec.lambda,
                    r.spec.area,
                    r.spec.paper.u,
                    r.spec.paper.t,
                    r.spec.paper.v,
                    paper_mc,
                    s.instances_used,
                    s.licenses_used,
                    s.vendors_used,
                    format!(
                        "{}{}",
                        s.license_cost,
                        if r.proven_optimal { "" } else { "*" }
                    ),
                    if r.proven_optimal { "yes" } else { "no" },
                    format!("{:.1?}", r.elapsed),
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:<14} {:>3} {:>3} {:>7} | {:>3} {:>2} {:>2} {:>6} | {:>33}",
                    r.spec.benchmark,
                    n,
                    r.spec.lambda,
                    r.spec.area,
                    r.spec.paper.u,
                    r.spec.paper.t,
                    r.spec.paper.v,
                    paper_mc,
                    "no design found",
                );
            }
        }
    }
    out
}

/// Default harness budget: generous enough for every row on a laptop.
#[must_use]
pub fn harness_options() -> SolveOptions {
    SolveOptions {
        time_limit: Duration::from_secs(60),
        node_limit: 500_000,
        ..SolveOptions::default()
    }
}

/// Pulls a `"key": <number>` value out of a committed `BENCH_*.json`
/// record for a `--check` gate: a string scan over the records' own
/// fixed format, so no JSON float reader is needed.
#[must_use]
pub fn committed_value(text: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let at = text.find(&tag)? + tag.len();
    let digits: String = text[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_all_benchmarks_twice() {
        for specs in [table3_specs(), table4_specs()] {
            assert_eq!(specs.len(), 12);
            for name in ["polynom", "diff2", "dtmf", "mof2", "ellipticicass", "fir16"] {
                assert_eq!(
                    specs.iter().filter(|s| s.benchmark == name).count(),
                    2,
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn every_spec_builds_a_problem() {
        for spec in table3_specs().iter().chain(table4_specs().iter()) {
            let p = problem_for(spec);
            assert_eq!(p.mode(), spec.mode);
            assert_eq!(p.total_latency(), spec.lambda);
            assert_eq!(p.area_limit(), spec.area);
        }
    }

    #[test]
    fn motivational_problem_matches_figure5() {
        let p = motivational_problem();
        assert_eq!(p.detection_latency(), 4);
        assert_eq!(p.recovery_latency(), 3);
        assert_eq!(p.area_limit(), 22_000);
        assert_eq!(p.dfg().len(), 5);
    }

    #[test]
    fn run_row_produces_valid_design_on_easy_row() {
        let spec = table3_specs()[0];
        let r = run_row(&spec, &SolveOptions::quick());
        let stats = r.stats.expect("polynom lam=3 is feasible");
        assert!(stats.license_cost > 0);
        let p = problem_for(&spec);
        assert!(troyhls::validate(&p, r.implementation.as_ref().unwrap()).is_empty());
    }

    #[test]
    fn run_rows_agrees_with_run_row() {
        let specs = vec![table3_specs()[0], table3_specs()[1]];
        let config = BatchConfig {
            jobs: 2,
            options: SolveOptions::quick(),
            ..BatchConfig::default()
        };
        let batch = run_rows(&specs, &config, None);
        assert_eq!(batch.len(), specs.len());
        for (spec, b) in specs.iter().zip(&batch) {
            let single = run_row(spec, &SolveOptions::quick());
            assert_eq!(
                single.stats.as_ref().map(|s| s.license_cost),
                b.stats.as_ref().map(|s| s.license_cost),
                "{}",
                spec.benchmark
            );
            assert_eq!(single.proven_optimal, b.proven_optimal);
        }
    }

    #[test]
    fn run_rows_cache_serves_second_pass() {
        let specs = vec![table3_specs()[0]];
        let config = BatchConfig {
            jobs: 1,
            options: SolveOptions::quick(),
            ..BatchConfig::default()
        };
        let cache = ResultCache::in_memory();
        let cold = run_rows(&specs, &config, Some(&cache));
        let warm = run_rows(&specs, &config, Some(&cache));
        assert_eq!(
            cold[0].stats.as_ref().map(|s| s.license_cost),
            warm[0].stats.as_ref().map(|s| s.license_cost)
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn format_table_contains_paper_and_measured_columns() {
        let spec = table3_specs()[0];
        let r = run_row(&spec, &SolveOptions::quick());
        let text = format_table("Table 3", &[r]);
        assert!(text.contains("polynom"));
        assert!(text.contains("3580")); // paper value present
        assert!(text.contains("measured"));
    }
}
