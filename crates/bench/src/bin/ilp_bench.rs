//! `ilp-bench`: committed benchmark of the sparse revised simplex on the
//! paper's ILP formulation.
//!
//! ```text
//! cargo run --release -p troy-bench --bin ilp-bench            # regenerate BENCH_ilp.json
//! cargo run --release -p troy-bench --bin ilp-bench -- --check # diff against the committed file
//! ```
//!
//! Every row runs one branch-and-bound tree under a fixed node cap and no
//! wall-clock limit, so the counters are bit-for-bit reproducible across
//! machines. `--check` gates them against the committed record: `nodes`,
//! `status` and `objective` must match exactly, and `lp_iterations` may not
//! grow by more than 20%. Wall time is recorded for context but never
//! compared. The dense engine's column, last measured at 2f63976, is
//! frozen in `EXPERIMENTS.md` rather than re-run.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use troy_bench::{motivational_problem, problem_for, table3_specs};
use troy_ilp::{SolveParams, SolveStatus};
use troyhls::{
    formulate, FormulationOptions, GreedySolver, SolveOptions, SynthesisProblem, Synthesizer,
};

/// One benchmarked instance: a named problem plus its node cap. The caps
/// are frozen so every run repeats the committed search exactly.
struct BenchCase {
    name: &'static str,
    problem: SynthesisProblem,
    node_limit: usize,
    /// Known optimum the solve must land on (Fig. 5 oracle).
    expect_cost: Option<f64>,
}

/// Measured result of one case.
struct CaseResult {
    name: &'static str,
    node_limit: usize,
    wall_ms: f64,
    lp_iterations: usize,
    nodes: usize,
    refactorizations: usize,
    status: &'static str,
    objective: Option<f64>,
}

impl CaseResult {
    /// The columns `--check` requires to equal the committed record,
    /// rendered exactly as [`render_json`] writes them.
    fn exact_columns(&self) -> [(&'static str, String); 3] {
        [
            ("nodes", self.nodes.to_string()),
            ("status", format!("\"{}\"", self.status)),
            (
                "objective",
                self.objective
                    .map_or_else(|| "null".to_owned(), |o| format!("{o:.1}")),
            ),
        ]
    }
}

fn cases() -> Vec<BenchCase> {
    let t3 = table3_specs();
    let t3_case = |idx: usize, name: &'static str, node_limit: usize| BenchCase {
        name,
        problem: problem_for(&t3[idx]),
        node_limit,
        expect_cost: None,
    };
    vec![
        BenchCase {
            name: "fig5-polynom",
            problem: motivational_problem(),
            node_limit: 40_000,
            expect_cost: Some(4160.0),
        },
        t3_case(0, "table3-polynom-l3", 200),
        t3_case(1, "table3-polynom-l6", 12),
        // The two largest rows of Table 3, the ones the sparse engine
        // exists for. Their small caps were sized to keep the dense
        // engine tractable; they stay so the record stays comparable.
        t3_case(9, "table3-ellipticicass-l16", 60),
        t3_case(11, "table3-fir16-l12", 40),
    ]
}

fn status_name(s: SolveStatus) -> &'static str {
    match s {
        SolveStatus::Optimal => "Optimal",
        SolveStatus::Feasible => "Feasible",
        SolveStatus::Infeasible => "Infeasible",
        SolveStatus::Unknown => "Unknown",
    }
}

fn run_case(case: &BenchCase) -> CaseResult {
    let ilp = formulate(&case.problem, &FormulationOptions::default());
    let mip_start = GreedySolver::new()
        .synthesize(&case.problem, &SolveOptions::quick())
        .ok()
        .and_then(|s| ilp.encode(&s.implementation));
    let params = SolveParams {
        time_limit: None,
        node_limit: case.node_limit,
        integral_objective: true,
        mip_start,
        branch_priority: ilp.branch_priorities(),
        ..SolveParams::default()
    };
    let t0 = Instant::now();
    let r = ilp.model.solve(&params);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(expect) = case.expect_cost {
        let got = r.objective().unwrap_or(f64::NAN);
        assert!(
            (got - expect).abs() < 0.5,
            "{}: landed on {got}, expected {expect}",
            case.name
        );
    }
    CaseResult {
        name: case.name,
        node_limit: case.node_limit,
        wall_ms,
        lp_iterations: r.lp_iterations(),
        nodes: r.nodes(),
        refactorizations: r.refactorizations(),
        status: status_name(r.status()),
        objective: r.objective(),
    }
}

/// Renders the record: schema 2, one row per line.
fn render_json(results: &[CaseResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 2,\n");
    out.push_str("  \"note\": \"nodes/status/objective are gated exactly and lp_iterations within +20%; wall_ms is informational only\",\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in results.iter().enumerate() {
        let [(_, nodes), (_, status), (_, objective)] = r.exact_columns();
        let _ = writeln!(
            out,
            "    {{ \"name\": \"{}\", \"node_limit\": {}, \"wall_ms\": {:.1}, \"lp_iterations\": {}, \
             \"nodes\": {nodes}, \"refactorizations\": {}, \"status\": {status}, \"objective\": {objective} }}{}",
            r.name,
            r.node_limit,
            r.wall_ms,
            r.lp_iterations,
            r.refactorizations,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Repo-root path of the committed benchmark file.
fn bench_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ilp.json")
}

/// The raw value of `key` in the committed row named `row`. The record
/// holds one row per line, so the scan never strays into a neighbour's
/// columns.
fn committed_field<'a>(text: &'a str, row: &str, key: &str) -> Option<&'a str> {
    let name = format!("\"name\": \"{row}\",");
    let line = text.lines().find(|l| l.contains(&name))?;
    let tag = format!("\"{key}\": ");
    let rest = &line[line.find(&tag)? + tag.len()..];
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// Gates fresh results against the committed record; returns the number
/// of failed checks.
fn check(committed: &str, results: &[CaseResult]) -> usize {
    let mut failures = 0;
    for r in results {
        for (key, fresh) in r.exact_columns() {
            let baseline = committed_field(committed, r.name, key);
            if baseline != Some(fresh.as_str()) {
                eprintln!(
                    "FAIL: {} {key}: committed {}, fresh {fresh}",
                    r.name,
                    baseline.unwrap_or("(missing)")
                );
                failures += 1;
            }
        }
        let Some(baseline) = committed_field(committed, r.name, "lp_iterations")
            .and_then(|v| v.parse::<usize>().ok())
        else {
            eprintln!("FAIL: {} missing from the committed file", r.name);
            failures += 1;
            continue;
        };
        let fresh = r.lp_iterations;
        // >20% more simplex iterations than the committed baseline is a
        // regression; fewer is progress (regenerate the file to bank it).
        let limit = baseline + baseline.div_ceil(5);
        let verdict = if fresh > limit { "REGRESSION" } else { "ok" };
        println!(
            "{:<26} iters: committed {baseline:>8}, fresh {fresh:>8}  (limit {limit}) {verdict}",
            r.name
        );
        if fresh > limit {
            failures += 1;
        }
    }
    failures
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let results: Vec<CaseResult> = cases()
        .iter()
        .map(|c| {
            eprintln!("running {} (node cap {})...", c.name, c.node_limit);
            run_case(c)
        })
        .collect();

    println!(
        "{:<26} {:>7} {:>9} {:>7} {:>7} {:>9} {:>9} {:>10}",
        "case", "nodes≤", "iters", "nodes", "refact", "status", "objective", "wall ms"
    );
    for r in &results {
        println!(
            "{:<26} {:>7} {:>9} {:>7} {:>7} {:>9} {:>9} {:>10.1}",
            r.name,
            r.node_limit,
            r.lp_iterations,
            r.nodes,
            r.refactorizations,
            r.status,
            r.objective
                .map_or_else(|| "-".to_owned(), |o| format!("{o:.1}")),
            r.wall_ms
        );
    }

    let path = bench_path();
    if check_mode {
        let Ok(committed) = std::fs::read_to_string(&path) else {
            eprintln!("FAIL: no committed benchmark at {}", path.display());
            std::process::exit(1);
        };
        let failures = check(&committed, &results);
        if failures > 0 {
            eprintln!(
                "FAIL: {failures} check(s) differ from the committed record or its iteration budget"
            );
            std::process::exit(1);
        }
        println!("every row matches the committed record within the iteration budget");
        return;
    }
    std::fs::write(&path, render_json(&results)).expect("write BENCH_ilp.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_row() -> CaseResult {
        CaseResult {
            name: "fig5-polynom",
            node_limit: 40_000,
            wall_ms: 1.0,
            lp_iterations: 348_784,
            nodes: 10_185,
            refactorizations: 10_892,
            status: "Optimal",
            objective: Some(4160.0),
        }
    }

    #[test]
    fn committed_fields_are_read_from_their_own_row() {
        let other = CaseResult {
            name: "table3-polynom-l3",
            nodes: 200,
            status: "Feasible",
            ..fig5_row()
        };
        let text = render_json(&[fig5_row(), other]);
        assert_eq!(
            committed_field(&text, "fig5-polynom", "nodes"),
            Some("10185")
        );
        assert_eq!(
            committed_field(&text, "table3-polynom-l3", "status"),
            Some("\"Feasible\"")
        );
        assert_eq!(
            committed_field(&text, "fig5-polynom", "objective"),
            Some("4160.0")
        );
        assert_eq!(committed_field(&text, "table3-polynom", "nodes"), None);
    }

    #[test]
    fn the_gate_is_exact_on_nodes_status_and_objective() {
        let committed = render_json(&[fig5_row()]);
        assert_eq!(check(&committed, &[fig5_row()]), 0);
        // Any move in a deterministic column fails, even a small one.
        for fresh in [
            CaseResult {
                nodes: 10_184,
                ..fig5_row()
            },
            CaseResult {
                status: "Feasible",
                ..fig5_row()
            },
            CaseResult {
                objective: Some(4170.0),
                ..fig5_row()
            },
            CaseResult {
                objective: None,
                ..fig5_row()
            },
        ] {
            assert_eq!(check(&committed, &[fresh]), 1);
        }
        // Iterations have a 20% budget; fewer always pass.
        let within = CaseResult {
            lp_iterations: 348_784 + 348_784 / 5,
            ..fig5_row()
        };
        assert_eq!(check(&committed, &[within]), 0);
        let past = CaseResult {
            lp_iterations: 348_784 + 348_784 / 5 + 2,
            ..fig5_row()
        };
        assert_eq!(check(&committed, &[past]), 1);
        // A row missing from the record fails.
        assert!(check("{}", &[fig5_row()]) > 0);
    }
}
