//! Regenerates the paper's tables.
//!
//! ```text
//! cargo run --release -p troy-bench --bin tables -- [table1|table3|table4|fig5|overhead|all]
//! cargo run --release -p troy-bench --bin tables -- --json   # regenerate BENCH_tables.json
//! cargo run --release -p troy-bench --bin tables -- --check  # gate against the committed file
//! ```
//!
//! `--json` records Fig. 5 and all 24 rows of Tables 3 and 4 — cost, the
//! `proven` flag, u/t/v and the solver's work counters (license subsets
//! checked, search nodes visited; see `ExactSolver::synthesize_counted`)
//! — in `BENCH_tables.json` at the repo root. Each row is solved by the
//! exact solver under [`harness_options`], whose node limit is the only
//! budget that binds: every row solves in well under a millisecond
//! against a 60 s time limit, so the record reproduces on any machine.
//! `--check` re-solves every row and fails unless every field equals the
//! committed record, so a change that alters the search shows up in the
//! counters even when the designs stay the same.

use std::fmt::Write as _;
use std::path::PathBuf;

use troy_bench::{
    format_table, harness_options, motivational_problem, problem_for, run_rows, table3_specs,
    table4_specs, RowResult, RowSpec,
};
use troy_dfg::{benchmarks, IpTypeId};
use troy_portfolio::BatchConfig;
use troyhls::{
    unprotected_cost, Catalog, ExactSolver, ExactWork, Mode, SolveOptions, SynthesisProblem,
    Synthesizer,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--json" || a == "--check") {
        std::process::exit(record(args.iter().any(|a| a == "--check")));
    }
    let what = args.first().map_or("all", String::as_str);
    match what {
        "table1" => table1(),
        "table3" => table(3),
        "table4" => table(4),
        "fig5" => fig5(),
        "overhead" => overhead(),
        "all" => {
            table1();
            fig5();
            table(3);
            table(4);
            overhead();
        }
        other => {
            eprintln!(
                "unknown table `{other}`; expected table1|table3|table4|fig5|overhead|all, \
                 --json or --check"
            );
            std::process::exit(2);
        }
    }
}

/// Table 1: the 4-vendor motivational catalog.
fn table1() {
    println!("Table 1 — area and cost for each type of computational IP");
    println!(
        "{:<8} {:<12} {:>12} {:>10}",
        "vendor", "type", "area", "cost"
    );
    let cat = Catalog::table1();
    for v in cat.vendors() {
        for t in [IpTypeId::ADDER, IpTypeId::MULTIPLIER] {
            if let Some(off) = cat.offering(v, t) {
                println!(
                    "{:<8} {:<12} {:>12} {:>10}",
                    v.to_string(),
                    t.to_string(),
                    off.area,
                    format!("${}", off.cost)
                );
            }
        }
    }
    println!();
}

/// Figure 5: the motivational example and its $4160 optimum.
fn fig5() {
    println!("Figure 5 — motivational example (polynom, Table 1 catalog,");
    println!("           lambda_det = 4, lambda_rec = 3, area <= 22000)");
    let p = motivational_problem();
    match ExactSolver::new().synthesize(&p, &harness_options()) {
        Ok(s) => {
            let stats = s.implementation.stats(&p);
            println!("  minimum purchasing cost: ${} (paper: $4160)", s.cost);
            println!("  proven optimal: {}", s.proven_optimal);
            println!("  {stats}");
            println!("  licenses:");
            for l in s.implementation.licenses_used(&p) {
                let off = p.catalog().offering_of(l).expect("used license");
                println!("    {l:<22} area {:>6}  ${}", off.area, off.cost);
            }
        }
        Err(e) => println!("  FAILED: {e}"),
    }
    println!();
}

/// The title and rows of Table 3 or Table 4.
fn table_specs(which: usize) -> (&'static str, Vec<RowSpec>) {
    if which == 3 {
        (
            "Table 3 — designs with detection only (8-vendor catalog)",
            table3_specs(),
        )
    } else {
        (
            "Table 4 — designs with detection and recovery (8-vendor catalog)",
            table4_specs(),
        )
    }
}

/// Solves every row of Table 3 or Table 4. Rows are independent: spread
/// them over the batch pool (TROY_JOBS or the machine width) with the
/// same exact engine as [`troy_bench::run_row`].
fn solve_table(specs: &[RowSpec]) -> Vec<RowResult> {
    let config = BatchConfig {
        options: harness_options(),
        ..BatchConfig::default()
    };
    run_rows(specs, &config, None)
}

fn table(which: usize) {
    let (title, specs) = table_specs(which);
    let results = solve_table(&specs);
    println!("{}", format_table(title, &results));
    // The paper's headline observation: detection-only underestimates the
    // diversity (and cost) a recoverable design needs.
    if which == 4 {
        println!(
            "note: mc' columns of Table 4 exceed Table 3 on every benchmark —\n\
             the detection-only flow underestimates the required IP diversity."
        );
    }
    println!();
}

/// Renders the record: one line per row, every field deterministic.
/// Rows are solved one after another in this thread, so each row's work
/// counters are its own.
fn render_record() -> String {
    let mut lines = vec![record_line("fig5", &motivational_problem())];
    for which in [3, 4] {
        let (_, specs) = table_specs(which);
        for spec in &specs {
            let name = format!("table{which}-{}-l{}", spec.benchmark, spec.lambda);
            lines.push(record_line(&name, &problem_for(spec)));
        }
    }
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 2,\n");
    out.push_str(
        "  \"note\": \"exact solver under harness_options; every field is deterministic and gated for equality; subsets/nodes are the solver's work counters\",\n",
    );
    out.push_str("  \"rows\": [\n");
    for (i, line) in lines.iter().enumerate() {
        let sep = if i + 1 < lines.len() { "," } else { "" };
        let _ = writeln!(out, "    {line}{sep}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Solves `problem` with the exact solver and renders its row; a row
/// without a design records `null` cost and u/t/v.
fn record_line(name: &str, problem: &SynthesisProblem) -> String {
    let (result, work) = ExactSolver::new().synthesize_counted(problem, &harness_options());
    let ExactWork { subsets, nodes } = work;
    match result {
        Ok(s) => {
            let stats = s.implementation.stats(problem);
            format!(
                "{{ \"name\": \"{name}\", \"cost\": {}, \"proven\": {}, \"u\": {}, \"t\": {}, \"v\": {}, \"subsets\": {subsets}, \"nodes\": {nodes} }}",
                stats.license_cost,
                s.proven_optimal,
                stats.instances_used,
                stats.licenses_used,
                stats.vendors_used
            )
        }
        Err(_) => format!(
            "{{ \"name\": \"{name}\", \"cost\": null, \"proven\": false, \"u\": null, \"t\": null, \"v\": null, \"subsets\": {subsets}, \"nodes\": {nodes} }}"
        ),
    }
}

/// Repo-root path of the committed tables record.
fn bench_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_tables.json")
}

/// `--json` writes the record; `--check` compares it line by line with
/// the committed file and returns the process exit code.
fn record(check: bool) -> i32 {
    let fresh = render_record();
    let path = bench_path();
    if !check {
        std::fs::write(&path, &fresh).expect("write BENCH_tables.json");
        println!("wrote {}", path.display());
        return 0;
    }
    let Ok(committed) = std::fs::read_to_string(&path) else {
        eprintln!("FAIL: no committed record at {}", path.display());
        return 1;
    };
    let (committed, fresh): (Vec<&str>, Vec<&str>) =
        (committed.lines().collect(), fresh.lines().collect());
    let mut failures = 0;
    for i in 0..committed.len().max(fresh.len()) {
        let (c, f) = (committed.get(i), fresh.get(i));
        if c != f {
            eprintln!(
                "FAIL: line {}\n  committed: {}\n  fresh:     {}",
                i + 1,
                c.unwrap_or(&"<missing>"),
                f.unwrap_or(&"<missing>")
            );
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("FAIL: {failures} line(s) differ from the committed record");
        1
    } else {
        println!("every row matches the committed record");
        0
    }
}

/// Derived table: the license-cost price of each protection level relative
/// to an unprotected single-computation design (not in the paper, but the
/// number a procurement decision actually turns on).
fn overhead() {
    println!("Cost of security — license bill by protection level (8-vendor catalog)");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "benchmark", "unprotected", "detection", "recovery", "det x", "rec x"
    );
    let options = SolveOptions {
        time_limit: std::time::Duration::from_secs(30),
        ..harness_options()
    };
    for g in benchmarks::paper_suite() {
        let cp = g.critical_path_len();
        let base = unprotected_cost(&g, &Catalog::paper8()).expect("catalog covers all types");
        let solve = |mode: Mode| -> Option<u64> {
            let p = SynthesisProblem::builder(g.clone(), Catalog::paper8())
                .mode(mode)
                .detection_latency(cp + 1)
                .recovery_latency(cp + 1)
                .build()
                .ok()?;
            ExactSolver::new()
                .synthesize(&p, &options)
                .ok()
                .map(|s| s.cost)
        };
        let det = solve(Mode::DetectionOnly);
        let rec = solve(Mode::DetectionRecovery);
        let fmt = |c: Option<u64>| c.map_or("-".to_owned(), |c| format!("${c}"));
        let ratio =
            |c: Option<u64>| c.map_or("-".to_owned(), |c| format!("{:.2}", c as f64 / base as f64));
        println!(
            "{:<14} {:>12} {:>12} {:>12} {:>8} {:>8}",
            g.name(),
            format!("${base}"),
            fmt(det),
            fmt(rec),
            ratio(det),
            ratio(rec),
        );
    }
    println!();
}
