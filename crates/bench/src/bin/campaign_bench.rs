//! `campaign-bench`: committed Trojan-injection campaign record.
//!
//! ```text
//! cargo run --release -p troy-bench --bin campaign-bench            # regenerate BENCH_campaign.json
//! cargo run --release -p troy-bench --bin campaign-bench -- --check # gate against the committed file
//! ```
//!
//! Runs the fixed campaign grid — three benchmarks × both modes × the
//! default stratified Trojan corpus (rarity {0,4,12} × payload
//! {xor,offset,latched} × coalition {1,2} × trigger {comb,seq} + a clean
//! control) — under a pinned master seed and commits the deterministic
//! per-cell detection/recovery rows plus informational latency to
//! `BENCH_campaign.json` at the repo root. All counts are pure functions
//! of the seed, so the file reproduces bit-for-bit on any machine
//! (`latency_us` aside). `--check` re-runs the grid and fails on
//!
//! - any escaped corrupting activation in the hard-guarantee slice
//!   (`DetectionRecovery` + memory-less payload + single infected vendor
//!   + rare trigger), each printed as a replayable (seed, cell) witness;
//! - a detection-rate regression of more than 2 percentage points on
//!   `DetectionRecovery` cells versus the committed record.
//!
//! `TROY_CAMPAIGN_SEED=N` overrides the master seed (exploration only:
//! a non-default seed never rewrites the committed file).

use std::path::PathBuf;
use std::time::Instant;

use troy_bench::committed_value;
use troy_portfolio::default_jobs;
use troy_sim::{run_grid, CampaignReport, DesignUnderTest, GridConfig};
use troyhls::{ExactSolver, Mode, SolveOptions};

/// Pinned master seed of the committed record.
const COMMITTED_SEED: u64 = 0x00DA_C014;

/// Benchmarks in the committed grid (paper Table 3 workloads that the
/// exact solver closes quickly at critical-path + 1 slack).
const BENCHMARKS: [&str; 3] = ["polynom", "diff2", "dtmf"];

/// Mission steps per cell.
const STEPS: usize = 24;

fn grid_config(seed: u64) -> GridConfig {
    GridConfig {
        seed,
        steps: STEPS,
        ..GridConfig::default()
    }
}

fn synthesize_designs() -> Vec<DesignUnderTest> {
    let solver = ExactSolver::new();
    let options = SolveOptions::quick();
    let mut designs = Vec::new();
    for name in BENCHMARKS {
        for mode in [Mode::DetectionOnly, Mode::DetectionRecovery] {
            let t0 = Instant::now();
            let d = DesignUnderTest::synthesize(name, mode, &solver, &options)
                .unwrap_or_else(|e| panic!("synthesize {name}: {e}"));
            eprintln!(
                "synthesized {name}/{} in {:.0} ms",
                d.mode_tag(),
                t0.elapsed().as_secs_f64() * 1e3
            );
            designs.push(d);
        }
    }
    designs
}

/// Repo-root path of the committed campaign record.
fn bench_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json")
}

fn check(report: &CampaignReport) -> i32 {
    let mut failures = 0;

    let escapes = report.guarantee_escapes();
    if escapes.is_empty() {
        println!("guarantee slice: no escaped corrupting activations");
    } else {
        for e in &escapes {
            eprintln!(
                "FAIL: escape in guarantee slice: cell={} step={} \
                 (replay: seed {:#x}, cell-id above)",
                e.cell, e.step, e.seed
            );
        }
        failures += escapes.len();
    }

    let path = bench_path();
    let Ok(committed) = std::fs::read_to_string(&path) else {
        eprintln!("FAIL: no committed record at {}", path.display());
        return 1;
    };
    let Some(baseline) = committed_value(&committed, "detection_rate_recovery") else {
        eprintln!("FAIL: committed record lacks detection_rate_recovery");
        return 1;
    };
    let fresh = report.detection_rate(Some(Mode::DetectionRecovery));
    // >2 percentage points below the committed baseline is a regression;
    // better is progress (regenerate the file to bank it).
    let limit = baseline - 0.02;
    let verdict = if fresh < limit { "REGRESSION" } else { "ok" };
    println!(
        "detection_rate_recovery: committed {baseline:.4}, fresh {fresh:.4} \
         (limit {limit:.4}) {verdict}"
    );
    if fresh < limit {
        failures += 1;
    }

    if let Some(committed_escapes) = committed_value(&committed, "guarantee_escapes") {
        if committed_escapes > 0.0 {
            eprintln!("FAIL: committed record itself carries guarantee escapes");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("FAIL: {failures} campaign gate(s) tripped");
        1
    } else {
        println!("all campaign gates passed");
        0
    }
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let seed = std::env::var("TROY_CAMPAIGN_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(COMMITTED_SEED);

    let designs = synthesize_designs();
    let config = grid_config(seed);
    let jobs = default_jobs();
    let t0 = Instant::now();
    let report = run_grid(&designs, &config, jobs);
    eprintln!(
        "ran {} cells ({} steps) across {jobs} workers in {:.0} ms",
        report.cells.len(),
        report.steps(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    print!("{}", report.summary_text());

    if check_mode {
        std::process::exit(check(&report));
    }
    if seed != COMMITTED_SEED {
        println!("non-default seed {seed:#x}: not rewriting the committed file");
        if !report.guarantee_escapes().is_empty() {
            std::process::exit(1);
        }
        return;
    }
    if !report.guarantee_escapes().is_empty() {
        for e in report.guarantee_escapes() {
            eprintln!(
                "FAIL: escape in guarantee slice: cell={} step={} seed={:#x}",
                e.cell, e.step, e.seed
            );
        }
        eprintln!("refusing to commit a record with guarantee escapes");
        std::process::exit(1);
    }
    let path = bench_path();
    std::fs::write(&path, report.to_json(true)).expect("write BENCH_campaign.json");
    println!("wrote {}", path.display());
}
