//! `service-bench`: the repository benchmark. End-to-end and per-layer
//! numbers for every path that answers a synthesis request —
//! `troyhls synth`, the daemon and the cluster router.
//!
//! ```text
//! bash service-bench/run.sh [--workload NAME] [--seed N] [--seconds S]
//!                           [--trace [0|1]] [--runs K] [--check]
//! ```
//!
//! `run.sh` builds `troyhls-cli` and this binary from source (release,
//! offline) into `$CARGO_TARGET_DIR` (default `target`) and runs it.
//!
//! - `--workload NAME` runs one workload in this process and prints its
//!   metrics, one per line, then one JSON object as the last line:
//!   `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! - Without `--workload`, or with `--runs K` / `--check`, each run of
//!   each workload is this binary re-executed with `--workload`, so every
//!   run has a fresh process (its own `peak_rss_mb`, no threads left over
//!   from an earlier daemon). `--runs K` uses seeds N, N+1, …, N+K−1 and
//!   prints each metric's median and quartiles over the K runs, and
//!   writes them to `$CARGO_TARGET_DIR/service-bench/summary.json`.
//! - `--check` compares those medians with the committed
//!   `service-bench/baseline.json`, allowing each end-to-end metric the
//!   bound `BENCHMARK.json` gives it, and exits 1 on a regression, on any
//!   incorrect answer or failed request, or when the open-loop generator
//!   ran more than [`LATE_LIMIT_MS`] late. It refuses to run with another
//!   `--seconds` than the baseline's.
//! - `--trace` (or `--trace 1`) makes each run a traced run: per-layer
//!   metrics instead of end-to-end ones, and the spans written to
//!   `$CARGO_TARGET_DIR/service-bench/<workload>.trace.json`. `--trace 0`
//!   is an untraced run, the default.
//! - `--seconds S` is the length of each timed phase, 25 by default
//!   (`run_seconds` in BENCHMARK.json).
//!
//! BENCHMARK.json's `command` is run with `--workload NAME --seed N
//! --seconds S --trace 0|1`; that is what `--seconds` and the `0|1` form
//! of `--trace` are for.
//!
//! Workloads (seed 0xDAC14 unless `--seed` is given):
//!
//! - `cli-grid` — `troyhls-cli synth <row> --prove` for the 25 paper
//!   problems, one process at a time, in seeded rounds. The one-shot
//!   designer path: exact solver, lint, certify and process start; no
//!   service, cache, supervisor or ILP. Its times are reported at a
//!   reference host speed, measured by a `/bin/true` spawn before every
//!   solve, with the raw times printed beside them (see `workload::PROBE`).
//! - `daemon-fresh` — closed loop, 2 clients, every request a cache miss
//!   (the paper problems as inline DFGs under a fresh graph name),
//!   `deadline_ms` 1000. Latency, cost and the `proven` flag are set by
//!   the supervisor ladder and the solvers.
//! - `daemon-hot` — closed loop, 2 clients, one connection per request,
//!   Zipf(1.1) over 16 keys warmed in set-up. No solver runs: accept,
//!   transport, parse, problem build, cache lookup, certify-on-hit and
//!   render. It bypasses everything `daemon-fresh` exercises.
//! - `cluster-mixed` — open loop, Poisson arrivals at 10 req/s, at most 2
//!   in flight, through a 3-worker router; 4 in 5 requests repeat 12 warm
//!   keys, 1 in 5 is fresh. The router's ring walk, peer probes, dispatch
//!   hop and write-behind puts.
//!
//! `BENCH_ilp.json`'s `wall_ms` and `BENCH_cluster.json`'s
//! `latency_us_mean` are superseded by this benchmark for timing claims.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use service_bench::json::Value;
use service_bench::stats::{median, quartiles};
use service_bench::workload::{self, Options, Report, Workload};

/// Default input seed.
const DEFAULT_SEED: u64 = 0xDAC14;

/// Default timed-phase length, matching `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 25.0;

/// Open-loop lateness past which `--check` voids a run: a quarter of
/// `cluster-mixed`'s mean gap between arrivals (100 ms). On 2 vCPUs busy
/// with fresh solves, a sender thread wakes up to ~10 ms late.
const LATE_LIMIT_MS: f64 = 25.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        check: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        raw.get(*i).cloned().ok_or(format!("{flag}: missing value"))
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                args.workload = Some(Workload::from_name(&name).ok_or(format!(
                    "--workload: unknown `{name}` (cli-grid, daemon-fresh, daemon-hot, cluster-mixed)"
                ))?);
            }
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| format!("--seed: `{v}` is not a u64"))?;
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("--seconds: `{v}` is not a positive number"))?;
            }
            "--runs" => {
                let v = value(&mut i, "--runs")?;
                args.runs = v
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or(format!("--runs: `{v}` is not a positive count"))?;
            }
            "--trace" => match raw.get(i + 1).map(String::as_str) {
                Some("0") => {
                    i += 1;
                }
                Some("1") => {
                    i += 1;
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--check" => args.check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if args.check && args.trace {
        return Err("--check compares untraced runs; drop --trace".to_owned());
    }
    Ok(args)
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn output_dir() -> PathBuf {
    target_dir().join("service-bench")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".to_owned()
    }
}

/// One workload in this process: human-readable lines, then the result
/// object as the last line.
fn run_here(workload: Workload, opts: &Options) -> ExitCode {
    let report = match workload::run(workload, opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("service-bench {}: {e}", workload.name());
            return ExitCode::from(1);
        }
    };
    println!(
        "{} seed={:#x} seconds={} trace={}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    for note in &report.notes {
        println!("  {note}");
    }
    println!("late_max_ms {}", json_number(report.late_max_ms));
    for w in &report.wrong {
        println!("WRONG: {w}");
    }
    for e in &report.errors {
        println!("error: {e}");
    }
    if let Some(rec) = &report.trace {
        let path = output_dir().join(format!("{}.trace.json", workload.name()));
        let written = std::fs::create_dir_all(output_dir())
            .and_then(|()| std::fs::write(&path, rec.to_json(workload.name(), opts.seed)));
        match written {
            Ok(()) => println!("trace: {} ({} spans)", path.display(), rec.spans().len()),
            Err(e) => {
                eprintln!("service-bench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.wrong.is_empty() && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// What the orchestrator keeps from one child run.
struct ChildRun {
    correct: bool,
    failed: f64,
    late_max_ms: f64,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(workload: Workload, seed: u64, opts: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(opts.trace.then_some("--trace"))
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!(
            "{} (seed {seed}) exited with {}",
            workload.name(),
            out.status
        ));
    }
    let result = stdout
        .lines()
        .last()
        .and_then(Value::parse)
        .ok_or_else(|| format!("{}: no result line", workload.name()))?;
    let late_max_ms = stdout
        .lines()
        .find_map(|l| l.strip_prefix("late_max_ms "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0);
    let metrics = match result.get("metrics") {
        Some(Value::Obj(members)) => members
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                (name.clone(), value, unit.to_owned())
            })
            .collect(),
        _ => Vec::new(),
    };
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Value::Bool(true)),
        failed: result
            .get("failed")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN),
        late_max_ms,
        metrics,
    })
}

/// Per metric, in first-seen order: unit and the values over the runs.
type Table = Vec<(String, String, Vec<f64>)>;

fn tabulate(runs: &[ChildRun]) -> Table {
    let mut table: Table = Vec::new();
    for run in runs {
        for (name, value, unit) in &run.metrics {
            match table.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, values)) => values.push(*value),
                None => table.push((name.clone(), unit.clone(), vec![*value])),
            }
        }
    }
    table
}

/// `(name, better, bound)` of every end-to-end metric in BENCHMARK.json.
fn bounds(manifest: &Value) -> Vec<(String, String, f64)> {
    manifest
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("better")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Value::parse(&text).ok_or_else(|| format!("{} is not valid JSON", path.display()))
}

fn orchestrate(args: &Args) -> ExitCode {
    let baseline = if args.check {
        match read_baseline(args.seconds) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("service-bench: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut failures: Vec<String> = Vec::new();
    let mut summary: Vec<String> = Vec::new();
    let mut medians: Vec<(Workload, Vec<(String, f64)>)> = Vec::new();
    for &w in &workloads {
        let mut runs = Vec::new();
        for k in 0..args.runs {
            let seed = args.seed.wrapping_add(k as u64);
            match run_child(w, seed, args) {
                Ok(run) => {
                    if !run.correct {
                        failures.push(format!("{} seed {seed}: incorrect answers", w.name()));
                    }
                    if run.failed != 0.0 {
                        failures.push(format!("{} seed {seed}: {} failed", w.name(), run.failed));
                    }
                    if run.late_max_ms > LATE_LIMIT_MS {
                        failures.push(format!(
                            "{} seed {seed}: generator ran {:.1} ms late",
                            w.name(),
                            run.late_max_ms
                        ));
                    }
                    runs.push(run);
                }
                Err(e) => failures.push(e),
            }
        }
        println!(
            "== {} over {} run(s): median [q1, q3]",
            w.name(),
            runs.len()
        );
        let mut rows = Vec::new();
        let mut meds = Vec::new();
        for (name, unit, values) in tabulate(&runs) {
            let [q1, _, q3] = quartiles(&values).unwrap_or([f64::NAN; 3]);
            let med = median(&values).unwrap_or(f64::NAN);
            println!("  {name:<36} {med:>14.4} [{q1:.4}, {q3:.4}] {unit}");
            rows.push(format!(
                "\"{name}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"unit\": \"{unit}\"}}",
                json_number(med),
                json_number(q1),
                json_number(q3)
            ));
            meds.push((name, med));
        }
        summary.push(format!("\"{}\": {{{}}}", w.name(), rows.join(", ")));
        medians.push((w, meds));
    }

    let summary_path = output_dir().join("summary.json");
    let doc = format!(
        "{{\"seed\": {}, \"runs\": {}, \"seconds\": {}, \"trace\": {}, \"workloads\": {{{}}}}}\n",
        args.seed,
        args.runs,
        args.seconds,
        args.trace,
        summary.join(", ")
    );
    if let Err(e) =
        std::fs::create_dir_all(output_dir()).and_then(|()| std::fs::write(&summary_path, doc))
    {
        failures.push(format!("cannot write {}: {e}", summary_path.display()));
    } else {
        println!("summary: {}", summary_path.display());
    }

    if let Some(baseline) = &baseline {
        if let Err(e) = check(&medians, baseline, &mut failures) {
            failures.push(e);
        }
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The committed baseline, provided its runs were `seconds` long: the
/// medians of runs of another length are not comparable with it.
fn read_baseline(seconds: f64) -> Result<Value, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline.json");
    let baseline = read_json(&path)?;
    match baseline.get("seconds").and_then(Value::as_f64) {
        Some(s) if s == seconds => Ok(baseline),
        other => Err(format!(
            "--check needs runs as long as the baseline's ({other:?} s), not {seconds} s"
        )),
    }
}

/// Compares medians with `baseline` under BENCHMARK.json's bounds; each
/// regression is pushed onto `failures`.
fn check(
    medians: &[(Workload, Vec<(String, f64)>)],
    baseline: &Value,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = read_json(&root.join("../BENCHMARK.json"))?;
    for (w, meds) in medians {
        let Some(base) = baseline.get("workloads").and_then(|b| b.get(w.name())) else {
            return Err(format!("baseline.json has no `{}`", w.name()));
        };
        for (name, better, bound) in bounds(&manifest) {
            let Some(&(_, now)) = meds.iter().find(|(n, _)| *n == name) else {
                failures.push(format!("{} {name}: not measured", w.name()));
                continue;
            };
            let Some(then) = base
                .get(&name)
                .and_then(|m| m.get("median"))
                .and_then(Value::as_f64)
            else {
                return Err(format!("baseline.json lacks {} {name}", w.name()));
            };
            let worse_by = if better == "higher" {
                (then - now) / then
            } else {
                (now - then) / then
            };
            let verdict = if worse_by > bound { "REGRESSION" } else { "ok" };
            println!(
                "check {:<14} {name:<16} baseline {then:>12.4} now {now:>12.4} (worse by {:+.1}%, bound {:.1}%) {verdict}",
                w.name(),
                100.0 * worse_by,
                100.0 * bound
            );
            if worse_by > bound {
                failures.push(format!(
                    "{} {name} regressed by {:.1}%",
                    w.name(),
                    100.0 * worse_by
                ));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("service-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) if args.runs == 1 && !args.check => run_here(
            w,
            &Options {
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
            },
        ),
        _ => orchestrate(&args),
    }
}
