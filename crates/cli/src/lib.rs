//! Implementation of the `troyhls` command-line tool.
//!
//! The binary is a thin wrapper around [`run`], which parses arguments,
//! executes the requested action and writes the report to the supplied
//! writer — keeping the whole tool unit-testable without spawning
//! processes.
//!
//! ```text
//! troyhls-cli list
//! troyhls-cli show <benchmark|file.dfg>
//! troyhls-cli synth <benchmark|file.dfg> [options]
//! troyhls-cli batch [table3|table4|all] [options]
//! troyhls-cli lint <benchmark|file.dfg> [options]
//! troyhls-cli profile <benchmark|file.dfg> [--samples N] [--distance D]
//! troyhls-cli serve [options]
//! troyhls-cli campaign [options]
//!
//! synth options:
//!   --mode detection|recovery     protection level   (default recovery)
//!   --catalog table1|paper8       vendor library     (default paper8)
//!   --lambda-det N                detection window   (default: critical path)
//!   --lambda-rec N                recovery window    (default: critical path)
//!   --area N                      area cap           (default: unlimited)
//!   --solver exact|greedy|ilp|annealing              (default exact)
//!   --cache-dir DIR               content-addressed result cache on disk
//!   --time-limit SECS             solve budget       (default 60)
//!   --chart --dot --markdown --verilog --vcd         extra report sections
//!   --lint                        append the full diagnostics report
//!   --prove                       run the security prover over the result and
//!                                 append its machine-checked certificate (no
//!                                 single vendor, no colluding pair defeats the
//!                                 comparator on any output cone)
//!
//! synth resilience options (any of them engages the supervisor, which
//! runs the degradation ladder exact → annealing → greedy with
//! per-rung deadlines, retry/backoff and panic isolation; incompatible
//! with --solver and --cache-dir):
//!   --deadline DUR                total wall-clock budget, e.g. 2s, 500ms
//!   --max-retries N               retries per rung for transient faults
//!   --no-degrade                  fail instead of descending the ladder
//!   --chaos-seed N                deterministic fault injection (testing);
//!                                 TROY_CHAOS=N in the environment does the
//!                                 same for supervised runs
//!
//! batch options (regenerates the paper's experiment grid concurrently):
//!   table3|table4|all             which grid         (default all)
//!   --jobs N                      pool workers       (default: TROY_JOBS/cores)
//!   --cache-dir DIR               content-addressed result cache on disk
//!   --time-limit SECS             per-row budget     (default 60)
//!   --bench-json FILE             also time a sequential pass and write a
//!                                 speedup record (CI artifact)
//!
//! serve options (runs the hardened synthesis daemon from `troy-service`
//! until a `shutdown` request drains it; the protocol is one JSON request
//! per line, one response line per request — see the crate docs):
//!   --addr HOST:PORT              bind address       (default 127.0.0.1:0)
//!   --addr-file PATH              write the bound address to PATH once
//!                                 listening (useful with port 0)
//!   --max-inflight N              concurrent syntheses (default 4)
//!   --queue-depth N               bounded wait queue   (default 8)
//!   --default-deadline DUR        per-request budget when the request
//!                                 carries none        (default 30s)
//!   --drain-deadline DUR          shutdown grace for in-flight work
//!                                 (default 5s)
//!   --frame-deadline DUR          slowloris bound per frame (default 2s)
//!   --cache-dir DIR               on-disk result cache (default: memory)
//!   --chaos-seed N                supervisor fault injection (testing);
//!                                 TROY_CHAOS=N does the same
//!
//! cluster options (runs the sharded multi-daemon synthesis cluster from
//! `troy-cluster`: a router speaking the daemon protocol in front of N
//! worker daemons, with a shared cache tier, health-checked breakers and
//! failover re-dispatch; a `shutdown` request drains it):
//!   --workers N                   worker daemons      (default 2)
//!   --addr HOST:PORT              router bind address (default 127.0.0.1:0)
//!   --addr-file PATH              write the bound address to PATH once
//!                                 listening (atomic; removed on drain)
//!   --seed N                      consistent-hash ring seed (decimal or
//!                                 0x hex) — fixes shard placement
//!   --max-inflight N              per-worker concurrent syntheses (default 4)
//!   --queue-depth N               per-worker wait queue        (default 8)
//!   --default-deadline DUR        per-request budget when the request
//!                                 carries none        (default 30s)
//!   --drain-deadline DUR          shutdown grace for in-flight work
//!                                 (default 5s)
//!   --probe-depth N               peer cache probes per request (default 2)
//!   --respawn                     revive dead workers under a new
//!                                 generation (supervisor; default off)
//!   --max-respawns N              per-slot respawn budget      (default 8)
//!   --replication N               copy fresh results to the next N-1 ring
//!                                 successors; 1 disables      (default 2)
//!   --journal-dir PATH            durable dispatch journal: accepted
//!                                 requests replay after a router restart
//!   --chaos-seed N                router dispatch fault injection
//!                                 (testing); TROY_CHAOS=N does the same
//!
//! campaign options (runs a seeded Trojan-injection campaign grid: a
//! stratified corpus — rarity × payload × coalition × trigger shape plus a
//! clean control — planted into every synthesized design and driven over
//! the worker pool; exits 1 when a corrupting activation escapes detection
//! in the hard-guarantee slice or the clean control reports any activity,
//! printing replayable (seed, cell-id) witnesses):
//!   --seed N                      master seed (decimal or 0x hex;
//!                                 default 0xDAC14) — the whole report is
//!                                 a pure function of it
//!   --cells N                     deterministic cap on grid cells
//!   --steps N                     mission steps per cell (default 16)
//!   --traces N                    input traces per (design, trojan)
//!   --jobs N                      pool workers    (default: TROY_JOBS/cores)
//!   --benchmarks a,b,c            built-in benchmarks to synthesize
//!                                 (default polynom,diff2)
//!   --mode detection|recovery|both    design modes   (default both)
//!   --via-daemon                  additionally route one synth request per
//!                                 cell through a live in-process
//!                                 troy-service daemon over TCP and
//!                                 cross-check status/cost/cache coherence
//!   --json                        emit the full CampaignReport as JSON
//!                                 (per-cell rows incl. latency_us)
//!
//! lint options (problem flags as for synth, plus):
//!   --solver NAME                 synthesize first, then lint the binding;
//!                                 without it only pre-solve analysis runs
//!   --prove                       also run the security prover pass
//!                                 (TQ004-TQ007); with a binding and a clean
//!                                 report, text output ends with the security
//!                                 certificate
//!   --format text|json|sarif      output format      (default text)
//!   --min-severity note|warning|error                (default note)
//!   --allow CODE                  suppress a diagnostic code (repeatable)
//!   --deny warnings               warnings make the run fail
//! ```
//!
//! Exit codes: `0` success, `1` blocking diagnostics from `lint`, `2`
//! usage/input/synthesis errors, `3` a supervised `synth` returned a
//! *degraded* result (relaxed constraints, the grace pass, or a design
//! only a heuristic rung found — see the report for details).
//!
//! `synth` checks every solver result through the same `troy-analysis`
//! engine `lint` uses, so the two paths cannot report differently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use troy_analysis::{AnalysisOptions, Analyzer, Code, Diagnostic, FixIt, Severity};
use troy_bench::{format_table, harness_options, run_rows, table3_specs, table4_specs};
use troy_dfg::{parse_dfg, Dfg};
use troy_portfolio::{cache_key, default_jobs, Backend, BatchConfig, PortfolioResult, ResultCache};
use troy_resilience::{
    parse_duration, supervise, Chaos, Supervised, SupervisorConfig, CHAOS_PANIC_MARKER,
};
use troy_sim::{run_grid, CampaignReport, DesignUnderTest, GridConfig, PayloadKind};
use troyhls::{
    emit_verilog, implementation_dot, markdown_summary, schedule_chart, AnnealingSolver, Catalog,
    ExactSolver, GreedySolver, IlpSolver, Implementation, Mode, SolveOptions, SynthesisProblem,
    Synthesizer,
};

/// Errors surfaced to the CLI user (exit code 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Runs the CLI with `args` (excluding the program name); human-readable
/// output is appended to `out`.
///
/// Returns the process exit code: `0` on success, `1` when `lint` found
/// blocking diagnostics, `3` when a supervised `synth` returned a
/// degraded result.
///
/// # Errors
///
/// Returns a [`CliError`] describing bad usage, unreadable inputs or an
/// infeasible/failed synthesis (exit code `2`).
pub fn run(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("list") => {
            let _ = writeln!(out, "built-in benchmarks:");
            for name in [
                "polynom",
                "diff2",
                "dtmf",
                "mof2",
                "ellipticicass",
                "fir16",
                "ewf34",
                "ar_filter",
                "fft8",
                "dct8",
            ] {
                let g = troy_dfg::benchmarks::by_name(name)
                    .ok_or_else(|| err(format!("internal: built-in benchmark `{name}` missing")))?;
                let _ = writeln!(
                    out,
                    "  {name:<14} {:>3} ops, depth {}",
                    g.len(),
                    g.critical_path_len()
                );
            }
            Ok(0)
        }
        Some("show") => {
            let target = it.next().ok_or_else(|| err("show: missing <dfg>"))?;
            let g = load_dfg(target)?;
            let _ = writeln!(out, "{g}");
            Ok(0)
        }
        Some("profile") => {
            let target = it.next().ok_or_else(|| err("profile: missing <dfg>"))?;
            let rest: Vec<String> = it.cloned().collect();
            profile(target, &rest, out).map(|()| 0)
        }
        Some("synth") => {
            let target = it.next().ok_or_else(|| err("synth: missing <dfg>"))?;
            let rest: Vec<String> = it.cloned().collect();
            synth(target, &rest, out)
        }
        Some("batch") => {
            let rest: Vec<String> = it.cloned().collect();
            batch(&rest, out).map(|()| 0)
        }
        Some("lint") => {
            let target = it.next().ok_or_else(|| err("lint: missing <dfg>"))?;
            let rest: Vec<String> = it.cloned().collect();
            lint_cmd(target, &rest, out)
        }
        Some("serve") => {
            let rest: Vec<String> = it.cloned().collect();
            serve(&rest, out).map(|()| 0)
        }
        Some("cluster") => {
            let rest: Vec<String> = it.cloned().collect();
            cluster(&rest, out).map(|()| 0)
        }
        Some("campaign") => {
            let rest: Vec<String> = it.cloned().collect();
            campaign(&rest, out)
        }
        Some(other) => Err(err(format!(
            "unknown command `{other}`; expected list|show|synth|batch|lint|profile|serve|cluster|campaign"
        ))),
        None => Err(err(
            "usage: troyhls <list|show|synth|batch|lint|profile|serve|cluster|campaign> ...",
        )),
    }
}

fn load_dfg(target: &str) -> Result<Dfg, CliError> {
    if let Some(g) = troy_dfg::benchmarks::by_name(target) {
        return Ok(g);
    }
    let text =
        std::fs::read_to_string(target).map_err(|e| err(format!("cannot read `{target}`: {e}")))?;
    parse_dfg(&text).map_err(|e| err(format!("cannot parse `{target}`: {e}")))
}

fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, CliError> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| err(format!("{flag}: missing value")))
}

fn profile(target: &str, args: &[String], out: &mut String) -> Result<(), CliError> {
    let g = load_dfg(target)?;
    let mut cfg = troy_sim::ProfileConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--samples" => {
                cfg.samples = take_value(args, &mut i, "--samples")?
                    .parse()
                    .map_err(|_| err("--samples: expected a number"))?;
            }
            "--distance" => {
                cfg.max_distance = take_value(args, &mut i, "--distance")?
                    .parse()
                    .map_err(|_| err("--distance: expected a number"))?;
            }
            other => return Err(err(format!("profile: unknown flag `{other}`"))),
        }
        i += 1;
    }
    let pairs = troy_sim::profile_related_pairs(&g, &cfg);
    if pairs.is_empty() {
        let _ = writeln!(
            out,
            "no closely-related pairs under uniform random stimulus \
             ({} samples, distance {})",
            cfg.samples, cfg.max_distance
        );
    } else {
        let _ = writeln!(out, "closely-related pairs (rule 2 for fast recovery):");
        for (a, b) in pairs {
            let _ = writeln!(out, "  {a} ~ {b}");
        }
    }
    Ok(())
}

/// Flags shared by `synth` and `lint` that describe the problem instance.
struct ProblemFlags {
    mode: Mode,
    catalog: Catalog,
    lambda_det: Option<usize>,
    lambda_rec: Option<usize>,
    area: u64,
}

impl ProblemFlags {
    fn new() -> Self {
        ProblemFlags {
            mode: Mode::DetectionRecovery,
            catalog: Catalog::paper8(),
            lambda_det: None,
            lambda_rec: None,
            area: u64::MAX,
        }
    }

    /// Consumes one flag if it belongs to this group; `Ok(false)` means
    /// the caller should try its own flags.
    fn try_consume(&mut self, args: &[String], i: &mut usize) -> Result<bool, CliError> {
        match args[*i].as_str() {
            "--mode" => {
                self.mode = match take_value(args, i, "--mode")? {
                    "detection" => Mode::DetectionOnly,
                    "recovery" => Mode::DetectionRecovery,
                    other => return Err(err(format!("--mode: unknown `{other}`"))),
                };
            }
            "--catalog" => {
                self.catalog = match take_value(args, i, "--catalog")? {
                    "table1" => Catalog::table1(),
                    "paper8" => Catalog::paper8(),
                    other => return Err(err(format!("--catalog: unknown `{other}`"))),
                };
            }
            "--lambda-det" => {
                self.lambda_det = Some(
                    take_value(args, i, "--lambda-det")?
                        .parse()
                        .map_err(|_| err("--lambda-det: expected a number"))?,
                );
            }
            "--lambda-rec" => {
                self.lambda_rec = Some(
                    take_value(args, i, "--lambda-rec")?
                        .parse()
                        .map_err(|_| err("--lambda-rec: expected a number"))?,
                );
            }
            "--area" => {
                self.area = take_value(args, i, "--area")?
                    .parse()
                    .map_err(|_| err("--area: expected a number"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn build(self, g: Dfg) -> Result<SynthesisProblem, CliError> {
        let mut builder = SynthesisProblem::builder(g, self.catalog)
            .mode(self.mode)
            .area_limit(self.area);
        if let Some(l) = self.lambda_det {
            builder = builder.detection_latency(l);
        }
        if let Some(l) = self.lambda_rec {
            builder = builder.recovery_latency(l);
        }
        builder.build().map_err(|e| err(format!("{e}")))
    }
}

fn make_solver(name: &str) -> Result<Box<dyn Synthesizer>, CliError> {
    match name {
        "exact" => Ok(Box::new(ExactSolver::new())),
        "greedy" => Ok(Box::new(GreedySolver::new())),
        "ilp" => Ok(Box::new(IlpSolver::new())),
        "annealing" => Ok(Box::new(AnnealingSolver::new())),
        other => Err(err(format!("--solver: unknown `{other}`"))),
    }
}

fn parse_jobs(v: &str) -> Result<usize, CliError> {
    v.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| err("--jobs: expected a positive number"))
}

fn open_cache(dir: Option<&str>) -> Result<Option<ResultCache>, CliError> {
    match dir {
        None => Ok(None),
        Some(d) => ResultCache::on_disk(d)
            .map(Some)
            .map_err(|e| err(format!("--cache-dir: cannot open `{d}`: {e}"))),
    }
}

/// `batch`: regenerate the paper's experiment grids over the worker pool.
#[allow(clippy::too_many_lines)]
fn batch(args: &[String], out: &mut String) -> Result<(), CliError> {
    let mut which = "all".to_owned();
    let mut jobs: Option<usize> = None;
    let mut cache_dir: Option<String> = None;
    let mut time_limit = 60u64;
    let mut bench_json: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "table3" | "table4" | "all" => args[i].clone_into(&mut which),
            "--jobs" => {
                jobs = Some(parse_jobs(take_value(args, &mut i, "--jobs")?)?);
            }
            "--cache-dir" => {
                cache_dir = Some(take_value(args, &mut i, "--cache-dir")?.to_owned());
            }
            "--time-limit" => {
                time_limit = take_value(args, &mut i, "--time-limit")?
                    .parse()
                    .map_err(|_| err("--time-limit: expected seconds"))?;
            }
            "--bench-json" => {
                bench_json = Some(take_value(args, &mut i, "--bench-json")?.to_owned());
            }
            other => {
                return Err(err(format!(
                    "batch: unknown argument `{other}`; expected table3|table4|all or a flag"
                )))
            }
        }
        i += 1;
    }

    let mut grids = Vec::new();
    if matches!(which.as_str(), "table3" | "all") {
        grids.push((
            "table3",
            "Table 3 — designs with detection only (8-vendor catalog)",
            table3_specs(),
        ));
    }
    if matches!(which.as_str(), "table4" | "all") {
        grids.push((
            "table4",
            "Table 4 — designs with detection and recovery (8-vendor catalog)",
            table4_specs(),
        ));
    }

    let config = BatchConfig {
        jobs: jobs.unwrap_or_else(default_jobs),
        options: SolveOptions {
            time_limit: Duration::from_secs(time_limit),
            ..harness_options()
        },
        ..BatchConfig::default()
    };
    let cache = open_cache(cache_dir.as_deref())?;

    // (short name, rows, sequential seconds, batch seconds) per grid; the
    // sequential reference pass only runs when a bench record was asked
    // for, and deliberately skips the cache so it times real solves.
    let mut measured = Vec::new();
    for (short, title, specs) in &grids {
        let sequential = if bench_json.is_some() {
            let reference = BatchConfig {
                jobs: 1,
                ..config.clone()
            };
            let t0 = Instant::now();
            let _ = run_rows(specs, &reference, None);
            Some(t0.elapsed().as_secs_f64())
        } else {
            None
        };
        let t0 = Instant::now();
        let results = run_rows(specs, &config, cache.as_ref());
        let elapsed = t0.elapsed().as_secs_f64();
        let _ = writeln!(out, "{}", format_table(title, &results));
        let _ = writeln!(
            out,
            "{short}: {} rows in {elapsed:.2}s (jobs {}, engine {})\n",
            specs.len(),
            config.jobs,
            config.backend.name(),
        );
        measured.push((*short, specs.len(), sequential, elapsed));
    }

    if let Some(path) = &bench_json {
        let json = bench_record(&config, &measured);
        std::fs::write(path, json).map_err(|e| err(format!("--bench-json: `{path}`: {e}")))?;
        let _ = writeln!(out, "wrote bench record to {path}");
    }
    Ok(())
}

/// Renders the `--bench-json` speedup record (hand-rolled: the workspace
/// has no serialization dependency, see `troy-portfolio`'s cache layer).
fn bench_record(config: &BatchConfig, measured: &[(&str, usize, Option<f64>, f64)]) -> String {
    let speedup = |seq: f64, par: f64| if par > 0.0 { seq / par } else { 0.0 };
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"jobs\": {},", config.jobs);
    let _ = writeln!(json, "  \"engine\": \"{}\",", config.backend.name());
    let _ = writeln!(json, "  \"tables\": [");
    for (i, (short, rows, sequential, parallel)) in measured.iter().enumerate() {
        let seq = sequential.unwrap_or(0.0);
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"table\": \"{short}\",");
        let _ = writeln!(json, "      \"rows\": {rows},");
        let _ = writeln!(json, "      \"sequential_seconds\": {seq:.6},");
        let _ = writeln!(json, "      \"parallel_seconds\": {parallel:.6},");
        let _ = writeln!(json, "      \"speedup\": {:.3}", speedup(seq, *parallel));
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < measured.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let total_seq: f64 = measured.iter().filter_map(|m| m.2).sum();
    let total_par: f64 = measured.iter().map(|m| m.3).sum();
    let _ = writeln!(json, "  \"total_sequential_seconds\": {total_seq:.6},");
    let _ = writeln!(json, "  \"total_parallel_seconds\": {total_par:.6},");
    let _ = writeln!(json, "  \"speedup\": {:.3}", speedup(total_seq, total_par));
    json.push_str("}\n");
    json
}

/// Parses a duration flag, rejecting zero: a zero budget is always a
/// typo, and downstream it would reject every request it governs.
fn parse_positive_duration(flag: &str, v: &str) -> Result<Duration, CliError> {
    let d = parse_duration(v)
        .ok_or_else(|| err(format!("{flag}: cannot parse `{v}` (try 2s, 500ms, 1m)")))?;
    if d.is_zero() {
        return Err(err(format!("{flag}: must be positive, got `{v}`")));
    }
    Ok(d)
}

/// `serve`: run the hardened synthesis daemon until a `shutdown` request
/// drains it, then report the serve-path counters.
#[allow(clippy::too_many_lines)]
fn serve(args: &[String], out: &mut String) -> Result<(), CliError> {
    let mut config = troy_service::ServiceConfig::default();
    let mut addr_file: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                take_value(args, &mut i, "--addr")?.clone_into(&mut config.addr);
            }
            "--addr-file" => {
                addr_file = Some(take_value(args, &mut i, "--addr-file")?.to_owned());
            }
            "--max-inflight" => {
                config.max_inflight = take_value(args, &mut i, "--max-inflight")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| err("--max-inflight: expected a positive number"))?;
            }
            "--queue-depth" => {
                config.queue_depth = take_value(args, &mut i, "--queue-depth")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| err("--queue-depth: expected a positive number"))?;
            }
            "--default-deadline" => {
                let v = take_value(args, &mut i, "--default-deadline")?;
                config.default_deadline = parse_positive_duration("--default-deadline", v)?;
            }
            "--drain-deadline" => {
                let v = take_value(args, &mut i, "--drain-deadline")?;
                config.drain_deadline = parse_positive_duration("--drain-deadline", v)?;
            }
            "--frame-deadline" => {
                let v = take_value(args, &mut i, "--frame-deadline")?;
                config.frame_deadline = parse_positive_duration("--frame-deadline", v)?;
            }
            "--cache-dir" => {
                config.cache_dir = Some(take_value(args, &mut i, "--cache-dir")?.into());
            }
            "--chaos-seed" => {
                chaos_seed = Some(
                    take_value(args, &mut i, "--chaos-seed")?
                        .parse()
                        .map_err(|_| err("--chaos-seed: expected a u64 seed"))?,
                );
            }
            other => return Err(err(format!("serve: unknown flag `{other}`"))),
        }
        i += 1;
    }

    config.chaos = chaos_seed.map_or_else(Chaos::from_env, Chaos::seeded);
    if config.chaos.is_enabled() {
        quiet_injected_panics();
    }

    let service = troy_service::Service::start(config).map_err(|e| err(format!("serve: {e}")))?;
    let addr = service.local_addr();
    if let Some(path) = &addr_file {
        write_addr_file(path, addr)?;
    }
    // `out` is only flushed after `run` returns, so the bound address
    // goes to stderr (and the addr file) for anyone waiting on startup.
    eprintln!("troyhls serving on {addr}; send {{\"id\":\"bye\",\"cmd\":\"shutdown\"}} to drain");

    let snap = service.join();
    if let Some(path) = &addr_file {
        remove_addr_file(path);
    }
    let _ = writeln!(out, "serve: drained cleanly on {addr}");
    let _ = writeln!(
        out,
        "  connections {}  accepted {}  ok {}  degraded {}  failed {}",
        snap.connections, snap.accepted, snap.completed_ok, snap.completed_degraded, snap.failed,
    );
    let _ = writeln!(
        out,
        "  shed: overload {}  circuit {}  malformed {}  panics {}  cache hits {}",
        snap.shed_overload, snap.shed_circuit, snap.malformed, snap.panics, snap.cache_hits,
    );
    Ok(())
}

/// Writes the bound address to `path` atomically: the whole line appears
/// under the final name via a rename, never a torn partial write, so a
/// supervisor polling the file cannot read half an address.
fn write_addr_file(path: &str, addr: std::net::SocketAddr) -> Result<(), CliError> {
    use std::io::Write as _;
    let target = std::path::Path::new(path);
    let tmp = target.with_extension(format!("tmp.{}", std::process::id()));
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(format!("{addr}\n").as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, target)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write.map_err(|e| err(format!("--addr-file: `{path}`: {e}")))
}

/// Removes the addr file on drain so stale addresses never linger; a
/// daemon that is gone must not look reachable.
fn remove_addr_file(path: &str) {
    let _ = std::fs::remove_file(path);
}

/// `cluster`: run the sharded multi-daemon synthesis cluster until a
/// `shutdown` request drains it, then report the router counters.
#[allow(clippy::too_many_lines)]
fn cluster(args: &[String], out: &mut String) -> Result<(), CliError> {
    let mut config = troy_cluster::ClusterConfig::default();
    let mut addr_file: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                config.workers = parse_count("--workers", take_value(args, &mut i, "--workers")?)?;
            }
            "--addr" => {
                take_value(args, &mut i, "--addr")?.clone_into(&mut config.addr);
            }
            "--addr-file" => {
                addr_file = Some(take_value(args, &mut i, "--addr-file")?.to_owned());
            }
            "--seed" => {
                config.ring_seed = parse_seed(take_value(args, &mut i, "--seed")?)?;
            }
            "--max-inflight" => {
                config.max_inflight = parse_count(
                    "--max-inflight",
                    take_value(args, &mut i, "--max-inflight")?,
                )?;
            }
            "--queue-depth" => {
                config.queue_depth =
                    parse_count("--queue-depth", take_value(args, &mut i, "--queue-depth")?)?;
            }
            "--default-deadline" => {
                let v = take_value(args, &mut i, "--default-deadline")?;
                config.default_deadline = parse_positive_duration("--default-deadline", v)?;
            }
            "--drain-deadline" => {
                let v = take_value(args, &mut i, "--drain-deadline")?;
                config.drain_deadline = parse_positive_duration("--drain-deadline", v)?;
            }
            "--probe-depth" => {
                config.probe_depth =
                    parse_count("--probe-depth", take_value(args, &mut i, "--probe-depth")?)?;
            }
            "--chaos-seed" => {
                chaos_seed = Some(
                    take_value(args, &mut i, "--chaos-seed")?
                        .parse()
                        .map_err(|_| err("--chaos-seed: expected a u64 seed"))?,
                );
            }
            "--respawn" => {
                config.respawn = true;
            }
            "--max-respawns" => {
                config.max_respawns = take_value(args, &mut i, "--max-respawns")?
                    .parse()
                    .map_err(|_| err("--max-respawns: expected a u32 budget"))?;
            }
            "--replication" => {
                config.replication =
                    parse_count("--replication", take_value(args, &mut i, "--replication")?)?;
            }
            "--journal-dir" => {
                config.journal_dir = Some(std::path::PathBuf::from(take_value(
                    args,
                    &mut i,
                    "--journal-dir",
                )?));
            }
            other => return Err(err(format!("cluster: unknown flag `{other}`"))),
        }
        i += 1;
    }

    config.chaos = chaos_seed.map_or_else(Chaos::from_env, Chaos::seeded);
    if config.chaos.is_enabled() {
        quiet_injected_panics();
    }

    let workers = config.workers;
    let cluster = troy_cluster::Cluster::start(config).map_err(|e| err(format!("cluster: {e}")))?;
    let addr = cluster.local_addr();
    if let Some(path) = &addr_file {
        write_addr_file(path, addr)?;
    }
    eprintln!(
        "troyhls cluster routing on {addr} across {workers} workers; \
         send {{\"id\":\"bye\",\"cmd\":\"shutdown\"}} to drain"
    );

    let snap = cluster.join();
    if let Some(path) = &addr_file {
        remove_addr_file(path);
    }
    let _ = writeln!(out, "cluster: drained cleanly on {addr}");
    let _ = writeln!(
        out,
        "  connections {}  requests {}  ok {}  error {}  relayed rejects {}  sheds {}",
        snap.connections,
        snap.requests,
        snap.routed_ok,
        snap.routed_error,
        snap.relayed_rejects,
        snap.sheds,
    );
    let _ = writeln!(
        out,
        "  probes {} (hits {})  failovers {}  malformed {}  chaos: kill {} part {} torn {} stall {}",
        snap.probes,
        snap.probe_hits,
        snap.failovers,
        snap.malformed,
        snap.chaos_kills,
        snap.chaos_partitions,
        snap.chaos_torn,
        snap.chaos_stalls,
    );
    let _ = writeln!(
        out,
        "  selfheal: respawns {}  replicas {}  repairs {}  warmed {}  journal {} (replayed {})",
        snap.respawns,
        snap.replicas_put,
        snap.read_repairs,
        snap.warmed,
        snap.journal_appends,
        snap.journal_replays,
    );
    Ok(())
}

/// Parses a u64 seed written in decimal or `0x` hex.
fn parse_seed(v: &str) -> Result<u64, CliError> {
    v.strip_prefix("0x")
        .or_else(|| v.strip_prefix("0X"))
        .map_or_else(|| v.parse(), |hex| u64::from_str_radix(hex, 16))
        .map_err(|_| {
            err(format!(
                "--seed: expected a u64 (decimal or 0x hex), got `{v}`"
            ))
        })
}

/// Parses a strictly positive count flag.
fn parse_count(flag: &str, v: &str) -> Result<usize, CliError> {
    v.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| err(format!("{flag}: expected a positive number")))
}

/// `campaign`: run the seeded Trojan-injection campaign grid and gate the
/// exit code on the hard-guarantee slice (every corrupting memory-less
/// activation in a `DetectionRecovery` design must be detected) and the
/// clean negative control (a Trojan-free cell must report zero activity).
#[allow(clippy::too_many_lines)]
fn campaign(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut config = GridConfig::default();
    let mut benchmarks = vec!["polynom".to_owned(), "diff2".to_owned()];
    let mut modes = vec![Mode::DetectionOnly, Mode::DetectionRecovery];
    let mut jobs = default_jobs();
    let mut via_daemon = false;
    let mut json = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => config.seed = parse_seed(take_value(args, &mut i, "--seed")?)?,
            "--cells" => {
                config.max_cells = Some(parse_count(
                    "--cells",
                    take_value(args, &mut i, "--cells")?,
                )?);
            }
            "--steps" => {
                config.steps = parse_count("--steps", take_value(args, &mut i, "--steps")?)?;
            }
            "--traces" => {
                config.traces = parse_count("--traces", take_value(args, &mut i, "--traces")?)?;
            }
            "--jobs" => jobs = parse_jobs(take_value(args, &mut i, "--jobs")?)?,
            "--benchmarks" => {
                benchmarks = take_value(args, &mut i, "--benchmarks")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if benchmarks.is_empty() {
                    return Err(err(
                        "--benchmarks: expected a comma-separated list of names",
                    ));
                }
            }
            "--mode" => {
                modes = match take_value(args, &mut i, "--mode")? {
                    "detection" => vec![Mode::DetectionOnly],
                    "recovery" => vec![Mode::DetectionRecovery],
                    "both" => vec![Mode::DetectionOnly, Mode::DetectionRecovery],
                    other => {
                        return Err(err(format!(
                            "--mode: expected detection|recovery|both, got `{other}`"
                        )))
                    }
                };
            }
            "--via-daemon" => via_daemon = true,
            "--json" => json = true,
            other => return Err(err(format!("campaign: unknown flag `{other}`"))),
        }
        i += 1;
    }

    let solver = ExactSolver::new();
    let options = SolveOptions::quick();
    let mut designs = Vec::with_capacity(benchmarks.len() * modes.len());
    for name in &benchmarks {
        for &mode in &modes {
            designs.push(
                DesignUnderTest::synthesize(name, mode, &solver, &options)
                    .map_err(|e| err(format!("campaign: {e}")))?,
            );
        }
    }

    let report = run_grid(&designs, &config, jobs);

    if via_daemon {
        campaign_via_daemon(&designs, &report, out)?;
    }

    // The clean negative control: any activity in a Trojan-free cell means
    // the NC/RC comparator itself is unsound.
    let clean_violations: Vec<String> = report
        .cells
        .iter()
        .filter(|c| c.spec.kind == PayloadKind::Clean)
        .filter(|c| {
            c.activations
                + c.corrupted
                + c.detected
                + c.missed
                + c.false_alarms
                + c.recovered
                + c.recovery_failed
                > 0
        })
        .map(|c| {
            format!(
                "FAIL: clean control cell {} reported activity \
                 (activations {}, false alarms {})",
                c.id, c.activations, c.false_alarms
            )
        })
        .collect();
    let escapes = report.guarantee_escapes();

    if json {
        out.push_str(&report.to_json(true));
        for v in &clean_violations {
            eprintln!("{v}");
        }
        for e in &escapes {
            eprintln!(
                "FAIL: escape in guarantee slice: cell={} step={} \
                 (replay: troyhls campaign --seed {:#x})",
                e.cell, e.step, e.seed
            );
        }
    } else {
        out.push_str(&report.summary_text());
        // Worst missed cells outside the guarantee slice — data, not
        // failure: the paper's rare-trigger assumption excludes them.
        let mut missed: Vec<_> = report.cells.iter().filter(|c| c.missed > 0).collect();
        missed.sort_by(|a, b| b.missed.cmp(&a.missed).then_with(|| a.id.cmp(&b.id)));
        if !missed.is_empty() {
            let _ = writeln!(
                out,
                "  {} cells with missed corrupting activations (worst first):",
                missed.len()
            );
            for c in missed.iter().take(8) {
                let _ = writeln!(out, "    {}  missed {}/{}", c.id, c.missed, c.corrupted);
            }
        }
        for v in &clean_violations {
            let _ = writeln!(out, "{v}");
        }
        for e in &escapes {
            let _ = writeln!(
                out,
                "FAIL: escape in guarantee slice: cell={} step={} \
                 (replay: troyhls campaign --seed {:#x})",
                e.cell, e.step, e.seed
            );
        }
        if clean_violations.is_empty() && escapes.is_empty() {
            let _ = writeln!(
                out,
                "campaign gates passed: guarantee slice clean, clean control silent"
            );
        }
    }

    Ok(i32::from(
        !(clean_violations.is_empty() && escapes.is_empty()),
    ))
}

/// Cross-checks the campaign against a live daemon: starts an in-process
/// [`troy_service::Service`], routes one `synth` request per grid cell
/// through it over TCP in lockstep (the daemon's slowloris guard treats
/// frames buffered behind a long synthesis as a stalled peer, so requests
/// are not pipelined), and requires every response to land
/// `ok`/`degraded`, every `ok` response for the same (benchmark, mode) to
/// price identically, and the repeats to hit the daemon's result cache.
fn campaign_via_daemon(
    designs: &[DesignUnderTest],
    report: &CampaignReport,
    out: &mut String,
) -> Result<(), CliError> {
    use std::io::Write as _;

    let service = troy_service::Service::start(troy_service::ServiceConfig::default())
        .map_err(|e| err(format!("campaign: daemon start: {e}")))?;
    let addr = service.local_addr();

    let result = daemon_roundtrips(designs, report, addr);
    // Always drain, even when the round trips failed mid-way.
    if let Ok(mut stream) = std::net::TcpStream::connect(addr) {
        let _ = writeln!(stream, "{{\"id\":\"drain\",\"cmd\":\"shutdown\"}}");
    }
    let snap = service.join();
    let ok = result?;

    if report.cells.len() > designs.len() && snap.cache_hits == 0 {
        return Err(err(
            "campaign: daemon served repeated problems without a single cache hit",
        ));
    }
    let _ = writeln!(
        out,
        "via-daemon: {ok} synth responses over {addr} ({} cache hits, {} degraded)",
        snap.cache_hits, snap.completed_degraded,
    );
    Ok(())
}

/// Sends one synth request per cell and validates the responses; returns
/// the number of accepted responses.
fn daemon_roundtrips(
    designs: &[DesignUnderTest],
    report: &CampaignReport,
    addr: std::net::SocketAddr,
) -> Result<usize, CliError> {
    use std::io::{BufRead as _, BufReader, Write as _};

    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| err(format!("campaign: connect {addr}: {e}")))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| err(format!("campaign: clone socket: {e}")))?,
    );
    let mut writer = stream
        .try_clone()
        .map_err(|e| err(format!("campaign: clone socket: {e}")))?;
    let mut costs: std::collections::HashMap<(String, &'static str), u64> =
        std::collections::HashMap::new();
    let mut ok = 0usize;
    for c in &report.cells {
        let d = designs
            .iter()
            .find(|d| d.name == c.benchmark && d.problem.mode() == c.mode)
            .ok_or_else(|| err("campaign: internal: cell without a matching design"))?;
        let mode = match c.mode {
            Mode::DetectionOnly => "detection",
            Mode::DetectionRecovery => "recovery",
        };
        writeln!(
            writer,
            "{{\"id\":\"{}\",\"cmd\":\"synth\",\"benchmark\":\"{}\",\"mode\":\"{mode}\",\
             \"catalog\":\"paper8\",\"lambda_det\":{},\"lambda_rec\":{},\"deadline_ms\":20000}}",
            c.id,
            c.benchmark,
            d.problem.detection_latency(),
            d.problem.recovery_latency(),
        )
        .map_err(|e| err(format!("campaign: send to daemon: {e}")))?;

        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| err(format!("campaign: read from daemon: {e}")))?;
        let reply = troy_service::Json::parse(&line).unwrap_or(troy_service::Json::Null);
        let field = |key| reply.get(key).and_then(troy_service::Json::as_str);
        let id = field("id").unwrap_or("<none>");
        if id != c.id {
            return Err(err(format!(
                "campaign: daemon answered out of order: expected `{}`, got `{id}`",
                c.id
            )));
        }
        let status = field("status").unwrap_or("<none>");
        if status != "ok" && status != "degraded" {
            return Err(err(format!(
                "campaign: daemon rejected cell `{}`: status `{status}`",
                c.id
            )));
        }
        if status == "ok" {
            let cost = reply
                .get("cost")
                .and_then(troy_service::Json::as_u64)
                .ok_or_else(|| {
                    err(format!(
                        "campaign: daemon response for `{}` lacks a cost",
                        c.id
                    ))
                })?;
            let key = (c.benchmark.clone(), troy_sim::mode_tag(c.mode));
            if let Some(&prior) = costs.get(&key) {
                if prior != cost {
                    return Err(err(format!(
                        "campaign: daemon priced {}/{} inconsistently: {prior} then {cost}",
                        c.benchmark,
                        troy_sim::mode_tag(c.mode),
                    )));
                }
            } else {
                costs.insert(key, cost);
            }
        }
        ok += 1;
    }
    Ok(ok)
}

/// Quietens the process panic hook for *injected* chaos panics (their
/// payloads carry [`CHAOS_PANIC_MARKER`]) while forwarding real ones —
/// a chaos run's stderr stays readable. Installed at most once.
fn quiet_injected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(CHAOS_PANIC_MARKER))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(CHAOS_PANIC_MARKER));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Translates a supervised run's degradation events into the stable
/// `TR0xx` diagnostic codes, so `--lint` reports them alongside the
/// design-rule findings.
fn resilience_diagnostics(sup: &Supervised) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Some(why) = sup.fallback() {
        out.push(
            Diagnostic::new(Code::DegradedBackend, why).with_fixit(FixIt::advice(
                "raise --deadline to give the primary solver room",
            )),
        );
    }
    if sup.relaxation > 0 {
        out.push(
            Diagnostic::new(
                Code::ConstraintRelaxed,
                format!(
                    "latency constraints were relaxed by {} cycle(s): the design meets \
                     λ_det={}, λ_rec={}, not the bounds as stated",
                    sup.relaxation,
                    sup.problem.detection_latency(),
                    sup.problem.recovery_latency(),
                ),
            )
            .with_fixit(FixIt::advice(
                "accept the relaxed latency or loosen the area/catalog constraints",
            )),
        );
    }
    for (backend, reason) in &sup.degradation.demoted {
        out.push(Diagnostic::new(
            Code::BackendFault,
            format!("back end `{backend}` faulted and was demoted: {reason}"),
        ));
    }
    let retries = sup.degradation.retries();
    if retries > 0 {
        out.push(Diagnostic::new(
            Code::TransientRetried,
            format!("{retries} transient fault(s) absorbed by retrying with backoff"),
        ));
    }
    out
}

#[allow(clippy::too_many_lines)]
fn synth(target: &str, args: &[String], out: &mut String) -> Result<i32, CliError> {
    let g = load_dfg(target)?;
    let mut flags = ProblemFlags::new();
    let mut solver_name: Option<String> = None;
    let mut time_limit = 60u64;
    let mut cache_dir: Option<String> = None;
    let mut deadline: Option<Duration> = None;
    let mut max_retries: Option<usize> = None;
    let mut no_degrade = false;
    let mut chaos_seed: Option<u64> = None;
    let (mut chart, mut dot, mut markdown, mut verilog, mut vcd, mut want_lint) =
        (false, false, false, false, false, false);
    let mut prove = false;

    let mut i = 0;
    while i < args.len() {
        if flags.try_consume(args, &mut i)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--solver" => {
                solver_name = Some(take_value(args, &mut i, "--solver")?.to_owned());
            }
            "--cache-dir" => {
                cache_dir = Some(take_value(args, &mut i, "--cache-dir")?.to_owned());
            }
            "--time-limit" => {
                time_limit = take_value(args, &mut i, "--time-limit")?
                    .parse()
                    .map_err(|_| err("--time-limit: expected seconds"))?;
            }
            "--deadline" => {
                let v = take_value(args, &mut i, "--deadline")?;
                deadline = Some(parse_positive_duration("--deadline", v)?);
            }
            "--max-retries" => {
                max_retries = Some(
                    take_value(args, &mut i, "--max-retries")?
                        .parse()
                        .map_err(|_| err("--max-retries: expected a number"))?,
                );
            }
            "--no-degrade" => no_degrade = true,
            "--chaos-seed" => {
                chaos_seed = Some(
                    take_value(args, &mut i, "--chaos-seed")?
                        .parse()
                        .map_err(|_| err("--chaos-seed: expected a u64 seed"))?,
                );
            }
            "--chart" => chart = true,
            "--dot" => dot = true,
            "--markdown" => markdown = true,
            "--verilog" => verilog = true,
            "--vcd" => vcd = true,
            "--lint" => want_lint = true,
            "--prove" => prove = true,
            other => return Err(err(format!("synth: unknown flag `{other}`"))),
        }
        i += 1;
    }

    let supervised_run =
        deadline.is_some() || max_retries.is_some() || no_degrade || chaos_seed.is_some();
    if supervised_run && (solver_name.is_some() || cache_dir.is_some()) {
        return Err(err(
            "resilience flags (--deadline/--max-retries/--no-degrade/--chaos-seed) pick \
             their own back ends and bypass the result cache; drop --solver and --cache-dir",
        ));
    }

    let mode = flags.mode;
    let problem = flags.build(g)?;

    let options = SolveOptions {
        time_limit: Duration::from_secs(time_limit),
        ..SolveOptions::default()
    };

    // (result, engine label, the problem the design actually satisfies,
    //  the supervision record when the supervisor ran)
    let (solved, engine_label, solved_problem, supervision): (
        PortfolioResult,
        String,
        SynthesisProblem,
        Option<Supervised>,
    ) = if supervised_run {
        let chaos = chaos_seed.map_or_else(Chaos::from_env, Chaos::seeded);
        if chaos.is_enabled() {
            quiet_injected_panics();
        }
        let config = SupervisorConfig {
            deadline: deadline.unwrap_or_else(|| Duration::from_secs(time_limit)),
            max_retries: max_retries.unwrap_or(2),
            degrade: !no_degrade,
            options: options.clone(),
            ..SupervisorConfig::default()
        };
        let sup = supervise(&problem, &config, &chaos).map_err(|e| {
            err(format!(
                "synthesis failed: {e}\ndegradation report:\n{}",
                e.degradation.summary().trim_end()
            ))
        })?;
        let solved = PortfolioResult::fresh(sup.backend, sup.synthesis.clone(), sup.elapsed);
        let label = format!("supervised[{}]", sup.backend);
        let solved_problem = sup.problem.clone();
        (solved, label, solved_problem, Some(sup))
    } else {
        let backend = match &solver_name {
            Some(name) => {
                Backend::parse(name).ok_or_else(|| err(format!("--solver: unknown `{name}`")))?
            }
            None => Backend::Exact,
        };
        let cache = open_cache(cache_dir.as_deref())?;
        let key = cache_key(&problem, backend.name(), &options);

        let solved = if let Some(hit) = cache.as_ref().and_then(|c| c.lookup(&key, &problem)) {
            hit
        } else {
            let t0 = Instant::now();
            let fresh = backend
                .solver()
                .synthesize(&problem, &options)
                .map(|s| PortfolioResult::fresh(backend, s, t0.elapsed()))
                .map_err(|e| err(format!("synthesis failed: {e}")))?;
            if let Some(cache) = &cache {
                cache.store(&key, &fresh);
            }
            fresh
        };
        (solved, backend.name().to_owned(), problem, None)
    };
    let problem = solved_problem;
    let result = &solved.synthesis;
    // Post-solve check through the same engine `lint` uses: a solver bug
    // surfaces as the full coded diagnostics report, not a bare assert.
    // Supervised runs are linted against the problem the design actually
    // satisfies (possibly latency-relaxed), so a legitimate relaxation is
    // reported as TR002, not a spurious scheduling error.
    let mut check = troy_analysis::lint(&problem, Some(&result.implementation));
    if check.count(Severity::Error) > 0 {
        return Err(err(format!(
            "internal: {engine_label} produced an invalid design\n{}",
            check.to_text()
        )));
    }
    if let Some(sup) = &supervision {
        check.diagnostics.extend(resilience_diagnostics(sup));
        check.diagnostics.sort_by_key(Diagnostic::sort_key);
    }

    let stats = result.implementation.stats(&problem);
    let _ = writeln!(
        out,
        "{} on {} ({}): ${}{}{}",
        engine_label,
        problem.dfg().name(),
        mode,
        result.cost,
        if result.proven_optimal {
            ""
        } else {
            " (best effort)"
        },
        if solved.from_cache { " (cached)" } else { "" },
    );
    let _ = writeln!(out, "{stats}");
    if let Some(sup) = &supervision {
        if sup.degraded() {
            let _ = writeln!(out, "degraded result (exit 3):");
            let _ = write!(out, "{}", sup.degradation.summary());
        }
    }
    let _ = writeln!(out, "licenses:");
    for l in result.implementation.licenses_used(&problem) {
        let off = problem
            .catalog()
            .offering_of(l)
            .ok_or_else(|| err(format!("internal: design uses unknown license `{l}`")))?;
        let _ = writeln!(out, "  {l:<22} area {:>6}  ${}", off.area, off.cost);
    }
    if chart {
        let _ = writeln!(
            out,
            "\n{}",
            schedule_chart(&problem, &result.implementation)
        );
    }
    if markdown {
        let _ = writeln!(
            out,
            "\n{}",
            markdown_summary(&problem, &result.implementation)
        );
    }
    if dot {
        let _ = writeln!(
            out,
            "\n{}",
            implementation_dot(&problem, &result.implementation)
        );
    }
    if verilog {
        let _ = writeln!(out, "\n{}", emit_verilog(&problem, &result.implementation));
    }
    if vcd {
        // Trace one clean mission step so the schedule can be inspected in
        // a waveform viewer.
        let trace = troy_sim::trace_run(
            &problem,
            &result.implementation,
            &troy_sim::CoreLibrary::new(),
            &troy_sim::InputVector::from_seed(problem.dfg(), 1),
        );
        let _ = writeln!(out, "\n{trace}");
    }
    if want_lint {
        let _ = writeln!(out, "\n{}", check.to_text().trim_end());
    }
    if prove {
        // The post-solve lint already rejected rule-breaking designs, so
        // a refusal here means the *prover* sees an exposure the rules
        // missed — surface it as the internal error it is.
        let cert = troy_analysis::certify(&problem, &result.implementation).map_err(|diags| {
            let mut msg = format!("internal: {engine_label} produced an uncertifiable design\n");
            for d in &diags {
                let _ = writeln!(msg, "{d}");
            }
            err(msg)
        })?;
        let _ = writeln!(out, "\n{cert}");
    }
    Ok(match &supervision {
        Some(sup) if sup.degraded() => 3,
        _ => 0,
    })
}

#[allow(clippy::too_many_lines)]
fn lint_cmd(target: &str, args: &[String], out: &mut String) -> Result<i32, CliError> {
    let g = load_dfg(target)?;
    let mut flags = ProblemFlags::new();
    let mut solver_name: Option<String> = None;
    let mut time_limit = 60u64;
    let mut format = "text".to_owned();
    let mut options = AnalysisOptions::default();
    let mut prove = false;

    let mut i = 0;
    while i < args.len() {
        if flags.try_consume(args, &mut i)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--solver" => {
                solver_name = Some(take_value(args, &mut i, "--solver")?.to_owned());
            }
            "--prove" => prove = true,
            "--time-limit" => {
                time_limit = take_value(args, &mut i, "--time-limit")?
                    .parse()
                    .map_err(|_| err("--time-limit: expected seconds"))?;
            }
            "--format" => {
                take_value(args, &mut i, "--format")?.clone_into(&mut format);
                if !matches!(format.as_str(), "text" | "json" | "sarif") {
                    return Err(err(format!(
                        "--format: unknown `{format}`; expected text|json|sarif"
                    )));
                }
            }
            "--min-severity" => {
                let v = take_value(args, &mut i, "--min-severity")?;
                options.min_severity = Severity::parse(v)
                    .ok_or_else(|| err(format!("--min-severity: unknown `{v}`")))?;
            }
            "--allow" => {
                let v = take_value(args, &mut i, "--allow")?;
                let code = Code::parse(v)
                    .ok_or_else(|| err(format!("--allow: unknown diagnostic code `{v}`")))?;
                options.suppressed.insert(code);
            }
            "--deny" => match take_value(args, &mut i, "--deny")? {
                "warnings" => options.deny_warnings = true,
                other => return Err(err(format!("--deny: unknown `{other}`"))),
            },
            other => return Err(err(format!("lint: unknown flag `{other}`"))),
        }
        i += 1;
    }

    let problem = flags.build(g)?;

    // Without a solver only the pre-solve (TP) passes have anything to
    // inspect; with one, the synthesized binding is linted like any other.
    let implementation: Option<Implementation> = match solver_name {
        None => None,
        Some(name) => {
            let solver = make_solver(&name)?;
            let solve_options = SolveOptions {
                time_limit: Duration::from_secs(time_limit),
                ..SolveOptions::default()
            };
            let result = solver
                .synthesize(&problem, &solve_options)
                .map_err(|e| err(format!("synthesis failed: {e}")))?;
            Some(result.implementation)
        }
    };

    let analyzer = if prove {
        Analyzer::proving()
    } else {
        Analyzer::new()
    };
    let report = analyzer.analyze(&problem, implementation.as_ref(), &options);
    out.push_str(&match format.as_str() {
        "json" => report.to_json(),
        "sarif" => report.to_sarif(),
        _ => report.to_text(),
    });
    // With the prover engaged and a binding that survived it, the text
    // report ends with the machine-checked certificate; failures already
    // carry their counterexample witnesses in the report body.
    if prove && format == "text" {
        if let Some(imp) = &implementation {
            if let Ok(cert) = troy_analysis::certify(&problem, imp) {
                let _ = writeln!(out, "\n{cert}");
            }
        }
    }
    Ok(report.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;
    use troy_resilience::LADDER;

    fn cli(args: &[&str]) -> Result<String, CliError> {
        cli_with_code(args).map(|(out, _)| out)
    }

    fn cli_with_code(args: &[&str]) -> Result<(String, i32), CliError> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let mut out = String::new();
        run(&args, &mut out).map(|code| (out, code))
    }

    #[test]
    fn list_names_all_benchmarks() {
        let out = cli(&["list"]).unwrap();
        for name in ["polynom", "fir16", "fft8"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn show_prints_the_graph() {
        let out = cli(&["show", "diff2"]).unwrap();
        assert!(out.contains("dfg diff2"));
        assert!(out.contains("11 ops"));
    }

    #[test]
    fn synth_motivational_example() {
        let out = cli(&[
            "synth",
            "polynom",
            "--catalog",
            "table1",
            "--lambda-det",
            "4",
            "--lambda-rec",
            "3",
            "--area",
            "22000",
        ])
        .unwrap();
        assert!(out.contains("$4160"), "{out}");
        assert!(out.contains("licenses:"));
    }

    #[test]
    fn synth_detection_mode_with_chart_and_markdown() {
        let out = cli(&[
            "synth",
            "polynom",
            "--mode",
            "detection",
            "--catalog",
            "table1",
            "--chart",
            "--markdown",
        ])
        .unwrap();
        assert!(out.contains("cycle1"));
        assert!(out.contains("| license cost (mc) |"));
    }

    #[test]
    fn synth_with_each_solver() {
        for solver in ["exact", "greedy", "annealing"] {
            let out = cli(&[
                "synth",
                "polynom",
                "--catalog",
                "table1",
                "--solver",
                solver,
                "--time-limit",
                "20",
            ])
            .unwrap();
            assert!(out.contains("mc=$"), "{solver}: {out}");
        }
    }

    #[test]
    fn synth_prove_appends_a_security_certificate() {
        let out = cli(&[
            "synth",
            "polynom",
            "--catalog",
            "table1",
            "--lambda-det",
            "4",
            "--lambda-rec",
            "3",
            "--area",
            "22000",
            "--prove",
        ])
        .unwrap();
        assert!(out.contains("$4160"), "{out}");
        assert!(out.contains("security certificate: polynom"), "{out}");
        assert!(out.contains("no single vendor"), "{out}");
        assert!(out.contains("no colluding vendor pair"), "{out}");
        assert!(out.contains("checksum:"), "{out}");
    }

    #[test]
    fn lint_prove_with_solver_ends_with_the_certificate() {
        let (out, code) = cli_with_code(&[
            "lint",
            "polynom",
            "--catalog",
            "table1",
            "--solver",
            "greedy",
            "--prove",
        ])
        .unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("security certificate: polynom"), "{out}");
        assert!(out.contains("minimum evading coalition: 2"), "{out}");
    }

    #[test]
    fn lint_prove_without_a_binding_issues_no_certificate() {
        let (out, code) =
            cli_with_code(&["lint", "polynom", "--catalog", "table1", "--prove"]).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("security certificate"), "{out}");
    }

    #[test]
    fn synth_from_a_dfg_file() {
        let dir = std::env::temp_dir().join("troyhls-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.dfg");
        std::fs::write(
            &path,
            "dfg tiny\nop a mul\nop b mul\nop c add\nedge a c\nedge b c\n",
        )
        .unwrap();
        let out = cli(&["synth", path.to_str().unwrap(), "--mode", "detection"]).unwrap();
        assert!(out.contains("on tiny"));
    }

    #[test]
    fn profile_reports_no_pairs_for_random_stimulus() {
        let out = cli(&["profile", "polynom", "--samples", "8"]).unwrap();
        assert!(out.contains("no closely-related pairs"));
    }

    #[test]
    fn errors_are_informative() {
        assert!(cli(&[]).unwrap_err().0.contains("usage"));
        assert!(cli(&["frob"]).unwrap_err().0.contains("unknown command"));
        assert!(cli(&["show", "nope.dfg"])
            .unwrap_err()
            .0
            .contains("cannot read"));
        assert!(cli(&["synth", "polynom", "--solver", "magic"])
            .unwrap_err()
            .0
            .contains("unknown `magic`"));
        assert!(cli(&["synth", "polynom", "--area"])
            .unwrap_err()
            .0
            .contains("missing value"));
        // Infeasible area surfaces as a synthesis failure.
        assert!(
            cli(&["synth", "polynom", "--catalog", "table1", "--area", "4000"])
                .unwrap_err()
                .0
                .contains("synthesis failed")
        );
    }

    #[test]
    fn verilog_output_is_emitted() {
        let out = cli(&[
            "synth",
            "polynom",
            "--mode",
            "detection",
            "--catalog",
            "table1",
            "--verilog",
        ])
        .unwrap();
        assert!(out.contains("module polynom_troyhls"));
        assert!(out.contains("endmodule"));
    }

    #[test]
    fn vcd_output_is_a_value_change_dump() {
        let out = cli(&[
            "synth",
            "polynom",
            "--mode",
            "detection",
            "--catalog",
            "table1",
            "--vcd",
        ])
        .unwrap();
        assert!(out.contains("$enddefinitions $end"));
        assert!(out.contains("$var wire 64"));
    }

    #[test]
    fn dot_output_is_graphviz() {
        let out = cli(&["synth", "polynom", "--mode", "detection", "--dot"]).unwrap();
        assert!(out.contains("digraph"));
    }

    #[test]
    fn lint_presolve_flags_too_few_vendors_without_solving() {
        // Table 1 has 4 vendors, but recovery mode on a catalog trimmed to
        // two is provably infeasible — lint must say so pre-solve. The CLI
        // has no trimmed catalog, so check the reachable built-in case:
        // paper8/recovery is feasible and reports no TP001.
        let (out, code) = cli_with_code(&["lint", "polynom", "--catalog", "table1"]).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("TP001"), "{out}");
        assert!(out.contains("ok: polynom"), "{out}");
    }

    #[test]
    fn lint_area_infeasibility_detected_pre_solve() {
        let (out, code) = cli_with_code(&[
            "lint",
            "polynom",
            "--catalog",
            "table1",
            "--mode",
            "detection",
            "--area",
            "10",
        ])
        .unwrap();
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("error[TP003]"), "{out}");
        assert!(out.contains("FAIL"), "{out}");
    }

    #[test]
    fn lint_solver_binding_is_clean_and_formats_agree_on_codes() {
        for format in ["text", "json", "sarif"] {
            let (out, code) = cli_with_code(&[
                "lint",
                "polynom",
                "--catalog",
                "table1",
                "--mode",
                "detection",
                "--solver",
                "exact",
                "--format",
                format,
                "--min-severity",
                "error",
            ])
            .unwrap();
            assert_eq!(code, 0, "{format}: {out}");
            assert!(!out.contains("TD0"), "{format}: {out}");
        }
    }

    #[test]
    fn lint_json_and_sarif_are_structured() {
        let (json, _) =
            cli_with_code(&["lint", "polynom", "--catalog", "table1", "--format", "json"]).unwrap();
        assert!(json.contains("\"tool\": \"troy-analysis\""), "{json}");
        let (sarif, _) = cli_with_code(&[
            "lint",
            "polynom",
            "--catalog",
            "table1",
            "--format",
            "sarif",
        ])
        .unwrap();
        assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    }

    #[test]
    fn lint_deny_warnings_and_allow_gate_the_exit_code() {
        // A near-collusion warning is plausible on heuristic bindings, but
        // the zero-mobility note is deterministic: lambda == critical path.
        let g_args = [
            "lint",
            "polynom",
            "--catalog",
            "table1",
            "--mode",
            "detection",
            "--lambda-det",
            "3",
        ];
        let (out, code) = cli_with_code(&g_args).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("TP002"), "{out}");
        // Suppressing the note removes it from the report.
        let mut allowed = g_args.to_vec();
        allowed.extend(["--allow", "TP002"]);
        let (out, _) = cli_with_code(&allowed).unwrap();
        assert!(!out.contains("TP002"), "{out}");
    }

    #[test]
    fn lint_rejects_bad_flags() {
        assert!(cli(&["lint", "polynom", "--format", "xml"])
            .unwrap_err()
            .0
            .contains("--format"));
        assert!(cli(&["lint", "polynom", "--allow", "TD999"])
            .unwrap_err()
            .0
            .contains("unknown diagnostic code"));
        assert!(cli(&["lint", "polynom", "--deny", "notes"])
            .unwrap_err()
            .0
            .contains("--deny"));
        assert!(cli(&["lint", "polynom", "--min-severity", "fatal"])
            .unwrap_err()
            .0
            .contains("--min-severity"));
    }

    #[test]
    fn synth_lint_flag_appends_report() {
        let out = cli(&[
            "synth",
            "polynom",
            "--catalog",
            "table1",
            "--mode",
            "detection",
            "--lint",
        ])
        .unwrap();
        assert!(out.contains("ok: polynom"), "{out}");
    }

    #[test]
    fn synth_deadline_engages_the_supervisor() {
        let (out, code) = cli_with_code(&[
            "synth",
            "polynom",
            "--catalog",
            "table1",
            "--mode",
            "detection",
            "--deadline",
            "10s",
        ])
        .unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains(&format!("supervised[{}]", LADDER[0])), "{out}");
        assert!(!out.contains("best effort"), "{out}");
        assert!(!out.contains("degraded result"), "{out}");
    }

    #[test]
    fn synth_resilience_flags_reject_solver_and_cache() {
        for extra in [["--solver", "exact"], ["--cache-dir", "/tmp/x"]] {
            let mut args = vec!["synth", "polynom", "--deadline", "2s"];
            args.extend(extra);
            let e = cli(&args).unwrap_err();
            assert!(e.0.contains("resilience flags"), "{args:?}: {e}");
        }
    }

    #[test]
    fn synth_and_batch_have_no_race_flags() {
        for args in [
            vec!["synth", "polynom", "--portfolio"],
            vec!["synth", "polynom", "--jobs", "2"],
            vec!["batch", "table3", "--portfolio"],
        ] {
            let e = cli(&args).unwrap_err();
            assert!(e.0.contains("unknown"), "{args:?}: {e}");
        }
    }

    #[test]
    fn synth_resilience_flag_values_are_validated() {
        assert!(cli(&["synth", "polynom", "--deadline", "soon"])
            .unwrap_err()
            .0
            .contains("--deadline"));
        // A zero budget is a usage error up front, not a guaranteed
        // deadline failure later.
        assert!(cli(&["synth", "polynom", "--deadline", "0s"])
            .unwrap_err()
            .0
            .contains("must be positive"));
        assert!(cli(&["synth", "polynom", "--max-retries", "many"])
            .unwrap_err()
            .0
            .contains("--max-retries"));
        assert!(cli(&["synth", "polynom", "--chaos-seed", "-1"])
            .unwrap_err()
            .0
            .contains("--chaos-seed"));
    }

    #[test]
    fn synth_chaos_panic_degrades_with_exit_3_and_tr_diagnostics() {
        use troy_resilience::InjectedFault;
        let fault = |s: u64, rung: usize| Chaos::seeded(s).fault_for_attempt(LADDER[rung], 0, 0);
        let panic = Some(InjectedFault::Panic);
        let run = |seed: u64| {
            cli_with_code(&[
                "synth",
                "polynom",
                "--catalog",
                "table1",
                "--mode",
                "detection",
                "--deadline",
                "10s",
                "--chaos-seed",
                &seed.to_string(),
                "--lint",
            ])
            .unwrap()
        };

        // A seed whose schedule panics the primary rung's first attempt
        // and leaves the next rung alone: the supervisor demotes the exact
        // solver, the one prover, and annealing answers. That is a
        // fallback (TR001, TR003) and degradation — only a heuristic
        // found the design — so the exit code is 3. Deterministic, no
        // timing.
        let seed = (0..u64::MAX)
            .find(|&s| fault(s, 0) == panic && fault(s, 1).is_none())
            .expect("some seed panics only the primary rung's first attempt");
        let (out, code) = run(seed);
        assert_eq!(code, 3, "{out}");
        assert!(out.contains("degraded result (exit 3):"), "{out}");
        assert!(!LADDER[1].can_prove());
        assert!(out.contains(&format!("supervised[{}]", LADDER[1])), "{out}");
        assert!(
            !out.contains(&format!("supervised[{}]", LADDER[0])),
            "{out}"
        );
        assert!(out.contains("TR001"), "{out}");
        assert!(out.contains("TR003"), "{out}");
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("troyhls-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn synth_cache_dir_serves_the_second_run() {
        let dir = scratch_dir("synth-cache");
        let args = [
            "synth",
            "polynom",
            "--catalog",
            "table1",
            "--mode",
            "detection",
            "--cache-dir",
            dir.to_str().unwrap(),
        ];
        let cold = cli(&args).unwrap();
        assert!(!cold.contains("(cached)"), "{cold}");
        // A fresh CLI invocation only has the on-disk layer to hit.
        let warm = cli(&args).unwrap();
        assert!(warm.contains("(cached)"), "{warm}");
        assert_eq!(
            cold.lines().next(),
            warm.lines()
                .next()
                .map(|l| l.strip_suffix(" (cached)").unwrap_or(l))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_regenerates_table3_and_writes_the_bench_record() {
        let dir = scratch_dir("batch-cache");
        let json_path = dir.join("BENCH_portfolio.json");
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("cache");
        let out = cli(&[
            "batch",
            "table3",
            "--jobs",
            "2",
            "--time-limit",
            "5",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--bench-json",
            json_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("Table 3"), "{out}");
        assert!(out.contains("table3: 12 rows"), "{out}");
        let record = std::fs::read_to_string(&json_path).unwrap();
        assert!(record.contains("\"table\": \"table3\""), "{record}");
        assert!(record.contains("\"speedup\""), "{record}");
        // The warm pass is served from the on-disk cache and still renders
        // the same grid.
        let warm = cli(&[
            "batch",
            "table3",
            "--jobs",
            "1",
            "--time-limit",
            "5",
            "--cache-dir",
            cache.to_str().unwrap(),
        ])
        .unwrap();
        assert!(warm.contains("table3: 12 rows"), "{warm}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_rejects_bad_flags() {
        for (args, fragment) in [
            (vec!["serve", "--max-inflight", "0"], "--max-inflight"),
            (vec!["serve", "--queue-depth", "zero"], "--queue-depth"),
            (
                vec!["serve", "--default-deadline", "0s"],
                "must be positive",
            ),
            (
                vec!["serve", "--drain-deadline", "soon"],
                "--drain-deadline",
            ),
            (vec!["serve", "--frame-deadline", "0ms"], "must be positive"),
            (vec!["serve", "--chaos-seed", "-1"], "--chaos-seed"),
            (vec!["serve", "--port", "80"], "unknown flag"),
        ] {
            let e = cli(&args).unwrap_err();
            assert!(e.0.contains(fragment), "{args:?}: {e}");
        }
    }

    #[test]
    fn serve_runs_the_daemon_until_a_shutdown_request_drains_it() {
        ping_then_drain_a_daemon_bound_at("serve", "127.0.0.1:0");
    }

    /// A hostname goes through the resolver: glibc loads its NSS modules
    /// at run time even in a statically linked binary, as this test
    /// binary is on Linux/glibc.
    #[test]
    fn serve_binds_a_hostname_through_the_resolver() {
        ping_then_drain_a_daemon_bound_at("serve-localhost", "localhost:0");
    }

    /// Runs `serve --addr bind`, pings it over the address it publishes,
    /// then drains it with `shutdown` and checks the exit summary.
    fn ping_then_drain_a_daemon_bound_at(scratch: &str, bind: &'static str) {
        use std::io::{BufRead as _, BufReader, Write as _};
        let dir = scratch_dir(scratch);
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr");
        let addr_file_arg = addr_file.to_str().unwrap().to_owned();
        let daemon = std::thread::spawn(move || {
            cli_with_code(&[
                "serve",
                "--addr",
                bind,
                "--addr-file",
                &addr_file_arg,
                "--max-inflight",
                "2",
                "--queue-depth",
                "2",
                "--default-deadline",
                "5s",
                "--drain-deadline",
                "2s",
            ])
        });
        // Wait for the daemon to publish its bound address.
        let t0 = std::time::Instant::now();
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse::<std::net::SocketAddr>() {
                    break addr;
                }
            }
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "daemon never published its address"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(addr.ip().is_loopback(), "{bind} bound {addr}");

        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"{\"id\":\"p\",\"cmd\":\"ping\"}\n{\"id\":\"bye\",\"cmd\":\"shutdown\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"status\":\"pong\""), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("draining"), "{line}");

        let (out, code) = daemon
            .join()
            .expect("daemon thread")
            .expect("serve exits ok");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("drained cleanly"), "{out}");
        assert!(out.contains("connections 1"), "{out}");
        assert!(
            !addr_file.exists(),
            "a drained daemon must not look reachable: the addr file stays behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cluster_rejects_bad_flags() {
        assert!(cli(&["cluster", "--workers", "0"])
            .unwrap_err()
            .0
            .contains("--workers"));
        assert!(cli(&["cluster", "--seed", "banana"])
            .unwrap_err()
            .0
            .contains("--seed"));
        assert!(cli(&["cluster", "--bogus"])
            .unwrap_err()
            .0
            .contains("unknown flag"));
        assert!(cli(&["cluster", "--max-respawns", "banana"])
            .unwrap_err()
            .0
            .contains("--max-respawns"));
        assert!(cli(&["cluster", "--replication", "0"])
            .unwrap_err()
            .0
            .contains("--replication"));
    }

    #[test]
    fn cluster_routes_requests_until_a_shutdown_drains_it() {
        use std::io::{BufRead as _, BufReader, Write as _};
        let dir = scratch_dir("cluster");
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr");
        let addr_file_arg = addr_file.to_str().unwrap().to_owned();
        let journal_dir_arg = dir.join("wal").to_str().unwrap().to_owned();
        let daemon = std::thread::spawn(move || {
            cli_with_code(&[
                "cluster",
                "--workers",
                "2",
                "--addr",
                "127.0.0.1:0",
                "--addr-file",
                &addr_file_arg,
                "--default-deadline",
                "5s",
                "--drain-deadline",
                "2s",
                "--respawn",
                "--max-respawns",
                "4",
                "--replication",
                "2",
                "--journal-dir",
                &journal_dir_arg,
            ])
        });
        // Wait for the router to publish its bound address.
        let t0 = std::time::Instant::now();
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.trim().parse::<std::net::SocketAddr>().is_ok() {
                    break text.trim().to_owned();
                }
            }
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "cluster never published its address"
            );
            std::thread::sleep(Duration::from_millis(20));
        };

        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"{\"id\":\"p\",\"cmd\":\"ping\"}\n{\"id\":\"bye\",\"cmd\":\"shutdown\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"status\":\"pong\""), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("draining"), "{line}");

        let (out, code) = daemon
            .join()
            .expect("cluster thread")
            .expect("cluster exits ok");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("cluster: drained cleanly"), "{out}");
        assert!(out.contains("connections 1"), "{out}");
        assert!(
            out.contains("selfheal: respawns"),
            "the drain summary reports the self-healing counters: {out}"
        );
        assert!(
            dir.join("wal").join("dispatch.wal").exists(),
            "--journal-dir creates the dispatch journal"
        );
        assert!(
            !addr_file.exists(),
            "a drained cluster must not look reachable: the addr file stays behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_rejects_unknown_grids() {
        assert!(cli(&["batch", "table9"])
            .unwrap_err()
            .0
            .contains("unknown argument"));
        assert!(cli(&["batch", "--jobs", "0"])
            .unwrap_err()
            .0
            .contains("--jobs"));
    }

    #[test]
    fn campaign_small_grid_passes_its_gates() {
        let (out, code) = cli_with_code(&[
            "campaign",
            "--benchmarks",
            "polynom",
            "--cells",
            "12",
            "--steps",
            "4",
            "--seed",
            "0x5151",
        ])
        .unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("campaign: seed 0x5151, 12 cells"), "{out}");
        assert!(out.contains("guarantee slice:"), "{out}");
        assert!(out.contains("campaign gates passed"), "{out}");
    }

    #[test]
    fn campaign_json_is_structured_and_deterministic_across_jobs() {
        let args = |jobs: &'static str| {
            vec![
                "campaign",
                "--benchmarks",
                "diff2",
                "--cells",
                "10",
                "--steps",
                "4",
                "--seed",
                "77",
                "--jobs",
                jobs,
                "--json",
            ]
        };
        let (serial, code) = cli_with_code(&args("1")).unwrap();
        assert_eq!(code, 0, "{serial}");
        assert!(serial.contains("\"schema\": 1"), "{serial}");
        assert!(serial.contains("\"rows\": ["), "{serial}");
        assert!(serial.contains("\"seed\": 77"), "{serial}");
        let (parallel, _) = cli_with_code(&args("4")).unwrap();
        // latency_us is wall-clock; everything else must agree.
        let strip = |s: &str| {
            s.lines()
                .map(|l| match l.find(", \"latency_us\":") {
                    Some(at) => format!("{} }}", &l[..at]),
                    None => l.to_owned(),
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&serial), strip(&parallel));
    }

    #[test]
    fn campaign_mode_filter_restricts_the_designs() {
        let (out, code) = cli_with_code(&[
            "campaign",
            "--benchmarks",
            "polynom",
            "--mode",
            "recovery",
            "--cells",
            "6",
            "--steps",
            "3",
            "--json",
        ])
        .unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"mode\": \"rec\""), "{out}");
        assert!(!out.contains("\"mode\": \"det\""), "{out}");
    }

    #[test]
    fn campaign_rejects_bad_flags() {
        for (args, fragment) in [
            (vec!["campaign", "--seed", "0xzz"], "--seed"),
            (vec!["campaign", "--cells", "0"], "--cells"),
            (vec!["campaign", "--steps", "none"], "--steps"),
            (vec!["campaign", "--mode", "zen"], "--mode"),
            (vec!["campaign", "--benchmarks", " , "], "--benchmarks"),
            (vec!["campaign", "--benchmarks", "nosuch"], "nosuch"),
            (vec!["campaign", "--jobs", "0"], "--jobs"),
            (vec!["campaign", "--fast"], "unknown flag"),
        ] {
            let e = cli(&args).unwrap_err();
            assert!(e.0.contains(fragment), "{args:?}: {e}");
        }
    }

    #[test]
    fn campaign_via_daemon_cross_checks_the_serve_path() {
        let (out, code) = cli_with_code(&[
            "campaign",
            "--benchmarks",
            "polynom",
            "--cells",
            "8",
            "--steps",
            "3",
            "--via-daemon",
        ])
        .unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("via-daemon: 8 synth responses"), "{out}");
        // 8 cells over 2 designs: the daemon must have served repeats from
        // its result cache.
        assert!(!out.contains("0 cache hits"), "{out}");
    }
}
