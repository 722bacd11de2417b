//! The four workloads, their correctness checks and their end-to-end
//! metrics.
//!
//! Every input is a pure function of `(seed, request index)`, so the
//! same seed sends the same requests in the same order whatever the
//! timing. Load comes from this one process: at most [`CLIENTS`] client
//! threads with one connection each (`cli-grid` runs one CLI process at
//! a time). The daemon and the cluster run in-process with chaos off and
//! their default configuration, except that the cluster has 3 workers.

use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use troy_cluster::{Cluster, ClusterConfig, ClusterHandle};
use troy_service::{Json, Service, ServiceConfig, StatsSnapshot};

use crate::client::Client;
use crate::layers::{Measured, RouterCounters, ServiceCounters};
use crate::problems::{by_ids, paper_problems, Spec, FIG5_COST};
use crate::replay::{CLI_LAYERS, DAEMON_LAYERS};
use crate::stats::{mean, median, percentile};

/// Client threads (and connections) of the load generator: the host's
/// core count, which the reference machine has 2 of.
pub const CLIENTS: usize = 2;

/// `deadline_ms` of every daemon and cluster request. The supervisor
/// gives the ILP rung a quarter of it, and the ILP holds its whole
/// slice; 1 s keeps `daemon-fresh` above the 100 samples a p90 needs
/// within one run.
pub const DEADLINE_MS: u64 = 1000;

/// Set-ups per run, `setup_s` being their median: at least
/// [`SETUP_MIN`], then more until they have taken [`SETUP_BUDGET`]
/// together, up to [`SETUP_MAX`]. A one-millisecond set-up (`cli-grid`)
/// is thus a median of a hundred, a two-second one of three.
pub const SETUP_MIN: usize = 3;
/// See [`SETUP_MIN`].
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// See [`SETUP_MIN`].
pub const SETUP_MAX: usize = 100;

/// An untraced run never ends with fewer samples than this, the fewest
/// that support a p90 (10 beyond it).
pub const MIN_SAMPLES: usize = 100;

/// Longest wait for any single reply.
const REPLY_BUDGET: Duration = Duration::from_secs(30);

/// `daemon-hot` keys, hottest first: Fig. 5, the six tiny variants, and
/// nine table rows across every benchmark and both modes.
pub const HOT_KEYS: [&str; 16] = [
    "fig5",
    "tiny.0",
    "tiny.1",
    "tiny.2",
    "tiny.3",
    "tiny.4",
    "tiny.5",
    "t3.polynom.3",
    "t3.diff2.4",
    "t3.dtmf.4",
    "t3.ellipticicass.8",
    "t3.fir16.6",
    "t4.polynom.6",
    "t4.mof2.14",
    "t4.ellipticicass.16",
    "t4.fir16.16",
];

/// Zipf exponent of the `daemon-hot` key draw.
const ZIPF_S: f64 = 1.1;

/// `cluster-mixed` keys warmed during set-up.
pub const CLUSTER_WARM_KEYS: [&str; 12] = [
    "fig5",
    "tiny.0",
    "tiny.1",
    "tiny.2",
    "tiny.3",
    "tiny.4",
    "tiny.5",
    "t3.diff2.4",
    "t3.fir16.6",
    "t4.dtmf.8",
    "t4.mof2.14",
    "t4.ellipticicass.24",
];

/// `cluster-mixed` arrival rate (requests per second). A 25-second run
/// holds 250 requests, so its 50 fresh ones are two whole rounds of the
/// paper problems and every seed's run solves the same mix; the senders
/// stay mostly free, so hits rarely queue behind fresh solves.
const CLUSTER_RATE: f64 = 10.0;

/// One in this many `cluster-mixed` requests is a fresh key.
const CLUSTER_FRESH_EVERY: usize = 5;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `troyhls-cli synth <row> --prove`, one process per solve.
    CliGrid,
    /// Closed loop of guaranteed cache misses against one daemon.
    DaemonFresh,
    /// Closed loop of cache hits, one connection per request.
    DaemonHot,
    /// Open loop of hits and misses through a 3-worker router.
    ClusterMixed,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::CliGrid,
        Workload::DaemonFresh,
        Workload::DaemonHot,
        Workload::ClusterMixed,
    ];

    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliGrid => "cli-grid",
            Workload::DaemonFresh => "daemon-fresh",
            Workload::DaemonHot => "daemon-hot",
            Workload::ClusterMixed => "cluster-mixed",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one workload run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// The end-to-end metrics, `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("cost_ratio", "ratio"),
];

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests sent in the timed phase.
    pub attempted: usize,
    /// Requests that were not checked-ok.
    pub failed: usize,
    /// Answers that were wrong (bad cost, missing certificate, …).
    pub wrong: Vec<String>,
    /// Requests that failed without a wrong answer (first few).
    pub errors: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Worst open-loop generator lateness (0 for closed loops).
    pub late_max_ms: f64,
    /// Extra human-readable lines (`cli-grid`'s raw times).
    pub notes: Vec<String>,
    /// The recorded spans, on a traced run.
    pub trace: Option<crate::trace::Recorder>,
}

// ------------------------------------------------------------ checking

/// How one answer fared.
#[derive(Debug, Clone)]
enum Verdict {
    /// Checked-ok, at this cost over the reference, marked proven or not.
    Ok { ratio: f64, proven: bool },
    /// Not ok (shed, degraded, error, timeout, no reply): an error.
    Failed(String),
    /// An ok answer that is wrong: the run is incorrect.
    Wrong(String),
}

/// One timed request.
#[derive(Debug, Clone)]
struct Sample {
    index: usize,
    latency_ms: f64,
    verdict: Verdict,
    elapsed_ms: Option<f64>,
}

fn verdict_for(spec: &Spec, cost: Option<u64>, proven: bool, certified: bool) -> Verdict {
    let id = &spec.id;
    let Some(cost) = cost else {
        return Verdict::Wrong(format!("{id}: answer carries no cost"));
    };
    if !certified {
        Verdict::Wrong(format!("{id}: missing or mismatched security certificate"))
    } else if spec.is_fig5() && cost != FIG5_COST {
        Verdict::Wrong(format!("{id}: Fig. 5 answered ${cost}, not ${FIG5_COST}"))
    } else if spec.proven && cost < spec.reference {
        Verdict::Wrong(format!(
            "{id}: ${cost} is below the proven optimum ${}",
            spec.reference
        ))
    } else {
        Verdict::Ok {
            ratio: cost as f64 / spec.reference as f64,
            proven,
        }
    }
}

/// Checks a daemon/router reply for `spec`, whose certificate must name
/// `design`.
fn check_reply(reply: &io::Result<String>, spec: &Spec, design: &str) -> (Verdict, Option<f64>) {
    let line = match reply {
        Ok(line) => line,
        Err(e) => return (Verdict::Failed(format!("{}: no reply: {e}", spec.id)), None),
    };
    let Some(json) = Json::parse(line) else {
        return (
            Verdict::Wrong(format!("{}: unparseable reply", spec.id)),
            None,
        );
    };
    let elapsed = json
        .get("elapsed_ms")
        .and_then(Json::as_u64)
        .map(|ms| ms as f64);
    let status = json.get("status").and_then(Json::as_str).unwrap_or("");
    if status != "ok" {
        let message = json.get("message").and_then(Json::as_str).unwrap_or("");
        let verdict = Verdict::Failed(format!("{}: status `{status}` {message}", spec.id));
        return (verdict, elapsed);
    }
    let cert = json.get("certificate");
    let certified = cert.and_then(|c| c.get("design")).and_then(Json::as_str) == Some(design)
        && cert.and_then(|c| c.get("single_vendor_safe")) == Some(&Json::Bool(true));
    let cost = json.get("cost").and_then(Json::as_u64);
    let proven = json.get("proven") == Some(&Json::Bool(true));
    (verdict_for(spec, cost, proven, certified), elapsed)
}

/// Checks one `troyhls-cli synth <row> --prove` run.
fn check_cli(run: &io::Result<Output>, spec: &Spec) -> Verdict {
    let run = match run {
        Ok(run) => run,
        Err(e) => return Verdict::Failed(format!("{}: CLI run failed: {e}", spec.id)),
    };
    if !run.status.success() {
        return Verdict::Failed(format!("{}: CLI {}", spec.id, run.status));
    }
    let stdout = String::from_utf8_lossy(&run.stdout);
    // "exact on polynom (detection+recovery): $4160[ (best effort)]"
    let first = stdout.lines().next().unwrap_or("");
    let cost = Some(first)
        .and_then(|l| l.rsplit_once('$'))
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .and_then(|c| c.parse().ok());
    let design = spec.dfg_name();
    let certified = stdout.contains(&format!("security certificate: {design} ("))
        && stdout.contains("proven: no single vendor controls");
    verdict_for(spec, cost, !first.contains("(best effort)"), certified)
}

// ------------------------------------------------------------ inputs

/// SplitMix64 of `seed` advanced `i + 1` steps: a counter-based stream,
/// so request `i` never depends on how many were drawn before it.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (unit(mix(seed, i as u64)) * (i + 1) as f64) as usize;
        items.swap(i, j.min(i));
    }
}

/// Rounds over `n` items, each round a seeded permutation: request `i`
/// is item `round_item(seed, n, i)`, so any whole number of rounds
/// covers every item equally often.
fn round_item(seed: u64, n: usize, i: usize) -> usize {
    let round = (i / n) as u64;
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, mix(seed, round));
    order[i % n]
}

/// Graph name of the `i`-th fresh request: unique per (seed, index), so
/// its cache key is new while the problem is unchanged.
fn fresh_name(spec: &Spec, seed: u64, i: usize) -> String {
    format!("{}_{seed:x}_{i}", spec.dfg_name())
}

/// Zipf(`ZIPF_S`) draw over `n` ranks for request `i`.
fn zipf(seed: u64, n: usize, i: usize) -> usize {
    let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-ZIPF_S)).collect();
    let mut u = unit(mix(seed, i as u64)) * weights.iter().sum::<f64>();
    for (k, w) in weights.iter().enumerate() {
        if u < *w {
            return k;
        }
        u -= w;
    }
    n - 1
}

// ------------------------------------------------------------ helpers

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `up` as often as [`SETUP_MIN`] asks, tearing down all but the
/// last, and returns each set-up's seconds and the live state.
fn setups<T>(
    mut up: impl FnMut(usize) -> Result<T, String>,
    mut down: impl FnMut(T),
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    for k in 0.. {
        let t0 = Instant::now();
        let state = up(k)?;
        let took = t0.elapsed();
        times.push(took.as_secs_f64());
        total += took;
        if k + 1 >= SETUP_MIN && (total >= SETUP_BUDGET || k + 1 >= SETUP_MAX) {
            return Ok((times, state));
        }
        down(state);
    }
    unreachable!("the set-up loop returns by SETUP_MAX")
}

/// Runs `client_loop` on [`CLIENTS`] threads, each with its own
/// one-connection-per-request client, and gathers what they return.
fn on_clients<T: Send>(
    addr: SocketAddr,
    client_loop: impl Fn(&mut Client) -> Vec<T> + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client_loop(&mut Client::per_request(addr))))
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect()
    })
}

/// Sends `frames` over [`CLIENTS`] threads and requires every answer to
/// be checked-ok: set-up traffic that warms a cache.
fn warm(addr: SocketAddr, frames: &[(Spec, String)]) -> Result<(), String> {
    let next = AtomicUsize::new(0);
    let failures = on_clients(addr, |client| {
        let mut failures = Vec::new();
        while let Some((spec, frame)) = frames.get(next.fetch_add(1, Ordering::SeqCst)) {
            let reply = client.call(frame, REPLY_BUDGET);
            if let (Verdict::Failed(m) | Verdict::Wrong(m), _) =
                check_reply(&reply, spec, spec.dfg_name())
            {
                failures.push(m);
            }
        }
        failures
    });
    match failures.first() {
        None => Ok(()),
        Some(first) => Err(format!("set-up warm-up failed: {first}")),
    }
}

fn keyed_frames(ids: &[&str]) -> Vec<(Spec, String)> {
    by_ids(ids)
        .into_iter()
        .map(|spec| {
            let frame = spec.frame(&spec.id, None, DEADLINE_MS);
            (spec, frame)
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn own_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn service_delta(before: StatsSnapshot, after: StatsSnapshot) -> ServiceCounters {
    ServiceCounters {
        accepted: after.accepted - before.accepted,
        shed: (after.shed_overload + after.shed_circuit)
            - (before.shed_overload + before.shed_circuit),
        cache_hits: after.cache_hits - before.cache_hits,
        degraded: after.completed_degraded - before.completed_degraded,
    }
}

fn workers_stats(handle: &ClusterHandle) -> StatsSnapshot {
    let mut sum = StatsSnapshot::default();
    for i in 0..handle.worker_count() {
        if let Some(s) = handle.worker_stats(i) {
            sum.accepted += s.accepted;
            sum.shed_overload += s.shed_overload;
            sum.shed_circuit += s.shed_circuit;
            sum.cache_hits += s.cache_hits;
            sum.completed_degraded += s.completed_degraded;
        }
    }
    sum
}

/// Phase lengths: an untraced run spends `seconds` on the wire; a traced
/// run splits it between the wire and the in-process replay.
fn wire_seconds(opts: &Options) -> f64 {
    if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    }
}

fn min_samples(opts: &Options) -> usize {
    if opts.trace {
        0
    } else {
        MIN_SAMPLES
    }
}

/// Assembles the report of a timed phase (`samples` in index order).
fn report(
    setup_s: &[f64],
    wall_s: f64,
    samples: &[Sample],
    peak_rss_mb: f64,
    measured: Option<Measured>,
) -> Report {
    let mut out = Report {
        attempted: samples.len(),
        ..Report::default()
    };
    let mut ratios = Vec::new();
    let mut proven = 0;
    for s in samples {
        match &s.verdict {
            Verdict::Ok { ratio, proven: p } => {
                ratios.push(*ratio);
                proven += usize::from(*p);
            }
            Verdict::Failed(m) => {
                out.failed += 1;
                if out.errors.len() < 5 {
                    out.errors.push(m.clone());
                }
            }
            Verdict::Wrong(m) => {
                out.failed += 1;
                out.wrong.push(m.clone());
            }
        }
    }
    if let Some(mut m) = measured {
        m.peak_rss_mb = peak_rss_mb;
        m.proven_ratio = proven as f64 / ratios.len().max(1) as f64;
        out.metrics = m.metrics();
        out.trace = Some(std::mem::take(&mut m.replay.rec));
        return out;
    }
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let values = [
        median(setup_s),
        median(&latencies),
        percentile(&latencies, 90.0),
        (wall_s > 0.0).then(|| ratios.len() as f64 / wall_s),
        mean(&ratios),
    ];
    for (&(name, unit), value) in END_TO_END.iter().zip(values) {
        // A metric without support (say, a p90 from a shortened run) is
        // left out rather than estimated.
        if let Some(value) = value {
            out.metrics.push((name, value, unit));
        }
    }
    out
}

/// Runs one workload in this process.
///
/// # Errors
/// A set-up failure (the daemon would not start, a warm-up request was
/// not answered ok, the CLI binary is missing).
pub fn run(workload: Workload, opts: &Options) -> Result<Report, String> {
    match workload {
        Workload::CliGrid => cli_grid(opts),
        Workload::DaemonFresh => daemon_fresh(opts),
        Workload::DaemonHot => daemon_hot(opts),
        Workload::ClusterMixed => cluster_mixed(opts),
    }
}

// ------------------------------------------------------------ cli-grid

/// A bare process spawn, the yardstick of `cli-grid`'s end-to-end times.
///
/// Those times are CPU-bound, and a shared host changes speed under them
/// by up to 60%, for seconds or minutes at a time; the daemon workloads,
/// held by deadlines and accept polling, barely notice. So `cli-grid`
/// times a spawn of this binary before every solve and reports its
/// set-up, latencies and throughput at the host speed where that spawn
/// takes [`PROBE_REF_MS`]: each phase's times divided by its host factor,
/// the median spawn over [`PROBE_REF_MS`]. Nothing in the repository can
/// change this spawn, so the factor cancels the host, not the code under
/// test. Each run prints the factors and the raw times beside the
/// normalised ones, and a traced run reports the raw `cli.wall_ms_p50`
/// and `cli.bare_spawn_ms_p50`. README.md gives the spreads with and
/// without it.
const PROBE: &str = "/bin/true";

/// See [`PROBE`].
const PROBE_REF_MS: f64 = 0.5;

fn cli_binary() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cli = exe.with_file_name("troyhls-cli");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release -p troy-cli` into the same \
             target directory",
            cli.display()
        ))
    }
}

fn cli_grid(opts: &Options) -> Result<Report, String> {
    let paper = paper_problems();
    // A yardstick spawn before the first set-up and after each one.
    let mut setup_probes = vec![probe_ms()?];
    let (setup_s, cli) = setups(
        |_| {
            // Set-up: find the binary and solve Fig. 5 once, so the
            // binary is paged in before the clock starts.
            let cli = cli_binary()?;
            match check_cli(&run_cli(&cli, &paper[0]), &paper[0]) {
                Verdict::Ok { .. } => Ok(cli),
                Verdict::Failed(m) | Verdict::Wrong(m) => Err(format!("warm-up: {m}")),
            }
        },
        |_| setup_probes.extend(probe_ms()),
    )?;
    setup_probes.push(probe_ms()?);

    // One CLI process at a time, whole rounds over the 25 problems, each
    // solve preceded by a yardstick spawn.
    let n = paper.len();
    let budget = wire_seconds(opts);
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut probes = Vec::new();
    let mut i = 0;
    while i % n != 0 || start.elapsed().as_secs_f64() < budget || samples.len() < min_samples(opts)
    {
        let spec = &paper[round_item(opts.seed, n, i)];
        probes.push(probe_ms()?);
        let t0 = Instant::now();
        let run = run_cli(&cli, spec);
        samples.push(Sample {
            index: i,
            latency_ms: ms(t0.elapsed()),
            verdict: check_cli(&run, spec),
            elapsed_ms: None,
        });
        i += 1;
    }
    let wall_s = start.elapsed().as_secs_f64() - probes.iter().sum::<f64>() / 1e3;

    let measured = opts.trace.then(|| {
        let mut m = Measured {
            layers: &CLI_LAYERS,
            cli_wall_ms: samples.iter().map(|s| s.latency_ms).collect(),
            bare_spawn_ms: probes.clone(),
            ..Measured::default()
        };
        let replay_start = Instant::now();
        for s in &samples {
            if replay_start.elapsed().as_secs_f64() >= opts.seconds - budget {
                break;
            }
            let spec = &paper[round_item(opts.seed, n, s.index)];
            let in_process_ms = m.replay.cli(s.index, spec);
            m.spawn_ms.push(s.latency_ms - in_process_ms);
            m.timed = 0..s.index + 1;
        }
        m
    });

    // Times at the reference host speed (see `PROBE`), each phase divided
    // by its own host factor; the raw times go to the human-readable lines.
    let factor = |probes: &[f64]| median(probes).map_or(1.0, |p| p / PROBE_REF_MS);
    let (setup_factor, timed_factor) = (factor(&setup_probes), factor(&probes));
    let raw = report(&setup_s, wall_s, &samples, 0.0, None).metrics;
    for s in &mut samples {
        s.latency_ms /= timed_factor;
    }
    let setup_s: Vec<f64> = setup_s.iter().map(|s| s / setup_factor).collect();
    let mut out = report(
        &setup_s,
        wall_s / timed_factor,
        &samples,
        own_peak_rss_mb(),
        measured,
    );
    out.notes.push(format!(
        "host factor (median {PROBE} spawn / {PROBE_REF_MS} ms): set-up {setup_factor:.4}, \
         timed {timed_factor:.4}"
    ));
    for (name, value, unit) in raw.into_iter().filter(|&(n, _, _)| n != "cost_ratio") {
        out.notes.push(format!("raw {name} {value:.4} {unit}"));
    }
    Ok(out)
}

/// Times one spawn of [`PROBE`].
fn probe_ms() -> Result<f64, String> {
    let t0 = Instant::now();
    let status = Command::new(PROBE)
        .status()
        .map_err(|e| format!("{PROBE}: {e}"))?;
    let took = ms(t0.elapsed());
    if status.success() {
        Ok(took)
    } else {
        Err(format!("{PROBE} exited with {status}"))
    }
}

/// Runs `troyhls-cli` on `spec` to completion.
fn run_cli(cli: &Path, spec: &Spec) -> io::Result<Output> {
    Command::new(cli)
        .args(spec.cli_args())
        .stderr(Stdio::null())
        .output()
}

// ------------------------------------------------------------ daemons

fn start_daemon() -> Result<Service, String> {
    Service::start(ServiceConfig::default()).map_err(|e| format!("daemon start: {e}"))
}

fn stop_daemon(service: Service) {
    service.handle().shutdown();
    let _ = service.join();
}

/// Shared queue of a closed loop that stops only at a whole round of
/// `round` requests, once `budget` has passed and `min` samples are in.
struct RoundQueue {
    next: usize,
    stop_at: Option<usize>,
}

impl RoundQueue {
    fn take(&mut self, round: usize, start: Instant, budget: f64, min: usize) -> Option<usize> {
        if self.stop_at.is_none()
            && self.next % round == 0
            && self.next >= min
            && start.elapsed().as_secs_f64() >= budget
        {
            self.stop_at = Some(self.next);
        }
        if self.stop_at.is_some_and(|stop| self.next >= stop) {
            return None;
        }
        self.next += 1;
        Some(self.next - 1)
    }
}

/// Closed loop over [`CLIENTS`] threads, one connection per request:
/// `request(i)` gives the `i`-th frame, its spec and the design name its
/// certificate must carry; `round` is the stopping granularity.
fn closed_loop(
    addr: SocketAddr,
    round: usize,
    budget: f64,
    min: usize,
    request: &(dyn Fn(usize) -> (String, Spec, String) + Sync),
) -> (Vec<Sample>, f64) {
    let queue = Mutex::new(RoundQueue {
        next: 0,
        stop_at: None,
    });
    let start = Instant::now();
    let mut samples = on_clients(addr, |client| {
        let mut out = Vec::new();
        loop {
            let next = queue
                .lock()
                .expect("queue lock")
                .take(round, start, budget, min);
            let Some(i) = next else { break };
            let (frame, spec, design) = request(i);
            let t0 = Instant::now();
            let reply = client.call(&frame, REPLY_BUDGET);
            let latency_ms = ms(t0.elapsed());
            let (verdict, elapsed_ms) = check_reply(&reply, &spec, &design);
            out.push(Sample {
                index: i,
                latency_ms,
                verdict,
                elapsed_ms,
            });
        }
        out
    });
    let wall_s = start.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.index);
    (samples, wall_s)
}

/// Wire-side layer numbers every daemon workload reports.
fn wire_layers(m: &mut Measured, samples: &[Sample]) {
    for s in samples {
        if let Some(e) = s.elapsed_ms {
            m.handler_ms.push(e);
            m.outside_handler_ms.push(s.latency_ms - e);
        }
    }
}

/// Replays the set-up frames (to fill the replay's cache), then the
/// timed frames in order until `seconds` pass; ids of timed requests
/// start at `setup.len()`.
fn replay_frames(m: &mut Measured, setup: &[String], timed: &[String], seconds: f64) {
    m.replay.warming = true;
    for (r, frame) in setup.iter().enumerate() {
        m.replay.frame(r, frame);
    }
    m.replay.warming = false;
    let first = setup.len();
    m.timed = first..first;
    let start = Instant::now();
    for (k, frame) in timed.iter().enumerate() {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        m.replay.frame(first + k, frame);
        m.timed = first..first + k + 1;
    }
}

fn daemon_fresh(opts: &Options) -> Result<Report, String> {
    let paper = paper_problems();
    let n = paper.len();
    let (setup_s, service) = setups(
        |k| {
            // Set-up: bind, and serve one fresh tiny solve end to end.
            let service = start_daemon()?;
            let tiny = &by_ids(&["tiny.0"])[0];
            let name = format!("warm_{k}");
            let reply = Client::per_request(service.local_addr())
                .call(&tiny.frame("warm", Some(&name), DEADLINE_MS), REPLY_BUDGET);
            match check_reply(&reply, tiny, &name).0 {
                Verdict::Ok { .. } => Ok(service),
                Verdict::Failed(m) | Verdict::Wrong(m) => Err(format!("warm-up: {m}")),
            }
        },
        stop_daemon,
    )?;

    let seed = opts.seed;
    let request = |i: usize| {
        let spec = paper[round_item(seed, n, i)].clone();
        let name = fresh_name(&spec, seed, i);
        (
            spec.frame(&i.to_string(), Some(&name), DEADLINE_MS),
            spec,
            name,
        )
    };
    let before = service.stats();
    let (samples, wall_s) = closed_loop(
        service.local_addr(),
        n,
        wire_seconds(opts),
        min_samples(opts),
        &request,
    );
    let counters = service_delta(before, service.stats());
    stop_daemon(service);
    let rss = own_peak_rss_mb();

    let measured = opts.trace.then(|| {
        let mut m = Measured {
            layers: &DAEMON_LAYERS,
            service: Some(counters),
            ..Measured::default()
        };
        wire_layers(&mut m, &samples);
        let timed: Vec<String> = samples.iter().map(|s| request(s.index).0).collect();
        replay_frames(&mut m, &[], &timed, opts.seconds - wire_seconds(opts));
        m
    });
    Ok(report(&setup_s, wall_s, &samples, rss, measured))
}

fn daemon_hot(opts: &Options) -> Result<Report, String> {
    let keys = keyed_frames(&HOT_KEYS);
    let (setup_s, service) = setups(
        |_| {
            let service = start_daemon()?;
            warm(service.local_addr(), &keys)?;
            Ok(service)
        },
        stop_daemon,
    )?;

    let seed = opts.seed;
    let request = |i: usize| {
        let (spec, frame) = &keys[zipf(seed, keys.len(), i)];
        (frame.clone(), spec.clone(), spec.dfg_name().to_owned())
    };
    let addr = service.local_addr();
    let before = service.stats();
    let (samples, wall_s) = closed_loop(addr, 1, wire_seconds(opts), min_samples(opts), &request);
    let counters = service_delta(before, service.stats());

    let measured = opts
        .trace
        .then(|| -> Result<Measured, String> {
            let mut m = Measured {
                layers: &DAEMON_LAYERS,
                service: Some(counters),
                ..Measured::default()
            };
            wire_layers(&mut m, &samples);
            // The same cache-hit frames on one persistent connection and
            // on one connection each.
            let frames: Vec<String> = (0..200).map(|i| request(i).0).collect();
            (m.hit_persistent_us, m.hit_per_connection_us) = paired_round_trips(
                &mut Client::persistent(addr),
                &mut Client::per_request(addr),
                frames.iter(),
            )?;
            let setup: Vec<String> = keys.iter().map(|(_, f)| f.clone()).collect();
            let timed: Vec<String> = samples.iter().map(|s| request(s.index).0).collect();
            replay_frames(&mut m, &setup, &timed, opts.seconds - wire_seconds(opts));
            Ok(m)
        })
        .transpose();
    stop_daemon(service);
    let rss = own_peak_rss_mb();
    Ok(report(&setup_s, wall_s, &samples, rss, measured?))
}

/// Times every frame on `a` and then on `b`, interleaved so both see the
/// same conditions: microseconds per round trip on each.
///
/// # Errors
/// Any call that gets no reply, or a reply whose status is not `ok`: a
/// per-layer time is measured in full or not reported at all.
fn paired_round_trips<'f>(
    a: &mut Client,
    b: &mut Client,
    frames: impl Iterator<Item = &'f String>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (mut on_a, mut on_b) = (Vec::new(), Vec::new());
    for frame in frames {
        for (client, into) in [(&mut *a, &mut on_a), (&mut *b, &mut on_b)] {
            let t0 = Instant::now();
            let reply = client
                .call(frame, REPLY_BUDGET)
                .map_err(|e| format!("paired round trip: {e}"))?;
            let took_us = t0.elapsed().as_secs_f64() * 1e6;
            let status = Json::parse(&reply)
                .and_then(|j| j.get("status").and_then(Json::as_str).map(str::to_owned));
            if status.as_deref() != Some("ok") {
                return Err(format!("paired round trip: status {status:?}"));
            }
            into.push(took_us);
        }
    }
    Ok((on_a, on_b))
}

// ------------------------------------------------------------ cluster

/// One scheduled `cluster-mixed` request.
struct Scheduled {
    at: Duration,
    frame: String,
    spec: Spec,
    design: String,
    fresh: bool,
}

/// `n` requests over `n / CLUSTER_RATE` seconds: exactly one in
/// [`CLUSTER_FRESH_EVERY`] fresh (paper problems in seeded rounds,
/// renamed), the rest spread evenly over the warm keys, in seeded order,
/// at Poisson arrival times (uniform order statistics given the count).
fn cluster_plan(seed: u64, n: usize, warm: &[(Spec, String)]) -> Vec<Scheduled> {
    let paper = paper_problems();
    let fresh = n / CLUSTER_FRESH_EVERY;
    let mut kinds: Vec<(bool, usize)> = (0..fresh)
        .map(|j| (true, j))
        .chain((0..n - fresh).map(|k| (false, k % warm.len())))
        .collect();
    shuffle(&mut kinds, mix(seed, u64::MAX));
    let span = n as f64 / CLUSTER_RATE;
    let mut times: Vec<f64> = (0..n)
        .map(|i| unit(mix(seed ^ 0xA55A, i as u64)) * span)
        .collect();
    times.sort_by(f64::total_cmp);
    kinds
        .into_iter()
        .zip(times)
        .enumerate()
        .map(|(i, ((is_fresh, j), t))| {
            let at = Duration::from_secs_f64(t);
            if is_fresh {
                let spec = paper[round_item(seed, paper.len(), j)].clone();
                let name = fresh_name(&spec, seed, i);
                let frame = spec.frame(&i.to_string(), Some(&name), DEADLINE_MS);
                Scheduled {
                    at,
                    frame,
                    spec,
                    design: name,
                    fresh: true,
                }
            } else {
                let (spec, frame) = &warm[j];
                Scheduled {
                    at,
                    frame: frame.clone(),
                    spec: spec.clone(),
                    design: spec.dfg_name().to_owned(),
                    fresh: false,
                }
            }
        })
        .collect()
}

/// Open loop: request `i` is due at `plan[i].at`; [`CLIENTS`] senders
/// take requests in order, so at most that many are in flight and a
/// request finding both busy waits — which its latency, timed from when
/// it was due, includes. Lateness is the generator's own delay: send
/// time minus the later of due time and the moment a sender was free.
fn open_loop(addr: SocketAddr, plan: &[Scheduled]) -> (Vec<Sample>, Vec<f64>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut results = on_clients(addr, |client| {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(req) = plan.get(i) else { break };
            let free = Instant::now();
            let due = start + req.at;
            if let Some(wait) = due.checked_duration_since(free) {
                std::thread::sleep(wait);
            }
            let late_ms = ms(Instant::now().duration_since(due.max(free)));
            let reply = client.call(&req.frame, REPLY_BUDGET);
            let latency_ms = ms(Instant::now().duration_since(due));
            let (verdict, elapsed_ms) = check_reply(&reply, &req.spec, &req.design);
            let sample = Sample {
                index: i,
                latency_ms,
                verdict,
                elapsed_ms,
            };
            out.push((sample, late_ms));
        }
        out
    });
    let wall_s = start.elapsed().as_secs_f64();
    results.sort_by_key(|(s, _)| s.index);
    let (samples, late) = results.into_iter().unzip();
    (samples, late, wall_s)
}

fn start_cluster(warm_frames: &[(Spec, String)]) -> Result<Cluster, String> {
    let cluster = Cluster::start(ClusterConfig {
        workers: 3,
        ..ClusterConfig::default()
    })
    .map_err(|e| format!("cluster start: {e}"))?;
    warm(cluster.local_addr(), warm_frames)?;
    // Write-behind is asynchronous: wait until every warm key has its
    // replica, so the timed phase starts from a settled cache tier.
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.stats().replicas_put < warm_frames.len() as u64 {
        if Instant::now() >= deadline {
            return Err("write-behind replicas did not land within 10 s".to_owned());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(cluster)
}

fn stop_cluster(cluster: Cluster) {
    cluster.handle().shutdown();
    let _ = cluster.join();
}

fn cluster_mixed(opts: &Options) -> Result<Report, String> {
    let warm_frames = keyed_frames(&CLUSTER_WARM_KEYS);
    let (setup_s, cluster) = setups(|_| start_cluster(&warm_frames), stop_cluster)?;

    let n = ((wire_seconds(opts) * CLUSTER_RATE).ceil() as usize).max(min_samples(opts));
    let plan = cluster_plan(opts.seed, n, &warm_frames);
    let addr = cluster.local_addr();
    let handle = cluster.handle();
    let (router_before, workers_before) = (cluster.stats(), workers_stats(&handle));
    let (samples, late_ms, wall_s) = open_loop(addr, &plan);
    let (router_after, workers_after) = (cluster.stats(), workers_stats(&handle));
    let late_max_ms = late_ms.iter().copied().fold(0.0, f64::max);

    let measured = opts
        .trace
        .then(|| -> Result<Measured, String> {
            let fresh = plan.iter().filter(|r| r.fresh).count();
            let mut m = Measured {
                layers: &DAEMON_LAYERS,
                service: Some(service_delta(workers_before, workers_after)),
                router: Some(RouterCounters {
                    requests: router_after.requests - router_before.requests,
                    probes: router_after.probes - router_before.probes,
                    probe_hits: router_after.probe_hits - router_before.probe_hits,
                    replicas_put: router_after.replicas_put - router_before.replicas_put,
                    read_repairs: router_after.read_repairs - router_before.read_repairs,
                    failovers: router_after.failovers - router_before.failovers,
                }),
                fresh,
                late_ms,
                ..Measured::default()
            };
            wire_layers(&mut m, &samples);
            let direct = start_daemon()?;
            let cost = warm(direct.local_addr(), &warm_frames)
                .and_then(|()| router_cost(&mut m, addr, direct.local_addr(), &plan));
            stop_daemon(direct);
            cost?;
            let setup: Vec<String> = warm_frames.iter().map(|(_, f)| f.clone()).collect();
            let timed: Vec<String> = plan.iter().map(|r| r.frame.clone()).collect();
            replay_frames(&mut m, &setup, &timed, opts.seconds - wire_seconds(opts));
            Ok(m)
        })
        .transpose();
    stop_cluster(cluster);
    let rss = own_peak_rss_mb();
    let mut out = report(&setup_s, wall_s, &samples, rss, measured?);
    out.late_max_ms = late_max_ms;
    Ok(out)
}

/// Router cost of a cache hit: the plan's hit frames through the router
/// and straight to `direct`, a standalone daemon warmed with the same
/// keys, interleaved, each on a persistent connection so the difference
/// is the router's own work (probe hops included), not the client's
/// connects.
///
/// # Errors
/// Either side failing a round trip; the metric is then not reported.
fn router_cost(
    m: &mut Measured,
    router: SocketAddr,
    direct: SocketAddr,
    plan: &[Scheduled],
) -> Result<(), String> {
    let hits = plan.iter().filter(|r| !r.fresh).take(100);
    (m.router_hit_us, m.direct_hit_us) = paired_round_trips(
        &mut Client::persistent(router),
        &mut Client::persistent(direct),
        hits.map(|r| &r.frame),
    )
    .map_err(|e| format!("router cost: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn manifest_lists_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str, field: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let get = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
                    (get("name"), get(field))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(list("end_to_end", "unit"), own(&END_TO_END));
        assert_eq!(list("per_layer", "unit"), own(&crate::layers::PER_LAYER));
        let names: Vec<String> = list("workloads", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn inputs_are_a_pure_function_of_seed_and_index() {
        assert_eq!(round_item(7, 25, 30), round_item(7, 25, 30));
        assert_eq!(zipf(7, 16, 1234), zipf(7, 16, 1234));
        let a = cluster_plan(3, 120, &keyed_frames(&CLUSTER_WARM_KEYS));
        let b = cluster_plan(3, 120, &keyed_frames(&CLUSTER_WARM_KEYS));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.frame == y.frame && x.at == y.at));
        let c = cluster_plan(4, 120, &keyed_frames(&CLUSTER_WARM_KEYS));
        assert!(a.iter().zip(&c).any(|(x, y)| x.frame != y.frame));
    }

    #[test]
    fn whole_rounds_cover_every_problem_equally() {
        let mut counts = [0usize; 25];
        for i in 0..75 {
            counts[round_item(11, 25, i)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 3), "{counts:?}");
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut counts = [0usize; 16];
        for i in 0..20_000 {
            counts[zipf(5, 16, i)] += 1;
        }
        assert!(counts.windows(2).take(4).all(|w| w[0] > w[1]), "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn cluster_plan_mix_and_schedule() {
        let warm = keyed_frames(&CLUSTER_WARM_KEYS);
        let plan = cluster_plan(9, 120, &warm);
        assert_eq!(plan.iter().filter(|r| r.fresh).count(), 24);
        for (spec, frame) in &warm {
            let hits = plan
                .iter()
                .filter(|r| !r.fresh && &r.frame == frame)
                .count();
            assert_eq!(hits, 8, "{}", spec.id);
        }
        assert!(plan.windows(2).all(|w| w[0].at <= w[1].at));
        let span = Duration::from_secs_f64(120.0 / CLUSTER_RATE);
        assert!(plan.last().expect("non-empty").at <= span);
        let names: std::collections::HashSet<&str> = plan
            .iter()
            .filter(|r| r.fresh)
            .map(|r| r.design.as_str())
            .collect();
        assert_eq!(names.len(), 24, "every fresh request is a new key");
    }

    #[test]
    fn router_cost_fails_when_the_direct_daemon_is_unavailable() {
        let warm_frames = keyed_frames(&["tiny.0"]);
        let plan = cluster_plan(1, 10, &warm_frames);
        // A warmed daemon stands in for the router; the direct side is a
        // port nobody listens on.
        let router = start_daemon().expect("daemon");
        warm(router.local_addr(), &warm_frames).expect("warm");
        let closed = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("free port");
        let mut m = Measured::default();
        let cost = router_cost(&mut m, router.local_addr(), closed, &plan);
        stop_daemon(router);
        assert!(cost.is_err(), "{cost:?}");
    }

    #[test]
    fn checks_reject_wrong_answers() {
        let fig5 = &by_ids(&["fig5"])[0];
        let ok = Ok(r#"{"status":"ok","cost":4160,"certificate":{"design":"polynom","single_vendor_safe":true}}"#.to_owned());
        assert!(matches!(
            check_reply(&ok, fig5, "polynom").0,
            Verdict::Ok { .. }
        ));
        let cheap = Ok(r#"{"status":"ok","cost":4000,"certificate":{"design":"polynom","single_vendor_safe":true}}"#.to_owned());
        assert!(matches!(
            check_reply(&cheap, fig5, "polynom").0,
            Verdict::Wrong(_)
        ));
        let uncertified = Ok(r#"{"status":"ok","cost":4160}"#.to_owned());
        assert!(matches!(
            check_reply(&uncertified, fig5, "polynom").0,
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            check_reply(&ok, fig5, "other").0,
            Verdict::Wrong(_)
        ));
        let shed = Ok(r#"{"status":"rejected","kind":"overloaded"}"#.to_owned());
        assert!(matches!(
            check_reply(&shed, fig5, "polynom").0,
            Verdict::Failed(_)
        ));
    }
}
