//! `cluster-bench`: committed self-healing cluster record.
//!
//! ```text
//! cargo run --release -p troy-bench --bin cluster-bench            # regenerate BENCH_cluster.json
//! cargo run --release -p troy-bench --bin cluster-bench -- --check # gate against the committed file
//! ```
//!
//! Two phases, both against an in-process [`troy_cluster::Cluster`]:
//!
//! 1. **Replica drill** (chaos off, deterministic): solve the six tiny
//!    workload keys through a three-worker router with replication 2,
//!    wait for write-behind to land, kill one key's owner, and re-request
//!    every key — each must come back from cache, so killing an owner
//!    costs **zero re-solves**.
//! 2. **Chaos sweep** (seeds 1..=12): the soak workload — ten requests
//!    per seed against three workers — with respawn, replication and the
//!    dispatch journal all enabled under seeded dispatch + self-heal
//!    faults, accumulating availability, failover count and the
//!    replica-hit rate.
//!
//! `--check` re-runs both phases and fails on: any lost request (ever),
//! a drill re-solve, availability more than 5 points below the committed
//! record, a replica-hit rate more than 10 points below it, or a sweep
//! in which failover or respawn never fired.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use troy_cluster::{Cluster, ClusterConfig, ClusterSnapshot, WorkerState};
use troy_resilience::Chaos;
use troy_service::{parse_request, BreakerConfig, Json};

/// Chaos seeds of the committed sweep.
const SWEEP_SEEDS: std::ops::RangeInclusive<u64> = 1..=12;

/// Requests per sweep seed (mirrors the cluster soak).
const REQUESTS_PER_SEED: usize = 10;

// ---------------------------------------------------------------- client

fn roundtrip(addr: SocketAddr, line: &str, budget: Duration) -> Option<Json> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .ok()?;
    stream.write_all(line.as_bytes()).ok()?;
    stream.write_all(b"\n").ok()?;
    let deadline = Instant::now() + budget;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    while Instant::now() < deadline {
        if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let text = String::from_utf8_lossy(&buf[..nl]).into_owned();
            return Json::parse(&text);
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    None
}

fn tiny_variant(id: &str, variant: usize, deadline_ms: u64) -> String {
    let dfg = "dfg tiny\\nop a add\\nop b add\\nop c mul\\nedge a b\\nedge b c\\n";
    let (det, rec) = [(6, 5), (7, 5), (8, 5), (6, 4), (7, 4), (8, 4)][variant % 6];
    format!(
        "{{\"id\":\"{id}\",\"cmd\":\"synth\",\"dfg\":\"{dfg}\",\"catalog\":\"table1\",\
         \"lambda_det\":{det},\"lambda_rec\":{rec},\"deadline_ms\":{deadline_ms}}}"
    )
}

fn wait_for(budget: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + budget;
    loop {
        if probe() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

// ---------------------------------------------------------------- phases

#[derive(Default)]
struct Drill {
    keys: usize,
    cached: usize,
    resolves: usize,
    lost: usize,
}

/// Phase 1: deterministic replica drill (chaos off).
fn run_drill() -> Drill {
    let config = ClusterConfig {
        workers: 3,
        replication: 2,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).expect("drill cluster");
    let router = cluster.local_addr();
    let handle = cluster.handle();

    let mut drill = Drill {
        keys: 6,
        ..Drill::default()
    };
    for v in 0..6 {
        let resp = roundtrip(
            router,
            &tiny_variant(&format!("warm{v}"), v, 8000),
            Duration::from_secs(15),
        )
        .expect("drill warmup");
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("ok"),
            "drill warmup must solve: {resp:?}"
        );
    }
    // Write-behind is asynchronous: each fresh solve puts one replica.
    let landed = wait_for(Duration::from_secs(10), || {
        cluster.stats().replicas_put >= 6
    });
    assert!(landed, "write-behind must land all six replicas");

    let victim = tiny_variant("warm0", 0, 8000);
    let owner = handle
        .placement(&parse_request(&victim).expect("victim parses"))
        .expect("placement")[0];
    assert!(handle.kill_worker(owner), "drill kills one owner");

    for v in 0..6 {
        match roundtrip(
            router,
            &tiny_variant(&format!("again{v}"), v, 8000),
            Duration::from_secs(15),
        ) {
            Some(resp) => {
                if resp.get("cached") == Some(&Json::Bool(true)) {
                    drill.cached += 1;
                } else {
                    drill.resolves += 1;
                }
            }
            None => drill.lost += 1,
        }
    }

    handle.shutdown();
    let _ = cluster.join();
    drill
}

#[derive(Default)]
struct Sweep {
    requests: u64,
    answered: u64,
    ok: u64,
    degraded: u64,
    rejected: u64,
    error: u64,
    latency_us_total: u128,
    totals: ClusterSnapshot,
}

impl Sweep {
    fn lost(&self) -> u64 {
        self.requests - self.answered
    }

    fn availability(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.ok + self.degraded) as f64 / self.requests as f64
    }

    fn replica_hit_rate(&self) -> f64 {
        if self.totals.probes == 0 {
            return 0.0;
        }
        self.totals.probe_hits as f64 / self.totals.probes as f64
    }
}

/// Phase 2: the seeded chaos sweep with every self-healing layer on.
fn run_sweep() -> Sweep {
    let mut sweep = Sweep::default();
    for seed in SWEEP_SEEDS {
        let wal_dir = std::env::temp_dir().join(format!(
            "troy-cluster-bench-wal-{seed}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let config = ClusterConfig {
            workers: 3,
            chaos: Chaos::seeded(seed),
            health_interval: Duration::from_millis(50),
            health_timeout: Duration::from_millis(150),
            worker_breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(200),
            },
            default_deadline: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(3),
            dispatch_grace: Duration::from_millis(400),
            respawn: true,
            max_respawns: 32,
            replication: 2,
            journal_dir: Some(wal_dir.clone()),
            ..ClusterConfig::default()
        };
        let cluster = Cluster::start(config).expect("sweep cluster");
        let router = cluster.local_addr();
        for i in 0..REQUESTS_PER_SEED {
            let variant = (i % 4) + usize::try_from(seed % 3).expect("small");
            let line = tiny_variant(&format!("s{seed}r{i}"), variant, 3000);
            sweep.requests += 1;
            let t0 = Instant::now();
            // A `None` is a lost request; the gate catches it.
            if let Some(resp) = roundtrip(router, &line, Duration::from_secs(10)) {
                sweep.answered += 1;
                sweep.latency_us_total += t0.elapsed().as_micros();
                match resp.get("status").and_then(Json::as_str) {
                    Some("ok") => sweep.ok += 1,
                    Some("degraded") => sweep.degraded += 1,
                    Some("rejected") => sweep.rejected += 1,
                    _ => sweep.error += 1,
                }
            }
        }
        // Self-heal convergence, as in the cluster soak: every worker a
        // kill left dead is Live again before shutdown, so the record
        // counts the respawns the schedule calls for however fast the
        // requests themselves were answered.
        let handle = cluster.handle();
        wait_for(Duration::from_secs(15), || {
            (0..3).all(|i| handle.worker_state(i) == Some(WorkerState::Live))
        });
        handle.shutdown();
        let snap = cluster.join();
        let _ = std::fs::remove_dir_all(&wal_dir);
        let t = &mut sweep.totals;
        t.failovers += snap.failovers;
        t.probes += snap.probes;
        t.probe_hits += snap.probe_hits;
        t.respawns += snap.respawns;
        t.replicas_put += snap.replicas_put;
        t.read_repairs += snap.read_repairs;
        t.warmed += snap.warmed;
        t.journal_appends += snap.journal_appends;
        t.chaos_kills += snap.chaos_kills;
        t.chaos_partitions += snap.chaos_partitions;
        t.chaos_torn += snap.chaos_torn;
        t.chaos_stalls += snap.chaos_stalls;
        t.chaos_respawn_storms += snap.chaos_respawn_storms;
        t.chaos_replica_drops += snap.chaos_replica_drops;
        t.chaos_journal_torn += snap.chaos_journal_torn;
    }
    sweep
}

// ---------------------------------------------------------------- record

fn bench_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cluster.json")
}

fn render(drill: &Drill, sweep: &Sweep) -> String {
    let latency_us_mean = if sweep.answered == 0 {
        0
    } else {
        sweep.latency_us_total / u128::from(sweep.answered)
    };
    let t = &sweep.totals;
    format!(
        "{{\n  \"schema\": 1,\n  \"note\": \"counts are deterministic in the \
         chaos seeds; availability and replica_hit_rate carry small timing \
         jitter (gated with tolerance); latency_us_mean is informational \
         only\",\n  \"drill\": {{ \"keys\": {}, \"cached\": {}, \"resolves\": {}, \
         \"lost\": {} }},\n  \"sweep\": {{\n    \"seeds\": {}, \"requests\": {}, \
         \"answered\": {}, \"lost\": {},\n    \"ok\": {}, \"degraded\": {}, \
         \"rejected\": {}, \"error\": {},\n    \"availability\": {:.4},\n    \
         \"failovers\": {}, \"probes\": {}, \"probe_hits\": {}, \
         \"replica_hit_rate\": {:.4},\n    \"respawns\": {}, \"replicas_put\": {}, \
         \"read_repairs\": {}, \"warmed\": {}, \"journal_appends\": {},\n    \
         \"chaos\": {{ \"kills\": {}, \"partitions\": {}, \"torn\": {}, \
         \"stalls\": {}, \"respawn_storms\": {}, \"replica_drops\": {}, \
         \"journal_torn\": {} }},\n    \"latency_us_mean\": {}\n  }}\n}}\n",
        drill.keys,
        drill.cached,
        drill.resolves,
        drill.lost,
        SWEEP_SEEDS.count(),
        sweep.requests,
        sweep.answered,
        sweep.lost(),
        sweep.ok,
        sweep.degraded,
        sweep.rejected,
        sweep.error,
        sweep.availability(),
        t.failovers,
        t.probes,
        t.probe_hits,
        sweep.replica_hit_rate(),
        t.respawns,
        t.replicas_put,
        t.read_repairs,
        t.warmed,
        t.journal_appends,
        t.chaos_kills,
        t.chaos_partitions,
        t.chaos_torn,
        t.chaos_stalls,
        t.chaos_respawn_storms,
        t.chaos_replica_drops,
        t.chaos_journal_torn,
        latency_us_mean,
    )
}

/// Pulls a `"key": <number>` value out of the committed JSON — a string
/// scan over our own fixed format, so no JSON dependency is needed.
fn committed_value(text: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let at = text.find(&tag)? + tag.len();
    let digits: String = text[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits.parse().ok()
}

fn check(drill: &Drill, sweep: &Sweep) -> i32 {
    let mut failures = 0;

    // Lost requests are a hard zero — the cluster contract.
    if sweep.lost() == 0 && drill.lost == 0 {
        println!("lost requests: 0 (contract holds)");
    } else {
        eprintln!(
            "FAIL: lost requests: drill {} sweep {}",
            drill.lost,
            sweep.lost()
        );
        failures += 1;
    }

    // The drill's whole point: a dead owner costs zero re-solves.
    if drill.resolves == 0 && drill.cached == drill.keys {
        println!(
            "replica drill: {}/{} keys served from cache after the owner kill",
            drill.cached, drill.keys
        );
    } else {
        eprintln!(
            "FAIL: replica drill re-solved {} of {} keys (cached {})",
            drill.resolves, drill.keys, drill.cached
        );
        failures += 1;
    }

    if sweep.totals.failovers == 0 {
        eprintln!("FAIL: the sweep never exercised failover");
        failures += 1;
    }
    if sweep.totals.respawns == 0 {
        eprintln!("FAIL: the sweep never exercised respawn");
        failures += 1;
    }

    let path = bench_path();
    let Ok(committed) = std::fs::read_to_string(&path) else {
        eprintln!("FAIL: no committed record at {}", path.display());
        return 1;
    };
    for (key, fresh, slack) in [
        ("availability", sweep.availability(), 0.05),
        ("replica_hit_rate", sweep.replica_hit_rate(), 0.10),
    ] {
        let Some(baseline) = committed_value(&committed, key) else {
            eprintln!("FAIL: committed record lacks {key}");
            failures += 1;
            continue;
        };
        let limit = baseline - slack;
        let verdict = if fresh < limit { "REGRESSION" } else { "ok" };
        println!("{key}: committed {baseline:.4}, fresh {fresh:.4} (limit {limit:.4}) {verdict}");
        if fresh < limit {
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("FAIL: {failures} cluster gate(s) tripped");
        1
    } else {
        println!("all cluster gates passed");
        0
    }
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");

    let t0 = Instant::now();
    let drill = run_drill();
    eprintln!(
        "replica drill done in {:.0} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );
    let t0 = Instant::now();
    let sweep = run_sweep();
    eprintln!(
        "chaos sweep ({} seeds) done in {:.0} ms",
        SWEEP_SEEDS.count(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    print!("{}", render(&drill, &sweep));

    if check_mode {
        std::process::exit(check(&drill, &sweep));
    }
    if sweep.lost() > 0 || drill.lost > 0 || drill.resolves > 0 {
        eprintln!("refusing to commit a record with lost requests or drill re-solves");
        std::process::exit(1);
    }
    let path = bench_path();
    std::fs::write(&path, render(&drill, &sweep)).expect("write BENCH_cluster.json");
    println!("wrote {}", path.display());
}
