//! End-to-end cluster tests: oracle equivalence with a single daemon,
//! the shared cache tier, failover re-dispatch, typed sheds, and the
//! 100+-seed chaos soak pinning the cluster-level contract.
//!
//! The contract under seeded worker-kill / stall / partition /
//! torn-frame faults: every accepted request terminates with a valid
//! certified result, a typed error, or an explicit shed carrying
//! `retry_after_ms` — no request is silently lost — and every `ok`
//! answer is identical (cost and certificate) to what a single
//! chaos-free daemon computes for the same key.
//!
//! `TROY_CLUSTER_SOAK_SEED` pins the soak to one seed (the CI matrix
//! uses this); unset, the full 104-seed sweep runs.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use troy_cluster::{Cluster, ClusterConfig, WorkerState};
use troy_resilience::Chaos;
use troy_service::{parse_request, BreakerConfig, Json, Service, ServiceConfig, MAX_LINE};

// ---------------------------------------------------------------- clients

/// One request on a fresh connection; returns the raw response line,
/// or `None` when none arrives within `budget`.
fn roundtrip_raw(addr: SocketAddr, line: &str, budget: Duration) -> Option<String> {
    match troy_service::roundtrip(addr, line, budget) {
        Ok(line) => Some(line),
        Err(e) if e.kind() == ErrorKind::ConnectionRefused => panic!("connect: {e}"),
        Err(_) => None,
    }
}

/// One request on a fresh connection; returns the parsed response.
fn roundtrip(addr: SocketAddr, line: &str, budget: Duration) -> Option<Json> {
    let line = roundtrip_raw(addr, line, budget)?;
    Some(Json::parse(&line).unwrap_or_else(|| panic!("response must parse: {line}")))
}

/// A `ping` frame padded with insignificant whitespace to exactly `len`
/// bytes (newline excluded).
fn padded_ping(len: usize) -> String {
    let head = "{\"id\":\"p\",\"cmd\":\"ping\"";
    format!("{head}{}}}", " ".repeat(len - head.len() - 1))
}

/// Sends `line` on a fresh connection and reads until the server closes
/// it; returns everything it wrote.
fn send_until_closed(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write frame");
    let mut out = Vec::new();
    stream
        .read_to_end(&mut out)
        .expect("the server closes the connection");
    String::from_utf8(out).expect("utf-8 response")
}

fn status(resp: &Json) -> &str {
    resp.get("status")
        .and_then(Json::as_str)
        .expect("every response carries `status`")
}

fn codes(resp: &Json) -> Vec<String> {
    match resp.get("codes") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|c| c.as_str().map(str::to_owned))
            .collect(),
        _ => Vec::new(),
    }
}

fn stat(resp: &Json, key: &str) -> u64 {
    resp.get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats trailer carries `{key}`"))
}

/// `ok` responses carry a certificate the prover actually issued; no
/// other outcome may look certified.
fn assert_certificate_discipline(resp: &Json) {
    match resp.get("certificate") {
        Some(cert) => {
            assert_eq!(status(resp), "ok", "only `ok` may be certified: {resp:?}");
            assert_eq!(
                cert.get("single_vendor_safe"),
                Some(&Json::Bool(true)),
                "{resp:?}"
            );
            assert!(cert.get("checksum").and_then(Json::as_u64).is_some());
        }
        None => assert_ne!(status(resp), "ok", "`ok` must be certified: {resp:?}"),
    }
}

/// Strips the volatile fields — `elapsed_ms` and everything from the
/// `stats` trailer on — so a routed response can be byte-compared with
/// a single daemon's answer for the same key.
fn canonical(line: &str) -> String {
    let line = line.find(",\"stats\":").map_or(line, |cut| &line[..cut]);
    let mut out = String::new();
    let mut rest = line;
    while let Some(i) = rest.find(",\"elapsed_ms\":") {
        out.push_str(&rest[..i]);
        let after = &rest[i + ",\"elapsed_ms\":".len()..];
        let digits = after
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(after.len());
        rest = &after[digits..];
    }
    out.push_str(rest);
    out
}

// ----------------------------------------------------------- problem zoo

/// A deterministic slow request that still ends `ok`: diff2 at λ = 40
/// under a 21300 area cap, where the exact rung spends its whole node
/// budget on every cheaper license set — seconds of fixed work — before
/// it settles on a best-effort design ($4440). `no_degrade` keeps it on that
/// rung; the generous deadline is headroom for a loaded machine, not
/// part of any contract.
fn slow_synth(id: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"cmd\":\"synth\",\"benchmark\":\"diff2\",\"mode\":\"detection\",\
         \"catalog\":\"paper8\",\"lambda_det\":40,\"area\":21300,\"deadline_ms\":25000,\
         \"no_degrade\":true}}"
    )
}

/// JSON-escapes DFG text for the `dfg` request field.
fn inline(dfg: &str) -> String {
    dfg.replace('\n', "\\n")
}

/// A family of tiny 3-op problems, one distinct cache key per latency
/// variant — the soak's workload.
fn tiny_variant(id: &str, variant: usize, deadline_ms: u64) -> String {
    let dfg = inline("dfg tiny\nop a add\nop b add\nop c mul\nedge a b\nedge b c\n");
    let (det, rec) = [(6, 5), (7, 5), (8, 5), (6, 4), (7, 4), (8, 4)][variant % 6];
    format!(
        "{{\"id\":\"{id}\",\"cmd\":\"synth\",\"dfg\":\"{dfg}\",\"catalog\":\"table1\",\
         \"lambda_det\":{det},\"lambda_rec\":{rec},\"deadline_ms\":{deadline_ms}}}"
    )
}

const FIG5: &str = "{\"id\":\"fig5\",\"cmd\":\"synth\",\"benchmark\":\"polynom\",\
    \"mode\":\"recovery\",\"catalog\":\"table1\",\"lambda_det\":4,\"lambda_rec\":3,\
    \"area\":22000,\"deadline_ms\":2500}";

fn owner_of(cluster: &Cluster, line: &str) -> usize {
    let request = parse_request(line).expect("placement needs a well-formed request");
    cluster.handle().placement(&request).expect("placement")[0]
}

/// Leaves the router holding open connections to worker `owner`: the
/// first tiny key it owns is sent twice (a solve or hit, then a hit).
fn warm_pool_to(cluster: &Cluster, owner: usize) {
    let line = (0..6)
        .map(|v| tiny_variant(&format!("warm{v}"), v, 5000))
        .find(|line| owner_of(cluster, line) == owner)
        .expect("some tiny variant hashes to the owner");
    for _ in 0..2 {
        let resp = roundtrip(cluster.local_addr(), &line, Duration::from_secs(10)).expect("warm");
        assert_eq!(status(&resp), "ok", "{resp:?}");
    }
    assert!(cluster.stats().worker_connects >= 1);
}

// ------------------------------------------------------------------ tests

/// Chaos off: the Fig. 5 oracle through a two-worker router is byte
/// identical (modulo `elapsed_ms` and the `stats` trailer) to the
/// single-daemon answer — fresh solve and cache hit both — and the
/// router's whole lifecycle (ping, stats, shutdown, drain) works.
#[test]
fn fig5_through_the_router_is_byte_identical_to_a_single_daemon() {
    let single = Service::start(ServiceConfig::default()).expect("single daemon");
    let cluster = Cluster::start(ClusterConfig::default()).expect("cluster");
    let single_addr = single.local_addr();
    let router = cluster.local_addr();

    for id in ["fig5", "fig5-again"] {
        let line = FIG5.replace("fig5", id);
        let s = roundtrip_raw(single_addr, &line, Duration::from_secs(15)).expect("single");
        let c = roundtrip_raw(router, &line, Duration::from_secs(15)).expect("routed");
        assert_eq!(
            canonical(&c),
            canonical(&s),
            "routed answers must be byte-identical to the daemon's"
        );
        let parsed = Json::parse(&c).expect("routed response parses");
        assert_eq!(status(&parsed), "ok");
        assert_eq!(parsed.get("cost").and_then(Json::as_u64), Some(4160));
        assert_certificate_discipline(&parsed);
        if id == "fig5-again" {
            assert_eq!(parsed.get("cached"), Some(&Json::Bool(true)));
        }
    }

    let pong = roundtrip(
        router,
        "{\"id\":\"p\",\"cmd\":\"ping\"}",
        Duration::from_secs(2),
    )
    .expect("pong");
    assert_eq!(status(&pong), "pong");

    let stats = roundtrip(
        router,
        "{\"id\":\"s\",\"cmd\":\"stats\"}",
        Duration::from_secs(2),
    )
    .expect("stats");
    assert_eq!(stat(&stats, "requests"), 2);
    assert_eq!(stat(&stats, "routed_ok"), 2);
    assert_eq!(stat(&stats, "sheds"), 0);

    let bye = roundtrip(
        router,
        "{\"id\":\"bye\",\"cmd\":\"shutdown\"}",
        Duration::from_secs(2),
    )
    .expect("shutdown ack");
    assert_eq!(status(&bye), "ok");
    let t0 = Instant::now();
    let snap = cluster.join();
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "drain must finish promptly"
    );
    assert_eq!(snap.routed_ok, 2);
    assert_eq!(snap.malformed, 0);
    single.handle().shutdown();
    let _ = single.join();
}

/// The shared cache tier: cordon the shard owner after it has solved a
/// key, and the next request for that key — now dispatched elsewhere —
/// is answered from the demoted owner's cache over the wire.
#[test]
fn peer_probe_serves_from_a_demoted_owners_cache() {
    let cluster = Cluster::start(ClusterConfig::default()).expect("cluster");
    let router = cluster.local_addr();
    let handle = cluster.handle();

    let first = tiny_variant("warm", 0, 5000);
    let owner = owner_of(&cluster, &first);
    let resp = roundtrip(router, &first, Duration::from_secs(10)).expect("fresh solve");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert!(resp.get("cached").is_none(), "first solve is fresh");
    let fresh_cost = resp.get("cost").and_then(Json::as_u64).expect("cost");

    assert!(handle.drain_worker(owner), "cordon the owner");
    assert_eq!(handle.worker_state(owner), Some(WorkerState::Draining));

    let again = tiny_variant("warm-again", 0, 5000);
    let resp = roundtrip(router, &again, Duration::from_secs(10)).expect("peer cache hit");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert_eq!(
        resp.get("cached"),
        Some(&Json::Bool(true)),
        "the answer must come from the demoted owner's cache: {resp:?}"
    );
    assert_eq!(resp.get("cost").and_then(Json::as_u64), Some(fresh_cost));
    assert_certificate_discipline(&resp);
    assert!(stat(&resp, "probe_hits") >= 1, "{resp:?}");
    let worker_snap = handle.worker_stats(owner).expect("owner stats");
    assert!(
        worker_snap.probe_hits >= 1,
        "the owner answered the probe: {worker_snap:?}"
    );

    handle.shutdown();
    let _ = cluster.join();
}

/// Graceful rebalance: after a worker joins, keys it claims are served
/// with the previous owner's warm cache via a peer probe — solved work
/// is never re-spent on a join.
#[test]
fn join_rebalance_reuses_the_previous_owners_cache() {
    let config = ClusterConfig {
        workers: 1,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).expect("cluster");
    let router = cluster.local_addr();
    let handle = cluster.handle();

    // Warm w0's cache with every variant, remembering costs.
    let mut costs = Vec::new();
    for v in 0..6 {
        let resp = roundtrip(
            router,
            &tiny_variant(&format!("pre{v}"), v, 5000),
            Duration::from_secs(10),
        )
        .expect("warmup");
        assert_eq!(status(&resp), "ok", "{resp:?}");
        costs.push(resp.get("cost").and_then(Json::as_u64).expect("cost"));
    }

    let joiner = handle.add_worker().expect("join");
    assert_eq!(handle.worker_count(), 2);

    // Some variant's ownership moved to the joiner (the ring seed and
    // problems are fixed, so this is deterministic).
    let mut moved = None;
    for v in 0..6 {
        let line = tiny_variant(&format!("post{v}"), v, 5000);
        if owner_of(&cluster, &line) == joiner {
            moved = Some((v, line));
            break;
        }
    }
    let (v, line) = moved.expect("the joiner must claim a share of six keys");
    let resp = roundtrip(router, &line, Duration::from_secs(10)).expect("rebalanced request");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert_eq!(
        resp.get("cached"),
        Some(&Json::Bool(true)),
        "the previous owner's cache must serve the moved key: {resp:?}"
    );
    assert_eq!(resp.get("cost").and_then(Json::as_u64), Some(costs[v]));
    assert!(stat(&resp, "probe_hits") >= 1);

    handle.shutdown();
    let _ = cluster.join();
}

/// Failover re-dispatch, deterministic variant: with the shard owner
/// crash-stopped before dispatch, the request is served by the backup
/// worker, tagged `TS005`, with the identical certified result.
#[test]
fn killed_owner_fails_over_with_ts005_and_an_identical_certificate() {
    killed_owner_fails_over(false);
}

/// The same, with the router's connections to the owner warm at the kill.
#[test]
fn killed_owner_fails_over_with_ts005_and_an_identical_certificate_from_a_warm_pool() {
    killed_owner_fails_over(true);
}

fn killed_owner_fails_over(warm_pool: bool) {
    let single = Service::start(ServiceConfig::default()).expect("single daemon");
    let cluster = Cluster::start(ClusterConfig::default()).expect("cluster");
    let router = cluster.local_addr();
    let handle = cluster.handle();

    let reference =
        roundtrip(single.local_addr(), FIG5, Duration::from_secs(15)).expect("reference fig5");
    assert_eq!(status(&reference), "ok");

    let owner = owner_of(&cluster, FIG5);
    if warm_pool {
        warm_pool_to(&cluster, owner);
    }
    assert!(handle.kill_worker(owner));
    assert_eq!(handle.worker_state(owner), Some(WorkerState::Dead));

    let resp = roundtrip(router, FIG5, Duration::from_secs(15)).expect("failover response");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert_eq!(resp.get("cost").and_then(Json::as_u64), Some(4160));
    assert!(
        codes(&resp).contains(&"TS005".to_owned()),
        "a backup-served request is tagged TS005: {resp:?}"
    );
    assert_eq!(
        resp.get("certificate"),
        reference.get("certificate"),
        "failover re-dispatch must yield the identical certified result"
    );

    handle.shutdown();
    let _ = cluster.join();
    single.handle().shutdown();
    let _ = single.join();
}

/// Failover re-dispatch, mid-flight variant: the owner is killed while
/// a slow request is in flight; the router observes EOF and re-hashes
/// to the backup with the remaining deadline intact, so the client
/// still gets its `ok` — tagged `TS005` — well inside the original
/// budget.
#[test]
fn mid_flight_worker_kill_re_dispatches_with_the_remaining_deadline() {
    mid_flight_worker_kill_re_dispatches(false);
}

/// The same, dispatched on a pooled connection to the owner.
#[test]
fn mid_flight_worker_kill_re_dispatches_with_the_remaining_deadline_from_a_warm_pool() {
    mid_flight_worker_kill_re_dispatches(true);
}

fn mid_flight_worker_kill_re_dispatches(warm_pool: bool) {
    let cluster = Cluster::start(ClusterConfig::default()).expect("cluster");
    let router = cluster.local_addr();
    let handle = cluster.handle();

    // Still in flight when the kill lands 400 ms in; the backup
    // re-solves from scratch while sibling tests hold the cores.
    let line = slow_synth("slow");
    let owner = owner_of(&cluster, &line);
    if warm_pool {
        warm_pool_to(&cluster, owner);
    }

    let t0 = Instant::now();
    let client = {
        let line = line.clone();
        std::thread::spawn(move || roundtrip(router, &line, Duration::from_secs(40)))
    };
    std::thread::sleep(Duration::from_millis(400));
    assert!(handle.kill_worker(owner), "kill the owner mid-flight");

    let resp = client
        .join()
        .expect("client thread")
        .expect("the request must not be silently lost");
    let elapsed = t0.elapsed();
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert!(
        codes(&resp).contains(&"TS005".to_owned()),
        "mid-flight failover is tagged TS005: {resp:?}"
    );
    assert!(stat(&resp, "failovers") >= 1, "{resp:?}");
    assert!(
        elapsed < Duration::from_secs(30),
        "re-dispatch happens inside the original budget, never a hang: {elapsed:?}"
    );
    assert_certificate_discipline(&resp);

    handle.shutdown();
    let _ = cluster.join();
}

/// With every worker dead the router sheds explicitly: a typed
/// `unavailable` rejection carrying `TS006` and a `retry_after_ms`
/// hint — never a hang, never silence.
#[test]
fn all_workers_dead_sheds_typed_unavailable_with_ts006() {
    let cluster = Cluster::start(ClusterConfig::default()).expect("cluster");
    let router = cluster.local_addr();
    let handle = cluster.handle();
    assert!(handle.kill_worker(0));
    assert!(handle.kill_worker(1));

    let resp = roundtrip(
        router,
        &tiny_variant("doomed", 0, 2000),
        Duration::from_secs(5),
    )
    .expect("a typed shed, not silence");
    assert_eq!(status(&resp), "rejected", "{resp:?}");
    assert_eq!(resp.get("kind").and_then(Json::as_str), Some("unavailable"));
    assert!(codes(&resp).contains(&"TS006".to_owned()), "{resp:?}");
    assert!(
        resp.get("retry_after_ms").and_then(Json::as_u64).is_some(),
        "sheds carry a back-pressure hint: {resp:?}"
    );
    assert!(resp.get("certificate").is_none());
    assert_eq!(stat(&resp, "sheds"), 1);

    handle.shutdown();
    let _ = cluster.join();
}

/// Satellite: a worker-side overload rejection travels through the
/// router with the *worker's* `retry_after_ms` hint and the serving
/// worker's name — the router relays back-pressure, it does not
/// invent it.
#[test]
fn worker_overload_hints_propagate_through_the_router() {
    let config = ClusterConfig {
        workers: 1,
        max_inflight: 1,
        queue_depth: 1,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).expect("cluster");
    let router = cluster.local_addr();

    // The occupier holds w0's only slot for seconds, well past the
    // point where B and C are shed.
    let holder_line = slow_synth("hold");
    let holder =
        std::thread::spawn(move || roundtrip(router, &holder_line, Duration::from_secs(40)));
    std::thread::sleep(Duration::from_millis(500));

    // B queues (and is shed after its bounded wait); C is shed at once.
    let b_line = tiny_variant("b", 1, 600);
    let b = std::thread::spawn(move || roundtrip(router, &b_line, Duration::from_secs(5)));
    std::thread::sleep(Duration::from_millis(100));
    let c_resp =
        roundtrip(router, &tiny_variant("c", 2, 600), Duration::from_secs(5)).expect("c response");

    for resp in [&b.join().expect("b thread").expect("b response"), &c_resp] {
        assert_eq!(status(resp), "rejected", "{resp:?}");
        assert_eq!(resp.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert!(
            resp.get("retry_after_ms").and_then(Json::as_u64).is_some(),
            "the worker's own hint must survive the relay: {resp:?}"
        );
        assert!(codes(resp).contains(&"TS001".to_owned()), "{resp:?}");
        assert_eq!(
            resp.get("worker").and_then(Json::as_str),
            Some("w0"),
            "typed overload errors surface the worker id: {resp:?}"
        );
        assert!(stat(resp, "relayed_rejects") >= 1, "{resp:?}");
    }

    let holder_resp = holder.join().expect("holder thread").expect("holder");
    assert_eq!(status(&holder_resp), "ok", "{holder_resp:?}");

    cluster.handle().shutdown();
    let _ = cluster.join();
}

/// The router diagnoses hostile frames itself, with cluster counters in
/// the trailer.
#[test]
fn router_rejects_malformed_frames_with_a_typed_diagnosis() {
    let cluster = Cluster::start(ClusterConfig::default()).expect("cluster");
    let router = cluster.local_addr();

    let resp = roundtrip(router, "{\"id\":1,]]]", Duration::from_secs(5))
        .expect("malformed lines are diagnosed, not dropped");
    assert_eq!(status(&resp), "rejected", "{resp:?}");
    assert_eq!(resp.get("kind").and_then(Json::as_str), Some("malformed"));
    assert_eq!(stat(&resp, "malformed"), 1);

    cluster.handle().shutdown();
    let _ = cluster.join();
}

/// The router frames with the daemon's reader: a line of exactly
/// `MAX_LINE` bytes is routed, one byte more is refused `malformed` and
/// its connection closed.
#[test]
fn router_enforces_the_line_limit_on_the_line_itself() {
    let cluster = Cluster::start(ClusterConfig::default()).expect("cluster");
    let router = cluster.local_addr();
    let at_limit = padded_ping(MAX_LINE);
    assert_eq!(at_limit.len(), MAX_LINE);
    let resp = roundtrip(router, &at_limit, Duration::from_secs(10))
        .expect("a line of exactly MAX_LINE bytes is served");
    assert_eq!(status(&resp), "pong", "{resp:?}");

    let reply = send_until_closed(router, &padded_ping(MAX_LINE + 1));
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 1, "one diagnosis, then the close: {reply}");
    let resp = Json::parse(lines[0]).expect("the rejection parses");
    assert_eq!(status(&resp), "rejected", "{resp:?}");
    assert_eq!(resp.get("kind").and_then(Json::as_str), Some("malformed"));
    assert_eq!(stat(&resp, "malformed"), 1);

    cluster.handle().shutdown();
    let _ = cluster.join();
}

/// Polls `probe` until it returns true or `budget` elapses.
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

/// Write-behind replication: after the owner solves a key, its entry is
/// copied to a ring successor; killing the owner then serves the hot
/// key from the replica — `cached`, byte-identical certificate, zero
/// re-solves.
#[test]
fn killed_owner_serves_the_hot_key_from_a_replica_without_a_resolve() {
    let config = ClusterConfig {
        workers: 3,
        replication: 2,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).expect("cluster");
    let router = cluster.local_addr();
    let handle = cluster.handle();

    let hot = tiny_variant("hot", 0, 5000);
    let owner = owner_of(&cluster, &hot);
    let fresh = roundtrip(router, &hot, Duration::from_secs(10)).expect("fresh solve");
    assert_eq!(status(&fresh), "ok", "{fresh:?}");
    assert!(fresh.get("cached").is_none(), "first solve is fresh");
    let cost = fresh.get("cost").and_then(Json::as_u64).expect("cost");
    let certificate = fresh.get("certificate").cloned().expect("certificate");

    // The write-behind put is asynchronous; wait for it to land on a
    // successor (its `put_stores` counter proves the certified-store
    // gate accepted the entry) and for the router to have read the
    // successor's answer (`replicas_put`, asserted below).
    let landed = wait_for(Duration::from_secs(5), || {
        handle.stats().replicas_put >= 1
            && (0..3)
                .any(|i| i != owner && handle.worker_stats(i).is_some_and(|s| s.put_stores >= 1))
    });
    assert!(landed, "write-behind must replicate the fresh entry");
    let replica = (0..3)
        .find(|&i| i != owner && handle.worker_stats(i).is_some_and(|s| s.put_stores >= 1))
        .expect("replica index");
    let replica_hits_before = handle.worker_stats(replica).expect("stats").cache_hits;

    assert!(handle.kill_worker(owner), "crash-stop the owner");

    let again = tiny_variant("hot-again", 0, 5000);
    let resp = roundtrip(router, &again, Duration::from_secs(10)).expect("replica hit");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert_eq!(
        resp.get("cached"),
        Some(&Json::Bool(true)),
        "the replica serves from cache — zero re-solves: {resp:?}"
    );
    assert_eq!(resp.get("cost").and_then(Json::as_u64), Some(cost));
    assert_eq!(
        resp.get("certificate"),
        Some(&certificate),
        "the replicated entry must reproduce the identical certificate"
    );
    assert!(
        codes(&resp).contains(&"TS005".to_owned()),
        "a dead owner's key served elsewhere is a failover: {resp:?}"
    );
    assert!(stat(&resp, "replicas_put") >= 1, "{resp:?}");
    let replica_snap = handle.worker_stats(replica).expect("stats");
    assert!(
        replica_snap.cache_hits > replica_hits_before,
        "the answer came from the replica's cache, not a fresh solve"
    );

    handle.shutdown();
    let _ = cluster.join();
}

/// Generation-aware respawn: the supervisor revives a killed worker
/// under a new generation, warms its cache from a ring successor, and
/// requests it then serves carry `TS007`.
#[test]
fn supervisor_respawns_a_killed_worker_with_a_new_generation_and_warm_cache() {
    supervisor_respawns_a_killed_worker(false);
}

/// The same, with the router's connections to the owner warm at the
/// kill: the newcomer must be reached on fresh connections.
#[test]
fn supervisor_respawns_a_killed_worker_with_a_new_generation_and_warm_cache_from_a_warm_pool() {
    supervisor_respawns_a_killed_worker(true);
}

fn supervisor_respawns_a_killed_worker(warm_pool: bool) {
    let config = ClusterConfig {
        workers: 2,
        respawn: true,
        max_respawns: 3,
        replication: 2,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).expect("cluster");
    let router = cluster.local_addr();
    let handle = cluster.handle();

    let hot = tiny_variant("hot", 0, 5000);
    let owner = owner_of(&cluster, &hot);
    let fresh = roundtrip(router, &hot, Duration::from_secs(10)).expect("fresh solve");
    assert_eq!(status(&fresh), "ok", "{fresh:?}");
    let cost = fresh.get("cost").and_then(Json::as_u64).expect("cost");

    // Let write-behind place the entry on the other worker, so the
    // respawned owner has a warm source to pull from.
    let other = 1 - owner;
    assert!(
        wait_for(Duration::from_secs(5), || handle
            .worker_stats(other)
            .is_some_and(|s| s.put_stores >= 1)),
        "write-behind must land before the kill"
    );
    if warm_pool {
        warm_pool_to(&cluster, owner);
    }

    assert!(handle.kill_worker(owner));
    assert!(
        wait_for(Duration::from_secs(10), || handle.worker_state(owner)
            == Some(WorkerState::Live)),
        "the supervisor must revive the dead slot"
    );
    assert_eq!(
        handle.worker_generation(owner),
        Some(1),
        "a respawn bumps the slot generation"
    );
    assert!(
        wait_for(Duration::from_secs(5), || cluster.stats().warmed >= 1),
        "the newcomer's cache is warmed from its ring successors"
    );
    assert!(cluster.stats().respawns >= 1);

    // The hot key still serves, same cost, from cache (warm or replica).
    let again = roundtrip(
        router,
        &tiny_variant("hot-again", 0, 5000),
        Duration::from_secs(10),
    )
    .expect("post-respawn hit");
    assert_eq!(status(&again), "ok", "{again:?}");
    assert_eq!(again.get("cached"), Some(&Json::Bool(true)), "{again:?}");
    assert_eq!(again.get("cost").and_then(Json::as_u64), Some(cost));

    // A fresh key owned by the respawned worker: it solves it (the
    // probation trial) and the response is tagged TS007.
    // Variant 0 is the hot key — already cached — so only 1..6 are
    // genuinely fresh work.
    let fresh_line = (1..6)
        .map(|v| tiny_variant(&format!("after{v}"), v, 5000))
        .find(|line| owner_of(&cluster, line) == owner)
        .expect("some variant hashes to the respawned worker");
    let resp = roundtrip(router, &fresh_line, Duration::from_secs(10)).expect("respawned serve");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert!(
        codes(&resp).contains(&"TS007".to_owned()),
        "work served by a respawned worker is tagged TS007: {resp:?}"
    );
    assert_certificate_discipline(&resp);

    handle.shutdown();
    let _ = cluster.join();
}

/// Durable dispatch journal: a router that crashed with accepted but
/// incomplete entries — including a torn final frame — replays every
/// one of them to a terminal outcome on restart.
#[test]
fn router_restart_replays_incomplete_journal_entries() {
    use troy_cluster::journal::JOURNAL_FILE;
    use troy_cluster::Journal;

    let dir = std::env::temp_dir().join(format!("troy-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A "crashed" router's journal: two accepted entries with no
    // terminal outcome, one completed entry, and a torn final frame.
    {
        let (journal, replay) = Journal::open(&dir, Chaos::disabled()).expect("journal");
        assert!(replay.is_empty());
        journal.accepted(&tiny_variant("lost0", 0, 5000));
        journal.accepted(&tiny_variant("lost1", 1, 5000));
        let done = journal.accepted(&tiny_variant("done", 2, 5000));
        journal.completed(done);
    }
    {
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .expect("open wal");
        wal.write_all(b"TJ1 00ff00ff00ff00ff {\"seq\":99,\"kind\":\"acc")
            .expect("torn tail");
    }

    let config = ClusterConfig {
        journal_dir: Some(dir.clone()),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(config).expect("cluster");
    let router = cluster.local_addr();
    let handle = cluster.handle();

    assert!(
        wait_for(Duration::from_secs(30), || handle.journal_pending()
            == Some(0)),
        "every incomplete entry must reach a terminal outcome"
    );
    assert_eq!(
        cluster.stats().journal_replays,
        2,
        "exactly the two incomplete entries replay — not the completed \
         one, not the torn tail"
    );

    // The replayed work is real: the keys are now warm in the cluster.
    for (id, v) in [("check0", 0), ("check1", 1)] {
        let resp = roundtrip(router, &tiny_variant(id, v, 5000), Duration::from_secs(10))
            .expect("post-replay request");
        assert_eq!(status(&resp), "ok", "{resp:?}");
        assert_eq!(
            resp.get("cached"),
            Some(&Json::Bool(true)),
            "replay solved and cached the journaled request: {resp:?}"
        );
    }

    handle.shutdown();
    let _ = cluster.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: a panic while holding the router's ring or
/// worker locks must not wedge dispatch — the lock guards recover from
/// poisoning instead of unwrapping it into a cascade.
#[test]
fn dispatch_survives_a_panic_while_holding_router_locks() {
    let cluster = Cluster::start(ClusterConfig::default()).expect("cluster");
    let router = cluster.local_addr();
    let handle = cluster.handle();

    let before = roundtrip(
        router,
        &tiny_variant("pre", 0, 5000),
        Duration::from_secs(10),
    )
    .expect("pre-poison solve");
    assert_eq!(status(&before), "ok", "{before:?}");

    handle.poison_locks_for_tests();

    let after = roundtrip(
        router,
        &tiny_variant("post", 1, 5000),
        Duration::from_secs(10),
    )
    .expect("dispatch must survive poisoned locks");
    assert_eq!(status(&after), "ok", "{after:?}");
    assert_certificate_discipline(&after);

    // The cached path and placement (both read the poisoned locks)
    // still work too.
    let again = roundtrip(
        router,
        &tiny_variant("post2", 1, 5000),
        Duration::from_secs(10),
    )
    .expect("cached after poison");
    assert_eq!(again.get("cached"), Some(&Json::Bool(true)), "{again:?}");
    let _ = owner_of(&cluster, &tiny_variant("post3", 2, 5000));

    handle.shutdown();
    let _ = cluster.join();
}

/// The tentpole soak: 104 seeds (or the one in
/// `TROY_CLUSTER_SOAK_SEED`) of a three-worker cluster under seeded
/// dispatch faults — worker kills, stalls, partitions, torn frames.
/// Every request terminates with a typed outcome; every `ok` matches
/// the single-daemon cost and certificate for its key; across the
/// sweep every fault family actually fires.
#[test]
fn seeded_cluster_chaos_soak_never_loses_a_request() {
    // Reference answers from one chaos-free daemon, per problem variant.
    let reference = Service::start(ServiceConfig::default()).expect("reference daemon");
    let mut expected: Vec<(u64, Option<Json>)> = Vec::new();
    for v in 0..6 {
        let resp = roundtrip(
            reference.local_addr(),
            &tiny_variant(&format!("ref{v}"), v, 8000),
            Duration::from_secs(15),
        )
        .expect("reference solve");
        assert_eq!(status(&resp), "ok", "{resp:?}");
        expected.push((
            resp.get("cost").and_then(Json::as_u64).expect("cost"),
            resp.get("certificate").cloned(),
        ));
    }
    reference.handle().shutdown();
    let _ = reference.join();

    let seeds: Vec<u64> = match std::env::var("TROY_CLUSTER_SOAK_SEED") {
        Ok(v) => vec![v.trim().parse().expect("TROY_CLUSTER_SOAK_SEED is a u64")],
        Err(_) => (1..=104).collect(),
    };
    let full_sweep = seeds.len() > 1;

    let mut total = troy_cluster::ClusterSnapshot::default();
    let mut responses = 0u64;
    for &seed in &seeds {
        let wal_dir =
            std::env::temp_dir().join(format!("troy-soak-wal-{seed}-{}", std::process::id()));
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
        let cluster = Cluster::start(config).expect("cluster");
        let router = cluster.local_addr();
        let handle = cluster.handle();

        for i in 0..10usize {
            // Variants repeat within a seed so the cache tier is
            // genuinely exercised alongside the faults.
            let variant = (i % 4) + usize::try_from(seed % 3).expect("small");
            let id = format!("s{seed}r{i}");
            let line = tiny_variant(&id, variant, 3000);
            let resp = roundtrip(router, &line, Duration::from_secs(10)).unwrap_or_else(|| {
                panic!("seed {seed} request {id}: silently lost — contract broken")
            });
            responses += 1;
            assert_eq!(resp.get("id").and_then(Json::as_str), Some(id.as_str()));
            assert_certificate_discipline(&resp);
            match status(&resp) {
                "ok" => {
                    let (cost, cert) = &expected[variant % 6];
                    assert_eq!(
                        resp.get("cost").and_then(Json::as_u64),
                        Some(*cost),
                        "seed {seed} {id}: routed cost must match the single daemon: {resp:?}"
                    );
                    assert_eq!(
                        resp.get("certificate"),
                        cert.as_ref(),
                        "seed {seed} {id}: routed certificate must match the single daemon"
                    );
                }
                "degraded" => {}
                "rejected" => {
                    let kind = resp.get("kind").and_then(Json::as_str).expect("kind");
                    if matches!(kind, "unavailable" | "overloaded" | "circuit_open") {
                        assert!(
                            resp.get("retry_after_ms").and_then(Json::as_u64).is_some(),
                            "seed {seed} {id}: sheds carry retry_after_ms: {resp:?}"
                        );
                    }
                    if kind == "unavailable" {
                        assert!(codes(&resp).contains(&"TS006".to_owned()), "{resp:?}");
                    }
                }
                "error" => {
                    assert!(
                        resp.get("kind").and_then(Json::as_str).is_some(),
                        "errors are typed: {resp:?}"
                    );
                }
                other => panic!("seed {seed} {id}: unexpected status `{other}`: {resp:?}"),
            }
        }

        // Self-heal convergence: every accepted request has a journaled
        // terminal outcome, and every mid-sweep Dead worker is Live
        // again under a new generation (the respawn budget of 32 is far
        // beyond what a 20%-storm chain can consume).
        assert!(
            wait_for(Duration::from_secs(10), || handle.journal_pending()
                == Some(0)),
            "seed {seed}: journal entries left without a terminal outcome"
        );
        assert!(
            wait_for(Duration::from_secs(15), || (0..3)
                .all(|i| handle.worker_state(i) == Some(WorkerState::Live))),
            "seed {seed}: a dead worker was never respawned"
        );
        if handle.stats().respawns > 0 {
            assert!(
                (0..3).any(|i| handle.worker_generation(i).unwrap_or(0) > 0),
                "seed {seed}: a respawn must bump some slot's generation"
            );
        }

        handle.shutdown();
        let snap = cluster.join();
        let _ = std::fs::remove_dir_all(&wal_dir);
        total.requests += snap.requests;
        total.routed_ok += snap.routed_ok;
        total.routed_error += snap.routed_error;
        total.relayed_rejects += snap.relayed_rejects;
        total.sheds += snap.sheds;
        total.probes += snap.probes;
        total.probe_hits += snap.probe_hits;
        total.failovers += snap.failovers;
        total.respawns += snap.respawns;
        total.replicas_put += snap.replicas_put;
        total.read_repairs += snap.read_repairs;
        total.warmed += snap.warmed;
        total.journal_appends += snap.journal_appends;
        total.journal_replays += snap.journal_replays;
        total.chaos_kills += snap.chaos_kills;
        total.chaos_partitions += snap.chaos_partitions;
        total.chaos_torn += snap.chaos_torn;
        total.chaos_stalls += snap.chaos_stalls;
        total.chaos_respawn_storms += snap.chaos_respawn_storms;
        total.chaos_replica_drops += snap.chaos_replica_drops;
        total.chaos_journal_torn += snap.chaos_journal_torn;
    }

    assert_eq!(
        responses,
        10 * seeds.len() as u64,
        "every request got exactly one response"
    );
    assert!(total.routed_ok > 0, "the sweep must serve real work");
    assert!(total.probe_hits > 0, "the cache tier must fire: {total:?}");
    if full_sweep {
        // 104 seeds must exercise every fault family and the failover
        // path; a single-seed CI leg only pins the contract.
        assert!(total.chaos_kills > 0, "kills must fire: {total:?}");
        assert!(
            total.chaos_partitions > 0,
            "partitions must fire: {total:?}"
        );
        assert!(total.chaos_torn > 0, "torn frames must fire: {total:?}");
        assert!(total.chaos_stalls > 0, "stalls must fire: {total:?}");
        assert!(total.failovers > 0, "failover must fire: {total:?}");
        // The self-healing layers and their fault families.
        assert!(total.respawns > 0, "respawn must fire: {total:?}");
        assert!(
            total.chaos_respawn_storms > 0,
            "respawn storms must fire: {total:?}"
        );
        assert!(total.replicas_put > 0, "write-behind must fire: {total:?}");
        assert!(
            total.chaos_replica_drops > 0,
            "replica drops must fire: {total:?}"
        );
        assert!(
            total.journal_appends > 0,
            "the journal must record accepts: {total:?}"
        );
        assert!(
            total.chaos_journal_torn > 0,
            "torn journal appends must fire: {total:?}"
        );
    }
}
