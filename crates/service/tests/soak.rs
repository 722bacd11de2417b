//! End-to-end soak and oracle tests for the synthesis daemon.
//!
//! Each test boots a real [`Service`] on a loopback port and speaks the
//! newline-delimited JSON protocol over actual sockets. The invariant
//! under test is the daemon's robustness contract: every request — good
//! or evil — terminates in exactly one of {valid design, typed
//! degradation, typed rejection}; the daemon never hangs, never panics
//! out, and drains cleanly.
//!
//! The seeded soak test takes its fault schedule from `TROY_SOAK_SEED`
//! (default 1) via the same deterministic [`Chaos`] injector the
//! supervisor chaos suite uses, so one seed denotes one replayable mix
//! of client behaviors.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use troy_resilience::{Chaos, ServiceFault};
use troy_service::{BreakerConfig, Json, Service, ServiceConfig, MAX_LINE};

// ---------------------------------------------------------------- clients

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

fn send(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).expect("write frame");
    stream.write_all(b"\n").expect("write newline");
}

/// Reads one response line within `budget`; `None` on EOF or timeout.
fn read_line(stream: &mut TcpStream, budget: Duration) -> Option<String> {
    let deadline = Instant::now() + budget;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    while Instant::now() < deadline {
        if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            return Some(String::from_utf8_lossy(&buf[..nl]).into_owned());
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    buf.iter()
        .position(|&b| b == b'\n')
        .map(|nl| String::from_utf8_lossy(&buf[..nl]).into_owned())
}

/// One request on a fresh connection; returns the parsed response, or
/// `None` when none arrives within `budget`.
fn roundtrip(addr: SocketAddr, line: &str, budget: Duration) -> Option<Json> {
    let line = match troy_service::roundtrip(addr, line, budget) {
        Ok(line) => line,
        Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
            panic!("connect to the daemon: {e}")
        }
        Err(_) => return None,
    };
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

/// The certificate discipline every response must honor: `ok` outcomes
/// carry a security certificate whose claims the prover actually makes
/// (so a forged or drifted one cannot slip through rendering), and no
/// other outcome carries one — a degraded or shed response must never
/// look certified.
fn assert_certificate_discipline(resp: &Json) {
    match resp.get("certificate") {
        Some(cert) => {
            assert_eq!(
                status(resp),
                "ok",
                "only `ok` responses may carry a certificate: {resp:?}"
            );
            assert_eq!(
                cert.get("single_vendor_safe"),
                Some(&Json::Bool(true)),
                "{resp:?}"
            );
            assert!(cert.get("design").and_then(Json::as_str).is_some());
            assert!(cert.get("mode").and_then(Json::as_str).is_some());
            assert!(cert.get("checksum").and_then(Json::as_u64).is_some());
            assert!(cert.get("min_collusion_size").and_then(Json::as_u64) >= Some(2));
        }
        None => assert_ne!(
            status(resp),
            "ok",
            "every `ok` response must carry a certificate: {resp:?}"
        ),
    }
}

fn stat(resp: &Json, key: &str) -> u64 {
    resp.get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats trailer carries `{key}`"))
}

// ----------------------------------------------------------- problem zoo

/// diff2 at λ = 14 under a 20000 area cap: the exact solver neither
/// finds a design nor proves there is none in far more than any test
/// deadline (it runs out a 50 s budget), the ILP finds no incumbent, and
/// the greedy heuristic (the grace pass) finds no design either — a
/// deterministic rung failure that does not depend on machine speed.
fn undecidable(id: &str, deadline_ms: u64, no_degrade: bool) -> String {
    format!(
        "{{\"id\":\"{id}\",\"cmd\":\"synth\",\"benchmark\":\"diff2\",\"mode\":\"detection\",\
         \"catalog\":\"paper8\",\"lambda_det\":14,\"area\":20000,\"deadline_ms\":{deadline_ms},\
         \"no_degrade\":{no_degrade}}}"
    )
}

/// JSON-escapes DFG text for the `dfg` request field.
fn inline(dfg: &str) -> String {
    dfg.replace('\n', "\\n")
}

fn tiny_synth(id: &str, deadline_ms: u64) -> String {
    let dfg = inline("dfg tiny\nop a add\nop b add\nop c mul\nedge a b\nedge b c\n");
    format!(
        "{{\"id\":\"{id}\",\"cmd\":\"synth\",\"dfg\":\"{dfg}\",\"catalog\":\"table1\",\
         \"lambda_det\":6,\"lambda_rec\":5,\"deadline_ms\":{deadline_ms}}}"
    )
}

const FIG5: &str = "{\"id\":\"fig5\",\"cmd\":\"synth\",\"benchmark\":\"polynom\",\
    \"mode\":\"recovery\",\"catalog\":\"table1\",\"lambda_det\":4,\"lambda_rec\":3,\
    \"area\":22000,\"deadline_ms\":2500}";

// ------------------------------------------------------------------ tests

/// Chaos off: the paper's Fig. 5 design point survives the service path
/// byte for byte — $4160 on `polynom` under detection+recovery, proven
/// by the exact rung, certified, with no diagnostic codes — and the
/// daemon's whole lifecycle (synth, cache hit, ping, stats, shutdown,
/// drain) works over one connection.
#[test]
fn fig5_oracle_cache_and_lifecycle_through_the_service_path() {
    let service = Service::start(ServiceConfig {
        max_inflight: 2,
        queue_depth: 2,
        default_deadline: Duration::from_secs(10),
        drain_deadline: Duration::from_secs(3),
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = service.local_addr();
    let mut stream = connect(addr);

    send(&mut stream, FIG5);
    let resp = read_line(&mut stream, Duration::from_secs(10)).expect("fig5 response");
    let resp = Json::parse(&resp).expect("fig5 response parses");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert_eq!(resp.get("cost").and_then(Json::as_u64), Some(4160));
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("fig5"));
    // The primary rung proves the optimum; nothing is degraded, so no
    // TS004 (or any other code) rides along.
    assert_eq!(resp.get("backend").and_then(Json::as_str), Some("exact"));
    assert_eq!(resp.get("proven"), Some(&Json::Bool(true)), "{resp:?}");
    assert!(codes(&resp).is_empty(), "{resp:?}");
    assert!(resp.get("elapsed_ms").is_some());
    assert!(resp.get("cached").is_none(), "first solve is not cached");
    let cert = resp
        .get("certificate")
        .expect("a fresh ok response carries the prover's certificate");
    assert_eq!(cert.get("design").and_then(Json::as_str), Some("polynom"));
    assert_eq!(
        cert.get("mode").and_then(Json::as_str),
        Some("detection+recovery")
    );
    assert_eq!(cert.get("single_vendor_safe"), Some(&Json::Bool(true)));
    assert_eq!(
        cert.get("min_collusion_size").and_then(Json::as_u64),
        Some(2)
    );
    assert_eq!(
        cert.get("pair_exposed_cones").and_then(Json::as_u64),
        Some(0)
    );
    let fresh_cert = cert.clone();
    assert!(cert.get("checksum").and_then(Json::as_u64).is_some());

    // The identical problem again: a cache hit, regardless of the
    // per-request deadline (the key deliberately excludes it).
    send(&mut stream, &FIG5.replace("fig5", "fig5-again"));
    let resp = read_line(&mut stream, Duration::from_secs(5)).expect("cached response");
    let resp = Json::parse(&resp).expect("cached response parses");
    assert_eq!(status(&resp), "ok");
    assert_eq!(resp.get("cost").and_then(Json::as_u64), Some(4160));
    assert_eq!(resp.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(resp.get("backend").and_then(Json::as_str), Some("exact"));
    assert_eq!(resp.get("proven"), Some(&Json::Bool(true)), "{resp:?}");
    // The cache hit re-proves the stored binding, so the certificate
    // (checksum included) matches the fresh solve's.
    let cert = resp
        .get("certificate")
        .expect("a cached ok response carries a certificate too");
    assert_eq!(cert, &fresh_cert);

    send(&mut stream, "{\"id\":\"p\",\"cmd\":\"ping\"}");
    let resp = read_line(&mut stream, Duration::from_secs(2)).expect("pong");
    let resp = Json::parse(&resp).expect("pong parses");
    assert_eq!(status(&resp), "pong");

    send(&mut stream, "{\"id\":\"s\",\"cmd\":\"stats\"}");
    let resp = read_line(&mut stream, Duration::from_secs(2)).expect("stats");
    let resp = Json::parse(&resp).expect("stats parses");
    assert_eq!(stat(&resp, "cache_hits"), 1);
    assert_eq!(stat(&resp, "accepted"), 2);

    send(&mut stream, "{\"id\":\"bye\",\"cmd\":\"shutdown\"}");
    let resp = read_line(&mut stream, Duration::from_secs(2)).expect("shutdown ack");
    let resp = Json::parse(&resp).expect("shutdown ack parses");
    assert_eq!(status(&resp), "ok");

    let t0 = Instant::now();
    let snap = service.join();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drain must finish promptly with nothing in flight"
    );
    assert_eq!(snap.completed_ok, 2);
    assert_eq!(snap.cache_hits, 1);
    assert_eq!(snap.panics, 0);
    assert_eq!(snap.malformed, 0);
}

/// The peer cache protocol (`cmd: "probe"`): a probe for a solved key
/// answers with the full cached result — certificate included — without
/// occupying a synthesis slot; a probe for an unknown key answers `miss`
/// instead of solving. This is the wire primitive the cluster router's
/// shared cache tier is built on.
#[test]
fn probe_answers_cache_hits_and_misses_without_synthesizing() {
    let service = Service::start(ServiceConfig::default()).expect("bind");
    let addr = service.local_addr();
    let mut stream = connect(addr);

    // An unknown key is a miss, not a solve: the answer is immediate and
    // the solved-work counters stay untouched.
    let probe_cold = tiny_synth("cold", 5000).replace("\"cmd\":\"synth\"", "\"cmd\":\"probe\"");
    send(&mut stream, &probe_cold);
    let resp = read_line(&mut stream, Duration::from_secs(2)).expect("cold probe answer");
    let resp = Json::parse(&resp).expect("cold probe parses");
    assert_eq!(status(&resp), "miss", "{resp:?}");
    assert!(resp.get("certificate").is_none());

    // Solve once, then probe the same problem under a different id and
    // deadline (the key excludes both): a hit carrying the cached cost
    // and the prover's certificate.
    send(&mut stream, &tiny_synth("warm", 5000));
    let solved = read_line(&mut stream, Duration::from_secs(10)).expect("solve");
    let solved = Json::parse(&solved).expect("solve parses");
    assert_eq!(status(&solved), "ok", "{solved:?}");
    let cost = solved.get("cost").and_then(Json::as_u64).expect("cost");

    let probe_warm = tiny_synth("lookup", 700).replace("\"cmd\":\"synth\"", "\"cmd\":\"probe\"");
    send(&mut stream, &probe_warm);
    let resp = read_line(&mut stream, Duration::from_secs(2)).expect("warm probe answer");
    let resp = Json::parse(&resp).expect("warm probe parses");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("lookup"));
    assert_eq!(resp.get("cost").and_then(Json::as_u64), Some(cost));
    assert_eq!(resp.get("cached"), Some(&Json::Bool(true)));
    assert_certificate_discipline(&resp);
    assert_eq!(stat(&resp, "probes"), 2);
    assert_eq!(stat(&resp, "probe_hits"), 1);

    // A probe with an unparseable problem is a typed bad request.
    send(
        &mut stream,
        "{\"id\":\"bad\",\"cmd\":\"probe\",\"dfg\":\"not a dfg\"}",
    );
    let resp = read_line(&mut stream, Duration::from_secs(2)).expect("bad probe answer");
    let resp = Json::parse(&resp).expect("bad probe parses");
    assert_eq!(status(&resp), "rejected", "{resp:?}");
    assert_eq!(
        resp.get("kind").and_then(Json::as_str),
        Some("bad_request"),
        "{resp:?}"
    );

    send(&mut stream, "{\"id\":\"bye\",\"cmd\":\"shutdown\"}");
    let _ = read_line(&mut stream, Duration::from_secs(2));
    let snap = service.join();
    assert_eq!(snap.probes, 3);
    assert_eq!(snap.probe_hits, 1);
    assert_eq!(snap.completed_ok, 1, "probes never occupy a solve slot");
}

/// With one slot and one queue seat, a long-running synthesis forces the
/// next two requests into typed `overloaded` rejections — one after a
/// bounded queue wait, one instantly — each carrying a `retry_after_ms`
/// hint and the `TS001` diagnostic. Nothing buffers unboundedly, nothing
/// hangs.
#[test]
fn overload_sheds_surplus_requests_with_typed_rejections() {
    let service = Service::start(ServiceConfig {
        max_inflight: 1,
        queue_depth: 1,
        default_deadline: Duration::from_secs(10),
        drain_deadline: Duration::from_secs(3),
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = service.local_addr();

    // The occupier: diff2 at λ = 40 under a 21300 area cap, where the
    // exact rung spends its whole node budget on every cheaper license
    // set (seconds of deterministic work) before it settles on a
    // best-effort design, holding the only slot for that long.
    let holder_line = "{\"id\":\"hold\",\"cmd\":\"synth\",\"benchmark\":\"diff2\",\
        \"mode\":\"detection\",\"catalog\":\"paper8\",\"lambda_det\":40,\"area\":21300,\
        \"deadline_ms\":20000,\"no_degrade\":true}";
    let holder = std::thread::spawn(move || {
        roundtrip(addr, holder_line, Duration::from_secs(25)).expect("holder response")
    });
    // Let the holder get admitted and into the solver.
    std::thread::sleep(Duration::from_millis(500));

    // B waits in the queue (wait budget = deadline/2 = 300 ms), never
    // gets the slot, and is shed with a typed rejection.
    let b_line = tiny_synth("b", 600);
    let b = std::thread::spawn(move || {
        roundtrip(addr, &b_line, Duration::from_secs(5)).expect("b response")
    });
    std::thread::sleep(Duration::from_millis(100));

    // C finds the queue seat taken by B and is shed without waiting.
    let c_resp =
        roundtrip(addr, &tiny_synth("c", 600), Duration::from_secs(5)).expect("c response");

    for resp in [&b.join().expect("b thread"), &c_resp] {
        assert_eq!(status(resp), "rejected", "{resp:?}");
        assert_eq!(resp.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert!(
            resp.get("retry_after_ms").and_then(Json::as_u64).is_some(),
            "overload rejections carry back-pressure hints: {resp:?}"
        );
        assert!(codes(resp).contains(&"TS001".to_owned()), "{resp:?}");
        assert!(
            resp.get("certificate").is_none(),
            "shed requests synthesized nothing, so nothing is certified: {resp:?}"
        );
    }

    let holder_resp = holder.join().expect("holder thread");
    assert_eq!(status(&holder_resp), "ok", "{holder_resp:?}");
    assert_certificate_discipline(&holder_resp);

    service.handle().shutdown();
    let snap = service.join();
    assert_eq!(snap.shed_overload, 2);
    assert_eq!(snap.accepted, 1, "only the holder was admitted");
    assert_eq!(snap.completed_ok, 1);
    assert_eq!(snap.panics, 0);
}

/// Two deterministic timeouts of the primary (exact) rung on a problem it
/// cannot decide trip its circuit breaker; the next request then skips
/// the open rung up front and is answered by annealing, the next rung.
/// With the one prover skipped, that answer is degraded: `TS002` +
/// `TR001` say why, `TS004` that it is uncertified, and it is not
/// stored, so the same problem again is solved afresh, not a hit.
#[test]
fn breaker_opens_after_rung_failures_and_later_requests_fall_back() {
    let service = Service::start(ServiceConfig {
        max_inflight: 2,
        queue_depth: 2,
        default_deadline: Duration::from_secs(10),
        drain_deadline: Duration::from_secs(3),
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(300),
        },
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = service.local_addr();

    for id in ["f1", "f2"] {
        // `no_degrade` pins the run to the primary rung, which gets the
        // whole deadline and times out.
        let resp = roundtrip(addr, &undecidable(id, 400, true), Duration::from_secs(10))
            .expect("failure response");
        assert_eq!(status(&resp), "error", "{resp:?}");
        assert_eq!(resp.get("kind").and_then(Json::as_str), Some("deadline"));
        assert!(codes(&resp).contains(&"TS003".to_owned()), "{resp:?}");
    }

    // The exact breaker is now open: a healthy request is served by the
    // annealing rung, degraded, with the diagnostics saying why — twice,
    // because a degraded answer is never stored.
    for id in ["fig5", "fig5-again"] {
        let line = FIG5.replace("\"fig5\"", &format!("\"{id}\""));
        let resp = roundtrip(addr, &line, Duration::from_secs(10)).expect("fallback response");
        assert_eq!(status(&resp), "degraded", "{resp:?}");
        assert_eq!(
            resp.get("backend").and_then(Json::as_str),
            Some("annealing")
        );
        assert_eq!(resp.get("proven"), Some(&Json::Bool(false)), "{resp:?}");
        assert!(resp.get("cost").and_then(Json::as_u64) >= Some(4160));
        assert_eq!(resp.get("relaxation").and_then(Json::as_u64), Some(0));
        let got = codes(&resp);
        for code in ["TS002", "TR001", "TS004"] {
            assert!(got.contains(&code.to_owned()), "{id}: {got:?}");
        }
        assert!(resp.get("cached").is_none(), "{id}: {resp:?}");
        assert_certificate_discipline(&resp);
    }

    service.handle().shutdown();
    let snap = service.join();
    assert_eq!(snap.failed, 2);
    assert_eq!(snap.completed_ok, 0);
    assert_eq!(snap.completed_degraded, 2);
    assert_eq!(snap.cache_hits, 0);
    assert_eq!(snap.panics, 0);
}

/// An exact answer the solver could not prove optimal is not degraded:
/// it is served `ok`, certified and stored. Its cache entry, shipped on
/// request, says `timed_out` — the negation of `proven_optimal`, as for
/// every stored result — and the repeat is a hit that still says
/// unproven.
#[test]
fn unproven_exact_answers_are_stored_as_timed_out() {
    let service = Service::start(ServiceConfig {
        default_deadline: Duration::from_secs(10),
        drain_deadline: Duration::from_secs(3),
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = service.local_addr();

    // polynom under detection+recovery at λ = 5 with a 20000 area cap:
    // the exact solver runs out of nodes on a cheaper license subset,
    // then finds a $3910 design on a dearer one, unproven.
    let line = |id: &str| {
        format!(
            "{{\"id\":\"{id}\",\"cmd\":\"synth\",\"benchmark\":\"polynom\",\
             \"mode\":\"recovery\",\"catalog\":\"paper8\",\"lambda_det\":5,\
             \"lambda_rec\":5,\"area\":20000,\"deadline_ms\":20000,\"want_entry\":true}}"
        )
    };
    let resp = roundtrip(addr, &line("first"), Duration::from_secs(30)).expect("response");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert_eq!(resp.get("backend").and_then(Json::as_str), Some("exact"));
    assert_eq!(resp.get("proven"), Some(&Json::Bool(false)), "{resp:?}");
    assert_certificate_discipline(&resp);
    let entry = resp.get("entry").expect("an `ok` answer ships its entry");
    assert_eq!(entry.get("proven_optimal"), Some(&Json::Bool(false)));
    assert_eq!(entry.get("timed_out"), Some(&Json::Bool(true)), "{entry:?}");

    let again = roundtrip(addr, &line("again"), Duration::from_secs(30)).expect("response");
    assert_eq!(status(&again), "ok", "{again:?}");
    assert_eq!(again.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(again.get("proven"), Some(&Json::Bool(false)), "{again:?}");
    assert_eq!(again.get("cost"), resp.get("cost"));

    service.handle().shutdown();
    let snap = service.join();
    assert_eq!(snap.completed_ok, 2);
    assert_eq!(snap.cache_hits, 1);
    assert_eq!(snap.panics, 0);
}

/// An answer that really is degraded — here one that only meets
/// latency-relaxed constraints — is labelled `degraded`, never stored,
/// and never looks certified: no certificate, and `TS004` says so
/// in-band beside `TR002`.
#[test]
fn relaxed_answers_are_degraded_and_uncertified() {
    let service = Service::start(ServiceConfig {
        default_deadline: Duration::from_secs(10),
        drain_deadline: Duration::from_secs(3),
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = service.local_addr();

    // polynom at its critical path under a 14000 area cap: the forced
    // concurrency makes λ = 3 infeasible (the exact rung proves it in
    // milliseconds), and λ = 4 feasible.
    let line = "{\"id\":\"tight\",\"cmd\":\"synth\",\"benchmark\":\"polynom\",\
        \"mode\":\"detection\",\"catalog\":\"table1\",\"lambda_det\":3,\"area\":14000,\
        \"deadline_ms\":5000}";
    for round in 0..2 {
        let resp = roundtrip(addr, line, Duration::from_secs(10)).expect("relaxed response");
        assert_eq!(status(&resp), "degraded", "{resp:?}");
        assert_eq!(resp.get("relaxation").and_then(Json::as_u64), Some(1));
        assert!(resp.get("cached").is_none(), "round {round}: {resp:?}");
        let got = codes(&resp);
        assert!(got.contains(&"TR002".to_owned()), "{got:?}");
        assert!(got.contains(&"TS004".to_owned()), "{got:?}");
        assert!(
            resp.get("certificate").is_none(),
            "a degraded response must never look certified: {resp:?}"
        );
    }

    service.handle().shutdown();
    let snap = service.join();
    assert_eq!(
        snap.completed_degraded, 2,
        "degraded answers are not cached"
    );
    assert_eq!(snap.cache_hits, 0);
    assert_eq!(snap.panics, 0);
}

/// A deadline too small for any rung to produce a design yields a typed
/// `deadline` error carrying `TS003` — not a hang, not a silent drop.
#[test]
fn exhausted_deadline_yields_a_typed_ts003_error() {
    let service = Service::start(ServiceConfig {
        default_deadline: Duration::from_secs(10),
        drain_deadline: Duration::from_secs(3),
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = service.local_addr();

    // No rung can decide this problem inside 300 ms, at any relaxation
    // step, and the grace pass finds no design either.
    let line = undecidable("storm", 300, false);
    let resp = roundtrip(addr, &line, Duration::from_secs(15)).expect("storm response");
    assert_eq!(status(&resp), "error", "{resp:?}");
    assert_eq!(resp.get("kind").and_then(Json::as_str), Some("deadline"));
    assert!(codes(&resp).contains(&"TS003".to_owned()), "{resp:?}");
    assert!(resp.get("certificate").is_none(), "{resp:?}");

    service.handle().shutdown();
    let snap = service.join();
    assert_eq!(snap.failed, 1);
    assert_eq!(snap.panics, 0);
}

/// The seeded soak: concurrent clients mixing good traffic with the four
/// service-level fault families (malformed JSON, slowloris frames,
/// mid-request disconnects, deadline storms). Every request that reads a
/// response gets exactly one well-formed typed outcome; the daemon
/// survives all of it (`panics == 0`), answers a liveness probe
/// afterwards, and drains within its bound.
#[test]
fn seeded_soak_terminates_every_request_with_a_typed_outcome() {
    let seed: u64 = std::env::var("TROY_SOAK_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1);

    let frame_deadline = Duration::from_millis(300);
    let service = Service::start(ServiceConfig {
        max_inflight: 2,
        queue_depth: 2,
        default_deadline: Duration::from_secs(3),
        drain_deadline: Duration::from_secs(3),
        frame_deadline,
        ..ServiceConfig::default()
    })
    .expect("bind");
    let addr = service.local_addr();

    const CLIENTS: usize = 6;
    const REQUESTS: usize = 4;
    let mut workers = Vec::new();
    for client in 0..CLIENTS {
        workers.push(std::thread::spawn(move || {
            let chaos = Chaos::seeded(seed);
            // (responses_seen, malformed_sent, slowloris_sent)
            let mut tally = (0usize, 0usize, 0usize);
            for request in 0..REQUESTS {
                match chaos.fault_for_request(client, request) {
                    None => {
                        let id = format!("c{client}r{request}");
                        let resp = roundtrip(addr, &tiny_synth(&id, 1500), Duration::from_secs(8))
                            .unwrap_or_else(|| panic!("good request {id} must get a response"));
                        assert!(
                            matches!(status(&resp), "ok" | "degraded" | "rejected" | "error"),
                            "{resp:?}"
                        );
                        assert_eq!(resp.get("id").and_then(Json::as_str), Some(id.as_str()));
                        assert_certificate_discipline(&resp);
                        tally.0 += 1;
                    }
                    Some(ServiceFault::MalformedJson) => {
                        let resp = roundtrip(addr, "{\"id\":1,]]]", Duration::from_secs(5))
                            .expect("malformed lines are diagnosed, not dropped");
                        assert_eq!(status(&resp), "rejected", "{resp:?}");
                        assert_eq!(resp.get("kind").and_then(Json::as_str), Some("malformed"));
                        tally.0 += 1;
                        tally.1 += 1;
                    }
                    Some(ServiceFault::Slowloris) => {
                        let mut stream = connect(addr);
                        stream.write_all(b"{\"id\":\"slow").expect("partial frame");
                        std::thread::sleep(frame_deadline + Duration::from_millis(400));
                        let line = read_line(&mut stream, Duration::from_secs(5))
                            .expect("the frame deadline cuts a slowloris with a diagnosis");
                        let resp = Json::parse(&line).expect("slowloris rejection parses");
                        assert_eq!(status(&resp), "rejected", "{resp:?}");
                        assert_eq!(resp.get("kind").and_then(Json::as_str), Some("malformed"));
                        tally.0 += 1;
                        tally.2 += 1;
                    }
                    Some(ServiceFault::Disconnect) => {
                        let mut stream = connect(addr);
                        stream
                            .write_all(b"{\"id\":\"gone\",\"cmd\":")
                            .expect("half frame");
                        drop(stream); // no response owed; the daemon must shrug
                    }
                    Some(ServiceFault::DeadlineStorm) => {
                        let id = format!("c{client}storm{request}");
                        let resp = roundtrip(addr, &tiny_synth(&id, 1), Duration::from_secs(8))
                            .expect("storm requests still get typed outcomes");
                        assert!(
                            matches!(status(&resp), "ok" | "degraded" | "rejected" | "error"),
                            "{resp:?}"
                        );
                        assert_certificate_discipline(&resp);
                        tally.0 += 1;
                    }
                }
            }
            tally
        }));
    }
    let mut responses = 0;
    let mut malformed_sent = 0;
    let mut slowloris_sent = 0;
    for worker in workers {
        let (r, m, s) = worker.join().expect("client thread must not die");
        responses += r;
        malformed_sent += m;
        slowloris_sent += s;
    }
    assert!(responses > 0, "the schedule must exercise response paths");

    // The daemon took the whole storm and still answers.
    let pong = roundtrip(
        addr,
        "{\"id\":\"alive\",\"cmd\":\"ping\"}",
        Duration::from_secs(2),
    )
    .expect("liveness probe after the soak");
    assert_eq!(status(&pong), "pong");

    service.handle().shutdown();
    let t0 = Instant::now();
    let snap = service.join();
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "drain must respect its deadline"
    );
    assert_eq!(snap.panics, 0, "no request may poison the daemon: {snap:?}");
    assert_eq!(
        snap.malformed,
        (malformed_sent + slowloris_sent) as u64,
        "every hostile frame is diagnosed exactly once: {snap:?}"
    );
}

/// The line limit binds the line, however the bytes arrive: a line of
/// exactly `MAX_LINE` bytes is served, one byte more is refused even
/// when its newline comes in the read that crosses the limit.
#[test]
fn daemon_enforces_the_line_limit_on_the_line_itself() {
    let service = Service::start(ServiceConfig::default()).expect("start");
    let addr = service.local_addr();
    let at_limit = padded_ping(MAX_LINE);
    assert_eq!(at_limit.len(), MAX_LINE);
    let resp = roundtrip(addr, &at_limit, Duration::from_secs(10))
        .expect("a line of exactly MAX_LINE bytes is served");
    assert_eq!(status(&resp), "pong", "{resp:?}");

    let reply = send_until_closed(addr, &padded_ping(MAX_LINE + 1));
    let lines: Vec<&str> = reply.lines().collect();
    assert_eq!(lines.len(), 1, "one diagnosis, then the close: {reply}");
    let resp = Json::parse(lines[0]).expect("the rejection parses");
    assert_eq!(status(&resp), "rejected", "{resp:?}");
    assert_eq!(resp.get("kind").and_then(Json::as_str), Some("malformed"));
    assert_eq!(stat(&resp, "malformed"), 1);

    service.handle().shutdown();
    let _ = service.join();
}

/// A drain wakes each parked acceptor with a loopback connect of its
/// own; the daemon counts none of those as a client connection, and
/// refuses connects once it has drained.
#[test]
fn drain_counts_only_real_client_connections() {
    let service = Service::start(ServiceConfig::default()).expect("start");
    let addr = service.local_addr();
    // Four clients at once leave several acceptors parked when they go.
    let clients: Vec<TcpStream> = (0..4)
        .map(|i| {
            let mut stream = connect(addr);
            send(
                &mut stream,
                &format!("{{\"id\":\"c{i}\",\"cmd\":\"ping\"}}"),
            );
            let resp = read_line(&mut stream, Duration::from_secs(5)).expect("pong");
            assert_eq!(status(&Json::parse(&resp).expect("parses")), "pong");
            stream
        })
        .collect();
    drop(clients);

    service.handle().shutdown();
    let stats = service.join();
    assert_eq!(stats.connections, 4, "only the four clients are counted");
    assert!(
        TcpStream::connect(addr).is_err(),
        "a drained daemon refuses"
    );
}
