//! The hardened synthesis daemon.
//!
//! Acceptor threads that serve the connection they accept
//! ([`crate::gate`]), newline-delimited JSON frames ([`crate::wire`]).
//! Every layer is bounded:
//!
//! - **Admission** — at most `max_inflight` concurrent syntheses plus a
//!   `queue_depth`-bounded wait queue; past that, requests are shed with
//!   a typed `overloaded` rejection carrying a `retry_after_ms` hint
//!   ([`crate::admission`]).
//! - **Circuit breakers** — a per-backend closed → open → half-open
//!   panel ([`crate::breaker`]) layered over the `troy-resilience`
//!   supervisor via [`SupervisorConfig::disabled`], so a flapping rung
//!   is skipped before it burns its retry budget; with every ladder
//!   rung's breaker open the request is rejected `circuit_open` up front.
//! - **Deadlines** — each request's budget flows through
//!   [`Cancellation`] children of a server root token, so a drain can
//!   cancel all in-flight work at once.
//! - **Frames** — a connection may dribble a frame (slowloris) for at
//!   most `frame_deadline` and a line may be at most
//!   [`MAX_LINE`](crate::MAX_LINE) bytes; violations close the
//!   connection.
//! - **Panics** — request handling runs under `catch_unwind`; a
//!   poisoned request yields an `internal` error and closes that one
//!   connection, never the daemon.
//!
//! Graceful drain: a `shutdown` request (or [`ServiceHandle::shutdown`])
//! closes the listener, lets in-flight requests finish within
//! `drain_deadline`, then cancels the root token and gives stragglers a
//! short grace before [`Service::join`] returns the final counters.

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use troy_dfg::{benchmarks, parse_dfg};
use troy_ilp::Cancellation;
use troy_portfolio::{cache_key, CacheKey, CachedEntry, PortfolioResult, ResultCache};
use troy_resilience::{
    supervise, AttemptOutcome, Chaos, Degradation, SupervisorConfig, SupervisorErrorKind, LADDER,
};
use troyhls::{SolveOptions, SynthesisProblem};

use crate::admission::{Admission, Admitted};
use crate::breaker::{BreakerConfig, Breakers};
use crate::gate::Gate;
use crate::protocol::{parse_request, Cmd, RejectKind, Request, Response};
use crate::stats::{ServiceStats, StatsSnapshot};
use crate::wire::serve_frames;

use troy_analysis::Code;

/// How the daemon runs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address, e.g. `127.0.0.1:7788` (`:0` picks a free port).
    pub addr: String,
    /// Concurrent syntheses admitted at once.
    pub max_inflight: usize,
    /// Requests allowed to wait for a slot; past this, shed.
    pub queue_depth: usize,
    /// Deadline applied when a request carries no `deadline_ms`.
    pub default_deadline: Duration,
    /// How long a drain waits for in-flight work before cancelling it.
    pub drain_deadline: Duration,
    /// Longest a connection may take to deliver one complete frame once
    /// its first byte has arrived (the slowloris bound).
    pub frame_deadline: Duration,
    /// Circuit-breaker policy shared by all back ends.
    pub breaker: BreakerConfig,
    /// Result-cache directory; `None` keeps the cache in memory.
    pub cache_dir: Option<PathBuf>,
    /// Fault injector threaded into every supervised run.
    pub chaos: Chaos,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_inflight: 4,
            queue_depth: 8,
            default_deadline: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
            frame_deadline: Duration::from_secs(2),
            breaker: BreakerConfig::default(),
            cache_dir: None,
            chaos: Chaos::disabled(),
        }
    }
}

/// State shared by every connection and the handle.
struct Shared {
    stats: ServiceStats,
    admission: Admission,
    breakers: Breakers,
    cache: ResultCache,
    /// Parent of every request token; cancelled at hard drain.
    root: Cancellation,
    /// Drain flag, live connections and the accept wake-up.
    gate: Arc<Gate>,
    /// Set by [`ServiceHandle::kill`]: crash-stop — pending responses
    /// are dropped, never written, as an abrupt process death would.
    killed: AtomicBool,
    chaos: Chaos,
    default_deadline: Duration,
    frame_deadline: Duration,
}

impl Shared {
    fn is_draining(&self) -> bool {
        self.gate.is_draining()
    }

    fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }
}

/// A handle that can drain the daemon from another thread.
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl ServiceHandle {
    /// Begins a graceful drain: stop accepting, finish (or cancel, after
    /// the drain deadline) in-flight work. Idempotent.
    pub fn shutdown(&self) {
        self.shared.gate.drain();
    }

    /// `true` once a drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Crash-stops the daemon, the way a power loss or `SIGKILL` would:
    /// stop accepting, cancel in-flight work, and *drop* any response
    /// not yet written — peers see connection resets and EOF, never a
    /// typed goodbye. This is the chaos harness's worker-kill primitive;
    /// a graceful stop is [`ServiceHandle::shutdown`]. Idempotent.
    pub fn kill(&self) {
        self.shared.killed.store(true, Ordering::SeqCst);
        self.shared.gate.drain();
        self.shared.root.cancel();
    }

    /// `true` once the daemon has been crash-stopped.
    #[must_use]
    pub fn is_killed(&self) -> bool {
        self.shared.is_killed()
    }

    /// Point-in-time serve-path counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }
}

/// A running daemon.
pub struct Service {
    shared: Arc<Shared>,
    drain_deadline: Duration,
}

impl Service {
    /// Binds `config.addr` and starts accepting.
    ///
    /// # Errors
    /// Propagates bind/cache-directory I/O failures.
    pub fn start(config: ServiceConfig) -> std::io::Result<Service> {
        let ServiceConfig {
            addr,
            max_inflight,
            queue_depth,
            default_deadline,
            drain_deadline,
            frame_deadline,
            breaker,
            cache_dir,
            chaos,
        } = config;
        let gate = Gate::bind(&addr)?;
        let cache = match cache_dir {
            Some(dir) => ResultCache::on_disk(dir)?,
            None => ResultCache::in_memory(),
        };
        let shared = Arc::new(Shared {
            stats: ServiceStats::default(),
            admission: Admission::new(max_inflight, queue_depth),
            breakers: Breakers::new(breaker),
            cache,
            root: Cancellation::new(),
            gate: Arc::clone(&gate),
            killed: AtomicBool::new(false),
            chaos,
            default_deadline,
            frame_deadline,
        });
        {
            let shared = Arc::clone(&shared);
            gate.serve(move |stream| {
                ServiceStats::bump(&shared.stats.connections);
                handle_connection(stream, &shared);
            })?;
        }
        Ok(Service {
            shared,
            drain_deadline,
        })
    }

    /// The bound address (useful with `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.gate.local_addr()
    }

    /// A drain handle, cloneable across threads.
    #[must_use]
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Point-in-time serve-path counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Blocks until the daemon has drained (a `shutdown` request or
    /// [`ServiceHandle::shutdown`] call, then completion of in-flight
    /// work within the drain deadline), and returns the final counters.
    ///
    /// The drain ladder: stop accepting; wait up to `drain_deadline` for
    /// connections to finish; cancel the root token; wait a short grace
    /// for cancelled work to unwind. Connections still live after that
    /// are abandoned (their threads die with the process).
    #[must_use]
    pub fn join(self) -> StatsSnapshot {
        // The accept side closes only once a drain has begun.
        let gate = &self.shared.gate;
        gate.wait_closed();
        gate.wait_idle(Instant::now() + self.drain_deadline);
        // Past the drain deadline: cancel everything still running and
        // give it one bounded grace to unwind through the token checks.
        self.shared.root.cancel();
        gate.wait_idle(Instant::now() + Duration::from_secs(2));
        self.shared.stats.snapshot()
    }
}

/// Serves one connection's frames (see [`serve_frames`]). Never panics
/// out: request handling is firewalled.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    serve_frames(
        stream,
        &shared.gate,
        shared.frame_deadline,
        |stream, line| serve_line(line, shared, stream),
        |stream, msg| {
            ServiceStats::bump(&shared.stats.malformed);
            let reject = Response::reject(None, RejectKind::Malformed, msg);
            let _ = write_response(stream, &reject, shared);
        },
    );
}

/// Parses and executes one frame, writing exactly one response line;
/// returns whether to keep the connection.
fn serve_line(line: &str, shared: &Arc<Shared>, stream: &mut TcpStream) -> bool {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(msg) => {
            ServiceStats::bump(&shared.stats.malformed);
            let reject = Response::reject(None, RejectKind::Malformed, msg);
            // A peer speaking a broken protocol gets one diagnosis, then
            // the connection closes: no error loops.
            let _ = write_response(stream, &reject, shared);
            return false;
        }
    };
    let id = request.id.clone();
    let close_after = request.cmd == Cmd::Shutdown;
    // The panic firewall: a poisoned request is converted into a typed
    // internal error and costs its own connection, never the daemon.
    let response = match catch_unwind(AssertUnwindSafe(|| handle_request(&request, shared))) {
        Ok(response) => response,
        Err(payload) => {
            ServiceStats::bump(&shared.stats.panics);
            let detail = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            Response::reject(
                Some(&id),
                RejectKind::Internal,
                format!("request handler panicked: {detail}"),
            )
        }
    };
    let panicked = response.kind == Some(RejectKind::Internal);
    write_response(stream, &response, shared).is_ok() && !close_after && !panicked
}

fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    if shared.is_killed() {
        // A crash-stopped daemon writes nothing: the peer must observe
        // silence (EOF/reset), exactly as a dead process would behave.
        return Err(std::io::Error::new(ErrorKind::BrokenPipe, "killed"));
    }
    let mut line = response.render(&shared.stats.snapshot());
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Executes one parsed request. May run for up to the request deadline
/// (plus the supervisor's documented grace slack).
fn handle_request(request: &Request, shared: &Arc<Shared>) -> Response {
    match request.cmd {
        Cmd::Ping => Response::outcome(&request.id, "pong"),
        Cmd::Stats => Response::outcome(&request.id, "ok"),
        Cmd::Shutdown => {
            shared.gate.drain();
            let mut r = Response::outcome(&request.id, "ok");
            r.message = Some("draining: no further requests will be accepted".to_owned());
            r
        }
        Cmd::Synth => handle_synth(request, shared),
        Cmd::Probe => handle_probe(request, shared),
        Cmd::Put => handle_put(request, shared),
    }
}

/// Answers a peer cache lookup: a `synth`-shaped request that only
/// consults the result cache. Probes bypass admission (they never run a
/// solver) and are answered even while draining — they are reads, not
/// work. This is the worker-side half of the cluster's shared cache
/// tier: the router probes the key-owning worker before dispatching a
/// synthesis to anyone else.
fn handle_probe(request: &Request, shared: &Arc<Shared>) -> Response {
    let t0 = Instant::now();
    ServiceStats::bump(&shared.stats.probes);
    let problem = match build_problem(request) {
        Ok(p) => p,
        Err(msg) => {
            return Response::reject(Some(&request.id), RejectKind::BadRequest, msg);
        }
    };
    let key = cache_key(&problem, "serve", &SolveOptions::default());
    if let Some(hit) = shared.cache.lookup(&key, &problem) {
        ServiceStats::bump(&shared.stats.probe_hits);
        let mut r = cache_hit_response(&request.id, &problem, &hit, t0);
        if request.want_entry {
            // The prober asked for the raw entry so it can replicate it
            // onward (read-repair); the receiving end re-validates.
            r.entry = Some(CachedEntry::from_result(&hit).to_json());
        }
        return r;
    }
    Response::outcome(&request.id, "miss")
}

/// Accepts a replicated cache entry from a peer: a `synth`-shaped
/// request whose `entry` object is read and re-validated against the
/// rebuilt problem — the exact certified-store gate the cache's own
/// lookup path enforces (valid design, matching cost) — and stored on
/// success. An entry that fails the gate is rejected `bad_request` and
/// never stored: replication must not become a cache-poisoning channel.
/// Puts bypass admission and are accepted even while draining — they
/// are cache writes, not solver work.
fn handle_put(request: &Request, shared: &Arc<Shared>) -> Response {
    ServiceStats::bump(&shared.stats.puts);
    let problem = match build_problem(request) {
        Ok(p) => p,
        Err(msg) => {
            return Response::reject(Some(&request.id), RejectKind::BadRequest, msg);
        }
    };
    let Some(entry) = request.entry.as_ref().and_then(CachedEntry::from_json) else {
        return Response::reject(
            Some(&request.id),
            RejectKind::BadRequest,
            "`entry` does not parse as a cache entry",
        );
    };
    let Some(result) = entry.to_result(&problem) else {
        return Response::reject(
            Some(&request.id),
            RejectKind::BadRequest,
            "`entry` failed re-validation against the request's problem",
        );
    };
    let key = cache_key(&problem, "serve", &SolveOptions::default());
    shared.cache.store(&key, &result);
    ServiceStats::bump(&shared.stats.put_stores);
    let mut r = Response::outcome(&request.id, "ok");
    r.message = Some("entry stored".to_owned());
    r
}

/// Renders a result-cache hit as a full `ok` response, certificate
/// included — byte-compatible with the synth path's cache fast path.
fn cache_hit_response(
    id: &str,
    problem: &SynthesisProblem,
    hit: &PortfolioResult,
    t0: Instant,
) -> Response {
    let mut r = Response::outcome(id, "ok");
    r.cost = Some(hit.synthesis.cost);
    r.backend = Some(hit.winner.name().to_owned());
    r.proven = Some(hit.synthesis.proven_optimal);
    r.relaxation = Some(0);
    r.cached = true;
    r.certificate = certificate_for(problem, &hit.synthesis.implementation);
    r.elapsed_ms = Some(t0.elapsed().as_millis() as u64);
    r
}

fn handle_synth(request: &Request, shared: &Arc<Shared>) -> Response {
    let t0 = Instant::now();
    if shared.is_draining() {
        return Response::reject(
            Some(&request.id),
            RejectKind::Draining,
            "the daemon is draining",
        );
    }
    let deadline = request.deadline.unwrap_or(shared.default_deadline);

    // Admission: bounded queue wait (half the deadline, capped), then a
    // typed shed. The permit is held for the whole synthesis.
    let wait_budget = (deadline / 2).min(Duration::from_secs(2));
    let _permit = match shared.admission.acquire(wait_budget) {
        Admitted::Permit(p) => p,
        Admitted::Shed { retry_after } => {
            ServiceStats::bump(&shared.stats.shed_overload);
            let mut r = Response::reject(
                Some(&request.id),
                RejectKind::Overloaded,
                "admission queue and in-flight budget are full",
            );
            r.retry_after_ms = Some(retry_after.as_millis() as u64);
            r.codes = vec![Code::ServiceOverloaded.as_str().to_owned()];
            return r;
        }
    };
    ServiceStats::bump(&shared.stats.accepted);

    // Circuit breakers: skip open rungs; with every ladder rung open the
    // request is shed before any solver runs.
    let now = Instant::now();
    let open = shared.breakers.open_at(now);
    if LADDER.iter().all(|rung| open.contains(rung)) {
        ServiceStats::bump(&shared.stats.shed_circuit);
        let mut r = Response::reject(
            Some(&request.id),
            RejectKind::CircuitOpen,
            "every ladder rung's circuit breaker is open",
        );
        r.retry_after_ms = shared
            .breakers
            .retry_after(now)
            .map(|d| d.as_millis().max(1) as u64);
        r.codes = vec![Code::CircuitOpen.as_str().to_owned()];
        return r;
    }

    let problem = match build_problem(request) {
        Ok(p) => p,
        Err(msg) => {
            ServiceStats::bump(&shared.stats.failed);
            return Response::reject(Some(&request.id), RejectKind::BadRequest, msg);
        }
    };

    // Cache: keyed on the problem under normalized options (engine
    // "serve"), deliberately ignoring the per-request deadline so
    // identical problems hit regardless of each client's budget. Only
    // un-degraded results are ever stored (best-effort ones included —
    // the `proven` flag travels with the entry), so a hit can be served
    // as `ok` unconditionally.
    let key = cache_key(&problem, "serve", &SolveOptions::default());
    if let Some(hit) = shared.cache.lookup(&key, &problem) {
        ServiceStats::bump(&shared.stats.cache_hits);
        ServiceStats::bump(&shared.stats.completed_ok);
        let mut r = cache_hit_response(&request.id, &problem, &hit, t0);
        if request.want_entry {
            r.entry = Some(CachedEntry::from_result(&hit).to_json());
        }
        return r;
    }

    let config = SupervisorConfig {
        deadline,
        degrade: !request.no_degrade,
        disabled: open.clone(),
        options: SolveOptions {
            cancel: shared.root.child(),
            ..SolveOptions::default()
        },
        ..SupervisorConfig::default()
    };
    match supervise(&problem, &config, &shared.chaos) {
        Ok(sup) => {
            record_breaker_outcomes(shared, &sup.degradation);
            let degraded = sup.degraded();
            let mut codes = Vec::new();
            if !open.is_empty() {
                codes.push(Code::CircuitOpen.as_str().to_owned());
            }
            if sup.fallback().is_some() {
                codes.push(Code::DegradedBackend.as_str().to_owned());
            }
            if sup.relaxation > 0 {
                codes.push(Code::ConstraintRelaxed.as_str().to_owned());
            }
            let mut entry_json = None;
            if degraded {
                ServiceStats::bump(&shared.stats.completed_degraded);
            } else {
                ServiceStats::bump(&shared.stats.completed_ok);
                let result =
                    PortfolioResult::fresh(sup.backend, sup.synthesis.clone(), sup.elapsed);
                shared.cache.store(&key, &result);
                if request.want_entry {
                    // Only un-degraded results travel as entries — the
                    // same rule the cache's own store path enforces.
                    entry_json = Some(CachedEntry::from_result(&result).to_json());
                }
            }
            let mut r = Response::outcome(&request.id, if degraded { "degraded" } else { "ok" });
            r.cost = Some(sup.synthesis.cost);
            r.backend = Some(sup.backend.name().to_owned());
            r.proven = Some(sup.synthesis.proven_optimal);
            r.relaxation = Some(sup.relaxation);
            if degraded {
                // A degraded result may have been solved against a
                // relaxed problem, so no certificate can honestly bind
                // it to the request; say so in-band instead.
                codes.push(Code::UncertifiedResponse.as_str().to_owned());
            } else {
                r.certificate = certificate_for(&problem, &sup.synthesis.implementation);
            }
            r.entry = entry_json;
            r.codes = codes;
            r.elapsed_ms = Some(t0.elapsed().as_millis() as u64);
            r
        }
        Err(e) => {
            record_breaker_outcomes(shared, &e.degradation);
            ServiceStats::bump(&shared.stats.failed);
            let (kind, code) = match e.kind {
                SupervisorErrorKind::DeadlineExhausted { .. } => (
                    RejectKind::Deadline,
                    Some(Code::RequestDeadlineExhausted.as_str().to_owned()),
                ),
                SupervisorErrorKind::Infeasible { .. } | SupervisorErrorKind::Exhausted => {
                    (RejectKind::Failed, None)
                }
            };
            let mut r = Response::reject(Some(&request.id), kind, e.to_string());
            r.codes = code.into_iter().collect();
            r.elapsed_ms = Some(t0.elapsed().as_millis() as u64);
            r
        }
    }
}

/// Runs the security prover over a finished binding and pre-renders its
/// certificate for the wire. `None` when the prover refuses — a response
/// must never claim a certificate the prover did not issue.
fn certificate_for(
    problem: &SynthesisProblem,
    implementation: &troyhls::Implementation,
) -> Option<String> {
    troy_analysis::certify(problem, implementation)
        .ok()
        .map(|cert| cert.to_json())
}

/// The content-addressed cache key a `synth`/`probe` request resolves to
/// under the daemon's normalized cache options. The cluster router hashes
/// this same fingerprint onto its consistent-hash ring, so request
/// placement and worker-side cache addressing can never disagree.
///
/// # Errors
/// The request does not describe a well-formed synthesis problem; the
/// message is suitable for a `bad_request` rejection.
pub fn request_key(request: &Request) -> Result<CacheKey, String> {
    let problem = build_problem(request)?;
    Ok(cache_key(&problem, "serve", &SolveOptions::default()))
}

/// Builds the synthesis problem a request describes.
///
/// # Errors
/// The request names no DFG, an unknown benchmark, unparsable inline
/// `dfg` text, or constraints the problem builder rejects.
pub fn build_problem(request: &Request) -> Result<SynthesisProblem, String> {
    let dfg = match (&request.benchmark, &request.dfg) {
        (Some(name), _) => {
            benchmarks::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?
        }
        (None, Some(text)) => parse_dfg(text).map_err(|e| format!("bad `dfg`: {e}"))?,
        (None, None) => return Err("synth needs `benchmark` or `dfg`".to_owned()),
    };
    let mut builder = SynthesisProblem::builder(dfg, request.catalog.clone())
        .mode(request.mode)
        .area_limit(request.area);
    if let Some(l) = request.lambda_det {
        builder = builder.detection_latency(l);
    }
    if let Some(l) = request.lambda_rec {
        builder = builder.recovery_latency(l);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Feeds a supervised run's rung outcomes into the breaker panel.
///
/// Per executed rung, the *final* attempt decides: success closes the
/// breaker, a deterministic failure (panic, invalid design, timeout,
/// typed failure) counts toward opening it. Infeasibility and spurious
/// cancellation are neutral — they indict the problem or the schedule,
/// not the back end.
fn record_breaker_outcomes(shared: &Arc<Shared>, degradation: &Degradation) {
    let now = Instant::now();
    for rung in &degradation.rungs {
        if rung.skipped {
            continue;
        }
        match rung.attempts.last().map(|a| &a.outcome) {
            Some(AttemptOutcome::Success { .. }) => {
                shared.breakers.record_success(rung.backend, now);
            }
            Some(
                AttemptOutcome::Panicked(_)
                | AttemptOutcome::InvalidDesign
                | AttemptOutcome::Timeout
                | AttemptOutcome::Failed(_),
            ) => {
                shared.breakers.record_failure(rung.backend, now);
            }
            Some(AttemptOutcome::SpuriousCancel | AttemptOutcome::Infeasible) | None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use troy_portfolio::Backend;

    #[test]
    fn synth_is_shed_as_circuit_open_once_every_ladder_rung_is_open() {
        let service = Service::start(ServiceConfig {
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(300),
            },
            ..ServiceConfig::default()
        })
        .expect("bind");
        // The ladder's rungs, spelled out: the ILP is not one, so its
        // breaker never opens and must not be needed for the shed.
        let now = Instant::now();
        for rung in [Backend::Exact, Backend::Annealing, Backend::Greedy] {
            service.shared.breakers.record_failure(rung, now);
        }
        let request = parse_request(r#"{"id":"shed","cmd":"synth","benchmark":"polynom"}"#)
            .expect("well-formed request");
        let r = handle_synth(&request, &service.shared);
        assert_eq!(r.kind, Some(RejectKind::CircuitOpen), "{r:?}");
        assert_eq!(r.codes, vec!["TS002".to_owned()]);
        assert!(r.retry_after_ms.is_some_and(|ms| ms > 0), "{r:?}");
        assert!(r.cost.is_none() && r.certificate.is_none(), "{r:?}");

        service.handle().shutdown();
        let snap = service.join();
        assert_eq!(snap.shed_circuit, 1);
        assert_eq!(snap.completed_ok + snap.completed_degraded, 0);
    }
}
