//! The cluster router: a TCP front-end that shards synthesis requests
//! across N `troy-service` worker daemons.
//!
//! The router speaks the exact daemon protocol (one JSON request per
//! line, one response line per request), so a client cannot tell a
//! cluster from a single daemon except by reading the `stats` trailer.
//! Placement is by the request's content-addressed cache key on a
//! seeded consistent-hash ring ([`crate::ring`]); the routing pipeline
//! for a `synth` is:
//!
//! 1. **Key + walk** — parse the frame once (the request and its JSON,
//!    which every forwarded copy is re-rendered from), derive the cache
//!    key, walk the ring: rank 1 is the shard owner, later ranks are
//!    failover targets.
//! 2. **Peer cache probes** — before dispatching, probe up to
//!    `probe_depth` other non-dead workers' caches over the wire
//!    (`cmd: "probe"`); a hit is relayed as-is, certificate included.
//!    The dispatch head checks its own cache inline, so it is never
//!    probed. This is the shared cache tier: after a rebalance or a
//!    demotion, the previous owner's warm results keep serving. A hit
//!    on a non-owner triggers a background *read-repair* put to the
//!    live owner so ownership locality heals itself; only a key not
//!    yet repaired asks the probe for the raw entry the put needs.
//! 3. **Dispatch with failover** — forward to the first live worker
//!    whose rationed [`Breaker`](troy_service::Breaker) admits, with
//!    `deadline_ms` rewritten to the *remaining* budget. A transport
//!    failure (dead worker, torn frame, partition) records a breaker
//!    failure and re-dispatches to the next candidate with the
//!    remaining deadline intact; the served response gains a `TS005`
//!    diagnostic whenever a non-owner answered.
//! 4. **Write-behind replication** — a fresh un-degraded result is
//!    copied (`cmd: "put"`) to the next `replication - 1` ring
//!    successors on a background thread; the receiving worker
//!    re-validates the entry through the certified-store gate before
//!    storing it. Killing the owner then costs zero re-solves: the hot
//!    key keeps serving, byte-identical, from a replica.
//! 5. **Typed shed** — with no admissible worker at all, the router
//!    sheds `unavailable` + `TS006` with a `retry_after_ms` hint taken
//!    from the breakers. Worker-issued rejections (overload, draining)
//!    are relayed verbatim — their `retry_after_ms` comes from the
//!    worker that owns the queue, not from a router constant — tagged
//!    with the worker's name.
//!
//! Every worker hop of this pipeline — probes, dispatches, write-behind
//! and read-repair puts, and client `probe`/`put` relays — runs on the
//! worker slot's pool of open connections ([`WorkerSlot::call`]), and
//! each worker reply is parsed once: `annotate` edits the parsed
//! reply and splices the router's rendered `stats` trailer in as text.
//! The worker connections a pool opens count `worker_connects`.
//!
//! A health-check thread pings every non-dead worker each
//! `health_interval` through the same breaker (`admit` → ping →
//! outcome), so a sick worker is demoted from dispatch by its breaker
//! and promoted back by a successful half-open probe, without any state
//! change a request could race against. Pings open a fresh connection
//! each, so they also test that the worker's listener still accepts.
//!
//! **Respawn supervision** (`respawn: true`): a supervisor thread scans
//! for dead slots and adopts a fresh in-process daemon into each —
//! same name, new generation ([`WorkerSlot::adopt`]) — with
//! deterministic seeded backoff between attempts and a per-slot
//! `max_respawns` budget. The newcomer's breaker is re-armed in
//! *probation* (half-open: exactly one trial decides), the ring is
//! rebuilt (same membership, so placement is restored verbatim — see
//! `rejoin_restores_the_pre_kill_assignment`), and the newcomer's cold
//! cache is warmed from its ring successors out of the router's
//! recent-dispatch memory. Responses served by a respawned worker carry
//! `TS007`.
//!
//! **Durable dispatch journal** (`journal_dir: Some(_)`): every
//! accepted `synth` frame is appended (fsync'd) to an append-only
//! checksummed WAL *before* dispatch and marked completed when its
//! response goes out. On restart, accepted entries without a terminal
//! outcome are replayed through normal dispatch (tagged `TS008`), so a
//! router crash loses no accepted request — at-least-once, never
//! silence. See [`crate::journal`].
//!
//! Chaos: with a seeded [`Chaos`] handle the router injects
//! [`ClusterFault`]s at dispatch sites — worker kill, stall, partition,
//! torn frame — and [`SelfHealFault`]s at the healing sites — respawn
//! storms (the replacement dies instantly), torn journal appends,
//! dropped replica writes — which is how the cluster-level soak drives
//! the never-lost contract: every accepted request terminates with a
//! valid certified result, a typed error, or an explicit shed carrying
//! `retry_after_ms`.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use troy_analysis::Code;
use troy_resilience::{Backoff, Chaos, ClusterFault, SelfHealFault};
use troy_service::{
    parse_frame, request_key, roundtrip, serve_frames, BreakerConfig, BreakerDecision, Cmd, Gate,
    Json, RejectKind, Request, Response, Service, ServiceConfig, StatsSnapshot,
};

use crate::journal::{Journal, JournalEntry};
use crate::ring::Ring;
use crate::stats::{ClusterSnapshot, ClusterStats};
use crate::worker::{WorkerSlot, WorkerState};

/// Dispatched frames remembered for warming a respawned worker's cache.
const RECENT_CAP: usize = 256;

/// How the cluster runs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Router bind address (`:0` picks a free port).
    pub addr: String,
    /// In-process worker daemons to spawn (each binds `127.0.0.1:0`).
    pub workers: usize,
    /// Consistent-hash ring seed; fixes placement.
    pub ring_seed: u64,
    /// Virtual nodes per worker on the ring.
    pub replicas: usize,
    /// Non-head workers whose caches are probed before a dispatch.
    pub probe_depth: usize,
    /// Deadline applied when a request carries no `deadline_ms`.
    pub default_deadline: Duration,
    /// How long the final drain waits for router connections.
    pub drain_deadline: Duration,
    /// Slowloris bound for frames arriving at the router.
    pub frame_deadline: Duration,
    /// Extra wait past a request's deadline for the worker's own typed
    /// deadline response to arrive before the router fails over.
    pub dispatch_grace: Duration,
    /// Budget for one peer cache probe round trip.
    pub probe_timeout: Duration,
    /// Period of the health-check ping loop.
    pub health_interval: Duration,
    /// Budget for one health-check ping round trip.
    pub health_timeout: Duration,
    /// Per-worker rationed breaker policy (dispatch + health outcomes).
    pub worker_breaker: BreakerConfig,
    /// Per-worker admission: concurrent syntheses.
    pub max_inflight: usize,
    /// Per-worker admission: bounded queue depth.
    pub queue_depth: usize,
    /// Run the respawn supervisor: dead slots are revived with a fresh
    /// daemon under a new generation.
    pub respawn: bool,
    /// Per-slot respawn budget; once exhausted the slot stays dead.
    pub max_respawns: u32,
    /// Replication factor R: fresh un-degraded results are written
    /// behind to the next R−1 ring successors. `<= 1` disables both
    /// write-behind and read-repair.
    pub replication: usize,
    /// Directory for the durable dispatch journal; `None` disables it.
    pub journal_dir: Option<PathBuf>,
    /// Cluster-fault injector (dispatch-site faults only; the workers
    /// themselves run without chaos so results stay deterministic).
    pub chaos: Chaos,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            ring_seed: 0x7452_6f79, // "tRoy"
            replicas: 32,
            probe_depth: 2,
            default_deadline: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
            frame_deadline: Duration::from_secs(2),
            dispatch_grace: Duration::from_millis(500),
            probe_timeout: Duration::from_millis(250),
            health_interval: Duration::from_millis(500),
            health_timeout: Duration::from_millis(250),
            worker_breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_secs(2),
            },
            max_inflight: 4,
            queue_depth: 8,
            respawn: false,
            max_respawns: 8,
            replication: 2,
            journal_dir: None,
            chaos: Chaos::disabled(),
        }
    }
}

/// State shared by every connection, the health thread, the supervisor
/// and the handle.
struct Shared {
    stats: ClusterStats,
    /// Append-only: slots are cordoned or killed, never removed, so
    /// ring member indices stay stable.
    workers: RwLock<Vec<Arc<WorkerSlot>>>,
    ring: RwLock<Ring>,
    /// Drain flag, live router connections and the accept wake-up.
    gate: Arc<Gate>,
    chaos: Chaos,
    probe_depth: usize,
    default_deadline: Duration,
    frame_deadline: Duration,
    dispatch_grace: Duration,
    probe_timeout: Duration,
    health_interval: Duration,
    health_timeout: Duration,
    ring_seed: u64,
    replicas: usize,
    worker_breaker: BreakerConfig,
    /// Template for newly joined workers (`addr` re-set per spawn).
    worker_template: ServiceConfig,
    respawn: bool,
    max_respawns: u32,
    replication: usize,
    /// The durable dispatch journal, when configured.
    journal: Option<Journal>,
    /// Recently dispatched `synth` frames, one per cache key — the
    /// supervisor's warm list for a respawned worker's cold cache.
    recent: Mutex<Vec<(u64, String)>>,
    /// Keys already read-repaired since the last ring change, so a hot
    /// key served from a replica does not re-put to its owner on every
    /// request. Cleared whenever membership or a generation changes.
    repaired: Mutex<Vec<u64>>,
}

impl Shared {
    fn is_draining(&self) -> bool {
        self.gate.is_draining()
    }

    fn worker_snapshot(&self) -> Vec<Arc<WorkerSlot>> {
        self.workers
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn walk_for(&self, key: (u64, u64)) -> crate::ring::Walk {
        self.ring
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .walk(key)
    }

    fn stats_json(&self) -> String {
        self.stats.snapshot().to_json()
    }

    /// One data-plane exchange with `slot` on its connection pool.
    fn call(&self, slot: &WorkerSlot, line: &str, budget: Duration) -> std::io::Result<String> {
        slot.call(line, budget, &self.stats.worker_connects)
    }

    /// Whether `key_low` was already read-repaired in this ring epoch.
    fn is_repaired(&self, key_low: u64) -> bool {
        self.repaired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&key_low)
    }
}

/// A running cluster: router + workers + health loop (+ supervisor and
/// journal replayer when configured).
pub struct Cluster {
    shared: Arc<Shared>,
    health: JoinHandle<()>,
    supervisor: Option<JoinHandle<()>>,
    replayer: Option<JoinHandle<()>>,
    drain_deadline: Duration,
}

/// A handle that can observe and steer the cluster from another thread
/// (and from tests: kill, cordon, join workers).
#[derive(Clone)]
pub struct ClusterHandle {
    shared: Arc<Shared>,
}

impl Cluster {
    /// Spawns `config.workers` in-process daemons, binds the router and
    /// starts its acceptors and health loop — plus the respawn supervisor
    /// when `respawn` is set, and, with a `journal_dir`, opens the
    /// dispatch journal and replays any incomplete entries from a prior
    /// incarnation through normal dispatch.
    ///
    /// # Errors
    /// Propagates bind failures (router or any worker) and journal I/O
    /// failures.
    #[allow(clippy::needless_pass_by_value)] // mirrors Service::start
    pub fn start(config: ClusterConfig) -> std::io::Result<Cluster> {
        let worker_template = ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_inflight: config.max_inflight,
            queue_depth: config.queue_depth,
            default_deadline: config.default_deadline,
            drain_deadline: config.drain_deadline,
            frame_deadline: config.frame_deadline,
            ..ServiceConfig::default()
        };
        let mut slots = Vec::with_capacity(config.workers);
        for i in 0..config.workers.max(1) {
            slots.push(Arc::new(spawn_worker(
                i,
                &worker_template,
                config.worker_breaker,
            )?));
        }
        let members: Vec<usize> = (0..slots.len()).collect();
        let ring = Ring::new(config.ring_seed, config.replicas, &members);

        let (journal, replay) = match &config.journal_dir {
            Some(dir) => {
                let (journal, replay) = Journal::open(dir, config.chaos)?;
                (Some(journal), replay)
            }
            None => (None, Vec::new()),
        };

        let gate = Gate::bind(&config.addr)?;

        let shared = Arc::new(Shared {
            stats: ClusterStats::default(),
            workers: RwLock::new(slots),
            ring: RwLock::new(ring),
            gate: Arc::clone(&gate),
            chaos: config.chaos,
            probe_depth: config.probe_depth,
            default_deadline: config.default_deadline,
            frame_deadline: config.frame_deadline,
            dispatch_grace: config.dispatch_grace,
            probe_timeout: config.probe_timeout,
            health_interval: config.health_interval,
            health_timeout: config.health_timeout,
            ring_seed: config.ring_seed,
            replicas: config.replicas,
            worker_breaker: config.worker_breaker,
            worker_template,
            respawn: config.respawn,
            max_respawns: config.max_respawns,
            replication: config.replication,
            journal,
            recent: Mutex::new(Vec::new()),
            repaired: Mutex::new(Vec::new()),
        });
        {
            let shared = Arc::clone(&shared);
            gate.serve(move |stream| {
                ClusterStats::bump(&shared.stats.connections);
                handle_connection(stream, &shared);
            })?;
        }
        let health = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || health_loop(&shared))
        };
        let supervisor = shared.respawn.then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervisor_loop(&shared))
        });
        let replayer = (!replay.is_empty()).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || replay_journal(&shared, replay))
        });
        Ok(Cluster {
            shared,
            health,
            supervisor,
            replayer,
            drain_deadline: config.drain_deadline,
        })
    }

    /// The router's bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.gate.local_addr()
    }

    /// A steering handle, cloneable across threads.
    #[must_use]
    pub fn handle(&self) -> ClusterHandle {
        ClusterHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Point-in-time router counters.
    #[must_use]
    pub fn stats(&self) -> ClusterSnapshot {
        self.shared.stats.snapshot()
    }

    /// Blocks until the cluster has drained (a `shutdown` request or
    /// [`ClusterHandle::shutdown`]), gracefully drains every worker
    /// daemon, and returns the final router counters.
    #[must_use]
    pub fn join(self) -> ClusterSnapshot {
        // The accept side closes only once a drain has begun; the
        // background loops wake from their pause on the same signal.
        self.shared.gate.wait_closed();
        let _ = self.health.join();
        if let Some(supervisor) = self.supervisor {
            let _ = supervisor.join();
        }
        if let Some(replayer) = self.replayer {
            let _ = replayer.join();
        }
        self.shared
            .gate
            .wait_idle(Instant::now() + self.drain_deadline);
        for slot in self.shared.worker_snapshot() {
            let _ = slot.shutdown_service();
        }
        self.shared.stats.snapshot()
    }
}

impl ClusterHandle {
    /// Begins a graceful drain of the whole cluster. Idempotent.
    pub fn shutdown(&self) {
        self.shared.gate.drain();
    }

    /// `true` once a drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Point-in-time router counters.
    #[must_use]
    pub fn stats(&self) -> ClusterSnapshot {
        self.shared.stats.snapshot()
    }

    /// Number of worker slots ever started (including dead ones).
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.shared
            .workers
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Lifecycle state of worker `i`.
    #[must_use]
    pub fn worker_state(&self, i: usize) -> Option<WorkerState> {
        self.shared.worker_snapshot().get(i).map(|s| s.state())
    }

    /// Respawn generation of worker `i` (0 = the boot daemon).
    #[must_use]
    pub fn worker_generation(&self, i: usize) -> Option<u32> {
        self.shared.worker_snapshot().get(i).map(|s| s.generation())
    }

    /// Serve-path counters of worker `i`'s daemon.
    #[must_use]
    pub fn worker_stats(&self, i: usize) -> Option<StatsSnapshot> {
        self.shared
            .worker_snapshot()
            .get(i)
            .map(|s| s.service_stats())
    }

    /// Accepted journal entries still awaiting a terminal outcome;
    /// `None` when the cluster runs without a journal.
    #[must_use]
    pub fn journal_pending(&self) -> Option<usize> {
        self.shared.journal.as_ref().map(Journal::pending)
    }

    /// Crash-stops worker `i` (the chaos harness's kill primitive):
    /// in-flight responses are dropped, the router observes EOF and
    /// re-dispatches. Returns `false` for an unknown index.
    pub fn kill_worker(&self, i: usize) -> bool {
        match self.shared.worker_snapshot().get(i) {
            Some(slot) => {
                slot.kill();
                true
            }
            None => false,
        }
    }

    /// Cordons worker `i` for graceful rebalance: no new syntheses are
    /// dispatched to it, in-flight work finishes, and its warm cache
    /// keeps answering peer probes until the cluster's final drain.
    /// Returns `false` for an unknown index.
    pub fn drain_worker(&self, i: usize) -> bool {
        match self.shared.worker_snapshot().get(i) {
            Some(slot) => {
                slot.cordon();
                true
            }
            None => false,
        }
    }

    /// Spawns one more in-process worker and rebalances the ring onto
    /// it. Only the keys the joiner now owns move (see
    /// [`Ring::rebuild`]); everything else keeps its warm cache.
    ///
    /// # Errors
    /// Propagates the new daemon's bind failure.
    pub fn add_worker(&self) -> std::io::Result<usize> {
        let mut workers = self
            .shared
            .workers
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let idx = workers.len();
        let slot = spawn_worker(
            idx,
            &self.shared.worker_template,
            self.shared.worker_breaker,
        )?;
        workers.push(Arc::new(slot));
        let members: Vec<usize> = (0..workers.len()).collect();
        let mut ring = self
            .shared
            .ring
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let mut rebuilt = Ring::new(self.shared.ring_seed, self.shared.replicas, &members);
        std::mem::swap(&mut *ring, &mut rebuilt);
        drop(ring);
        self.shared
            .repaired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        Ok(idx)
    }

    /// The ring walk a request's cache key resolves to: index 0 is the
    /// shard owner, later entries the failover order. Lets tests (and
    /// operators) predict placement.
    ///
    /// # Errors
    /// The request does not describe a well-formed synthesis problem.
    pub fn placement(&self, request: &Request) -> Result<Vec<usize>, String> {
        let key = request_key(request)?;
        Ok(self.shared.walk_for(key.halves()).to_vec())
    }

    /// Test-only: poisons the ring and workers locks by panicking on a
    /// helper thread while holding both write guards. Dispatch must keep
    /// working afterwards — the poison-recovery regression.
    #[doc(hidden)]
    pub fn poison_locks_for_tests(&self) {
        let shared = Arc::clone(&self.shared);
        let _ = std::thread::spawn(move || {
            let _ring = shared.ring.write().unwrap_or_else(PoisonError::into_inner);
            let _workers = shared
                .workers
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            panic!("deliberate poison: both router locks held");
        })
        .join();
    }
}

fn spawn_worker(
    idx: usize,
    template: &ServiceConfig,
    breaker: BreakerConfig,
) -> std::io::Result<WorkerSlot> {
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..template.clone()
    };
    let service = Service::start(config)?;
    Ok(WorkerSlot::new(format!("w{idx}"), service, breaker))
}

/// Pings every non-dead worker each `health_interval` through its
/// rationed breaker: `admit` gates the ping (an open breaker cools
/// down untouched; half-open admits exactly one trial), and the ping's
/// outcome is the recorded evidence. Dispatch outcomes feed the same
/// breaker, so error rate and liveness jointly demote a worker.
fn health_loop(shared: &Arc<Shared>) {
    while !shared.gate.pause(shared.health_interval) {
        for slot in shared.worker_snapshot() {
            if slot.state() == WorkerState::Dead {
                continue;
            }
            match slot.breaker.admit(Instant::now()) {
                BreakerDecision::Reject { .. } => continue,
                BreakerDecision::Admit { .. } => {}
            }
            let ok = matches!(
                roundtrip(slot.addr(), "{\"id\":\"hc\",\"cmd\":\"ping\"}", shared.health_timeout),
                Ok(line) if line.contains("\"status\":\"pong\"")
            );
            let now = Instant::now();
            if ok {
                slot.breaker.record_success(now);
            } else {
                slot.breaker.record_failure(now);
            }
        }
    }
}

/// The respawn supervisor: scans for dead slots and adopts a fresh
/// daemon into each, generation-bumped, breaker re-armed in probation,
/// cache warmed from ring successors. Attempts are paced by a
/// deterministic seeded [`Backoff`] (rung = slot index, attempt = the
/// slot's respawn count) and budgeted by `max_respawns` per slot; an
/// exhausted slot stays dead. A scheduled [`SelfHealFault::RespawnStorm`]
/// kills the replacement on arrival — the supervisor then observes the
/// death and tries again, which is exactly the storm the chaos sweep
/// pins down as convergent.
fn supervisor_loop(shared: &Arc<Shared>) {
    let backoff = Backoff {
        base: Duration::from_millis(50),
        cap: Duration::from_secs(2),
        seed: shared.ring_seed,
    };
    let mut attempts: HashMap<usize, u32> = HashMap::new();
    let mut next_try: HashMap<usize, Instant> = HashMap::new();
    while !shared.gate.pause(Duration::from_millis(25)) {
        let workers = shared.worker_snapshot();
        for (i, slot) in workers.iter().enumerate() {
            if slot.state() != WorkerState::Dead {
                continue;
            }
            let used = *attempts.get(&i).unwrap_or(&0);
            if used >= shared.max_respawns {
                continue;
            }
            let now = Instant::now();
            if next_try.get(&i).is_some_and(|&t| now < t) {
                continue;
            }
            attempts.insert(i, used + 1);
            next_try.insert(i, now + backoff.delay(i, used as usize + 1));
            let config = ServiceConfig {
                addr: "127.0.0.1:0".to_owned(),
                ..shared.worker_template.clone()
            };
            let Ok(service) = Service::start(config) else {
                continue; // retry after the backoff window
            };
            match slot.adopt(service) {
                Ok(generation) => {
                    ClusterStats::bump(&shared.stats.respawns);
                    // Probation, not a fresh breaker: the newcomer must
                    // earn its way back with one successful trial.
                    slot.breaker.arm_probation(Instant::now());
                    rebuild_ring(shared);
                    warm_newcomer(shared, i);
                    if shared.chaos.fault_for_respawn(i, generation)
                        == Some(SelfHealFault::RespawnStorm)
                    {
                        ClusterStats::bump(&shared.stats.chaos_respawn_storms);
                        slot.kill();
                    }
                }
                Err(orphan) => {
                    // The slot was revived by someone else (or never
                    // died); stop the orphan daemon cleanly.
                    orphan.handle().shutdown();
                    let _ = orphan.join();
                }
            }
        }
    }
}

/// Rebuilds the ring over the full (append-only) membership. After a
/// respawn the membership is unchanged, so this restores placement
/// verbatim — the respawned slot owns exactly the keys it owned before.
fn rebuild_ring(shared: &Arc<Shared>) {
    let members: Vec<usize> = (0..shared.worker_snapshot().len()).collect();
    shared
        .ring
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .rebuild(&members);
    // A topology (or generation) change invalidates the repair memory:
    // the new owner of any key may be cold again.
    shared
        .repaired
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Warms a respawned worker's cold cache from its ring successors: for
/// every remembered frame the newcomer owns, probe the other walk
/// members for the entry and `put` the first hit to the newcomer. The
/// receiving daemon re-validates through the certified-store gate, so a
/// stale or damaged entry cannot poison the fresh cache.
fn warm_newcomer(shared: &Arc<Shared>, idx: usize) {
    let recent: Vec<(u64, String)> = shared
        .recent
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if recent.is_empty() {
        return;
    }
    let workers = shared.worker_snapshot();
    let newcomer = &workers[idx];
    for (_, line) in recent {
        let Ok((request, frame)) = parse_frame(&line) else {
            continue;
        };
        let Ok(key) = request_key(&request) else {
            continue;
        };
        let walk = shared.walk_for(key.halves());
        if walk.first() != Some(&idx) {
            continue;
        }
        let probe_line = rewrite(
            &frame,
            &[
                ("cmd", Json::Str("probe".to_owned())),
                ("want_entry", Json::Bool(true)),
            ],
        );
        for &j in &walk {
            if j == idx || !workers[j].is_probeable() {
                continue;
            }
            let Ok(resp) = roundtrip(workers[j].addr(), &probe_line, shared.probe_timeout) else {
                continue;
            };
            let Some(parsed) = Json::parse(&resp) else {
                continue;
            };
            if parsed.get("status").and_then(Json::as_str) != Some("ok") {
                continue;
            }
            let Some(entry) = parsed.get("entry") else {
                continue;
            };
            let put_line = rewrite(
                &frame,
                &[
                    ("cmd", Json::Str("put".to_owned())),
                    ("entry", entry.clone()),
                ],
            );
            if matches!(
                roundtrip(newcomer.addr(), &put_line, shared.probe_timeout),
                Ok(r) if r.contains("\"status\":\"ok\"")
            ) {
                ClusterStats::bump(&shared.stats.warmed);
            }
            break;
        }
    }
}

/// Replays the journal's incomplete entries through normal dispatch.
/// Each replayed request reaches a terminal outcome (its response is
/// tagged `TS008` on the way through `annotate`) and is then marked
/// completed; the original client is gone, so the response itself is
/// discarded — the point is that the accepted work happens and the
/// cache warms, never that a ghost client hears back.
fn replay_journal(shared: &Arc<Shared>, entries: Vec<JournalEntry>) {
    for entry in entries {
        if shared.is_draining() {
            return;
        }
        if let Ok((request, frame)) = parse_frame(&entry.frame) {
            if request.cmd == Cmd::Synth {
                ClusterStats::bump(&shared.stats.journal_replays);
                let _ = dispatch_synth(&entry.frame, &request, &frame, shared, true);
            }
        }
        // Unparseable or non-synth frames are terminal by definition.
        if let Some(journal) = &shared.journal {
            journal.completed(entry.seq);
        }
    }
}

/// Serves one router connection's frames with the daemon's bounded-frame
/// contract (see [`serve_frames`]).
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    serve_frames(
        stream,
        &shared.gate,
        shared.frame_deadline,
        |stream, line| serve_line(line, shared, stream),
        |stream, msg| {
            ClusterStats::bump(&shared.stats.malformed);
            let reject = Response::reject(None, RejectKind::Malformed, msg);
            let _ = write_line(stream, &reject.render_with(&shared.stats_json()));
        },
    );
}

/// Parses and routes one frame, writing exactly one response line. An
/// accepted `synth` is journaled before dispatch and marked completed
/// after its response line is written (or the client proved gone), so a
/// router crash in between replays it on restart. Returns whether to
/// keep the connection.
fn serve_line(line: &str, shared: &Arc<Shared>, stream: &mut TcpStream) -> bool {
    let (request, frame) = match parse_frame(line) {
        Ok(parsed) => parsed,
        Err(msg) => {
            ClusterStats::bump(&shared.stats.malformed);
            let reject = Response::reject(None, RejectKind::Malformed, msg);
            let _ = write_line(stream, &reject.render_with(&shared.stats_json()));
            return false;
        }
    };
    let journal_seq = match (&shared.journal, request.cmd) {
        (Some(journal), Cmd::Synth) => {
            ClusterStats::bump(&shared.stats.journal_appends);
            let seq = journal.accepted(line);
            if shared.chaos.fault_for_journal_append(seq) == Some(SelfHealFault::JournalTorn) {
                ClusterStats::bump(&shared.stats.chaos_journal_torn);
            }
            Some(seq)
        }
        _ => None,
    };
    let id = request.id.clone();
    let close_after = request.cmd == Cmd::Shutdown;
    let rendered = match catch_unwind(AssertUnwindSafe(|| route(line, &request, &frame, shared))) {
        Ok(rendered) => rendered,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            let reject = Response::reject(
                Some(&id),
                RejectKind::Internal,
                format!("router panicked: {detail}"),
            );
            reject.render_with(&shared.stats_json())
        }
    };
    let write_ok = write_line(stream, &rendered).is_ok();
    if let (Some(journal), Some(seq)) = (&shared.journal, journal_seq) {
        // A failed write means the client hung up — the request still
        // reached its terminal outcome; only a router crash may leave
        // an entry pending.
        journal.completed(seq);
    }
    write_ok && !close_after
}

fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut out = String::with_capacity(line.len() + 1);
    out.push_str(line);
    out.push('\n');
    stream.write_all(out.as_bytes())
}

/// Routes one parsed request (`frame` is the same line as JSON) and
/// returns the fully rendered response line (local responses carry the
/// cluster `stats` trailer; relayed worker responses have it
/// substituted in).
fn route(line: &str, request: &Request, frame: &Json, shared: &Arc<Shared>) -> String {
    match request.cmd {
        Cmd::Ping => Response::outcome(&request.id, "pong").render_with(&shared.stats_json()),
        Cmd::Stats => Response::outcome(&request.id, "ok").render_with(&shared.stats_json()),
        Cmd::Shutdown => {
            shared.gate.drain();
            let mut r = Response::outcome(&request.id, "ok");
            r.message = Some("draining: the cluster no longer accepts requests".to_owned());
            r.render_with(&shared.stats_json())
        }
        Cmd::Synth => dispatch_synth(line, request, frame, shared, false),
        Cmd::Probe => dispatch_probe(line, request, frame, shared),
        Cmd::Put => dispatch_put(line, request, shared),
    }
}

/// Relay tags for [`annotate`]: which diagnostics the served response
/// must gain on the way out.
#[derive(Clone, Copy)]
struct Tags<'a> {
    /// Serving worker's stable name (for reject/error attribution).
    worker: &'a str,
    /// A non-owner served, or at least one candidate failed over (TS005).
    failover: bool,
    /// The serving worker is a respawned generation (TS007).
    respawned: bool,
    /// The request came back off the dispatch journal (TS008).
    replayed: bool,
}

/// Full routing pipeline for one `synth` (see the module docs). `frame`
/// is `line` parsed once, re-rendered for every forwarded copy.
fn dispatch_synth(
    line: &str,
    request: &Request,
    frame: &Json,
    shared: &Arc<Shared>,
    replayed: bool,
) -> String {
    ClusterStats::bump(&shared.stats.requests);
    let key = match request_key(request) {
        Ok(k) => k,
        Err(msg) => {
            ClusterStats::bump(&shared.stats.routed_error);
            return Response::reject(Some(&request.id), RejectKind::BadRequest, msg)
                .render_with(&shared.stats_json());
        }
    };
    let key_low = key.halves().0;
    remember_frame(shared, key_low, line);
    let deadline = request.deadline.unwrap_or(shared.default_deadline);
    let t_end = Instant::now() + deadline;
    // Ring before workers: membership is append-only and `add_worker`
    // pushes the slot before rebuilding the ring, so reading in this
    // order guarantees every walked index resolves to a slot.
    let walk = shared.walk_for(key.halves());
    let workers = shared.worker_snapshot();
    let owner = walk.first().copied();
    let replicating = shared.replication > 1;

    // Peer cache tier: probe other workers' caches before spending a
    // solver anywhere. The predicted dispatch head is excluded — it
    // will consult its own cache inline when the synth arrives. Only a
    // key not yet read-repaired asks for the raw entry: a hit on a
    // non-owner can then be repaired back to the live owner.
    let head = walk
        .iter()
        .copied()
        .find(|&i| workers[i].is_dispatchable() && !workers[i].breaker.is_open(Instant::now()));
    let probe_line = if replicating && !shared.is_repaired(key_low) {
        rewrite(
            frame,
            &[
                ("cmd", Json::Str("probe".to_owned())),
                ("want_entry", Json::Bool(true)),
            ],
        )
    } else {
        with_cmd(frame, "probe")
    };
    let probe_targets: Vec<usize> = walk
        .iter()
        .copied()
        .filter(|&i| Some(i) != head && workers[i].is_probeable())
        .take(shared.probe_depth)
        .collect();
    for i in probe_targets {
        ClusterStats::bump(&shared.stats.probes);
        let slot = &workers[i];
        let Ok(resp) = shared.call(slot, &probe_line, shared.probe_timeout) else {
            slot.breaker.record_failure(Instant::now());
            continue;
        };
        slot.breaker.record_success(Instant::now());
        let Some(parsed) = Json::parse(&resp).filter(|j| status_of(j) == "ok") else {
            continue;
        };
        ClusterStats::bump(&shared.stats.probe_hits);
        ClusterStats::bump(&shared.stats.routed_ok);
        read_repair(shared, frame, key_low, &walk, &workers, i, &parsed);
        // A cache-tier hit is only a *failover* when the owner could
        // not have served (dead, demoted, or breaker-open); with a
        // healthy owner, serving from a warm peer is the shared cache
        // tier working — and the response stays byte-identical to the
        // owner's own answer.
        let failover = head != owner && Some(i) != owner;
        let tags = Tags {
            worker: &slot.name,
            failover,
            respawned: slot.generation() > 0,
            replayed,
        };
        if let Some(out) = annotate(parsed, tags, shared) {
            return out;
        }
    }

    // Dispatch with failover: walk order, live workers whose breaker
    // admits, one attempt each, remaining deadline carried forward.
    let mut attempt = 0usize;
    let mut failovers = 0usize;
    let mut attempted_any = false;
    let mut reject_hints: Vec<Duration> = Vec::new();
    for &i in &walk {
        let slot = &workers[i];
        if !slot.is_dispatchable() {
            continue;
        }
        match slot.breaker.admit(Instant::now()) {
            BreakerDecision::Reject { retry_after } => {
                reject_hints.push(retry_after);
                continue;
            }
            BreakerDecision::Admit { .. } => {}
        }
        attempted_any = true;
        let mut remaining = t_end.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return deadline_error(request, failovers, shared);
        }
        // Chaos: dispatch-site fault injection. Kill, partition and
        // torn-frame all consume this candidate (the transport failed);
        // a stall only delays it.
        match shared.chaos.fault_for_dispatch(i, key_low, attempt) {
            Some(ClusterFault::WorkerKill) => {
                ClusterStats::bump(&shared.stats.chaos_kills);
                slot.kill();
                slot.breaker.record_failure(Instant::now());
                failovers += 1;
                ClusterStats::bump(&shared.stats.failovers);
                attempt += 1;
                continue;
            }
            Some(ClusterFault::Partition) => {
                ClusterStats::bump(&shared.stats.chaos_partitions);
                slot.breaker.record_failure(Instant::now());
                failovers += 1;
                ClusterStats::bump(&shared.stats.failovers);
                attempt += 1;
                continue;
            }
            Some(ClusterFault::TornFrame) => {
                ClusterStats::bump(&shared.stats.chaos_torn);
                send_torn_frame(slot.addr(), &with_deadline(frame, remaining, false));
                slot.breaker.record_failure(Instant::now());
                failovers += 1;
                ClusterStats::bump(&shared.stats.failovers);
                attempt += 1;
                continue;
            }
            Some(ClusterFault::WorkerStall(d)) => {
                ClusterStats::bump(&shared.stats.chaos_stalls);
                std::thread::sleep(d.min(remaining));
                remaining = t_end.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return deadline_error(request, failovers, shared);
                }
            }
            None => {}
        }
        attempt += 1;
        let dispatch_line = with_deadline(frame, remaining, replicating);
        let budget = remaining + shared.dispatch_grace;
        // A garbled frame is transport failure, not truth.
        let Some((resp, parsed)) = shared
            .call(slot, &dispatch_line, budget)
            .ok()
            .and_then(|resp| Json::parse(&resp).map(|parsed| (resp, parsed)))
        else {
            slot.breaker.record_failure(Instant::now());
            failovers += 1;
            ClusterStats::bump(&shared.stats.failovers);
            continue;
        };
        slot.breaker.record_success(Instant::now());
        let status = status_of(&parsed);
        match status {
            "ok" | "degraded" | "miss" => ClusterStats::bump(&shared.stats.routed_ok),
            "error" => ClusterStats::bump(&shared.stats.routed_error),
            _ => ClusterStats::bump(&shared.stats.relayed_rejects),
        }
        if status == "ok" {
            // Write-behind: copy the (fresh or cache-served)
            // un-degraded entry to the next R−1 ring successors.
            replicate(shared, frame, key_low, &walk, &workers, i, &parsed);
        }
        let failover = failovers > 0 || Some(i) != owner;
        let tags = Tags {
            worker: &slot.name,
            failover,
            respawned: slot.generation() > 0,
            replayed,
        };
        // `annotate` fails only on a non-object reply; relay that
        // verbatim as a last resort rather than dropping the request.
        return annotate(parsed, tags, shared).unwrap_or(resp);
    }

    if attempted_any {
        // Every admitted candidate failed mid-flight: a typed error, so
        // the client knows work may have been attempted.
        ClusterStats::bump(&shared.stats.routed_error);
        let mut r = Response::reject(
            Some(&request.id),
            RejectKind::Failed,
            "every live worker failed during dispatch",
        );
        if failovers > 0 {
            r.codes.push(Code::WorkerFailover.as_str().to_owned());
        }
        return r.render_with(&shared.stats_json());
    }

    // Nothing was even admitted: the explicit cluster shed. The retry
    // hint comes from the workers' breakers where one exists.
    ClusterStats::bump(&shared.stats.sheds);
    let mut r = Response::reject(
        Some(&request.id),
        RejectKind::Unavailable,
        "no live worker could accept the request",
    );
    let hint = reject_hints
        .iter()
        .min()
        .copied()
        .unwrap_or(Duration::from_millis(100));
    r.retry_after_ms = Some(hint.as_millis().max(1) as u64);
    r.codes = vec![Code::ClusterUnavailable.as_str().to_owned()];
    r.render_with(&shared.stats_json())
}

/// Remembers one dispatched frame per cache key (bounded FIFO) — the
/// supervisor's warm list for respawned workers.
fn remember_frame(shared: &Arc<Shared>, key_low: u64, line: &str) {
    let mut recent = shared.recent.lock().unwrap_or_else(PoisonError::into_inner);
    if recent.iter().any(|(k, _)| *k == key_low) {
        return;
    }
    if recent.len() >= RECENT_CAP {
        recent.remove(0);
    }
    recent.push((key_low, line.to_owned()));
}

/// Write-behind replication: copy the serving worker's entry to the
/// next `replication − 1` probeable walk members, in the background.
/// Each target is subject to a seeded [`SelfHealFault::ReplicaDrop`].
fn replicate(
    shared: &Arc<Shared>,
    frame: &Json,
    key_low: u64,
    walk: &[usize],
    workers: &[Arc<WorkerSlot>],
    served_by: usize,
    parsed: &Json,
) {
    if shared.replication <= 1 {
        return;
    }
    let Some(entry) = parsed.get("entry") else {
        return; // the worker sent no entry (degraded path, old frame)
    };
    let mut targets: Vec<(usize, Arc<WorkerSlot>)> = Vec::new();
    for &j in walk {
        if targets.len() + 1 >= shared.replication {
            break;
        }
        if j == served_by || !workers[j].is_probeable() {
            continue;
        }
        targets.push((j, Arc::clone(&workers[j])));
    }
    if targets.is_empty() {
        return;
    }
    let put_line = rewrite(
        frame,
        &[
            ("cmd", Json::Str("put".to_owned())),
            ("entry", entry.clone()),
        ],
    );
    spawn_puts(shared, put_line, targets, key_low, false);
}

/// Read-repair: a probe hit on a non-owner puts the entry back to the
/// live owner in the background, restoring ownership locality.
fn read_repair(
    shared: &Arc<Shared>,
    frame: &Json,
    key_low: u64,
    walk: &[usize],
    workers: &[Arc<WorkerSlot>],
    hit_on: usize,
    parsed: &Json,
) {
    if shared.replication <= 1 {
        return;
    }
    let Some(&owner) = walk.first() else {
        return;
    };
    if owner == hit_on || !workers[owner].is_probeable() {
        return;
    }
    let Some(entry) = parsed.get("entry") else {
        return;
    };
    {
        // Repair each key at most once per ring epoch: after the first
        // put lands the owner is warm, and re-putting on every replica
        // hit would cost a thread and an fsync per hot request.
        let mut repaired = shared
            .repaired
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if repaired.contains(&key_low) {
            return;
        }
        if repaired.len() >= RECENT_CAP {
            repaired.remove(0);
        }
        repaired.push(key_low);
    }
    let put_line = rewrite(
        frame,
        &[
            ("cmd", Json::Str("put".to_owned())),
            ("entry", entry.clone()),
        ],
    );
    spawn_puts(
        shared,
        put_line,
        vec![(owner, Arc::clone(&workers[owner]))],
        key_low,
        true,
    );
}

/// Fires `put` frames at the targets on a background thread (this is
/// the *behind* in write-behind: the client's response never waits on
/// replication). Dropped targets count `chaos_replica_drops`; stored
/// copies count `replicas_put` or `read_repairs`.
fn spawn_puts(
    shared: &Arc<Shared>,
    put_line: String,
    targets: Vec<(usize, Arc<WorkerSlot>)>,
    key_low: u64,
    repair: bool,
) {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        for (i, slot) in targets {
            if shared.is_draining() {
                return;
            }
            if shared.chaos.fault_for_replication(i, key_low) == Some(SelfHealFault::ReplicaDrop) {
                ClusterStats::bump(&shared.stats.chaos_replica_drops);
                continue;
            }
            if matches!(
                shared.call(&slot, &put_line, shared.probe_timeout),
                Ok(resp) if resp.contains("\"status\":\"ok\"")
            ) {
                if repair {
                    ClusterStats::bump(&shared.stats.read_repairs);
                } else {
                    ClusterStats::bump(&shared.stats.replicas_put);
                }
            }
        }
    });
}

/// A client-facing `probe`: consult every non-dead worker's cache in
/// walk order; the first hit is relayed, otherwise `miss`.
fn dispatch_probe(line: &str, request: &Request, frame: &Json, shared: &Arc<Shared>) -> String {
    ClusterStats::bump(&shared.stats.requests);
    let key = match request_key(request) {
        Ok(k) => k,
        Err(msg) => {
            ClusterStats::bump(&shared.stats.routed_error);
            return Response::reject(Some(&request.id), RejectKind::BadRequest, msg)
                .render_with(&shared.stats_json());
        }
    };
    // Ring before workers (see dispatch_synth): every walked index
    // then resolves to a slot.
    let walk = shared.walk_for(key.halves());
    let workers = shared.worker_snapshot();
    let owner = walk.first().copied();
    for &i in &walk {
        let slot = &workers[i];
        if !slot.is_probeable() {
            continue;
        }
        ClusterStats::bump(&shared.stats.probes);
        let Ok(resp) = shared.call(slot, line, shared.probe_timeout) else {
            slot.breaker.record_failure(Instant::now());
            continue;
        };
        slot.breaker.record_success(Instant::now());
        let Some(parsed) = Json::parse(&resp).filter(|j| status_of(j) == "ok") else {
            continue;
        };
        ClusterStats::bump(&shared.stats.probe_hits);
        ClusterStats::bump(&shared.stats.routed_ok);
        read_repair(shared, frame, key.halves().0, &walk, &workers, i, &parsed);
        let tags = Tags {
            worker: &slot.name,
            failover: Some(i) != owner,
            respawned: slot.generation() > 0,
            replayed: false,
        };
        if let Some(out) = annotate(parsed, tags, shared) {
            return out;
        }
    }
    ClusterStats::bump(&shared.stats.routed_ok);
    Response::outcome(&request.id, "miss").render_with(&shared.stats_json())
}

/// A client-facing `put`: store the replicated entry on the key's first
/// `replication` probeable walk members (each worker re-validates the
/// entry itself). The first worker's response is relayed; a rejection
/// is terminal — the entry failed the certified-store gate and must not
/// be offered to anyone else.
fn dispatch_put(line: &str, request: &Request, shared: &Arc<Shared>) -> String {
    ClusterStats::bump(&shared.stats.requests);
    let key = match request_key(request) {
        Ok(k) => k,
        Err(msg) => {
            ClusterStats::bump(&shared.stats.routed_error);
            return Response::reject(Some(&request.id), RejectKind::BadRequest, msg)
                .render_with(&shared.stats_json());
        }
    };
    let walk = shared.walk_for(key.halves());
    let workers = shared.worker_snapshot();
    let copies = shared.replication.max(1);
    let mut relayed: Option<(String, String)> = None;
    let mut stored = 0usize;
    for &i in &walk {
        if stored >= copies {
            break;
        }
        let slot = &workers[i];
        if !slot.is_probeable() {
            continue;
        }
        let Ok(resp) = shared.call(slot, line, shared.probe_timeout) else {
            slot.breaker.record_failure(Instant::now());
            continue;
        };
        slot.breaker.record_success(Instant::now());
        stored += 1;
        let parsed = Json::parse(&resp);
        let status = parsed.as_ref().map_or("", status_of).to_owned();
        if relayed.is_none() {
            let tags = Tags {
                worker: &slot.name,
                failover: false,
                respawned: slot.generation() > 0,
                replayed: false,
            };
            if let Some(out) = parsed.and_then(|parsed| annotate(parsed, tags, shared)) {
                relayed = Some((status.clone(), out));
            }
        }
        if status != "ok" {
            break;
        }
    }
    if let Some((status, out)) = relayed {
        if status == "ok" {
            ClusterStats::bump(&shared.stats.routed_ok);
        } else {
            ClusterStats::bump(&shared.stats.relayed_rejects);
        }
        return out;
    }
    ClusterStats::bump(&shared.stats.sheds);
    let mut r = Response::reject(
        Some(&request.id),
        RejectKind::Unavailable,
        "no live worker could store the entry",
    );
    r.retry_after_ms = Some(100);
    r.codes = vec![Code::ClusterUnavailable.as_str().to_owned()];
    r.render_with(&shared.stats_json())
}

/// The typed deadline error for a request whose budget ran out while
/// the router was still trying candidates.
fn deadline_error(request: &Request, failovers: usize, shared: &Arc<Shared>) -> String {
    ClusterStats::bump(&shared.stats.routed_error);
    let mut r = Response::reject(
        Some(&request.id),
        RejectKind::Deadline,
        "deadline exhausted during cluster dispatch",
    );
    r.codes
        .push(Code::RequestDeadlineExhausted.as_str().to_owned());
    if failovers > 0 {
        r.codes.push(Code::WorkerFailover.as_str().to_owned());
    }
    r.render_with(&shared.stats_json())
}

/// The torn-frame chaos fault: deliver roughly half the frame, no
/// newline, then slam the connection shut.
fn send_torn_frame(addr: SocketAddr, line: &str) {
    if let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
        let torn = &line.as_bytes()[..line.len() / 2];
        let _ = stream.write_all(torn);
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Re-renders the original frame with `cmd` replaced (field order and
/// everything else preserved).
fn with_cmd(frame: &Json, cmd: &str) -> String {
    rewrite(frame, &[("cmd", Json::Str(cmd.to_owned()))])
}

/// Re-renders the original frame with `deadline_ms` set to the
/// remaining budget — failover re-dispatch never restarts the clock —
/// and, when replication wants the entry back, `want_entry` asserted.
fn with_deadline(frame: &Json, remaining: Duration, want_entry: bool) -> String {
    let ms = (remaining.as_millis() as u64).max(1);
    if want_entry {
        rewrite(
            frame,
            &[
                ("deadline_ms", Json::Num(ms)),
                ("want_entry", Json::Bool(true)),
            ],
        )
    } else {
        rewrite(frame, &[("deadline_ms", Json::Num(ms))])
    }
}

/// Re-renders a frame with the given fields replaced (or appended),
/// preserving the order of everything already present.
fn rewrite(frame: &Json, changes: &[(&str, Json)]) -> String {
    let mut frame = frame.clone();
    if let Json::Obj(fields) = &mut frame {
        for (key, value) in changes {
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value.clone(),
                None => fields.push(((*key).to_owned(), value.clone())),
            }
        }
    }
    frame.render()
}

/// A reply's `status`, or `""`.
fn status_of(reply: &Json) -> &str {
    reply.get("status").and_then(Json::as_str).unwrap_or("")
}

/// Relay surgery on a parsed worker response: substitute the cluster's
/// `stats` trailer, strip the internal `entry` payload (it exists for
/// the router's replication machinery, never for clients), tag
/// rejections/errors with the serving worker's name, and append the
/// routing diagnostics — `TS005` when a non-owner served, `TS007` when
/// the serving worker is a respawned generation, `TS008` when the
/// request was replayed from the dispatch journal. Field order is
/// preserved so relayed responses stay byte-comparable with
/// single-daemon ones (modulo exactly these fields). `None` for a
/// reply that is not an object.
fn annotate(reply: Json, tags: Tags<'_>, shared: &Arc<Shared>) -> Option<String> {
    let Json::Obj(mut fields) = reply else {
        return None;
    };
    fields.retain(|(k, _)| k != "entry");
    let relayed_error = matches!(
        fields
            .iter()
            .find(|(k, _)| k == "status")
            .and_then(|(_, v)| v.as_str()),
        Some("rejected" | "error")
    );
    // The cluster's trailer takes the worker's `stats` position (the
    // end, for every daemon reply); fields added here go before it.
    let mut stats_at = match fields.iter().position(|(k, _)| k == "stats") {
        Some(at) => {
            fields.remove(at);
            at
        }
        None => fields.len(),
    };
    let mut extra: Vec<&str> = Vec::new();
    if tags.failover {
        extra.push(Code::WorkerFailover.as_str());
    }
    if tags.respawned {
        extra.push(Code::WorkerRespawned.as_str());
    }
    if tags.replayed {
        extra.push(Code::JournalReplayed.as_str());
    }
    for code in extra {
        let value = Json::Str(code.to_owned());
        if let Some((_, Json::Arr(codes))) = fields.iter_mut().find(|(k, _)| k == "codes") {
            if !codes.iter().any(|c| c.as_str() == Some(code)) {
                codes.push(value);
            }
        } else {
            fields.insert(stats_at, ("codes".to_owned(), Json::Arr(vec![value])));
            stats_at += 1;
        }
    }
    if relayed_error {
        let worker = Json::Str(tags.worker.to_owned());
        fields.insert(stats_at, ("worker".to_owned(), worker));
        stats_at += 1;
    }
    // Splice the rendered trailer in: `{head…,"stats":{…},tail…}`.
    let tail = fields.split_off(stats_at);
    let mut out = Json::Obj(fields).render();
    out.pop(); // the head's closing brace
    if out.len() > 1 {
        out.push(',');
    }
    out.push_str("\"stats\":");
    out.push_str(&shared.stats_json());
    if tail.is_empty() {
        out.push('}');
    } else {
        out.push(',');
        out.push_str(&Json::Obj(tail).render()[1..]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_hits_reuse_one_connection_per_worker() {
        // A generous probe budget: a loaded machine must not time a
        // pooled connection out and force a reconnect.
        let cluster = Cluster::start(ClusterConfig {
            workers: 3,
            probe_timeout: Duration::from_secs(5),
            ..ClusterConfig::default()
        })
        .expect("cluster");
        let router = cluster.local_addr();
        let line = |id: usize| {
            format!(
                "{{\"id\":\"h{id}\",\"cmd\":\"synth\",\"benchmark\":\"polynom\",\
                 \"catalog\":\"table1\",\"lambda_det\":4,\"lambda_rec\":3,\"area\":22000}}"
            )
        };
        let fresh = roundtrip(router, &line(0), Duration::from_secs(15)).expect("fresh solve");
        assert!(fresh.contains("\"status\":\"ok\""), "{fresh}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.stats().replicas_put < 1 {
            assert!(Instant::now() < deadline, "write-behind must land");
            std::thread::sleep(Duration::from_millis(5));
        }
        for id in 1..=50 {
            let hit = roundtrip(router, &line(id), Duration::from_secs(15)).expect("hit");
            assert!(hit.contains("\"cached\":true"), "{hit}");
        }
        let stats = cluster.stats();
        assert!(stats.probe_hits >= 50, "{stats:?}");
        assert!(
            stats.worker_connects <= 3,
            "one fresh connection per worker at most: {stats:?}"
        );
        cluster.handle().shutdown();
        let _ = cluster.join();
    }
}
