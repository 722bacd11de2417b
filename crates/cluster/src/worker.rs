//! One worker slot: an in-process `troy-service` daemon plus the
//! router-side health state wrapped around it.
//!
//! A slot's state is a packed `(generation, state)` word. Within one
//! generation the lifecycle is monotonic — `Live → Draining → Dead` —
//! and the three states mean three different things to the dispatcher:
//!
//! - **Live**: dispatchable (subject to its rationed [`Breaker`]) and
//!   probeable.
//! - **Draining** (cordoned): no new syntheses are dispatched to it, but
//!   in-flight work finishes and its warm result cache keeps answering
//!   peer probes — graceful rebalance demotes without dropping work.
//! - **Dead**: crash-stopped; skipped entirely. Requests it owned are
//!   re-hashed to the next live worker on the ring.
//!
//! `Dead → Live` is legal exactly once per rebirth, through
//! [`WorkerSlot::adopt`]: the respawn supervisor hands the slot a fresh
//! in-process daemon and the state word moves `(g, Dead) → (g+1, Live)`
//! in one compare-and-swap. The generation bump makes the transition
//! race-free — a stale `escalate(Dead)` aimed at generation `g` can
//! never kill generation `g+1` by accident, because `escalate` only
//! upgrades within the generation it observed.
//!
//! Every data-plane hop to the worker — probe, dispatch, `put` — goes
//! through [`WorkerSlot::call`], which keeps up to two idle connections
//! to the current daemon open between requests. A connection goes back
//! to the pool only after it carried exactly one whole reply line, so a
//! late or stray reply is never read as the next request's answer. A
//! kill, a respawn and the final drain empty the pool; health pings
//! connect afresh, since they test that the listener still accepts.

use std::io::{Error, ErrorKind};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

use troy_service::{
    connect, exchange, is_unanswered, Breaker, BreakerConfig, Service, ServiceHandle, StatsSnapshot,
};

/// Idle connections kept open per worker.
const POOL_IDLE: usize = 2;

/// Router-visible lifecycle state of one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Accepting dispatches and probes.
    Live,
    /// Cordoned: finishes in-flight work and answers cache probes, but
    /// receives no new syntheses.
    Draining,
    /// Crash-stopped (or observed dead); skipped entirely until the
    /// respawn supervisor adopts a replacement daemon into the slot.
    Dead,
}

impl WorkerState {
    fn as_u8(self) -> u8 {
        match self {
            WorkerState::Live => 0,
            WorkerState::Draining => 1,
            WorkerState::Dead => 2,
        }
    }

    fn from_u8(v: u8) -> WorkerState {
        match v {
            0 => WorkerState::Live,
            1 => WorkerState::Draining,
            _ => WorkerState::Dead,
        }
    }

    /// Stable wire/debug tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            WorkerState::Live => "live",
            WorkerState::Draining => "draining",
            WorkerState::Dead => "dead",
        }
    }
}

/// Low 2 bits carry the [`WorkerState`]; the rest count generations.
const STATE_BITS: u32 = 2;
const STATE_MASK: u32 = (1 << STATE_BITS) - 1;

fn pack(generation: u32, state: WorkerState) -> u32 {
    (generation << STATE_BITS) | u32::from(state.as_u8())
}

fn unpack(word: u32) -> (u32, WorkerState) {
    (
        word >> STATE_BITS,
        WorkerState::from_u8((word & STATE_MASK) as u8),
    )
}

/// The slot's current daemon: everything that changes on a respawn.
struct Daemon {
    addr: SocketAddr,
    handle: ServiceHandle,
    /// The owned daemon, taken exactly once at final drain.
    service: Option<Service>,
}

impl Daemon {
    fn wrap(service: Service) -> Daemon {
        Daemon {
            addr: service.local_addr(),
            handle: service.handle(),
            service: Some(service),
        }
    }
}

/// Open connections to the slot's current daemon. `epoch` changes
/// whenever the pool is emptied, so a connection checked out before a
/// kill or respawn is dropped instead of coming back.
#[derive(Default)]
struct Pool {
    state: Mutex<PoolState>,
}

#[derive(Default)]
struct PoolState {
    epoch: u64,
    idle: Vec<TcpStream>,
}

impl Pool {
    /// One request on a pooled connection to `addr()`: take an idle one
    /// or connect (bumping `connects`), send `line`, and read one reply
    /// line, all within `budget`. The connection goes back only after a
    /// clean exchange. A reused connection the daemon had closed, so
    /// that no reply byte came back, is retried once on a fresh one
    /// within the same budget.
    fn call(
        &self,
        addr: impl Fn() -> SocketAddr,
        line: &str,
        budget: Duration,
        connects: &AtomicU64,
    ) -> std::io::Result<String> {
        let t_end = Instant::now() + budget;
        let (idle, epoch) = {
            let mut state = self.lock();
            (state.idle.pop(), state.epoch)
        };
        if let Some(mut stream) = idle {
            match exchange(&mut stream, line, t_end) {
                Ok(reply) => {
                    self.check_in(stream, epoch);
                    return Ok(reply);
                }
                // The daemon closed it while it sat idle: one fresh try,
                // unless the daemon itself is gone (kill, respawn, drain).
                Err(e) if is_unanswered(&e) && self.lock().epoch == epoch => {}
                Err(e) => return Err(e),
            }
        }
        let remaining = t_end.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(Error::new(
                ErrorKind::TimedOut,
                "budget spent on a stale connection",
            ));
        }
        // The epoch is read before the address: a respawn in between
        // bumps it, and the connection is then dropped, not pooled.
        let epoch = self.lock().epoch;
        let mut stream = connect(addr(), remaining)?;
        connects.fetch_add(1, Ordering::Relaxed);
        let reply = exchange(&mut stream, line, t_end)?;
        self.check_in(stream, epoch);
        Ok(reply)
    }

    /// Returns a connection after a clean exchange, unless the pool was
    /// emptied since it was taken or is full.
    fn check_in(&self, stream: TcpStream, epoch: u64) {
        let mut state = self.lock();
        if state.epoch == epoch && state.idle.len() < POOL_IDLE {
            state.idle.push(stream);
        }
    }

    /// Closes every idle connection and turns away those checked out.
    fn empty(&self) {
        let idle = {
            let mut state = self.lock();
            state.epoch += 1;
            std::mem::take(&mut state.idle)
        };
        drop(idle);
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One worker daemon as the router sees it.
pub struct WorkerSlot {
    /// Stable short name (`w0`, `w1`, …), surfaced in typed errors. The
    /// name survives respawns; the generation distinguishes rebirths.
    pub name: String,
    /// Rationed health breaker: periodic pings and dispatch outcomes
    /// both feed it, and an open breaker demotes the worker from
    /// dispatch without touching its state (it may still be probed).
    /// A respawn re-arms it in probation rather than replacing it.
    pub breaker: Breaker,
    /// Packed `(generation, state)` word; see the module docs.
    state: AtomicU32,
    /// The daemon currently occupying the slot; replaced on respawn.
    daemon: RwLock<Daemon>,
    /// Drained daemons of dead generations, parked until final drain so
    /// their threads are never abandoned mid-test.
    retired: Mutex<Vec<Service>>,
    /// Open connections to the current daemon, reused by [`Self::call`].
    pool: Pool,
}

impl WorkerSlot {
    /// Wraps a freshly started in-process daemon as generation 0.
    #[must_use]
    pub fn new(name: String, service: Service, breaker: BreakerConfig) -> Self {
        WorkerSlot {
            name,
            breaker: Breaker::new(breaker),
            state: AtomicU32::new(pack(0, WorkerState::Live)),
            daemon: RwLock::new(Daemon::wrap(service)),
            retired: Mutex::new(Vec::new()),
            pool: Pool::default(),
        }
    }

    /// The current daemon's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.daemon
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .addr
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> WorkerState {
        unpack(self.state.load(Ordering::SeqCst)).1
    }

    /// How many times the slot has been respawned (generation 0 is the
    /// daemon that booted with the cluster).
    #[must_use]
    pub fn generation(&self) -> u32 {
        unpack(self.state.load(Ordering::SeqCst)).0
    }

    /// Escalates the state within the observed generation; downgrades
    /// are ignored, and an escalation that races a respawn simply lands
    /// on the new generation (or kills it — which the supervisor then
    /// observes and handles like any other death).
    pub fn escalate(&self, to: WorkerState) {
        let mut cur = self.state.load(Ordering::SeqCst);
        loop {
            let (generation, state) = unpack(cur);
            if state.as_u8() >= to.as_u8() {
                return;
            }
            match self.state.compare_exchange_weak(
                cur,
                pack(generation, to),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    /// May receive new syntheses (breaker permitting).
    #[must_use]
    pub fn is_dispatchable(&self) -> bool {
        self.state() == WorkerState::Live
    }

    /// May answer peer cache probes (anything not crash-stopped).
    #[must_use]
    pub fn is_probeable(&self) -> bool {
        self.state() != WorkerState::Dead
    }

    /// Crash-stops the worker daemon the way a `SIGKILL` would — pending
    /// responses are dropped, peers see EOF — and marks the slot dead.
    pub fn kill(&self) {
        self.daemon
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .handle
            .kill();
        self.escalate(WorkerState::Dead);
        self.pool.empty();
    }

    /// Cordons the worker: the dispatcher stops sending it new work,
    /// while in-flight syntheses finish and its cache keeps serving peer
    /// probes. The daemon itself is only torn down at final drain.
    pub fn cordon(&self) {
        self.escalate(WorkerState::Draining);
    }

    /// Adopts a fresh daemon into a dead slot: the state word moves
    /// `(g, Dead) → (g+1, Live)` in one compare-and-swap, the slot's
    /// address and handle switch to the newcomer, and the previous
    /// (killed) daemon is parked for final drain. Returns the new
    /// generation, or — when the slot is not dead (it was never killed,
    /// or a concurrent adopt won) — hands `service` back untouched so
    /// the caller can stop the orphan daemon.
    ///
    /// # Errors
    /// The slot is not dead; `service` is returned unadopted.
    pub fn adopt(&self, service: Service) -> Result<u32, Service> {
        // Serialize adopts through the daemon write lock so two
        // concurrent supervisors cannot interleave the CAS and the
        // daemon swap.
        let mut daemon = self.daemon.write().unwrap_or_else(PoisonError::into_inner);
        let mut cur = self.state.load(Ordering::SeqCst);
        loop {
            let (generation, state) = unpack(cur);
            if state != WorkerState::Dead || generation >= u32::MAX >> STATE_BITS {
                return Err(service);
            }
            let next = generation + 1;
            match self.state.compare_exchange(
                cur,
                pack(next, WorkerState::Live),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    let old = std::mem::replace(&mut *daemon, Daemon::wrap(service));
                    self.pool.empty();
                    if let Some(dead) = old.service {
                        self.retired
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(dead);
                    }
                    return Ok(next);
                }
                Err(observed) => cur = observed,
            }
        }
    }

    /// Begins the daemon's own graceful drain and blocks for it,
    /// returning the final serve-path counters. `None` after the first
    /// call (the daemon can be joined once) or for a slot with no
    /// in-process daemon. Retired daemons from dead generations are
    /// joined here too, so respawns never abandon threads.
    pub fn shutdown_service(&self) -> Option<StatsSnapshot> {
        self.escalate(WorkerState::Draining);
        // An idle pooled connection would hold the daemon's frame loop
        // until its next read tick: close them before the drain.
        self.pool.empty();
        for dead in
            std::mem::take(&mut *self.retired.lock().unwrap_or_else(PoisonError::into_inner))
        {
            dead.handle().shutdown();
            let _ = dead.join();
        }
        let service = self
            .daemon
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .service
            .take()?;
        service.handle().shutdown();
        Some(service.join())
    }

    /// One data-plane request to the current daemon on a pooled
    /// connection: send `line` and read one reply line within `budget`.
    /// `connects` counts the fresh connections opened (see the module
    /// docs for when a connection is reused).
    ///
    /// # Errors
    /// As [`troy_service::connect`] and [`troy_service::exchange`].
    pub fn call(
        &self,
        line: &str,
        budget: Duration,
        connects: &AtomicU64,
    ) -> std::io::Result<String> {
        self.pool.call(|| self.addr(), line, budget, connects)
    }

    /// Idle pooled connections (tests only).
    #[cfg(test)]
    fn idle_connections(&self) -> usize {
        self.pool.lock().idle.len()
    }

    /// Point-in-time serve-path counters of the worker daemon.
    #[must_use]
    pub fn service_stats(&self) -> StatsSnapshot {
        self.daemon
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .handle
            .stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::sync::mpsc;
    use troy_service::{Service, ServiceConfig};

    /// A loopback line server for pool tests. Each request line is
    /// echoed back, except: `slow…` is echoed after 300 ms (and the
    /// returned channel told once it was written), `bye…` is echoed and
    /// the connection closed, `torn…` gets half a line and a close, and
    /// `twice…` is echoed twice in one write.
    fn line_server() -> (SocketAddr, mpsc::Receiver<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (late_tx, late_rx) = mpsc::channel();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let late_tx = late_tx.clone();
                std::thread::spawn(move || {
                    let mut out = stream.try_clone().expect("clone");
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { return };
                        let reply = match line.as_str() {
                            l if l.starts_with("slow") => {
                                std::thread::sleep(Duration::from_millis(300));
                                format!("{l}\n")
                            }
                            l if l.starts_with("torn") => {
                                let _ = out.write_all(b"{\"half");
                                return;
                            }
                            l if l.starts_with("twice") => format!("{l}\n{l}\n"),
                            l => format!("{l}\n"),
                        };
                        let written = out.write_all(reply.as_bytes());
                        if line.starts_with("slow") {
                            let _ = late_tx.send(());
                        }
                        if written.is_err() || line.starts_with("bye") {
                            return;
                        }
                    }
                });
            }
        });
        (addr, late_rx)
    }

    #[test]
    fn pool_never_hands_a_late_reply_to_the_next_caller() {
        let (addr, late) = line_server();
        let pool = Pool::default();
        let connects = AtomicU64::new(0);
        let call = |line: &str, budget: u64| {
            pool.call(|| addr, line, Duration::from_millis(budget), &connects)
        };
        let err = call("slow", 100).expect_err("the reply comes after the budget");
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert_eq!(
            pool.lock().idle.len(),
            0,
            "a timed-out connection is dropped"
        );
        assert_eq!(call("first", 2000).expect("own reply"), "first");
        // The late reply is on the wire now: had its connection been
        // kept, the next caller would read it instead of its own.
        late.recv().expect("the late reply was written");
        assert_eq!(call("second", 2000).expect("own reply"), "second");
        assert_eq!(
            connects.load(Ordering::Relaxed),
            2,
            "`second` reused `first`'s"
        );
        assert_eq!(pool.lock().idle.len(), 1);
    }

    #[test]
    fn pool_drops_a_connection_with_bytes_after_the_reply() {
        let (addr, _) = line_server();
        let pool = Pool::default();
        let connects = AtomicU64::new(0);
        let err = pool
            .call(|| addr, "twice", Duration::from_secs(2), &connects)
            .expect_err("two lines for one request");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(pool.lock().idle.len(), 0);
        let reply = pool.call(|| addr, "next", Duration::from_secs(2), &connects);
        assert_eq!(reply.expect("fresh connection"), "next");
        assert_eq!(connects.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pool_retries_a_connection_closed_while_idle_but_not_a_torn_reply() {
        let (addr, _) = line_server();
        let pool = Pool::default();
        let connects = AtomicU64::new(0);
        let call = |line: &str| pool.call(|| addr, line, Duration::from_secs(2), &connects);
        assert_eq!(call("bye-1").expect("reply"), "bye-1");
        assert_eq!(pool.lock().idle.len(), 1, "the close is not seen yet");
        // The pooled connection is closed: no reply byte, so one retry
        // on a fresh connection answers within the same call.
        assert_eq!(call("bye-2").expect("retried"), "bye-2");
        assert_eq!(connects.load(Ordering::Relaxed), 2);
        assert_eq!(call("ok").expect("retried"), "ok");
        assert_eq!(connects.load(Ordering::Relaxed), 3);
        // A reply cut off mid-line is not retried: the request may have
        // been acted on.
        let err = call("torn").expect_err("half a line");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(connects.load(Ordering::Relaxed), 3, "no fresh try");
    }

    #[test]
    fn pool_is_emptied_by_kill_and_drain_and_follows_a_respawn() {
        const PING: &str = "{\"id\":\"p\",\"cmd\":\"ping\"}";
        let connects = AtomicU64::new(0);
        let service = Service::start(ServiceConfig::default()).expect("worker starts");
        let slot = WorkerSlot::new("w0".into(), service, BreakerConfig::default());
        let ping = || slot.call(PING, Duration::from_secs(5), &connects);
        assert!(ping().expect("pong").contains("\"pong\""));
        assert!(ping().expect("pong").contains("\"pong\""));
        assert_eq!(
            connects.load(Ordering::Relaxed),
            1,
            "the second ping reuses"
        );
        assert_eq!(slot.idle_connections(), 1);

        slot.kill();
        assert_eq!(slot.idle_connections(), 0, "a kill empties the pool");
        let replacement = Service::start(ServiceConfig::default()).expect("replacement");
        assert_eq!(slot.adopt(replacement).ok(), Some(1));
        assert!(ping().expect("the newcomer answers").contains("\"pong\""));
        assert_eq!(connects.load(Ordering::Relaxed), 2);
        assert_eq!(slot.idle_connections(), 1);

        assert!(slot.shutdown_service().is_some());
        assert_eq!(
            slot.idle_connections(),
            0,
            "the drain empties the pool first"
        );
    }

    #[test]
    fn lifecycle_is_monotonic_within_a_generation() {
        let service = Service::start(ServiceConfig::default()).expect("worker starts");
        let slot = WorkerSlot::new("w0".into(), service, BreakerConfig::default());
        assert_eq!(slot.state(), WorkerState::Live);
        assert_eq!(slot.generation(), 0);
        assert!(slot.is_dispatchable() && slot.is_probeable());

        slot.cordon();
        assert_eq!(slot.state(), WorkerState::Draining);
        assert!(!slot.is_dispatchable(), "cordoned: no new dispatches");
        assert!(slot.is_probeable(), "cordoned: cache still answers");
        slot.escalate(WorkerState::Live);
        assert_eq!(slot.state(), WorkerState::Draining, "no downgrades");

        slot.kill();
        assert_eq!(slot.state(), WorkerState::Dead);
        assert!(!slot.is_probeable());
        let _ = slot.shutdown_service();
        assert!(slot.shutdown_service().is_none(), "joinable exactly once");
    }

    #[test]
    fn adopt_revives_a_dead_slot_under_a_new_generation() {
        let service = Service::start(ServiceConfig::default()).expect("worker starts");
        let slot = WorkerSlot::new("w0".into(), service, BreakerConfig::default());
        let first_addr = slot.addr();

        // A live slot refuses adoption: Dead → Live is the only legal
        // rebirth edge — and the orphan daemon comes back to its owner.
        let intruder = Service::start(ServiceConfig::default()).expect("intruder starts");
        let intruder = slot.adopt(intruder).expect_err("live slot refuses");
        intruder.handle().shutdown();
        let _ = intruder.join();

        slot.kill();
        assert_eq!(slot.state(), WorkerState::Dead);
        let replacement = Service::start(ServiceConfig::default()).expect("replacement starts");
        let new_addr = replacement.local_addr();
        assert_eq!(slot.adopt(replacement).ok(), Some(1));
        assert_eq!(slot.state(), WorkerState::Live, "Dead → Live is legal");
        assert_eq!(slot.generation(), 1);
        assert_eq!(slot.addr(), new_addr);
        assert_ne!(slot.addr(), first_addr, "the newcomer has its own port");
        assert!(slot.is_dispatchable() && slot.is_probeable());

        // The lifecycle restarts monotonic within the new generation…
        slot.kill();
        assert_eq!(slot.state(), WorkerState::Dead);
        assert_eq!(slot.generation(), 1, "a kill never touches the generation");
        // …and a second rebirth bumps it again.
        let third = Service::start(ServiceConfig::default()).expect("third starts");
        assert_eq!(slot.adopt(third).ok(), Some(2));
        assert_eq!(slot.generation(), 2);
        let _ = slot.shutdown_service();
    }

    #[test]
    fn concurrent_adopts_admit_exactly_one_winner() {
        let service = Service::start(ServiceConfig::default()).expect("worker starts");
        let slot = WorkerSlot::new("w0".into(), service, BreakerConfig::default());
        slot.kill();
        let outcomes: Vec<Option<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        match slot.adopt(Service::start(ServiceConfig::default()).expect("starts"))
                        {
                            Ok(generation) => Some(generation),
                            Err(orphan) => {
                                orphan.handle().shutdown();
                                let _ = orphan.join();
                                None
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let winners: Vec<u32> = outcomes.into_iter().flatten().collect();
        assert_eq!(winners, vec![1], "exactly one adopt wins, as generation 1");
        assert_eq!(slot.generation(), 1);
        assert_eq!(slot.state(), WorkerState::Live);
        let _ = slot.shutdown_service();
    }
}
