//! The accept side shared by the daemon and the cluster router.
//!
//! A listener is served by a small, elastic set of acceptor threads.
//! Each acceptor blocks in `accept(2)` and serves the connection it
//! accepted on its own thread, so a connection is neither handed to
//! another thread nor waits for one to start: the thread that wakes on
//! the arrival reads the first frame. An acceptor that takes a
//! connection while no other is parked in `accept` (or starting up)
//! first starts one replacement, so a long synthesis never blocks
//! `accept`; when its connection closes it parks again, or exits if
//! three (`MAX_PARKED`) are already parked. Live connections are
//! therefore unbounded, as admission (not the accept side) bounds
//! solver work, while a steady load of at most two concurrent
//! connections starts no threads. A handler that panics, or a
//! replacement that fails to start, costs that one connection, never
//! the listener's last acceptor.
//!
//! A blocked `accept` cannot see the drain flag, so [`Gate::drain`]
//! wakes every parked acceptor with one loopback connection each to the
//! listener's own address. Serving acceptors never hold the listener,
//! so once the last parked one has woken and returned
//! ([`Gate::wait_closed`]) the listener is closed and later connects
//! are refused.
//!
//! The gate also counts live connections and signals drain and idleness
//! through condition variables, so a drain waits for connections — and
//! background loops wait out their period — without sleep polling.

use std::io::ErrorKind;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Acceptors left parked in `accept` once a burst of connections has
/// closed; one returning to find this many parked exits instead. Up to
/// `MAX_PARKED - 1` concurrent connections start no threads: they take
/// parked acceptors and leave one in `accept`.
const MAX_PARKED: usize = 3;

/// How long [`Gate::drain`] waits for each wake-up connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Pause after an `accept` failure that is not about one client (out of
/// descriptors or buffers), so the loop does not spin on it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// The listener of one server with its drain flag, live-connection
/// count and acceptor bookkeeping.
pub struct Gate {
    /// The bound address.
    local_addr: SocketAddr,
    /// `local_addr` with an unspecified IP replaced by loopback: where
    /// [`Gate::drain`] connects to wake parked acceptors.
    wake_addr: SocketAddr,
    /// Set once by [`Gate::drain`], under the state lock; never cleared.
    draining: AtomicBool,
    state: Mutex<State>,
    /// Notified when `live` drops to zero.
    idle: Condvar,
    /// Notified when the drain begins and when the last parked acceptor
    /// has returned after it.
    drained: Condvar,
}

struct State {
    /// Connections whose handler is still running.
    live: usize,
    /// Acceptors blocked in `accept` or starting up.
    parked: usize,
    /// The listener until the drain begins. Parked acceptors hold a
    /// clone; serving ones hold none, so the socket closes once the last
    /// parked acceptor lets go.
    listener: Option<Arc<TcpListener>>,
}

impl Gate {
    /// Binds `addr` (blocking, so `accept` waits for arrivals). Nothing
    /// is accepted until [`Gate::serve`]; connects queue until then.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(addr: &str) -> std::io::Result<Arc<Gate>> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let wake_ip = match local_addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        Ok(Arc::new(Gate {
            local_addr,
            wake_addr: SocketAddr::new(wake_ip, local_addr.port()),
            draining: AtomicBool::new(false),
            state: Mutex::new(State {
                live: 0,
                parked: 0,
                listener: Some(Arc::new(listener)),
            }),
            idle: Condvar::new(),
            drained: Condvar::new(),
        }))
    }

    /// The bound address (useful with `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// `true` once a drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begins the drain: sets the flag, wakes every [`Gate::pause`] and
    /// every parked acceptor, one loopback connection each. Only the
    /// first call acts (after it the listener closes and its port may
    /// belong to someone else); returns whether this call was that one.
    pub fn drain(&self) -> bool {
        let parked = {
            let mut state = self.lock();
            if self.draining.swap(true, Ordering::SeqCst) {
                return false;
            }
            state.listener = None;
            self.drained.notify_all();
            state.parked
        };
        // The wake-up connections are never served: the acceptor that
        // takes one sees the flag and returns. Should one fail, the next
        // real arrival wakes that acceptor the same way.
        for _ in 0..parked {
            let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
        }
        true
    }

    /// Waits `period`, or less if the drain begins first; returns whether
    /// it has. The tick of a background loop that must stop on drain.
    pub fn pause(&self, period: Duration) -> bool {
        let until = Instant::now() + period;
        let mut state = self.lock();
        while !self.is_draining() {
            let Some(left) = left_until(until) else {
                return false;
            };
            state = self
                .drained
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }

    /// Waits until no connection is live or `until` passes; returns
    /// whether every connection has closed.
    pub fn wait_idle(&self, until: Instant) -> bool {
        let mut state = self.lock();
        while state.live > 0 {
            let Some(left) = left_until(until) else {
                return false;
            };
            state = self
                .idle
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }

    /// Blocks until the drain has begun and every parked acceptor has
    /// returned: the listener is closed and later connects are refused.
    /// Connections still being served are not waited for (see
    /// [`Gate::wait_idle`]).
    pub fn wait_closed(&self) {
        let mut state = self.lock();
        while !self.is_draining() || state.parked > 0 {
            state = self
                .drained
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Starts the first acceptor and returns: from now on every
    /// connection runs `handler` on the acceptor that took it, until the
    /// drain begins. A connection counts as live until its handler
    /// returns or panics.
    ///
    /// # Errors
    /// The first acceptor thread could not be started.
    pub fn serve<F>(self: &Arc<Self>, handler: F) -> std::io::Result<()>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        {
            let mut state = self.lock();
            if state.listener.is_none() {
                return Ok(());
            }
            state.parked += 1;
        }
        self.start_acceptor(&Arc::new(handler))
    }

    /// Starts one acceptor, already counted as parked; uncounts it if
    /// the thread cannot be started.
    fn start_acceptor<F>(self: &Arc<Self>, handler: &Arc<F>) -> std::io::Result<()>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let gate = Arc::clone(self);
        let handler = Arc::clone(handler);
        let started = std::thread::Builder::new().spawn(move || gate.accept_and_serve(&handler));
        started.map(drop).inspect_err(|_| self.unpark())
    }

    /// The body of one acceptor thread: take a connection, serve it
    /// here, park again; return on drain or when enough are parked.
    fn accept_and_serve<F>(self: Arc<Self>, handler: &Arc<F>)
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let mut listener = self.lock().listener.clone();
        // The listener clone is dropped as soon as `next` returns, so a
        // serving acceptor never keeps the socket open.
        while let Some(stream) = listener.take().and_then(|l| self.next(&l)) {
            let spare = {
                let mut state = self.lock();
                state.live += 1;
                self.leave_parked(&mut state);
                let spare = state.parked == 0 && !self.is_draining();
                state.parked += usize::from(spare);
                spare
            };
            if spare {
                // On failure keep serving: this acceptor parks again
                // when its connection closes.
                let _ = self.start_acceptor(handler);
            }
            // A panic costs this connection, never the acceptor.
            let _ = catch_unwind(AssertUnwindSafe(|| (*handler)(stream)));
            let mut state = self.lock();
            state.live -= 1;
            if state.live == 0 {
                self.idle.notify_all();
            }
            if self.is_draining() || state.parked >= MAX_PARKED {
                return;
            }
            state.parked += 1;
            listener.clone_from(&state.listener);
        }
        self.unpark();
    }

    /// One parked acceptor returned without a connection to serve.
    fn unpark(&self) {
        self.leave_parked(&mut self.lock());
    }

    /// Uncounts one parked acceptor (it holds the listener no longer);
    /// the last one out after the drain wakes [`Gate::wait_closed`].
    fn leave_parked(&self, state: &mut State) {
        state.parked -= 1;
        if state.parked == 0 && self.is_draining() {
            self.drained.notify_all();
        }
    }

    /// Blocks for the next connection; `None` once the drain has begun.
    /// A connection accepted after that (a wake-up, or a late client)
    /// is dropped unserved.
    fn next(&self, listener: &TcpListener) -> Option<TcpStream> {
        loop {
            let accepted = listener.accept();
            if self.is_draining() {
                return None;
            }
            match accepted {
                Ok((stream, _peer)) => return Some(stream),
                // One client's trouble (reset before accept, a signal):
                // take the next one straight away.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::ConnectionAborted | ErrorKind::Interrupted
                    ) => {}
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acceptors parked in `accept` or starting up.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.lock().parked
    }
}

fn left_until(until: Instant) -> Option<Duration> {
    until
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;

    /// A gate serving a one-byte echo on every connection, except that
    /// a connection whose first byte is `h` hangs (reads without
    /// answering) until the peer closes. Counts the handler's runs.
    fn echo_gate(addr: &str) -> (SocketAddr, Arc<Gate>, Arc<AtomicUsize>) {
        let gate = Gate::bind(addr).expect("bind");
        let served = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&served);
        gate.serve(move |mut stream| {
            counter.fetch_add(1, Ordering::SeqCst);
            let mut byte = [0u8; 1];
            let mut hang = false;
            while matches!(stream.read(&mut byte), Ok(1)) {
                hang |= byte[0] == b'h';
                if !hang {
                    let _ = stream.write_all(&byte);
                }
            }
        })
        .expect("serve");
        (gate.local_addr(), gate, served)
    }

    fn echo(stream: &mut TcpStream) -> std::io::Result<u8> {
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.write_all(b"x")?;
        let mut byte = [0u8; 1];
        stream.read_exact(&mut byte)?;
        Ok(byte[0])
    }

    fn connect_and_echo(addr: SocketAddr) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect");
        assert_eq!(echo(&mut stream).ok(), Some(b'x'), "served");
        stream
    }

    fn settle(gate: &Gate) {
        assert!(gate.wait_idle(Instant::now() + Duration::from_secs(5)));
    }

    /// [`Gate::wait_closed`], failing instead of hanging after 5 s.
    fn closes(gate: &Arc<Gate>) {
        let (done, closed) = std::sync::mpsc::channel();
        let gate = Arc::clone(gate);
        std::thread::spawn(move || {
            gate.wait_closed();
            let _ = done.send(());
        });
        assert!(
            closed.recv_timeout(Duration::from_secs(5)).is_ok(),
            "every parked acceptor returns on drain"
        );
    }

    #[test]
    fn drain_wakes_the_blocked_accept_and_refuses_later_connects() {
        let (addr, gate, _) = echo_gate("127.0.0.1:0");
        drop(connect_and_echo(addr));
        assert!(gate.drain(), "the first drain acts");
        assert!(!gate.drain(), "a second drain is a no-op");
        closes(&gate);
        settle(&gate);
        assert!(TcpStream::connect(addr).is_err(), "the listener is closed");
    }

    #[test]
    fn drain_wakes_a_listener_bound_to_the_unspecified_address() {
        let (_addr, gate, _) = echo_gate("0.0.0.0:0");
        assert_eq!(gate.wake_addr.ip(), IpAddr::V4(Ipv4Addr::LOCALHOST));
        assert!(gate.drain());
        closes(&gate);
    }

    #[test]
    fn wait_idle_waits_for_open_connections() {
        let (addr, gate, _) = echo_gate("127.0.0.1:0");
        let open = connect_and_echo(addr);
        gate.drain();
        closes(&gate);
        assert!(
            !gate.wait_idle(Instant::now() + Duration::from_millis(50)),
            "one connection is still open"
        );
        assert!(TcpStream::connect(addr).is_err(), "closed while serving");
        drop(open);
        settle(&gate);
    }

    #[test]
    fn pause_returns_early_on_drain() {
        let (_addr, gate, _) = echo_gate("127.0.0.1:0");
        assert!(!gate.pause(Duration::from_millis(1)), "no drain yet");
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                (gate.pause(Duration::from_secs(60)), t0.elapsed())
            })
        };
        gate.drain();
        let (drained, waited) = waiter.join().expect("waiter");
        assert!(drained);
        assert!(waited < Duration::from_secs(30), "woken, not timed out");
        closes(&gate);
    }

    #[test]
    fn a_blocked_handler_does_not_block_the_next_connection() {
        let (addr, gate, _) = echo_gate("127.0.0.1:0");
        let mut stuck = TcpStream::connect(addr).expect("connect");
        stuck.write_all(b"h").expect("hang the handler");
        let t0 = Instant::now();
        drop(connect_and_echo(addr));
        assert!(t0.elapsed() < Duration::from_secs(1), "served promptly");
        drop(stuck);
        settle(&gate);
        gate.drain();
        closes(&gate);
    }

    #[test]
    fn a_burst_leaves_at_most_max_parked_acceptors() {
        let (addr, gate, _) = echo_gate("127.0.0.1:0");
        let burst: Vec<TcpStream> = (0..8).map(|_| connect_and_echo(addr)).collect();
        assert!(
            gate.parked() >= 1,
            "a spare waits in accept during the burst"
        );
        drop(burst);
        settle(&gate);
        assert_eq!(gate.parked(), MAX_PARKED);
        // Two concurrent connections start no threads: they take two
        // parked acceptors and leave the rest in `accept`.
        for _ in 0..4 {
            let pair = [connect_and_echo(addr), connect_and_echo(addr)];
            assert_eq!(gate.parked(), MAX_PARKED - 2, "no spare was started");
            drop(pair);
            settle(&gate);
            assert_eq!(gate.parked(), MAX_PARKED);
        }
        gate.drain();
        closes(&gate);
    }

    #[test]
    fn a_panicking_handler_costs_its_connection_not_the_acceptor() {
        let gate = Gate::bind("127.0.0.1:0").expect("bind");
        let addr = gate.local_addr();
        let first = AtomicBool::new(true);
        gate.serve(move |mut stream| {
            assert!(!first.swap(false, Ordering::SeqCst), "first connection");
            let mut byte = [0u8; 1];
            while matches!(stream.read(&mut byte), Ok(1)) {
                let _ = stream.write_all(&byte);
            }
        })
        .expect("serve");
        let mut doomed = TcpStream::connect(addr).expect("connect");
        assert!(
            echo(&mut doomed).is_err(),
            "the panicking handler answers nothing"
        );
        settle(&gate);
        assert_eq!(gate.parked(), 2, "the spare, and the acceptor parked again");
        drop(connect_and_echo(addr));
        gate.drain();
        closes(&gate);
    }

    #[test]
    fn drain_wakes_every_parked_acceptor_and_serves_no_wake_up() {
        let (addr, gate, served) = echo_gate("127.0.0.1:0");
        drop((0..4).map(|_| connect_and_echo(addr)).collect::<Vec<_>>());
        settle(&gate);
        assert_eq!(gate.parked(), MAX_PARKED);
        assert!(gate.drain());
        closes(&gate);
        assert_eq!(gate.parked(), 0);
        assert!(TcpStream::connect(addr).is_err(), "the listener is closed");
        settle(&gate);
        assert_eq!(
            served.load(Ordering::SeqCst),
            4,
            "only real clients are served"
        );
    }
}
