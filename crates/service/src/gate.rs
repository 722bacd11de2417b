//! The accept side shared by the daemon and the cluster router.
//!
//! Both servers run one accept thread per listener and one thread per
//! connection. The accept thread blocks in `accept(2)`, so a connection
//! is handed to its thread the moment it arrives: there is no polling
//! interval between a client's connect and the server reading its first
//! frame. A blocked `accept` cannot see the drain flag, so
//! [`Gate::drain`] wakes it with one loopback connection to the
//! listener's own address; the loop finds the flag set and returns,
//! which drops the listener, so later connects are refused.
//!
//! The gate also counts live connections and signals drain and idleness
//! through condition variables, so a drain waits for connections — and
//! background loops wait out their period — without sleep polling.

use std::io::ErrorKind;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long [`Gate::drain`] waits for its wake-up connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Pause after an `accept` failure that is not about one client (out of
/// descriptors or buffers), so the loop does not spin on it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Drain flag, live-connection count and accept wake-up of one listener.
pub struct Gate {
    /// The listener's address with an unspecified IP replaced by
    /// loopback: where [`Gate::drain`] connects to wake `accept`.
    wake_addr: SocketAddr,
    /// Set once by [`Gate::drain`]; never cleared.
    draining: AtomicBool,
    /// Connections whose handler is still running.
    live: Mutex<usize>,
    /// Notified when `live` drops to zero.
    idle: Condvar,
    /// Notified when the drain begins.
    drained: Condvar,
}

impl Gate {
    /// Binds `addr` (blocking, so `accept` waits for arrivals) and
    /// returns the listener with its gate.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(addr: &str) -> std::io::Result<(TcpListener, Arc<Gate>)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let wake_ip = match local.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        let gate = Gate {
            wake_addr: SocketAddr::new(wake_ip, local.port()),
            draining: AtomicBool::new(false),
            live: Mutex::new(0),
            idle: Condvar::new(),
            drained: Condvar::new(),
        };
        Ok((listener, Arc::new(gate)))
    }

    /// `true` once a drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begins the drain: sets the flag, wakes every [`Gate::pause`] and
    /// the blocked accept thread. Only the first call acts (after it the
    /// listener is gone and its port may belong to someone else);
    /// returns whether this call was that one.
    pub fn drain(&self) -> bool {
        {
            let _live = self.lock();
            if self.draining.swap(true, Ordering::SeqCst) {
                return false;
            }
            self.drained.notify_all();
        }
        // The connection itself is never served: the accept loop sees
        // the flag and returns. Should it fail, the next real arrival
        // ends the loop the same way.
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
        true
    }

    /// Waits `period`, or less if the drain begins first; returns whether
    /// it has. The tick of a background loop that must stop on drain.
    pub fn pause(&self, period: Duration) -> bool {
        let until = Instant::now() + period;
        let mut live = self.lock();
        while !self.is_draining() {
            let Some(left) = left_until(until) else {
                return false;
            };
            live = self
                .drained
                .wait_timeout(live, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }

    /// Waits until no connection is live or `until` passes; returns
    /// whether every connection has closed.
    pub fn wait_idle(&self, until: Instant) -> bool {
        let mut live = self.lock();
        while *live > 0 {
            let Some(left) = left_until(until) else {
                return false;
            };
            live = self
                .idle
                .wait_timeout(live, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }

    /// The accept loop: runs `handler` on its own thread for every
    /// connection until the drain begins, then drops the listener and
    /// returns. A connection counts as live until its handler returns
    /// (or panics).
    pub fn serve<F>(self: Arc<Self>, listener: TcpListener, handler: F)
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        while let Some(stream) = self.next(&listener) {
            *self.lock() += 1;
            let live = Live(Arc::clone(&self));
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || {
                let _live = live;
                handler(stream);
            });
        }
        // Closing the listener refuses every later connect.
        drop(listener);
    }

    /// Blocks for the next connection; `None` once the drain has begun.
    /// A connection accepted after that (the wake-up, or a late client)
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

    fn lock(&self) -> MutexGuard<'_, usize> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One live connection; dropping it may wake [`Gate::wait_idle`].
struct Live(Arc<Gate>);

impl Drop for Live {
    fn drop(&mut self) {
        let mut live = self.0.lock();
        *live -= 1;
        if *live == 0 {
            self.0.idle.notify_all();
        }
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
    use std::thread::JoinHandle;

    /// A gate serving a one-byte echo on every connection.
    fn echo_gate(addr: &str) -> (SocketAddr, Arc<Gate>, JoinHandle<()>) {
        let (listener, gate) = Gate::bind(addr).expect("bind");
        let local = listener.local_addr().expect("addr");
        let accept = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.serve(listener, |mut stream| {
                    let mut byte = [0u8; 1];
                    while matches!(stream.read(&mut byte), Ok(1)) {
                        let _ = stream.write_all(&byte);
                    }
                });
            })
        };
        (local, gate, accept)
    }

    fn echo(stream: &mut TcpStream) -> std::io::Result<u8> {
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.write_all(b"x")?;
        let mut byte = [0u8; 1];
        stream.read_exact(&mut byte)?;
        Ok(byte[0])
    }

    #[test]
    fn drain_wakes_the_blocked_accept_and_refuses_later_connects() {
        let (addr, gate, accept) = echo_gate("127.0.0.1:0");
        let mut first = TcpStream::connect(addr).expect("connect");
        assert_eq!(echo(&mut first).ok(), Some(b'x'));
        drop(first);
        assert!(gate.drain(), "the first drain acts");
        assert!(!gate.drain(), "a second drain is a no-op");
        accept.join().expect("the accept loop returns on drain");
        assert!(gate.wait_idle(Instant::now() + Duration::from_secs(5)));
        assert!(TcpStream::connect(addr).is_err(), "the listener is closed");
    }

    #[test]
    fn drain_wakes_a_listener_bound_to_the_unspecified_address() {
        let (_addr, gate, accept) = echo_gate("0.0.0.0:0");
        assert_eq!(gate.wake_addr.ip(), IpAddr::V4(Ipv4Addr::LOCALHOST));
        assert!(gate.drain());
        accept.join().expect("the accept loop returns on drain");
    }

    #[test]
    fn wait_idle_waits_for_open_connections() {
        let (addr, gate, accept) = echo_gate("127.0.0.1:0");
        let mut open = TcpStream::connect(addr).expect("connect");
        assert_eq!(echo(&mut open).ok(), Some(b'x'));
        gate.drain();
        accept.join().expect("the accept loop returns on drain");
        assert!(
            !gate.wait_idle(Instant::now() + Duration::from_millis(50)),
            "one connection is still open"
        );
        drop(open);
        assert!(gate.wait_idle(Instant::now() + Duration::from_secs(5)));
    }

    #[test]
    fn pause_returns_early_on_drain() {
        let (_addr, gate, accept) = echo_gate("127.0.0.1:0");
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
        accept.join().expect("the accept loop returns on drain");
    }
}
