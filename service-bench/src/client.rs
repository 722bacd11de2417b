//! One NDJSON client for the daemon protocol, shared by every workload.
//!
//! The daemon and the router speak one JSON request per line and answer
//! with one JSON line. [`Client`] sends a frame and waits for the full
//! reply line, in one of two modes:
//!
//! - [`Client::per_request`] opens a fresh TCP connection for every
//!   frame, as every in-repo client and the router's worker hops do;
//! - [`Client::persistent`] keeps one connection open across frames,
//!   which isolates the per-connection cost (accept, thread spawn) from
//!   the frame's own handling.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A protocol client bound to one address.
pub struct Client {
    addr: SocketAddr,
    persistent: bool,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client that connects anew for every frame.
    #[must_use]
    pub fn per_request(addr: SocketAddr) -> Client {
        Client {
            addr,
            persistent: false,
            conn: None,
        }
    }

    /// A client that reuses one connection for every frame (reconnecting
    /// only after an I/O failure).
    #[must_use]
    pub fn persistent(addr: SocketAddr) -> Client {
        Client {
            addr,
            persistent: true,
            conn: None,
        }
    }

    /// Sends `line` (no trailing newline) and returns the reply line,
    /// waiting at most `budget` for it.
    ///
    /// # Errors
    /// Connect, write or read failures, a peer that closes first, or no
    /// complete reply within `budget` (`TimedOut`).
    pub fn call(&mut self, line: &str, budget: Duration) -> io::Result<String> {
        let deadline = Instant::now() + budget;
        let mut conn = if let Some(conn) = self.conn.take() {
            conn
        } else {
            let stream = TcpStream::connect_timeout(&self.addr, budget)?;
            stream.set_nodelay(true)?;
            BufReader::new(stream)
        };
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        conn.get_mut().write_all(&frame)?;
        let reply = read_line(&mut conn, deadline)?;
        if self.persistent {
            self.conn = Some(conn);
        }
        Ok(reply)
    }
}

/// Reads up to the next newline, failing once `deadline` passes.
fn read_line(conn: &mut BufReader<TcpStream>, deadline: Instant) -> io::Result<String> {
    let mut line = Vec::new();
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| io::Error::new(ErrorKind::TimedOut, "no reply within the budget"))?;
        conn.get_ref().set_read_timeout(Some(remaining))?;
        let available = match conn.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                continue
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "peer closed before a full reply line",
            ));
        }
        if let Some(nl) = available.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&available[..nl]);
            conn.consume(nl + 1);
            return String::from_utf8(line)
                .map_err(|_| io::Error::new(ErrorKind::InvalidData, "reply is not UTF-8"));
        }
        let n = available.len();
        line.extend_from_slice(available);
        conn.consume(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use troy_service::Json;

    fn n_of(reply: io::Result<String>) -> Option<u64> {
        Json::parse(&reply.ok()?)?.get("n").and_then(Json::as_u64)
    }

    /// A one-thread echo peer answering each line with `{"n":<count>}`,
    /// so a test can tell connections apart by their counters.
    fn echo_peer(connections: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            for _ in 0..connections {
                let (stream, _) = listener.accept().expect("accept");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut out = stream;
                let mut n = 0;
                let mut line = String::new();
                while reader.read_line(&mut line).expect("read") > 0 {
                    n += 1;
                    out.write_all(format!("{{\"n\":{n}}}\n").as_bytes())
                        .expect("write");
                    line.clear();
                }
            }
        });
        (addr, peer)
    }

    #[test]
    fn persistent_mode_reuses_one_connection() {
        let (addr, peer) = echo_peer(1);
        let mut client = Client::persistent(addr);
        let budget = Duration::from_secs(5);
        for n in 1..=3 {
            assert_eq!(n_of(client.call("{}", budget)), Some(n));
        }
        drop(client);
        peer.join().expect("peer");
    }

    #[test]
    fn per_request_mode_connects_every_time() {
        let (addr, peer) = echo_peer(3);
        let mut client = Client::per_request(addr);
        for _ in 0..3 {
            assert_eq!(n_of(client.call("{}", Duration::from_secs(5))), Some(1));
        }
        peer.join().expect("peer");
    }

    #[test]
    fn silent_peer_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let err = Client::per_request(addr)
            .call("{}", Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        drop(listener);
    }
}
