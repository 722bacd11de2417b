//! Newline-delimited JSON on the wire: the frame loop the daemon and the
//! cluster router both run on every connection, and the client side.
//!
//! A client [`connect`]s once and runs one [`exchange`] per request on
//! the open stream; the cluster router keeps a few such streams per
//! worker open between requests. [`roundtrip`] is one exchange on a
//! fresh connection, for health pings and test harnesses.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::gate::Gate;

/// Hard bound on one request line; longer frames are hostile.
pub const MAX_LINE: usize = 256 * 1024;

/// How often a server's idle read wakes to check the drain flag and the
/// frame deadline.
const SERVE_TICK: Duration = Duration::from_millis(100);

/// How often an [`exchange`] read wakes to check its deadline.
const CLIENT_TICK: Duration = Duration::from_millis(50);

/// Longest a [`connect`] waits.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Reads frames off one server connection until the peer closes, the
/// drain begins, a frame breaks a bound, or `serve` returns `false`.
///
/// Every complete non-blank line goes to `serve`, which writes its one
/// response and returns whether to keep the connection. A line longer
/// than [`MAX_LINE`] bytes, or a frame whose newline has not arrived
/// within `frame_deadline` of its first byte (a slowloris), goes to
/// `reject` as a diagnosis to answer before the connection closes.
pub fn serve_frames(
    mut stream: TcpStream,
    gate: &Gate,
    frame_deadline: Duration,
    mut serve: impl FnMut(&mut TcpStream, &str) -> bool,
    reject: impl FnOnce(&mut TcpStream, String),
) {
    let _ = stream.set_read_timeout(Some(SERVE_TICK));
    let _ = stream.set_nodelay(true);
    let too_long = || format!("frame exceeds the {MAX_LINE}-byte line limit");
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // `buf[..scanned]` holds no newline, so each byte is searched once.
    let mut scanned = 0;
    // Start of the frame currently being assembled, set when its first
    // byte arrives: the slowloris clock.
    let mut frame_start: Option<Instant> = None;
    loop {
        let mut start = 0;
        while let Some(at) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let end = scanned + at;
            let line = &buf[start..end];
            start = end + 1;
            scanned = start;
            if line.len() > MAX_LINE {
                reject(&mut stream, too_long());
                return;
            }
            frame_start = (start < buf.len()).then(Instant::now);
            let line = String::from_utf8_lossy(line);
            if !line.trim().is_empty() && !serve(&mut stream, &line) {
                return;
            }
        }
        buf.drain(..start);
        scanned = buf.len();
        if gate.is_draining() {
            // Idle (or mid-frame) connection during a drain: nothing
            // in-flight here, so close.
            return;
        }
        if buf.len() > MAX_LINE {
            reject(&mut stream, too_long());
            return;
        }
        if frame_start.is_some_and(|t0| t0.elapsed() > frame_deadline) {
            reject(
                &mut stream,
                format!("partial frame: no newline within {frame_deadline:?} of the first byte"),
            );
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed; any partial frame is dropped
            Ok(n) => {
                if buf.is_empty() && frame_start.is_none() {
                    frame_start = Some(Instant::now());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

/// Opens a client connection for [`exchange`]: connect (waiting at most
/// the smaller of `budget` and one second), no Nagle delay, and a short
/// read tick so every read can check its deadline.
///
/// # Errors
/// Connect failures.
pub fn connect(addr: SocketAddr, budget: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, budget.min(CONNECT_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CLIENT_TICK))?;
    Ok(stream)
}

/// One request on an open [`connect`]ed stream: send `line` and a
/// newline, and read exactly one response line by `t_end`.
///
/// On success nothing else has arrived on the stream, so it can carry
/// the next request: a byte after the reply's newline is an error, never
/// the start of the next answer.
///
/// # Errors
/// Write failures; `TimedOut` when no whole line arrives by `t_end`;
/// `UnexpectedEof` when the peer closes before the first reply byte;
/// `InvalidData` when it closes mid-line or sends more than one line.
/// Only the write errors, a read reset and `UnexpectedEof` leave the
/// request unanswered for sure ([`is_unanswered`]).
pub fn exchange(stream: &mut TcpStream, line: &str, t_end: Instant) -> std::io::Result<String> {
    let mut out = String::with_capacity(line.len() + 1);
    out.push_str(line);
    out.push('\n');
    stream.write_all(out.as_bytes())?;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if Instant::now() >= t_end {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "no response line within the budget",
            ));
        }
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "the peer closed before responding",
                ))
            }
            Ok(0) => return Err(torn("the peer closed mid-response")),
            Ok(n) => match chunk[..n].iter().position(|&b| b == b'\n') {
                Some(at) if at + 1 < n => return Err(torn("bytes after the response line")),
                Some(at) => {
                    buf.extend_from_slice(&chunk[..at]);
                    return Ok(String::from_utf8_lossy(&buf).into_owned());
                }
                None => buf.extend_from_slice(&chunk[..n]),
            },
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) if !buf.is_empty() => return Err(torn("the peer reset mid-response")),
            Err(e) => return Err(e),
        }
    }
}

fn torn(msg: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

/// Whether an [`exchange`] error proves the peer never began a reply:
/// it had closed or reset the connection (an idle connection the peer
/// dropped), so the request can be sent again on a fresh one.
#[must_use]
pub fn is_unanswered(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
    )
}

/// One request on a fresh connection: [`connect`], then one
/// [`exchange`], all within `budget`. The connection is closed after.
///
/// # Errors
/// As [`connect`] and [`exchange`].
pub fn roundtrip(addr: SocketAddr, line: &str, budget: Duration) -> std::io::Result<String> {
    let t_end = Instant::now() + budget;
    let mut stream = connect(addr, budget)?;
    exchange(&mut stream, line, t_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves one connection: reads one request, then writes `reply` in
    /// a single write.
    fn answer_once(reply: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut request = [0u8; 64];
            let _ = stream.read(&mut request);
            let _ = stream.write_all(reply);
            // Hold the connection open until the client is done.
            let _ = stream.read(&mut request);
        });
        addr
    }

    #[test]
    fn exchange_reads_exactly_one_line() {
        let addr = answer_once(b"{\"id\":\"a\"}\n");
        let mut stream = connect(addr, Duration::from_secs(2)).expect("connect");
        let t_end = Instant::now() + Duration::from_secs(2);
        let reply = exchange(&mut stream, "{\"id\":\"a\"}", t_end).expect("one line");
        assert_eq!(reply, "{\"id\":\"a\"}");
    }

    #[test]
    fn exchange_rejects_a_second_line_in_the_same_read() {
        let addr = answer_once(b"{\"id\":\"a\"}\n{\"id\":\"stale\"}\n");
        let mut stream = connect(addr, Duration::from_secs(2)).expect("connect");
        let t_end = Instant::now() + Duration::from_secs(2);
        let err = exchange(&mut stream, "{\"id\":\"a\"}", t_end).expect_err("two lines");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(!is_unanswered(&err), "a reply arrived: never resend");
    }
}
