//! Newline-delimited JSON on the wire: the frame loop the daemon and the
//! cluster router both run on every connection, and the one-request
//! client round trip the router and the test harnesses use.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::gate::Gate;

/// Hard bound on one request line; longer frames are hostile.
pub const MAX_LINE: usize = 256 * 1024;

/// How often a server's idle read wakes to check the drain flag and the
/// frame deadline.
const SERVE_TICK: Duration = Duration::from_millis(100);

/// How often a [`roundtrip`] read wakes to check its budget.
const CLIENT_TICK: Duration = Duration::from_millis(50);

/// Longest a [`roundtrip`] waits for its connect.
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

/// One request on a fresh connection: connect (waiting at most the
/// smaller of `budget` and one second), send `line` and a newline, and
/// read one response line, all within `budget`.
///
/// # Errors
/// Connect and write failures; `TimedOut` when no whole line arrives
/// within `budget`; `UnexpectedEof` when the peer closes first.
pub fn roundtrip(addr: SocketAddr, line: &str, budget: Duration) -> std::io::Result<String> {
    let t_end = Instant::now() + budget;
    let mut stream = TcpStream::connect_timeout(&addr, budget.min(CONNECT_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CLIENT_TICK))?;
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
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "the peer closed before responding",
                ))
            }
            Ok(n) => match chunk[..n].iter().position(|&b| b == b'\n') {
                Some(at) => {
                    buf.extend_from_slice(&chunk[..at]);
                    return Ok(String::from_utf8_lossy(&buf).into_owned());
                }
                None => buf.extend_from_slice(&chunk[..n]),
            },
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
}
