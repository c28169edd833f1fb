//! Deadline-bounded socket I/O for real mode.
//!
//! `std::net` blocking calls (`read_exact`, `write_all`, `accept`) hang
//! forever on a dead peer — exactly the failure mode clippy's
//! `disallowed_methods` list (`clippy.toml`) bans in real-mode crates.
//! These helpers are the sanctioned replacements: every operation
//! carries an explicit deadline (enforced with `SO_RCVTIMEO`/
//! `SO_SNDTIMEO` and, for accept, non-blocking polling), times out with
//! `ErrorKind::TimedOut`, and restores the socket's previous timeout
//! configuration on the way out.
//!
//! This module is the one place allowed to make the underlying calls,
//! each loop under an `#[expect(clippy::disallowed_methods, ..)]` — the
//! same exemption pattern `tracelab` enjoys for the wall-clock tracing
//! APIs it implements.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::retry::RetryPolicy;

/// Granularity of the accept poll loop.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Is this error a deadline expiry? (Linux reports `SO_RCVTIMEO` expiry
/// as `WouldBlock`; other platforms use `TimedOut`.)
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Is this error the peer going away (reset, broken pipe, early EOF)?
pub fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

fn timed_out(op: &str, deadline: Duration) -> io::Error {
    io::Error::new(
        io::ErrorKind::TimedOut,
        format!("{op} exceeded its {deadline:?} deadline"),
    )
}

/// Fill `buf` from `stream` or fail with `TimedOut` once `deadline` has
/// elapsed. The stream's previous read timeout is restored afterwards.
pub fn read_exact_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Duration,
) -> io::Result<()> {
    let prev = stream.read_timeout()?;
    let result = read_exact_inner(stream, buf, deadline);
    stream.set_read_timeout(prev)?;
    result
}

fn read_exact_inner(stream: &mut TcpStream, buf: &mut [u8], deadline: Duration) -> io::Result<()> {
    let mut got = 0usize;
    read_counted_inner(stream, buf, deadline, &mut got)
}

/// Like [`read_exact_deadline`], but a failure also reports how many
/// bytes had already arrived — receivers use the count to build accurate
/// truncation verdicts ("got 13 of 24 bytes") instead of guessing.
pub fn read_exact_counted(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Duration,
) -> std::result::Result<(), (usize, io::Error)> {
    let prev = stream.read_timeout().map_err(|e| (0, e))?;
    let mut got = 0usize;
    let result = read_counted_inner(stream, buf, deadline, &mut got);
    let restore = stream.set_read_timeout(prev);
    match result {
        Ok(()) => restore.map_err(|e| (got, e)),
        Err(e) => Err((got, e)),
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "the deadline layer owns the clock that bounds every read"
)]
fn read_counted_inner(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Duration,
    got: &mut usize,
) -> io::Result<()> {
    let start = Instant::now();
    while *got < buf.len() {
        let left = deadline
            .checked_sub(start.elapsed())
            .ok_or_else(|| timed_out("read", deadline))?;
        if left.is_zero() {
            return Err(timed_out("read", deadline));
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut buf[*got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed the connection mid-read",
                ))
            }
            Ok(n) => *got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(timed_out("read", deadline)),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write all of `buf` to `stream` or fail with `TimedOut` once
/// `deadline` has elapsed. The previous write timeout is restored.
pub fn write_all_deadline(
    stream: &mut TcpStream,
    buf: &[u8],
    deadline: Duration,
) -> io::Result<()> {
    let prev = stream.write_timeout()?;
    let result = write_all_inner(stream, buf, deadline);
    stream.set_write_timeout(prev)?;
    result
}

#[expect(
    clippy::disallowed_methods,
    reason = "the deadline layer owns the clock that bounds every write"
)]
fn write_all_inner(stream: &mut TcpStream, buf: &[u8], deadline: Duration) -> io::Result<()> {
    let start = Instant::now();
    let mut sent = 0usize;
    while sent < buf.len() {
        let left = deadline
            .checked_sub(start.elapsed())
            .ok_or_else(|| timed_out("write", deadline))?;
        if left.is_zero() {
            return Err(timed_out("write", deadline));
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(&buf[sent..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer stopped accepting bytes",
                ))
            }
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(timed_out("write", deadline)),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Accept one connection within `deadline`, polling non-blockingly so
/// the wait can also be abandoned early (`keep_waiting` returning false
/// fails with `ErrorKind::Other`). The listener is returned to blocking
/// mode afterwards.
pub fn accept_deadline(
    listener: &TcpListener,
    deadline: Duration,
    keep_waiting: impl Fn() -> bool,
) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let result = accept_inner(listener, deadline, keep_waiting);
    listener.set_nonblocking(false)?;
    result
}

#[expect(
    clippy::disallowed_methods,
    reason = "the deadline wrapper itself: a non-blocking listener polled against its own clock"
)]
fn accept_inner(
    listener: &TcpListener,
    deadline: Duration,
    keep_waiting: impl Fn() -> bool,
) -> io::Result<TcpStream> {
    let start = Instant::now();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !keep_waiting() {
                    return Err(io::Error::other("accept abandoned by shutdown"));
                }
                if start.elapsed() >= deadline {
                    return Err(timed_out("accept", deadline));
                }
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Connect to `addr` with a per-attempt timeout under `policy`'s bounded
/// exponential backoff. Returns the first established stream or the last
/// connect error.
pub fn connect_retry(
    addr: SocketAddr,
    per_attempt: Duration,
    policy: &RetryPolicy,
) -> io::Result<TcpStream> {
    policy.run(|_| TcpStream::connect_timeout(&addr, per_attempt))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TcpStream, TcpStream, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server, listener)
    }

    #[test]
    fn read_times_out_on_silent_peer() {
        let (mut client, _server, _l) = pair();
        let mut buf = [0u8; 4];
        let start = Instant::now();
        let err = read_exact_deadline(&mut client, &mut buf, Duration::from_millis(40))
            .expect_err("no data is coming");
        assert!(is_timeout(&err), "{err}");
        assert!(start.elapsed() >= Duration::from_millis(35));
        // Previous (unset) timeout restored.
        assert_eq!(client.read_timeout().expect("query"), None);
    }

    #[test]
    fn read_completes_across_partial_writes() {
        let (mut client, mut server, _l) = pair();
        let writer = std::thread::spawn(move || {
            for chunk in [&b"ab"[..], &b"cd"[..]] {
                server.write_all(chunk).expect("write");
                server.flush().expect("flush");
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let mut buf = [0u8; 4];
        read_exact_deadline(&mut client, &mut buf, Duration::from_secs(2)).expect("reads");
        assert_eq!(&buf, b"abcd");
        writer.join().expect("writer thread");
    }

    #[test]
    fn read_reports_eof_as_disconnect() {
        let (mut client, server, _l) = pair();
        drop(server);
        let mut buf = [0u8; 4];
        let err = read_exact_deadline(&mut client, &mut buf, Duration::from_secs(1))
            .expect_err("peer is gone");
        assert!(is_disconnect(&err), "{err}");
    }

    #[test]
    fn accept_times_out_and_recovers() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let err = accept_deadline(&listener, Duration::from_millis(30), || true)
            .expect_err("nobody connects");
        assert!(is_timeout(&err), "{err}");
        // Still usable afterwards.
        let addr = listener.local_addr().expect("addr");
        let _client = TcpStream::connect(addr).expect("connect");
        let stream = accept_deadline(&listener, Duration::from_secs(2), || true).expect("accepts");
        assert!(stream.peer_addr().is_ok());
    }

    #[test]
    fn accept_abandons_on_shutdown_signal() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let err = accept_deadline(&listener, Duration::from_secs(10), || false)
            .expect_err("abandoned immediately");
        assert!(!is_timeout(&err), "{err}");
    }

    #[test]
    fn connect_retry_reaches_live_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stream = connect_retry(addr, Duration::from_millis(200), &RetryPolicy::default())
            .expect("connects");
        assert_eq!(stream.peer_addr().expect("peer"), addr);
    }

    #[test]
    fn connect_retry_gives_up_on_dead_port() {
        // Bind-then-drop: the port was just free, so connects fail fast.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let policy = RetryPolicy {
            max_attempts: 2,
            base: Duration::from_millis(1),
            factor: 2.0,
            cap: Duration::from_millis(2),
        };
        assert!(connect_retry(addr, Duration::from_millis(100), &policy).is_err());
    }
}
