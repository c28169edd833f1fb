//! A real NetPIPE TCP module: actual kernel sockets over loopback.
//!
//! This is the genuine article, not a simulation — it exercises the same
//! code path the paper measures (socket buffers, Nagle, kernel copies) on
//! the machine the suite runs on. An echo server thread bounces every
//! message back; the driver times the full round trip with
//! `std::time::Instant`.
//!
//! Socket buffers are set through `setsockopt(SOL_SOCKET, SO_SNDBUF/
//! SO_RCVBUF)` exactly as NetPIPE's `-b` option does
//! ([`faultlab::set_socket_buffers`]).
//!
//! Unlike the paper's NetPIPE, this module is built to *survive* a sick
//! network: every socket operation carries a deadline
//! ([`RealTcpOptions::deadline`]), connects retry under bounded
//! exponential backoff ([`RealTcpOptions::retry`]), and a failed round
//! trip drops the connection so [`Driver::recover`] can re-establish it
//! — the runner's [`faultlab::SweepPolicy`] then turns a dying peer into
//! *degraded* points in a partial report instead of a hung benchmark.
//! [`ChaosOptions`] lets tests and the CLI play the peer's assassin.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use faultlab::io::{accept_deadline, connect_retry, read_exact_deadline, write_all_deadline};
use faultlab::proxy::{ChaosProxy, FaultEvent, FrameFormat};
use faultlab::{set_socket_buffers, FaultCounters, FaultPlan, RetryPolicy};
use mplite::frame;
use simcore::trace::stages;
use tracelab::WallTracer;

use crate::driver::{Driver, DriverError, NetpipeError};

/// Reserved tag on the echo wire that means "clean shutdown" — the
/// framed replacement for the old `len == u64::MAX` sentinel, which a
/// framing layer with a length bound can no longer smuggle.
const ECHO_SHUTDOWN_TAG: i32 = -1;

/// How long the echo server waits in one accept/header poll before
/// re-checking its shutdown flag.
const SERVER_POLL: Duration = Duration::from_millis(200);

/// Track id real-mode fault instants are recorded on (the host-0 flow
/// track in the simulation's allocation scheme).
const FAULT_TRACK: u32 = 48;

/// Deliberate server-side failures, for chaos tests and `--faults`
/// sweeps: the echo peer murders its own connection (or itself) at a
/// predictable point so the client's resilience path can be exercised.
#[derive(Debug, Clone, Default)]
pub struct ChaosOptions {
    /// Close the connection after echoing this many messages (per
    /// connection — a reconnected client gets another allowance).
    pub kill_after: Option<u64>,
    /// After the first kill, also stop accepting new connections: the
    /// peer is gone for good and every later point must fail.
    pub kill_listener: bool,
}

/// Configuration for the real TCP module.
#[derive(Debug, Clone)]
pub struct RealTcpOptions {
    /// Requested socket buffer size each side, bytes (0 = kernel default).
    pub sockbuf: u32,
    /// Disable Nagle's algorithm (NetPIPE default: yes).
    pub nodelay: bool,
    /// Deadline for each socket operation (connect attempt, header or
    /// payload read, write). A dead peer costs one deadline, not a hang.
    pub deadline: Duration,
    /// Backoff schedule for connect and reconnect attempts.
    pub retry: RetryPolicy,
    /// Server-side fault injection.
    pub chaos: ChaosOptions,
    /// Full fault plan, when one is in force. If it carries byte-level
    /// clauses ([`FaultPlan::has_byte_faults`]), the driver interposes a
    /// [`ChaosProxy`] between client and echo server and every frame
    /// crosses the injured wire.
    pub plan: Option<FaultPlan>,
}

impl Default for RealTcpOptions {
    fn default() -> Self {
        RealTcpOptions {
            sockbuf: 0,
            nodelay: true,
            deadline: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            chaos: ChaosOptions::default(),
            plan: None,
        }
    }
}

impl RealTcpOptions {
    /// Adopt the real-mode knobs of a fault plan: the I/O deadline, the
    /// reconnect backoff, the chaos (kill) schedule — and keep the whole
    /// plan so byte-level clauses can raise a proxy.
    pub fn apply_plan(&mut self, plan: &FaultPlan) {
        self.deadline = plan.io_deadline;
        self.retry = plan.retry.clone();
        self.chaos.kill_after = plan.kill_after;
        self.chaos.kill_listener = plan.kill_listener;
        self.plan = Some(plan.clone());
    }
}

/// NetPIPE over real kernel TCP on loopback, with deadlines, bounded
/// reconnect, and optional chaos.
pub struct RealTcpDriver {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Payload cap ([`frame::max_message_size`]), frozen at construction
    /// so the timed round trip never touches the environment.
    max_msg: u64,
    buf: Vec<u8>,
    effective_bufs: (u32, u32),
    opts: RealTcpOptions,
    server: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    tracer: Option<Arc<WallTracer>>,
    counters: FaultCounters,
    proxy: Option<ChaosProxy>,
}

impl RealTcpDriver {
    /// Start the echo server thread and connect to it. If the options
    /// carry a plan with byte-level clauses, a [`ChaosProxy`] is raised
    /// between client and server and every connection dials the front.
    pub fn new(opts: RealTcpOptions) -> Result<RealTcpDriver, DriverError> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| NetpipeError::from_io("bind", e))?;
        let mut addr = listener
            .local_addr()
            .map_err(|e| NetpipeError::from_io("bind", e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let max_msg = frame::max_message_size();
        let server_opts = opts.clone();
        let server_stop = Arc::clone(&stop);
        let server = std::thread::Builder::new()
            .name("netpipe-echo".into())
            .spawn(move || serve(listener, server_opts, max_msg, server_stop))
            .map_err(|e| NetpipeError::from_io("spawn", e))?;
        let proxy = match opts.plan.as_ref().filter(|p| p.has_byte_faults()) {
            Some(plan) => {
                let proxy = ChaosProxy::new(plan.clone(), FrameFormat::MPLITE_V2);
                // Rank 0 = the NetPIPE client, rank 1 = the echo peer.
                addr = proxy
                    .front(0, 1, addr)
                    .map_err(|e| NetpipeError::from_io("proxy front", e))?;
                Some(proxy)
            }
            None => None,
        };
        let mut driver = RealTcpDriver {
            addr,
            stream: None,
            max_msg,
            buf: Vec::new(),
            effective_bufs: (0, 0),
            opts,
            server: Some(server),
            stop,
            tracer: None,
            counters: FaultCounters::default(),
            proxy,
        };
        driver.connect()?;
        Ok(driver)
    }

    /// The (sndbuf, rcvbuf) the kernel actually granted on the client
    /// socket — useful to observe the `wmem_max` clamp.
    pub fn effective_buffers(&self) -> (u32, u32) {
        self.effective_bufs
    }

    /// Record fault events (timeouts, reconnects) as wall-clock trace
    /// instants on `tracer`.
    pub fn set_wall_tracer(&mut self, tracer: Arc<WallTracer>) {
        self.tracer = Some(tracer);
    }

    /// Fault events observed so far: the driver's own timeouts and
    /// reconnects, merged with whatever the chaos proxy (if any) has
    /// injected so far.
    pub fn fault_counters(&self) -> FaultCounters {
        let mut c = self.counters;
        if let Some(p) = &self.proxy {
            c.merge(&p.counters());
        }
        c
    }

    /// Tear everything down and, if a chaos proxy was interposed, return
    /// its final deterministic counters and sorted fault log.
    pub fn finish_chaos(mut self) -> Option<(FaultCounters, Vec<FaultEvent>)> {
        self.close();
        self.proxy.take().map(ChaosProxy::finish)
    }

    fn trace_instant(&self, name: &'static str, bytes: u64) {
        if let Some(t) = &self.tracer {
            t.instant_wall(name, FAULT_TRACK, bytes, 0);
        }
    }

    /// (Re)establish the client connection under the retry policy.
    fn connect(&mut self) -> Result<(), DriverError> {
        let per_attempt = self.opts.deadline.min(Duration::from_secs(1));
        let stream = connect_retry(self.addr, per_attempt, &self.opts.retry)
            .map_err(|e| NetpipeError::from_io("connect", e))?;
        stream
            .set_nodelay(self.opts.nodelay)
            .map_err(|e| NetpipeError::from_io("connect", e))?;
        self.effective_bufs = set_socket_buffers(&stream, self.opts.sockbuf, self.opts.sockbuf)
            .map_err(|e| NetpipeError::from_io("setsockopt", e))?;
        self.stream = Some(stream);
        Ok(())
    }

    /// One echo exchange on the live stream; classified errors, no
    /// cleanup (the caller decides whether to drop the stream).
    fn exchange(&mut self, bytes: u64) -> Result<f64, DriverError> {
        let n = bytes as usize;
        if self.buf.len() < n {
            // Deterministic non-trivial payload for integrity checks.
            self.buf = (0..n).map(|i| (i % 251) as u8).collect();
        }
        let deadline = self.opts.deadline;
        let stream = match self.stream.as_mut() {
            Some(s) => s,
            None => {
                return Err(NetpipeError::Disconnected {
                    op: "send",
                    source: std::io::Error::new(
                        std::io::ErrorKind::NotConnected,
                        "no connection (previous failure dropped it)",
                    ),
                })
            }
        };
        let start = Instant::now();
        let (hdr, hn) = frame::build_header(frame::WIRE_V2, 0, 0, &self.buf[..n]);
        write_all_deadline(stream, &hdr[..hn], deadline)
            .map_err(|e| NetpipeError::from_io("write", e))?;
        write_all_deadline(stream, &self.buf[..n], deadline)
            .map_err(|e| NetpipeError::from_io("write", e))?;
        let mut rhdr = [0u8; frame::V2_HEADER_LEN];
        read_exact_deadline(stream, &mut rhdr, deadline)
            .map_err(|e| NetpipeError::from_io("read", e))?;
        // Length is bound-checked against the message cap BEFORE the
        // allocation below — a tampered header cannot ask for memory.
        let pf = frame::decode_any_header(&rhdr, self.max_msg)
            .map_err(|err| NetpipeError::Frame { op: "read", err })?;
        // Read and CRC-verify the declared (bound-checked) length BEFORE
        // comparing it to what was sent: a corrupted length bit must
        // surface as a typed frame verdict (checksum mismatch, or a
        // timeout waiting for bytes that never existed) — `Protocol` is
        // reserved for CRC-clean contract violations, i.e. server bugs.
        let mut got = vec![0u8; pf.len as usize];
        read_exact_deadline(stream, &mut got, deadline)
            .map_err(|e| NetpipeError::from_io("read", e))?;
        pf.verify(&got)
            .map_err(|err| NetpipeError::Frame { op: "read", err })?;
        let elapsed = start.elapsed().as_secs_f64();
        if pf.len != bytes {
            return Err(NetpipeError::Protocol(format!(
                "echo length mismatch: sent {n}, got {}",
                pf.len
            )));
        }
        if got != self.buf[..n] {
            return Err(NetpipeError::Protocol("echo payload corrupted".into()));
        }
        Ok(elapsed)
    }

    /// Tear down the connection, the echo server and (on clean paths)
    /// leave the proxy joinable. Idempotent; `Drop` calls it too.
    fn close(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(mut stream) = self.stream.take() {
            let (hdr, hn) = frame::build_header(frame::WIRE_V2, 0, ECHO_SHUTDOWN_TAG, &[]);
            let _ = write_all_deadline(&mut stream, &hdr[..hn], Duration::from_secs(1));
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

/// Outcome of serving one echo connection.
enum EchoEnd {
    /// Clean shutdown (shutdown tag received or shutdown flag set).
    Clean,
    /// The chaos schedule killed the connection.
    Killed,
    /// The client went away, or sent a malformed frame (the server's
    /// answer to a bad frame is to drop the connection — the client
    /// observes a typed disconnect, never a desynced stream).
    PeerGone,
}

/// Accept loop: serve echo connections until shut down (or until chaos
/// retires the listener).
fn serve(listener: TcpListener, opts: RealTcpOptions, max_msg: u64, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match accept_deadline(&listener, SERVER_POLL, || !stop.load(Ordering::Relaxed)) {
            Ok(mut s) => {
                let _ = s.set_nodelay(opts.nodelay);
                let _ = set_socket_buffers(&s, opts.sockbuf, opts.sockbuf);
                match echo_loop(&mut s, max_msg, &opts, &stop) {
                    EchoEnd::Clean => return,
                    EchoEnd::Killed if opts.chaos.kill_listener => return,
                    EchoEnd::Killed | EchoEnd::PeerGone => {}
                }
            }
            Err(e) if faultlab::io::is_timeout(&e) => {}
            Err(_) => return,
        }
    }
}

/// Echo protocol: one v2 frame per message (header + CRC'd
/// payload), echoed back verbatim. A frame tagged [`ECHO_SHUTDOWN_TAG`]
/// is the clean-shutdown signal. All reads and writes are
/// deadline-bounded; the idle wait for the next header polls in short
/// slices so shutdown stays responsive. Any framing violation —
/// tampered magic, bad CRC, oversized declared length — drops the
/// connection before a single payload byte is trusted.
fn echo_loop(s: &mut TcpStream, max_msg: u64, opts: &RealTcpOptions, stop: &AtomicBool) -> EchoEnd {
    let mut buf = Vec::new();
    let mut echoed = 0u64;
    loop {
        if let Some(kill_after) = opts.chaos.kill_after {
            if echoed >= kill_after {
                // Chaos: die abruptly, mid-conversation.
                let _ = s.shutdown(std::net::Shutdown::Both);
                return EchoEnd::Killed;
            }
        }
        // Wait (possibly a long time) for the first header byte, polling
        // so the shutdown flag is honored; the rest of the header follows
        // within the regular deadline.
        let mut hdr = [0u8; frame::V2_HEADER_LEN];
        loop {
            match read_exact_deadline(s, &mut hdr[..1], SERVER_POLL) {
                Ok(()) => break,
                Err(e) if faultlab::io::is_timeout(&e) => {
                    if stop.load(Ordering::Relaxed) {
                        return EchoEnd::Clean;
                    }
                }
                Err(_) => return EchoEnd::PeerGone,
            }
        }
        if read_exact_deadline(s, &mut hdr[1..], opts.deadline).is_err() {
            return EchoEnd::PeerGone;
        }
        // The length bound is enforced here, before the resize below.
        let pf = match frame::decode_any_header(&hdr, max_msg) {
            Ok(pf) => pf,
            Err(_) => return EchoEnd::PeerGone,
        };
        buf.resize(pf.len as usize, 0);
        if read_exact_deadline(s, &mut buf, opts.deadline).is_err() {
            return EchoEnd::PeerGone;
        }
        if pf.verify(&buf).is_err() {
            return EchoEnd::PeerGone;
        }
        if pf.tag == ECHO_SHUTDOWN_TAG {
            return EchoEnd::Clean;
        }
        // Echo the exact bytes back: header included, CRC and all.
        if write_all_deadline(s, &hdr, opts.deadline).is_err()
            || write_all_deadline(s, &buf, opts.deadline).is_err()
        {
            return EchoEnd::PeerGone;
        }
        echoed += 1;
    }
}

impl Driver for RealTcpDriver {
    fn name(&self) -> String {
        if self.opts.sockbuf == 0 {
            "real TCP (default buffers)".to_string()
        } else {
            format!("real TCP ({}k buffers)", self.opts.sockbuf / 1024)
        }
    }

    fn roundtrip(&mut self, bytes: u64) -> Result<f64, DriverError> {
        match self.exchange(bytes) {
            Ok(t) => Ok(t),
            Err(e) => {
                // The stream is suspect after any failure (desynced or
                // dead): drop it so recover() reconnects from scratch.
                self.stream = None;
                if e.is_timeout() {
                    self.counters.timeouts += 1;
                    self.trace_instant(stages::IO_TIMEOUT, bytes);
                }
                Err(e)
            }
        }
    }

    fn recover(&mut self) -> Result<(), DriverError> {
        if self.stream.is_some() {
            return Ok(());
        }
        self.counters.reconnects += 1;
        self.connect()?;
        self.trace_instant(stages::RECONNECT, 0);
        Ok(())
    }
}

impl Drop for RealTcpDriver {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, RunOptions};

    type TestResult = Result<(), DriverError>;

    #[test]
    fn echo_roundtrip_works() -> TestResult {
        let mut d = RealTcpDriver::new(RealTcpOptions::default())?;
        let t = d.roundtrip(1024)?;
        assert!(t > 0.0 && t < 1.0);
        Ok(())
    }

    #[test]
    fn buffer_request_is_applied() -> TestResult {
        let d = RealTcpDriver::new(RealTcpOptions {
            sockbuf: 256 * 1024,
            ..Default::default()
        })?;
        let (snd, rcv) = d.effective_buffers();
        // Linux at least doubles the request internally; it must not be
        // smaller than asked (modulo wmem_max clamping on tiny systems).
        assert!(snd >= 128 * 1024, "sndbuf {snd}");
        assert!(rcv >= 128 * 1024, "rcvbuf {rcv}");
        Ok(())
    }

    #[test]
    fn loopback_signature_has_sane_shape() -> TestResult {
        let mut d = RealTcpDriver::new(RealTcpOptions::default())?;
        let sig = run(&mut d, &RunOptions::quick(256 * 1024))?;
        assert!(sig.latency_us > 0.5, "latency {} us", sig.latency_us);
        assert!(sig.latency_us < 2000.0, "latency {} us", sig.latency_us);
        // Loopback should move at least a gigabit for 256 kB messages.
        assert!(sig.max_mbps > 1000.0, "peak {} Mbps", sig.max_mbps);
        // Throughput at 256 kB must dwarf throughput at 1 byte.
        assert!(sig.final_mbps() > 100.0 * sig.points[0].mbps);
        Ok(())
    }

    #[test]
    fn zero_byte_roundtrip() -> TestResult {
        let mut d = RealTcpDriver::new(RealTcpOptions::default())?;
        let t = d.roundtrip(0)?;
        assert!(t > 0.0);
        Ok(())
    }

    #[test]
    fn killed_connection_classifies_and_recovers() -> TestResult {
        let mut opts = RealTcpOptions {
            deadline: Duration::from_secs(2),
            ..Default::default()
        };
        opts.chaos.kill_after = Some(2);
        let mut d = RealTcpDriver::new(opts)?;
        d.roundtrip(64)?;
        d.roundtrip(64)?;
        // Third message hits the assassinated connection.
        let err = match d.roundtrip(64) {
            Err(e) => e,
            Ok(_) => panic!("third roundtrip should fail"),
        };
        assert!(
            err.is_disconnect() || err.is_timeout(),
            "unexpected class: {err}"
        );
        // The server accepts a new connection; service resumes.
        d.recover()?;
        d.roundtrip(64)?;
        assert!(d.fault_counters().reconnects >= 1);
        Ok(())
    }

    #[test]
    fn killed_listener_makes_recovery_fail() {
        let mut opts = RealTcpOptions {
            deadline: Duration::from_millis(500),
            retry: RetryPolicy {
                max_attempts: 2,
                base: Duration::from_millis(10),
                factor: 2.0,
                cap: Duration::from_millis(20),
            },
            ..Default::default()
        };
        opts.chaos.kill_after = Some(1);
        opts.chaos.kill_listener = true;
        let mut d = match RealTcpDriver::new(opts) {
            Ok(d) => d,
            Err(e) => panic!("setup failed: {e}"),
        };
        assert!(d.roundtrip(64).is_ok());
        assert!(d.roundtrip(64).is_err(), "peer was killed");
        // The listener is gone too: recovery connects (the OS may still
        // complete the handshake against the dead listener's backlog) but
        // no echo service ever answers.
        let revived = d.recover().is_ok() && d.roundtrip(64).is_ok();
        assert!(!revived, "service must not come back");
    }

    #[test]
    fn apply_plan_adopts_real_mode_knobs() {
        let plan = match FaultPlan::parse("deadline=250ms,backoff=10ms,kill-after=3,kill-listener")
        {
            Ok(p) => p,
            Err(e) => panic!("plan: {e:?}"),
        };
        let mut opts = RealTcpOptions::default();
        opts.apply_plan(&plan);
        assert_eq!(opts.deadline, Duration::from_millis(250));
        assert_eq!(opts.retry.base, Duration::from_millis(10));
        assert_eq!(opts.chaos.kill_after, Some(3));
        assert!(opts.chaos.kill_listener);
        assert!(opts.plan.is_some(), "the full plan rides along");
    }

    #[test]
    fn corrupted_wire_yields_typed_verdicts_and_service_recovers() {
        let plan = match FaultPlan::parse("seed=13,corrupt=0.3,deadline=500ms") {
            Ok(p) => p,
            Err(e) => panic!("plan: {e}"),
        };
        let mut opts = RealTcpOptions::default();
        opts.apply_plan(&plan);
        let mut d = match RealTcpDriver::new(opts) {
            Ok(d) => d,
            Err(e) => panic!("setup through the proxy failed: {e}"),
        };
        let mut clean = 0u32;
        let mut injured = 0u32;
        for _ in 0..20 {
            match d.roundtrip(512) {
                Ok(_) => clean += 1,
                Err(e) => {
                    // Every failure must be a typed verdict, never a
                    // desynced stream or an untyped surprise.
                    assert!(
                        e.is_frame() || e.is_timeout() || e.is_disconnect(),
                        "untyped failure under chaos: {e}"
                    );
                    injured += 1;
                    let _ = d.recover();
                }
            }
        }
        assert!(injured > 0, "corrupt=0.3 over 20 exchanges must fire");
        assert!(clean > 0, "service must keep recovering");
        let (counters, log) = match d.finish_chaos() {
            Some(x) => x,
            None => panic!("byte faults must raise the proxy"),
        };
        assert!(counters.corrupted > 0, "{counters}");
        assert_eq!(counters.corrupted as usize, log.len(), "{log:?}");
    }

    #[test]
    fn lossless_plan_raises_no_proxy() {
        let plan = match FaultPlan::parse("seed=1,deadline=2s") {
            Ok(p) => p,
            Err(e) => panic!("plan: {e}"),
        };
        let mut opts = RealTcpOptions::default();
        opts.apply_plan(&plan);
        let mut d = match RealTcpDriver::new(opts) {
            Ok(d) => d,
            Err(e) => panic!("setup: {e}"),
        };
        assert!(d.roundtrip(1024).is_ok());
        assert!(d.finish_chaos().is_none(), "no byte clauses, no interposer");
    }
}
