//! The driver abstraction: anything that can bounce a message.
//!
//! NetPIPE's original "modules" (MPI, PVM, TCGMSG, TCP, GM, …) map to
//! implementations of [`Driver`]. This crate ships three families:
//!
//! * [`SimDriver`] — any `mpsim` library model on any `hwmodel` cluster
//!   (regenerates the paper's figures);
//! * [`crate::real_tcp::RealTcpDriver`] — actual kernel TCP over
//!   loopback, with tunable socket buffers;
//! * [`crate::mplite_driver::MpliteDriver`] — the real `mplite` library.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use faultlab::{FaultCounters, FaultLottery, FaultPlan};
use hwmodel::ClusterSpec;
use mpsim::{MpLib, Session};
use protosim::Fabric;

/// Measurement errors, classified so the runner's graceful-degradation
/// logic (and a human reading a partial report) can tell a slow peer
/// from a dead one from a corrupted one.
#[derive(Debug)]
pub enum NetpipeError {
    /// The transfer never completed (model deadlock, a simulated
    /// connection that died under fault injection, or peer failure).
    Stalled,
    /// A real-socket operation exceeded its deadline.
    Timeout {
        /// The operation that timed out ("read", "write", "connect", …).
        op: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The peer went away (connection reset, broken pipe, early EOF).
    Disconnected {
        /// The operation that observed the disconnect.
        op: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The wire protocol was violated (corrupt or mismatched payload).
    Protocol(String),
    /// The peer sent a malformed v2 frame — bad magic, wrong version,
    /// tampered checksum, truncation, or an oversized declared length —
    /// caught by the framing layer before any payload was trusted.
    Frame {
        /// The operation that decoded the bad frame.
        op: &'static str,
        /// The typed framing verdict.
        err: mplite::FrameError,
    },
    /// Any other I/O error from a real-socket driver.
    Io(std::io::Error),
}

/// Historical name for [`NetpipeError`], kept for downstream code.
pub type DriverError = NetpipeError;

impl NetpipeError {
    /// Classify an I/O error from operation `op` into timeout /
    /// disconnect / other.
    pub(crate) fn from_io(op: &'static str, e: std::io::Error) -> NetpipeError {
        if faultlab::io::is_timeout(&e) {
            NetpipeError::Timeout { op, source: e }
        } else if faultlab::io::is_disconnect(&e) {
            NetpipeError::Disconnected { op, source: e }
        } else {
            NetpipeError::Io(e)
        }
    }

    /// Is this a deadline expiry?
    pub fn is_timeout(&self) -> bool {
        matches!(self, NetpipeError::Timeout { .. })
    }

    /// Is this the peer going away?
    pub fn is_disconnect(&self) -> bool {
        matches!(self, NetpipeError::Disconnected { .. })
    }

    /// Is this a typed framing verdict from the v2 wire decoder?
    pub fn is_frame(&self) -> bool {
        matches!(self, NetpipeError::Frame { .. })
    }
}

impl fmt::Display for NetpipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetpipeError::Stalled => write!(f, "transfer did not complete"),
            NetpipeError::Timeout { op, source } => write!(f, "{op} timed out: {source}"),
            NetpipeError::Disconnected { op, source } => {
                write!(f, "peer disconnected during {op}: {source}")
            }
            NetpipeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetpipeError::Frame { op, err } => {
                write!(f, "{op} received a malformed frame: {err}")
            }
            NetpipeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for NetpipeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetpipeError::Timeout { source, .. }
            | NetpipeError::Disconnected { source, .. }
            | NetpipeError::Io(source) => Some(source),
            NetpipeError::Frame { err, .. } => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetpipeError {
    fn from(e: std::io::Error) -> Self {
        NetpipeError::from_io("socket", e)
    }
}

/// Something that can bounce a message of a given size and report the
/// round-trip time in seconds.
pub trait Driver {
    /// Display name used in reports and figure legends.
    fn name(&self) -> String;

    /// Perform one ping-pong round trip of `bytes` and return the elapsed
    /// time in seconds.
    fn roundtrip(&mut self, bytes: u64) -> Result<f64, DriverError>;

    /// Stream `count` one-way messages of `bytes` back-to-back and return
    /// the elapsed time until the last is delivered (NetPIPE's `-s`
    /// streaming mode). The default approximates it with half round
    /// trips; transports that can pipeline override it.
    fn burst(&mut self, bytes: u64, count: u32) -> Result<f64, DriverError> {
        let mut total = 0.0;
        for _ in 0..count {
            total += self.roundtrip(bytes)? / 2.0;
        }
        Ok(total)
    }

    /// True when timings are exact (simulated) — the runner then skips
    /// repeated trials.
    fn is_deterministic(&self) -> bool {
        false
    }

    /// Attempt to restore a usable transport after a failed measurement
    /// (reconnect a dropped socket, re-establish a session). Called by
    /// the runner between per-point retries when a
    /// [`faultlab::SweepPolicy`] is in force. The default is a no-op:
    /// stateless and simulated drivers need no recovery.
    fn recover(&mut self) -> Result<(), DriverError> {
        Ok(())
    }
}

/// Drives an `mpsim` library model over a simulated cluster.
///
/// Each round trip runs in a fresh deterministic [`Fabric`], so
/// measurements are independent and exactly reproducible.
pub struct SimDriver {
    spec: ClusterSpec,
    lib: MpLib,
    trace: Option<simcore::trace::SharedSink>,
    /// The fault lottery is carried across the fresh per-measurement
    /// fabrics so its RNG stream — and therefore the fault pattern —
    /// keeps advancing over a sweep, while staying fully reproducible
    /// for a given plan seed.
    faults: Option<Box<FaultLottery>>,
}

impl SimDriver {
    /// Measure `lib` on `spec`.
    pub fn new(spec: ClusterSpec, lib: MpLib) -> SimDriver {
        SimDriver {
            spec,
            lib,
            trace: None,
            faults: None,
        }
    }

    /// Install a trace sink; every subsequent measurement instruments its
    /// fresh fabric (resources, protocol stages, library phases) with it.
    /// Sinks only observe — timings are identical with or without one.
    pub fn set_trace_sink(&mut self, sink: simcore::trace::SharedSink) {
        self.trace = Some(sink);
    }

    /// Inject faults: every subsequent measurement submits its wire
    /// segments to a lottery seeded from `plan.seed`. A lossless plan is
    /// guaranteed not to perturb any timing.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(Box::new(FaultLottery::new(plan)));
    }

    /// Accumulated fault-event counters, if a plan is installed.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.faults.as_ref().map(|f| f.counters)
    }

    fn engine(&mut self) -> protosim::Net {
        let mut eng = Fabric::engine(self.spec.clone());
        if let Some(sink) = &self.trace {
            protosim::instrument(&mut eng, Rc::clone(sink));
        }
        if let Some(lottery) = self.faults.take() {
            eng.world.adopt_faults(lottery);
        }
        eng
    }

    /// Recover the lottery (with advanced RNG state and counters) from a
    /// finished engine.
    fn reclaim(&mut self, eng: &mut protosim::Net) {
        if let Some(lottery) = eng.world.take_faults() {
            self.faults = Some(lottery);
        }
    }
}

impl Driver for SimDriver {
    fn name(&self) -> String {
        self.lib.name().to_string()
    }

    fn roundtrip(&mut self, bytes: u64) -> Result<f64, DriverError> {
        let mut eng = self.engine();
        let session = Session::establish(&mut eng.world, &self.lib);
        let out = Rc::new(Cell::new(None));
        let out2 = Rc::clone(&out);
        mpsim::pingpong(
            &session,
            &mut eng,
            bytes,
            1,
            Box::new(move |_, t| out2.set(Some(t))),
        );
        eng.run();
        self.reclaim(&mut eng);
        out.get().ok_or(DriverError::Stalled)
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    /// True streaming: all `count` messages are queued at once and
    /// pipeline through the fabric.
    fn burst(&mut self, bytes: u64, count: u32) -> Result<f64, DriverError> {
        let mut eng = self.engine();
        let session = Session::establish(&mut eng.world, &self.lib);
        let out = Rc::new(Cell::new(None));
        let left = Rc::new(Cell::new(count));
        for _ in 0..count {
            let out = Rc::clone(&out);
            let left = Rc::clone(&left);
            session.send(
                &mut eng,
                0,
                bytes,
                Box::new(move |e| {
                    left.set(left.get() - 1);
                    if left.get() == 0 {
                        out.set(Some(e.now().as_secs_f64()));
                    }
                }),
            );
        }
        eng.run();
        self.reclaim(&mut eng);
        out.get().ok_or(DriverError::Stalled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::pcs_ga620;
    use mpsim::libs::raw_tcp;
    use simcore::units::{kib, mib, throughput_mbps};

    #[test]
    fn sim_driver_reports_name_and_time() {
        let mut d = SimDriver::new(pcs_ga620(), raw_tcp(kib(512)));
        assert_eq!(d.name(), "raw TCP");
        assert!(d.is_deterministic());
        let t = d.roundtrip(1000).unwrap();
        assert!(t > 0.0);
    }

    #[test]
    fn sim_driver_roundtrips_are_reproducible() {
        let mut d = SimDriver::new(pcs_ga620(), raw_tcp(kib(512)));
        let a = d.roundtrip(100_000).unwrap();
        let b = d.roundtrip(100_000).unwrap();
        assert_eq!(a, b, "fresh deterministic fabric each time");
    }

    #[test]
    fn burst_streams_faster_than_pingpong_for_small_messages() {
        // Streaming amortizes the per-message latency that dominates
        // small-message ping-pong.
        let mut d = SimDriver::new(pcs_ga620(), raw_tcp(kib(512)));
        let pp: f64 = (0..32).map(|_| d.roundtrip(1024).unwrap() / 2.0).sum();
        let stream = d.burst(1024, 32).unwrap();
        assert!(
            stream < pp / 2.0,
            "stream {stream} should beat ping-pong {pp} by 2x+"
        );
    }

    #[test]
    fn burst_total_time_scales_with_count() {
        let mut d = SimDriver::new(pcs_ga620(), raw_tcp(kib(512)));
        let t8 = d.burst(100_000, 8).unwrap();
        let t32 = d.burst(100_000, 32).unwrap();
        let ratio = t32 / t8;
        assert!((3.2..4.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sim_driver_throughput_sane() {
        let mut d = SimDriver::new(pcs_ga620(), raw_tcp(kib(512)));
        let t = d.roundtrip(mib(4)).unwrap() / 2.0;
        let mbps = throughput_mbps(mib(4), t);
        assert!((400.0..700.0).contains(&mbps), "{mbps}");
    }
}
