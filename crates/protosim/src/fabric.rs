//! The simulated two-node fabric: runtime resources + open connections.
//!
//! A [`Fabric`] is the discrete-event *world* for one cluster
//! configuration. It instantiates [`simcore::Resource`]s for each host's
//! protocol CPU, PCI bus and NIC processor, and for the two wire
//! directions, then tracks every open connection. The transport modules
//! ([`crate::tcp`], [`crate::raw`], [`crate::local`]) drive messages
//! through these shared resources, so contention (e.g. a daemon copying
//! while the kernel processes packets on the same CPU) emerges from the
//! event schedule rather than from closed-form formulas.

use faultlab::{FaultCounters, FaultLottery, FaultPlan};
use hwmodel::ClusterSpec;
use simcore::trace::{SharedSink, SpanRec};
use simcore::{Engine, Event, Resource, SimDuration, SimTime};

use crate::local::LocalConn;
use crate::raw::RawConn;
use crate::tcp::TcpConn;

// ---------------------------------------------------------------------
// Trace-track allocation (see DESIGN §10). Tracks are globally unique
// timeline ids; exporters render one row per track, named by
// `track_label`.
// ---------------------------------------------------------------------

/// Track of host `h`'s protocol CPU.
pub fn cpu_track(h: usize) -> u32 {
    h as u32 * 16
}

/// Track of host `h`'s PCI bus.
pub fn pci_track(h: usize) -> u32 {
    h as u32 * 16 + 1
}

/// Track of host `h`'s NIC engine on channel `ch`.
pub fn nic_track(h: usize, ch: usize) -> u32 {
    h as u32 * 16 + 2 + ch as u32
}

/// Track of the wire on channel `ch`, direction `dir` (0 = host0→host1).
pub fn wire_track(ch: usize, dir: usize) -> u32 {
    32 + 2 * ch as u32 + dir as u32
}

/// Track for protocol-gap spans (wire latency, interrupt coalescing,
/// window stalls, wakeups) of messages sent by endpoint `from`. These
/// spans may overlap each other (segments pipeline), so they get their
/// own timeline instead of a hardware resource's.
pub fn flow_track(from: usize) -> u32 {
    48 + from as u32
}

/// Track for message-passing-library phase spans (pack, handshake,
/// memcpy, daemon hops) on host `h`.
pub fn lib_track(h: usize) -> u32 {
    56 + h as u32
}

/// Is `track` a serially-occupied hardware resource (CPU/PCI/NIC/wire)?
/// Only these contribute to bottleneck accounting; flow and library
/// tracks hold possibly-overlapping protocol spans.
pub fn is_hw_track(track: u32) -> bool {
    track < 48
}

/// Human-readable name for a track id, matching the historical stage
/// names of `clusterlab::Breakdown` ("host0 cpu", "wire0 ->", ...).
pub fn track_label(track: u32) -> String {
    match track {
        0..=31 => {
            let h = track / 16;
            match track % 16 {
                0 => format!("host{h} cpu"),
                1 => format!("host{h} pci"),
                r => format!("host{h} nic{}", r - 2),
            }
        }
        32..=47 => {
            let ch = (track - 32) / 2;
            if (track - 32) % 2 == 0 {
                format!("wire{ch} ->")
            } else {
                format!("wire{ch} <-")
            }
        }
        48 => "flow 0->1".to_string(),
        49 => "flow 1->0".to_string(),
        _ => format!("host{} lib", track.saturating_sub(56)),
    }
}

/// Runtime state for one host.
pub struct HostRt {
    /// Protocol-processing CPU. Reserved with explicit durations
    /// (`serve_for`) computed from the host's [`hwmodel::CpuModel`].
    pub cpu: Resource,
    /// The PCI bus the NIC(s) DMA across (shared by all channels — the
    /// reason channel bonding does not scale linearly on 32-bit PCI).
    pub pci: Resource,
    /// The NIC + driver per-frame processing engines (firmware on the
    /// GigE cards, the LANai RISC processor on Myrinet), one per
    /// installed card (`ClusterSpec::nic_count`).
    pub nics: Vec<Resource>,
}

/// Index of an open connection within a [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub usize);

/// An open connection of any transport type.
pub enum Conn {
    /// Kernel TCP between the two hosts.
    Tcp(TcpConn),
    /// OS-bypass message transport (GM or VIA) between the two hosts.
    Raw(RawConn),
    /// Same-host pipe/loopback channel (daemon hops).
    Local(LocalConn),
}

/// The discrete-event world: one two-node cluster.
pub struct Fabric {
    /// The hardware/kernel configuration being simulated.
    pub spec: ClusterSpec,
    /// Host runtime state; index 0 and 1.
    pub hosts: [HostRt; 2],
    /// Directional wire resources per channel: `wires[ch][0]` carries
    /// host0→host1 on channel `ch`.
    pub wires: Vec<[Resource; 2]>,
    /// All open connections.
    pub conns: Vec<Conn>,
    /// Installed trace sink, if any (see [`instrument`]). Write-only:
    /// transports record spans here but never read it for decisions.
    pub tracer: Option<SharedSink>,
    /// Installed fault-injection lottery, if any (see
    /// [`Fabric::install_faults`]). Unlike the tracer this *is* consulted
    /// by the transport — that is its purpose — but every decision is a
    /// pure function of the plan's seed and the call order, so runs stay
    /// reproducible.
    pub faults: Option<Box<FaultLottery>>,
    /// Monotonic message-id allocator (advances identically whether or
    /// not a tracer is installed, preserving determinism).
    next_msg: u64,
    /// `(delivery time, segment bytes)` of the segments a transport has
    /// resolved but not yet scheduled: filled while the resources are
    /// borrowed, drained into the engine right after, and kept for its
    /// capacity so the per-segment path never allocates.
    pub(crate) scratch: Vec<(SimTime, u32)>,
}

/// Shorthand for the engine type every transport event runs on.
pub type Net = Engine<Fabric, NetEvent>;

/// The per-segment events of the two-node transports, held in the engine's
/// queue as plain data. The fields are sized so an event is 8 bytes (a
/// segment is bounded by a `u32` MSS or packet size; a two-node fabric
/// opens a handful of connections): the typed arm then shares the closure
/// arm's 16 bytes and the queue record stays at 32, which measured +5 % on
/// the figure sweep over a 12-byte event's 40. Per-message continuations
/// remain [`Continuation`] closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// A TCP segment reached the receiver's socket buffer.
    TcpDeliver {
        /// Connection index.
        conn: u16,
        /// Sending endpoint.
        dir: u8,
        /// Segment payload bytes.
        seg: u32,
    },
    /// The window update for a drained window reached a stalled sender.
    TcpReopen {
        /// Connection index.
        conn: u16,
        /// Sending endpoint.
        dir: u8,
    },
    /// An OS-bypass packet landed in the receiver's memory.
    RawDeliver {
        /// Connection index.
        conn: u16,
        /// Sending endpoint.
        dir: u8,
        /// Packet payload bytes.
        seg: u32,
    },
}

impl Event<Fabric> for NetEvent {
    #[inline]
    fn dispatch(self, eng: &mut Net) {
        match self {
            NetEvent::TcpDeliver { conn, dir, seg } => {
                crate::tcp::on_deliver(eng, ConnId(conn.into()), dir.into(), seg.into());
            }
            NetEvent::TcpReopen { conn, dir } => {
                crate::tcp::on_reopen(eng, ConnId(conn.into()), dir.into());
            }
            NetEvent::RawDeliver { conn, dir, seg } => {
                crate::raw::on_deliver(eng, ConnId(conn.into()), dir.into(), seg.into());
            }
        }
    }
}

/// Narrow a connection id and endpoint for a [`NetEvent`].
pub(crate) fn event_addr(conn: ConnId, dir: usize) -> (u16, u8) {
    // lint:allow(expect) -- a fabric holds a handful of connections and two endpoints; overflowing either is a caller bug
    let conn = u16::try_from(conn.0).expect("more than u16::MAX connections");
    // lint:allow(expect) -- as above: endpoints are 0 and 1
    let dir = u8::try_from(dir).expect("endpoint index is 0 or 1");
    (conn, dir)
}

/// Schedule every segment a transport left in [`Fabric::scratch`] as the
/// typed event `make(segment bytes)` at its delivery time, in order.
pub(crate) fn schedule_deliveries(eng: &mut Net, make: impl Fn(u32) -> NetEvent) {
    let mut due = std::mem::take(&mut eng.world.scratch);
    for (t, seg) in due.drain(..) {
        eng.schedule_event_at(t, make(seg));
    }
    eng.world.scratch = due;
}

/// Narrow a segment length for a [`NetEvent`] or the scratch buffer.
#[inline]
pub(crate) fn seg_len(seg: u64) -> u32 {
    // lint:allow(expect) -- segments are cut at an MSS or packet size that is itself a u32
    u32::try_from(seg).expect("segment longer than its u32 MSS")
}

/// A message-completion continuation.
pub type Continuation = Box<dyn FnOnce(&mut Net)>;

impl Fabric {
    /// Build the runtime world for a cluster configuration.
    pub fn new(spec: ClusterSpec) -> Fabric {
        let channels = spec.nic_count.max(1) as usize;
        let mk_host = || HostRt {
            cpu: Resource::new("cpu", spec.host.cpu.kernel_copy_bps),
            pci: Resource::with_overhead(
                "pci",
                spec.pci_effective_bps(),
                SimDuration::from_micros_f64(spec.host.pci.per_txn_us),
            ),
            nics: (0..channels)
                .map(|_| {
                    Resource::with_overhead(
                        "nic",
                        spec.nic.nic_byte_rate,
                        SimDuration::from_micros_f64(spec.nic.nic_pkt_us),
                    )
                })
                .collect(),
        };
        // An immature driver caps the whole path (GA622, §7): model as a
        // reduced wire rate, the stage every byte must cross.
        let wire_rate = match spec.nic.driver_cap_bps {
            Some(cap) => cap.min(spec.nic.wire_bps),
            None => spec.nic.wire_bps,
        };
        Fabric {
            hosts: [mk_host(), mk_host()],
            wires: (0..channels)
                .map(|_| {
                    [
                        Resource::new("wire->", wire_rate),
                        Resource::new("wire<-", wire_rate),
                    ]
                })
                .collect(),
            conns: Vec::new(),
            spec,
            tracer: None,
            faults: None,
            next_msg: 0,
            scratch: Vec::new(),
        }
    }

    /// Create an engine over a fresh fabric for `spec`.
    pub fn engine(spec: ClusterSpec) -> Net {
        Engine::with_events(Fabric::new(spec))
    }

    /// Register a connection and return its id.
    pub fn push_conn(&mut self, conn: Conn) -> ConnId {
        let id = ConnId(self.conns.len());
        self.conns.push(conn);
        id
    }

    /// One-way path propagation + switching delay.
    pub fn path_latency(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.spec.path_latency_us())
    }

    /// Install `sink` on every hardware resource (CPU, PCI, NIC, wire)
    /// with its canonical track id, and keep a handle for protocol and
    /// library spans. Prefer [`instrument`], which also hooks the engine.
    pub fn install_tracer(&mut self, sink: SharedSink) {
        for (h, host) in self.hosts.iter_mut().enumerate() {
            host.cpu.set_trace(sink.clone(), cpu_track(h));
            host.pci.set_trace(sink.clone(), pci_track(h));
            for (ch, nic) in host.nics.iter_mut().enumerate() {
                nic.set_trace(sink.clone(), nic_track(h, ch));
            }
        }
        for (ch, pair) in self.wires.iter_mut().enumerate() {
            for (dir, wire) in pair.iter_mut().enumerate() {
                wire.set_trace(sink.clone(), wire_track(ch, dir));
            }
        }
        self.tracer = Some(sink);
    }

    /// Install a fault-injection plan: segments crossing the wires are
    /// from now on submitted to a [`FaultLottery`] seeded from
    /// `plan.seed`. A lossless plan is guaranteed not to perturb the
    /// schedule at all (the lottery short-circuits without drawing).
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(Box::new(FaultLottery::new(plan)));
    }

    /// Re-install an existing lottery (drivers that build a fresh fabric
    /// per measurement carry the lottery across so the RNG stream — and
    /// therefore the fault pattern — keeps advancing over the sweep).
    pub fn adopt_faults(&mut self, lottery: Box<FaultLottery>) {
        self.faults = Some(lottery);
    }

    /// Remove and return the installed lottery (with its counters).
    pub fn take_faults(&mut self) -> Option<Box<FaultLottery>> {
        self.faults.take()
    }

    /// Fault-event counters so far, if a plan is installed.
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.faults.as_ref().map(|f| f.counters)
    }

    /// Allocate the next message-correlation id (1-based; 0 means
    /// "unattributed"). Advances even when untraced so that enabling
    /// tracing cannot perturb anything.
    pub fn alloc_msg(&mut self) -> u64 {
        self.next_msg += 1;
        self.next_msg
    }

    /// Point the sink's message register at `id`: subsequent resource
    /// spans are attributed to that message.
    pub fn set_trace_msg(&self, id: u64) {
        if let Some(t) = &self.tracer {
            t.set_message(id);
        }
    }

    /// Record an explicit span if a tracer is installed.
    pub fn trace_span(
        &self,
        stage: &'static str,
        track: u32,
        start: SimTime,
        end: SimTime,
        bytes: u64,
        msg: u64,
    ) {
        if let Some(t) = &self.tracer {
            t.span(SpanRec {
                stage,
                track,
                start,
                end,
                bytes,
                msg,
            });
        }
    }

    /// Record an instantaneous event if a tracer is installed.
    pub fn trace_instant(&self, name: &'static str, track: u32, at: SimTime, bytes: u64, msg: u64) {
        if let Some(t) = &self.tracer {
            t.instant(name, track, at, bytes, msg);
        }
    }
}

/// Install `sink` on the fabric's resources *and* the engine (event
/// dispatch counter). The one-call entry point used by
/// `netpipe::SimDriver`, `clusterlab::measure_breakdown`, and tests.
pub fn instrument(eng: &mut Net, sink: SharedSink) {
    eng.world.install_tracer(sink.clone());
    eng.set_trace_sink(sink);
}

/// Dispatch a message send on any connection type.
///
/// `from` is the sending endpoint (0 or 1; for [`Conn::Local`] both
/// endpoints live on the connection's host). `on_delivered` runs when the
/// last byte has reached the receiving application.
pub fn send(eng: &mut Net, conn: ConnId, from: usize, bytes: u64, on_delivered: Continuation) {
    assert!(from < 2, "endpoint index must be 0 or 1");
    match &eng.world.conns[conn.0] {
        Conn::Tcp(_) => crate::tcp::send(eng, conn, from, bytes, on_delivered),
        Conn::Raw(_) => crate::raw::send(eng, conn, from, bytes, on_delivered),
        Conn::Local(_) => crate::local::send(eng, conn, bytes, on_delivered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::{pcs_ga620, pcs_myrinet};

    #[test]
    fn fabric_builds_resources_from_spec() {
        let fab = Fabric::new(pcs_ga620());
        assert_eq!(fab.conns.len(), 0);
        assert_eq!(fab.wires.len(), 1);
        assert!(fab.wires[0][0].rate() > 1e8);
        assert!(fab.hosts[0].pci.rate() < fab.wires[0][0].rate());
    }

    #[test]
    fn dual_nic_spec_builds_two_channels() {
        use hwmodel::presets::pcs_ga620_dual;
        let fab = Fabric::new(pcs_ga620_dual());
        assert_eq!(fab.wires.len(), 2);
        assert_eq!(fab.hosts[0].nics.len(), 2);
        // One shared PCI bus and CPU per host.
        assert_eq!(fab.hosts.len(), 2);
    }

    #[test]
    fn driver_cap_reduces_wire_rate() {
        use hwmodel::presets::ds20s_ga622;
        let capped = Fabric::new(ds20s_ga622());
        let free = Fabric::new(pcs_ga620());
        assert!(capped.wires[0][0].rate() < free.wires[0][0].rate());
    }

    #[test]
    fn myrinet_nic_resource_is_rate_limited() {
        let fab = Fabric::new(pcs_myrinet());
        // The LANai processor has a finite streaming rate.
        assert!(fab.hosts[0].nics[0].rate().is_finite());
        let ge = Fabric::new(pcs_ga620());
        assert!(ge.hosts[0].nics[0].rate().is_infinite());
    }

    #[test]
    fn net_event_stays_eight_bytes() {
        assert_eq!(std::mem::size_of::<NetEvent>(), 8);
    }

    #[test]
    fn conn_ids_are_sequential() {
        let mut fab = Fabric::new(pcs_ga620());
        let a = fab.push_conn(Conn::Local(crate::local::LocalConn::loopback(0)));
        let b = fab.push_conn(Conn::Local(crate::local::LocalConn::loopback(1)));
        assert_eq!(a, ConnId(0));
        assert_eq!(b, ConnId(1));
    }

    #[test]
    fn track_labels_match_breakdown_stage_names() {
        assert_eq!(track_label(cpu_track(0)), "host0 cpu");
        assert_eq!(track_label(pci_track(1)), "host1 pci");
        assert_eq!(track_label(nic_track(0, 1)), "host0 nic1");
        assert_eq!(track_label(wire_track(0, 0)), "wire0 ->");
        assert_eq!(track_label(wire_track(1, 1)), "wire1 <-");
        assert_eq!(track_label(flow_track(0)), "flow 0->1");
        assert_eq!(track_label(lib_track(1)), "host1 lib");
        assert!(is_hw_track(wire_track(3, 1)));
        assert!(!is_hw_track(flow_track(0)));
        assert!(!is_hw_track(lib_track(0)));
    }

    #[test]
    fn tracks_are_unique_across_resources() {
        let mut seen = std::collections::BTreeSet::new();
        for h in 0..2 {
            assert!(seen.insert(cpu_track(h)));
            assert!(seen.insert(pci_track(h)));
            for ch in 0..4 {
                assert!(seen.insert(nic_track(h, ch)));
            }
            assert!(seen.insert(lib_track(h)));
            assert!(seen.insert(flow_track(h)));
        }
        for ch in 0..4 {
            for dir in 0..2 {
                assert!(seen.insert(wire_track(ch, dir)));
            }
        }
    }

    #[test]
    fn install_tracer_reaches_every_resource() {
        use simcore::trace::{SpanRec, TraceSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Log(RefCell<Vec<u32>>);
        impl TraceSink for Log {
            fn span(&self, rec: SpanRec) {
                self.0.borrow_mut().push(rec.track);
            }
        }

        let log = Rc::new(Log::default());
        let mut fab = Fabric::new(pcs_ga620());
        fab.install_tracer(log.clone());
        let now = SimTime::ZERO;
        fab.hosts[0].cpu.serve(now, 10);
        fab.hosts[1].pci.serve(now, 10);
        fab.hosts[1].nics[0].serve(now, 10);
        fab.wires[0][1].serve(now, 10);
        assert_eq!(
            *log.0.borrow(),
            vec![
                cpu_track(0),
                pci_track(1),
                nic_track(1, 0),
                wire_track(0, 1)
            ]
        );

        // Message ids allocate monotonically from 1.
        assert_eq!(fab.alloc_msg(), 1);
        assert_eq!(fab.alloc_msg(), 2);
    }
}
