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
//! Above them sits one bound layer ([`Fabric::bind`]), an `mpsim`
//! session, whose messages and timed steps are [`NetEvent::Upper`]s.

use std::rc::Rc;

use faultlab::{FaultCounters, FaultLottery, FaultPlan};
use hwmodel::ClusterSpec;
use simcore::trace::{SharedSink, SpanRec};
use simcore::{Engine, Event, Resource, SimDuration, SimTime};

use crate::local::LocalConn;
use crate::raw::RawConn;
use crate::tcp::TcpConn;
use crate::train::{Cursor, Launches};
use crate::{Bound, Upper};

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
pub(crate) fn flow_track(from: usize) -> u32 {
    48 + from as u32
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
            if (track - 32).is_multiple_of(2) {
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

/// Runtime state for one host. Both hosts are built from the one spec,
/// so a given crossing costs the same on either; the transports rely on
/// that to price a segment's receiving side with the sending side's
/// memoised costs.
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
    pub(crate) tracer: Option<SharedSink>,
    /// Installed fault-injection lottery, if any (see
    /// [`Fabric::install_faults`]). Unlike the tracer this *is* consulted
    /// by the transport — that is its purpose — but every decision is a
    /// pure function of the plan's seed and the call order, so runs stay
    /// reproducible.
    pub(crate) faults: Option<Box<FaultLottery>>,
    /// Monotonic message-id allocator (advances identically whether or
    /// not a tracer is installed, preserving determinism).
    next_msg: u64,
    /// The delivery cursor of each connection direction, at
    /// `2 * conn + dir` (see [`crate::train`]).
    cursors: Vec<Cursor>,
    waiting: Slots<Continuation>,
    /// Message trains with launches still to make (see
    /// [`crate::transmit_train`]).
    pub(crate) trains: Slots<Launches>,
    /// The layer above the transports, once one is bound.
    upper: Bound<Fabric, NetEvent>,
}

/// A fabric borrowed apart for one direction of one connection: what a
/// transport touches while it moves that direction's segments.
pub(crate) struct Leg<'a> {
    pub(crate) spec: &'a ClusterSpec,
    /// The sending host.
    pub(crate) tx: &'a mut HostRt,
    /// The receiving host.
    pub(crate) rx: &'a mut HostRt,
    pub(crate) wires: &'a mut [[Resource; 2]],
    pub(crate) tracer: Option<&'a SharedSink>,
    pub(crate) faults: Option<&'a mut FaultLottery>,
    pub(crate) cursor: &'a mut Cursor,
}

impl Leg<'_> {
    /// Whether nothing observes single segments, so segment trains may be
    /// advanced in closed form: no tracer, and no fault plan that could
    /// touch a segment.
    #[inline]
    pub(crate) fn closed_form(&self) -> bool {
        self.tracer.is_none() && self.faults.as_ref().is_none_or(|f| f.plan().is_lossless())
    }

    /// The six FIFO stages a segment of direction `dir` crosses on
    /// `channel`: the sender's CPU, PCI bus and NIC, the wire, and the
    /// receiver's PCI bus and CPU.
    #[inline]
    pub(crate) fn stages(&mut self, channel: usize, dir: usize) -> [&mut Resource; 6] {
        [
            &mut self.tx.cpu,
            &mut self.tx.pci,
            &mut self.tx.nics[channel],
            &mut self.wires[channel][dir],
            &mut self.rx.pci,
            &mut self.rx.cpu,
        ]
    }
}

/// Shorthand for the engine type every transport event runs on.
pub type Net = Engine<Fabric, NetEvent>;

/// The events of the two-node world, held in the engine's queue as plain
/// data (8 bytes: a two-node fabric opens a handful of connections), so
/// the queue record stays at 32 bytes. A delivery event stands for the
/// front of its direction's delivery cursor (the `train` module), queued
/// under the sequence number reserved for it. The fabric runs every event
/// but `Upper`, which it hands to the layer bound above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// The next TCP segment reached the receiver's socket buffer.
    TcpDeliver {
        /// Connection index.
        conn: u16,
        /// Sending endpoint.
        dir: u8,
    },
    /// The window update for a drained window reached a stalled sender.
    TcpReopen {
        /// Connection index.
        conn: u16,
        /// Sending endpoint.
        dir: u8,
    },
    /// The next OS-bypass packet landed in the receiver's memory.
    RawDeliver {
        /// Connection index.
        conn: u16,
        /// Sending endpoint.
        dir: u8,
    },
    /// A message's completion continuation is due (see [`send`]).
    Resume {
        /// Where the fabric holds the continuation.
        slot: u32,
    },
    /// A message train part that is not its train's last completed: a
    /// counted event that runs nothing (see `Done::Silent`).
    Silent {
        /// Connection index.
        conn: u16,
        /// Sending endpoint.
        dir: u8,
    },
    /// The next part of a message train is handed to its transport (see
    /// [`crate::transmit_train`]).
    Launch {
        /// Where the fabric holds the train.
        slot: u32,
    },
    /// An event of the bound layer: a message [`transmit`] carried
    /// landed, or a step the layer timed itself.
    Upper {
        /// The layer's record, as given to [`transmit`].
        msg: u32,
        /// What happened to it, in the layer's own terms.
        step: u8,
    },
}

impl Event<Fabric> for NetEvent {
    #[inline]
    fn dispatch(self, eng: &mut Net) {
        match self {
            NetEvent::TcpDeliver { conn, dir } => {
                crate::tcp::on_deliver(eng, ConnId(conn.into()), dir.into());
            }
            NetEvent::TcpReopen { conn, dir } => {
                crate::tcp::on_reopen(eng, ConnId(conn.into()), dir.into());
            }
            NetEvent::RawDeliver { conn, dir } => {
                crate::raw::on_deliver(eng, ConnId(conn.into()), dir.into());
            }
            NetEvent::Resume { slot } => {
                let k = eng.world.waiting.take(slot);
                k(eng);
            }
            NetEvent::Silent { conn, dir } => {
                let cursor = eng.world.cursor(ConnId(conn.into()), dir.into());
                cursor.silent.pop_front();
                cursor.own += 1;
            }
            NetEvent::Launch { slot } => crate::train::on_launch(eng, slot),
            NetEvent::Upper { .. } => eng.world.upper.layer().dispatch(eng, self),
        }
    }
}

/// Values waiting for an event, in reusable slots addressed by a `u32`
/// that fits a [`NetEvent`] or a [`MultiEvent`](crate::multinode::MultiEvent).
/// A freed slot is handed out again, so once the most values ever in
/// flight at one time have been parked, parking allocates nothing.
pub struct Slots<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slots<T> {
    /// Hold `v` until its slot is taken; returns the slot.
    pub fn park(&mut self, v: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(v);
                slot
            }
            #[expect(
                clippy::expect_used,
                reason = "one slot per value in flight; four billion at once is a model bug"
            )]
            None => {
                self.slots.push(Some(v));
                u32::try_from(self.slots.len() - 1).expect("values in flight")
            }
        }
    }

    /// Slots ever handed out: the most values held at one time.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    #[expect(
        clippy::expect_used,
        reason = "an event is queued once per parked slot and takes it once"
    )]
    /// Take the value parked at `slot`, freeing the slot.
    pub fn take(&mut self, slot: u32) -> T {
        self.free.push(slot);
        let v = self.slots[slot as usize].take();
        v.expect("took an empty slot")
    }

    #[expect(
        clippy::expect_used,
        reason = "as in `take`: only a parked slot's event reaches here"
    )]
    /// The value parked at `slot`, left in place.
    pub fn get_mut(&mut self, slot: u32) -> &mut T {
        self.slots[slot as usize].as_mut().expect("an empty slot")
    }
}

/// What a message's delivery completes.
#[derive(Clone, Copy)]
pub(crate) enum Done {
    /// The sender's continuation, parked in the fabric's slot.
    Call(u32),
    /// The bound layer's event `NetEvent::Upper { msg, step }`.
    Upper { msg: u32, step: u8 },
    /// Nothing but a counted event: a part of a message train that is not
    /// the train's last.
    Silent,
}

impl Done {
    #[inline]
    pub(crate) fn is_silent(&self) -> bool {
        matches!(self, Done::Silent)
    }
}

/// Complete a message sent on direction `dir` of `conn` at `at`: run its
/// continuation then, hand the bound layer its event, or — a silent train
/// part — queue the counted event its completion would have been, noting
/// its key on the direction's cursor.
pub(crate) fn complete_at(eng: &mut Net, conn: ConnId, dir: usize, at: SimTime, done: Done) {
    match done {
        Done::Call(slot) => eng.schedule_event_at(at, NetEvent::Resume { slot }),
        Done::Upper { msg, step } => eng.schedule_event_at(at, NetEvent::Upper { msg, step }),
        Done::Silent => {
            let seq = eng.next_seq();
            eng.world.cursor(conn, dir).silent.push_back((at, seq));
            let (conn, dir) = event_addr(conn, dir);
            eng.schedule_event_at(at, NetEvent::Silent { conn, dir });
        }
    }
}

/// Narrow a connection id and endpoint for a [`NetEvent`].
pub(crate) fn event_addr(conn: ConnId, dir: usize) -> (u16, u8) {
    #[expect(
        clippy::expect_used,
        reason = "a fabric holds a handful of connections and two endpoints; overflowing either is a caller bug"
    )]
    let conn = u16::try_from(conn.0).expect("more than u16::MAX connections");
    #[expect(clippy::expect_used, reason = "as above: endpoints are 0 and 1")]
    let dir = u8::try_from(dir).expect("endpoint index is 0 or 1");
    (conn, dir)
}

/// Narrow a segment length for a delivery cursor.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "segments are cut at an MSS or packet size that is itself a u32"
)]
pub(crate) fn seg_len(seg: u64) -> u32 {
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
            cursors: Vec::new(),
            waiting: Slots::default(),
            trains: Slots::default(),
            upper: Bound::default(),
        }
    }

    /// Create an engine over a fresh fabric for `spec`.
    pub fn engine(spec: ClusterSpec) -> Net {
        Engine::with_events(Fabric::new(spec))
    }

    /// Bind `layer` above the transports: it receives every
    /// [`NetEvent::Upper`]. Binding the layer already bound is a no-op;
    /// one engine carries one layer.
    pub fn bind(&mut self, layer: Rc<dyn Upper<Fabric, NetEvent>>) {
        self.upper.bind(layer);
    }

    /// The completion that runs `k`, parked until its event.
    pub(crate) fn call(&mut self, k: Continuation) -> Done {
        Done::Call(self.waiting.park(k))
    }

    /// Register a connection and return its id.
    pub fn push_conn(&mut self, conn: Conn) -> ConnId {
        let id = ConnId(self.conns.len());
        self.conns.push(conn);
        self.cursors
            .resize_with(2 * self.conns.len(), Cursor::default);
        id
    }

    /// Direction `dir` of `conn`'s delivery cursor.
    #[inline]
    pub(crate) fn cursor(&mut self, conn: ConnId, dir: usize) -> &mut Cursor {
        &mut self.cursors[2 * conn.0 + dir]
    }

    /// `conn` and its direction `dir`'s delivery cursor, borrowed apart.
    #[inline]
    pub(crate) fn conn_and_cursor(&mut self, conn: ConnId, dir: usize) -> (&mut Conn, &mut Cursor) {
        (&mut self.conns[conn.0], &mut self.cursors[2 * conn.0 + dir])
    }

    /// `conn` and everything its direction `dir` crosses, borrowed apart.
    #[inline]
    pub(crate) fn leg(&mut self, conn: ConnId, dir: usize) -> (&mut Conn, Leg<'_>) {
        let Fabric {
            spec,
            hosts,
            wires,
            conns,
            tracer,
            faults,
            cursors,
            ..
        } = self;
        let [h0, h1] = hosts;
        let (tx, rx) = if dir == 0 { (h0, h1) } else { (h1, h0) };
        let leg = Leg {
            spec,
            tx,
            rx,
            wires,
            tracer: tracer.as_ref(),
            faults: faults.as_deref_mut(),
            cursor: &mut cursors[2 * conn.0 + dir],
        };
        (&mut conns[conn.0], leg)
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
    let done = eng.world.call(on_delivered);
    submit(eng, conn, from, bytes, done);
}

/// Send `bytes` from endpoint `from` of `conn` for the bound layer: a
/// [`NetEvent::Upper`] carrying `msg` and `step` fires when the last byte
/// has reached the receiving application.
pub fn transmit(eng: &mut Net, conn: ConnId, from: usize, bytes: u64, msg: u32, step: u8) {
    submit(eng, conn, from, bytes, Done::Upper { msg, step });
}

/// [`send`], completing with `done`.
pub(crate) fn submit(eng: &mut Net, conn: ConnId, from: usize, bytes: u64, done: Done) {
    assert!(from < 2, "endpoint index must be 0 or 1");
    match &eng.world.conns[conn.0] {
        Conn::Tcp(_) => crate::tcp::submit(eng, conn, from, bytes, done),
        Conn::Raw(_) => crate::raw::submit(eng, conn, from, bytes, done),
        Conn::Local(_) => crate::local::submit(eng, conn, bytes, done),
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
    fn events_and_connections_stay_small() {
        use std::mem::size_of;
        assert!(size_of::<NetEvent>() <= 8);
        // `Vec<Conn>`'s first push allocates four of them; at 256 bytes
        // that block still fits glibc's per-thread cache.
        assert!(size_of::<Conn>() <= 256, "{}", size_of::<Conn>());
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
