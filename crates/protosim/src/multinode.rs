//! An N-node switched fabric for application-pattern simulations.
//!
//! The paper measures two nodes back-to-back; its motivation (§1) is
//! clusters of many nodes. This module provides the minimal N-node
//! extension: every node has its own NIC pipeline (CPU per-packet work,
//! NIC engine), connected through a non-blocking switch with a fixed
//! per-hop latency and a per-port wire rate — the "moderately sized
//! cluster" the paper's socket-buffer remark contemplates. Transport
//! details below the library (windows, acks) are assumed tuned; this
//! fabric is for *pattern* studies (halo exchanges, collectives) where
//! per-link contention and serialization set the answer.

use std::rc::Rc;

use hwmodel::nic::TCPIP_HEADERS;
use hwmodel::ClusterSpec;
use simcore::{Engine, Event, Resource, SimDuration, SimTime};

use crate::fabric::Slots;
use crate::{Bound, Upper};

/// One node's runtime resources.
pub struct Node {
    /// Protocol CPU (kernel per-packet + copies).
    pub cpu: Resource,
    /// NIC/driver per-frame engine (the GA620's firmware stage).
    pub(crate) nic: Resource,
    /// Transmit wire of the node's switch port.
    pub(crate) tx: Resource,
    /// Receive wire of the node's switch port.
    pub(crate) rx: Resource,
}

/// The N-node world: nodes around a non-blocking switch, the messages
/// crossing it, and the layers above it (see [`Upper`]).
pub struct MultiNet {
    /// The per-node hardware description (all nodes identical).
    pub spec: ClusterSpec,
    /// All nodes.
    pub nodes: Vec<Node>,
    /// Messages delivered so far (diagnostics).
    pub(crate) delivered: u64,
    /// Messages crossing the switch.
    flights: Slots<Flight>,
    /// Completions of the messages [`send`] carries.
    calls: Slots<MultiContinuation>,
    /// The layers above the fabric, once one is bound.
    upper: Bound<MultiNet, MultiEvent>,
}

/// Engine alias for multi-node simulations.
pub type MultiEngine = Engine<MultiNet, MultiEvent>;

/// Completion callback.
pub(crate) type MultiContinuation = Box<dyn FnOnce(&mut MultiEngine)>;

/// The N-rank world's one event vocabulary, held in the engine's queue
/// as plain data (8 bytes). The fabric runs `Segment` and `Resume`
/// itself and hands the rest, from `Landed` on, to the layer bound above
/// it (see [`Upper`]): an `mpsim` session's message phases and a
/// collective driver's rounds, timed kills, recv deadlines and
/// evictions. Each
/// carries the one number its layer needs to find its state: a message
/// parked in the session's slots, a rank, or a parked deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiEvent {
    /// The next segment of a message reached its receiver's port.
    Segment {
        /// Where the fabric holds the message.
        flight: u32,
    },
    /// A message sent with [`send`] is in its receiver's memory: run its
    /// continuation.
    Resume {
        /// Where the fabric holds the continuation.
        slot: u32,
    },
    /// A message sent with [`transmit`] is in its receiver's memory: the
    /// bound layer's message `msg` crossed the fabric.
    Landed {
        /// The layer's token, as given to [`transmit`].
        msg: u32,
    },
    /// The sender's library work for message `msg` is done: it may
    /// enter the fabric.
    SendReady {
        /// The session's message.
        msg: u32,
    },
    /// The receiver's library work for message `msg` is done: it may
    /// match a posted receive.
    Deliver {
        /// The session's message.
        msg: u32,
    },
    /// A receive posted after message `msg` arrived completes.
    Arrive {
        /// The session's message.
        msg: u32,
    },
    /// A rank enters its next round (a collective round, or one
    /// bulk-synchronous step).
    StartRound {
        /// The rank.
        rank: u32,
    },
    /// A fault plan's timed rank death.
    Kill {
        /// The dying rank.
        rank: u32,
    },
    /// A round's recv deadline expired.
    Deadline {
        /// Where the layer holds the deadline's round.
        slot: u32,
    },
    /// The probe verdict on a suspect rank is due.
    Evict {
        /// The suspect rank.
        rank: u32,
    },
}

/// One message crossing the switch.
struct Flight {
    to: u32,
    /// Bytes whose segments have not reached the receiver's CPU yet.
    left: u64,
    done: Done,
}

/// What a landed message completes.
#[derive(Clone, Copy)]
enum Done {
    /// A continuation parked in [`MultiNet::calls`].
    Call(u32),
    /// The bound layer's message.
    Upper(u32),
}

impl Event<MultiNet> for MultiEvent {
    #[inline]
    fn dispatch(self, eng: &mut MultiEngine) {
        match self {
            MultiEvent::Segment { flight } => on_segment(eng, flight),
            MultiEvent::Resume { slot } => {
                eng.world.delivered += 1;
                let k = eng.world.calls.take(slot);
                k(eng);
            }
            MultiEvent::Landed { .. } => {
                eng.world.delivered += 1;
                eng.world.upper.layer().dispatch(eng, self);
            }
            _ => eng.world.upper.layer().dispatch(eng, self),
        }
    }
}

impl MultiNet {
    /// Build an `n`-node cluster of `spec` nodes joined by a switch.
    pub(crate) fn new(spec: ClusterSpec, n: usize) -> MultiNet {
        assert!(n >= 2, "a cluster needs at least two nodes");
        let mk = || {
            let wire_rate = spec
                .nic
                .driver_cap_bps
                .map_or(spec.nic.wire_bps, |c| c.min(spec.nic.wire_bps));
            Node {
                cpu: Resource::new("cpu", spec.host.cpu.kernel_copy_bps),
                nic: Resource::with_overhead(
                    "nic",
                    spec.nic.nic_byte_rate,
                    SimDuration::from_micros_f64(spec.nic.nic_pkt_us),
                ),
                tx: Resource::new("tx", wire_rate),
                rx: Resource::new("rx", wire_rate),
            }
        };
        MultiNet {
            nodes: (0..n).map(|_| mk()).collect(),
            spec,
            delivered: 0,
            flights: Slots::default(),
            calls: Slots::default(),
            upper: Bound::default(),
        }
    }

    /// Engine over a fresh `n`-node cluster.
    pub fn engine(spec: ClusterSpec, n: usize) -> MultiEngine {
        Engine::with_events(MultiNet::new(spec, n))
    }

    /// Bind `layer` above the fabric: it receives every event past the
    /// fabric's own. Binding the layer already bound is a no-op; one
    /// engine carries one layer.
    pub fn bind(&mut self, layer: Rc<dyn Upper<MultiNet, MultiEvent>>) {
        self.upper.bind(layer);
    }
}

/// Send `bytes` from node `from` to node `to` through the switch;
/// `k` runs when the last byte lands in `to`'s memory.
pub fn send(eng: &mut MultiEngine, from: usize, to: usize, bytes: u64, k: MultiContinuation) {
    let slot = eng.world.calls.park(k);
    cross(eng, from, to, bytes, Done::Call(slot));
}

/// Send `bytes` from node `from` to node `to` for the bound layer: a
/// [`MultiEvent::Landed`] carrying `msg` fires when the last byte lands
/// in `to`'s memory.
pub fn transmit(eng: &mut MultiEngine, from: usize, to: usize, bytes: u64, msg: u32) {
    cross(eng, from, to, bytes, Done::Upper(msg));
}

/// Pipeline per segment: sender CPU → sender NIC/port (tx) → switch hop →
/// receiver port (rx) → receiver CPU. The switch itself is non-blocking
/// (full bisection); ports serialize, which is where halo-exchange
/// contention appears. The receiver's CPU work is booked *when each
/// segment arrives* (a [`MultiEvent::Segment`]), never eagerly —
/// otherwise a send issued now would pre-empt the receiving node's own
/// future transmissions on its shared CPU.
fn cross(eng: &mut MultiEngine, from: usize, to: usize, bytes: u64, done: Done) {
    assert!(from != to, "self-sends do not cross the fabric");
    let now = eng.now();
    let net = &mut eng.world;
    assert!(
        from < net.nodes.len() && to < net.nodes.len(),
        "node out of range"
    );
    let bytes = bytes.max(1);
    #[expect(
        clippy::expect_used,
        reason = "node indices are checked against the node table above, which a u32 indexes"
    )]
    let flight = net.flights.park(Flight {
        to: u32::try_from(to).expect("node index fits a u32"),
        left: bytes,
        done,
    });
    let spec = &net.spec;
    let mss = u64::from(spec.nic.mss(TCPIP_HEADERS));
    let (pkt_tx_us, copy_bps, syscall_us) = (
        spec.host.cpu.kernel_pkt_tx_us,
        spec.host.cpu.kernel_copy_bps,
        spec.host.cpu.syscall_us,
    );
    // One switch hop plus propagation; coalescing charged at delivery.
    let hop = SimDuration::from_micros_f64(
        spec.switch_latency_us.max(0.5) + 0.05 + spec.nic.rx_coalesce_us,
    );
    let framing = u64::from(TCPIP_HEADERS) + u64::from(spec.nic.framing_bytes);
    let mut remaining = bytes;
    let mut first = true;
    while remaining > 0 {
        let seg = remaining.min(mss);
        remaining -= seg;
        let mut tx_work =
            SimDuration::from_micros_f64(pkt_tx_us) + SimDuration::for_bytes(seg, copy_bps);
        if first {
            tx_work += SimDuration::from_micros_f64(syscall_us);
            first = false;
        }
        let frame = seg + framing;
        let nodes = &mut eng.world.nodes;
        let t1 = nodes[from].cpu.serve_for(now, tx_work, seg);
        let t1b = nodes[from].nic.serve(t1, frame);
        let t2 = nodes[from].tx.serve(t1b, frame);
        let t3 = nodes[to].rx.serve(t2 + hop, frame);
        eng.schedule_event_at(t3, MultiEvent::Segment { flight });
    }
}

/// A segment of `flight` reached its receiver's port: book the
/// receiver's CPU for it, and after the last one, the message's
/// completion. Segments land in order (the receiver's port is FIFO), so
/// each takes the next `mss` of the bytes still out.
fn on_segment(eng: &mut MultiEngine, flight: u32) {
    let now = eng.now();
    let net = &mut eng.world;
    let mss = u64::from(net.spec.nic.mss(TCPIP_HEADERS));
    let f = net.flights.get_mut(flight);
    let seg = f.left.min(mss);
    f.left -= seg;
    let (to, last) = (f.to as usize, f.left == 0);
    let cpu = &net.spec.host.cpu;
    let rx_work = SimDuration::from_micros_f64(cpu.kernel_pkt_rx_us)
        + SimDuration::for_bytes(seg, cpu.kernel_copy_bps);
    let t4 = net.nodes[to].cpu.serve_for(now, rx_work, seg);
    if !last {
        return;
    }
    // The receiver's CPU is FIFO and segments arrive in order, so the
    // last segment's completion is the message's.
    let wakeup = SimDuration::from_micros_f64(net.spec.kernel.rx_extra_us + cpu.syscall_us);
    let ev = match net.flights.take(flight).done {
        Done::Call(slot) => MultiEvent::Resume { slot },
        Done::Upper(msg) => MultiEvent::Landed { msg },
    };
    eng.schedule_event_at(t4 + wakeup, ev);
}

/// Bulk-synchronous ring halo exchange as a layer above the fabric:
/// each step, every node computes then sends its halo to both ring
/// neighbours; the next step starts when every halo of this one landed.
struct Halo {
    n: usize,
    halo: u64,
    compute: SimDuration,
    state: std::cell::Cell<HaloState>,
}

#[derive(Clone, Copy)]
struct HaloState {
    steps_left: u32,
    /// Halos of the current step still in flight.
    pending: u32,
    done: Option<SimTime>,
}

impl Halo {
    /// Begin the next step now, or record the end if none is left.
    fn step(&self, eng: &mut MultiEngine) {
        let mut st = self.state.get();
        if st.steps_left == 0 {
            st.done = Some(eng.now());
        } else {
            st.steps_left -= 1;
            st.pending = 2 * self.n as u32;
            let compute_end = eng.now() + self.compute;
            for node in 0..self.n as u32 {
                eng.schedule_event_at(compute_end, MultiEvent::StartRound { rank: node });
            }
        }
        self.state.set(st);
    }
}

impl Upper<MultiNet, MultiEvent> for Halo {
    fn dispatch(&self, eng: &mut MultiEngine, ev: MultiEvent) {
        match ev {
            MultiEvent::StartRound { rank } => {
                let node = rank as usize;
                for dir in [1, self.n - 1] {
                    transmit(eng, node, (node + dir) % self.n, self.halo, 0);
                }
            }
            MultiEvent::Landed { .. } => {
                let mut st = self.state.get();
                st.pending -= 1;
                self.state.set(st);
                if st.pending == 0 {
                    self.step(eng);
                }
            }
            _ => {}
        }
    }
}

/// Simulate `steps` bulk-synchronous halo-exchange steps on `n` nodes:
/// each step, every node computes for `compute` then exchanges
/// `halo_bytes` with each ring neighbour; the next step starts when every
/// node has its halos. Returns total simulated seconds.
pub fn ring_halo_steps(
    spec: &ClusterSpec,
    n: usize,
    halo_bytes: u64,
    compute: SimDuration,
    steps: u32,
) -> f64 {
    let mut eng = MultiNet::engine(spec.clone(), n);
    let halo = Rc::new(Halo {
        n,
        halo: halo_bytes,
        compute,
        state: std::cell::Cell::new(HaloState {
            steps_left: steps,
            pending: 0,
            done: None,
        }),
    });
    eng.world.bind(halo.clone());
    halo.step(&mut eng);
    eng.run();
    #[expect(
        clippy::expect_used,
        reason = "eng.run() drains the event queue; an unset completion time means the model deadlocked"
    )]
    let t = halo.state.get().done.expect("halo steps never completed");
    t.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::{pcs_fast_ethernet, pcs_ga620};
    use simcore::units::{mib, throughput_mbps};
    use std::cell::Cell;
    use std::rc::Rc;

    fn one_way(n: usize, from: usize, to: usize, bytes: u64) -> f64 {
        let mut eng = MultiNet::engine(pcs_ga620(), n);
        let out = Rc::new(Cell::new(None));
        let o = Rc::clone(&out);
        send(
            &mut eng,
            from,
            to,
            bytes,
            Box::new(move |e| o.set(Some(e.now().as_secs_f64()))),
        );
        eng.run();
        out.get().unwrap()
    }

    #[test]
    fn point_to_point_matches_two_node_scale() {
        // The N-node fabric's pt2pt throughput is in the same regime as
        // the two-node model (same NIC stage dominates).
        let t = one_way(4, 0, 3, mib(4));
        let mbps = throughput_mbps(mib(4), t);
        assert!((450.0..700.0).contains(&mbps), "{mbps}");
        let lat = one_way(4, 1, 2, 8) * 1e6;
        assert!((80.0..160.0).contains(&lat), "{lat} us");
    }

    #[test]
    fn concurrent_disjoint_pairs_do_not_contend() {
        // 0->1 and 2->3 share nothing: together they take what one takes.
        let solo = one_way(4, 0, 1, mib(1));
        let mut eng = MultiNet::engine(pcs_ga620(), 4);
        let done = Rc::new(Cell::new(0u32));
        let t_end = Rc::new(Cell::new(0.0f64));
        for (a, b) in [(0usize, 1usize), (2, 3)] {
            let done = Rc::clone(&done);
            let t_end = Rc::clone(&t_end);
            send(
                &mut eng,
                a,
                b,
                mib(1),
                Box::new(move |e| {
                    done.set(done.get() + 1);
                    t_end.set(e.now().as_secs_f64());
                }),
            );
        }
        eng.run();
        assert_eq!(done.get(), 2);
        assert!(
            t_end.get() < solo * 1.05,
            "disjoint pairs contended: {} vs {}",
            t_end.get(),
            solo
        );
    }

    #[test]
    fn incast_serializes_on_the_receiver_port() {
        // 3 senders -> node 0: the receive port is the bottleneck, so it
        // takes ~3x one transfer.
        let solo = one_way(4, 1, 0, mib(1));
        let mut eng = MultiNet::engine(pcs_ga620(), 4);
        let t_end = Rc::new(Cell::new(0.0f64));
        for from in 1..4usize {
            let t_end = Rc::clone(&t_end);
            send(
                &mut eng,
                from,
                0,
                mib(1),
                Box::new(move |e| {
                    let t = e.now().as_secs_f64();
                    if t > t_end.get() {
                        t_end.set(t);
                    }
                }),
            );
        }
        eng.run();
        let ratio = t_end.get() / solo;
        assert!((2.0..3.6).contains(&ratio), "incast ratio {ratio}");
    }

    #[test]
    fn ring_halo_scales_with_compute_domination() {
        // Big compute grain: communication hides in the gaps; doubling
        // nodes at fixed per-node work keeps step time ~constant.
        let spec = pcs_fast_ethernet();
        let t4 = ring_halo_steps(&spec, 4, 10_000, SimDuration::from_millis(5), 3);
        let t8 = ring_halo_steps(&spec, 8, 10_000, SimDuration::from_millis(5), 3);
        assert!(
            (t8 / t4 - 1.0).abs() < 0.2,
            "weak-scaling step time: {t4} vs {t8}"
        );
    }

    #[test]
    fn ring_halo_communication_bound_grows_with_halo() {
        let spec = pcs_ga620();
        let small = ring_halo_steps(&spec, 4, 1_000, SimDuration::ZERO, 2);
        let big = ring_halo_steps(&spec, 4, 1_000_000, SimDuration::ZERO, 2);
        assert!(
            big > 5.0 * small,
            "halo size must dominate: {small} vs {big}"
        );
    }

    #[test]
    fn the_event_vocabulary_fits_the_queue_record() {
        // The engine stores events of up to 8 bytes in its 32-byte record.
        assert_eq!(std::mem::size_of::<MultiEvent>(), 8);
    }

    #[test]
    fn continuations_and_slots_are_reused_across_messages() {
        let mut eng = MultiNet::engine(pcs_ga620(), 3);
        let done = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            for (from, to) in [(0usize, 1usize), (2, 1)] {
                let done = Rc::clone(&done);
                send(
                    &mut eng,
                    from,
                    to,
                    4096,
                    Box::new(move |_| done.set(done.get() + 1)),
                );
            }
            eng.run();
        }
        assert_eq!(done.get(), 6);
        assert_eq!(eng.world.delivered, 6);
        // Two messages at a time never need more than two slots.
        assert_eq!(eng.world.flights.len(), 2);
        assert_eq!(eng.world.calls.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_cluster_rejected() {
        let _ = MultiNet::new(pcs_ga620(), 1);
    }
}
