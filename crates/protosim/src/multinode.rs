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

use hwmodel::nic::TCPIP_HEADERS;
use hwmodel::ClusterSpec;
use simcore::{Engine, Resource, SimDuration, SimTime};

/// One node's runtime resources.
pub struct Node {
    /// Protocol CPU (kernel per-packet + copies).
    pub cpu: Resource,
    /// NIC/driver per-frame engine (the GA620's firmware stage).
    pub nic: Resource,
    /// Transmit wire of the node's switch port.
    pub tx: Resource,
    /// Receive wire of the node's switch port.
    pub rx: Resource,
}

/// The N-node world: nodes around a non-blocking switch.
pub struct MultiNet {
    /// The per-node hardware description (all nodes identical).
    pub spec: ClusterSpec,
    /// All nodes.
    pub nodes: Vec<Node>,
    /// Messages delivered so far (diagnostics).
    pub delivered: u64,
}

/// Engine alias for multi-node simulations.
pub type MultiEngine = Engine<MultiNet>;

/// Completion callback.
pub type MultiContinuation = Box<dyn FnOnce(&mut MultiEngine)>;

impl MultiNet {
    /// Build an `n`-node cluster of `spec` nodes joined by a switch.
    pub fn new(spec: ClusterSpec, n: usize) -> MultiNet {
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
        }
    }

    /// Engine over a fresh `n`-node cluster.
    pub fn engine(spec: ClusterSpec, n: usize) -> MultiEngine {
        Engine::new(MultiNet::new(spec, n))
    }
}

/// Send `bytes` from node `from` to node `to` through the switch;
/// `k` runs when the last byte lands in `to`'s memory.
///
/// Pipeline per segment: sender CPU → sender NIC/port (tx) → switch hop →
/// receiver port (rx) → receiver CPU. The switch itself is non-blocking
/// (full bisection); ports serialize, which is where halo-exchange
/// contention appears.
pub fn send(eng: &mut MultiEngine, from: usize, to: usize, bytes: u64, k: MultiContinuation) {
    use std::cell::RefCell;
    use std::rc::Rc;
    assert!(from != to, "self-sends do not cross the fabric");
    let now = eng.now();
    // Segment arrival times at the receiver's port; the receiver's CPU
    // work is booked *when each segment arrives* (an event), never
    // eagerly — otherwise a send issued now would pre-empt the receiving
    // node's own future transmissions on its shared CPU.
    let mut arrivals: Vec<(SimTime, u64)> = Vec::new();
    {
        let MultiNet { spec, nodes, .. } = &mut eng.world;
        assert!(from < nodes.len() && to < nodes.len(), "node out of range");
        let mss = u64::from(spec.nic.mss(TCPIP_HEADERS));
        let cpu = &spec.host.cpu;
        // One switch hop plus propagation; coalescing charged at delivery.
        let hop = SimDuration::from_micros_f64(
            spec.switch_latency_us.max(0.5) + 0.05 + spec.nic.rx_coalesce_us,
        );
        let mut remaining = bytes.max(1);
        let mut first = true;
        while remaining > 0 {
            let seg = remaining.min(mss);
            remaining -= seg;
            let mut tx_work = SimDuration::from_micros_f64(cpu.kernel_pkt_tx_us)
                + SimDuration::for_bytes(seg, cpu.kernel_copy_bps);
            if first {
                tx_work += SimDuration::from_micros_f64(cpu.syscall_us);
                first = false;
            }
            let frame = seg + u64::from(TCPIP_HEADERS) + u64::from(spec.nic.framing_bytes);
            let t1 = nodes[from].cpu.serve_for(now, tx_work, seg);
            let t1b = nodes[from].nic.serve(t1, frame);
            let t2 = nodes[from].tx.serve(t1b, frame);
            let t3 = nodes[to].rx.serve(t2 + hop, frame);
            arrivals.push((t3, seg));
        }
    }
    let nsegs = arrivals.len() as u32;
    let segs_left = Rc::new(RefCell::new(nsegs));
    let k = Rc::new(RefCell::new(Some(k)));
    for (t3, seg) in arrivals {
        let segs_left = Rc::clone(&segs_left);
        let k = Rc::clone(&k);
        eng.schedule_at(t3, move |e| {
            let now = e.now();
            let cpu = &e.world.spec.host.cpu;
            let rx_work = SimDuration::from_micros_f64(cpu.kernel_pkt_rx_us)
                + SimDuration::for_bytes(seg, cpu.kernel_copy_bps);
            let t4 = e.world.nodes[to].cpu.serve_for(now, rx_work, seg);
            *segs_left.borrow_mut() -= 1;
            if *segs_left.borrow() == 0 {
                // Receiver CPU is FIFO and arrivals are in order, so the
                // last segment's completion is the message completion.
                let wakeup = SimDuration::from_micros_f64(
                    e.world.spec.kernel.rx_extra_us + e.world.spec.host.cpu.syscall_us,
                );
                #[expect(clippy::expect_used, reason = "the guard above fires exactly once per message; a second take is an engine bug")]
                let k = k.borrow_mut().take().expect("completion fired twice");
                e.schedule_at(t4 + wakeup, move |e| {
                    e.world.delivered += 1;
                    k(e);
                });
            }
        });
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
    use std::cell::RefCell;
    use std::rc::Rc;
    let mut eng = MultiNet::engine(spec.clone(), n);

    fn do_step(
        eng: &mut MultiEngine,
        n: usize,
        halo: u64,
        compute: SimDuration,
        left: u32,
        done: Rc<RefCell<Option<SimTime>>>,
    ) {
        if left == 0 {
            let now = eng.now();
            *done.borrow_mut() = Some(now);
            return;
        }
        // All nodes compute, then exchange with both ring neighbours.
        // The step barrier completes when the last halo lands.
        let pending = Rc::new(RefCell::new(2 * n as u32));
        let compute_end = eng.now() + compute;
        for node in 0..n {
            for dir in [1usize, n - 1] {
                let to = (node + dir) % n;
                let pending = Rc::clone(&pending);
                let done = Rc::clone(&done);
                eng.schedule_at(compute_end, move |e| {
                    send(
                        e,
                        node,
                        to,
                        halo,
                        Box::new(move |e| {
                            *pending.borrow_mut() -= 1;
                            if *pending.borrow() == 0 {
                                do_step(e, n, halo, compute, left - 1, done);
                            }
                        }),
                    );
                });
            }
        }
    }

    let done: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    do_step(&mut eng, n, halo_bytes, compute, steps, Rc::clone(&done));
    eng.run();
    #[expect(
        clippy::expect_used,
        reason = "eng.run() drains the event queue; an unset completion time means the model deadlocked"
    )]
    let t = (*done.borrow()).expect("halo steps never completed");
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
    #[should_panic(expected = "at least two nodes")]
    fn single_node_cluster_rejected() {
        let _ = MultiNet::new(pcs_ga620(), 1);
    }
}
