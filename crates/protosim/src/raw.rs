//! OS-bypass message transports: Myrinet GM and VIA.
//!
//! Unlike the TCP path, these fabrics move registered user memory with no
//! kernel per-packet work and no socket-buffer window (§5, §6): the
//! pipeline is *library → PCI DMA → NIC processor → wire → NIC processor
//! → PCI DMA → completion*. What distinguishes the variants:
//!
//! * **GM on Myrinet** — the 66 MHz LANai RISC processor is the per-byte
//!   bottleneck (~800 Mbps on the PCI64A cards); the receive mode sets the
//!   completion cost: Polling ≈ free (16 µs total latency), Blocking pays
//!   an interrupt + wakeup (36 µs), Hybrid measures like Polling (§5).
//! * **Giganet cLAN** — hardware VIA through one switch hop, ~10 µs
//!   latency, ~800 Mbps (§6.2).
//! * **M-VIA** — a *software* VIA over the SysKonnect GigE cards: each
//!   packet pays an emulated-doorbell/kernel-trap cost, capping the rate
//!   at ~425 Mbps with a 42 µs latency (§6.2).

use std::collections::VecDeque;

use simcore::trace::{stages, SpanRec};
use simcore::SimDuration;

use crate::fabric::{
    complete_at, event_addr, flow_track, seg_len, Conn, ConnId, Continuation, Done, Fabric, Net,
    NetEvent,
};
use crate::train::{self, Flow, Hop, Run};

/// How the receiving process learns of a completed message (GM's
/// `--gm-recv` flag, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvMode {
    /// Busy-spin on the completion queue: lowest latency, burns the CPU.
    Polling,
    /// Sleep on an interrupt: +20 µs wakeup per message.
    Blocking,
    /// Poll briefly, then block: measures like polling under NetPIPE but
    /// does not burn the CPU of a loaded node.
    Hybrid,
}

impl RecvMode {
    /// Per-message completion cost, µs.
    pub(crate) fn completion_us(self) -> f64 {
        match self {
            RecvMode::Polling | RecvMode::Hybrid => 2.0,
            RecvMode::Blocking => 20.0,
        }
    }
}

/// Parameters of an OS-bypass transport.
#[derive(Debug, Clone)]
pub struct RawParams {
    /// Fabric packet (fragment) size, bytes.
    pub(crate) pkt_bytes: u32,
    /// Per-packet host software cost, µs (tiny for GM/Giganet; the
    /// dominant term for the software M-VIA).
    pub(crate) sw_pkt_us: f64,
    /// Fixed per-message library send overhead, µs.
    pub(crate) send_overhead_us: f64,
    /// Completion notification mode.
    pub(crate) recv_mode: RecvMode,
    /// Per-packet header bytes on the wire.
    pub(crate) header_bytes: u32,
}

impl RawParams {
    /// Myricom GM defaults on the PCI64A cards.
    pub fn gm(recv_mode: RecvMode) -> RawParams {
        RawParams {
            pkt_bytes: 4096,
            sw_pkt_us: 2.0,
            send_overhead_us: 4.0,
            recv_mode,
            header_bytes: 16,
        }
    }

    /// Giganet cLAN hardware VIA.
    pub fn giganet() -> RawParams {
        RawParams {
            pkt_bytes: 4096,
            sw_pkt_us: 0.5,
            send_overhead_us: 1.5,
            recv_mode: RecvMode::Polling,
            header_bytes: 16,
        }
    }

    /// M-VIA 1.2b2: software VIA over the sk98lin GigE driver. The
    /// per-packet software cost (doorbell emulation, kernel trap) is the
    /// throughput bottleneck (§6.2: ~425 Mbps, 42 µs).
    pub fn mvia_sk98lin() -> RawParams {
        RawParams {
            pkt_bytes: 1448,
            sw_pkt_us: 26.0,
            send_overhead_us: 2.0,
            recv_mode: RecvMode::Polling,
            header_bytes: 52,
        }
    }
}

struct RawJob {
    delivered: u64,
    total: u64,
    /// Trace message-correlation id (allocated even when untraced).
    msg: u64,
    done: Done,
}

/// An open OS-bypass connection.
pub struct RawConn {
    /// Transport parameters.
    pub(crate) params: RawParams,
    /// Which NIC/wire pair this connection uses.
    pub(crate) channel: usize,
    dirs: [VecDeque<RawJob>; 2],
    /// Total bytes delivered (both directions).
    pub bytes_delivered: u64,
}

/// Open an OS-bypass connection between the two hosts.
pub fn open(fabric: &mut Fabric, params: RawParams) -> ConnId {
    open_on_channel(fabric, params, 0)
}

/// Open an OS-bypass connection over NIC/wire pair `channel`.
pub fn open_on_channel(fabric: &mut Fabric, params: RawParams, channel: usize) -> ConnId {
    assert!(
        channel < fabric.wires.len(),
        "channel {channel} out of range ({} installed)",
        fabric.wires.len()
    );
    fabric.push_conn(Conn::Raw(RawConn {
        params,
        channel,
        dirs: [VecDeque::new(), VecDeque::new()],
        bytes_delivered: 0,
    }))
}

fn as_raw(conn: &mut Conn) -> &mut RawConn {
    match conn {
        Conn::Raw(r) => r,
        #[expect(
            clippy::panic,
            reason = "ConnId was issued by this module's connect(); a mismatch is a caller bug, not a runtime condition"
        )]
        _ => panic!("connection is not a raw transport"),
    }
}

/// Send `bytes` from endpoint `from`. No window: the fabric's hardware
/// flow control never limits a two-node ping-pong.
pub fn send(eng: &mut Net, conn: ConnId, from: usize, bytes: u64, on_delivered: Continuation) {
    let done = eng.world.call(on_delivered);
    submit(eng, conn, from, bytes, done);
}

/// [`send`], completing with `done`.
pub(crate) fn submit(eng: &mut Net, conn: ConnId, from: usize, bytes: u64, done: Done) {
    let now = eng.now();
    let msg = eng.world.alloc_msg();
    let first_seq = eng.next_seq();
    let mut seq = first_seq;
    let front = {
        let (c, leg) = eng.world.leg(conn, from);
        let raw = as_raw(c);
        let pkt_bytes = u64::from(raw.params.pkt_bytes);
        let header_bytes = u64::from(raw.params.header_bytes);
        let sw_pkt = SimDuration::from_micros_f64(raw.params.sw_pkt_us);
        let send_overhead = SimDuration::from_micros_f64(raw.params.send_overhead_us);
        let channel = raw.channel;
        raw.dirs[from].push_back(RawJob {
            delivered: 0,
            total: bytes.max(1),
            msg,
            done,
        });
        let closed = leg.closed_form();
        let path = SimDuration::from_micros_f64(leg.spec.path_latency_us());
        let ft = flow_track(from);
        if let Some(t) = leg.tracer {
            t.set_message(msg);
            t.instant(stages::SEND, ft, now, bytes.max(1), msg);
        }
        let mut remaining = bytes.max(1);
        let mut first = true;
        while remaining > 0 {
            let seg = remaining.min(pkt_bytes);
            let lead = first;
            let mut sw = sw_pkt;
            if first {
                sw += send_overhead;
                first = false;
            }
            // Host library work (no kernel copy: registered memory DMA).
            let t1 = leg.tx.cpu.serve_for(now, sw, seg);
            let on_bus = seg + header_bytes;
            // Both hosts' buses are alike: price the receiving crossing
            // with the sender's memo.
            let bus = leg.tx.pci.cost(on_bus);
            let t2 = leg.tx.pci.serve_for(t1, bus, on_bus);
            // The NIC-processor stage (LANai on Myrinet) is charged once
            // per packet; it covers the tx+rx firmware work in aggregate,
            // matching the measured per-hop costs.
            let t3 = leg.tx.nics[channel].serve(t2, on_bus);
            let t4 = leg.wires[channel][from].serve(t3, on_bus);
            let t5 = leg.rx.pci.serve_for(t4 + path, bus, on_bus);
            if let Some(t) = leg.tracer {
                if path.as_nanos() > 0 {
                    t.span(SpanRec {
                        stage: stages::WIRE_LATENCY,
                        track: ft,
                        start: t4,
                        end: t4 + path,
                        bytes: seg,
                        msg,
                    });
                }
            }
            leg.cursor.push(Run::one(t5, seq, seg_len(seg)));
            seq += 1;
            remaining -= seg;
            // Every further full packet enters the CPU at `now` too.
            if closed && !lead && seg == pkt_bytes && remaining >= train::MIN_TRAIN * seg {
                let hop = |arrival, done, dur| Hop { arrival, done, dur };
                let hops = [
                    hop(now, t1, sw),
                    hop(t1, t2, bus),
                    hop(t2, t3, leg.tx.nics[channel].cost(on_bus)),
                    hop(t3, t4, leg.wires[channel][from].cost(on_bus)),
                    hop(t4 + path, t5, bus),
                ];
                let (n, steps) = train::extrapolate(&hops, SimDuration::ZERO, remaining / seg);
                if n > 0 {
                    let stages = [
                        &mut leg.tx.cpu,
                        &mut leg.tx.pci,
                        &mut leg.tx.nics[channel],
                        &mut leg.wires[channel][from],
                        &mut leg.rx.pci,
                    ];
                    let bytes = [seg, on_bus, on_bus, on_bus, on_bus];
                    train::fast_forward(stages, &hops, &steps, bytes, n);
                    leg.cursor.push(Run {
                        t0: t5 + steps[4],
                        step: steps[4],
                        seq0: seq,
                        count: n,
                        seg: seg_len(seg),
                    });
                    seq += n;
                    remaining -= n * seg;
                }
            }
        }
        leg.cursor.arm()
    };
    eng.reserve(seq - first_seq);
    if let Some(front) = front {
        eng.schedule_event_keyed(front.t0, front.seq0, RawConn::event(conn, from));
    }
}

/// The front of direction `dir`'s delivery cursor landed in the
/// receiver's memory — and so, in place, may the packets after it.
pub(crate) fn on_deliver(eng: &mut Net, conn: ConnId, dir: usize) {
    while deliver(eng, conn, dir) && train::advance::<RawConn>(eng, conn, dir) {}
}

/// Deliver the cursor's front packet, due now; `false` once the cursor
/// is empty (and no longer armed).
fn deliver(eng: &mut Net, conn: ConnId, dir: usize) -> bool {
    let now = eng.now();
    let mut completion: Option<(Done, SimDuration)> = None;
    let mut done = (0u64, 0u64); // (msg, total)
    let more;
    {
        let (c, cursor) = eng.world.conn_and_cursor(conn, dir);
        let raw = as_raw(c);
        #[expect(
            clippy::expect_used,
            reason = "a delivery event is only queued for a non-empty cursor"
        )]
        let seg = u64::from(cursor.pop().expect("delivery from an empty cursor").0);
        more = !cursor.is_empty();
        cursor.armed = more;
        raw.bytes_delivered += seg;
        #[expect(
            clippy::expect_used,
            reason = "a delivery is only in the cursor while its job is queued; an empty queue is an engine bug"
        )]
        let job = raw.dirs[dir].front_mut().expect("raw delivery with no job");
        job.delivered += seg;
        if job.delivered == job.total {
            #[expect(
                clippy::expect_used,
                reason = "front_mut() above proved the queue is non-empty under the same borrow"
            )]
            let job = raw.dirs[dir].pop_front().expect("front job vanished");
            let cost = SimDuration::from_micros_f64(raw.params.recv_mode.completion_us());
            done = (job.msg, job.total);
            completion = Some((job.done, cost));
        }
    }
    if let Some((then, cost)) = completion {
        let (msg, total) = done;
        eng.world
            .trace_span(stages::COMPLETION, flow_track(dir), now, now + cost, 0, msg);
        eng.world
            .trace_instant(stages::RECV, flow_track(dir), now + cost, total, msg);
        complete_at(eng, conn, dir, now + cost, then);
    }
    more
}

impl Flow for RawConn {
    fn event(conn: ConnId, dir: usize) -> NetEvent {
        let (conn, dir) = event_addr(conn, dir);
        NetEvent::RawDeliver { conn, dir }
    }

    fn of(conn: &mut Conn) -> &mut RawConn {
        as_raw(conn)
    }

    fn silent(&self, dir: usize, run: &Run) -> u64 {
        let seg = u64::from(run.seg);
        self.dirs[dir]
            .front()
            .map_or(0, |j| (j.total - j.delivered - 1) / seg)
            .min(run.count)
    }

    fn settle(&mut self, dir: usize, n: u64, seg: u64) {
        self.bytes_delivered += n * seg;
        if let Some(job) = self.dirs[dir].front_mut() {
            job.delivered += n * seg;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::{pcs_giganet, pcs_mvia_syskonnect, pcs_myrinet};
    use simcore::units::{mib, throughput_mbps};
    use std::cell::Cell;
    use std::rc::Rc;

    fn one_way(spec: hwmodel::ClusterSpec, bytes: u64, params: RawParams) -> f64 {
        let mut eng = Fabric::engine(spec);
        let conn = open(&mut eng.world, params);
        let done = Rc::new(Cell::new(None));
        let done2 = Rc::clone(&done);
        send(
            &mut eng,
            conn,
            0,
            bytes,
            Box::new(move |e| done2.set(Some(e.now()))),
        );
        eng.run();
        done.get().expect("undelivered").as_secs_f64()
    }

    #[test]
    fn gm_polling_latency_near_16us() {
        let t = one_way(pcs_myrinet(), 8, RawParams::gm(RecvMode::Polling));
        let us = t * 1e6;
        assert!((10.0..22.0).contains(&us), "GM latency {us} us");
    }

    #[test]
    fn gm_blocking_latency_near_36us() {
        let p = one_way(pcs_myrinet(), 8, RawParams::gm(RecvMode::Polling)) * 1e6;
        let b = one_way(pcs_myrinet(), 8, RawParams::gm(RecvMode::Blocking)) * 1e6;
        assert!((b - p - 18.5).abs() < 2.0, "polling {p} vs blocking {b}");
        assert!((28.0..44.0).contains(&b), "blocking latency {b} us");
    }

    #[test]
    fn gm_hybrid_measures_like_polling() {
        let p = one_way(pcs_myrinet(), 100_000, RawParams::gm(RecvMode::Polling));
        let h = one_way(pcs_myrinet(), 100_000, RawParams::gm(RecvMode::Hybrid));
        assert_eq!(p, h);
    }

    #[test]
    fn gm_bandwidth_near_800mbps() {
        let t = one_way(pcs_myrinet(), mib(4), RawParams::gm(RecvMode::Polling));
        let mbps = throughput_mbps(mib(4), t);
        assert!((720.0..880.0).contains(&mbps), "raw GM {mbps} Mbps");
    }

    #[test]
    fn giganet_latency_near_10us_and_800mbps() {
        let lat = one_way(pcs_giganet(), 8, RawParams::giganet()) * 1e6;
        assert!((6.0..14.0).contains(&lat), "Giganet latency {lat} us");
        let t = one_way(pcs_giganet(), mib(4), RawParams::giganet());
        let mbps = throughput_mbps(mib(4), t);
        assert!((700.0..900.0).contains(&mbps), "Giganet {mbps} Mbps");
    }

    #[test]
    fn mvia_software_costs_dominate() {
        let lat = one_way(pcs_mvia_syskonnect(), 8, RawParams::mvia_sk98lin()) * 1e6;
        assert!((34.0..50.0).contains(&lat), "M-VIA latency {lat} us");
        let t = one_way(pcs_mvia_syskonnect(), mib(4), RawParams::mvia_sk98lin());
        let mbps = throughput_mbps(mib(4), t);
        assert!((370.0..480.0).contains(&mbps), "M-VIA {mbps} Mbps");
    }

    #[test]
    fn pingpong_and_fifo_order() {
        let mut eng = Fabric::engine(pcs_myrinet());
        let conn = open(&mut eng.world, RawParams::gm(RecvMode::Polling));
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let log = Rc::clone(&log);
            send(
                &mut eng,
                conn,
                0,
                10_000,
                Box::new(move |_| log.borrow_mut().push(i)),
            );
        }
        eng.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }
}
