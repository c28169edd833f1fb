//! The Linux 2.4 TCP path as a discrete-event pipeline.
//!
//! Each message is segmented at the MSS and every segment crosses the
//! stages the paper's §1 describes ("the operating system and driver often
//! add to the message latency and decrease the maximum bandwidth by doing
//! many memory-to-memory copies … as each message is packetized"):
//!
//! ```text
//! send():  syscall → kernel tx work + copy → PCI DMA → NIC engine → wire
//! recv():  → PCI DMA → interrupt coalescing → kernel rx work + copy
//!          → process wakeup → recv() returns
//! ```
//!
//! Two flow-control mechanisms shape the throughput curves:
//!
//! * **Window-fill stall.** The sender may keep `W = min(sndbuf, rcvbuf)`
//!   bytes outstanding. When it fills the window it sleeps; the kernel
//!   wakes it only after the outstanding data has drained *and* the
//!   coalesced window update arrives (`nic.ack_delay_us`). Sustained
//!   throughput is then `W / (W/R + latency + stall)` — the mechanism
//!   behind the TrendNet cards flattening at ~290 Mbps with default
//!   buffers (§4) and the hardwired 32 kB TCGMSG buffer capping the
//!   DS20/jumbo configuration at ~600 Mbps (§7).
//!
//! * **Delayed-ACK stall.** A library that performs its own user-level
//!   block flow control (MPICH's p4 writes in `P4_SOCKBUFSIZE` blocks and
//!   waits for each to drain) strands a sub-MSS tail each block; the
//!   receiver acknowledges it only on the delayed-ACK timer. With blocks
//!   under the kernel's `delack_window_bytes` this dominates — MPICH's
//!   default 32 kB collapses to ~75 Mbps until `P4_SOCKBUFSIZE=256kB`
//!   gives the paper's five-fold improvement (§4.1). Enabled per
//!   connection with [`TcpParams::block_sync_writes`].

use std::collections::VecDeque;

use faultlab::{SegFault, SegLifeState};
use hwmodel::nic::TCPIP_HEADERS;
use simcore::trace::{stages, SpanRec};
use simcore::{units, SimDuration};

use crate::fabric::{
    event_addr, flow_track, schedule_deliveries, seg_len, Conn, ConnId, Continuation, Fabric, Net,
    NetEvent,
};

/// Per-connection TCP tuning, the knobs the paper turns.
#[derive(Debug, Clone)]
pub struct TcpParams {
    /// `SO_SNDBUF` requested by the application, bytes.
    pub sndbuf: u64,
    /// `SO_RCVBUF` requested by the application, bytes.
    pub rcvbuf: u64,
    /// True when the library layers its own block-synchronous flow control
    /// over the socket (MPICH/p4), exposing the delayed-ACK pathology for
    /// small buffers.
    pub block_sync_writes: bool,
}

impl TcpParams {
    /// Symmetric socket buffers of `bytes` each.
    pub fn with_bufs(bytes: u64) -> TcpParams {
        TcpParams {
            sndbuf: bytes,
            rcvbuf: bytes,
            block_sync_writes: false,
        }
    }
}

/// One in-progress message transfer.
struct TcpJob {
    /// Bytes not yet handed to the stack.
    remaining: u64,
    /// Bytes delivered to the receiving application.
    delivered: u64,
    /// Message size.
    total: u64,
    /// Whether the first segment has been dispatched (syscall charged).
    started: bool,
    /// Trace message-correlation id (allocated even when untraced).
    msg: u64,
    on_delivered: Option<Continuation>,
}

/// Per-direction stream state.
#[derive(Default)]
struct TcpDir {
    jobs: VecDeque<TcpJob>,
    /// Bytes charged against the window (reset on window reopen).
    in_flight: u64,
    /// Bytes dispatched but not yet delivered.
    undelivered: u64,
    /// Sender is blocked on a full window.
    stalled: bool,
}

/// What one segment costs on this connection, apart from its size: derived
/// from the spec once at [`open_on_channel`], like `window` and `smooth`,
/// so the per-segment path converts no microseconds and divides no rates.
struct SegCosts {
    mss: u32,
    /// Ethernet framing added to every frame on the wire.
    framing: u32,
    tx_pkt: SimDuration,
    rx_pkt: SimDuration,
    syscall: SimDuration,
    coalesce: SimDuration,
    path: SimDuration,
    /// Receiver wakeup + `recv()` return once a message is complete.
    wakeup: SimDuration,
    /// How long a stalled sender waits for the window update after its
    /// outstanding window has drained.
    reopen_stall: SimDuration,
    kernel_copy_bps: f64,
    /// The last `(bytes, kernel copy time)`; all but a message's final
    /// segment are the same size.
    copy_memo: (u64, SimDuration),
}

impl SegCosts {
    #[inline]
    fn kernel_copy(&mut self, seg: u64) -> SimDuration {
        if self.copy_memo.0 != seg {
            self.copy_memo = (seg, SimDuration::for_bytes(seg, self.kernel_copy_bps));
        }
        self.copy_memo.1
    }
}

/// A TCP connection between host 0 and host 1.
pub struct TcpConn {
    /// Effective (kernel-clamped) parameters.
    pub params: TcpParams,
    /// Effective window: `min(sndbuf, rcvbuf)` after clamping.
    pub window: u64,
    /// Whether acking is *smooth* for this window (see [`open`]): smooth
    /// connections recycle window space continuously (ack every other
    /// segment); rough ones batch-stall on every window fill.
    pub smooth: bool,
    /// Which NIC/wire pair this connection is routed over (channel
    /// bonding installs one connection per card).
    pub channel: usize,
    costs: SegCosts,
    dirs: [TcpDir; 2],
    /// Total bytes delivered on this connection (both directions).
    pub bytes_delivered: u64,
    /// The connection exhausted its retransmissions and gave up: no
    /// further segments are dispatched and pending completions never
    /// fire, so the engine runs dry — the simulated analogue of the
    /// paper's runs that "simply die" under load. Queried by drivers to
    /// distinguish a dead connection from a deadlocked model.
    pub dead: bool,
}

/// Open a TCP connection between the two hosts. Requested buffer sizes are
/// clamped to the kernel's `net.core.{r,w}mem_max`, exactly the ceiling
/// MP_Lite raises via `/etc/sysctl.conf` (§3.4).
pub fn open(fabric: &mut Fabric, params: TcpParams) -> ConnId {
    open_on_channel(fabric, params, 0)
}

/// Open a TCP connection routed over NIC/wire pair `channel` (channel
/// bonding). Panics if the cluster has fewer cards than that.
pub fn open_on_channel(fabric: &mut Fabric, mut params: TcpParams, channel: usize) -> ConnId {
    assert!(
        channel < fabric.wires.len(),
        "channel {channel} out of range ({} installed)",
        fabric.wires.len()
    );
    params.sndbuf = fabric.spec.kernel.clamp_sockbuf(params.sndbuf);
    params.rcvbuf = fabric.spec.kernel.clamp_sockbuf(params.rcvbuf);
    let window = params.sndbuf.min(params.rcvbuf).max(1);
    // Ack smoothness: Linux acks every other full segment, so window
    // space recycles continuously as long as (a) the window holds a
    // healthy number of segments and (b) it spans the NIC's ack-burst
    // period (interrupt coalescing delivers acks in clumps of
    // `R * ack_delay` bytes). Below either bound the sender repeatedly
    // fills the window and sleeps — the flattening the paper measures on
    // the TrendNet cards (default buffers) and on the 9000-byte-MTU
    // SysKonnect configuration (32-64 kB buffers: only a handful of jumbo
    // segments fit). A library doing its own block-synchronous flow
    // control (MPICH/p4) forfeits smoothness below the delayed-ACK bound
    // no matter what.
    let spec = &fabric.spec;
    let mss = spec.nic.mss(TCPIP_HEADERS);
    let mut payload_rate = spec.nic.wire_payload_rate(TCPIP_HEADERS);
    if let Some(cap) = spec.nic.driver_cap_bps {
        payload_rate = payload_rate.min(cap);
    }
    let burst_bytes = units::bytes_at_rate(
        payload_rate,
        SimDuration::from_micros_f64(2.0 * spec.nic.ack_delay_us),
    );
    let min_smooth = (8 * u64::from(mss)).max(burst_bytes);
    let p4_rough = params.block_sync_writes && window < spec.kernel.delack_window_bytes;
    let smooth = !p4_rough && window >= min_smooth;
    let cpu = &spec.host.cpu;
    let costs = SegCosts {
        mss,
        framing: spec.nic.framing_bytes,
        tx_pkt: SimDuration::from_micros_f64(cpu.kernel_pkt_tx_us),
        rx_pkt: SimDuration::from_micros_f64(cpu.kernel_pkt_rx_us),
        syscall: SimDuration::from_micros_f64(cpu.syscall_us),
        coalesce: SimDuration::from_micros_f64(spec.nic.rx_coalesce_us),
        path: SimDuration::from_micros_f64(spec.path_latency_us()),
        wakeup: SimDuration::from_micros_f64(spec.kernel.rx_extra_us + cpu.syscall_us),
        reopen_stall: SimDuration::from_micros_f64(if p4_rough {
            spec.kernel.delack_stall_us
        } else {
            spec.nic.ack_delay_us
        }),
        kernel_copy_bps: cpu.kernel_copy_bps,
        copy_memo: (0, SimDuration::ZERO),
    };
    fabric.push_conn(Conn::Tcp(TcpConn {
        params,
        window,
        smooth,
        channel,
        costs,
        dirs: [TcpDir::default(), TcpDir::default()],
        bytes_delivered: 0,
        dead: false,
    }))
}

/// Open a TCP connection with the kernel's default socket buffers — what
/// an application gets when it does not tune anything (§4: "the default
/// OS tuning levels have not kept pace").
pub fn open_default(fabric: &mut Fabric) -> ConnId {
    let bufs = fabric.spec.kernel.default_sockbuf;
    open(fabric, TcpParams::with_bufs(bufs))
}

/// Queue `bytes` from endpoint `from`; `on_delivered` fires when the
/// receiving process returns from its final `recv()`.
pub fn send(eng: &mut Net, conn: ConnId, from: usize, bytes: u64, on_delivered: Continuation) {
    let msg = eng.world.alloc_msg();
    let now = eng.now();
    {
        let tcp = tcp_mut(&mut eng.world, conn);
        tcp.dirs[from].jobs.push_back(TcpJob {
            remaining: bytes.max(1),
            delivered: 0,
            total: bytes.max(1),
            started: false,
            msg,
            on_delivered: Some(on_delivered),
        });
    }
    eng.world
        .trace_instant(stages::SEND, flow_track(from), now, bytes.max(1), msg);
    pump(eng, conn, from);
}

fn tcp_mut(fabric: &mut Fabric, conn: ConnId) -> &mut TcpConn {
    match &mut fabric.conns[conn.0] {
        Conn::Tcp(t) => t,
        // lint:allow(panic) -- ConnId was issued by this module's connect(); a mismatch is a caller bug, not a runtime condition
        _ => panic!("connection {conn:?} is not TCP"),
    }
}

/// Dispatch as many segments as the window allows.
// analyze: hot
fn pump(eng: &mut Net, conn: ConnId, dir: usize) {
    let now = eng.now();
    {
        let Fabric {
            hosts,
            wires,
            conns,
            tracer,
            faults,
            scratch,
            ..
        } = &mut eng.world;
        let tcp = match &mut conns[conn.0] {
            Conn::Tcp(t) => t,
            // lint:allow(panic) -- pump() is only scheduled against conns created as TCP
            _ => panic!("connection {conn:?} is not TCP"),
        };
        if tcp.dead {
            return;
        }
        let window = tcp.window;
        let channel = tcp.channel;
        let mut conn_died = false;
        let costs = &mut tcp.costs;
        let d = &mut tcp.dirs[dir];
        if d.stalled {
            return;
        }
        let (sender, receiver) = (dir, 1 - dir);
        let (mss, framing) = (u64::from(costs.mss), u64::from(costs.framing));
        let (coalesce, path) = (costs.coalesce, costs.path);
        let ft = flow_track(dir);

        'jobs: for job in d.jobs.iter_mut() {
            // Attribute the resource spans below to this message.
            if let Some(t) = tracer.as_ref() {
                t.set_message(job.msg);
            }
            while job.remaining > 0 {
                // Sender-side silly-window avoidance (RFC 1122 §4.2.3.4):
                // send a full segment, or a partial of at least MSS/2 —
                // never shave slivers off the window (that death-spirals
                // into sub-100-byte segments whose per-packet costs
                // dominate). An idle window always makes progress, so
                // tiny windows cannot deadlock.
                let want = job.remaining.min(mss);
                let avail = window - d.in_flight;
                let half_seg = mss.min(window).div_ceil(2);
                if d.in_flight > 0 && want > avail && avail < half_seg {
                    d.stalled = true;
                    break 'jobs;
                }
                let seg = want.min(avail.max(1)).min(window);
                // --- sender side ---
                let copy = costs.kernel_copy(seg);
                let mut tx = costs.tx_pkt + copy;
                if !job.started {
                    tx += costs.syscall;
                    job.started = true;
                }
                let t1 = hosts[sender].cpu.serve_for(now, tx, seg);
                let on_bus = seg + u64::from(TCPIP_HEADERS);
                let t2 = hosts[sender].pci.serve(t1, on_bus);
                let frame = on_bus + framing;
                let t3 = hosts[sender].nics[channel].serve(t2, frame);
                let mut t4 = wires[channel][dir].serve(t3, frame);
                // --- fault injection on the wire ---
                if let Some(fl) = faults.as_mut() {
                    let rate = wires[channel][dir].rate();
                    let frame_us = if rate.is_finite() && rate > 0.0 {
                        SimDuration::for_bytes(frame, rate).as_micros_f64()
                    } else {
                        0.0
                    };
                    let rto = SimDuration::from_micros_f64(fl.plan().rto_us);
                    let max_retrans = fl.plan().max_retrans;
                    let mut attempt = 0u32;
                    // Drive the segment through the declared RTO
                    // lifecycle (spec of record: `faultlab.segment`;
                    // `xtask analyze` checks these arms against it).
                    let mut life = SegLifeState::initial();
                    loop {
                        life = match life {
                            SegLifeState::InFlight => {
                                match fl.segment(t4.as_micros_f64(), frame_us) {
                                    SegFault::Drop => {
                                        if let Some(t) = tracer.as_ref() {
                                            t.instant(stages::FAULT_DROP, ft, t4, seg, job.msg);
                                        }
                                        SegLifeState::RtoWait
                                    }
                                    SegFault::Deliver {
                                        extra_us,
                                        slow_us,
                                        duplicate,
                                    } => {
                                        if duplicate {
                                            // The spurious copy burns a
                                            // second wire slot and receiver
                                            // bus crossing before being
                                            // discarded.
                                            let dup_done = wires[channel][dir].serve(t4, frame);
                                            hosts[receiver].pci.serve(dup_done + path, on_bus);
                                            if let Some(t) = tracer.as_ref() {
                                                t.instant(
                                                    stages::FAULT_DUP,
                                                    ft,
                                                    dup_done,
                                                    seg,
                                                    job.msg,
                                                );
                                            }
                                        }
                                        let fault_start = t4;
                                        if slow_us > 0.0 && rate.is_finite() {
                                            // Degraded link: the segment
                                            // holds the wire longer,
                                            // queueing every later segment
                                            // behind it.
                                            let extra_bytes = units::bytes_at_rate(
                                                rate,
                                                SimDuration::from_micros_f64(slow_us),
                                            );
                                            t4 = wires[channel][dir].serve(t4, extra_bytes);
                                        }
                                        if extra_us > 0.0 {
                                            t4 = t4 + SimDuration::from_micros_f64(extra_us);
                                        }
                                        if t4 > fault_start {
                                            if let Some(t) = tracer.as_ref() {
                                                t.span(SpanRec {
                                                    stage: stages::FAULT_DELAY,
                                                    track: ft,
                                                    start: fault_start,
                                                    end: t4,
                                                    bytes: seg,
                                                    msg: job.msg,
                                                });
                                            }
                                        }
                                        SegLifeState::Delivered
                                    }
                                }
                            }
                            SegLifeState::RtoWait => {
                                if attempt >= max_retrans {
                                    // Retransmissions exhausted: the
                                    // connection gives up for good.
                                    fl.counters.conn_deaths += 1;
                                    if let Some(t) = tracer.as_ref() {
                                        t.instant(stages::CONN_DEAD, ft, t4, seg, job.msg);
                                    }
                                    SegLifeState::Dead
                                } else {
                                    // The lost copy burned its wire slot;
                                    // the sender sits out the RTO, then the
                                    // retransmitted copy crosses again and
                                    // faces the lottery afresh.
                                    attempt += 1;
                                    fl.counters.retransmits += 1;
                                    let resend = t4 + rto;
                                    if let Some(t) = tracer.as_ref() {
                                        t.span(SpanRec {
                                            stage: stages::RETRANSMIT,
                                            track: ft,
                                            start: t4,
                                            end: resend,
                                            bytes: seg,
                                            msg: job.msg,
                                        });
                                    }
                                    t4 = wires[channel][dir].serve(resend, frame);
                                    SegLifeState::InFlight
                                }
                            }
                            // Terminal (quiescent) states end the drive.
                            SegLifeState::Delivered | SegLifeState::Dead => break,
                        };
                    }
                    if life == SegLifeState::Dead {
                        conn_died = true;
                        break 'jobs;
                    }
                }
                // --- receiver side ---
                let t5 = hosts[receiver].pci.serve(t4 + path, on_bus);
                let rx = costs.rx_pkt + copy;
                let t6 = hosts[receiver].cpu.serve_for(t5 + coalesce, rx, seg);
                if let Some(t) = tracer.as_ref() {
                    // Protocol gaps between resource spans, on the flow
                    // track (segments pipeline, so these may overlap).
                    if path.as_nanos() > 0 {
                        t.span(SpanRec {
                            stage: stages::WIRE_LATENCY,
                            track: ft,
                            start: t4,
                            end: t4 + path,
                            bytes: seg,
                            msg: job.msg,
                        });
                    }
                    if coalesce.as_nanos() > 0 {
                        t.span(SpanRec {
                            stage: stages::COALESCE,
                            track: ft,
                            start: t5,
                            end: t5 + coalesce,
                            bytes: seg,
                            msg: job.msg,
                        });
                    }
                }
                scratch.push((t6, seg_len(seg)));
                d.in_flight += seg;
                d.undelivered += seg;
                job.remaining -= seg;
            }
        }
        if conn_died {
            tcp.dead = true;
        }
    }
    let (conn, dir) = event_addr(conn, dir);
    schedule_deliveries(eng, |seg| NetEvent::TcpDeliver { conn, dir, seg });
}

/// A segment reached the receiver's socket buffer and was copied out.
// analyze: hot
pub(crate) fn on_deliver(eng: &mut Net, conn: ConnId, dir: usize, seg: u64) {
    let now = eng.now();
    /// What a delivery does to a stalled sender.
    enum Wake {
        Pump,
        Reopen(SimDuration),
    }
    let mut wake = None;
    // (continuation, wakeup cost, message bytes) of a completed message.
    let mut complete = None;
    let front_msg;
    {
        let tcp = tcp_mut(&mut eng.world, conn);
        if tcp.dead {
            // Segments already in flight when the connection died still
            // land, but drive no further progress.
            return;
        }
        tcp.bytes_delivered += seg;
        let window = tcp.window;
        let d = &mut tcp.dirs[dir];
        d.undelivered -= seg;
        if tcp.smooth {
            // Continuous acking: window space recycles per delivery.
            d.in_flight = d.in_flight.saturating_sub(seg);
            if d.stalled && d.in_flight < window {
                d.stalled = false;
                wake = Some(Wake::Pump);
            }
        } else if d.stalled {
            if d.undelivered == 0 {
                // Whole outstanding window drained; the sender wakes after
                // the (coalesced) window update arrives.
                wake = Some(Wake::Reopen(tcp.costs.reopen_stall));
            }
        } else {
            d.in_flight = d.in_flight.saturating_sub(seg);
        }
        // Account delivery against the front job.
        let job = d
            .jobs
            .front_mut()
            // lint:allow(expect) -- a delivery event is only scheduled while its job is queued; an empty queue is an engine bug
            .expect("delivery with no in-progress job");
        job.delivered += seg;
        front_msg = job.msg;
        debug_assert!(job.delivered <= job.total);
        if job.delivered == job.total {
            // lint:allow(expect) -- front_mut() above proved the queue is non-empty under the same borrow
            let mut job = d.jobs.pop_front().expect("front job vanished");
            if let Some(k) = job.on_delivered.take() {
                complete = Some((k, tcp.costs.wakeup, job.total));
            }
        }
    }
    match wake {
        Some(Wake::Pump) => pump(eng, conn, dir),
        Some(Wake::Reopen(stall)) => {
            eng.world.trace_span(
                stages::WINDOW_STALL,
                flow_track(dir),
                now,
                now + stall,
                0,
                front_msg,
            );
            let (conn, dir) = event_addr(conn, dir);
            eng.schedule_event_at(now + stall, NetEvent::TcpReopen { conn, dir });
        }
        None => {}
    }
    if let Some((k, wakeup, done_total)) = complete {
        eng.world.trace_span(
            stages::WAKEUP,
            flow_track(dir),
            now,
            now + wakeup,
            0,
            front_msg,
        );
        eng.world.trace_instant(
            stages::RECV,
            flow_track(dir),
            now + wakeup,
            done_total,
            front_msg,
        );
        eng.schedule_at(now + wakeup, k);
    }
}

/// The window update reached a sender that had filled its window.
pub(crate) fn on_reopen(eng: &mut Net, conn: ConnId, dir: usize) {
    let d = &mut tcp_mut(&mut eng.world, conn).dirs[dir];
    d.in_flight = 0;
    d.stalled = false;
    pump(eng, conn, dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::{ds20s_syskonnect_jumbo, pcs_ga620, pcs_trendnet};
    use simcore::units::{kib, mib, throughput_mbps};
    use std::cell::Cell;
    use std::rc::Rc;

    /// One-way transfer time of `bytes` with buffers `bufs`.
    fn one_way(spec: hwmodel::ClusterSpec, bytes: u64, params: TcpParams) -> f64 {
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
        done.get().expect("message never delivered").as_secs_f64()
    }

    #[test]
    fn small_message_latency_ga620_near_120us() {
        let t = one_way(pcs_ga620(), 8, TcpParams::with_bufs(kib(512)));
        let us = t * 1e6;
        assert!((100.0..140.0).contains(&us), "latency {us} us");
    }

    #[test]
    fn large_message_throughput_ga620_near_550mbps() {
        let t = one_way(pcs_ga620(), mib(4), TcpParams::with_bufs(kib(512)));
        let mbps = throughput_mbps(mib(4), t);
        assert!((480.0..640.0).contains(&mbps), "GA620 raw TCP {mbps} Mbps");
    }

    #[test]
    fn trendnet_default_buffers_flatten_near_290mbps() {
        let mut spec = pcs_trendnet();
        spec.kernel = hwmodel::presets::linux_2_4(); // default sockbuf ceiling
        let bufs = spec.kernel.default_sockbuf;
        let t = one_way(spec, mib(4), TcpParams::with_bufs(bufs));
        let mbps = throughput_mbps(mib(4), t);
        assert!(
            (230.0..330.0).contains(&mbps),
            "TrendNet default {mbps} Mbps"
        );
    }

    #[test]
    fn trendnet_512k_buffers_restore_rate() {
        let t = one_way(pcs_trendnet(), mib(4), TcpParams::with_bufs(kib(512)));
        let mbps = throughput_mbps(mib(4), t);
        assert!(mbps > 450.0, "TrendNet tuned {mbps} Mbps");
    }

    #[test]
    fn ds20_jumbo_reaches_900mbps() {
        let t = one_way(
            ds20s_syskonnect_jumbo(),
            mib(4),
            TcpParams::with_bufs(kib(512)),
        );
        let mbps = throughput_mbps(mib(4), t);
        assert!((850.0..990.0).contains(&mbps), "DS20 jumbo raw {mbps} Mbps");
    }

    #[test]
    fn block_sync_small_window_hits_delack_collapse() {
        // MPICH/p4 with P4_SOCKBUFSIZE=32k: ~75 Mbps (§4.1).
        let mut params = TcpParams::with_bufs(kib(32));
        params.block_sync_writes = true;
        let t = one_way(pcs_ga620(), mib(2), params);
        let mbps = throughput_mbps(mib(2), t);
        assert!((50.0..110.0).contains(&mbps), "p4 32k collapse {mbps} Mbps");
        // Without block-sync writes, 32k does not collapse on the GA620.
        let t2 = one_way(pcs_ga620(), mib(2), TcpParams::with_bufs(kib(32)));
        let mbps2 = throughput_mbps(mib(2), t2);
        assert!(mbps2 > 3.0 * mbps, "plain 32k {mbps2} vs p4 {mbps}");
    }

    #[test]
    fn throughput_monotone_in_buffer_size() {
        let sizes = [kib(16), kib(32), kib(64), kib(128), kib(256), kib(512)];
        let mut last = 0.0;
        for &b in &sizes {
            let t = one_way(pcs_trendnet(), mib(2), TcpParams::with_bufs(b));
            let mbps = throughput_mbps(mib(2), t);
            assert!(
                mbps + 1.0 >= last,
                "throughput dropped at buf {b}: {mbps} < {last}"
            );
            last = mbps;
        }
    }

    #[test]
    fn sockbuf_clamped_by_kernel_ceiling() {
        let mut eng = Fabric::engine(hwmodel::ClusterSpec {
            kernel: hwmodel::presets::linux_2_4(),
            ..pcs_ga620()
        });
        let conn = open(&mut eng.world, TcpParams::with_bufs(mib(8)));
        let tcp = tcp_mut(&mut eng.world, conn);
        assert_eq!(tcp.window, kib(128)); // 2.4 default rmem_max
    }

    #[test]
    fn bidirectional_pingpong_roundtrip() {
        let mut eng = Fabric::engine(pcs_ga620());
        let conn = open(&mut eng.world, TcpParams::with_bufs(kib(512)));
        let done = Rc::new(Cell::new(None));
        let done2 = Rc::clone(&done);
        send(
            &mut eng,
            conn,
            0,
            1000,
            Box::new(move |e| {
                // pong
                send(
                    e,
                    conn,
                    1,
                    1000,
                    Box::new(move |e| done2.set(Some(e.now()))),
                );
            }),
        );
        eng.run();
        let rtt = done.get().expect("pong missing").as_micros_f64();
        // Round trip should be roughly 2x the one-way latency.
        assert!((200.0..400.0).contains(&rtt), "rtt {rtt} us");
    }

    #[test]
    fn back_to_back_sends_are_fifo() {
        let mut eng = Fabric::engine(pcs_ga620());
        let conn = open(&mut eng.world, TcpParams::with_bufs(kib(512)));
        let order = Rc::new(std::cell::RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let order = Rc::clone(&order);
            send(
                &mut eng,
                conn,
                0,
                100_000,
                Box::new(move |_| order.borrow_mut().push(i)),
            );
        }
        eng.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn zero_byte_send_still_delivers() {
        let t = one_way(pcs_ga620(), 0, TcpParams::with_bufs(kib(512)));
        assert!(t > 0.0);
    }

    #[test]
    fn lossless_fault_plan_does_not_perturb() {
        let base = one_way(pcs_ga620(), mib(1), TcpParams::with_bufs(kib(512)));
        let mut eng = Fabric::engine(pcs_ga620());
        eng.world
            .install_faults(faultlab::FaultPlan::parse("seed=9").expect("plan"));
        let conn = open(&mut eng.world, TcpParams::with_bufs(kib(512)));
        let done = Rc::new(Cell::new(None));
        let done2 = Rc::clone(&done);
        send(
            &mut eng,
            conn,
            0,
            mib(1),
            Box::new(move |e| done2.set(Some(e.now()))),
        );
        eng.run();
        let t = done.get().expect("delivered").as_secs_f64();
        assert_eq!(t, base, "lossless plan must be byte-identical");
        assert!(!eng.world.fault_counters().expect("installed").any());
    }

    #[test]
    fn packet_loss_costs_throughput_via_retransmits() {
        let base = one_way(pcs_ga620(), mib(1), TcpParams::with_bufs(kib(512)));
        let mut eng = Fabric::engine(pcs_ga620());
        eng.world
            .install_faults(faultlab::FaultPlan::parse("seed=4,loss=0.02,rto=2ms").expect("plan"));
        let conn = open(&mut eng.world, TcpParams::with_bufs(kib(512)));
        let done = Rc::new(Cell::new(None));
        let done2 = Rc::clone(&done);
        send(
            &mut eng,
            conn,
            0,
            mib(1),
            Box::new(move |e| done2.set(Some(e.now()))),
        );
        eng.run();
        let t = done.get().expect("delivered despite loss").as_secs_f64();
        let counters = eng.world.fault_counters().expect("installed");
        assert!(counters.dropped > 0, "{counters}");
        assert!(counters.retransmits > 0, "{counters}");
        assert_eq!(counters.conn_deaths, 0, "{counters}");
        assert!(t > 1.5 * base, "loss barely hurt: {t} vs {base}");
    }

    #[test]
    fn certain_loss_kills_the_connection() {
        // loss=1 with a small retransmission budget: the transfer never
        // completes and the connection marks itself dead — the paper's
        // large-message runs that "simply die".
        let mut eng = Fabric::engine(pcs_ga620());
        eng.world.install_faults(
            faultlab::FaultPlan::parse("seed=1,loss=1.0,retrans=3,rto=1ms").expect("plan"),
        );
        let conn = open(&mut eng.world, TcpParams::with_bufs(kib(512)));
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        send(
            &mut eng,
            conn,
            0,
            100_000,
            Box::new(move |_| done2.set(true)),
        );
        eng.run();
        assert!(!done.get(), "delivery must never fire on a dead conn");
        let tcp = tcp_mut(&mut eng.world, conn);
        assert!(tcp.dead);
        let counters = eng.world.fault_counters().expect("installed");
        assert_eq!(counters.conn_deaths, 1, "{counters}");
        assert_eq!(counters.retransmits, 3, "{counters}");
    }

    #[test]
    fn degradation_window_slows_only_affected_interval() {
        // A transfer that starts inside a 4x-slowdown window takes longer
        // than the fault-free one; one far past the window does not.
        let base = one_way(pcs_ga620(), mib(1), TcpParams::with_bufs(kib(512)));
        let mut eng = Fabric::engine(pcs_ga620());
        eng.world
            .install_faults(faultlab::FaultPlan::parse("degrade=0us..1s@0.25").expect("plan"));
        let conn = open(&mut eng.world, TcpParams::with_bufs(kib(512)));
        let done = Rc::new(Cell::new(None));
        let done2 = Rc::clone(&done);
        send(
            &mut eng,
            conn,
            0,
            mib(1),
            Box::new(move |e| done2.set(Some(e.now()))),
        );
        eng.run();
        let slowed = done.get().expect("delivered").as_secs_f64();
        assert!(
            slowed > 1.5 * base,
            "window did not bite: {slowed} vs {base}"
        );
    }

    #[test]
    fn delivered_bytes_accounted() {
        let mut eng = Fabric::engine(pcs_ga620());
        let conn = open(&mut eng.world, TcpParams::with_bufs(kib(512)));
        send(&mut eng, conn, 0, 50_000, Box::new(|_| {}));
        send(&mut eng, conn, 1, 20_000, Box::new(|_| {}));
        eng.run();
        let tcp = tcp_mut(&mut eng.world, conn);
        assert_eq!(tcp.bytes_delivered, 70_000);
    }
}
