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
use simcore::{units, SimDuration, SimTime};

use crate::fabric::{
    complete_at, event_addr, flow_track, seg_len, Conn, ConnId, Continuation, Done, Fabric, Leg,
    Net, NetEvent,
};
use crate::train::{self, Flow, Hop, Run};

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
    done: Done,
}

/// Per-direction stream state.
#[derive(Default)]
struct TcpDir {
    jobs: VecDeque<TcpJob>,
    /// Index in `jobs` of the first with bytes not yet handed to the
    /// stack (`jobs.len()` when none has).
    unsent: usize,
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
/// The size-dependent costs are the resources' memoised service times;
/// a kernel copy is the host CPU's (its rate is the kernel copy rate).
/// Both hosts are built from one spec, so the receiver's copy and bus
/// crossing are priced with the sender's memos, which then see only the
/// sizes this direction sends.
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
}

/// A TCP connection between host 0 and host 1.
pub struct TcpConn {
    /// Effective window: `min(sndbuf, rcvbuf)` after clamping.
    pub window: u64,
    /// Whether acking is *smooth* for this window (see [`open`]): smooth
    /// connections recycle window space continuously (ack every other
    /// segment); rough ones batch-stall on every window fill.
    pub(crate) smooth: bool,
    /// Which NIC/wire pair this connection is routed over (channel
    /// bonding installs one connection per card).
    pub(crate) channel: usize,
    costs: SegCosts,
    dirs: [TcpDir; 2],
    /// Total bytes delivered on this connection (both directions).
    pub bytes_delivered: u64,
    /// The connection exhausted its retransmissions and gave up: no
    /// further segments are dispatched and pending completions never
    /// fire, so the engine runs dry — the simulated analogue of the
    /// paper's runs that "simply die" under load. Queried by drivers to
    /// distinguish a dead connection from a deadlocked model.
    pub(crate) dead: bool,
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
    };
    fabric.push_conn(Conn::Tcp(TcpConn {
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
    let done = eng.world.call(on_delivered);
    submit(eng, conn, from, bytes, done);
}

/// [`send`], completing with `done`.
pub(crate) fn submit(eng: &mut Net, conn: ConnId, from: usize, bytes: u64, done: Done) {
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
            done,
        });
    }
    eng.world
        .trace_instant(stages::SEND, flow_track(from), now, bytes.max(1), msg);
    pump_and_arm(eng, conn, from);
}

/// Queue `n` silent train parts of `part` bytes from endpoint `from`, all
/// that submitting them one at a time would do when the sender is
/// window-stalled (or its connection dead) and nothing traces; `false`,
/// and nothing queued, otherwise.
pub(crate) fn queue_stalled(
    fabric: &mut Fabric,
    conn: ConnId,
    from: usize,
    part: u64,
    n: u64,
) -> bool {
    let Conn::Tcp(tcp) = &fabric.conns[conn.0] else {
        return false;
    };
    if fabric.tracer.is_some() || !(tcp.dirs[from].stalled || tcp.dead) {
        return false;
    }
    for _ in 0..n {
        let msg = fabric.alloc_msg();
        tcp_mut(fabric, conn).dirs[from].jobs.push_back(TcpJob {
            remaining: part,
            delivered: 0,
            total: part,
            started: false,
            msg,
            done: Done::Silent,
        });
    }
    true
}

fn as_tcp(conn: &mut Conn) -> &mut TcpConn {
    match conn {
        Conn::Tcp(t) => t,
        #[expect(
            clippy::panic,
            reason = "ConnId was issued by this module's connect(); a mismatch is a caller bug, not a runtime condition"
        )]
        _ => panic!("connection is not TCP"),
    }
}

fn tcp_mut(fabric: &mut Fabric, conn: ConnId) -> &mut TcpConn {
    as_tcp(&mut fabric.conns[conn.0])
}

/// Pump direction `dir` from outside its delivery loop (a new message, a
/// reopened window), and queue the cursor's front if nothing holds it.
fn pump_and_arm(eng: &mut Net, conn: ConnId, dir: usize) {
    let (now, seq) = (eng.now(), eng.next_seq());
    let (sent, front) = {
        let (c, mut leg) = eng.world.leg(conn, dir);
        let sent = pump(as_tcp(c), &mut leg, dir, now, seq, false).appended;
        (sent, leg.cursor.arm())
    };
    eng.reserve(sent);
    if let Some(front) = front {
        eng.schedule_event_keyed(front.t0, front.seq0, TcpConn::event(conn, dir));
    }
}

/// A segment the pump stepped: when it entered the sender's CPU and when
/// it left each of the six stages (CPU, PCI, NIC, wire, receiver PCI,
/// receiver CPU).
#[derive(Clone, Copy)]
struct Sent {
    at: SimTime,
    t: [SimTime; 6],
    seg: u64,
}

/// What one pump did.
struct Pumped {
    /// Deliveries appended to the cursor, numbered from the `seq` given.
    appended: u64,
    /// When asked for: the last segment, if it was stepped, full-sized
    /// and not its message's first, and nothing observes single
    /// segments — the seed of a window-clocked train.
    last: Option<Sent>,
}

/// `s`'s crossing of each stage, with its service times from the cost
/// card and the resources' memos.
fn hops(costs: &SegCosts, leg: &mut Leg<'_>, channel: usize, dir: usize, s: &Sent) -> [Hop; 6] {
    let copy = leg.tx.cpu.cost(s.seg);
    let on_bus = s.seg + u64::from(TCPIP_HEADERS);
    let bus = leg.tx.pci.cost(on_bus);
    let frame = on_bus + u64::from(costs.framing);
    let t = &s.t;
    let hop = |arrival, done, dur| Hop { arrival, done, dur };
    [
        hop(s.at, t[0], costs.tx_pkt + copy),
        hop(t[0], t[1], bus),
        hop(t[1], t[2], leg.tx.nics[channel].cost(frame)),
        hop(t[2], t[3], leg.wires[channel][dir].cost(frame)),
        hop(t[3] + costs.path, t[4], bus),
        hop(t[4] + costs.coalesce, t[5], costs.rx_pkt + copy),
    ]
}

/// Advance up to `cap` more segments like `s` in closed form, the first
/// entering the sender's CPU `d_in` after it and each next `d_in` later;
/// returns how many, and the spacing of their deliveries.
fn extend(
    costs: &SegCosts,
    leg: &mut Leg<'_>,
    channel: usize,
    dir: usize,
    s: &Sent,
    d_in: SimDuration,
    cap: u64,
) -> (u64, SimDuration) {
    let hops = hops(costs, leg, channel, dir, s);
    let (n, steps) = train::extrapolate(&hops, d_in, cap);
    if n > 0 {
        let on_bus = s.seg + u64::from(TCPIP_HEADERS);
        let frame = on_bus + u64::from(costs.framing);
        let bytes = [s.seg, on_bus, frame, frame, on_bus, s.seg];
        train::fast_forward(leg.stages(channel, dir), &hops, &steps, bytes, n);
    }
    (n, steps[5])
}

/// Dispatch as many segments as the window allows, appending their
/// deliveries to the cursor under sequence numbers `seq`, `seq + 1`, …
/// With `seed`, report the last segment for a window-clocked train.
fn pump(
    tcp: &mut TcpConn,
    leg: &mut Leg<'_>,
    dir: usize,
    now: SimTime,
    mut seq: u64,
    seed: bool,
) -> Pumped {
    let mut out = Pumped {
        appended: 0,
        last: None,
    };
    if tcp.dead {
        return out;
    }
    let window = tcp.window;
    let channel = tcp.channel;
    let closed = leg.closed_form();
    let mut conn_died = false;
    let costs = &tcp.costs;
    let d = &mut tcp.dirs[dir];
    if d.stalled {
        return out;
    }
    let (mss, framing) = (u64::from(costs.mss), u64::from(costs.framing));
    let (coalesce, path) = (costs.coalesce, costs.path);
    let ft = flow_track(dir);

    'jobs: while let Some(job) = d.jobs.get_mut(d.unsent) {
        // Attribute the resource spans below to this message.
        if let Some(t) = leg.tracer {
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
            let copy = leg.tx.cpu.cost(seg);
            let mut tx = costs.tx_pkt + copy;
            let first = !job.started;
            if first {
                tx += costs.syscall;
                job.started = true;
            }
            let t1 = leg.tx.cpu.serve_for(now, tx, seg);
            let on_bus = seg + u64::from(TCPIP_HEADERS);
            let bus = leg.tx.pci.cost(on_bus);
            let t2 = leg.tx.pci.serve_for(t1, bus, on_bus);
            let frame = on_bus + framing;
            let t3 = leg.tx.nics[channel].serve(t2, frame);
            let mut t4 = leg.wires[channel][dir].serve(t3, frame);
            // --- fault injection on the wire ---
            if let Some(fl) = leg.faults.as_deref_mut() {
                let wire = &mut leg.wires[channel][dir];
                let rate = wire.rate();
                let frame_us = if rate.is_finite() && rate > 0.0 {
                    SimDuration::for_bytes(frame, rate).as_micros_f64()
                } else {
                    0.0
                };
                let rto = SimDuration::from_micros_f64(fl.plan().rto_us);
                let max_retrans = fl.plan().max_retrans;
                let mut attempt = 0u32;
                // Drive the segment through the declared RTO
                // lifecycle (spec of record: `faultlab.segment`): each
                // arm steps its matched token, so an off-table step
                // does not compile.
                let mut life = SegLifeState::initial();
                loop {
                    life = match life {
                        SegLifeState::InFlight(flight) => {
                            match fl.segment(t4.as_micros_f64(), frame_us) {
                                SegFault::Drop => {
                                    if let Some(t) = leg.tracer {
                                        t.instant(stages::FAULT_DROP, ft, t4, seg, job.msg);
                                    }
                                    flight.drop().into()
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
                                        let dup_done = wire.serve(t4, frame);
                                        leg.rx.pci.serve(dup_done + path, on_bus);
                                        if let Some(t) = leg.tracer {
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
                                        t4 = wire.serve(t4, extra_bytes);
                                    }
                                    if extra_us > 0.0 {
                                        t4 += SimDuration::from_micros_f64(extra_us);
                                    }
                                    if t4 > fault_start {
                                        if let Some(t) = leg.tracer {
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
                                    flight.deliver().into()
                                }
                            }
                        }
                        SegLifeState::RtoWait(wait) => {
                            if attempt >= max_retrans {
                                // Retransmissions exhausted: the
                                // connection gives up for good.
                                fl.counters.conn_deaths += 1;
                                if let Some(t) = leg.tracer {
                                    t.instant(stages::CONN_DEAD, ft, t4, seg, job.msg);
                                }
                                wait.exhaust().into()
                            } else {
                                // The lost copy burned its wire slot;
                                // the sender sits out the RTO, then the
                                // retransmitted copy crosses again and
                                // faces the lottery afresh.
                                attempt += 1;
                                fl.counters.retransmits += 1;
                                let resend = t4 + rto;
                                if let Some(t) = leg.tracer {
                                    t.span(SpanRec {
                                        stage: stages::RETRANSMIT,
                                        track: ft,
                                        start: t4,
                                        end: resend,
                                        bytes: seg,
                                        msg: job.msg,
                                    });
                                }
                                t4 = wire.serve(resend, frame);
                                wait.retransmit().into()
                            }
                        }
                        // Terminal (quiescent) states end the drive.
                        SegLifeState::Delivered(_) | SegLifeState::Dead(_) => break,
                    };
                }
                if matches!(life, SegLifeState::Dead(_)) {
                    conn_died = true;
                    break 'jobs;
                }
            }
            // --- receiver side ---
            let t5 = leg.rx.pci.serve_for(t4 + path, bus, on_bus);
            let rx = costs.rx_pkt + copy;
            let t6 = leg.rx.cpu.serve_for(t5 + coalesce, rx, seg);
            if let Some(t) = leg.tracer {
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
            leg.cursor.push(Run::one(t6, seq, seg_len(seg)));
            seq += 1;
            out.appended += 1;
            d.in_flight += seg;
            d.undelivered += seg;
            job.remaining -= seg;
            if closed && !first && seg == mss {
                let sent = Sent {
                    at: now,
                    t: [t1, t2, t3, t4, t5, t6],
                    seg,
                };
                // In one pump every further segment enters the CPU at
                // `now`: full ones while the message and window last.
                let fit = job.remaining.min(window - d.in_flight);
                let (n, step) = if fit >= train::MIN_TRAIN * mss {
                    extend(
                        costs,
                        leg,
                        channel,
                        dir,
                        &sent,
                        SimDuration::ZERO,
                        fit / mss,
                    )
                } else {
                    (0, SimDuration::ZERO)
                };
                if n == 0 {
                    // A window-clocked train needs a message that outlasts
                    // it: each reply leaves a full segment unsent.
                    if seed && job.remaining >= (train::MIN_TRAIN + 1) * mss {
                        out.last = Some(sent);
                    }
                    continue;
                }
                leg.cursor.push(Run {
                    t0: t6 + step,
                    step,
                    seq0: seq,
                    count: n,
                    seg: seg_len(seg),
                });
                seq += n;
                out.appended += n;
                d.in_flight += n * seg;
                d.undelivered += n * seg;
                job.remaining -= n * seg;
            }
        }
        d.unsent += 1;
    }
    if conn_died {
        tcp.dead = true;
    }
    out
}

/// The front of direction `dir`'s delivery cursor reached the receiver's
/// socket buffer — and so, in place, may the deliveries after it (see
/// [`crate::train`]).
pub(crate) fn on_deliver(eng: &mut Net, conn: ConnId, dir: usize) {
    loop {
        match deliver(eng, conn, dir) {
            Delivered::Drained => return,
            Delivered::More(None) => {}
            Delivered::More(Some(sent)) => clock(eng, conn, dir, &sent),
        }
        if !train::advance::<TcpConn>(eng, conn, dir) {
            return;
        }
    }
}

/// What is left after one delivery.
enum Delivered {
    /// Nothing: the cursor is empty and no longer armed.
    Drained,
    /// More deliveries, and — when the woken sender refilled the window
    /// with one segment like the delivered one — that segment, the seed
    /// of a window-clocked train.
    More(Option<Sent>),
}

impl Delivered {
    #[inline]
    fn unless_drained(self, more: bool) -> Delivered {
        if more {
            self
        } else {
            Delivered::Drained
        }
    }
}

/// Deliver the cursor's front segment, due now.
fn deliver(eng: &mut Net, conn: ConnId, dir: usize) -> Delivered {
    let now = eng.now();
    /// What a delivery does to a stalled sender.
    enum Wake {
        Pump,
        Reopen(SimDuration),
    }
    let mut wake = None;
    // (completion, wakeup cost, message bytes) of a completed message.
    let mut complete = None;
    let front_msg;
    let seg;
    let seq;
    let mut more;
    {
        let (c, cursor) = eng.world.conn_and_cursor(conn, dir);
        let tcp = as_tcp(c);
        #[expect(
            clippy::expect_used,
            reason = "a delivery event is only queued for a non-empty cursor"
        )]
        let front = cursor.pop().expect("delivery from an empty cursor");
        (seg, seq) = (u64::from(front.0), front.1);
        cursor.own += 1;
        more = !cursor.is_empty();
        // The loop holds the cursor armed while it runs; drained, it is
        // idle again (a sender woken below may refill it).
        cursor.armed = more;
        if tcp.dead {
            // Segments already in flight when the connection died still
            // land, but drive no further progress.
            return Delivered::More(None).unless_drained(more);
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
        #[expect(
            clippy::expect_used,
            reason = "a delivery is only in the cursor while its job is queued; an empty queue is an engine bug"
        )]
        let job = d
            .jobs
            .front_mut()
            .expect("delivery with no in-progress job");
        job.delivered += seg;
        front_msg = job.msg;
        debug_assert!(job.delivered <= job.total);
        if job.delivered == job.total {
            #[expect(
                clippy::expect_used,
                reason = "front_mut() above proved the queue is non-empty under the same borrow"
            )]
            let job = d.jobs.pop_front().expect("front job vanished");
            d.unsent -= 1;
            complete = Some((job.done, tcp.costs.wakeup, job.total));
        }
    }
    let mut clocked = None;
    match wake {
        Some(Wake::Pump) => {
            let next = eng.next_seq();
            let sent = {
                let (c, mut leg) = eng.world.leg(conn, dir);
                let tcp = as_tcp(c);
                let pumped = pump(tcp, &mut leg, dir, now, next, true);
                let refilled = pumped.appended == 1 && tcp.dirs[dir].stalled;
                clocked = pumped.last.filter(|s| refilled && s.seg == seg);
                more = !leg.cursor.is_empty();
                leg.cursor.armed = more;
                pumped.appended
            };
            eng.reserve(sent);
        }
        Some(Wake::Reopen(stall)) => {
            eng.world.trace_span(
                stages::WINDOW_STALL,
                flow_track(dir),
                now,
                now + stall,
                0,
                front_msg,
            );
            let key = (now + stall, eng.next_seq());
            let reopen = &mut eng.world.cursor(conn, dir).reopen;
            debug_assert!(reopen.is_none(), "a second reopen while one is queued");
            *reopen = Some(key);
            let (conn, dir) = event_addr(conn, dir);
            eng.schedule_event_at(key.0, NetEvent::TcpReopen { conn, dir });
        }
        None => {}
    }
    if let Some((done, wakeup, done_total)) = complete {
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
        let silent = done.is_silent();
        complete_at(eng, conn, dir, now + wakeup, done);
        // A window-clocked train's seed holds absolute instants: no period
        // is taken from under it.
        if silent && clocked.is_none() {
            train::period(eng, conn, dir, seq);
        }
    }
    Delivered::More(clocked).unless_drained(more)
}

/// A window-clocked train. The sender refilled a full window with `sent`
/// as the delivery just made drained one segment; while the cursor's next
/// deliveries are segments of the same size arriving a fixed interval
/// apart, none completes a message, each would wake the sender to send one
/// more full segment of a long message, and the engine proves each is the
/// next event, deliver them — and send their replies — in closed form.
fn clock(eng: &mut Net, conn: ConnId, dir: usize, sent: &Sent) {
    let now = eng.now();
    let (front, d_in, cap) = {
        let (c, cursor) = eng.world.conn_and_cursor(conn, dir);
        let tcp = as_tcp(c);
        let Some(&front) = cursor.front() else {
            return;
        };
        if u64::from(front.seg) != sent.seg {
            return;
        }
        let d_in = front.t0 - now;
        let spaced = if front.count > 1 && front.step != d_in {
            1
        } else {
            front.count
        };
        let d = &tcp.dirs[dir];
        let unfinished = d
            .jobs
            .front()
            .map_or(0, |j| (j.total - j.delivered - 1) / sent.seg);
        // Each reply must leave a full segment unsent, so the sender
        // stalls again exactly as it just did.
        let replies = d
            .jobs
            .get(d.unsent)
            .map_or(0, |j| (j.remaining / sent.seg).saturating_sub(1));
        (front, d_in, spaced.min(unfinished).min(replies))
    };
    if cap < train::MIN_TRAIN {
        return;
    }
    let cap = eng.in_place_budget(front.t0, d_in, front.seq0, cap);
    if cap < train::MIN_TRAIN {
        return;
    }
    let seq = eng.next_seq();
    let n = {
        let (c, mut leg) = eng.world.leg(conn, dir);
        let tcp = as_tcp(c);
        let (n, step) = extend(&tcp.costs, &mut leg, tcp.channel, dir, sent, d_in, cap);
        if n == 0 {
            return;
        }
        let bytes = n * sent.seg;
        leg.cursor.skip(n);
        leg.cursor.push(Run {
            t0: sent.t[5] + step,
            step,
            seq0: seq,
            count: n,
            seg: front.seg,
        });
        leg.cursor.own += n;
        tcp.bytes_delivered += bytes;
        let d = &mut tcp.dirs[dir];
        if let Some(job) = d.jobs.front_mut() {
            job.delivered += bytes;
        }
        if let Some(job) = d.jobs.get_mut(d.unsent) {
            // Each reply left a full segment of it unsent.
            debug_assert!(job.remaining > bytes);
            job.remaining -= bytes;
        }
        n
    };
    eng.dispatch_in_place(front.t0, d_in, n);
    eng.reserve(n);
}

impl Flow for TcpConn {
    fn event(conn: ConnId, dir: usize) -> NetEvent {
        let (conn, dir) = event_addr(conn, dir);
        NetEvent::TcpDeliver { conn, dir }
    }

    fn of(conn: &mut Conn) -> &mut TcpConn {
        as_tcp(conn)
    }

    fn silent(&self, dir: usize, run: &Run) -> u64 {
        if self.dead {
            return run.count;
        }
        let d = &self.dirs[dir];
        let seg = u64::from(run.seg);
        let unfinished = d
            .jobs
            .front()
            .map_or(0, |j| (j.total - j.delivered - 1) / seg);
        let quiet = match (d.stalled, self.smooth) {
            (false, _) => unfinished,
            // Every delivery wakes a smooth sender.
            (true, true) => 0,
            // A rough one wakes on the one that drains the window.
            (true, false) => unfinished.min((d.undelivered - 1) / seg),
        };
        quiet.min(run.count)
    }

    fn settle(&mut self, dir: usize, n: u64, seg: u64) {
        if self.dead {
            return;
        }
        let bytes = n * seg;
        self.bytes_delivered += bytes;
        let d = &mut self.dirs[dir];
        d.undelivered -= bytes;
        if !d.stalled {
            d.in_flight = d.in_flight.saturating_sub(bytes);
        }
        if let Some(job) = d.jobs.front_mut() {
            job.delivered += bytes;
        }
    }
}

/// What [`train::period`] needs of a direction holding a train of
/// identical silent parts.
impl TcpConn {
    /// Append direction `dir`'s window and job state words for a
    /// fingerprint; `false` when it does not hold a long enough train of
    /// identical silent parts.
    pub(crate) fn period_words(&self, dir: usize, words: &mut Vec<u64>) -> bool {
        let d = &self.dirs[dir];
        if self.dead || d.jobs.len() < train::MIN_PARTS {
            return false;
        }
        let (Some(front), Some(unsent)) = (d.jobs.front(), d.jobs.get(d.unsent)) else {
            return false;
        };
        if !front.done.is_silent() || !unsent.done.is_silent() || unsent.total != front.total {
            return false;
        }
        words.extend([
            front.total,
            d.in_flight,
            d.undelivered,
            d.stalled.into(),
            front.delivered,
            front.remaining,
            front.started.into(),
            d.unsent as u64,
            unsent.remaining,
            unsent.started.into(),
        ]);
        true
    }

    /// How many parts `dir` may complete in skipped periods: the
    /// identical ones queued beyond its first part with bytes unsent,
    /// provided every part up to that one is identical too.
    pub(crate) fn parts_left(&self, dir: usize) -> u64 {
        let d = &self.dirs[dir];
        let Some(part) = d.jobs.front().map(|j| j.total) else {
            return 0;
        };
        let same = |j: &TcpJob| j.done.is_silent() && j.total == part;
        if !d.jobs.range(..=d.unsent).all(same) {
            return 0;
        }
        d.jobs.range(d.unsent + 1..).take_while(|j| same(j)).count() as u64
    }

    /// Account `parts` parts completed and `bytes` delivered by skipped
    /// periods.
    pub(crate) fn skip_parts(&mut self, dir: usize, parts: usize, bytes: u64) {
        self.bytes_delivered += bytes;
        let d = &mut self.dirs[dir];
        // The parts up to the first unsent one hand their progress to the
        // parts as far behind them as were completed.
        for i in (0..=d.unsent).rev() {
            let (delivered, remaining, started) = {
                let j = &d.jobs[i];
                (j.delivered, j.remaining, j.started)
            };
            let j = &mut d.jobs[i + parts];
            (j.delivered, j.remaining, j.started) = (delivered, remaining, started);
        }
        d.jobs.drain(..parts);
    }
}

/// The window update reached a sender that had filled its window.
pub(crate) fn on_reopen(eng: &mut Net, conn: ConnId, dir: usize) {
    let cursor = eng.world.cursor(conn, dir);
    cursor.reopen = None;
    cursor.own += 1;
    let d = &mut tcp_mut(&mut eng.world, conn).dirs[dir];
    d.in_flight = 0;
    d.stalled = false;
    pump_and_arm(eng, conn, dir);
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
    fn skipped_parts_never_reach_the_trains_last_part() {
        let mut eng = Fabric::engine(pcs_ga620());
        let conn = open(&mut eng.world, TcpParams::with_bufs(kib(16)));
        for _ in 0..9 {
            submit(&mut eng, conn, 0, 4080, Done::Silent);
        }
        let done = eng.world.call(Box::new(|_| {}));
        submit(&mut eng, conn, 0, 4079, done);
        let tcp = tcp_mut(&mut eng.world, conn);
        // The window took four parts; the fifth is untouched.
        let progress = |tcp: &TcpConn| -> Vec<(u64, u64, bool)> {
            let jobs = &tcp.dirs[0].jobs;
            jobs.iter()
                .map(|j| (j.delivered, j.remaining, j.started))
                .collect()
        };
        let before = progress(tcp);
        assert_eq!(tcp.dirs[0].unsent, 4);
        assert_eq!(before[4], (0, 4080, false));
        // Only the four identical parts behind it may be skipped past.
        let left = tcp.parts_left(0);
        assert_eq!(left, 4);
        tcp.skip_parts(0, left as usize, 1234);
        let after = progress(tcp);
        assert_eq!(after.len(), 6);
        assert_eq!(after[..5], before[..5], "the progress moved with the parts");
        assert_eq!(after[5], (0, 4079, false), "the last part is untouched");
        assert!(!tcp.dirs[0].jobs[5].done.is_silent());
        assert_eq!(tcp.bytes_delivered, 1234);
        // Now nothing lies between the first unsent part and the last.
        assert_eq!(tcp.parts_left(0), 0);
        // Nor may a skip start from a message that is not a train part.
        let mut eng = Fabric::engine(pcs_ga620());
        let conn = open(&mut eng.world, TcpParams::with_bufs(kib(16)));
        send(&mut eng, conn, 0, 4080, Box::new(|_| {}));
        for _ in 0..9 {
            submit(&mut eng, conn, 0, 4080, Done::Silent);
        }
        assert_eq!(tcp_mut(&mut eng.world, conn).parts_left(0), 0);
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
