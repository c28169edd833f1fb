//! The library-model executor: turns a [`LibProfile`] + transport binding
//! into simulated message transfers on a [`protosim::Fabric`].
//!
//! The executor implements, in order, the mechanisms §3/§7 of the paper
//! attribute performance differences to:
//!
//! 1. per-message library overhead (sender side),
//! 2. serial pre-send copies (PVM packing),
//! 3. the eager→rendezvous handshake above the threshold,
//! 4. the data movement itself — direct, fragmented, or relayed through
//!    per-host daemons (with the pvmd stop-and-wait protocol),
//! 5. serial post-receive copies (p4 buffer drain, PVM unpacking) and
//!    per-byte checks (LAM without `-O`),
//! 6. per-message receive overhead.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use protosim::fabric::{Continuation, Net};
use protosim::{local, raw, tcp, ConnId, Fabric};
use simcore::SimDuration;

use crate::profile::{FragmentCfg, LibProfile, MpLib, Routing, Transport};
use crate::rendezvous;

/// The daemon relay path: one local pipe per host plus the inter-daemon
/// connection (which reuses the session's transport connection).
#[derive(Debug, Clone, Copy)]
struct DaemonPath {
    local: [ConnId; 2],
}

/// An established communication session between the two ranks.
#[derive(Clone)]
pub struct Session {
    /// The library's behaviour profile.
    pub profile: Rc<LibProfile>,
    data: ConnId,
    /// Additional connections for channel bonding (channels 1..n).
    extra: Rc<Vec<ConnId>>,
    daemon: Option<DaemonPath>,
}

impl Session {
    /// Open the connections a library needs on `fabric`. A bonded profile
    /// opens one connection per NIC channel.
    pub fn establish(fabric: &mut Fabric, lib: &MpLib) -> Session {
        let channels = lib.profile.bonded_channels.max(1) as usize;
        assert!(
            channels <= fabric.wires.len(),
            "{}: wants {channels} channels, cluster has {} NICs",
            lib.name(),
            fabric.wires.len()
        );
        let open_one = |fabric: &mut Fabric, ch: usize| match &lib.transport {
            Transport::Tcp(p) => tcp::open_on_channel(fabric, p.clone(), ch),
            Transport::Raw(p) => raw::open_on_channel(fabric, p.clone(), ch),
        };
        let data = open_one(fabric, 0);
        let extra: Vec<_> = (1..channels).map(|ch| open_one(fabric, ch)).collect();
        let daemon = match lib.profile.routing {
            Routing::Direct => None,
            Routing::Daemon => Some(DaemonPath {
                local: [local::open(fabric, 0), local::open(fabric, 1)],
            }),
        };
        Session {
            profile: Rc::new(lib.profile.clone()),
            data,
            extra: Rc::new(extra),
            daemon,
        }
    }

    /// Send `bytes` from rank `from`; `k` runs when the receiving rank's
    /// matching receive completes (library processing included).
    // analyze: hot
    pub fn send(&self, eng: &mut Net, from: usize, bytes: u64, k: Continuation) {
        assert!(from < 2);
        let bytes = bytes.max(1);
        let now = eng.now();
        // Phase 1: sender-side overhead + packing copies.
        let p = &self.profile;
        let memcpy = eng.world.spec.host.cpu.memcpy_bps;
        let dur = SimDuration::from_micros_f64(p.send_overhead_us)
            + SimDuration::for_bytes(bytes * u64::from(p.send_copies), memcpy);
        let t0 = eng.world.hosts[from].cpu.serve_for(now, dur, 0);
        let this = self.clone();
        eng.schedule_at(t0, move |e| this.handshake_phase(e, from, bytes, k));
    }

    /// Phase 2: the rendezvous handshake, when the library uses one and
    /// the message is above the threshold.
    fn handshake_phase(&self, eng: &mut Net, from: usize, bytes: u64, k: Continuation) {
        let needs_handshake = matches!(self.profile.rendezvous_bytes, Some(t) if bytes > t)
            && self.profile.routing == Routing::Direct;
        if needs_handshake {
            let ctrl = self.profile.ctrl_bytes;
            let this = self.clone();
            let data = self.data;
            // The sender-role typestate (spec of record:
            // rendezvous.sender) pins the RTS→CTS→data order at compile
            // time; a reordered continuation chain would not build.
            // Request-to-send travels to the receiver...
            let hs = rendezvous::sender::Idle.rts();
            protosim::send(
                eng,
                data,
                from,
                ctrl,
                Box::new(move |e| {
                    // ...clear-to-send comes back...
                    let hs = hs.cts();
                    let this2 = this.clone();
                    protosim::send(
                        e,
                        data,
                        1 - from,
                        ctrl,
                        Box::new(move |e| {
                            // ...then the data moves.
                            let _idle: rendezvous::sender::Idle = hs.data();
                            this2.data_phase(e, from, bytes, k);
                        }),
                    );
                }),
            );
        } else {
            self.data_phase(eng, from, bytes, k);
        }
    }

    /// Phase 3: move the payload.
    fn data_phase(&self, eng: &mut Net, from: usize, bytes: u64, k: Continuation) {
        // `establish` opens the daemon pipes exactly when the profile
        // routes via daemons, so the path's presence *is* the routing
        // decision — no unrepresentable (Daemon, None) arm to bail on.
        if let Some(path) = self.daemon {
            return self.send_via_daemons(eng, from, bytes, path, k);
        }
        match self.profile.fragment {
            None if !self.extra.is_empty() && bytes >= 4096 => {
                self.send_striped(eng, from, bytes, k);
            }
            None => {
                let this = self.clone();
                protosim::send(
                    eng,
                    self.data,
                    from,
                    bytes,
                    Box::new(move |e| this.receive_phase(e, from, bytes, k)),
                );
            }
            Some(frag) => self.send_fragmented(eng, from, bytes, frag, k),
        }
    }

    /// Channel bonding: stripe the payload across all bonded connections
    /// in near-equal chunks; the receive completes when every stripe has
    /// landed (MP_Lite reassembles by offset, so ordering across channels
    /// does not matter). Small messages stay on channel 0 — striping them
    /// would only add per-channel latency.
    fn send_striped(&self, eng: &mut Net, from: usize, bytes: u64, k: Continuation) {
        let nchan = 1 + self.extra.len();
        // Round-robin in 32 kB blocks so the channels' pipelines interleave
        // from the first block (one giant stripe per channel would reserve
        // the shared CPU/PCI stages a whole channel at a time and
        // serialize the supposedly parallel wires).
        let block = 32 * 1024u64;
        let pending = Rc::new(RefCell::new(0u64));
        let done_k = Rc::new(RefCell::new(Some(k)));
        let mut off = 0;
        let mut ch = 0usize;
        while off < bytes {
            let sz = block.min(bytes - off);
            off += sz;
            *pending.borrow_mut() += 1;
            let conn = if ch == 0 {
                self.data
            } else {
                self.extra[ch - 1]
            };
            ch = (ch + 1) % nchan;
            let this = self.clone();
            let pending = Rc::clone(&pending);
            let done_k = Rc::clone(&done_k);
            protosim::send(
                eng,
                conn,
                from,
                sz,
                Box::new(move |e| {
                    *pending.borrow_mut() -= 1;
                    if *pending.borrow() == 0 {
                        let k = done_k
                            .borrow_mut()
                            .take()
                            .expect("stripe completion fired twice");
                        this.receive_phase(e, from, bytes, k);
                    }
                }),
            );
        }
    }

    /// Direct transfer fragmented at the library's fragment size (PVM's
    /// 4080-byte fragments in `PvmRouteDirect` mode). Fragments pipeline
    /// through the transport; the per-fragment overhead is charged on the
    /// sender's CPU.
    fn send_fragmented(
        &self,
        eng: &mut Net,
        from: usize,
        bytes: u64,
        frag: FragmentCfg,
        k: Continuation,
    ) {
        let nfrags = bytes.div_ceil(frag.bytes);
        let remaining = Rc::new(RefCell::new(nfrags));
        let pending_k = Rc::new(RefCell::new(Some(k)));
        let mut left = bytes;
        while left > 0 {
            let sz = left.min(frag.bytes);
            left -= sz;
            let now = eng.now();
            let t = eng.world.hosts[from].cpu.serve_for(
                now,
                SimDuration::from_micros_f64(frag.per_frag_us),
                0,
            );
            let this = self.clone();
            let remaining = Rc::clone(&remaining);
            let pending_k = Rc::clone(&pending_k);
            let data = self.data;
            eng.schedule_at(t, move |e| {
                protosim::send(
                    e,
                    data,
                    from,
                    sz,
                    Box::new(move |e| {
                        *remaining.borrow_mut() -= 1;
                        if *remaining.borrow() == 0 {
                            let k = pending_k
                                .borrow_mut()
                                .take()
                                .expect("completion fired twice");
                            this.receive_phase(e, from, bytes, k);
                        }
                    }),
                );
            });
        }
    }

    /// Daemon-relayed transfer: app → local daemon → remote daemon → app.
    ///
    /// With `stop_and_wait` (pvmd), each fragment's inter-daemon hop is
    /// acknowledged before the next fragment leaves — one fragment in
    /// flight at a time, paying a full round trip per 4080 bytes. Without
    /// it (lamd), fragments pipeline through the three hops.
    fn send_via_daemons(
        &self,
        eng: &mut Net,
        from: usize,
        bytes: u64,
        path: DaemonPath,
        k: Continuation,
    ) {
        let frag = self.profile.fragment.unwrap_or(FragmentCfg {
            bytes: u64::MAX,
            per_frag_us: 0.0,
            stop_and_wait: false,
        });
        let mut frags = VecDeque::new();
        let mut left = bytes;
        while left > 0 {
            let sz = left.min(frag.bytes);
            frags.push_back(sz);
            left -= sz;
        }
        let total_frags = frags.len() as u64;
        let xfer = Rc::new(RefCell::new(DaemonXfer {
            frags,
            delivered: 0,
            total_frags,
            k: Some(k),
        }));
        let cost = DaemonCost::new(frag, eng.world.spec.host.cpu.memcpy_bps);
        if frag.stop_and_wait {
            self.daemon_next_stop_and_wait(eng, from, bytes, path, cost, xfer);
        } else {
            // Pipelined: a fragment's first hop begins once the previous
            // fragment cleared that hop, so the three hops overlap across
            // fragments without head-of-line blocking the sender's CPU.
            self.daemon_forward_next(eng, from, bytes, path, cost, xfer);
        }
    }

    /// Launch the next fragment's journey (pipelined mode): hop 1 now;
    /// when it completes, the next fragment starts hop 1 while this one
    /// continues through the daemons.
    fn daemon_forward_next(
        &self,
        eng: &mut Net,
        from: usize,
        bytes: u64,
        path: DaemonPath,
        cost: DaemonCost,
        xfer: Rc<RefCell<DaemonXfer>>,
    ) {
        let Some(sz) = xfer.borrow_mut().frags.pop_front() else {
            return;
        };
        let this = self.clone();
        let data = self.data;
        local::send(
            eng,
            path.local[from],
            sz,
            Box::new(move |e| {
                // Pipeline: free the first hop for the next fragment.
                this.daemon_forward_next(e, from, bytes, path, cost, Rc::clone(&xfer));
                // Sending daemon processes the fragment.
                let t = daemon_work(e, from, cost, sz);
                let this2 = this.clone();
                e.schedule_at(t, move |e| {
                    protosim::send(
                        e,
                        data,
                        from,
                        sz,
                        Box::new(move |e| {
                            // Receiving daemon processes, then hands to the app.
                            let t = daemon_work(e, 1 - from, cost, sz);
                            let this3 = this2.clone();
                            e.schedule_at(t, move |e| {
                                local::send(
                                    e,
                                    path.local[1 - from],
                                    sz,
                                    Box::new(move |e| {
                                        let done = {
                                            let mut x = xfer.borrow_mut();
                                            x.delivered += 1;
                                            x.delivered == x.total_frags
                                        };
                                        if done {
                                            let k =
                                                xfer.borrow_mut().k.take().expect("double fire");
                                            this3.receive_phase(e, from, bytes, k);
                                        }
                                    }),
                                );
                            });
                        }),
                    );
                });
            }),
        );
    }

    /// One fragment at a time with an acknowledgement round trip — the
    /// pvmd↔pvmd reliability protocol.
    fn daemon_next_stop_and_wait(
        &self,
        eng: &mut Net,
        from: usize,
        bytes: u64,
        path: DaemonPath,
        cost: DaemonCost,
        xfer: Rc<RefCell<DaemonXfer>>,
    ) {
        let Some(sz) = xfer.borrow_mut().frags.pop_front() else {
            let k = xfer.borrow_mut().k.take().expect("double fire");
            self.receive_phase(eng, from, bytes, k);
            return;
        };
        let this = self.clone();
        let data = self.data;
        local::send(
            eng,
            path.local[from],
            sz,
            Box::new(move |e| {
                let t = daemon_work(e, from, cost, sz);
                let this2 = this.clone();
                e.schedule_at(t, move |e| {
                    protosim::send(
                        e,
                        data,
                        from,
                        sz,
                        Box::new(move |e| {
                            let t = daemon_work(e, 1 - from, cost, sz);
                            let this3 = this2.clone();
                            e.schedule_at(t, move |e| {
                                // The ack returns while the fragment is handed up.
                                let this4 = this3.clone();
                                let xf2 = Rc::clone(&xfer);
                                protosim::send(
                                    e,
                                    data,
                                    1 - from,
                                    32,
                                    Box::new(move |e| {
                                        this4.daemon_next_stop_and_wait(
                                            e, from, bytes, path, cost, xf2,
                                        );
                                    }),
                                );
                                local::send(e, path.local[1 - from], sz, Box::new(move |_| {}));
                            });
                        }),
                    );
                });
            }),
        );
    }

    /// Phase 5–6: receiver-side serial work, then the user continuation.
    fn receive_phase(&self, eng: &mut Net, from: usize, bytes: u64, k: Continuation) {
        let to = 1 - from;
        let p = &self.profile;
        let now = eng.now();
        let memcpy = eng.world.spec.host.cpu.memcpy_bps;
        let dur = SimDuration::from_micros_f64(p.recv_overhead_us)
            + SimDuration::for_bytes(bytes * u64::from(p.recv_copies), memcpy)
            + SimDuration::for_bytes(bytes, p.byte_check_bps);
        let t = eng.world.hosts[to].cpu.serve_for(now, dur, 0);
        eng.schedule_at(t, k);
    }
}

impl Session {
    /// Send `bytes` from rank `from` while the *receiver* computes for
    /// `busy` before entering its receive call — the paper's §7
    /// discussion, made measurable.
    ///
    /// What can proceed during the computation depends on the library's
    /// [`Progress`](crate::Progress) model:
    ///
    /// * `Kernel`/`Thread`/`Sigio` — the transfer proceeds in full; only
    ///   the final hand-off waits for the application (full overlap).
    /// * `InCall` — the rendezvous reply (if any) waits until the
    ///   receiver re-enters the library, and on TCP only about a window's
    ///   worth of data can land in the socket buffer before the sender
    ///   blocks: the rest of the transfer serializes after the
    ///   computation (little to no overlap for large messages).
    ///
    /// `k` runs when the receive completes, i.e. at
    /// `max(compute, communication-as-overlappable) + residual work`.
    pub fn send_while_receiver_busy(
        &self,
        eng: &mut Net,
        from: usize,
        bytes: u64,
        busy: SimDuration,
        k: Continuation,
    ) {
        use crate::profile::Progress;
        let bytes = bytes.max(1);
        let busy_end = eng.now() + busy;
        let overlappable = matches!(
            self.profile.progress,
            Progress::Kernel | Progress::Thread | Progress::Sigio
        );
        if overlappable {
            // Everything proceeds; completion cannot precede the end of
            // the computation.
            let this = self.clone();
            self.send(
                eng,
                from,
                bytes,
                Box::new(move |e| {
                    let _ = &this;
                    if e.now() >= busy_end {
                        k(e);
                    } else {
                        e.schedule_at(busy_end, k);
                    }
                }),
            );
            return;
        }
        // InCall progress. Two serializers:
        // 1. a rendezvous handshake cannot be answered until busy_end;
        // 2. on TCP, at most ~the flow-control window lands before the
        //    sender blocks on the unread socket buffer.
        let needs_handshake = matches!(self.profile.rendezvous_bytes, Some(t) if bytes > t);
        if needs_handshake {
            // RTS is sent now but the CTS only comes back after busy_end;
            // the entire payload then moves post-computation. This is
            // the receiver role of the rendezvous pair: the RTS lands
            // (`rts?`), the CTS leaves only once the library is entered
            // (`cts!`), then the payload drains (`data?`).
            let this = self.clone();
            let ctrl = self.profile.ctrl_bytes;
            let rv = rendezvous::receiver::Idle;
            protosim::send(
                eng,
                self.data,
                from,
                ctrl,
                Box::new(move |e| {
                    let rv = rv.rts();
                    let at = e.now().max(busy_end);
                    let this2 = this.clone();
                    e.schedule_at(at, move |e| {
                        let rv = rv.cts();
                        let this3 = this2.clone();
                        protosim::send(
                            e,
                            this2.data,
                            1 - from,
                            this2.profile.ctrl_bytes,
                            Box::new(move |e| {
                                let _idle: rendezvous::receiver::Idle = rv.data();
                                this3.data_phase(e, from, bytes, k)
                            }),
                        );
                    });
                }),
            );
            return;
        }
        // Eager path: the first window's worth flows into the receiver's
        // socket buffer now; the remainder is pumped once the receiver
        // enters the library.
        let window = match &eng.world.conns[self.data.0] {
            protosim::Conn::Tcp(t) => t.window,
            _ => u64::MAX, // OS-bypass fabrics deposit into user memory
        };
        if bytes <= window {
            let this = self.clone();
            self.send(
                eng,
                from,
                bytes,
                Box::new(move |e| {
                    let _ = &this;
                    if e.now() >= busy_end {
                        k(e);
                    } else {
                        e.schedule_at(busy_end, k);
                    }
                }),
            );
        } else {
            let head = window;
            let tail = bytes - window;
            let this = self.clone();
            // The head fills the socket buffer during the computation...
            self.data_phase_plain(eng, from, head, Box::new(|_| {}));
            // ...the tail only moves after the receiver drains it.
            eng.schedule_at(busy_end, move |e| {
                this.send(e, from, tail, k);
            });
        }
    }

    /// Data movement without handshakes or receiver-side processing
    /// (helper for the overlap model's head transfer).
    fn data_phase_plain(&self, eng: &mut Net, from: usize, bytes: u64, k: Continuation) {
        protosim::send(eng, self.data, from, bytes, k);
    }
}

struct DaemonXfer {
    frags: VecDeque<u64>,
    delivered: u64,
    total_frags: u64,
    k: Option<Continuation>,
}

/// What a daemon charges to touch a fragment: per-fragment bookkeeping
/// plus one serial buffer copy at the host's cold-memcpy rate, worked out
/// once per transfer for the fragment size all but the last one share.
/// No bigger than the [`FragmentCfg`] it replaces in the relay closures.
#[derive(Debug, Clone, Copy)]
struct DaemonCost {
    per_frag: SimDuration,
    /// `(fragment size, cost)`.
    full: (u64, SimDuration),
}

impl DaemonCost {
    fn new(frag: FragmentCfg, memcpy_bps: f64) -> DaemonCost {
        let per_frag = SimDuration::from_micros_f64(frag.per_frag_us);
        let full = per_frag + SimDuration::for_bytes(frag.bytes, memcpy_bps);
        DaemonCost {
            per_frag,
            full: (frag.bytes, full),
        }
    }
}

/// A daemon on `host` touches a fragment of `sz` bytes.
fn daemon_work(eng: &mut Net, host: usize, cost: DaemonCost, sz: u64) -> simcore::SimTime {
    let now = eng.now();
    let dur = if sz == cost.full.0 {
        cost.full.1
    } else {
        cost.per_frag + SimDuration::for_bytes(sz, eng.world.spec.host.cpu.memcpy_bps)
    };
    eng.world.hosts[host].cpu.serve_for(now, dur, sz)
}

/// Completion callback for [`pingpong`]: receives the engine and the
/// total elapsed simulated seconds.
pub type PingpongDone = Box<dyn FnOnce(&mut Net, f64)>;

/// Run `reps` ping-pong round trips of `bytes` and pass the total elapsed
/// simulated seconds to `done`.
pub fn pingpong(session: &Session, eng: &mut Net, bytes: u64, reps: u32, done: PingpongDone) {
    assert!(reps > 0, "at least one repetition");
    let start = eng.now();
    bounce(session.clone(), eng, bytes, 2 * reps, start, done);
}

fn bounce(
    session: Session,
    eng: &mut Net,
    bytes: u64,
    legs_left: u32,
    start: simcore::SimTime,
    done: PingpongDone,
) {
    if legs_left == 0 {
        let elapsed = (eng.now() - start).as_secs_f64();
        done(eng, elapsed);
        return;
    }
    // Even legs go 0→1, odd legs come back.
    let from = (legs_left % 2) as usize;
    let s2 = session.clone();
    session.send(
        eng,
        1 - from,
        bytes,
        Box::new(move |e| bounce(s2, e, bytes, legs_left - 1, start, done)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::LibProfile;
    use hwmodel::presets::pcs_ga620;
    use protosim::TcpParams;
    use simcore::units::{kib, mib, throughput_mbps};
    use std::cell::Cell;

    fn raw_tcp_lib() -> MpLib {
        MpLib {
            profile: LibProfile::raw("raw TCP"),
            transport: Transport::Tcp(TcpParams::with_bufs(kib(512))),
        }
    }

    fn run_pingpong(lib: &MpLib, bytes: u64, reps: u32) -> f64 {
        let mut eng = Fabric::engine(pcs_ga620());
        let session = Session::establish(&mut eng.world, lib);
        let out = Rc::new(Cell::new(None));
        let out2 = Rc::clone(&out);
        pingpong(
            &session,
            &mut eng,
            bytes,
            reps,
            Box::new(move |_, t| out2.set(Some(t))),
        );
        eng.run();
        out.get().expect("pingpong never completed")
    }

    #[test]
    fn raw_session_matches_transport_throughput() {
        let t = run_pingpong(&raw_tcp_lib(), mib(4), 1);
        let one_way = t / 2.0;
        let mbps = throughput_mbps(mib(4), one_way);
        assert!((480.0..640.0).contains(&mbps), "raw tcp via session {mbps}");
    }

    #[test]
    fn reps_scale_linearly() {
        let t1 = run_pingpong(&raw_tcp_lib(), kib(64), 1);
        let t3 = run_pingpong(&raw_tcp_lib(), kib(64), 3);
        assert!((t3 / t1 - 3.0).abs() < 0.1, "t1={t1} t3={t3}");
    }

    #[test]
    fn recv_copy_slows_large_messages() {
        let mut lib = raw_tcp_lib();
        lib.profile.recv_copies = 1;
        lib.profile.name = "one-copy".into();
        let plain = run_pingpong(&raw_tcp_lib(), mib(4), 1);
        let copied = run_pingpong(&lib, mib(4), 1);
        let ratio = copied / plain;
        // One serial 200 MB/s copy against ~550 Mbps: ~25% slower.
        assert!((1.15..1.45).contains(&ratio), "copy ratio {ratio}");
    }

    #[test]
    fn rendezvous_adds_handshake_above_threshold() {
        let mut lib = raw_tcp_lib();
        lib.profile.rendezvous_bytes = Some(kib(128));
        let below = run_pingpong(&lib, kib(128), 1);
        let above = run_pingpong(&lib, kib(128) + 64, 1);
        // Crossing the threshold pays ~2 extra one-way latencies per leg.
        let extra_us = (above - below) / 2.0 * 1e6;
        assert!(
            (150.0..400.0).contains(&extra_us),
            "handshake cost {extra_us} us"
        );
        // Without the threshold the same step is tiny.
        let plain_below = run_pingpong(&raw_tcp_lib(), kib(128), 1);
        let plain_above = run_pingpong(&raw_tcp_lib(), kib(128) + 64, 1);
        assert!((plain_above - plain_below) / 2.0 * 1e6 < 100.0);
    }

    #[test]
    fn send_overhead_shows_in_latency() {
        let mut lib = raw_tcp_lib();
        lib.profile.send_overhead_us = 50.0;
        let plain = run_pingpong(&raw_tcp_lib(), 8, 1);
        let heavy = run_pingpong(&lib, 8, 1);
        let extra_us = (heavy - plain) * 1e6;
        assert!((90.0..115.0).contains(&extra_us), "overhead {extra_us} us");
    }

    #[test]
    fn fragmentation_preserves_total_bytes() {
        let mut lib = raw_tcp_lib();
        lib.profile.fragment = Some(FragmentCfg {
            bytes: 4080,
            per_frag_us: 5.0,
            stop_and_wait: false,
        });
        let mut eng = Fabric::engine(pcs_ga620());
        let session = Session::establish(&mut eng.world, &lib);
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        session.send(&mut eng, 0, 100_000, Box::new(move |_| d.set(true)));
        eng.run();
        assert!(done.get());
        // All bytes crossed the TCP connection exactly once.
        match &eng.world.conns[0] {
            protosim::Conn::Tcp(t) => assert_eq!(t.bytes_delivered, 100_000),
            _ => panic!("expected tcp conn"),
        }
    }

    #[test]
    fn daemon_routing_is_much_slower() {
        let mut lib = raw_tcp_lib();
        lib.profile.routing = Routing::Daemon;
        lib.profile.fragment = Some(FragmentCfg {
            bytes: 4080,
            per_frag_us: 20.0,
            stop_and_wait: true,
        });
        let direct = run_pingpong(&raw_tcp_lib(), mib(1), 1);
        let relayed = run_pingpong(&lib, mib(1), 1);
        assert!(
            relayed > 3.0 * direct,
            "daemon {relayed} vs direct {direct}"
        );
    }

    #[test]
    fn overlap_depends_on_progress_model() {
        use crate::profile::Progress;
        use simcore::SimDuration;
        // 1 MB transfer (~16 ms alone) against 20 ms of computation.
        let bytes = mib(1);
        let busy = SimDuration::from_millis(20);
        let total_for = |progress: Progress, rendezvous: Option<u64>| -> f64 {
            let mut lib = raw_tcp_lib();
            lib.profile.progress = progress;
            lib.profile.rendezvous_bytes = rendezvous;
            let mut eng = Fabric::engine(pcs_ga620());
            let session = Session::establish(&mut eng.world, &lib);
            let out = Rc::new(Cell::new(None));
            let out2 = Rc::clone(&out);
            session.send_while_receiver_busy(
                &mut eng,
                0,
                bytes,
                busy,
                Box::new(move |e| out2.set(Some(e.now().as_secs_f64()))),
            );
            eng.run();
            out.get().expect("overlap send never completed")
        };
        let threaded = total_for(Progress::Thread, Some(kib(128)));
        let sigio = total_for(Progress::Sigio, None);
        let incall_eager = total_for(Progress::InCall, None);
        let incall_rndv = total_for(Progress::InCall, Some(kib(128)));
        // Full overlap: total ~ max(compute, transfer) = 20 ms.
        assert!((0.0195..0.023).contains(&threaded), "thread {threaded}");
        assert!((0.0195..0.023).contains(&sigio), "sigio {sigio}");
        // In-call rendezvous: compute + transfer, ~36 ms.
        assert!(incall_rndv > 0.032, "in-call rendezvous {incall_rndv}");
        // In-call eager overlaps only a window's worth (512 kB here), so
        // the other ~512 kB serializes after the compute: ~+7 ms.
        assert!(
            incall_eager > threaded + 0.005,
            "in-call eager {incall_eager}"
        );
        assert!(incall_eager < incall_rndv, "eager must beat rendezvous");
    }

    #[test]
    fn overlap_with_no_compute_equals_plain_send() {
        use simcore::SimDuration;
        let lib = raw_tcp_lib();
        let mut eng = Fabric::engine(pcs_ga620());
        let session = Session::establish(&mut eng.world, &lib);
        let out = Rc::new(Cell::new(None));
        let out2 = Rc::clone(&out);
        session.send_while_receiver_busy(
            &mut eng,
            0,
            100_000,
            SimDuration::ZERO,
            Box::new(move |e| out2.set(Some(e.now().as_secs_f64()))),
        );
        eng.run();
        let overlapped = out.get().unwrap();
        let plain = run_pingpong(&raw_tcp_lib(), 100_000, 1) / 2.0;
        assert!(
            (overlapped / plain - 1.0).abs() < 0.02,
            "{overlapped} vs {plain}"
        );
    }

    fn one_way_on(spec: hwmodel::ClusterSpec, lib: &MpLib, bytes: u64) -> f64 {
        let mut eng = Fabric::engine(spec);
        let session = Session::establish(&mut eng.world, lib);
        let out = Rc::new(Cell::new(None));
        let out2 = Rc::clone(&out);
        session.send(
            &mut eng,
            0,
            bytes,
            Box::new(move |e| {
                out2.set(Some(e.now().as_secs_f64()));
            }),
        );
        eng.run();
        out.get().unwrap()
    }

    #[test]
    fn channel_bonding_doubles_fast_ethernet() {
        // The historically accurate win: dual Fast Ethernet leaves the
        // PCI bus idle, so two wires really pay ~2x.
        use crate::libs::{mp_lite, mp_lite_bonded};
        use hwmodel::presets::pcs_fast_ethernet_dual;
        let kernel = pcs_fast_ethernet_dual().kernel;
        let single = one_way_on(pcs_fast_ethernet_dual(), &mp_lite(&kernel), mib(4));
        let bonded = one_way_on(
            pcs_fast_ethernet_dual(),
            &mp_lite_bonded(&kernel, 2),
            mib(4),
        );
        let speedup = single / bonded;
        assert!(
            (1.7..2.05).contains(&speedup),
            "FE bonding speedup {speedup}"
        );
        // Small messages are not striped: latency unchanged.
        let lat_single = one_way_on(pcs_fast_ethernet_dual(), &mp_lite(&kernel), 8);
        let lat_bonded = one_way_on(pcs_fast_ethernet_dual(), &mp_lite_bonded(&kernel, 2), 8);
        assert_eq!(lat_single, lat_bonded);
    }

    #[test]
    fn channel_bonding_on_gige_is_pci_bound() {
        // The physics lesson: two Gigabit cards share one 32-bit PCI bus,
        // so bonding buys almost nothing on the paper's PCs.
        use crate::libs::{mp_lite, mp_lite_bonded};
        use hwmodel::presets::pcs_ga620_dual;
        let kernel = pcs_ga620_dual().kernel;
        let single = one_way_on(pcs_ga620_dual(), &mp_lite(&kernel), mib(4));
        let bonded = one_way_on(pcs_ga620_dual(), &mp_lite_bonded(&kernel, 2), mib(4));
        let speedup = single / bonded;
        assert!(
            (1.0..1.30).contains(&speedup),
            "GigE bonding should be PCI-bound: {speedup}"
        );
    }

    #[test]
    #[should_panic(expected = "wants 2 channels")]
    fn bonding_requires_enough_nics() {
        use crate::libs::mp_lite_bonded;
        let kernel = pcs_ga620().kernel;
        let mut eng = Fabric::engine(pcs_ga620()); // single NIC
        let _ = Session::establish(&mut eng.world, &mp_lite_bonded(&kernel, 2));
    }

    #[test]
    fn byte_check_caps_throughput() {
        let mut lib = raw_tcp_lib();
        lib.profile.byte_check_bps = 125e6 / 2.0; // ~500 Mbps serial check
        let t = run_pingpong(&lib, mib(4), 1) / 2.0;
        let mbps = throughput_mbps(mib(4), t);
        assert!(mbps < 320.0, "checked rate {mbps}");
    }
}
