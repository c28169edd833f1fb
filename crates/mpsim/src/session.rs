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
//!
//! A [`Session`] is the layer bound above its fabric ([`Fabric::bind`]).
//! Each message is one record in reusable [`Slots`], moved from phase to
//! phase by [`NetEvent::Upper`] events, so no closure is built per
//! message, stripe or fragment. What a message completes is the caller's
//! continuation, parked once in its record, or the next leg of a
//! [`pingpong`].

use std::cell::RefCell;
use std::rc::Rc;

use protosim::{local, raw, tcp, transmit, transmit_train, ConnId, Fabric, NetEvent, Slots, Upper};
use protosim::{Continuation, Net};
use simcore::{SimDuration, SimTime};

use crate::profile::{FragmentCfg, LibProfile, MpLib, Progress, Routing, Transport};
use crate::rendezvous::{receiver, sender};

/// An established communication session between the two ranks. Cheap to
/// clone; clones share the one layer bound above the fabric.
#[derive(Clone)]
pub struct Session {
    layer: Rc<Layer>,
}

/// The session as the fabric holds it: the library, its connections and
/// the messages in flight.
struct Layer {
    profile: LibProfile,
    data: ConnId,
    /// Additional connections for channel bonding (channels 1..n).
    extra: Vec<ConnId>,
    /// The daemon relay path: one local pipe per host (the inter-daemon
    /// hop reuses `data`).
    daemon: Option<[ConnId; 2]>,
    msgs: RefCell<Slots<Msg>>,
}

/// What a message's [`NetEvent::Upper`] reports, as its `step`. The relay
/// steps come first: each indexes its count in [`Relay::passed`].
mod step {
    /// A fragment reached the sending daemon (relay hop 1).
    pub(crate) const TO_DAEMON: u8 = 0;
    /// The sending daemon is done with a fragment.
    pub(crate) const DAEMON_OUT: u8 = 1;
    /// A fragment crossed between the daemons.
    pub(crate) const ACROSS: u8 = 2;
    /// The receiving daemon is done with a fragment.
    pub(crate) const DAEMON_IN: u8 = 3;
    /// A fragment reached the receiving application (relay hop 3), or,
    /// under stop-and-wait, its acknowledgement the sending daemon.
    pub(crate) const RELAYED: u8 = 4;
    /// The message's current phase is over (see [`super::Phase`]).
    pub(crate) const NEXT: u8 = 5;
    /// A crossing whose landing completes nothing.
    pub(crate) const IGNORED: u8 = 6;
}

/// The event that moves message `msg` on by `step`.
fn upper(msg: u32, step: u8) -> NetEvent {
    NetEvent::Upper { msg, step }
}

/// One message, from its send until its completion runs.
struct Msg {
    /// The sending rank.
    from: usize,
    bytes: u64,
    /// When the receiver enters the library: its completion runs no
    /// earlier.
    ready: SimTime,
    phase: Phase,
    then: Then,
}

/// Where a message is on its way: what its next `step::NEXT` ends.
/// The handshake phases hold the rendezvous typestate token, so the
/// RTS→CTS→data order is pinned at compile time.
#[derive(Clone, Copy)]
enum Phase {
    /// The sender's library work: overhead and packing copies.
    SendWork,
    /// The sender's request-to-send crosses to the receiver...
    Rts(sender::AwaitCts),
    /// ...and the receiver's clear-to-send crosses back.
    Cts(sender::Streaming),
    /// A busy receiver's role: the request crosses to it...
    BusyRts(receiver::Idle),
    /// ...its reply waits until it enters the library...
    CtsDue(receiver::CtsDue),
    /// ...and crosses back.
    BusyCts(receiver::Draining),
    /// The payload crosses in one transfer or one fragment train.
    Data,
    /// The payload crosses in this many stripes still in flight.
    Stripes(u64),
    /// The payload is relayed through the daemons, a `step` per hop.
    Relay(Relay),
    /// The receiver's library work: overhead, unpacking copies, checks.
    RecvWork,
    /// Received; the completion waits for the receiver to be `ready`.
    Wait,
    /// The tail of an eager send to a busy receiver waits for it to
    /// drain the socket buffer.
    Deferred,
}

/// A daemon-relayed payload. Every hop is FIFO (a local pipe, a daemon's
/// CPU, the transport connection), so fragments pass each step in order
/// and a per-step count names the fragment an event is about.
#[derive(Clone, Copy)]
struct Relay {
    /// The local pipes, as [`Layer::daemon`].
    local: [ConnId; 2],
    frag: FragmentCfg,
    /// Fragments in the payload.
    count: u64,
    /// A daemon's charge for a full fragment.
    full: SimDuration,
    /// Fragments past each relay step.
    passed: [u64; 5],
}

impl Relay {
    /// Bytes in fragment `i` of a `bytes` payload.
    fn size(&self, bytes: u64, i: u64) -> u64 {
        self.frag.bytes.min(bytes - i * self.frag.bytes)
    }

    /// A daemon on `host` touches a fragment of `sz` bytes: per-fragment
    /// bookkeeping plus one serial buffer copy at the host's cold-memcpy
    /// rate, worked out once per transfer for the size all fragments but
    /// the last share.
    fn daemon_work(&self, eng: &mut Net, host: usize, sz: u64) -> SimTime {
        let now = eng.now();
        let dur = if sz == self.frag.bytes {
            self.full
        } else {
            SimDuration::from_micros_f64(self.frag.per_frag_us)
                + SimDuration::for_bytes(sz, eng.world.spec.host.cpu.memcpy_bps)
        };
        eng.world.hosts[host].cpu.serve_for(now, dur, sz)
    }
}

/// What a message completes.
enum Then {
    /// The caller's continuation.
    Call(Continuation),
    /// A ping-pong: `legs` more after this one, begun at `start`.
    Bounce {
        legs: u32,
        start: SimTime,
        done: PingpongDone,
    },
}

impl Session {
    /// Open the connections a library needs on `fabric`, and bind the
    /// session above it. A bonded profile opens one connection per NIC
    /// channel.
    ///
    /// # Panics
    ///
    /// If the profile bonds more channels than the cluster has NICs, or a
    /// session is already established on `fabric`: one fabric carries one
    /// session.
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
            Routing::Daemon => Some([local::open(fabric, 0), local::open(fabric, 1)]),
        };
        let layer = Rc::new(Layer {
            profile: lib.profile.clone(),
            data,
            extra,
            daemon,
            msgs: RefCell::new(Slots::default()),
        });
        fabric.bind(layer.clone());
        Session { layer }
    }

    /// Send `bytes` from rank `from`; `k` runs when the receiving rank's
    /// matching receive completes (library processing included).
    pub fn send(&self, eng: &mut Net, from: usize, bytes: u64, k: Continuation) {
        self.layer
            .start(eng, from, bytes, SimTime::ZERO, Then::Call(k));
    }

    /// Send `bytes` from rank `from` while the *receiver* computes for
    /// `busy` before entering its receive call — the paper's §7
    /// discussion, made measurable.
    ///
    /// What can proceed during the computation depends on the library's
    /// `Progress` model:
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
        let layer = &*self.layer;
        let bytes = bytes.max(1);
        let ready = eng.now() + busy;
        let overlappable = matches!(
            layer.profile.progress,
            Progress::Kernel | Progress::Thread | Progress::Sigio
        );
        // InCall progress has two serializers: a rendezvous handshake
        // cannot be answered until the computation ends, and on TCP at
        // most ~the flow-control window lands before the sender blocks on
        // the unread socket buffer.
        let rendezvous = matches!(layer.profile.rendezvous_bytes, Some(t) if bytes > t);
        let window = match &eng.world.conns[layer.data.0] {
            protosim::Conn::Tcp(t) => t.window,
            _ => u64::MAX, // OS-bypass fabrics deposit into user memory
        };
        if overlappable || !rendezvous && bytes <= window {
            // Everything proceeds; completion cannot precede the end of
            // the computation.
            return layer.start(eng, from, bytes, ready, Then::Call(k));
        }
        // Under a rendezvous, the RTS is sent now but the CTS only comes
        // back once the computation ends; the entire payload then moves
        // after it. This is the receiver role of the rendezvous pair: the
        // RTS lands (`rts?`), the CTS leaves only once the library is
        // entered (`cts!`), then the payload drains (`data?`). Eager, the
        // first window's worth flows into the receiver's socket buffer
        // now; the rest is pumped once the receiver enters the library.
        let (phase, len) = if rendezvous {
            (Phase::BusyRts(receiver::RndvRecvState::start()), bytes)
        } else {
            (Phase::Deferred, bytes - window)
        };
        let msg = layer.msgs.borrow_mut().park(Msg {
            from,
            bytes: len,
            ready,
            phase,
            then: Then::Call(k),
        });
        if rendezvous {
            let ctrl = layer.profile.ctrl_bytes;
            transmit(eng, layer.data, from, ctrl, msg, step::NEXT);
        } else {
            transmit(eng, layer.data, from, window, msg, step::IGNORED);
            eng.schedule_event_at(ready, upper(msg, step::NEXT));
        }
    }
}

impl Upper<Fabric, NetEvent> for Layer {
    fn dispatch(&self, eng: &mut Net, ev: NetEvent) {
        let NetEvent::Upper { msg, step } = ev else {
            return;
        };
        if step == step::IGNORED {
            return;
        }
        // The completion may send again: the slots are free by then.
        if let Some(m) = self.step(eng, msg, step) {
            match m.then {
                Then::Call(k) => k(eng),
                Then::Bounce { legs, start, done } => self.bounce(eng, m.bytes, legs, start, done),
            }
        }
    }
}

impl Layer {
    /// Charge the sender's library work for a `bytes` message from
    /// `from`; returns when it ends.
    fn send_work(&self, eng: &mut Net, from: usize, bytes: u64) -> SimTime {
        let now = eng.now();
        let memcpy = eng.world.spec.host.cpu.memcpy_bps;
        let dur = self.profile.send_work(bytes, memcpy, 0.0);
        eng.world.hosts[from].cpu.serve_for(now, dur, 0)
    }

    /// Begin a message whose receiver is `ready` then: the sender's
    /// library work first.
    fn start(&self, eng: &mut Net, from: usize, bytes: u64, ready: SimTime, then: Then) {
        assert!(from < 2);
        let bytes = bytes.max(1);
        let t0 = self.send_work(eng, from, bytes);
        let msg = self.msgs.borrow_mut().park(Msg {
            from,
            bytes,
            ready,
            phase: Phase::SendWork,
            then,
        });
        eng.schedule_event_at(t0, upper(msg, step::NEXT));
    }

    /// Move message `msg` on by `step`; returns its record once it is
    /// complete.
    fn step(&self, eng: &mut Net, msg: u32, step: u8) -> Option<Msg> {
        let mut msgs = self.msgs.borrow_mut();
        let m = msgs.get_mut(msg);
        let (from, bytes, ctrl) = (m.from, m.bytes, self.profile.ctrl_bytes);
        match m.phase {
            Phase::SendWork => {
                // The rendezvous handshake, when the library uses one and
                // the message is above the threshold.
                let handshake = matches!(self.profile.rendezvous_bytes, Some(t) if bytes > t)
                    && self.profile.routing == Routing::Direct;
                if handshake {
                    // Request-to-send travels to the receiver...
                    m.phase = Phase::Rts(sender::RndvSendState::start().rts());
                    transmit(eng, self.data, from, ctrl, msg, step::NEXT);
                } else {
                    self.data_phase(eng, m, msg);
                }
            }
            Phase::Rts(hs) => {
                // ...clear-to-send comes back...
                m.phase = Phase::Cts(hs.cts());
                transmit(eng, self.data, 1 - from, ctrl, msg, step::NEXT);
            }
            Phase::Cts(hs) => {
                // ...then the data moves.
                let _idle: sender::Idle = hs.data();
                self.data_phase(eng, m, msg);
            }
            Phase::BusyRts(rv) => {
                m.phase = Phase::CtsDue(rv.rts());
                let at = eng.now().max(m.ready);
                eng.schedule_event_at(at, upper(msg, step::NEXT));
            }
            Phase::CtsDue(rv) => {
                m.phase = Phase::BusyCts(rv.cts());
                transmit(eng, self.data, 1 - from, ctrl, msg, step::NEXT);
            }
            Phase::BusyCts(rv) => {
                let _idle: receiver::Idle = rv.data();
                self.data_phase(eng, m, msg);
            }
            Phase::Data | Phase::Stripes(1) => self.receive_phase(eng, m, msg),
            Phase::Stripes(left) => m.phase = Phase::Stripes(left - 1),
            Phase::Relay(ref mut relay) => {
                if self.relay(eng, relay, from, bytes, msg, step) {
                    self.receive_phase(eng, m, msg);
                }
            }
            Phase::RecvWork if eng.now() < m.ready => {
                m.phase = Phase::Wait;
                eng.schedule_event_at(m.ready, upper(msg, step::NEXT));
            }
            Phase::RecvWork | Phase::Wait => return Some(msgs.take(msg)),
            Phase::Deferred => {
                m.phase = Phase::SendWork;
                let t0 = self.send_work(eng, from, bytes);
                eng.schedule_event_at(t0, upper(msg, step::NEXT));
            }
        }
        None
    }

    /// Move the payload of message `m`, parked at `msg`.
    fn data_phase(&self, eng: &mut Net, m: &mut Msg, msg: u32) {
        let (from, bytes) = (m.from, m.bytes);
        // `establish` opens the daemon pipes exactly when the profile
        // routes via daemons, so the path's presence *is* the routing
        // decision — no unrepresentable (Daemon, None) arm to bail on.
        if let Some(local) = self.daemon {
            return self.relay_start(eng, m, msg, local);
        }
        match self.profile.fragment {
            None if !self.extra.is_empty() && bytes >= 4096 => {
                // Channel bonding: stripe the payload across all bonded
                // connections; the receive completes when every stripe
                // has landed (MP_Lite reassembles by offset, so ordering
                // across channels does not matter). Small messages stay on
                // channel 0 — striping them would only add per-channel
                // latency. Round-robin in 32 kB blocks so the channels'
                // pipelines interleave from the first block (one giant
                // stripe per channel would reserve the shared CPU/PCI
                // stages a whole channel at a time and serialize the
                // supposedly parallel wires).
                let block = 32 * 1024u64;
                m.phase = Phase::Stripes(bytes.div_ceil(block));
                let conns = std::iter::once(self.data).chain(self.extra.iter().copied());
                for (off, conn) in (0..bytes).step_by(block as usize).zip(conns.cycle()) {
                    transmit(eng, conn, from, block.min(bytes - off), msg, step::NEXT);
                }
            }
            None => {
                m.phase = Phase::Data;
                transmit(eng, self.data, from, bytes, msg, step::NEXT);
            }
            Some(frag) => {
                // Direct transfer fragmented at the library's fragment
                // size (PVM's 4080-byte fragments in `PvmRouteDirect`
                // mode): one message train. The per-fragment overhead is
                // charged on the sender's CPU up front, and each fragment
                // is handed to the transport as its charge ends.
                let now = eng.now();
                let per_frag = SimDuration::from_micros_f64(frag.per_frag_us);
                let cpu = &mut eng.world.hosts[from].cpu;
                let t0 = cpu.serve_for(now, per_frag, 0);
                for _ in 1..bytes.div_ceil(frag.bytes) {
                    cpu.serve_for(now, per_frag, 0);
                }
                let train = protosim::Train {
                    t0,
                    spacing: per_frag,
                    part: frag.bytes,
                    bytes,
                };
                m.phase = Phase::Data;
                transmit_train(eng, self.data, from, train, msg, step::NEXT);
            }
        }
    }

    /// Daemon-relayed transfer: app → local daemon → remote daemon → app.
    ///
    /// With `stop_and_wait` (pvmd), each fragment's inter-daemon hop is
    /// acknowledged before the next fragment leaves — one fragment in
    /// flight at a time, paying a full round trip per 4080 bytes. Without
    /// it (lamd), fragments pipeline through the three hops: a fragment's
    /// first hop begins once the previous fragment cleared that hop, so
    /// the hops overlap across fragments without head-of-line blocking
    /// the sender's CPU.
    fn relay_start(&self, eng: &mut Net, m: &mut Msg, msg: u32, local: [ConnId; 2]) {
        let frag = self.profile.fragment.unwrap_or(FragmentCfg {
            bytes: u64::MAX,
            per_frag_us: 0.0,
            stop_and_wait: false,
        });
        let memcpy = eng.world.spec.host.cpu.memcpy_bps;
        let relay = Relay {
            local,
            frag,
            count: m.bytes.div_ceil(frag.bytes),
            full: SimDuration::from_micros_f64(frag.per_frag_us)
                + SimDuration::for_bytes(frag.bytes, memcpy),
            passed: [0; 5],
        };
        m.phase = Phase::Relay(relay);
        let sz = relay.size(m.bytes, 0);
        transmit(eng, local[m.from], m.from, sz, msg, step::TO_DAEMON);
    }

    /// Relay `step` of the next fragment of message `msg` to pass it;
    /// returns whether the whole payload is through.
    fn relay(
        &self,
        eng: &mut Net,
        relay: &mut Relay,
        from: usize,
        bytes: u64,
        msg: u32,
        step: u8,
    ) -> bool {
        let i = relay.passed[usize::from(step)];
        relay.passed[usize::from(step)] += 1;
        let (sz, local, sw) = (relay.size(bytes, i), relay.local, relay.frag.stop_and_wait);
        let last = i + 1 == relay.count;
        match step {
            step::TO_DAEMON => {
                // Pipeline: free the first hop for the next fragment.
                if !sw && !last {
                    let next = relay.size(bytes, i + 1);
                    transmit(eng, local[from], from, next, msg, step::TO_DAEMON);
                }
                // The sending daemon processes the fragment.
                let t = relay.daemon_work(eng, from, sz);
                eng.schedule_event_at(t, upper(msg, step::DAEMON_OUT));
            }
            step::DAEMON_OUT => transmit(eng, self.data, from, sz, msg, step::ACROSS),
            step::ACROSS => {
                // The receiving daemon processes, then hands to the app.
                let t = relay.daemon_work(eng, 1 - from, sz);
                eng.schedule_event_at(t, upper(msg, step::DAEMON_IN));
            }
            step::DAEMON_IN if sw => {
                // The ack returns while the fragment is handed up.
                transmit(eng, self.data, 1 - from, 32, msg, step::RELAYED);
                transmit(eng, local[1 - from], from, sz, msg, step::IGNORED);
            }
            step::DAEMON_IN => transmit(eng, local[1 - from], from, sz, msg, step::RELAYED),
            _ => {
                // Under stop-and-wait the ack lets the next fragment leave.
                if sw && !last {
                    let next = relay.size(bytes, i + 1);
                    transmit(eng, local[from], from, next, msg, step::TO_DAEMON);
                }
                return last;
            }
        }
        false
    }

    /// Phase 5–6: receiver-side serial work, then the completion.
    fn receive_phase(&self, eng: &mut Net, m: &mut Msg, msg: u32) {
        let to = 1 - m.from;
        let now = eng.now();
        let memcpy = eng.world.spec.host.cpu.memcpy_bps;
        let dur = self.profile.recv_work(m.bytes, memcpy);
        let t = eng.world.hosts[to].cpu.serve_for(now, dur, 0);
        m.phase = Phase::RecvWork;
        eng.schedule_event_at(t, upper(msg, step::NEXT));
    }

    /// The next of `legs` ping-pong legs of `bytes`, begun at `start`, or
    /// `done` once none is left. With an even count left the leg goes
    /// 1→0, with an odd one 0→1.
    fn bounce(&self, eng: &mut Net, bytes: u64, legs: u32, start: SimTime, done: PingpongDone) {
        if legs == 0 {
            let elapsed = (eng.now() - start).as_secs_f64();
            return done(eng, elapsed);
        }
        let from = 1 - (legs % 2) as usize;
        let then = Then::Bounce {
            legs: legs - 1,
            start,
            done,
        };
        self.start(eng, from, bytes, SimTime::ZERO, then);
    }
}

/// Completion callback for [`pingpong`]: receives the engine and the
/// total elapsed simulated seconds.
pub(crate) type PingpongDone = Box<dyn FnOnce(&mut Net, f64)>;

/// Run `reps` ping-pong round trips of `bytes` and pass the total elapsed
/// simulated seconds to `done`.
pub fn pingpong(session: &Session, eng: &mut Net, bytes: u64, reps: u32, done: PingpongDone) {
    assert!(reps > 0, "at least one repetition");
    let start = eng.now();
    session.layer.bounce(eng, bytes, 2 * reps, start, done);
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
    #[should_panic(expected = "a different layer is already bound")]
    fn one_fabric_carries_one_session() {
        let mut eng = Fabric::engine(pcs_ga620());
        let _first = Session::establish(&mut eng.world, &raw_tcp_lib());
        let _ = Session::establish(&mut eng.world, &raw_tcp_lib());
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
