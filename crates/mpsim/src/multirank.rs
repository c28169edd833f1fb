//! N-rank tagged messaging over the multi-node fabric.
//!
//! [`Session`](crate::Session) models two ranks in microscopic detail;
//! collective-pattern studies need *N* ranks exchanging tagged messages
//! with library overheads applied per message. [`Mailboxes`] layers
//! exactly that over [`protosim::multinode`]: per ordered rank pair a
//! FIFO of in-flight messages matched against a FIFO of posted
//! receives (the same match discipline mplite's socket mesh gives the
//! real backend), with the bound [`LibProfile`]'s per-message costs —
//! send/receive overheads, copy passes, optional byte checking, and
//! the eager→rendezvous handshake — charged on the endpoint CPUs.
//!
//! A message is a record in reusable [`Slots`] and moves through typed
//! [`MultiEvent`]s (`SendReady`, `Landed` per fabric crossing,
//! `Deliver`, and `Arrive` when the receive is posted late), so after
//! warm-up it allocates nothing. Every cost is per message or per byte,
//! so a message carries its length, never its bytes. What a posted
//! receive completes is the caller's: [`MultiSession`] parks a boxed
//! continuation there, the collective driver a (rank, receive) pair it
//! resolves itself.

use std::cell::RefCell;
use std::rc::Rc;

use faultlab::DegradeWindow;
use protosim::multinode::{self, MultiEngine, MultiEvent, MultiNet};
use protosim::{Slots, Upper};
use simcore::SimDuration;

use crate::profile::LibProfile;

/// A message body handed to [`MultiSession::send`]; only its length is
/// simulated.
pub(crate) type Payload = Rc<Vec<u8>>;

/// Completion callback for a posted receive, handed the message length.
pub(crate) type RecvContinuation = Box<dyn FnOnce(&mut MultiEngine, u64)>;

/// Where a message is on its way.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The rendezvous request crosses to the receiver.
    Rts,
    /// The receiver's clear-to-send crosses back.
    Cts,
    /// The payload crosses.
    Data,
}

/// One message, from `send` until its receive completes.
struct Msg<C> {
    from: u32,
    to: u32,
    tag: i32,
    phase: Phase,
    bytes: u64,
    /// The receive it completes, once matched by a late post.
    done: Option<C>,
}

/// An unmatched entry of one receiver's queue: a posted receive or an
/// arrived message. For any one sender the entries are all of one kind
/// (a post meets a waiting arrival and vice versa), so the first entry
/// of the other kind from a sender is the head of that pair's FIFO.
enum Pending<C> {
    Posted { from: u32, tag: i32, done: C },
    Arrived { from: u32, msg: u32 },
}

/// The matching and per-message costs of an N-rank session; `C` is what
/// a posted receive completes, handed back when its message is matched.
pub struct Mailboxes<C> {
    profile: LibProfile,
    n: usize,
    /// Extra per-send CPU microseconds per rank (degradation studies).
    extra_send_us: Vec<f64>,
    /// Timed degradation windows from a fault plan: sends issued while
    /// a window is open run at the window's fraction of nominal speed.
    degrade: Vec<DegradeWindow>,
    msgs: Slots<Msg<C>>,
    /// Per receiver, its unmatched posts and arrivals in order.
    queues: Vec<Vec<Pending<C>>>,
    /// Entries across all queues.
    unmatched: usize,
}

/// Narrow a rank for a message record; ranks are checked against the
/// world size before they get here.
fn rank32(rank: usize) -> u32 {
    #[expect(
        clippy::expect_used,
        reason = "a world of more than u32::MAX ranks cannot be built"
    )]
    u32::try_from(rank).expect("rank fits a u32")
}

impl<C> Mailboxes<C> {
    /// Mailboxes for `n` ranks under `profile`'s per-message costs.
    pub fn new(profile: LibProfile, n: usize) -> Mailboxes<C> {
        Mailboxes {
            profile,
            n,
            extra_send_us: vec![0.0; n],
            degrade: Vec::new(),
            msgs: Slots::default(),
            queues: (0..n).map(|_| Vec::new()).collect(),
            unmatched: 0,
        }
    }

    /// Number of ranks.
    pub(crate) fn nranks(&self) -> usize {
        self.n
    }

    /// Unmatched arrivals and posted receives: a completed run leaves
    /// none.
    pub fn unmatched(&self) -> usize {
        self.unmatched
    }

    /// Add `us` microseconds of CPU work to every send `rank` issues —
    /// the degraded-rank knob the chaos sweeps turn.
    pub fn set_rank_overhead_us(&mut self, rank: usize, us: f64) {
        self.extra_send_us[rank] = us;
    }

    /// Install a fault plan's timed degradation windows: a send issued
    /// while a window contains the current simulated time has its
    /// library work stretched by `1/factor` (every rank is affected —
    /// the windows model fabric-wide congestion, not one slow host).
    pub fn set_degrade_windows(&mut self, windows: Vec<DegradeWindow>) {
        self.degrade = windows;
    }

    /// The work stretch applied at `now_us`: the reciprocal of the
    /// smallest open window factor, `1.0` when no window is open.
    fn degrade_stretch(&self, now_us: f64) -> f64 {
        let mut factor = 1.0f64;
        for w in &self.degrade {
            if w.contains(now_us) {
                factor = factor.min(w.factor);
            }
        }
        1.0 / factor
    }

    /// Send a `bytes`-long message from `from` to `to` under `tag`. The
    /// sender's library work is charged on its CPU now; the fabric then
    /// carries the bytes (with a rendezvous handshake above the
    /// profile's threshold) and the receiver's library work is charged
    /// on arrival, after which the message matches a posted receive.
    pub fn send(&mut self, eng: &mut MultiEngine, from: usize, to: usize, tag: i32, bytes: u64) {
        let n = self.n;
        assert!(
            from != to && from < n && to < n,
            "send {from} -> {to}: never to self, never outside the {n}-rank world"
        );
        let p = &self.profile;
        let memcpy = eng.world.spec.host.cpu.memcpy_bps;
        let send_work = p.send_work(bytes, memcpy, self.extra_send_us[from]);
        let now = eng.now();
        let stretch = self.degrade_stretch(now.as_micros_f64());
        let send_work = if stretch > 1.0 {
            SimDuration::from_micros_f64(send_work.as_micros_f64() * stretch)
        } else {
            send_work
        };
        let ready = eng.world.nodes[from].cpu.serve_for(now, send_work, bytes);
        let msg = self.msgs.park(Msg {
            from: rank32(from),
            to: rank32(to),
            tag,
            phase: Phase::Data,
            bytes,
            done: None,
        });
        eng.schedule_event_at(ready, MultiEvent::SendReady { msg });
    }

    /// Post a receive at rank `to` for the next message from `from`
    /// under `tag`; `done` is handed back (from [`Mailboxes::deliver`]
    /// or [`Mailboxes::arrive`], always inside an event, never
    /// synchronously) once the message is in `to`'s memory and past the
    /// library's receive path.
    pub fn post_recv(&mut self, eng: &mut MultiEngine, to: usize, from: usize, tag: i32, done: C) {
        let n = self.n;
        assert!(
            from < n && to < n,
            "rank pair {from} -> {to} is outside the {n}-rank world"
        );
        let from = rank32(from);
        let q = &mut self.queues[to];
        let head = q
            .iter()
            .position(|p| matches!(p, Pending::Arrived { from: f, .. } if *f == from));
        if let Some(Pending::Arrived { msg, .. }) = head.map(|i| q.remove(i)) {
            self.unmatched -= 1;
            let m = self.msgs.get_mut(msg);
            assert_eq!(
                m.tag, tag,
                "rank {to} posted tag {tag} from {from} but head-of-line is {}: collective tags desynchronized",
                m.tag
            );
            m.done = Some(done);
            let now = eng.now();
            eng.schedule_event_at(now, MultiEvent::Arrive { msg });
            return;
        }
        q.push(Pending::Posted { from, tag, done });
        self.unmatched += 1;
    }

    /// [`MultiEvent::SendReady`]: the message enters the fabric, behind
    /// a request-to-send above the rendezvous threshold.
    pub fn send_ready(&mut self, eng: &mut MultiEngine, msg: u32) {
        let p = &self.profile;
        let m = self.msgs.get_mut(msg);
        let bytes = m.bytes;
        let (from, to) = (m.from as usize, m.to as usize);
        if matches!(p.rendezvous_bytes, Some(t) if bytes > t) {
            m.phase = Phase::Rts;
            multinode::transmit(eng, from, to, p.ctrl_bytes.max(1), msg);
        } else {
            multinode::transmit(eng, from, to, bytes.max(1), msg);
        }
    }

    /// [`MultiEvent::Landed`]: one crossing of message `msg` is done.
    /// After the handshake's two, the payload crosses; after the
    /// payload, the receiver's library work — overhead, drain copies
    /// and the optional full-payload byte check — is charged.
    pub fn landed(&mut self, eng: &mut MultiEngine, msg: u32) {
        let p = &self.profile;
        let m = self.msgs.get_mut(msg);
        let bytes = m.bytes;
        let (from, to) = (m.from as usize, m.to as usize);
        match m.phase {
            Phase::Rts => {
                m.phase = Phase::Cts;
                multinode::transmit(eng, to, from, p.ctrl_bytes.max(1), msg);
            }
            Phase::Cts => {
                m.phase = Phase::Data;
                multinode::transmit(eng, from, to, bytes.max(1), msg);
            }
            Phase::Data => {
                let memcpy = eng.world.spec.host.cpu.memcpy_bps;
                let recv_work = p.recv_work(bytes, memcpy);
                let now = eng.now();
                let done = eng.world.nodes[to].cpu.serve_for(now, recv_work, bytes);
                eng.schedule_event_at(done, MultiEvent::Deliver { msg });
            }
        }
    }

    /// [`MultiEvent::Deliver`]: message `msg` matches the receive its
    /// pair posted first, whose completion is returned with the
    /// message length, or waits for one.
    pub fn deliver(&mut self, msg: u32) -> Option<(C, u64)> {
        let m = self.msgs.get_mut(msg);
        let (from, to, tag) = (m.from, m.to, m.tag);
        let q = &mut self.queues[to as usize];
        let head = q
            .iter()
            .position(|p| matches!(p, Pending::Posted { from: f, .. } if *f == from));
        if let Some(Pending::Posted {
            tag: want, done, ..
        }) = head.map(|i| q.remove(i))
        {
            assert_eq!(
                want, tag,
                "rank {to} posted tag {want} from {from} but got {tag}: collective tags desynchronized"
            );
            self.unmatched -= 1;
            return Some((done, self.msgs.take(msg).bytes));
        }
        q.push(Pending::Arrived { from, msg });
        self.unmatched += 1;
        None
    }

    /// [`MultiEvent::Arrive`]: the late post matched to message `msg`
    /// completes.
    pub fn arrive(&mut self, msg: u32) -> (C, u64) {
        let m = self.msgs.take(msg);
        #[expect(
            clippy::expect_used,
            reason = "post_recv sets the completion before it schedules Arrive"
        )]
        let done = m.done.expect("an arrival scheduled without its receive");
        (done, m.bytes)
    }
}

/// An N-rank tagged messaging session bound to one library profile,
/// whose posted receives complete boxed continuations. Cheap to clone;
/// clones share the queues. It binds itself above the fabric of the
/// engine it is first used on.
#[derive(Clone)]
pub struct MultiSession {
    inner: Rc<Closures>,
}

struct Closures {
    boxes: RefCell<Mailboxes<RecvContinuation>>,
}

impl Upper<MultiNet, MultiEvent> for Closures {
    fn dispatch(&self, eng: &mut MultiEngine, ev: MultiEvent) {
        let done = match ev {
            MultiEvent::SendReady { msg } => {
                self.boxes.borrow_mut().send_ready(eng, msg);
                None
            }
            MultiEvent::Landed { msg } => {
                self.boxes.borrow_mut().landed(eng, msg);
                None
            }
            MultiEvent::Deliver { msg } => self.boxes.borrow_mut().deliver(msg),
            MultiEvent::Arrive { msg } => Some(self.boxes.borrow_mut().arrive(msg)),
            _ => None,
        };
        // The continuation may send or post again: the queues are free.
        if let Some((k, bytes)) = done {
            k(eng, bytes);
        }
    }
}

impl MultiSession {
    /// A session for `n` ranks under `profile`'s per-message costs.
    pub fn new(profile: LibProfile, n: usize) -> MultiSession {
        MultiSession {
            inner: Rc::new(Closures {
                boxes: RefCell::new(Mailboxes::new(profile, n)),
            }),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.inner.boxes.borrow().nranks()
    }

    fn bind(&self, eng: &mut MultiEngine) {
        eng.world.bind(self.inner.clone());
    }

    /// Send `payload` from `from` to `to` under `tag`, timed by its
    /// length (see [`Mailboxes::send`]).
    pub fn send(&self, eng: &mut MultiEngine, from: usize, to: usize, tag: i32, payload: Payload) {
        self.bind(eng);
        let bytes = payload.len() as u64;
        self.inner
            .boxes
            .borrow_mut()
            .send(eng, from, to, tag, bytes);
    }

    /// Post a receive at rank `to` for the next message from `from`
    /// under `tag`; `k` runs with the message length (as a scheduled
    /// event, never synchronously) once the message is in `to`'s memory
    /// and past the library's receive path.
    pub fn post_recv(
        &self,
        eng: &mut MultiEngine,
        to: usize,
        from: usize,
        tag: i32,
        k: RecvContinuation,
    ) {
        self.bind(eng);
        self.inner
            .boxes
            .borrow_mut()
            .post_recv(eng, to, from, tag, k);
    }

    /// True if any queue still holds an unmatched arrival or posted
    /// receive — a completed run should leave everything drained.
    pub fn has_unmatched(&self) -> bool {
        self.inner.boxes.borrow().unmatched() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protosim::multinode::MultiNet;

    /// A delivered message: (source rank, length).
    type Delivery = (usize, u64);

    fn engine(n: usize) -> MultiEngine {
        MultiNet::engine(hwmodel::presets::pcs_ga620(), n)
    }

    #[test]
    fn posted_then_sent_and_sent_then_posted_both_deliver() {
        let mut eng = engine(3);
        let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 3);
        let got: Rc<RefCell<Vec<Delivery>>> = Rc::new(RefCell::new(Vec::new()));
        // Receive posted before the send exists.
        let g = Rc::clone(&got);
        sess.post_recv(
            &mut eng,
            1,
            0,
            7,
            Box::new(move |_, len| g.borrow_mut().push((1, len))),
        );
        sess.send(&mut eng, 0, 1, 7, Rc::new(b"early".to_vec()));
        // Send lands before the receive is posted.
        sess.send(&mut eng, 2, 1, 7, Rc::new(b"late".to_vec()));
        let sess2 = sess.clone();
        let g = Rc::clone(&got);
        let mut eng2 = eng;
        eng2.schedule_in(SimDuration::from_secs_f64(1.0), move |e| {
            let g = Rc::clone(&g);
            sess2.post_recv(
                e,
                1,
                2,
                7,
                Box::new(move |_, len| g.borrow_mut().push((2, len))),
            );
        });
        eng2.run();
        let got = got.borrow();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&(1, 5)));
        assert!(got.contains(&(2, 4)));
    }

    #[test]
    fn per_pair_fifo_order_is_preserved() {
        let mut eng = engine(2);
        let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 2);
        for i in 0..4 {
            sess.send(&mut eng, 0, 1, 9, Rc::new(vec![0; 16 + i]));
        }
        let got: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let g = Rc::clone(&got);
            sess.post_recv(
                &mut eng,
                1,
                0,
                9,
                Box::new(move |_, len| g.borrow_mut().push(len)),
            );
        }
        eng.run();
        assert_eq!(*got.borrow(), vec![16, 17, 18, 19]);
        assert!(!sess.has_unmatched());
    }

    #[test]
    #[should_panic(expected = "rank pair 0 -> 3 is outside the 3-rank world")]
    fn post_recv_rejects_a_rank_outside_the_world() {
        // With dense `from * n + to` indexing this silently aliased the
        // queues of pair 1 -> 0.
        let mut eng = engine(3);
        let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 3);
        sess.post_recv(&mut eng, 3, 0, 7, Box::new(|_, _| {}));
    }

    #[test]
    #[should_panic(expected = "send 3 -> 0: never to self, never outside the 3-rank world")]
    fn send_rejects_a_rank_outside_the_world() {
        let mut eng = engine(3);
        let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 3);
        sess.send(&mut eng, 3, 0, 7, Rc::new(Vec::new()));
    }

    #[test]
    fn degraded_rank_slows_its_sends() {
        let time_with = |extra: f64| {
            let mut eng = engine(2);
            let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 2);
            sess.inner.boxes.borrow_mut().set_rank_overhead_us(0, extra);
            sess.send(&mut eng, 0, 1, 1, Rc::new(vec![0u8; 1024]));
            sess.post_recv(&mut eng, 1, 0, 1, Box::new(|_, _| {}));
            eng.run().as_secs_f64()
        };
        assert!(time_with(500.0) > time_with(0.0));
    }

    #[test]
    fn open_degrade_window_stretches_sends() {
        let time_with = |windows: Vec<DegradeWindow>| {
            let mut eng = engine(2);
            let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 2);
            sess.inner.boxes.borrow_mut().set_degrade_windows(windows);
            sess.send(&mut eng, 0, 1, 1, Rc::new(vec![0u8; 4096]));
            sess.post_recv(&mut eng, 1, 0, 1, Box::new(|_, _| {}));
            eng.run().as_secs_f64()
        };
        let clean = time_with(Vec::new());
        let open = time_with(vec![DegradeWindow {
            start_us: 0.0,
            end_us: 1e9,
            factor: 0.1,
        }]);
        let closed = time_with(vec![DegradeWindow {
            start_us: 1e9,
            end_us: 2e9,
            factor: 0.1,
        }]);
        assert!(open > clean, "{open} vs {clean}");
        assert_eq!(closed, clean);
    }

    #[test]
    fn rendezvous_threshold_adds_round_trips() {
        let time_with = |rendezvous: Option<u64>| {
            let mut eng = engine(2);
            let mut profile = crate::libs::mpich(Default::default()).profile;
            profile.rendezvous_bytes = rendezvous;
            let sess = MultiSession::new(profile, 2);
            sess.send(&mut eng, 0, 1, 1, Rc::new(vec![0u8; 64 * 1024]));
            sess.post_recv(&mut eng, 1, 0, 1, Box::new(|_, _| {}));
            eng.run().as_secs_f64()
        };
        assert!(time_with(Some(1024)) > time_with(None));
    }
}
