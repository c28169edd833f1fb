//! N-rank tagged messaging over the multi-node fabric.
//!
//! [`Session`](crate::Session) models two ranks in microscopic detail;
//! collective-pattern studies need *N* ranks exchanging tagged messages
//! with library overheads applied per message. [`MultiSession`] layers
//! exactly that over [`protosim::multinode`]: per ordered rank pair a
//! FIFO of in-flight payloads matched against a FIFO of posted
//! receives (the same match discipline mplite's socket mesh gives the
//! real backend), with the bound [`LibProfile`]'s per-message costs —
//! send/receive overheads, copy passes, optional byte checking, and
//! the eager→rendezvous handshake — charged on the endpoint CPUs.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use faultlab::DegradeWindow;
use protosim::multinode::{self, MultiEngine};
use simcore::SimDuration;

use crate::profile::LibProfile;

/// A delivered message body. Reference-counted so queueing and delivery
/// never copy simulated payload bytes at host level.
pub type Payload = Rc<Vec<u8>>;

/// Completion callback for a posted receive.
pub type RecvContinuation = Box<dyn FnOnce(&mut MultiEngine, Payload)>;

/// Per-ordered-pair state of an N-rank world, allocated on first use:
/// a collective touches O(log n) peers per rank, so a dense n-by-n
/// table is nearly all empty slots and at 1024 ranks costs more to
/// build than the run it serves. `new` is O(n).
pub struct PairTable<Q> {
    /// Indexed by receiver; keyed by sender.
    by_receiver: Vec<BTreeMap<u32, Q>>,
}

impl<Q: Default> PairTable<Q> {
    /// An empty table for `n` ranks.
    pub fn new(n: usize) -> PairTable<Q> {
        PairTable {
            by_receiver: (0..n).map(|_| BTreeMap::new()).collect(),
        }
    }

    /// The state of pair `from → to`, created empty on first use.
    /// Panics if either rank is outside the world.
    pub fn pair(&mut self, from: usize, to: usize) -> &mut Q {
        let n = self.by_receiver.len();
        assert!(
            from < n && to < n,
            "rank pair {from} -> {to} is outside the {n}-rank world"
        );
        self.by_receiver[to].entry(from as u32).or_default()
    }

    /// Every pair touched so far as `((from, to), state)`, in
    /// (receiver, sender) order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), &Q)> {
        self.by_receiver
            .iter()
            .enumerate()
            .flat_map(|(to, senders)| {
                senders
                    .iter()
                    .map(move |(&from, q)| ((from as usize, to), q))
            })
    }
}

#[derive(Default)]
struct PairQueues {
    /// Arrived-but-unclaimed messages, FIFO.
    arrived: VecDeque<(i32, Payload)>,
    /// Posted-but-unmatched receives, FIFO.
    posted: VecDeque<(i32, RecvContinuation)>,
}

struct Inner {
    profile: LibProfile,
    n: usize,
    pairs: RefCell<PairTable<PairQueues>>,
    /// Extra per-send CPU microseconds per rank (degradation studies).
    extra_send_us: RefCell<Vec<f64>>,
    /// Timed degradation windows from a fault plan: sends issued while
    /// a window is open run at the window's fraction of nominal speed.
    degrade: RefCell<Vec<DegradeWindow>>,
}

/// An N-rank tagged messaging session bound to one library profile.
/// Cheap to clone; clones share the queues.
#[derive(Clone)]
pub struct MultiSession {
    inner: Rc<Inner>,
}

impl MultiSession {
    /// A session for `n` ranks under `profile`'s per-message costs.
    pub fn new(profile: LibProfile, n: usize) -> MultiSession {
        MultiSession {
            inner: Rc::new(Inner {
                profile,
                n,
                pairs: RefCell::new(PairTable::new(n)),
                extra_send_us: RefCell::new(vec![0.0; n]),
                degrade: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.inner.n
    }

    /// Add `us` microseconds of CPU work to every send `rank` issues —
    /// the degraded-rank knob the chaos sweeps turn.
    pub fn set_rank_overhead_us(&self, rank: usize, us: f64) {
        self.inner.extra_send_us.borrow_mut()[rank] = us;
    }

    /// Install a fault plan's timed degradation windows: a send issued
    /// while a window contains the current simulated time has its
    /// library work stretched by `1/factor` (every rank is affected —
    /// the windows model fabric-wide congestion, not one slow host).
    pub fn set_degrade_windows(&self, windows: Vec<DegradeWindow>) {
        *self.inner.degrade.borrow_mut() = windows;
    }

    /// The work stretch applied at `now_us`: the reciprocal of the
    /// smallest open window factor, `1.0` when no window is open.
    fn degrade_stretch(&self, now_us: f64) -> f64 {
        let mut factor = 1.0f64;
        for w in self.inner.degrade.borrow().iter() {
            if w.contains(now_us) {
                factor = factor.min(w.factor);
            }
        }
        1.0 / factor
    }

    /// Send `payload` from `from` to `to` under `tag`. The sender's
    /// library work is charged on its CPU now; the fabric then carries
    /// the bytes (with a rendezvous handshake above the profile's
    /// threshold) and the receiver's library work is charged on
    /// arrival, after which the payload matches a posted receive.
    pub fn send(&self, eng: &mut MultiEngine, from: usize, to: usize, tag: i32, payload: Payload) {
        let n = self.inner.n;
        assert!(
            from != to && from < n && to < n,
            "send {from} -> {to}: never to self, never outside the {n}-rank world"
        );
        let bytes = payload.len() as u64;
        let p = &self.inner.profile;
        let memcpy = eng.world.spec.host.cpu.memcpy_bps;
        let send_work = SimDuration::from_micros_f64(
            p.send_overhead_us + self.inner.extra_send_us.borrow()[from],
        ) + SimDuration::for_bytes(bytes * u64::from(p.send_copies), memcpy);
        let now = eng.now();
        let stretch = self.degrade_stretch(now.as_micros_f64());
        let send_work = if stretch > 1.0 {
            SimDuration::from_micros_f64(send_work.as_micros_f64() * stretch)
        } else {
            send_work
        };
        let ready = eng.world.nodes[from].cpu.serve_for(now, send_work, bytes);
        let this = self.clone();
        let needs_handshake = matches!(p.rendezvous_bytes, Some(t) if bytes > t);
        let ctrl = p.ctrl_bytes.max(1);
        eng.schedule_at(ready, move |e| {
            if needs_handshake {
                // RTS to the receiver, CTS back, then the payload.
                multinode::send(
                    e,
                    from,
                    to,
                    ctrl,
                    Box::new(move |e| {
                        multinode::send(
                            e,
                            to,
                            from,
                            ctrl,
                            Box::new(move |e| this.send_data(e, from, to, tag, payload)),
                        );
                    }),
                );
            } else {
                this.send_data(e, from, to, tag, payload);
            }
        });
    }

    fn send_data(&self, eng: &mut MultiEngine, from: usize, to: usize, tag: i32, payload: Payload) {
        let bytes = payload.len() as u64;
        let this = self.clone();
        multinode::send(
            eng,
            from,
            to,
            bytes.max(1),
            Box::new(move |e| {
                // Receiver-side library work: overhead, drain copies,
                // and the optional full-payload byte check.
                let p = &this.inner.profile;
                let memcpy = e.world.spec.host.cpu.memcpy_bps;
                let recv_work = SimDuration::from_micros_f64(p.recv_overhead_us)
                    + SimDuration::for_bytes(bytes * u64::from(p.recv_copies), memcpy)
                    + SimDuration::for_bytes(bytes, p.byte_check_bps);
                let now = e.now();
                let done = e.world.nodes[to].cpu.serve_for(now, recv_work, bytes);
                e.schedule_at(done, move |e| this.deliver(e, from, to, tag, payload));
            }),
        );
    }

    fn deliver(&self, eng: &mut MultiEngine, from: usize, to: usize, tag: i32, payload: Payload) {
        let mut pairs = self.inner.pairs.borrow_mut();
        let q = pairs.pair(from, to);
        if let Some((want, k)) = q.posted.pop_front() {
            assert_eq!(
                want, tag,
                "rank {to} posted tag {want} from {from} but got {tag}: collective tags desynchronized"
            );
            drop(pairs);
            k(eng, payload);
        } else {
            q.arrived.push_back((tag, payload));
        }
    }

    /// Post a receive at rank `to` for the next message from `from`
    /// under `tag`; `k` runs (as a scheduled event, never synchronously)
    /// once the payload is in `to`'s memory and past the library's
    /// receive path.
    pub fn post_recv(
        &self,
        eng: &mut MultiEngine,
        to: usize,
        from: usize,
        tag: i32,
        k: RecvContinuation,
    ) {
        let mut pairs = self.inner.pairs.borrow_mut();
        let q = pairs.pair(from, to);
        if let Some((got, payload)) = q.arrived.pop_front() {
            assert_eq!(
                got, tag,
                "rank {to} posted tag {tag} from {from} but head-of-line is {got}: collective tags desynchronized"
            );
            drop(pairs);
            let now = eng.now();
            eng.schedule_at(now, move |e| k(e, payload));
        } else {
            q.posted.push_back((tag, k));
        }
    }

    /// True if any queue still holds an unmatched arrival or posted
    /// receive — a completed run should leave everything drained.
    pub fn has_unmatched(&self) -> bool {
        self.inner
            .pairs
            .borrow()
            .iter()
            .any(|(_, q)| !q.arrived.is_empty() || !q.posted.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protosim::multinode::MultiNet;

    /// A delivered message: (source rank, payload).
    type Delivery = (usize, Vec<u8>);

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
            Box::new(move |_, p| g.borrow_mut().push((1, p.to_vec()))),
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
                Box::new(move |_, p| g.borrow_mut().push((2, p.to_vec()))),
            );
        });
        eng2.run();
        let got = got.borrow();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&(1, b"early".to_vec())));
        assert!(got.contains(&(2, b"late".to_vec())));
    }

    #[test]
    fn per_pair_fifo_order_is_preserved() {
        let mut eng = engine(2);
        let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 2);
        for i in 0..4u8 {
            sess.send(&mut eng, 0, 1, 9, Rc::new(vec![i; 16]));
        }
        let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let g = Rc::clone(&got);
            sess.post_recv(
                &mut eng,
                1,
                0,
                9,
                Box::new(move |_, p| g.borrow_mut().push(p[0])),
            );
        }
        eng.run();
        assert_eq!(*got.borrow(), vec![0, 1, 2, 3]);
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
    fn pair_state_is_allocated_on_first_use_only() {
        let mut table: PairTable<Vec<u8>> = PairTable::new(1 << 16);
        assert_eq!(table.iter().count(), 0);
        table.pair(65_535, 0).push(1);
        table.pair(2, 65_535).push(2);
        table.pair(65_535, 0).push(3);
        let touched: Vec<_> = table.iter().collect();
        assert_eq!(
            touched,
            [((65_535, 0), &vec![1, 3]), ((2, 65_535), &vec![2])]
        );
    }

    #[test]
    fn degraded_rank_slows_its_sends() {
        let time_with = |extra: f64| {
            let mut eng = engine(2);
            let sess = MultiSession::new(crate::libs::mpich(Default::default()).profile, 2);
            sess.set_rank_overhead_us(0, extra);
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
            sess.set_degrade_windows(windows);
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
