//! Tag matching. The wire format lives in [`crate::frame`]; this module
//! takes over once a frame is verified. The matching engine pairs
//! incoming messages with posted receives the way MP_Lite (and MPI) do:
//! a receive may name a specific source or [`ANY_SOURCE`], a specific tag
//! or [`ANY_TAG`]; unmatched arrivals queue as *unexpected* messages and
//! are consumed in arrival order.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::buf::Bytes;
use crate::sync::{Condvar, Mutex};

use crate::error::{MpError, Result};
use crate::lifecycle::ConnLifeState;

/// Wildcard source for receives.
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag for receives.
pub const ANY_TAG: i32 = -1;

/// Copy the first `N` bytes of a slice into a fixed array. Callers index
/// with a range of at least `N` bytes, so the copy cannot fail.
pub(crate) fn le_bytes<const N: usize>(s: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&s[..N]);
    out
}

/// A delivered message.
#[derive(Debug, Clone)]
pub struct InMsg {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: i32,
    /// Payload.
    pub data: Bytes,
}

/// Completion slot shared between a posted receive and the reader threads.
#[derive(Debug)]
pub struct RecvSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Debug)]
enum SlotState {
    Waiting,
    Done(InMsg),
    Failed(String),
}

impl RecvSlot {
    fn new() -> Arc<RecvSlot> {
        Arc::new(RecvSlot {
            state: Mutex::new(SlotState::Waiting),
            cv: Condvar::new(),
        })
    }

    /// Fulfil the slot with a message.
    pub(crate) fn fulfil(&self, msg: InMsg) {
        let mut st = self.state.lock();
        *st = SlotState::Done(msg);
        self.cv.notify_all();
    }

    /// Fail the slot (peer disconnected, shutdown).
    pub(crate) fn fail(&self, why: String) {
        let mut st = self.state.lock();
        if matches!(*st, SlotState::Waiting) {
            *st = SlotState::Failed(why);
            self.cv.notify_all();
        }
    }

    /// Non-blocking completion test.
    pub fn try_take(&self) -> Option<Result<InMsg>> {
        let mut st = self.state.lock();
        match std::mem::replace(&mut *st, SlotState::Waiting) {
            SlotState::Waiting => None,
            SlotState::Done(m) => Some(Ok(m)),
            SlotState::Failed(w) => Some(Err(MpError::Io(std::io::Error::other(w)))),
        }
    }

    /// Block until the slot completes or `deadline` elapses. `None`
    /// means the deadline expired with the receive still outstanding —
    /// the caller decides what that implies (the collective executor
    /// declares the awaited peer dead).
    pub(crate) fn wait_deadline(&self, deadline: std::time::Duration) -> Option<Result<InMsg>> {
        #[expect(
            clippy::disallowed_methods,
            reason = "real-mode deadline primitive: the slot owns its wait clock"
        )]
        let start = std::time::Instant::now();
        let mut st = self.state.lock();
        loop {
            match std::mem::replace(&mut *st, SlotState::Waiting) {
                SlotState::Waiting => {
                    let elapsed = start.elapsed();
                    if elapsed >= deadline {
                        return None;
                    }
                    // Timeout and spurious wakes both re-loop; the
                    // elapsed check above terminates.
                    let _ = self.cv.wait_timeout(&mut st, deadline - elapsed);
                }
                SlotState::Done(m) => return Some(Ok(m)),
                SlotState::Failed(w) => return Some(Err(MpError::Io(std::io::Error::other(w)))),
            }
        }
    }

    /// Block until the slot completes.
    pub fn wait(&self) -> Result<InMsg> {
        let mut st = self.state.lock();
        loop {
            match std::mem::replace(&mut *st, SlotState::Waiting) {
                SlotState::Waiting => self.cv.wait(&mut st),
                SlotState::Done(m) => return Ok(m),
                SlotState::Failed(w) => return Err(MpError::Io(std::io::Error::other(w))),
            }
        }
    }
}

/// A receive posted before its message arrived.
struct PostedRecv {
    src: i32,
    tag: i32,
    slot: Arc<RecvSlot>,
}

/// MPI-style matching: posted receives vs. unexpected messages.
///
/// Thread-safe: reader threads call [`MatchEngine::deliver`], application
/// threads call [`MatchEngine::post`].
///
/// The engine also owns the communicator's connection lifecycle state
/// ([`ConnLifeState`], spec of record: `mplite.connection`): it is the
/// one object every thread of a communicator shares, so poison/finalize
/// transitions serialize under its lock.
pub struct MatchEngine {
    inner: Mutex<MatchInner>,
}

struct MatchInner {
    unexpected: VecDeque<InMsg>,
    posted: VecDeque<PostedRecv>,
    life: ConnLifeState,
}

impl Default for MatchInner {
    fn default() -> MatchInner {
        MatchInner {
            unexpected: VecDeque::new(),
            posted: VecDeque::new(),
            life: ConnLifeState::initial(),
        }
    }
}

fn matches(want_src: i32, want_tag: i32, msg: &InMsg) -> bool {
    (want_src == ANY_SOURCE || want_src as usize == msg.src)
        && (want_tag == ANY_TAG || want_tag == msg.tag)
}

impl MatchEngine {
    /// An empty matching engine.
    pub fn new() -> MatchEngine {
        MatchEngine {
            inner: Mutex::new(MatchInner::default()),
        }
    }

    /// Reader-thread entry: route an arrived message to a posted receive
    /// or queue it as unexpected.
    pub fn deliver(&self, msg: InMsg) {
        let slot = {
            let mut inner = self.inner.lock();
            match inner
                .posted
                .iter()
                .position(|p| matches(p.src, p.tag, &msg))
            {
                Some(i) => inner.posted.remove(i).map(|p| p.slot),
                None => {
                    inner.unexpected.push_back(msg.clone());
                    None
                }
            }
        };
        if let Some(slot) = slot {
            slot.fulfil(msg);
        }
    }

    /// Post a receive for `(src, tag)`; returns a slot that completes when
    /// a matching message is (or already was) available.
    pub fn post(&self, src: i32, tag: i32) -> Arc<RecvSlot> {
        let slot = RecvSlot::new();
        let ready = {
            let mut inner = self.inner.lock();
            if !matches!(
                inner.life,
                ConnLifeState::Booting(_) | ConnLifeState::Steady(_)
            ) {
                slot.fail("communicator shut down".into());
                None
            } else if let Some(i) = inner.unexpected.iter().position(|m| matches(src, tag, m)) {
                inner.unexpected.remove(i)
            } else {
                inner.posted.push_back(PostedRecv {
                    src,
                    tag,
                    slot: Arc::clone(&slot),
                });
                None
            }
        };
        if let Some(msg) = ready {
            slot.fulfil(msg);
        }
        slot
    }

    /// Probe without consuming: is a matching message queued?
    pub fn probe(&self, src: i32, tag: i32) -> Option<(usize, i32, usize)> {
        let inner = self.inner.lock();
        inner
            .unexpected
            .iter()
            .find(|m| matches(src, tag, m))
            .map(|m| (m.src, m.tag, m.data.len()))
    }

    /// Boot complete: the mesh is connected and the service threads are
    /// up. A no-op if a reader already poisoned the engine — poison must
    /// not be papered over by a late `ready`.
    pub(crate) fn ready(&self) {
        let mut inner = self.inner.lock();
        inner.life = match inner.life {
            ConnLifeState::Booting(s) => s.ready().into(),
            other => other,
        };
    }

    /// Fail every posted receive and refuse future posts (peer-death
    /// path). The engine stays usable for draining already-queued
    /// unexpected messages until [`MatchEngine::finalize`].
    pub(crate) fn poison(&self, why: &str) {
        let posted: Vec<Arc<RecvSlot>> = {
            let mut inner = self.inner.lock();
            inner.life = match inner.life {
                ConnLifeState::Booting(s) => s.poison().into(),
                ConnLifeState::Steady(s) => s.poison().into(),
                other => other,
            };
            inner.posted.drain(..).map(|p| p.slot).collect()
        };
        for slot in posted {
            slot.fail(why.to_string());
        }
    }

    /// Retire the engine for good (communicator drop). Terminal: every
    /// prior state finalizes, and nothing leaves `Finalized`.
    pub(crate) fn finalize(&self, why: &str) {
        let posted: Vec<Arc<RecvSlot>> = {
            let mut inner = self.inner.lock();
            inner.life = match inner.life {
                ConnLifeState::Booting(s) => s.finalize().into(),
                ConnLifeState::Steady(s) => s.finalize().into(),
                ConnLifeState::Poisoned(s) => s.finalize().into(),
                other => other,
            };
            inner.posted.drain(..).map(|p| p.slot).collect()
        };
        for slot in posted {
            slot.fail(why.to_string());
        }
    }

    /// Number of unexpected messages held (diagnostics).
    pub fn unexpected_len(&self) -> usize {
        self.inner.lock().unexpected.len()
    }
}

impl Default for MatchEngine {
    fn default() -> Self {
        MatchEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, tag: i32, data: &[u8]) -> InMsg {
        InMsg {
            src,
            tag,
            data: Bytes::copy_from_slice(data),
        }
    }

    #[test]
    fn unexpected_then_post() {
        let m = MatchEngine::new();
        m.deliver(msg(1, 5, b"hello"));
        let slot = m.post(1, 5);
        let got = slot.wait().unwrap();
        assert_eq!(&got.data[..], b"hello");
        assert_eq!(m.unexpected_len(), 0);
    }

    #[test]
    fn post_then_deliver() {
        let m = MatchEngine::new();
        let slot = m.post(0, 9);
        assert!(slot.try_take().is_none());
        m.deliver(msg(0, 9, b"x"));
        assert_eq!(&slot.wait().unwrap().data[..], b"x");
    }

    #[test]
    fn wildcards_match_anything() {
        let m = MatchEngine::new();
        m.deliver(msg(3, 42, b"w"));
        let got = m.post(ANY_SOURCE, ANY_TAG).wait().unwrap();
        assert_eq!(got.src, 3);
        assert_eq!(got.tag, 42);
    }

    #[test]
    fn specific_recv_skips_nonmatching() {
        let m = MatchEngine::new();
        m.deliver(msg(0, 1, b"a"));
        m.deliver(msg(0, 2, b"b"));
        let got = m.post(0, 2).wait().unwrap();
        assert_eq!(&got.data[..], b"b");
        // "a" is still there for a wildcard.
        let got = m.post(ANY_SOURCE, ANY_TAG).wait().unwrap();
        assert_eq!(&got.data[..], b"a");
    }

    #[test]
    fn arrival_order_preserved_for_same_match() {
        let m = MatchEngine::new();
        m.deliver(msg(0, 1, b"first"));
        m.deliver(msg(0, 1, b"second"));
        assert_eq!(&m.post(0, 1).wait().unwrap().data[..], b"first");
        assert_eq!(&m.post(0, 1).wait().unwrap().data[..], b"second");
    }

    #[test]
    fn posted_order_preserved_for_same_match() {
        let m = MatchEngine::new();
        let s1 = m.post(0, 1);
        let s2 = m.post(0, 1);
        m.deliver(msg(0, 1, b"first"));
        m.deliver(msg(0, 1, b"second"));
        assert_eq!(&s1.wait().unwrap().data[..], b"first");
        assert_eq!(&s2.wait().unwrap().data[..], b"second");
    }

    #[test]
    fn probe_does_not_consume() {
        let m = MatchEngine::new();
        m.deliver(msg(2, 7, b"xyz"));
        assert_eq!(m.probe(ANY_SOURCE, ANY_TAG), Some((2, 7, 3)));
        assert_eq!(m.probe(ANY_SOURCE, ANY_TAG), Some((2, 7, 3)));
        assert_eq!(m.probe(1, ANY_TAG), None);
        assert_eq!(m.unexpected_len(), 1);
    }

    #[test]
    fn wait_deadline_times_out_then_still_completes() {
        let m = MatchEngine::new();
        let slot = m.post(0, 1);
        assert!(
            slot.wait_deadline(std::time::Duration::from_millis(30))
                .is_none(),
            "nothing delivered: the deadline must expire"
        );
        m.deliver(msg(0, 1, b"late"));
        let got = slot
            .wait_deadline(std::time::Duration::from_secs(1))
            .expect("delivered")
            .expect("ok");
        assert_eq!(&got.data[..], b"late");
    }

    #[test]
    fn poison_fails_posted_and_future() {
        let m = MatchEngine::new();
        let slot = m.post(0, 0);
        m.poison("bye");
        assert!(slot.wait().is_err());
        assert!(m.post(0, 0).wait().is_err());
    }

    #[test]
    fn finalize_fails_posted_and_future() {
        let m = MatchEngine::new();
        m.ready();
        let slot = m.post(0, 0);
        m.finalize("done");
        assert!(slot.wait().is_err());
        assert!(m.post(0, 0).wait().is_err());
    }

    #[test]
    fn ready_does_not_resurrect_a_poisoned_engine() {
        let m = MatchEngine::new();
        m.poison("peer died during boot");
        m.ready();
        assert!(m.post(0, 0).wait().is_err());
    }

    #[test]
    fn concurrent_deliver_and_post() {
        let m = Arc::new(MatchEngine::new());
        let m2 = Arc::clone(&m);
        let producer = std::thread::spawn(move || {
            for i in 0..1000u32 {
                m2.deliver(msg(0, 1, &i.to_le_bytes()));
            }
        });
        let mut seen = Vec::new();
        for _ in 0..1000 {
            let got = m.post(0, 1).wait().unwrap();
            seen.push(u32::from_le_bytes(got.data[..].try_into().unwrap()));
        }
        producer.join().unwrap();
        let expect: Vec<u32> = (0..1000).collect();
        assert_eq!(seen, expect, "FIFO per (src, tag) must hold");
    }
}
