//! The discrete-event engine.
//!
//! An [`Engine`] owns a user-supplied *world* (the mutable simulation
//! state) and a priority queue of scheduled events. An event is either a
//! one-shot closure receiving `&mut Engine<W, E>`, or a plain-data value
//! of the world's own event type `E` (see [`Event`]); both can inspect
//! and mutate the world and schedule further events.
//!
//! # Determinism
//!
//! Events are ordered by `(time, sequence-number)`: two events scheduled
//! for the same instant fire in the order they were scheduled. Combined
//! with the integer clock this makes every run bit-for-bit reproducible —
//! a property the test suite checks with property tests.
//!
//! # Reserved keys and in-place dispatch
//!
//! A model that knows a long train of its own future events can keep
//! them out of the queue without changing the order: it
//! [`reserve`](Engine::reserve)s their sequence numbers where it would
//! have pushed them, queues only the train's front under its reserved key
//! ([`schedule_event_keyed`](Engine::schedule_event_keyed)), and, while
//! that front runs, dispatches the following ones in place for as long as
//! [`in_place_budget`](Engine::in_place_budget) proves each is the next
//! event the queue would have popped. Each is accounted by
//! [`dispatch_in_place`](Engine::dispatch_in_place) exactly as `step`
//! would have: it counts as executed, ticks the trace sink, and moves the
//! clock. Only `run` and `run_until` grant a budget; `step` dispatches
//! exactly one event.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};
use crate::trace::SharedSink;

/// A world's own event vocabulary: plain data the engine stores inline
/// in its queue and hands back to [`dispatch`](Event::dispatch) when due.
/// The per-segment events of a transport are scheduled this way — no
/// allocation, one static call — while rare per-message continuations
/// stay closures ([`Engine::schedule_at`]).
pub trait Event<W>: Sized {
    /// Run the event against the engine that held it.
    fn dispatch(self, eng: &mut Engine<W, Self>);
}

/// The event type of an engine that schedules closures only (the default,
/// as `RandomState` is `HashMap`'s). Uninhabited, so its arm of the queue
/// record costs no space and no branch.
pub enum NoEvent {}

impl<W> Event<W> for NoEvent {
    fn dispatch(self, _: &mut Engine<W, NoEvent>) {
        match self {}
    }
}

/// A one-shot event callback.
pub type EventFn<W, E = NoEvent> = Box<dyn FnOnce(&mut Engine<W, E>)>;

enum Payload<W, E> {
    Call(EventFn<W, E>),
    Data(E),
}

/// The one queue record: key plus either kind of event.
struct Scheduled<W, E> {
    time: SimTime,
    seq: u64,
    what: Payload<W, E>,
}

impl<W, E> Scheduled<W, E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<W, E> PartialEq for Scheduled<W, E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<W, E> Eq for Scheduled<W, E> {}

impl<W, E> PartialOrd for Scheduled<W, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<W, E> Ord for Scheduled<W, E> {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// The pending-event set: a sorted run in front of a binary heap.
///
/// Most pushes are not earlier than the latest one pending. Those append
/// to `run` in O(1); anything whose key is below the run's back goes to
/// `heap`. A fresh push carries the largest sequence number yet, so for
/// it comparing times suffices; a reserved key compares in full. So `run`
/// is sorted by `(time, seq)`; the heap yields its own minimum; keys are
/// unique; hence the lesser of the two heads is the global minimum and
/// `pop` returns events in exactly the order one heap over all of them
/// would.
struct Queue<W, E> {
    run: VecDeque<Scheduled<W, E>>,
    heap: BinaryHeap<Scheduled<W, E>>,
}

impl<W, E> Queue<W, E> {
    fn new() -> Self {
        Queue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    #[inline]
    fn push(&mut self, ev: Scheduled<W, E>) {
        match self.run.back() {
            Some(back) if ev.time < back.time => self.heap.push(ev),
            _ => self.run.push_back(ev),
        }
    }

    #[inline]
    fn push_reserved(&mut self, ev: Scheduled<W, E>) {
        match self.run.back() {
            Some(back) if ev.key() < back.key() => self.heap.push(ev),
            _ => self.run.push_back(ev),
        }
    }

    /// Whether the next event is the run's front (else the heap's top);
    /// `None` when both are empty.
    #[inline]
    fn next_is_run(&self) -> Option<bool> {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => Some(r.key() < h.key()),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        let head = if self.next_is_run()? {
            self.run.front()
        } else {
            self.heap.peek()
        };
        head.map(Scheduled::key)
    }

    #[inline]
    fn pop(&mut self) -> Option<Scheduled<W, E>> {
        if self.next_is_run()? {
            self.run.pop_front()
        } else {
            self.heap.pop()
        }
    }
}

/// Discrete-event simulation engine over a world `W` whose typed events
/// are `E` ([`NoEvent`] for a world that schedules closures only).
pub struct Engine<W, E = NoEvent> {
    /// The simulation state shared by all events.
    pub world: W,
    now: SimTime,
    seq: u64,
    queue: Queue<W, E>,
    executed: u64,
    /// Hard cap on executed events; guards against runaway event loops in
    /// buggy models. `u64::MAX` by default.
    pub event_limit: u64,
    trace: Option<SharedSink>,
    /// The latest instant the running event may dispatch further events
    /// in place: `run`'s or `run_until`'s horizon; `None` under `step`.
    horizon: Option<SimTime>,
    /// How many of the executed events were dispatched in place.
    in_place: u64,
}

impl<W> Engine<W, NoEvent> {
    /// Create an engine at time zero wrapping `world`.
    pub fn new(world: W) -> Self {
        Engine::with_events(world)
    }
}

impl<W, E: Event<W>> Engine<W, E> {
    /// Create an engine at time zero wrapping a `world` that declares its
    /// own event type `E`.
    pub fn with_events(world: W) -> Self {
        Engine {
            world,
            now: SimTime::ZERO,
            seq: 0,
            queue: Queue::new(),
            executed: 0,
            event_limit: u64::MAX,
            trace: None,
            horizon: None,
            in_place: 0,
        }
    }

    /// Attach a [`TraceSink`](crate::trace::TraceSink) notified once per
    /// dispatched event (a cheap kernel-load counter). Observational only:
    /// the sink cannot influence ordering or timing.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.trace = Some(sink);
    }

    /// Detach any installed trace sink.
    pub fn clear_trace_sink(&mut self) {
        self.trace = None;
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far, whether popped from the queue or
    /// dispatched in place.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// How many of [`events_executed`](Engine::events_executed) were
    /// dispatched in place rather than popped from the queue.
    #[inline]
    pub fn events_in_place(&self) -> u64 {
        self.in_place
    }

    /// Number of events waiting in the queue. A model holding reserved
    /// events of its own (see the module docs) counts only the one it
    /// queued for their front.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    #[inline]
    fn push(&mut self, t: SimTime, what: Payload<W, E>) {
        debug_assert!(
            t >= self.now,
            "scheduled event in the past: {t} < {}",
            self.now
        );
        let time = t.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { time, seq, what });
    }

    /// Schedule `f` to run at absolute time `t`.
    ///
    /// Scheduling in the past is a model bug; it panics in debug builds and
    /// clamps to `now` in release builds.
    // analyze: hot
    pub fn schedule_at<F>(&mut self, t: SimTime, f: F)
    where
        F: FnOnce(&mut Engine<W, E>) + 'static,
    {
        // lint:allow(hot-cost) -- the closure arm boxes; per-segment events are typed data (schedule_event_at), per-message continuations stay closures until the two-rank and N-rank worlds share one typed event vocabulary
        let f: EventFn<W, E> = Box::new(f);
        self.push(t, Payload::Call(f));
    }

    /// Schedule `f` to run `d` after the current instant.
    #[inline]
    pub fn schedule_in<F>(&mut self, d: SimDuration, f: F)
    where
        F: FnOnce(&mut Engine<W, E>) + 'static,
    {
        let t = self.now + d;
        self.schedule_at(t, f);
    }

    /// Schedule the typed event `ev` at absolute time `t`: stored inline
    /// in the queue record, no allocation. Same past-time rule and the
    /// same `(time, seq)` order as [`schedule_at`](Engine::schedule_at) —
    /// the two kinds share one sequence counter and one queue.
    // analyze: hot
    #[inline]
    pub fn schedule_event_at(&mut self, t: SimTime, ev: E) {
        self.push(t, Payload::Data(ev));
    }

    /// Schedule the typed event `ev` to run `d` after the current instant.
    #[inline]
    pub fn schedule_event_in(&mut self, d: SimDuration, ev: E) {
        let t = self.now + d;
        self.schedule_event_at(t, ev);
    }

    /// The sequence number the next push or reservation receives.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Reserve `n` consecutive sequence numbers for events the caller
    /// keeps out of the queue, exactly where it would have pushed them;
    /// returns the first. Later pushes are numbered as if those `n` had
    /// been pushed.
    #[inline]
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Queue the typed event `ev` under a key reserved earlier with
    /// [`reserve`](Engine::reserve): it fires in the place `(t, seq)`
    /// gives it among all other events, as if pushed when reserved.
    // analyze: hot
    #[inline]
    pub fn schedule_event_keyed(&mut self, t: SimTime, seq: u64, ev: E) {
        debug_assert!(seq < self.seq, "key {seq} was never reserved");
        debug_assert!(
            t >= self.now,
            "scheduled event in the past: {t} < {}",
            self.now
        );
        let time = t.max(self.now);
        self.queue.push_reserved(Scheduled {
            time,
            seq,
            what: Payload::Data(ev),
        });
    }

    /// How many of the `count` reserved events keyed
    /// `(t0 + k·step, seq0 + k)`, `k < count`, the running event may
    /// dispatch in place: the longest prefix that precedes every queued
    /// event, lies within the horizon of the `run` or `run_until` that is
    /// dispatching, and stays under `event_limit`. Always 0 under `step`.
    /// The caller must dispatch them in key order, before queuing anything
    /// that could precede them.
    // analyze: hot
    #[inline]
    pub fn in_place_budget(&self, t0: SimTime, step: SimDuration, seq0: u64, count: u64) -> u64 {
        let Some(horizon) = self.horizon else {
            return 0;
        };
        let mut n = count.min(self.event_limit.saturating_sub(self.executed));
        if n == 0 || t0 > horizon {
            return 0;
        }
        let last = |n: u64| t0 + step * (n - 1);
        if n > 1 && last(n) > horizon {
            n = (horizon.0 - t0.0) / step.0 + 1;
        }
        let Some(head) = self.queue.peek_key() else {
            return n;
        };
        if head <= (last(n), seq0 + n - 1) {
            // Entries strictly earlier than the head's time, plus the one
            // landing on it if its sequence number is lower.
            let (ht, hs) = head;
            let gap = ht.0.saturating_sub(t0.0);
            n = match gap.checked_div(step.0) {
                _ if ht < t0 => 0,
                // All at `t0`, which is the head's instant.
                None => hs.saturating_sub(seq0),
                Some(k) if gap.is_multiple_of(step.0) => k + u64::from(seq0 + k < hs),
                Some(k) => k + 1,
            };
        }
        n
    }

    /// Account `n` reserved events at `t0 + k·step`, `k < n`, as
    /// dispatched in place by the running event (within its
    /// [`in_place_budget`](Engine::in_place_budget)): each counts as
    /// executed and ticks the trace sink as `step` would, and the clock
    /// moves to the last of them.
    // analyze: hot
    #[inline]
    pub fn dispatch_in_place(&mut self, t0: SimTime, step: SimDuration, n: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(t0 >= self.now, "in-place dispatch went backwards");
        debug_assert!(self.executed + n <= self.event_limit);
        self.executed += n;
        self.in_place += n;
        if let Some(sink) = &self.trace {
            for k in 0..n {
                sink.event_dispatched(t0 + step * k);
            }
        }
        self.now = t0 + step * (n - 1);
    }

    /// Pop and run the next event, granting it an in-place budget up to
    /// `horizon` (none when `None`).
    #[inline]
    fn dispatch_next(&mut self, horizon: Option<SimTime>) -> bool {
        if self.executed >= self.event_limit {
            return false;
        }
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        self.now = ev.time;
        self.executed += 1;
        self.horizon = horizon;
        if let Some(sink) = &self.trace {
            sink.event_dispatched(ev.time);
        }
        match ev.what {
            Payload::Call(f) => f(self),
            Payload::Data(e) => e.dispatch(self),
        }
        true
    }

    /// Pop and run exactly one event. Returns `false` when the queue is
    /// empty or the event limit has been reached.
    // analyze: hot
    pub fn step(&mut self) -> bool {
        self.dispatch_next(None)
    }

    /// Run until the event queue drains. Returns the final simulated time.
    pub fn run(&mut self) -> SimTime {
        while self.dispatch_next(Some(SimTime::MAX)) {}
        self.horizon = None;
        self.now
    }

    /// Run events up to and including time `t`; later events stay queued.
    /// The clock is left at `min(t, time of last executed event)` — it does
    /// not jump forward past the last event.
    pub fn run_until(&mut self, t: SimTime) -> SimTime {
        while let Some((head, _)) = self.queue.peek_key() {
            if head > t || !self.dispatch_next(Some(t)) {
                break;
            }
        }
        self.horizon = None;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new(Vec::new());
        eng.schedule_at(SimTime(300), |e| e.world.push(3));
        eng.schedule_at(SimTime(100), |e| e.world.push(1));
        eng.schedule_at(SimTime(200), |e| e.world.push(2));
        let end = eng.run();
        assert_eq!(eng.world, vec![1, 2, 3]);
        assert_eq!(end, SimTime(300));
        assert_eq!(eng.events_executed(), 3);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut eng: Engine<Vec<u32>> = Engine::new(Vec::new());
        for i in 0..100 {
            eng.schedule_at(SimTime(42), move |e| e.world.push(i));
        }
        eng.run();
        assert_eq!(eng.world, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng: Engine<Vec<u64>> = Engine::new(Vec::new());
        eng.schedule_at(SimTime(10), |e| {
            let now = e.now();
            e.world.push(now.as_nanos());
            e.schedule_in(SimDuration(5), |e| {
                let now = e.now();
                e.world.push(now.as_nanos());
            });
        });
        eng.run();
        assert_eq!(eng.world, vec![10, 15]);
    }

    #[test]
    fn run_until_leaves_later_events_queued() {
        let mut eng: Engine<Vec<u32>> = Engine::new(Vec::new());
        eng.schedule_at(SimTime(5), |e| e.world.push(5));
        eng.schedule_at(SimTime(15), |e| e.world.push(15));
        eng.run_until(SimTime(10));
        assert_eq!(eng.world, vec![5]);
        assert_eq!(eng.pending(), 1);
        eng.run();
        assert_eq!(eng.world, vec![5, 15]);
    }

    #[test]
    fn event_limit_stops_runaway_loops() {
        // An event that perpetually reschedules itself.
        fn tick(e: &mut Engine<u64>) {
            e.world += 1;
            e.schedule_in(SimDuration(1), tick);
        }
        let mut eng = Engine::new(0u64);
        eng.event_limit = 1000;
        eng.schedule_at(SimTime(0), tick);
        eng.run();
        assert_eq!(eng.world, 1000);
    }

    #[test]
    fn clock_does_not_move_without_events() {
        let mut eng: Engine<()> = Engine::new(());
        assert_eq!(eng.run(), SimTime::ZERO);
        assert_eq!(eng.now(), SimTime::ZERO);
    }

    #[test]
    fn world_shared_through_rc_refcell_ok() {
        // Events may capture shared handles as well as use the world.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut eng: Engine<()> = Engine::new(());
        for i in 0..4u32 {
            let log = Rc::clone(&log);
            eng.schedule_at(SimTime(u64::from(i)), move |_| log.borrow_mut().push(i));
        }
        eng.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn typed_and_closure_events_share_one_order() {
        struct Push(u32);
        impl Event<Vec<u32>> for Push {
            fn dispatch(self, eng: &mut Engine<Vec<u32>, Push>) {
                eng.world.push(self.0);
                if self.0 == 1 {
                    // A typed event schedules both kinds in turn.
                    eng.schedule_event_in(SimDuration(5), Push(4));
                    eng.schedule_in(SimDuration(5), |e| e.world.push(5));
                }
            }
        }
        let mut eng = Engine::with_events(Vec::new());
        eng.schedule_event_at(SimTime(20), Push(3));
        eng.schedule_at(SimTime(10), |e| e.world.push(0));
        eng.schedule_event_at(SimTime(10), Push(1));
        eng.schedule_at(SimTime(10), |e| e.world.push(2));
        assert_eq!(eng.pending(), 4);
        assert_eq!(eng.run(), SimTime(20));
        // 4 and 5 land at t=15: before Push(3) at t=20, in schedule order.
        assert_eq!(eng.world, vec![0, 1, 2, 4, 5, 3]);
    }

    #[test]
    fn queue_record_stays_small() {
        use std::mem::size_of;
        // Closure-only engines pay nothing for the typed arm...
        assert_eq!(size_of::<Scheduled<(), NoEvent>>(), 32);
        // ...an event of up to 8 bytes (protosim's NetEvent is one) shares
        // the closure arm's bytes, and a 12-byte one stays within 40: every byte here
        // is moved twice per event, and a 56-byte record cost the hold
        // model +40 % when measured.
        assert_eq!(size_of::<Scheduled<(), [u32; 2]>>(), 32);
        assert!(size_of::<Scheduled<(), [u32; 3]>>() <= 40);
    }

    /// A world that keeps a train of its own events out of the queue: an
    /// `Own` event stands for the train's front; the rest are reserved.
    #[derive(Default)]
    struct Trainer {
        log: Vec<(u64, u64)>,
        /// Reserved `(time, seq)` keys not yet dispatched, in order.
        train: VecDeque<(SimTime, u64)>,
        in_place: bool,
    }

    struct Own;

    impl Event<Trainer> for Own {
        fn dispatch(self, eng: &mut Engine<Trainer, Own>) {
            loop {
                let Some((t, seq)) = eng.world.train.pop_front() else {
                    return;
                };
                debug_assert_eq!(t, eng.now());
                eng.world.log.push((t.0, seq));
                let Some(&(next, nseq)) = eng.world.train.front() else {
                    return;
                };
                let budget = eng.in_place_budget(next, SimDuration::ZERO, nseq, 1);
                if eng.world.in_place && budget == 1 {
                    eng.dispatch_in_place(next, SimDuration::ZERO, 1);
                } else {
                    eng.schedule_event_keyed(next, nseq, Own);
                    return;
                }
            }
        }
    }

    /// Interleave a reserved train with closures: whether the train is
    /// dispatched in place or queued one key at a time, under `run`,
    /// `run_until` or `step`, every event fires at the same point of the
    /// one `(time, seq)` order, and the executed count is the same.
    #[test]
    fn reserved_train_fires_in_key_order_in_place_or_queued() {
        let drive = |in_place: bool, how: u8| {
            let mut eng: Engine<Trainer, Own> = Engine::with_events(Trainer {
                in_place,
                ..Trainer::default()
            });
            for k in 0..6u64 {
                eng.schedule_at(SimTime(10 * k + 5), move |e| {
                    let now = e.now().0;
                    e.world.log.push((now, u64::MAX - k));
                });
            }
            // The train: a reservation of eight keys, two per instant.
            let first = eng.reserve(8);
            for k in 0..8 {
                eng.world
                    .train
                    .push_back((SimTime(2 + 6 * (k / 2)), first + k));
            }
            eng.schedule_at(SimTime(30), |e| e.world.log.push((30, 999)));
            let (t0, s0) = eng.world.train[0];
            eng.schedule_event_keyed(t0, s0, Own);
            match how {
                0 => {
                    eng.run();
                }
                1 => {
                    eng.run_until(SimTime(20));
                    eng.run();
                }
                _ => while eng.step() {},
            }
            let (executed, now) = (eng.events_executed(), eng.now());
            (eng.world.log, executed, now)
        };
        let want = drive(false, 2);
        assert_eq!(want.1, 15);
        for in_place in [false, true] {
            for how in 0..3 {
                assert_eq!(drive(in_place, how), want, "in place {in_place}, run {how}");
            }
        }
    }

    #[test]
    fn in_place_budget_stops_at_the_queue_head_horizon_and_limit() {
        type Probe = Engine<Vec<u64>>;
        let b = |e: &Probe, t0, step, seq0, n| {
            e.in_place_budget(SimTime(t0), SimDuration(step), seq0, n)
        };
        let mut eng: Probe = Engine::new(Vec::new());
        // Nothing is running: no budget at all.
        assert_eq!(b(&eng, 5, 10, 0, 9), 0);
        let first = eng.reserve(100);
        eng.schedule_at(SimTime(45), |_| {}); // seq first + 100
        let late = eng.reserve(10);
        eng.schedule_at(SimTime(0), move |e| {
            // Keys reserved after the head was pushed lose the tie with it.
            e.world.push(b(e, 25, 10, late, 9));
            // Entries before 45 precede the head there; one landing on the
            // head's instant goes first iff its seq is lower (these were
            // reserved before the head was pushed, so it does).
            e.world.push(b(e, 5, 10, first, 9));
            e.world.push(b(e, 15, 10, first, 9));
            e.world.push(b(e, 45, 0, first, 3));
            e.world.push(b(e, 46, 0, first, 3));
            e.event_limit = e.events_executed() + 2;
            e.world.push(b(e, 5, 10, first, 9));
            e.event_limit = u64::MAX;
            e.dispatch_in_place(SimTime(5), SimDuration(10), 3);
            let (now, n, k) = (e.now(), e.events_executed(), e.events_in_place());
            e.world.extend([now.0, n, k]);
        });
        eng.run();
        assert_eq!(eng.world, vec![2, 5, 4, 3, 0, 2, 25, 4, 3]);
        // `run_until`'s horizon caps the budget...
        eng.schedule_at(SimTime(50), move |e| {
            let got = b(e, 55, 10, first, 9);
            e.world.push(got);
        });
        eng.run_until(SimTime(80));
        assert_eq!(eng.world[9], 3);
        // ...and under `step` the running event gets none.
        eng.schedule_at(SimTime(90), move |e| {
            let got = b(e, 91, 1, first, 5);
            e.world.push(got);
        });
        assert!(eng.step());
        assert_eq!(eng.world[10], 0);
        assert_eq!(eng.events_executed(), 7);
    }

    #[test]
    fn schedule_in_uses_current_time() {
        let mut eng: Engine<Vec<u64>> = Engine::new(Vec::new());
        eng.schedule_at(SimTime(100), |e| {
            e.schedule_in(SimDuration(50), |e| {
                let t = e.now().as_nanos();
                e.world.push(t);
            });
        });
        eng.run();
        assert_eq!(eng.world, vec![150]);
    }
}
