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
/// Transports schedule a message's segments in the order they will
/// arrive, so most pushes are not earlier than the latest one pending.
/// Those append to `run` in O(1); anything earlier than the run's back
/// goes to `heap`. `seq` rises with every push, so `run` is sorted by
/// `(time, seq)`; the heap yields its own minimum; keys are unique; hence
/// the lesser of the two heads is the global minimum and `pop` returns
/// events in exactly the order one heap over all of them would.
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

    fn peek_time(&self) -> Option<SimTime> {
        let head = if self.next_is_run()? {
            self.run.front()
        } else {
            self.heap.peek()
        };
        head.map(|ev| ev.time)
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

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
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
        // lint:allow(hot-cost) -- the closure arm boxes; per-segment events are typed data (schedule_event_at), per-message continuations stay closures until ROADMAP item 3/4 rewrites those worlds
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

    /// Pop and run the next event. Returns `false` when the queue is empty
    /// or the event limit has been reached.
    // analyze: hot
    pub fn step(&mut self) -> bool {
        if self.executed >= self.event_limit {
            return false;
        }
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        self.now = ev.time;
        self.executed += 1;
        if let Some(sink) = &self.trace {
            sink.event_dispatched(ev.time);
        }
        match ev.what {
            Payload::Call(f) => f(self),
            Payload::Data(e) => e.dispatch(self),
        }
        true
    }

    /// Run until the event queue drains. Returns the final simulated time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Run events up to and including time `t`; later events stay queued.
    /// The clock is left at `min(t, time of last executed event)` — it does
    /// not jump forward past the last event.
    pub fn run_until(&mut self, t: SimTime) -> SimTime {
        while let Some(head) = self.queue.peek_time() {
            if head > t {
                break;
            }
            if !self.step() {
                break;
            }
        }
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
        // ...an 8-byte event (protosim's NetEvent) shares the closure
        // arm's bytes, and a 12-byte one stays within 40: every byte here
        // is moved twice per event, and a 56-byte record cost the hold
        // model +40 % when measured.
        assert_eq!(size_of::<Scheduled<(), [u32; 2]>>(), 32);
        assert!(size_of::<Scheduled<(), [u32; 3]>>() <= 40);
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
