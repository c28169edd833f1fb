//! The discrete-event engine.
//!
//! An [`Engine`] owns a user-supplied *world* (the mutable simulation
//! state) and a priority queue of scheduled events. Each event is a
//! one-shot closure receiving `&mut Engine<W>`, so it can inspect and
//! mutate the world and schedule further events.
//!
//! # Determinism
//!
//! Events are ordered by `(time, sequence-number)`: two events scheduled
//! for the same instant fire in the order they were scheduled. Combined
//! with the integer clock this makes every run bit-for-bit reproducible —
//! a property the test suite checks with property tests.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};
use crate::trace::SharedSink;

/// A one-shot event callback.
pub type EventFn<W> = Box<dyn FnOnce(&mut Engine<W>)>;

struct Scheduled<W> {
    time: SimTime,
    seq: u64,
    f: EventFn<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}

impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<W> Ord for Scheduled<W> {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Discrete-event simulation engine over a world `W`.
pub struct Engine<W> {
    /// The simulation state shared by all events.
    pub world: W,
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<W>>,
    executed: u64,
    /// Hard cap on executed events; guards against runaway event loops in
    /// buggy models. `u64::MAX` by default.
    pub event_limit: u64,
    trace: Option<SharedSink>,
}

impl<W> Engine<W> {
    /// Create an engine at time zero wrapping `world`.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
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

    /// Schedule `f` to run at absolute time `t`.
    ///
    /// Scheduling in the past is a model bug; it panics in debug builds and
    /// clamps to `now` in release builds.
    // analyze: hot
    pub fn schedule_at<F>(&mut self, t: SimTime, f: F)
    where
        F: FnOnce(&mut Engine<W>) + 'static,
    {
        debug_assert!(
            t >= self.now,
            "scheduled event in the past: {t} < {}",
            self.now
        );
        let time = t.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            time,
            seq,
            // lint:allow(hot-cost) -- one boxed closure per event is the current storage model; slab-allocated event records are ROADMAP item 1
            f: Box::new(f),
        });
    }

    /// Schedule `f` to run `d` after the current instant.
    #[inline]
    pub fn schedule_in<F>(&mut self, d: SimDuration, f: F)
    where
        F: FnOnce(&mut Engine<W>) + 'static,
    {
        let t = self.now + d;
        self.schedule_at(t, f);
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
        (ev.f)(self);
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
        while let Some(head) = self.queue.peek() {
            if head.time > t {
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
