//! Wall-clock trace recorder for real (non-simulated) runs.
//!
//! [`WallTracer`] is the real-mode counterpart of [`crate::Tracer`]: the
//! same ring buffer and per-stage registry, but timestamps are monotonic
//! nanoseconds since the tracer was created and the store is a mutex so
//! `mplite`'s writer/reader threads can record concurrently.
//!
//! This module is the *only* place in the workspace where trace records
//! may be stamped from the wall clock — clippy's `disallowed_types`
//! rejects use of this API from simulation crates, which must stamp
//! records with `SimTime` via [`crate::Tracer`] instead.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "this module implements the real-mode clock and its recorder"
)]

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::tracer::{Core, StageTotal, TraceEvent};

/// An opaque wall-clock reading (nanoseconds since the tracer's origin).
/// Obtained from [`WallTracer::now_wall`] and paid back into
/// [`WallTracer::span_wall`].
#[derive(Debug, Clone, Copy)]
pub struct WallStamp {
    ns: u64,
}

/// Thread-safe wall-clock trace recorder.
pub struct WallTracer {
    origin: Instant,
    core: Mutex<Core>,
}

impl WallTracer {
    /// A tracer with the default ring capacity.
    pub fn new() -> Arc<Self> {
        WallTracer::with_capacity(crate::Tracer::DEFAULT_CAPACITY)
    }

    /// A tracer retaining at most `capacity` raw events.
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(WallTracer {
            origin: Instant::now(),
            core: Mutex::new(Core::new(capacity)),
        })
    }

    /// Recording must survive a panicking peer thread: take the data
    /// even if the mutex was poisoned.
    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current monotonic reading, for later use as a span start.
    pub fn now_wall(&self) -> WallStamp {
        WallStamp {
            ns: self.origin.elapsed().as_nanos() as u64,
        }
    }

    /// Record a span from `start` (a prior [`now_wall`](WallTracer::now_wall)
    /// reading) to now.
    pub fn span_wall(
        &self,
        stage: &'static str,
        track: u32,
        start: WallStamp,
        bytes: u64,
        msg: u64,
    ) {
        let end = self.now_wall();
        self.lock()
            .record_span(stage, track, start.ns, end.ns.max(start.ns), bytes, msg);
    }

    /// Record an instantaneous event at the current reading.
    pub fn instant_wall(&self, name: &'static str, track: u32, bytes: u64, msg: u64) {
        let at = self.now_wall();
        self.lock().record_instant(name, track, at.ns, bytes, msg);
    }

    /// Retained raw events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events()
    }

    /// Exact per-`(track, stage)` aggregates.
    pub fn stage_totals(&self) -> Vec<StageTotal> {
        self.lock().stage_totals()
    }

    /// Spans recorded so far (including any no longer in the ring).
    pub fn span_count(&self) -> u64 {
        self.lock().span_count()
    }

    /// Events overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped()
    }

    /// Drop all recorded data but keep the configuration and origin.
    pub fn clear(&self) {
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_across_threads() {
        let tr = WallTracer::new();
        let t2 = tr.clone();
        let h = std::thread::spawn(move || {
            let s = t2.now_wall();
            t2.span_wall("send", 1, s, 64, 2);
        });
        let s = tr.now_wall();
        tr.span_wall("recv", 0, s, 32, 1);
        h.join().expect("worker thread");
        assert_eq!(tr.span_count(), 2);
        let totals = tr.stage_totals();
        assert_eq!(totals.len(), 2);
        let ev = tr.events();
        assert!(ev.iter().all(|e| e.end_ns >= e.start_ns));
        assert!(ev.iter().any(|e| e.stage == "send" && e.msg == 2));
    }

    #[test]
    fn stamps_are_monotonic() {
        let tr = WallTracer::new();
        let a = tr.now_wall();
        let b = tr.now_wall();
        assert!(b.ns >= a.ns);
    }

    #[test]
    fn instants_and_clear() {
        let tr = WallTracer::with_capacity(8);
        tr.instant_wall("send", 0, 10, 1);
        assert_eq!(tr.events().len(), 1);
        tr.clear();
        assert!(tr.events().is_empty());
        assert_eq!(tr.dropped(), 0);
    }
}
