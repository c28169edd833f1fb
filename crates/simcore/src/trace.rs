//! Observability hooks for the simulation kernel.
//!
//! The kernel itself stays dependency-free and records nothing by
//! default. A [`TraceSink`] installed on a [`crate::Resource`] or
//! [`crate::Engine`] receives *structured trace records* — spans with
//! exact [`SimTime`] boundaries and instant events — as the simulation
//! executes. The `tracelab` crate provides the standard sink (ring
//! buffer + per-stage totals + exporters); models can also install
//! bespoke sinks in tests.
//!
//! Design constraints, shared with the engine's determinism contract:
//!
//! * **Deterministic** — records carry only simulated timestamps and are
//!   emitted in the (reproducible) order the model computes them, so the
//!   same run produces byte-identical traces.
//! * **Non-perturbing** — sinks observe; they are never consulted for
//!   scheduling decisions, so tracing on/off cannot change a result.
//! * **Allocation-light** — records are plain `Copy` structs with
//!   `&'static str` stage names; a sink can retain them without parsing.

use std::rc::Rc;

use crate::time::SimTime;

/// Canonical stage names used by the workspace's instrumentation.
///
/// Keeping the catalogue here (rather than in `tracelab`) lets every
/// model crate tag records without depending on the sink implementation.
/// Hardware pipeline stages reuse the resource names chosen at
/// construction time (`"cpu"`, `"pci"`, `"nic"`, `"wire->"`, `"wire<-"`).
pub mod stages {
    /// Progress-thread activity (reader/writer threads in real mode).
    pub const PROGRESS_THREAD: &str = "progress-thread";
    /// Wire propagation + switching latency (the gap between the last
    /// bit leaving the sender NIC and arriving at the receiver).
    pub const WIRE_LATENCY: &str = "wire-latency";
    /// Interrupt-coalescing delay on the receiver.
    pub const COALESCE: &str = "coalesce";
    /// Sender blocked on a full TCP window (the tuning pathology).
    pub const WINDOW_STALL: &str = "window-stall";
    /// Receiving process wakeup after the final segment lands.
    pub const WAKEUP: &str = "wakeup";
    /// OS-bypass completion notification (poll/interrupt).
    pub const COMPLETION: &str = "completion";
    /// Instant: a message entered the transport.
    pub const SEND: &str = "send";
    /// Instant: a message was delivered to the application.
    pub const RECV: &str = "recv";
    /// Instant: fault injection dropped a segment on the wire.
    pub const FAULT_DROP: &str = "fault-drop";
    /// Instant: fault injection duplicated a segment on the wire.
    pub const FAULT_DUP: &str = "fault-dup";
    /// Extra segment delay injected by a fault plan (jitter, reorder
    /// hold-back, or a link-degradation window).
    pub const FAULT_DELAY: &str = "fault-delay";
    /// Sender waiting out a retransmission timeout for a lost segment.
    pub const RETRANSMIT: &str = "retransmit";
    /// Instant: the connection gave up after exhausting retransmissions.
    pub const CONN_DEAD: &str = "conn-dead";
    /// Instant: a real-mode socket operation exceeded its deadline.
    pub const IO_TIMEOUT: &str = "io-timeout";
    /// Instant: a real-mode driver re-established its connection.
    pub const RECONNECT: &str = "reconnect";
    /// One rank's participation in one collective schedule round
    /// (start = round entry, end = last receive applied).
    pub const COLL_ROUND: &str = "coll-round";
    /// Instant: a rank completed its final collective round.
    pub const COLL_DONE: &str = "coll-done";
    /// Instant: a recv deadline fired and a peer rank became suspect.
    pub const COLL_SUSPECT: &str = "coll-suspect";
    /// Instant: a suspect rank was evicted from the membership group.
    pub const COLL_EVICT: &str = "coll-evict";
    /// Instant: the collective schedule was re-planned over survivors.
    pub const COLL_REPLAN: &str = "coll-replan";
}

/// One completed span: `stage` was busy on timeline `track` over
/// `[start, end]` while handling `bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Stage name (see [`stages`], or a resource's constructor name).
    pub stage: &'static str,
    /// Timeline the span belongs to (host/resource/flow id; the
    /// instrumenting layer owns the allocation scheme).
    pub track: u32,
    /// First instant the stage was occupied.
    pub start: SimTime,
    /// Completion instant (`end >= start`).
    pub end: SimTime,
    /// Payload bytes attributed to the span.
    pub bytes: u64,
    /// Message-correlation id; `0` means "the sink's current message"
    /// (set via [`TraceSink::set_message`]).
    pub msg: u64,
}

/// A destination for trace records.
///
/// All methods take `&self`: sinks use interior mutability so one sink
/// can be shared (via [`SharedSink`]) by every resource in a world.
/// Default implementations discard, so sinks implement only what they
/// store.
pub trait TraceSink {
    /// Record a completed span.
    fn span(&self, rec: SpanRec);

    /// Record an instantaneous event at `at`.
    fn instant(&self, name: &'static str, track: u32, at: SimTime, bytes: u64, msg: u64) {
        let _ = (name, track, at, bytes, msg);
    }

    /// Set the current message id stamped onto records that carry
    /// `msg == 0`. Transport layers call this as they switch between
    /// in-flight messages.
    fn set_message(&self, id: u64) {
        let _ = id;
    }

    /// The engine dispatched one event at `at` (kernel-load counter).
    fn event_dispatched(&self, at: SimTime) {
        let _ = at;
    }
}

/// A shareable sink handle. The simulation stack is single-threaded by
/// construction (worlds are driven by one [`crate::Engine`]), so `Rc`
/// is the right ownership model.
pub type SharedSink = Rc<dyn TraceSink>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[derive(Default)]
    struct Log {
        spans: RefCell<Vec<SpanRec>>,
        instants: RefCell<Vec<&'static str>>,
        events: RefCell<u64>,
    }

    impl TraceSink for Log {
        fn span(&self, rec: SpanRec) {
            self.spans.borrow_mut().push(rec);
        }
        fn instant(&self, name: &'static str, _t: u32, _at: SimTime, _b: u64, _m: u64) {
            self.instants.borrow_mut().push(name);
        }
        fn event_dispatched(&self, _at: SimTime) {
            *self.events.borrow_mut() += 1;
        }
    }

    #[test]
    fn sink_receives_records_through_shared_handle() {
        let log = Rc::new(Log::default());
        let sink: SharedSink = log.clone();
        sink.span(SpanRec {
            stage: "cpu",
            track: 3,
            start: SimTime(10),
            end: SimTime(25),
            bytes: 100,
            msg: 7,
        });
        sink.instant(stages::SEND, 0, SimTime(10), 100, 7);
        sink.event_dispatched(SimTime(25));
        assert_eq!(log.spans.borrow().len(), 1);
        assert_eq!(log.spans.borrow()[0].end, SimTime(25));
        assert_eq!(*log.instants.borrow(), vec![stages::SEND]);
        assert_eq!(*log.events.borrow(), 1);
    }

    #[test]
    fn default_methods_discard() {
        struct Null;
        impl TraceSink for Null {
            fn span(&self, _r: SpanRec) {}
        }
        let s = Null;
        s.instant("x", 0, SimTime::ZERO, 0, 0);
        s.set_message(9);
        s.event_dispatched(SimTime::ZERO);
    }
}
