//! FIFO rate resources.
//!
//! A [`Resource`] models a serially-shared piece of hardware — a wire, a
//! PCI bus, a memory bus, a NIC processor, a CPU doing protocol work — as
//! a non-preemptive FIFO server with a byte rate and a fixed per-item
//! overhead.
//!
//! The interface is *reservation based*: a caller asks the resource to
//! serve `bytes` starting no earlier than `now`; the resource returns the
//! completion instant and remembers that it is busy until then. Callers
//! schedule their continuation events at the returned instant. Contention
//! between independent transfers emerges naturally because they reserve
//! the same server.
//!
//! This style avoids queue-management events entirely, keeping the engine
//! hot path to one event per pipeline stage, per the "measure, then avoid
//! work" guidance of the Rust Performance Book.

use crate::time::{SimDuration, SimTime};
use crate::trace::{SharedSink, SpanRec};

/// A non-preemptive FIFO server with a service rate and per-item overhead.
#[derive(Clone)]
pub struct Resource {
    name: &'static str,
    /// Service rate in bytes/second; `f64::INFINITY` (or <= 0) disables the
    /// per-byte cost and the resource only charges the per-item overhead.
    rate_bytes_per_sec: f64,
    /// Fixed cost charged to every service request (arbitration, setup).
    per_item: SimDuration,
    busy_until: SimTime,
    /// The last two `(bytes, service_time(bytes))` [`cost`](Resource::cost)
    /// computed, newest first: a message's full segments and its shorter
    /// tail. The rate and per-item cost never change after construction,
    /// so the entries stay valid across `reset()` and `clone()`.
    memo: [(u64, SimDuration); 2],
    // --- accounting ---
    items_served: u64,
    bytes_served: u64,
    busy_time: SimDuration,
    // --- observability (write-only; never consulted for scheduling) ---
    sink: Option<SharedSink>,
    track: u32,
}

impl std::fmt::Debug for Resource {
    // Manual: `sink` is a trait object and opting it out of Debug keeps
    // the derive-visible fields identical to the pre-tracing output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resource")
            .field("name", &self.name)
            .field("rate_bytes_per_sec", &self.rate_bytes_per_sec)
            .field("per_item", &self.per_item)
            .field("busy_until", &self.busy_until)
            .field("items_served", &self.items_served)
            .field("bytes_served", &self.bytes_served)
            .field("busy_time", &self.busy_time)
            .field("traced", &self.sink.is_some())
            .finish()
    }
}

impl Resource {
    /// Create a resource with `rate_bytes_per_sec` service rate and no
    /// per-item overhead.
    pub fn new(name: &'static str, rate_bytes_per_sec: f64) -> Self {
        Resource::with_overhead(name, rate_bytes_per_sec, SimDuration::ZERO)
    }

    /// Create a resource with a per-item fixed overhead in addition to the
    /// per-byte cost.
    pub fn with_overhead(
        name: &'static str,
        rate_bytes_per_sec: f64,
        per_item: SimDuration,
    ) -> Self {
        Resource {
            name,
            rate_bytes_per_sec,
            per_item,
            busy_until: SimTime::ZERO,
            memo: [(0, per_item); 2], // == service_time(0)
            items_served: 0,
            bytes_served: 0,
            busy_time: SimDuration::ZERO,
            sink: None,
            track: 0,
        }
    }

    /// A resource that is never a bottleneck (zero cost).
    pub fn unlimited(name: &'static str) -> Self {
        Resource::new(name, f64::INFINITY)
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Configured service rate in bytes/second.
    pub fn rate(&self) -> f64 {
        self.rate_bytes_per_sec
    }

    /// Time this resource would need for `bytes`, ignoring queueing.
    pub fn service_time(&self, bytes: u64) -> SimDuration {
        let per_byte = if self.rate_bytes_per_sec.is_finite() {
            SimDuration::for_bytes(bytes, self.rate_bytes_per_sec)
        } else {
            SimDuration::ZERO
        };
        self.per_item + per_byte
    }

    /// Attach a [`TraceSink`](crate::trace::TraceSink): every subsequent
    /// reservation is reported as a span on timeline `track`. Purely
    /// observational — service times and FIFO order are unaffected.
    pub fn set_trace(&mut self, sink: SharedSink, track: u32) {
        self.sink = Some(sink);
        self.track = track;
    }

    /// Detach any installed trace sink.
    pub fn clear_trace(&mut self) {
        self.sink = None;
    }

    /// The timeline id given to [`set_trace`](Resource::set_trace).
    pub fn track(&self) -> u32 {
        self.track
    }

    #[inline]
    fn record(&self, start: SimTime, done: SimTime, bytes: u64) {
        if let Some(sink) = &self.sink {
            sink.span(SpanRec {
                stage: self.name,
                track: self.track,
                start,
                end: done,
                bytes,
                msg: 0,
            });
        }
    }

    /// Reserve the resource for `bytes` starting no earlier than `now`.
    /// Returns the completion instant. FIFO: the request queues behind any
    /// previously accepted request.
    // analyze: hot
    pub fn serve(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let dur = self.cost(bytes);
        self.serve_for(now, dur, bytes)
    }

    /// [`service_time`](Resource::service_time), memoised for the last
    /// two sizes asked for.
    // analyze: hot
    #[inline]
    pub fn cost(&mut self, bytes: u64) -> SimDuration {
        match self.memo {
            [(b, dur), _] | [_, (b, dur)] if b == bytes => dur,
            [newest, _] => {
                let dur = self.service_time(bytes);
                self.memo = [(bytes, dur), newest];
                dur
            }
        }
    }

    /// Like [`serve`](Resource::serve) but only charges the per-item
    /// overhead (e.g. a CPU handling an interrupt).
    pub fn serve_item(&mut self, now: SimTime) -> SimTime {
        self.serve(now, 0)
    }

    /// Reserve the resource for an explicit, caller-computed duration
    /// (FIFO, like [`serve`](Resource::serve)). Used when the cost model
    /// is richer than `per_item + bytes/rate` — e.g. a CPU charging
    /// "per-packet kernel cost plus copy at the kernel-copy rate".
    /// `bytes` is recorded for accounting only.
    // analyze: hot
    pub fn serve_for(&mut self, now: SimTime, dur: SimDuration, bytes: u64) -> SimTime {
        let start = now.max(self.busy_until);
        let done = start + dur;
        self.busy_until = done;
        self.items_served += 1;
        self.bytes_served += bytes;
        self.busy_time += dur;
        self.record(start, done, bytes);
        done
    }

    /// Account `n` more reservations, each `dur` long and `bytes` big,
    /// that a caller has shown complete `step` apart after the last one:
    /// the state `n` further [`serve_for`](Resource::serve_for) calls
    /// would leave, in O(1). Untraced resources only — a traced one must
    /// record every span.
    pub fn fast_forward(&mut self, n: u64, step: SimDuration, dur: SimDuration, bytes: u64) {
        debug_assert!(self.sink.is_none(), "a traced resource records every span");
        self.busy_until += step * n;
        self.items_served += n;
        self.bytes_served += bytes * n;
        self.busy_time += dur * n;
    }

    /// The instant this resource becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total items served so far.
    pub fn items_served(&self) -> u64 {
        self.items_served
    }

    /// Total bytes served so far.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }

    /// Accumulated busy time (utilization numerator).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon.as_nanos() == 0 {
            return 0.0;
        }
        self.busy_time.as_secs_f64() / horizon.as_secs_f64()
    }

    /// Reset the clock state but keep the configuration. Used when the same
    /// hardware description is reused across independent measurements.
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.items_served = 0;
        self.bytes_served = 0;
        self.busy_time = SimDuration::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // 1 Gbps in bytes/sec.
    const GBPS: f64 = 125_000_000.0;

    #[test]
    fn service_time_is_rate_based() {
        let r = Resource::new("wire", GBPS);
        // 125 bytes at 1 Gbps = 1 us.
        assert_eq!(r.service_time(125).as_nanos(), 1_000);
        assert_eq!(r.service_time(0).as_nanos(), 0);
    }

    #[test]
    fn per_item_overhead_added() {
        let r = Resource::with_overhead("pci", GBPS, SimDuration::from_micros(2));
        assert_eq!(r.service_time(125).as_nanos(), 3_000);
        assert_eq!(r.service_time(0).as_nanos(), 2_000);
    }

    #[test]
    fn fifo_queueing() {
        let mut r = Resource::new("wire", GBPS);
        let d1 = r.serve(SimTime(0), 125); // finishes at 1us
        let d2 = r.serve(SimTime(0), 125); // queues: finishes at 2us
        assert_eq!(d1, SimTime(1_000));
        assert_eq!(d2, SimTime(2_000));
        // A request arriving after the resource is idle starts immediately.
        let d3 = r.serve(SimTime(10_000), 125);
        assert_eq!(d3, SimTime(11_000));
    }

    #[test]
    fn unlimited_resource_costs_nothing() {
        let mut r = Resource::unlimited("noop");
        assert_eq!(r.serve(SimTime(77), 1 << 30), SimTime(77));
    }

    #[test]
    fn accounting_tracks_bytes_items_busy() {
        let mut r = Resource::new("wire", GBPS);
        r.serve(SimTime(0), 125);
        r.serve(SimTime(5_000), 250);
        assert_eq!(r.items_served(), 2);
        assert_eq!(r.bytes_served(), 375);
        assert_eq!(r.busy_time().as_nanos(), 3_000);
        let u = r.utilization(SimTime(10_000));
        assert!((u - 0.3).abs() < 1e-12, "{u}");
    }

    #[test]
    fn reset_clears_clock_state() {
        let mut r = Resource::new("wire", GBPS);
        r.serve(SimTime(0), 1000);
        r.reset();
        assert_eq!(r.busy_until(), SimTime::ZERO);
        assert_eq!(r.items_served(), 0);
        assert_eq!(r.serve(SimTime(0), 125), SimTime(1_000));
    }

    #[test]
    fn memoised_serve_equals_service_time_recomputed() {
        // Interleaved sizes (repeats, 0, a jumbo frame), a finite and an
        // infinite rate, with and without a per-item cost: every `serve`
        // must advance by exactly `service_time`, through `reset()` and
        // on a `clone()` taken with a warm memo.
        let sizes = [1500u64, 1500, 0, 1500, 9000, 0, 0, 64, 1500, 9000, 9000, 1];
        for rate in [GBPS, 33e6, f64::INFINITY] {
            for per_item in [SimDuration::ZERO, SimDuration(700)] {
                let mut r = Resource::with_overhead("probe", rate, per_item);
                let mut now = SimTime::ZERO;
                for round in 0..3 {
                    for &b in &sizes {
                        let want = now + r.service_time(b);
                        now = r.serve(now, b);
                        assert_eq!(now, want, "rate {rate} bytes {b}");
                    }
                    let mut twin = r.clone();
                    for &b in &[1u64, 1, 1500] {
                        let want = twin.busy_until() + twin.service_time(b);
                        assert_eq!(twin.serve(SimTime::ZERO, b), want);
                    }
                    if round == 1 {
                        r.reset();
                        now = SimTime::ZERO;
                    }
                }
            }
        }
        assert_eq!(
            Resource::new("w", GBPS).serve(SimTime::ZERO, 0),
            SimTime::ZERO
        );
    }

    #[test]
    fn serve_item_charges_overhead_only() {
        let mut r = Resource::with_overhead("cpu", GBPS, SimDuration::from_micros(5));
        assert_eq!(r.serve_item(SimTime(0)), SimTime(5_000));
    }

    #[test]
    fn zero_horizon_utilization_is_zero() {
        let r = Resource::new("wire", GBPS);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn traced_spans_match_reservations() {
        use crate::trace::{SpanRec, TraceSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Log(RefCell<Vec<SpanRec>>);
        impl TraceSink for Log {
            fn span(&self, rec: SpanRec) {
                self.0.borrow_mut().push(rec);
            }
        }

        let log = Rc::new(Log::default());
        let mut traced = Resource::new("wire", GBPS);
        traced.set_trace(log.clone(), 42);
        let mut plain = Resource::new("wire", GBPS);

        // Tracing must not change the schedule.
        assert_eq!(traced.serve(SimTime(0), 125), plain.serve(SimTime(0), 125));
        assert_eq!(traced.serve(SimTime(0), 125), plain.serve(SimTime(0), 125));

        let spans = log.0.borrow();
        assert_eq!(spans.len(), 2);
        // Second request queued behind the first: span starts at 1us.
        assert_eq!(spans[1].start, SimTime(1_000));
        assert_eq!(spans[1].end, SimTime(2_000));
        assert_eq!(spans[1].track, 42);
        assert_eq!(spans[1].stage, "wire");

        drop(spans);
        traced.clear_trace();
        traced.serve(SimTime(10_000), 125);
        assert_eq!(log.0.borrow().len(), 2, "cleared sink records nothing");
    }
}
