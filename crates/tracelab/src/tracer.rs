//! The standard in-simulation trace recorder.
//!
//! [`Tracer`] implements [`simcore::trace::TraceSink`]: install one on a
//! world (e.g. via `protosim::instrument`) and every resource
//! reservation, protocol gap, and library phase lands here as a
//! [`TraceEvent`]. Two stores are maintained:
//!
//! * a bounded ring buffer of raw events (for timelines and the Chrome
//!   exporter) — oldest events are overwritten when it fills;
//! * an always-exact registry of per-`(track, stage)` totals built on
//!   [`simcore::OnlineStats`] plus a global span-duration
//!   [`simcore::Histogram`] — these never drop, so stage accounting is
//!   correct even when the ring wraps.
//!
//! All timestamps are integer nanoseconds of simulated time; recording
//! the same run twice produces identical events in identical order.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simcore::trace::{SpanRec, TraceSink};
use simcore::units::ns_to_us;
use simcore::{Histogram, OnlineStats, SimTime};

use crate::ring::Ring;

/// What kind of record a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A duration: `[start_ns, end_ns]`.
    Span,
    /// A point event: `start_ns == end_ns`.
    Instant,
}

/// One recorded trace event, timestamped in integer nanoseconds.
///
/// In simulation the nanoseconds are [`SimTime`] readings; in wall-clock
/// mode ([`crate::WallTracer`]) they are monotonic nanoseconds since the
/// tracer was created. Exporters only need the numbers.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Span or instant.
    pub kind: TraceKind,
    /// Stage name (see [`crate::stages`]).
    pub stage: &'static str,
    /// Timeline id (exporters render one row per track).
    pub track: u32,
    /// Start instant in nanoseconds.
    pub start_ns: u64,
    /// End instant in nanoseconds (`>= start_ns`).
    pub end_ns: u64,
    /// Payload bytes attributed to the event.
    pub bytes: u64,
    /// Message-correlation id (`0` = not tied to one message).
    pub msg: u64,
}

impl TraceEvent {
    /// Span duration in nanoseconds (zero for instants).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Aggregate over every span recorded for one `(track, stage)` pair.
#[derive(Debug, Clone)]
pub struct StageTotal {
    /// Stage name.
    pub stage: &'static str,
    /// Timeline the spans were recorded on.
    pub track: u32,
    /// Number of spans.
    pub spans: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total busy time in nanoseconds.
    pub busy_ns: u64,
    /// Per-span duration statistics, in microseconds.
    pub per_span_us: OnlineStats,
}

/// Raw per-`(track, stage)` sums. Kept as plain `Σx` / `Σx²` so the
/// per-span hot path is adds and compares only; the Welford-form
/// [`OnlineStats`] is materialized in [`Core::stage_totals`].
struct Acc {
    spans: u64,
    bytes: u64,
    busy_ns: u64,
    sum_us: f64,
    sumsq_us: f64,
    min_us: f64,
    max_us: f64,
}

impl Acc {
    fn new() -> Self {
        Acc {
            spans: 0,
            bytes: 0,
            busy_ns: 0,
            sum_us: 0.0,
            sumsq_us: 0.0,
            min_us: f64::INFINITY,
            max_us: f64::NEG_INFINITY,
        }
    }

    fn stats(&self) -> OnlineStats {
        let n = self.spans;
        if n == 0 {
            return OnlineStats::new();
        }
        let mean = self.sum_us / n as f64;
        let m2 = self.sumsq_us - mean * mean * n as f64;
        OnlineStats::from_moments(n, mean, m2, self.min_us, self.max_us)
    }
}

/// Histogram range for span durations: 100 buckets over [0, 10 ms).
const HIST_HI_US: f64 = 10_000.0;
const HIST_BUCKETS: usize = 100;

/// Sentinel marking an empty probe-table slot (a string can never live
/// at address `usize::MAX`).
const EMPTY_SLOT: usize = usize::MAX;

/// Initial probe-table size; a run touches a few dozen `(track, stage)`
/// pairs, so this rarely grows.
const INITIAL_SLOTS: usize = 64;

/// Map `(stage address, track)` to a probe-table start slot.
fn slot_start(ptr: usize, track: u32, mask: usize) -> usize {
    // Fibonacci hashing; the high bits mix best, so shift them down.
    ((ptr ^ ((track as usize) << 1)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & mask
}

/// The shared accumulation core behind [`Tracer`] and
/// [`crate::WallTracer`]; callers provide the interior mutability.
///
/// Per-`(track, stage)` aggregates live in `accs`, found via an
/// open-addressing table keyed on the stage string's *address* — one
/// multiply and usually one probe instead of a `BTreeMap` walk with
/// string comparisons, which kept recording off sim hot paths' backs.
/// Two distinct literals with equal text are merged on the
/// once-per-pointer slow path, and [`Core::stage_totals`] sorts by
/// `(track, stage)`, so the table's address-dependent layout never
/// leaks into output.
pub(crate) struct Core {
    ring: Ring<TraceEvent>,
    /// `(stage address, track, index into accs)`; `EMPTY_SLOT` = free.
    table: Vec<(usize, u32, u32)>,
    table_used: usize,
    accs: Vec<(u32, &'static str, Acc)>,
    hist: Histogram,
    dispatched: u64,
    spans: u64,
    instants: u64,
}

impl Core {
    pub(crate) fn new(capacity: usize) -> Self {
        Core {
            ring: Ring::new(capacity),
            table: vec![(EMPTY_SLOT, 0, 0); INITIAL_SLOTS],
            table_used: 0,
            accs: Vec::new(),
            hist: Histogram::new(0.0, HIST_HI_US, HIST_BUCKETS),
            dispatched: 0,
            spans: 0,
            instants: 0,
        }
    }

    fn acc_index(&mut self, track: u32, stage: &'static str) -> usize {
        let ptr = stage.as_ptr() as usize;
        let mask = self.table.len() - 1;
        let mut i = slot_start(ptr, track, mask);
        loop {
            let (p, t, idx) = self.table[i];
            if p == ptr && t == track {
                return idx as usize;
            }
            if p == EMPTY_SLOT {
                return self.insert_key(ptr, track, stage);
            }
            i = (i + 1) & mask;
        }
    }

    /// Slow path, taken once per distinct stage address: dedupe by
    /// string *content* (two literals with equal text must share one
    /// aggregate), register the address, and grow at 3/4 load.
    #[cold]
    fn insert_key(&mut self, ptr: usize, track: u32, stage: &'static str) -> usize {
        let idx = self
            .accs
            .iter()
            .position(|(t, s, _)| *t == track && *s == stage)
            .unwrap_or_else(|| {
                self.accs.push((track, stage, Acc::new()));
                self.accs.len() - 1
            });
        self.table_used += 1;
        if self.table_used * 4 > self.table.len() * 3 {
            self.grow_table();
        }
        let mask = self.table.len() - 1;
        let mut i = slot_start(ptr, track, mask);
        while self.table[i].0 != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        self.table[i] = (ptr, track, idx as u32);
        idx
    }

    fn grow_table(&mut self) {
        let next = vec![(EMPTY_SLOT, 0, 0); self.table.len() * 2];
        let old = std::mem::replace(&mut self.table, next);
        let mask = self.table.len() - 1;
        for (p, t, idx) in old {
            if p == EMPTY_SLOT {
                continue;
            }
            let mut i = slot_start(p, t, mask);
            while self.table[i].0 != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            self.table[i] = (p, t, idx);
        }
    }

    pub(crate) fn record_span(
        &mut self,
        stage: &'static str,
        track: u32,
        start_ns: u64,
        end_ns: u64,
        bytes: u64,
        msg: u64,
    ) {
        let end_ns = end_ns.max(start_ns);
        self.ring.push(TraceEvent {
            kind: TraceKind::Span,
            stage,
            track,
            start_ns,
            end_ns,
            bytes,
            msg,
        });
        self.spans += 1;
        let dur_us = ns_to_us((end_ns - start_ns) as f64);
        let idx = self.acc_index(track, stage);
        let acc = &mut self.accs[idx].2;
        acc.spans += 1;
        acc.bytes += bytes;
        acc.busy_ns += end_ns - start_ns;
        acc.sum_us += dur_us;
        acc.sumsq_us += dur_us * dur_us;
        acc.min_us = acc.min_us.min(dur_us);
        acc.max_us = acc.max_us.max(dur_us);
        self.hist.push(dur_us);
    }

    pub(crate) fn record_instant(
        &mut self,
        name: &'static str,
        track: u32,
        at_ns: u64,
        bytes: u64,
        msg: u64,
    ) {
        self.ring.push(TraceEvent {
            kind: TraceKind::Instant,
            stage: name,
            track,
            start_ns: at_ns,
            end_ns: at_ns,
            bytes,
            msg,
        });
        self.instants += 1;
    }

    pub(crate) fn event_dispatched(&mut self) {
        self.dispatched += 1;
    }

    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        self.ring.iter().copied().collect()
    }

    pub(crate) fn stage_totals(&self) -> Vec<StageTotal> {
        let mut totals: Vec<StageTotal> = self
            .accs
            .iter()
            .map(|(track, stage, acc)| StageTotal {
                stage,
                track: *track,
                spans: acc.spans,
                bytes: acc.bytes,
                busy_ns: acc.busy_ns,
                per_span_us: acc.stats(),
            })
            .collect();
        totals.sort_by(|a, b| (a.track, a.stage).cmp(&(b.track, b.stage)));
        totals
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    pub(crate) fn span_count(&self) -> u64 {
        self.spans
    }

    pub(crate) fn instant_count(&self) -> u64 {
        self.instants
    }

    pub(crate) fn dispatched(&self) -> u64 {
        self.dispatched
    }

    pub(crate) fn hist(&self) -> Histogram {
        self.hist.clone()
    }

    pub(crate) fn retained(&self) -> usize {
        self.ring.len()
    }

    pub(crate) fn clear(&mut self) {
        self.ring.clear();
        self.table.iter_mut().for_each(|s| *s = (EMPTY_SLOT, 0, 0));
        self.table_used = 0;
        self.accs.clear();
        self.hist = Histogram::new(0.0, HIST_HI_US, HIST_BUCKETS);
        self.dispatched = 0;
        self.spans = 0;
        self.instants = 0;
    }
}

/// Deterministic, single-threaded trace recorder for simulated runs.
///
/// Create one with [`Tracer::new`], install the `Rc` on the world (it
/// coerces to [`simcore::SharedSink`]), run the simulation, then read
/// [`events`](Tracer::events) / [`stage_totals`](Tracer::stage_totals)
/// or feed them to [`crate::export`].
pub struct Tracer {
    core: RefCell<Core>,
    cur_msg: Cell<u64>,
}

impl Tracer {
    /// Default ring capacity (events): enough for a full NetPIPE sweep.
    pub const DEFAULT_CAPACITY: usize = 1 << 18;

    /// A tracer with the default ring capacity.
    pub fn new() -> Rc<Self> {
        Tracer::with_capacity(Tracer::DEFAULT_CAPACITY)
    }

    /// A tracer retaining at most `capacity` raw events (totals are
    /// always exact regardless).
    pub fn with_capacity(capacity: usize) -> Rc<Self> {
        Rc::new(Tracer {
            core: RefCell::new(Core::new(capacity)),
            cur_msg: Cell::new(0),
        })
    }

    /// Retained raw events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.core.borrow().events()
    }

    /// Exact per-`(track, stage)` aggregates, ordered by track then stage.
    pub fn stage_totals(&self) -> Vec<StageTotal> {
        self.core.borrow().stage_totals()
    }

    /// Spans recorded so far (including any no longer in the ring).
    pub fn span_count(&self) -> u64 {
        self.core.borrow().span_count()
    }

    /// Instant events recorded so far.
    pub fn instant_count(&self) -> u64 {
        self.core.borrow().instant_count()
    }

    /// Events overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.core.borrow().dropped()
    }

    /// Raw events currently held in the ring.
    pub fn retained(&self) -> usize {
        self.core.borrow().retained()
    }

    /// Engine events dispatched while this sink was installed.
    pub fn events_dispatched(&self) -> u64 {
        self.core.borrow().dispatched()
    }

    /// Histogram of span durations in microseconds.
    pub fn span_duration_histogram(&self) -> Histogram {
        self.core.borrow().hist()
    }

    /// The message id currently stamped onto `msg == 0` records.
    pub fn current_msg(&self) -> u64 {
        self.cur_msg.get()
    }

    /// Drop all recorded data but keep the configuration.
    pub fn clear(&self) {
        self.core.borrow_mut().clear();
        self.cur_msg.set(0);
    }
}

impl TraceSink for Tracer {
    fn span(&self, rec: SpanRec) {
        let msg = if rec.msg != 0 {
            rec.msg
        } else {
            self.cur_msg.get()
        };
        self.core.borrow_mut().record_span(
            rec.stage,
            rec.track,
            rec.start.as_nanos(),
            rec.end.as_nanos(),
            rec.bytes,
            msg,
        );
    }

    fn instant(&self, name: &'static str, track: u32, at: SimTime, bytes: u64, msg: u64) {
        let msg = if msg != 0 { msg } else { self.cur_msg.get() };
        self.core
            .borrow_mut()
            .record_instant(name, track, at.as_nanos(), bytes, msg);
    }

    fn set_message(&self, id: u64) {
        self.cur_msg.set(id);
    }

    fn event_dispatched(&self, _at: SimTime) {
        self.core.borrow_mut().event_dispatched();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::trace::stages;

    fn span(t: &Tracer, stage: &'static str, track: u32, start: u64, end: u64, bytes: u64) {
        t.span(SpanRec {
            stage,
            track,
            start: SimTime(start),
            end: SimTime(end),
            bytes,
            msg: 0,
        });
    }

    #[test]
    fn totals_aggregate_by_track_and_stage() {
        let t = Tracer::new();
        span(&t, "cpu", 0, 0, 1_000, 100);
        span(&t, "cpu", 0, 1_000, 3_000, 200);
        span(&t, "cpu", 16, 0, 500, 50);
        let totals = t.stage_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].track, 0);
        assert_eq!(totals[0].spans, 2);
        assert_eq!(totals[0].bytes, 300);
        assert_eq!(totals[0].busy_ns, 3_000);
        assert_eq!(totals[0].per_span_us.count(), 2);
        assert!((totals[0].per_span_us.mean() - 1.5).abs() < 1e-12);
        assert_eq!(totals[1].track, 16);
    }

    #[test]
    fn message_register_stamps_records() {
        let t = Tracer::new();
        t.set_message(7);
        span(&t, "cpu", 0, 0, 10, 1);
        t.set_message(8);
        span(&t, "cpu", 0, 10, 20, 1);
        // Explicit msg wins over the register.
        t.span(SpanRec {
            stage: "pci",
            track: 1,
            start: SimTime(20),
            end: SimTime(30),
            bytes: 1,
            msg: 42,
        });
        let ev = t.events();
        assert_eq!(ev[0].msg, 7);
        assert_eq!(ev[1].msg, 8);
        assert_eq!(ev[2].msg, 42);
    }

    #[test]
    fn ring_drops_but_totals_stay_exact() {
        let t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            span(&t, "cpu", 0, i * 10, i * 10 + 5, 1);
        }
        assert_eq!(t.retained(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.span_count(), 10);
        let totals = t.stage_totals();
        assert_eq!(totals[0].spans, 10);
        assert_eq!(totals[0].busy_ns, 50);
        // Ring keeps the newest events.
        assert_eq!(t.events()[0].start_ns, 60);
    }

    #[test]
    fn instants_are_recorded_without_totals() {
        let t = Tracer::new();
        t.instant(stages::SEND, 3, SimTime(55), 128, 9);
        assert_eq!(t.instant_count(), 1);
        assert_eq!(t.span_count(), 0);
        assert!(t.stage_totals().is_empty());
        let ev = t.events();
        assert_eq!(ev[0].kind, TraceKind::Instant);
        assert_eq!(ev[0].dur_ns(), 0);
        assert_eq!(ev[0].msg, 9);
    }

    #[test]
    fn clear_resets_all_state() {
        let t = Tracer::new();
        t.set_message(5);
        span(&t, "cpu", 0, 0, 10, 1);
        t.event_dispatched(SimTime(10));
        t.clear();
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.events_dispatched(), 0);
        assert_eq!(t.current_msg(), 0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn histogram_counts_every_span() {
        let t = Tracer::new();
        for i in 0..5u64 {
            span(&t, "cpu", 0, 0, i * 1_000, 1);
        }
        assert_eq!(t.span_duration_histogram().total(), 5);
    }
}
