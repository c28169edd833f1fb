//! The harness's own in-memory span recorder.
//!
//! The traced run wraps every call it makes into a crate under test in a
//! span: name (`layer:function`), start, end, the span that caused it,
//! and the index of the op it belongs to (the id spans of one op share).
//! Spans stay in memory until the run ends, then go out as a Chrome
//! trace-event file and as a self-time table (span minus its children).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// `parent` of a span nothing caused.
pub const NO_PARENT: u32 = u32::MAX;

/// Name of the root span of one op; its self time is what the harness
/// could not attribute to a layer.
pub const OP: &str = "harness:op";

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The part of the name before `:` — the crate the call went into.
    pub fn layer(&self) -> &'static str {
        self.name.split(':').next().unwrap_or(self.name)
    }
}

/// Records spans on one thread. A recorder that is [`off`](Recorder::off)
/// records nothing, so one code path serves the timed and the traced run.
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    on: bool,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A live recorder for thread `tid`; recorders that will be merged
    /// share one `epoch`.
    pub fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            tid,
            on: true,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A live recorder for another thread, on this one's epoch.
    pub fn sibling(&self, tid: u32) -> Recorder {
        Recorder::new(self.epoch, tid)
    }

    /// A recorder whose `enter`/`exit` do nothing.
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            ..Recorder::new(Instant::now(), 0)
        }
    }

    /// Spans entered from now on belong to op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Open a span under the innermost open one; returns its handle.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op: self.op,
            tid: self.tid,
        });
        // Stamp last, so the recorder's own bookkeeping is charged to
        // the parent and not to the span being opened.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    /// Close span `id`, which must be the innermost open one.
    #[inline]
    pub fn exit(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Append another thread's finished spans, keeping their parents.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(
            other.stack.is_empty(),
            "absorbing a recorder with open spans"
        );
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.stack.is_empty(), "reading spans while some are open");
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one parent never overlap (one thread, a stack),
/// so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfRow {
    pub tid: u32,
    pub name: &'static str,
    pub count: u64,
    pub self_ns: u64,
}

/// What a traced run attributes, and how completely.
pub struct Attribution {
    /// Self time per (thread, span name), largest first.
    pub rows: Vec<SelfRow>,
    /// Summed duration of the [`OP`] root spans of thread 0.
    pub op_wall_ns: u64,
    /// Self time of those root spans: op wall no layer span covers.
    pub unattributed_ns: u64,
}

impl Attribution {
    pub fn of(spans: &[Span]) -> Attribution {
        let own = self_times(spans);
        let mut by_name: BTreeMap<(u32, &'static str), (u64, u64)> = BTreeMap::new();
        let (mut op_wall_ns, mut unattributed_ns) = (0, 0);
        for (s, &self_ns) in spans.iter().zip(&own) {
            let e = by_name.entry((s.tid, s.name)).or_default();
            e.0 += 1;
            e.1 += self_ns;
            if s.tid == 0 && s.name == OP {
                op_wall_ns += s.dur_ns();
                unattributed_ns += self_ns;
            }
        }
        let mut rows: Vec<SelfRow> = by_name
            .into_iter()
            .map(|((tid, name), (count, self_ns))| SelfRow {
                tid,
                name,
                count,
                self_ns,
            })
            .collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        Attribution {
            rows,
            op_wall_ns,
            unattributed_ns,
        }
    }

    /// Share of op wall covered by layer spans' self times.
    pub fn coverage(&self) -> f64 {
        if self.op_wall_ns == 0 {
            return 0.0;
        }
        1.0 - self.unattributed_ns as f64 / self.op_wall_ns as f64
    }

    /// Self time per layer on thread 0 (the client), largest first.
    pub fn layers(&self) -> Vec<(&'static str, u64)> {
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for r in self.rows.iter().filter(|r| r.tid == 0) {
            let layer = r.name.split(':').next().unwrap_or(r.name);
            *by_layer.entry(layer).or_default() += r.self_ns;
        }
        let mut v: Vec<_> = by_layer.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// The table a traced run prints. Spans outside any op (attribution
    /// probes) and spans of other threads are listed but are not part
    /// of op wall, so their share can exceed what is left of 100 %.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let wall = self.op_wall_ns.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<3} {:<44} {:>9} {:>12} {:>9}",
            "thr", "span (layer:call)", "count", "self ms", "% op wall"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<3} {:<44} {:>9} {:>12.3} {:>9.2}",
                r.tid,
                r.name,
                r.count,
                r.self_ns as f64 / 1e6,
                100.0 * r.self_ns as f64 / wall
            );
        }
        let _ = writeln!(out, "  per layer, thread 0:");
        for (layer, ns) in self.layers() {
            let _ = writeln!(
                out,
                "      {:<44} {:>22.3} {:>9.2}",
                layer,
                ns as f64 / 1e6,
                100.0 * ns as f64 / wall
            );
        }
        let _ = writeln!(
            out,
            "  op wall {:.3} ms; layer spans' self times cover {:.2} % of it",
            self.op_wall_ns as f64 / 1e6,
            100.0 * self.coverage()
        );
        out
    }
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): complete (`X`) events, microsecond timestamps, the layer
/// as category, and op index / span id / parent id as arguments.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = if s.parent == NO_PARENT {
                Json::Null
            } else {
                Json::U64(u64::from(s.parent))
            };
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer())),
                ("ph", Json::str("X")),
                ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                ("dur", Json::F64(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(u64::from(s.tid))),
                (
                    "args",
                    Json::obj([
                        ("op", Json::U64(u64::from(s.op))),
                        ("id", Json::U64(id as u64)),
                        ("parent", parent),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ns")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, tid: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            tid,
        }
    }

    /// op [0,100) ─ a [10,40) ─ a1 [15,25)
    ///             └ b [50,90)
    /// plus a probe outside the op and a span on another thread.
    fn tree() -> Vec<Span> {
        vec![
            span(OP, 0, 100, NO_PARENT, 0),
            span("x:a", 10, 40, 0, 0),
            span("y:a1", 15, 25, 1, 0),
            span("x:b", 50, 90, 0, 0),
            span("probe:p", 100, 130, NO_PARENT, 0),
            span("x:a", 0, 70, NO_PARENT, 1),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_times(&tree()), vec![30, 20, 10, 40, 30, 70]);
    }

    #[test]
    fn attribution_sums_to_op_wall() {
        let a = Attribution::of(&tree());
        assert_eq!(a.op_wall_ns, 100);
        assert_eq!(a.unattributed_ns, 30);
        assert!((a.coverage() - 0.70).abs() < 1e-12);
        // Thread 0's x:a and x:b are separate rows; thread 1's x:a is
        // not folded into thread 0's.
        let row = |tid, name| a.rows.iter().find(|r| r.tid == tid && r.name == name);
        assert_eq!(row(0, "x:a").map(|r| (r.count, r.self_ns)), Some((1, 20)));
        assert_eq!(row(1, "x:a").map(|r| (r.count, r.self_ns)), Some((1, 70)));
        assert_eq!(a.rows[0].self_ns, 70);
        // Layer self times inside the op plus the root's own: op wall.
        let layers = a.layers();
        let in_op: u64 = layers
            .iter()
            .filter(|(l, _)| *l != "probe")
            .map(|(_, ns)| ns)
            .sum();
        assert_eq!(in_op, a.op_wall_ns);
        assert_eq!(layers[0], ("x", 60));
    }

    #[test]
    fn recorder_nests_and_merges() {
        let epoch = Instant::now();
        let mut main = Recorder::new(epoch, 0);
        main.set_op(7);
        let op = main.enter(OP);
        let a = main.enter("x:a");
        main.exit(a);
        main.exit(op);
        let mut other = Recorder::new(epoch, 1);
        let r = other.enter("x:recv");
        let s = other.enter("x:inner");
        other.exit(s);
        other.exit(r);
        main.absorb(other);
        let spans = main.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].parent, spans[1].parent), (NO_PARENT, 0));
        assert_eq!((spans[2].parent, spans[3].parent), (NO_PARENT, 2));
        assert_eq!((spans[1].op, spans[3].tid), (7, 1));
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut r = Recorder::off();
        let id = r.enter("x:a");
        r.exit(id);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let text = chrome_trace(&tree()).to_string();
        assert_eq!(text.matches("\"ph\": \"X\"").count(), 6);
        assert!(text.contains("\"cat\": \"probe\""));
        assert!(text.contains("\"parent\": null"));
        assert!(text.contains("\"ts\": 0.05"));
    }
}
