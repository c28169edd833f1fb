//! Trace exporters: Chrome trace-event JSON, ASCII per-message
//! timelines, and per-stage tables.
//!
//! All output is built from [`TraceEvent`]s / [`StageTotal`]s with
//! deterministic, hand-rolled formatting (timestamps are printed as
//! exact decimal microseconds, never via floating point), so identical
//! traces serialize to identical bytes.

use std::fmt::Write as _;

use simcore::units::secs_to_us;

use crate::tracer::{StageTotal, TraceEvent, TraceKind};

/// Nanoseconds rendered as exact decimal microseconds ("12.345").
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Escape a string for inclusion in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

/// Serialize events as Chrome trace-event JSON (the "JSON Array Format"
/// understood by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)).
///
/// Each track becomes a named thread (`tid` = track, via `ph:"M"`
/// `thread_name` metadata); spans become complete events (`ph:"X"`) and
/// instants become `ph:"i"` events. `label` maps a track id to its
/// display name. Timestamps are microseconds.
pub fn chrome_trace_json(events: &[TraceEvent], label: &dyn Fn(u32) -> String) -> String {
    let mut tracks: Vec<u32> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();

    let mut out = String::new();
    out.push_str("[\n");
    let mut first = true;
    for &t in &tracks {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{t},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(&label(t))
        );
    }
    for e in events {
        sep(&mut out, &mut first);
        match e.kind {
            TraceKind::Span => {
                let _ = write!(
                    out,
                    "  {{\"name\":\"{}\",\"cat\":\"trace\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":0,\"tid\":{},\
                     \"args\":{{\"bytes\":{},\"msg\":{}}}}}",
                    escape_json(e.stage),
                    us(e.start_ns),
                    us(e.dur_ns()),
                    e.track,
                    e.bytes,
                    e.msg
                );
            }
            TraceKind::Instant => {
                let _ = write!(
                    out,
                    "  {{\"name\":\"{}\",\"cat\":\"trace\",\"ph\":\"i\",\"ts\":{},\
                     \"s\":\"t\",\"pid\":0,\"tid\":{},\
                     \"args\":{{\"bytes\":{},\"msg\":{}}}}}",
                    escape_json(e.stage),
                    us(e.start_ns),
                    e.track,
                    e.bytes,
                    e.msg
                );
            }
        }
    }
    out.push_str("\n]\n");
    out
}

/// Render every span belonging to message `msg` as an ASCII timeline:
/// one line per span, horizontally scaled over the message's lifetime.
///
/// `width` is the bar width in columns (clamped to ≥ 10); `label` maps
/// track ids to row names.
pub fn ascii_timeline(
    events: &[TraceEvent],
    msg: u64,
    width: usize,
    label: &dyn Fn(u32) -> String,
) -> String {
    let mut spans: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Span && e.msg == msg)
        .collect();
    if spans.is_empty() {
        return format!("(no spans recorded for message {msg})\n");
    }
    spans.sort_by_key(|e| (e.start_ns, e.track, e.stage));
    let t0 = spans.iter().map(|e| e.start_ns).min().unwrap_or(0);
    let t1 = spans.iter().map(|e| e.end_ns).max().unwrap_or(t0);
    let total = (t1 - t0).max(1);
    let width = width.max(10);

    let name_w = spans
        .iter()
        .map(|e| label(e.track).len())
        .max()
        .unwrap_or(0)
        .max(5);
    let stage_w = spans
        .iter()
        .map(|e| e.stage.len())
        .max()
        .unwrap_or(0)
        .max(5);

    let mut out = format!(
        "message {msg}: {} spans over {} us (t0 = {} us)\n",
        spans.len(),
        us(t1 - t0),
        us(t0)
    );
    for e in &spans {
        let c0 = ((e.start_ns - t0) as u128 * width as u128 / total as u128) as usize;
        let mut c1 = ((e.end_ns - t0) as u128 * width as u128 / total as u128) as usize;
        if c1 <= c0 {
            c1 = c0 + 1; // every span is at least one column wide
        }
        let mut bar = String::with_capacity(width);
        for col in 0..width {
            bar.push(if col >= c0 && col < c1 { '#' } else { '.' });
        }
        let _ = writeln!(
            out,
            "  {:<name_w$}  {:<stage_w$}  {:>10} +{:>9} us  |{bar}|",
            label(e.track),
            e.stage,
            us(e.start_ns - t0),
            us(e.dur_ns()),
        );
    }
    out
}

/// Render per-`(track, stage)` totals as an aligned table: busy time,
/// span count, mean span duration, and bytes.
pub fn stage_table(totals: &[StageTotal], label: &dyn Fn(u32) -> String) -> String {
    let name_w = totals
        .iter()
        .map(|t| label(t.track).len())
        .max()
        .unwrap_or(0)
        .max("track".len());
    let stage_w = totals
        .iter()
        .map(|t| t.stage.len())
        .max()
        .unwrap_or(0)
        .max("stage".len());
    let mut out = format!(
        "{:<name_w$}  {:<stage_w$}  {:>12}  {:>8}  {:>10}  {:>12}\n",
        "track", "stage", "busy(us)", "spans", "mean(us)", "bytes"
    );
    for t in totals {
        let _ = writeln!(
            out,
            "{:<name_w$}  {:<stage_w$}  {:>12}  {:>8}  {:>10.3}  {:>12}",
            label(t.track),
            t.stage,
            us(t.busy_ns),
            t.spans,
            t.per_span_us.mean(),
            t.bytes,
        );
    }
    out
}

/// Render a per-stage breakdown table: each row is `(label, busy
/// seconds, bytes)`; `elapsed_s` is the transfer's wall time in
/// simulated seconds and sets the share column and bars.
///
/// This is the renderer behind `clusterlab::Breakdown::to_table`.
pub fn breakdown_table(rows: &[(String, f64, u64)], elapsed_s: f64) -> String {
    const BAR_W: usize = 28;
    let name_w = rows
        .iter()
        .map(|(label, _, _)| label.len())
        .max()
        .unwrap_or(0)
        .max("stage".len());
    let mut out = format!(
        "{:<name_w$}  {:>12}  {:>6}  {:>12}  {}\n",
        "stage", "busy(us)", "share", "bytes", "utilization"
    );
    for (label, busy_s, bytes) in rows {
        let share = if elapsed_s > 0.0 {
            busy_s / elapsed_s
        } else {
            0.0
        };
        let filled = ((share * BAR_W as f64).round() as usize).min(BAR_W);
        let mut bar = String::with_capacity(BAR_W);
        for col in 0..BAR_W {
            bar.push(if col < filled { '#' } else { '.' });
        }
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>12.3}  {:>5.1}%  {:>12}  {bar}",
            label,
            secs_to_us(*busy_s),
            share * 100.0,
            bytes,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind, stage: &'static str, track: u32, s: u64, e: u64) -> TraceEvent {
        TraceEvent {
            kind,
            stage,
            track,
            start_ns: s,
            end_ns: e,
            bytes: 100,
            msg: 1,
        }
    }

    #[test]
    fn chrome_json_shape() {
        let events = vec![
            ev(TraceKind::Span, "cpu", 0, 0, 1_500),
            ev(TraceKind::Instant, "send", 0, 0, 0),
        ];
        let json = chrome_trace_json(&events, &|t| format!("track{t}"));
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("\n]\n"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"track0\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":1.500"));
        assert!(json.contains("\"ph\":\"i\""));
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn chrome_json_escapes_strings() {
        let events = vec![ev(TraceKind::Span, "a\"b\\c", 0, 0, 1)];
        let json = chrome_trace_json(&events, &|_| "x\ny".into());
        assert!(json.contains("a\\\"b\\\\c"));
        assert!(json.contains("x\\ny"));
    }

    #[test]
    fn timeline_scales_and_orders() {
        let events = vec![
            ev(TraceKind::Span, "pci", 1, 1_000, 2_000),
            ev(TraceKind::Span, "cpu", 0, 0, 1_000),
            ev(TraceKind::Span, "other-msg", 2, 0, 1_000),
        ];
        let mut events = events;
        events[2].msg = 99;
        let tl = ascii_timeline(&events, 1, 20, &|t| format!("t{t}"));
        assert!(tl.contains("message 1: 2 spans"));
        assert!(!tl.contains("other-msg"));
        let cpu_line = tl.lines().find(|l| l.contains("cpu")).expect("cpu row");
        let pci_line = tl.lines().find(|l| l.contains("pci")).expect("pci row");
        // cpu occupies the first half, pci the second.
        assert!(cpu_line.contains("|##########..........|"), "{cpu_line}");
        assert!(pci_line.contains("|..........##########|"), "{pci_line}");
    }

    #[test]
    fn timeline_empty_message() {
        let tl = ascii_timeline(&[], 5, 40, &|_| String::new());
        assert!(tl.contains("no spans"));
    }

    #[test]
    fn breakdown_table_has_share_percent() {
        let rows = vec![
            ("host0 cpu".to_string(), 0.5e-6, 1_000u64),
            ("wire0 ->".to_string(), 1.0e-6, 1_000u64),
        ];
        let t = breakdown_table(&rows, 1.0e-6);
        assert!(t.contains("host0 cpu"));
        assert!(t.contains('%'));
        assert!(t.contains("50.0%"));
        assert!(t.contains("100.0%"));
    }

    #[test]
    fn stage_table_lists_all_rows() {
        use simcore::OnlineStats;
        let mut stats = OnlineStats::new();
        stats.push(1.5);
        let totals = vec![StageTotal {
            stage: "cpu",
            track: 0,
            spans: 1,
            bytes: 64,
            busy_ns: 1_500,
            per_span_us: stats,
        }];
        let t = stage_table(&totals, &|_| "host0 cpu".into());
        assert!(t.contains("host0 cpu"));
        assert!(t.contains("1.500"));
    }
}
