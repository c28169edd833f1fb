//! # tracelab — structured tracing, metrics, and timeline export
//!
//! The observability subsystem of the `netpipe-rs` workspace. The paper
//! this repo reproduces opens with the method ("identify where the
//! performance is being lost and determine why"); `tracelab` makes that
//! a first-class, per-message capability instead of ad-hoc busy-time
//! accounting.
//!
//! Pieces:
//!
//! * [`Tracer`] — deterministic recorder for simulated runs. Implements
//!   [`simcore::trace::TraceSink`]; spans carry exact [`simcore::SimTime`]
//!   boundaries, land in a bounded ring buffer, and feed an always-exact
//!   per-stage registry built on [`simcore::OnlineStats`].
//! * [`WallTracer`] — the wall-clock counterpart for the real `mplite`
//!   library (monotonic stamps, mutex-protected for progress threads).
//! * [`export`] — Chrome trace-event JSON (loadable in
//!   `chrome://tracing` / Perfetto), an ASCII per-message timeline, and
//!   per-stage tables (including the renderer behind
//!   `clusterlab::Breakdown`).
//! * [`stages`] — the canonical stage-name catalogue (re-exported from
//!   `simcore::trace` so model crates need no dependency on this crate).
//!
//! # Contract
//!
//! Tracing is **deterministic** (the same simulated run records a
//! byte-identical trace) and **non-perturbing** (sinks only observe;
//! enabling tracing cannot change simulated results) — both properties
//! are enforced by integration tests at the workspace root.
//!
//! # Example
//!
//! ```
//! use simcore::{Engine, Resource, SimTime};
//! use tracelab::Tracer;
//!
//! struct World { wire: Resource }
//! let tracer = Tracer::new();
//! let mut eng = Engine::new(World { wire: Resource::new("wire", 125e6) });
//! eng.world.wire.set_trace(tracer.clone(), 0);
//! eng.set_trace_sink(tracer.clone());
//! eng.schedule_at(SimTime::ZERO, |e| {
//!     let now = e.now();
//!     e.world.wire.serve(now, 1500);
//! });
//! eng.run();
//! assert_eq!(tracer.span_count(), 1);
//! let json = tracelab::export::chrome_trace_json(&tracer.events(), &|_| "wire".into());
//! assert!(json.contains("\"ph\":\"X\""));
//! ```

#![warn(missing_docs)]
// Library-code rules (determinism, panic hygiene and no printing); see DESIGN.md §9.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod export;
mod ring;
mod tracer;
mod wall;

pub use simcore::trace::{stages, SharedSink, SpanRec, TraceSink};
pub use tracer::{StageTotal, TraceEvent, TraceKind, Tracer};
#[expect(
    clippy::disallowed_types,
    reason = "the real-mode recorder is this crate's to export"
)]
pub use wall::{WallStamp, WallTracer};
