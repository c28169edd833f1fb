//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the `netpipe-rs` reproduction of *Protocol-Dependent
//! Message-Passing Performance on Linux Clusters* (Turner & Chen, IEEE
//! CLUSTER 2002). All hardware and protocol models in the workspace run on
//! this kernel.
//!
//! Components:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond clock.
//! * [`Engine`] — event queue with stable `(time, seq)` ordering; every run
//!   is bit-for-bit reproducible.
//! * [`Resource`] — non-preemptive FIFO rate server used to model wires,
//!   PCI buses, memory buses, NIC processors, and protocol CPUs.
//! * [`OnlineStats`] / [`Histogram`] — measurement accumulators.
//! * [`SimRng`] — splittable deterministic RNG (xoshiro256**), used for the
//!   NetPIPE size-schedule perturbations and synthetic workload jitter.
//! * [`units`] — Mbps/bytes-per-second/kB conversions kept in one place.
//! * [`trace`] — observability hooks: a [`TraceSink`] installed on
//!   resources/engines receives structured spans without perturbing the
//!   simulation (the `tracelab` crate provides the standard sink).
//!
//! # Example
//!
//! ```
//! use simcore::{Engine, Resource, SimDuration, SimTime};
//!
//! // A 1 Gbps wire carrying two back-to-back 1500-byte frames.
//! struct World { wire: Resource, delivered: u32 }
//! let mut eng = Engine::new(World {
//!     wire: Resource::new("wire", 125e6),
//!     delivered: 0,
//! });
//! for _ in 0..2 {
//!     eng.schedule_at(SimTime::ZERO, |e| {
//!         let now = e.now();
//!         let done = e.world.wire.serve(now, 1500);
//!         e.schedule_at(done, |e| e.world.delivered += 1);
//!     });
//! }
//! let end = eng.run();
//! assert_eq!(eng.world.delivered, 2);
//! assert_eq!(end.as_nanos(), 24_000); // 2 * 1500 B at 125 MB/s
//! ```

#![warn(missing_docs)]
// Library-code rules (determinism and no printing); see DESIGN.md §9.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::print_stdout,
    clippy::print_stderr
)]

mod engine;
mod resource;
mod rng;
mod stats;
mod time;
pub mod trace;
pub mod units;

pub use engine::{Engine, Event, EventFn, NoEvent, Period};
pub use resource::{Resource, Served};
pub use rng::SimRng;
pub use stats::{Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use trace::{SharedSink, SpanRec, TraceSink};
