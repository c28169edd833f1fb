//! # netpipe — a Network Protocol Independent Performance Evaluator in Rust
//!
//! A faithful reimplementation of the NetPIPE methodology the paper is
//! built on (§2): ping-pong tests over an exponential size schedule with
//! perturbation points, repeated trials per point, small-message latency
//! extraction, and the classic throughput-signature output.
//!
//! Three driver families plug into the same runner:
//!
//! * [`SimDriver`] — any modeled library on any simulated 2002 cluster
//!   (this regenerates every figure of the paper);
//! * [`RealTcpDriver`] — genuine kernel TCP over loopback with tunable
//!   socket buffers (NetPIPE's TCP module, alive today);
//! * [`MpliteDriver`] — the real `mplite` message-passing library.
//!
//! ```
//! use netpipe::{run, RunOptions, SimDriver};
//! use hwmodel::presets::pcs_ga620;
//! use mpsim::libs::raw_tcp;
//!
//! let mut driver = SimDriver::new(pcs_ga620(), raw_tcp(512 * 1024));
//! let sig = run(&mut driver, &RunOptions::quick(1 << 20)).unwrap();
//! assert!(sig.latency_us > 50.0 && sig.max_mbps > 300.0);
//! ```

#![warn(missing_docs)]
// Library-code rules (panic hygiene and no printing); see DESIGN.md §9.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]
// Real-mode clock, sleep and blocking-socket bans (clippy.toml's
// `disallowed-methods`) bind library code; tests may wait on sockets.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod analysis;
mod driver;
mod mplite_driver;
mod real_tcp;
mod report;
mod runner;
mod schedule;

pub use analysis::{analyze, SignatureAnalysis};
pub use driver::{Driver, DriverError, NetpipeError, SimDriver};
pub use mplite_driver::MpliteDriver;
pub use real_tcp::{RealTcpDriver, RealTcpOptions};
pub use report::{ascii_figure, fault_report, summary_table, svg_figure, to_csv, to_plotfile};
pub use runner::{run, run_streaming, Point, PointStatus, RunOptions, Signature};
pub use schedule::{sizes, ScheduleOptions};
