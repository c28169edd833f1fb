//! # faultlab — deterministic fault injection and resilience policies
//!
//! The paper's most interesting curves are *failure signatures*: TCP
//! throughput dropouts at large message sizes, socket-buffer-dependent
//! stalls, MVICH runs that simply die. A perfect lossless fabric cannot
//! reproduce any of them, and a real-mode driver that blocks forever on a
//! dead peer cannot survive them. This crate supplies both halves of the
//! fix:
//!
//! * **Sim side** — a [`FaultPlan`] describes packet loss, duplication,
//!   reordering, delay jitter and timed link-degradation windows. A
//!   [`FaultLottery`] (seeded through [`simcore::SimRng`]) turns the plan
//!   into per-segment decisions, fully deterministically: the same seed
//!   and plan produce byte-identical sweeps and traces. `protosim`
//!   consults the lottery on every wire crossing and models TCP
//!   retransmission timeouts on loss.
//! * **Real side** — a [`RetryPolicy`] (bounded exponential backoff) and
//!   deadline-bounded socket I/O helpers ([`io`]) so `netpipe::real_tcp`
//!   and `mplite` never block forever on a dead peer, plus a
//!   [`SweepPolicy`] giving `netpipe::runner` per-point budgets for
//!   graceful degradation (retry, then mark the point `degraded`/`failed`
//!   and continue). [`set_socket_buffers`] sizes both real stacks'
//!   sockets, the one socket option `std::net` lacks.
//!
//! Everything is dependency-free and the plan grammar is a flat
//! `key=value` list so fault scenarios travel on a command line:
//!
//! ```
//! use faultlab::FaultPlan;
//! let plan = FaultPlan::parse("seed=7,loss=0.02,jitter=50us,degrade=1ms..4ms@0.25")
//!     .expect("plan parses");
//! assert_eq!(plan.seed, 7);
//! assert!(!plan.is_lossless());
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

mod counters;
pub mod io;
mod lifecycle;
mod lottery;
mod plan;
pub mod proxy;
mod retry;
mod sockopt;

pub use counters::FaultCounters;
pub use lifecycle::SegLifeState;
pub use lottery::{FaultLottery, SegFault};
pub use plan::{DegradeWindow, FaultPlan, PartitionWindow, PlanError, RankKill};
pub use proxy::{ChaosProxy, FaultEvent, FrameFormat};
pub use retry::{RetryPolicy, SweepPolicy};
pub use sockopt::set_socket_buffers;
