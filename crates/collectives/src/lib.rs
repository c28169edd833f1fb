//! # collectives — collective algorithms as data
//!
//! The paper's measurements are point-to-point; real applications spend
//! their communication time in *collectives*, and every message-passing
//! library it compares ships its own barrier/bcast/reduce trees. This
//! crate makes the algorithm itself a first-class value: a planner
//! turns (op, algorithm, nranks) into a [`Schedule`] — per rank, an
//! ordered list of rounds of send and receive steps, held in flat
//! tables of `Copy` steps — and *executors* read it, through
//! [`Schedule::rounds`], over different transports:
//!
//! * [`exec::run_blocking`] drives any blocking transport implementing
//!   [`exec::CollTransport`] (mplite's real `Comm` does);
//! * [`sim::time_sim`] times N simulated ranks over the
//!   [`protosim::multinode`] switched fabric with
//!   [`mpsim::LibProfile`] per-message library costs, moving message
//!   lengths, not bytes;
//! * [`exec::run_local`] is the in-memory reference stepper the
//!   property tests compare the others against. [`sim::run_sim`] is
//!   [`sim::time_sim`] followed by `run_local` over the ranks that ran
//!   last.
//!
//! Because payload materialization and receive application live in one
//! place (`state::RankState`), the two data executors produce
//! byte-identical results for the same schedule and inputs, and the
//! simulated backend decides only *when*, never *what*.
//! [`Schedule::digest`] makes the "same schedule" claim checkable
//! across processes.
//!
//! Five algorithm families cover five ops (see [`plan::build`] for the
//! exact support matrix): linear, binomial tree, dissemination/Bruck,
//! recursive doubling, and ring. All are expressed in virtual ranks
//! with the root at 0; executors rotate by the actual root.

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

mod exec;
mod lifecycle;
mod op;
mod plan;
mod recovery;
mod schedule;
mod sim;
mod state;

pub use exec::{run_blocking, run_local, CollTransport, ExecCtx};
pub use op::{combine_bytes, CollOp, Dtype, ReduceOp};
pub use plan::{algorithms_for, auto_algorithm, build, Algorithm, PlanError};
pub use recovery::{EpochRecord, Membership, RecoveryPolicy, RecoveryReport};
pub use schedule::{BlockRange, RecvStep, RecvWhat, Schedule, SendStep, SendWhat};
pub use sim::{run_sim, time_sim, RankFault, SimOptions, SimReport, SimTiming};
pub use state::{CollOutput, Reduction};
