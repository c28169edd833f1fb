//! # clusterlab — the paper's evaluation, as runnable experiments
//!
//! * [`presets`] — one [`presets::Experiment`] per figure (1–5) and per
//!   narrative table (tuning effects, latencies, rendezvous thresholds,
//!   kernel/driver comparisons), each entry carrying the paper's reported
//!   value for side-by-side comparison.
//! * [`run_experiment`] — measure an experiment's curves in parallel
//!   threads.
//! * [`calibration`] — the machine-checked *shape* criteria that define
//!   "reproduced": orderings, loss factors, dip locations, tuning deltas.
//! * [`compare`] / [`to_markdown`] — paper-vs-measured tables
//!   (EXPERIMENTS.md is generated from these).
//! * [`collective`] — N-rank collective-scaling sweeps (latency vs rank
//!   count and payload size per algorithm) with a seeded chaos variant.

#![warn(missing_docs)]
// Library-code rules (determinism and no printing); see DESIGN.md §9.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::print_stdout,
    clippy::print_stderr
)]

mod breakdown;
pub mod calibration;
pub mod collective;
mod comparison;
pub mod overlap;
pub mod presets;
pub mod scaling;
mod sweep;

pub use breakdown::{measure_breakdown, Breakdown, StageBusy};
pub use calibration::{checks_for, evaluate};
pub use collective::{
    chaos_collective, recovery_smoke, scale_ranks, scale_sizes, smoke_csv, CollConfig, CollCurve,
    CollPoint,
};
pub use comparison::{compare, digest, to_markdown, ComparisonRow};
pub use overlap::{measure_overlap, section7_panel};
pub use presets::{all_experiments, Experiment};
pub use scaling::{strong_scaling, AppModel};
pub use sweep::{run_experiment, ExperimentResult};
