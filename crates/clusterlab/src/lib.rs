//! # clusterlab — the paper's evaluation, as runnable experiments
//!
//! * [`presets`] — one [`presets::Experiment`] per figure (1–5) and per
//!   narrative table (tuning effects, latencies, rendezvous thresholds,
//!   kernel/driver comparisons), each entry carrying the paper's reported
//!   value for side-by-side comparison.
//! * [`sweep`] — measure an experiment's curves in parallel threads.
//! * [`calibration`] — the machine-checked *shape* criteria that define
//!   "reproduced": orderings, loss factors, dip locations, tuning deltas.
//! * [`comparison`] — paper-vs-measured tables (EXPERIMENTS.md is
//!   generated from these).
//! * [`chaos`] — seeded packet-loss ladders measuring graceful
//!   degradation (how much loss until a curve collapses).
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

pub mod breakdown;
pub mod calibration;
pub mod chaos;
pub mod collective;
pub mod comparison;
pub mod overlap;
pub mod presets;
pub mod scaling;
pub mod sweep;

pub use breakdown::{measure_breakdown, Breakdown, StageBusy};
pub use calibration::{checks_for, evaluate, Check, CheckResult};
pub use chaos::{chaos_table, degradation_sweep, ChaosPoint};
pub use collective::{
    chaos_collective, recovery_smoke, scale_ranks, scale_sizes, smoke_csv, CollConfig, CollCurve,
    CollPoint,
};
pub use comparison::{compare, digest, to_markdown, ComparisonRow};
pub use overlap::{measure_overlap, section7_panel, OverlapPoint};
pub use presets::{all_experiments, Entry, Experiment, PaperValues};
pub use scaling::{strong_scaling, AppModel, ScalingPoint};
pub use sweep::{run_experiment, ExperimentResult};
