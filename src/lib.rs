//! # netpipe-rs
//!
//! A comprehensive reproduction of **Turner & Chen, *Protocol-Dependent
//! Message-Passing Performance on Linux Clusters*, IEEE CLUSTER 2002** —
//! the NetPIPE measurement methodology, every message-passing library and
//! transport the paper evaluates (on a calibrated discrete-event model of
//! its 2002 testbed), plus a real, usable message-passing library over
//! TCP sockets in the spirit of the authors' MP_Lite.
//!
//! This crate is a façade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `simcore` | deterministic discrete-event kernel |
//! | [`hw`] | `hwmodel` | NICs, PCI, hosts, kernels, cluster presets |
//! | [`proto`] | `protosim` | TCP / GM / VIA transport models |
//! | [`mp`] | `mpsim` | the paper's libraries as models |
//! | [`pipe`] | `netpipe` | the NetPIPE harness (sim + real sockets) |
//! | [`lab`] | `clusterlab` | per-figure experiments + calibration |
//! | [`mplite`](mod@mplite) | `mplite` | real message passing over TCP |
//! | [`trace`](mod@trace) | `tracelab` | per-message tracing, metrics, timeline export |
//!
//! ## Quickstart
//!
//! ```
//! use netpipe_rs::prelude::*;
//!
//! // Measure the tuned MPICH model on the paper's fig-1 cluster.
//! let mut driver = SimDriver::new(pcs_ga620(), mpich(MpichConfig::tuned()));
//! let sig = run(&mut driver, &RunOptions::quick(1 << 20)).unwrap();
//! assert!(sig.latency_us > 100.0);
//! ```

// Library-code rules (no printing); see DESIGN.md §9.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub use clusterlab as lab;
pub use hwmodel as hw;
pub use mplite;
pub use mpsim as mp;
pub use netpipe as pipe;
pub use protosim as proto;
pub use simcore as sim;
pub use tracelab as trace;

/// The most commonly used items in one import.
pub mod prelude {
    pub use clusterlab::{all_experiments, compare, run_experiment, section7_panel};
    pub use hwmodel::presets::*;
    pub use mplite::{Comm, ReduceOp, Universe};
    pub use mpsim::libs::*;
    pub use mpsim::{MpLib, Session};
    pub use netpipe::{
        analyze, ascii_figure, run, summary_table, Driver, MpliteDriver, RealTcpDriver,
        RealTcpOptions, RunOptions, SimDriver,
    };
    pub use simcore::units::{kib, mib, throughput_mbps};
}
