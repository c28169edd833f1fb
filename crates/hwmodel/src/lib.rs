//! # hwmodel — the CLUSTER 2002 testbed as data
//!
//! Parameterized models of every piece of hardware in Turner & Chen's
//! measurement study: the NICs (four Gigabit Ethernet families, Myrinet
//! PCI64A, Giganet cLAN), the PCI buses, the two host types (P4 PC and
//! Compaq DS20 Alpha), the Linux 2.2/2.4 kernels, and the two-node
//! cluster configurations of each figure.
//!
//! These are *pure data* — the protocol simulations in `protosim` turn
//! them into discrete-event pipelines. Every parameter is documented with
//! the paper mechanism it encodes; DESIGN.md §4 records the calibration.
//!
//! When a trace sink is installed (see `tracelab` and DESIGN.md §10),
//! each hardware unit described here — every host's CPU, PCI bus, and
//! NIC channels, and each wire direction — becomes one timeline *track*
//! in the recorded trace, so a [`ClusterSpec`]'s shape is also the
//! shape of its trace. The track numbering and labels live next to the
//! pipelines in `protosim` (`cpu_track`, `pci_track`, `nic_track`,
//! `wire_track`, `track_label`).

#![warn(missing_docs)]
// Library-code rules (determinism and no printing); see DESIGN.md §9.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod cluster;
pub mod host;
pub mod kernel;
pub mod nic;

pub use cluster::ClusterSpec;
pub use host::{CpuModel, HostModel, PciModel};
pub use kernel::KernelModel;
pub use nic::{LinkKind, NicModel};

/// Convenience namespace mirroring the paper's testbeds.
pub mod presets {
    pub use crate::cluster::{
        ds20s_ga622, ds20s_syskonnect_jumbo, pcs_fast_ethernet, pcs_fast_ethernet_dual, pcs_ga620,
        pcs_ga620_dual, pcs_giganet, pcs_mvia_syskonnect, pcs_myrinet, pcs_syskonnect,
        pcs_syskonnect_jumbo, pcs_trendnet,
    };
    pub use crate::host::{compaq_ds20, pc_pentium4};
    pub use crate::kernel::{linux_2_2, linux_2_4, linux_2_4_2_mvia};
    pub use crate::nic::{
        all_ethernet, fast_ethernet, giganet_clan, myrinet_pci64a, netgear_ga620, netgear_ga622,
        netgear_ga622_new_driver, syskonnect_sk9843, syskonnect_sk9843_jumbo, trendnet_teg_pcitx,
    };
}
