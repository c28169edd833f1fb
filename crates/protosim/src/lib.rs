//! # protosim — transport protocols on the simulated testbed
//!
//! Discrete-event models of every communication layer the paper measures
//! beneath the message-passing libraries:
//!
//! * [`tcp`] — the Linux 2.4 TCP path over any of the Gigabit Ethernet
//!   NICs (window-fill stalls, delayed-ACK pathology, kernel copies,
//!   interrupt coalescing). Also serves as IP-over-GM when instantiated
//!   on the Myrinet cluster spec.
//! * [`raw`] — OS-bypass fabrics: Myrinet GM (polling/blocking/hybrid
//!   receive), Giganet cLAN hardware VIA, and the M-VIA software VIA.
//! * [`local`] — same-host pipes used by daemon-routed modes.
//! * [`fabric`] — the shared world: host CPU / PCI / NIC resources and
//!   the wire, with [`fabric::send`] dispatching over connection types.
//!
//! All transports deliver through continuation callbacks, so the library
//! models in `mpsim` can chain handshakes, daemon hops and copies without
//! the kernel knowing anything about them.

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

pub mod fabric;
pub mod local;
pub mod multinode;
pub mod raw;
pub mod tcp;
mod train;

pub use fabric::{
    cpu_track, flow_track, instrument, is_hw_track, lib_track, nic_track, pci_track, send,
    track_label, wire_track, Conn, ConnId, Continuation, Fabric, Net, NetEvent, Slots,
};
pub use multinode::{ring_halo_steps, MultiEngine, MultiEvent, MultiNet, Upper};
pub use raw::{RawParams, RecvMode};
pub use tcp::TcpParams;
pub use train::{send_train, Train};
