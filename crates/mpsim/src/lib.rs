//! # mpsim — the paper's message-passing libraries as models
//!
//! Each library Turner & Chen measure is reproduced as a declarative
//! [`LibProfile`] (its architectural mechanisms) bound to a transport
//! ([`Transport::Tcp`] or [`Transport::Raw`]), executed by [`Session`]
//! over the `protosim` fabric:
//!
//! | library | mechanisms modeled | paper § |
//! |---|---|---|
//! | [`libs::mpich`] | p4 block-sync writes, 128 kB rendezvous, receive-buffer memcpy | 3.1, 4.1 |
//! | [`libs::lammpi`] | `-O` byte checks, `-lamd` daemon relay, fixed buffers | 3.2, 4.2 |
//! | [`libs::mpipro`] | progress thread, `tcp_long` rendezvous, fixed buffers | 3.3, 4.3 |
//! | [`libs::mp_lite`] | SIGIO progress, system-max buffers | 3.4, 4.4 |
//! | [`libs::pvm`] | pvmd stop-and-wait relay, packing copies, 4080 B fragments | 3.5, 4.5 |
//! | [`libs::tcgmsg`] | thin layer, hardwired 32 kB buffer | 3.6, 4.6 |
//! | [`libs::mpich_gm`], [`libs::mpipro_gm`] | GM recv modes, 16 kB threshold | 5 |
//! | [`libs::mvich`], [`libs::mp_lite_via`], [`libs::mpipro_via`] | RPUT, `via_long`, thread overhead | 6 |

#![warn(missing_docs)]
// Library-code rules (determinism and no printing); see DESIGN.md §9.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod libs;
pub mod multirank;
pub mod profile;
pub mod rendezvous;
pub mod session;

pub use multirank::MultiSession;
pub use profile::{FragmentCfg, LibProfile, MpLib, Progress, Routing, Transport};
pub use session::{pingpong, Session};
