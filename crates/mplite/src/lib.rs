//! # mplite — a real lightweight message-passing library over TCP
//!
//! A from-scratch Rust analogue of **MP_Lite** (Ames Laboratory), the
//! lightweight message-passing library the paper's authors built and
//! measure in §3.4/§4.4: "a restricted set of the MPI commands, including
//! blocking and asynchronous send and receive functions, and many common
//! global operations" — with progress maintained at all times by
//! dedicated reader/writer threads (the modern equivalent of MP_Lite's
//! SIGIO module).
//!
//! ```
//! use mplite::{Universe, ReduceOp};
//!
//! let sums = Universe::run(4, |comm| {
//!     // Each rank contributes its rank id; everyone gets the total.
//!     comm.allreduce(&[comm.rank() as i64], ReduceOp::Sum).unwrap()[0]
//! }).unwrap();
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```
//!
//! Features:
//!
//! * tagged blocking/asynchronous point-to-point ([`Comm::send`],
//!   [`Comm::isend`], [`Comm::recv`], [`Comm::irecv`], [`Comm::probe`])
//!   with MPI-style matching (wildcards, FIFO per source/tag);
//! * collectives: [`Comm::barrier`], [`Comm::bcast`], [`Comm::reduce`],
//!   [`Comm::allreduce`], [`Comm::gather`], [`Comm::allgather`],
//!   [`Comm::scatter`], [`Comm::alltoall`];
//! * in-process jobs ([`Universe::local`] / [`Universe::run`]) and
//!   multi-process jobs bootstrapped from the environment
//!   ([`Universe::from_env`]).

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

mod buf;
mod collectives;
mod comm;
mod error;
pub mod frame;
pub mod fuzz;
mod lifecycle;
pub mod message;
mod sync;
pub mod trace;
mod universe;

pub use crate::collectives::{Algorithm, ReduceElem, ReduceOp};
pub use buf::Bytes;
pub use comm::{Comm, RecvRequest, SendRequest, Status};
pub use error::{MpError, Result};
pub use frame::{FrameDecodeState, FrameDecoder, FrameError};
pub use lifecycle::ConnLifeState;
pub use message::{ANY_SOURCE, ANY_TAG};
pub use universe::Universe;
