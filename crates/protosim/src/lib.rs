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
//! * [`Fabric`] — the shared world: host CPU / PCI / NIC resources and
//!   the wire, with [`send`] dispatching over connection types.
//!
//! A transport completes a message by handing an event to the layer bound
//! above its fabric ([`Upper`]), or by running a caller's continuation, so
//! the library models in `mpsim` can chain handshakes, daemon hops and
//! copies without the kernel knowing anything about them.

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

mod fabric;
pub mod local;
pub mod multinode;
pub mod raw;
pub mod tcp;
mod train;

use std::rc::Rc;

use simcore::Engine;

pub use fabric::{
    cpu_track, instrument, nic_track, pci_track, send, track_label, transmit, wire_track, Conn,
    ConnId, Continuation, Fabric, Net, NetEvent, Slots,
};
pub use multinode::{ring_halo_steps, MultiEngine, MultiEvent, MultiNet};
pub use raw::{RawParams, RecvMode};
pub use tcp::TcpParams;
pub use train::{transmit_train, Train};

/// The layers above a fabric, bound to one engine (see
/// [`Fabric::bind`] and [`MultiNet::bind`]): every event `E` past the
/// fabric's own is handed to it. Its state is its own (interior
/// mutability); the fabric holds a counted reference, so a layer may
/// schedule events, send messages and call back into itself through the
/// engine it is given.
pub trait Upper<W, E> {
    /// Run one of the layer's events.
    fn dispatch(&self, eng: &mut Engine<W, E>, ev: E);
}

/// The layer a fabric hands its upper events to, once one is bound.
pub(crate) struct Bound<W, E>(Option<Rc<dyn Upper<W, E>>>);

impl<W, E> Default for Bound<W, E> {
    fn default() -> Self {
        Bound(None)
    }
}

impl<W, E> Bound<W, E> {
    /// Bind `layer`. Binding the layer already bound is a no-op; one
    /// engine carries one layer.
    pub(crate) fn bind(&mut self, layer: Rc<dyn Upper<W, E>>) {
        match &self.0 {
            Some(bound) => assert!(
                std::ptr::addr_eq(Rc::as_ptr(bound), Rc::as_ptr(&layer)),
                "a different layer is already bound above this fabric"
            ),
            None => self.0 = Some(layer),
        }
    }

    /// The bound layer, counted once more for the call it runs.
    pub(crate) fn layer(&self) -> Rc<dyn Upper<W, E>> {
        #[expect(
            clippy::expect_used,
            reason = "only a bound layer schedules its own events or transmits its messages"
        )]
        let up = self.0.as_ref().expect("no layer is bound above the fabric");
        Rc::clone(up)
    }
}
