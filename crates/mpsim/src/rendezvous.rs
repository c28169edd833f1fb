//! The eager→rendezvous handshake, as an explicit protocol pair.
//!
//! Above the library's rendezvous threshold a send is three moves —
//! request-to-send over the transport, clear-to-send back, then the
//! payload (§3 of the paper; every TCP library and the GM long-message
//! path share the shape). [`Session`](crate::Session) holds the sender
//! typestate token in each message's record, one phase per state, so
//! the RTS→CTS→data order is pinned at compile time, and
//! `send_while_receiver_busy` drives the receiver role the same way
//! (the CTS cannot leave a busy receiver until it re-enters the library
//! — the paper's §7 overlap story).
//!
//! The two roles are declared dual: every message one side sends the
//! other receives, or the crate does not build.

/// Sender role of the rendezvous handshake.
pub(crate) mod sender {
    protospec::protocol! {
        /// Sender: emit RTS, wait for CTS, then stream the payload.
        pub(crate) RndvSendState of rendezvous.sender dual super::receiver::RndvRecvState;
        states Idle, AwaitCts, Streaming;
        terminal Idle;
        Idle --rts!--> AwaitCts;
        AwaitCts --cts?--> Streaming;
        Streaming --data!--> Idle;
    }
}

/// Receiver role of the rendezvous handshake.
pub(crate) mod receiver {
    protospec::protocol! {
        /// Receiver: take the RTS, answer CTS once the library is
        /// entered, then drain the payload.
        pub(crate) RndvRecvState of rendezvous.receiver dual super::sender::RndvSendState;
        states Idle, CtsDue, Draining;
        terminal Idle;
        Idle --rts?--> CtsDue;
        CtsDue --cts!--> Draining;
        Draining --data?--> Idle;
    }
}
