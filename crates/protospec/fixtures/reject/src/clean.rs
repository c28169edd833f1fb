//! A conformant dual pair, split across two modules, and a token
//! `match` that steps only declared edges. Builds without a message.

/// Sender role: request, wait for the go-ahead, stream, rest.
pub mod sender {
    protospec::protocol! {
        /// Sender half of a rendezvous.
        pub Sender of clean.sender dual super::receiver::Receiver;
        states Idle, AwaitCts, Streaming;
        terminal Idle;
        Idle --rts!--> AwaitCts;
        AwaitCts --cts?--> Streaming;
        Streaming --data!--> Idle;
    }
}

/// Receiver role: every message the sender sends, it receives.
pub mod receiver {
    protospec::protocol! {
        /// Receiver half of a rendezvous.
        pub Receiver of clean.receiver dual super::sender::Sender;
        states Idle, CtsDue, Draining;
        terminal Idle;
        Idle --rts?--> CtsDue;
        CtsDue --cts!--> Draining;
        Draining --data?--> Idle;
    }
}

/// One step of the sender, whatever state it holds.
pub fn advance(s: sender::Sender) -> sender::Sender {
    match s {
        sender::Sender::Idle(s) => s.rts().into(),
        sender::Sender::AwaitCts(s) => s.cts().into(),
        sender::Sender::Streaming(s) => s.data().into(),
    }
}

/// A whole exchange as a typestate chain: it can only end at rest.
pub fn exchange() -> receiver::Idle {
    receiver::Receiver::start().rts().cts().data()
}
