//! One violation per rule rustc enforces: those a `protocol!` machine
//! is held to, and field race-freedom. Each line that must fail the
//! build names a fragment of its error in a trailing `rejects:` marker. An error raised inside the expansion is traced
//! back to the invocation's first line; one on a token the invocation
//! wrote (a state, a `dual` path) stays on that token's line.

pub mod clean;

pub mod unreachable {
    protospec::protocol! { // rejects: state `Orphan` is unreachable from the initial state
        pub Machine of reject.unreachable;
        states Start, Done, Orphan;
        terminal Done;
        Start --go~--> Done;
        Orphan --go~--> Done;
    }
}

pub mod live_lock {
    protospec::protocol! { // rejects: state `Pit` has no path to a terminal state
        pub Machine of reject.live_lock;
        states Start, Done, Pit;
        terminal Done;
        Start --ok~--> Done;
        Start --oops~--> Pit;
        Pit --spin~--> Pit;
    }
}

pub mod undeclared_terminal {
    protospec::protocol! { // rejects: terminal `Gone` is not a declared state
        pub Machine of reject.undeclared_terminal;
        states Start, Done;
        terminal Done, Gone;
        Start --go~--> Done;
    }
}

pub mod undeclared_endpoint {
    protospec::protocol! {
        pub Machine of reject.undeclared_endpoint;
        states Start, Done;
        terminal Done;
        Start --go~--> Done;
        Done --lost~--> Ghost; // rejects: `Ghost`
    }
}

pub mod duplicate_edge {
    protospec::protocol! { // rejects: duplicate definitions with name `go`
        pub Machine of reject.duplicate_edge;
        states Start, Done;
        terminal Done;
        Start --go~--> Done;
        Start --go~--> Start;
    }
}

/// A pair whose message sets disagree in both directions.
pub mod sender {
    protospec::protocol! { // rejects: sends `extra` but the dual never receives it
        pub Sender of reject.sender dual super::receiver::Receiver;
        states Idle, Sent;
        terminal Idle;
        Idle --extra!--> Sent;
        Sent --ack?--> Idle;
    }
}

/// The other half of [`sender`].
pub mod receiver {
    protospec::protocol! { // rejects: receives `stray` but the dual never sends it
        pub Receiver of reject.receiver dual super::sender::Sender;
        states Idle, Acked;
        terminal Idle;
        Idle --ack!--> Acked;
        Acked --stray?--> Idle;
    }
}

pub mod missing_dual {
    protospec::protocol! {
        pub Machine of reject.missing_dual dual super::nowhere::Peer; // rejects: nowhere
        states Idle, Sent;
        terminal Idle;
        Idle --hello!--> Sent;
        Sent --bye~--> Idle;
    }
}

use clean::sender::{Idle, Sender};

/// A matched token takes only its own state's edges.
pub fn off_table_edge(s: Sender) -> Sender {
    match s {
        Sender::Idle(idle) => idle.cts().into(), // rejects: no method named `cts`
        other => other,
    }
}

/// A token has one private field: no module but its own can build it.
pub fn hand_built_token() -> Idle {
    Idle(()) // rejects: private fields
}

/// The enum has one variant per declared state and no others.
pub fn undeclared_variant(s: Sender) -> bool {
    matches!(s, Sender::Bogus(_)) // rejects: no variant
}

/// Field race-freedom. With `unsafe_code` denied, a field shared across
/// threads changes only through `&mut` or a `Sync` cell: a shared
/// borrow cannot write a plain field, and a scoped thread cannot touch
/// a non-`Sync` one.
pub mod race_shapes {
    use std::cell::Cell;

    pub struct Counter {
        count: u64,
        hits: Cell<u64>,
    }

    impl Counter {
        pub fn bump(&self) {
            self.count += 1; // rejects: which is behind a `&` reference
        }

        pub fn bump_from_thread(&self) {
            std::thread::scope(|s| {
                s.spawn(|| self.hits.set(self.hits.get() + 1)); // rejects: cannot be shared between threads safely
            });
        }
    }
}
