//! The collective round lifecycle as a session-typed protocol machine.
//!
//! Every executor steps one [`CollRound`] machine per rank through each
//! round: `post~` on round entry, one `send!` per issued send, `drain~`
//! when the round turns to completing receives, one `recv?` per
//! completed receive, and `finish~` back to `Idle`. The machine is
//! declared with [`protospec::protocol!`], so `xtask analyze`'s
//! conformance passes (undeclared events, unreachable states,
//! non-terminal ends) cover the collectives subsystem like every other
//! protocol in the tree.

/// The per-round lifecycle machine, in its own module because
/// `protocol!` emits one ZST per state name.
pub mod round {
    protospec::protocol! {
        /// Lifecycle of one rank's participation in one schedule round.
        pub CollRound of collective.participant;
        states Idle, Exchanging, Draining;
        terminal Idle;
        Idle --post~--> Exchanging;
        Exchanging --send!--> Exchanging;
        Exchanging --drain~--> Draining;
        Draining --recv?--> Draining;
        Draining --finish~--> Idle;
    }
}

pub use round::CollRound;

/// Step a lifecycle machine, panicking on an illegal edge. Every edge
/// the executors drive is declared in the spec above, so a failure here
/// is an executor bug, not a runtime condition.
#[expect(
    clippy::expect_used,
    reason = "every edge stepped by the executors is declared in the protocol! spec; an illegal step is an executor bug"
)]
pub fn step(state: CollRound, event: &str) -> CollRound {
    state
        .step(event)
        .expect("collective lifecycle stepped outside its spec")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_round_walks_the_machine_back_to_idle() {
        let mut s = CollRound::initial();
        s = step(s, "post");
        s = step(s, "send");
        s = step(s, "send");
        s = step(s, "drain");
        s = step(s, "recv");
        s = step(s, "finish");
        assert!(s.is_terminal());
    }

    #[test]
    fn receiving_before_drain_is_illegal() {
        let s = step(CollRound::initial(), "post");
        assert!(s.step("recv").is_err());
    }
}
