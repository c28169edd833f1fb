//! The segment RTO/retransmit/conn-death lifecycle, as an explicit
//! protocol specification.
//!
//! `protosim::tcp` drives every faulted segment through this machine:
//! a segment in flight faces the fault lottery; a drop parks the sender
//! in the RTO wait, from which it either retransmits (and faces the
//! lottery afresh) or — once `max_retrans` attempts are burned — kills
//! the connection for good. The spec below is the single source of
//! record: `protosim::tcp::pump` matches the state and steps the
//! matched token, so a step off this table does not compile.

protospec::protocol! {
    /// Per-segment fault lifecycle (Linux 2.4 TCP semantics: fixed RTO,
    /// bounded retransmissions, then the connection declares itself
    /// dead rather than deadlock the sweep).
    ///
    /// Events are internal (`~`): the peer never sees drops or timer
    /// expiries, only the delivered copy.
    pub SegLifeState of faultlab.segment;
    states InFlight, RtoWait, Delivered, Dead;
    terminal Delivered, Dead;
    InFlight --deliver~--> Delivered;
    InFlight --drop~--> RtoWait;
    RtoWait --retransmit~--> InFlight;
    RtoWait --exhaust~--> Dead;
}

#[cfg(test)]
mod tests {
    use super::SegLifeState;

    #[test]
    fn lifecycle_paths_follow_the_table() {
        assert_eq!(SegLifeState::SPEC.name, "faultlab.segment");
        // Happy path.
        let s = SegLifeState::initial().step("deliver").expect("edge");
        assert!(s.is_terminal());
        // Drop → retransmit → deliver.
        let s = SegLifeState::initial()
            .step("drop")
            .and_then(|s| s.step("retransmit"))
            .and_then(|s| s.step("deliver"))
            .expect("declared chain");
        assert!(matches!(s, SegLifeState::Delivered(_)));
        // Exhaustion is terminal and absorbing.
        let dead = SegLifeState::from(SegLifeState::start().drop().exhaust());
        assert!(dead.is_terminal());
        assert!(dead.step("retransmit").is_err());
    }
}
