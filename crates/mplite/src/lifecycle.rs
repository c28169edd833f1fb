//! The communicator connection lifecycle, as an explicit protocol
//! specification.
//!
//! An MP_Lite-style communicator boots (full-mesh connect + hello
//! exchange in [`crate::universe`], reader/writer threads spawned in
//! [`crate::comm`]), runs steady-state, and leaves the steady state
//! exactly one way per cause: a peer dying mid-message *poisons* the
//! match engine (every posted and future receive fails fast, the sweep
//! survives), and finalization — clean or after poison — retires it
//! for good. [`crate::message::MatchEngine`] holds the live state and
//! steps it by matching the state and taking an edge of the matched
//! token, so a step off this table does not compile.

protospec::protocol! {
    /// Connection lifecycle: boot → steady, with poison and finalize
    /// exits. `Finalized` is the only rest state — a communicator that
    /// never finalizes is a leaked mesh.
    pub ConnLifeState of mplite.connection;
    states Booting, Steady, Poisoned, Finalized;
    terminal Finalized;
    Booting --ready~--> Steady;
    Booting --poison~--> Poisoned;
    Booting --finalize~--> Finalized;
    Steady --poison~--> Poisoned;
    Steady --finalize~--> Finalized;
    Poisoned --finalize~--> Finalized;
}

#[cfg(test)]
mod tests {
    use super::ConnLifeState;

    #[test]
    fn lifecycle_paths_follow_the_table() {
        assert!(matches!(
            ConnLifeState::initial(),
            ConnLifeState::Booting(_)
        ));
        // Clean life: boot → steady → finalized.
        let s = ConnLifeState::start().ready().finalize();
        assert!(ConnLifeState::from(s).is_terminal());
        // Peer death: steady → poisoned → finalized.
        let s = ConnLifeState::initial()
            .step("ready")
            .and_then(|s| s.step("poison"))
            .and_then(|s| s.step("finalize"))
            .expect("poisoned path");
        assert!(matches!(s, ConnLifeState::Finalized(_)));
        // A finalized communicator cannot come back.
        assert!(s.step("ready").is_err());
    }
}
