//! Membership and self-healing: eviction epochs, replanning, and the
//! typed recovery report.
//!
//! A collective run that loses a rank used to end as an annotated
//! *partial* report. With a [`RecoveryPolicy`] installed, the simulated
//! executor instead runs a bounded self-healing cycle:
//!
//! 1. **detect** — every round with outstanding receives arms a
//!    deadline; when it fires with a receive still missing, the missing
//!    sources become *suspects* (`Active --deadline~--> Suspect`);
//! 2. **confirm or clear** — after a backoff the suspect is probed: a
//!    live rank acks and is cleared (`Suspect --proof?--> Recovered
//!    --resume~--> Active`), a dead one is evicted (`Suspect --evict~-->
//!    Evicted`), bumping the membership epoch;
//! 3. **replan** — the schedule is re-planned over the ordered survivor
//!    group (virtual-rank compaction; the algorithm falls back to
//!    [`crate::plan::auto_algorithm`] if the family rejects the new
//!    count) and execution resumes from a safe per-rank carry state.
//!
//! One rank is evicted per epoch, so `k` rank deaths cost exactly `k`
//! epochs; every decision is a function of simulated events, so the
//! same seed and fault plan produce a byte-identical [`RecoveryReport`]
//! and trace. The membership machine below is a real
//! [`protospec::protocol!`] spec, so `xtask analyze`'s conformance
//! passes cover the recovery layer like every other protocol in the
//! tree.

use std::fmt::Write as _;

use crate::plan::Algorithm;

/// The membership lifecycle machine, in its own module because
/// `protocol!` emits one ZST per state name.
pub mod membership {
    protospec::protocol! {
        /// Membership of one rank as seen by the recovery layer.
        pub Membership of collective.member;
        states Active, Suspect, Evicted, Recovered;
        terminal Active, Evicted;
        Active --deadline~--> Suspect;
        Suspect --evict~--> Evicted;
        Suspect --proof?--> Recovered;
        Recovered --resume~--> Active;
    }
}

pub use membership::Membership;

/// Step a membership machine, panicking on an illegal edge. Every edge
/// the recovery layer drives is declared in the spec above, so a
/// failure here is a recovery-layer bug, not a runtime condition.
#[expect(
    clippy::expect_used,
    reason = "every edge the recovery layer steps is declared in the protocol! spec; an illegal step is a recovery bug"
)]
pub fn step_member(state: Membership, event: &str) -> Membership {
    state
        .step(event)
        .expect("membership machine stepped outside its spec")
}

/// Knobs for the self-healing cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// How long a round waits on an outstanding receive before the
    /// missing sources become suspects, microseconds.
    pub deadline_us: f64,
    /// Suspect-to-verdict probe delay, and the pause charged between an
    /// eviction and the replanned epoch's start, microseconds.
    pub backoff_us: f64,
    /// Most evictions tolerated before the run gives up and reports
    /// partial (each eviction is one epoch).
    pub max_epochs: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            deadline_us: 50_000.0,
            backoff_us: 10_000.0,
            max_epochs: 8,
        }
    }
}

/// One membership epoch: a single eviction and the replan that followed.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Membership epoch number after this eviction (1-based; epoch 0 is
    /// the original group).
    pub epoch: usize,
    /// The world rank evicted.
    pub evicted: usize,
    /// Absolute simulated time of the eviction, microseconds.
    pub at_us: f64,
    /// Survivor-group size after the eviction.
    pub survivors: usize,
    /// Algorithm family of the replanned schedule.
    pub algorithm: Algorithm,
}

/// What the self-healing cycle did over a whole run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// One record per eviction, in order.
    pub epochs: Vec<EpochRecord>,
    /// All evicted world ranks, in eviction order.
    pub evicted: Vec<usize>,
    /// Suspects that probed back alive and were restored to `Active`.
    pub suspects_cleared: usize,
    /// Schedule re-executions (equals `epochs.len()` unless the run
    /// gave up at `max_epochs`).
    pub retries: usize,
    /// The policy's round deadline, microseconds.
    pub deadline_us: f64,
    /// The policy's probe/replan backoff, microseconds.
    pub backoff_us: f64,
}

impl RecoveryReport {
    /// Deterministic one-report text rendering (the CI golden format).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let evicted: Vec<String> = self.evicted.iter().map(|r| r.to_string()).collect();
        let _ = writeln!(
            out,
            "recovery: epochs={} evicted=[{}] suspects-cleared={} retries={} deadline={}us backoff={}us",
            self.epochs.len(),
            evicted.join(","),
            self.suspects_cleared,
            self.retries,
            self.deadline_us,
            self.backoff_us,
        );
        for e in &self.epochs {
            let _ = writeln!(
                out,
                "epoch {}: evicted rank {} at {:.3}us, {} survivors, replanned {:?}",
                e.epoch, e.evicted, e.at_us, e.survivors, e.algorithm
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_walks_the_machine_to_a_terminal_state() {
        let mut m = Membership::initial();
        assert_eq!(m, Membership::Active);
        m = step_member(m, "deadline");
        assert_eq!(m, Membership::Suspect);
        m = step_member(m, "evict");
        assert!(m.is_terminal());
    }

    #[test]
    fn a_cleared_suspect_returns_to_active() {
        let mut m = step_member(Membership::initial(), "deadline");
        m = step_member(m, "proof");
        assert_eq!(m, Membership::Recovered);
        m = step_member(m, "resume");
        assert_eq!(m, Membership::Active);
        assert!(m.is_terminal());
    }

    #[test]
    fn evicting_an_active_rank_is_illegal() {
        assert!(Membership::Active.step("evict").is_err());
    }

    #[test]
    fn report_text_is_deterministic_and_complete() {
        let r = RecoveryReport {
            epochs: vec![EpochRecord {
                epoch: 1,
                evicted: 3,
                at_us: 2500.0,
                survivors: 7,
                algorithm: Algorithm::Tree,
            }],
            evicted: vec![3],
            suspects_cleared: 2,
            retries: 1,
            deadline_us: 2000.0,
            backoff_us: 500.0,
        };
        let t = r.to_text();
        assert_eq!(t, r.to_text());
        assert!(t.contains("epochs=1"), "{t}");
        assert!(t.contains("evicted rank 3 at 2500.000us"), "{t}");
        assert!(t.contains("7 survivors"), "{t}");
    }
}
