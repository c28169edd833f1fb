//! The schedule: a collective algorithm as data.
//!
//! A [`Schedule`] holds, for every rank, an ordered list of rounds; a
//! round issues sends and then completes (and folds in) receives. The
//! planners in [`crate::plan`] generate schedules; the executors in
//! [`crate::exec`] and [`crate::sim`] interpret them. Rounds are
//! *rank-local*: rank A's round 3 receive may match rank B's round 0
//! send — matching relies on per-pair FIFO delivery, which both the
//! simulated fabric and mplite's socket mesh guarantee.
//!
//! Schedules are expressed in *virtual* ranks with the root at virtual
//! rank 0; executors rotate peers by the actual root, so one plan
//! serves every root.

use std::collections::BTreeMap;

use crate::op::CollOp;
use crate::plan::Algorithm;

/// What a send step puts on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendWhat {
    /// An empty synchronization token (barrier traffic).
    Token,
    /// The rank's running reduction accumulator.
    Acc,
    /// The listed block slots, by virtual origin rank. A single block
    /// travels raw; several are framed with [`crate::op::pack_blocks`].
    Blocks(Vec<u32>),
}

/// What a receive step does with the arriving bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvWhat {
    /// Expect an empty token; keep nothing.
    Token,
    /// Fold into the accumulator under the run's reduction.
    CombineAcc,
    /// Overwrite the accumulator (result-distribution phases).
    ReplaceAcc,
    /// Store into the listed block slots (mirror of
    /// [`SendWhat::Blocks`]).
    Blocks(Vec<u32>),
}

/// One send: `what` goes to virtual rank `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendStep {
    /// Destination virtual rank.
    pub to: u32,
    /// Payload selector.
    pub what: SendWhat,
}

/// One receive: bytes from virtual rank `from` are applied per `what`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvStep {
    /// Source virtual rank.
    pub from: u32,
    /// Application rule; receives apply in listed order, which fixes
    /// the reduction fold order across backends.
    pub what: RecvWhat,
}

/// One round of one rank's plan: issue every send, then complete every
/// receive (applying them in order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Round {
    /// Sends issued at round entry, in order.
    pub sends: Vec<SendStep>,
    /// Receives the round blocks on, in application order.
    pub recvs: Vec<RecvStep>,
}

/// All rounds of one rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankPlan {
    /// Rounds in execution order. Idle phases are simply absent — a
    /// rank that participates twice in a ring has exactly two rounds.
    pub rounds: Vec<Round>,
}

/// A complete collective schedule for `nranks` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The collective this schedule implements.
    pub op: CollOp,
    /// The algorithm family that generated it.
    pub algorithm: Algorithm,
    /// Number of participating ranks.
    pub nranks: usize,
    /// One plan per virtual rank.
    pub plans: Vec<RankPlan>,
}

impl Schedule {
    /// Total point-to-point messages the schedule moves.
    pub fn total_messages(&self) -> usize {
        self.plans
            .iter()
            .flat_map(|p| p.rounds.iter())
            .map(|r| r.sends.len())
            .sum::<usize>()
    }

    /// The deepest per-rank round count (the latency-critical depth).
    pub fn max_rounds(&self) -> usize {
        self.plans
            .iter()
            .map(|p| p.rounds.len())
            .fold(0, usize::max)
    }

    /// Structural self-check: peers in range, no self-sends, and for
    /// every ordered rank pair the FIFO sequence of sent payload
    /// classes equals the FIFO sequence of expected receive classes.
    /// Returns a description of the first defect found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nranks;
        if self.plans.len() != n {
            return Err(format!("{} plans for {} ranks", self.plans.len(), n));
        }
        // Per ordered pair, keyed `(to, from)` so the first defect is
        // reported in (receiver, sender) order: classes sent and expected.
        type Classes<'a> = (Vec<&'a SendWhat>, Vec<&'a RecvWhat>);
        let mut pairs: BTreeMap<(usize, usize), Classes<'_>> = BTreeMap::new();
        for (me, plan) in self.plans.iter().enumerate() {
            for round in &plan.rounds {
                for s in &round.sends {
                    let to = s.to as usize;
                    if to >= n {
                        return Err(format!("rank {me} sends to out-of-range {to}"));
                    }
                    if to == me {
                        return Err(format!("rank {me} sends to itself"));
                    }
                    pairs.entry((to, me)).or_default().0.push(&s.what);
                }
                for r in &round.recvs {
                    let from = r.from as usize;
                    if from >= n {
                        return Err(format!("rank {me} receives from out-of-range {from}"));
                    }
                    if from == me {
                        return Err(format!("rank {me} receives from itself"));
                    }
                    pairs.entry((me, from)).or_default().1.push(&r.what);
                }
            }
        }
        for ((to, from), (s, e)) in &pairs {
            if s.len() != e.len() {
                return Err(format!(
                    "pair {from}->{to}: {} sends vs {} receives",
                    s.len(),
                    e.len()
                ));
            }
            for (i, (sw, rw)) in s.iter().zip(e.iter()).enumerate() {
                if !classes_match(sw, rw) {
                    return Err(format!(
                        "pair {from}->{to} message {i}: send {sw:?} vs recv {rw:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Stable structural digest (FNV-1a over a canonical rendering).
    /// Two backends handed the same digest are executing byte-identical
    /// schedules — the cross-check the acceptance criteria ask for.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.byte(match self.op {
            CollOp::Barrier => 0,
            CollOp::Bcast => 1,
            CollOp::Reduce => 2,
            CollOp::Allreduce => 3,
            CollOp::Allgather => 4,
        });
        h.byte(match self.algorithm {
            Algorithm::Linear => 0,
            Algorithm::Tree => 1,
            Algorithm::Dissemination => 2,
            Algorithm::RecursiveDoubling => 3,
            Algorithm::Ring => 4,
        });
        h.u64(self.nranks as u64);
        for plan in &self.plans {
            h.u64(plan.rounds.len() as u64);
            for round in &plan.rounds {
                h.u64(round.sends.len() as u64);
                for s in &round.sends {
                    h.u64(u64::from(s.to));
                    hash_send(&mut h, &s.what);
                }
                h.u64(round.recvs.len() as u64);
                for r in &round.recvs {
                    h.u64(u64::from(r.from));
                    hash_recv(&mut h, &r.what);
                }
            }
        }
        h.finish()
    }
}

fn classes_match(s: &SendWhat, r: &RecvWhat) -> bool {
    match (s, r) {
        (SendWhat::Token, RecvWhat::Token) => true,
        (SendWhat::Acc, RecvWhat::CombineAcc | RecvWhat::ReplaceAcc) => true,
        (SendWhat::Blocks(a), RecvWhat::Blocks(b)) => a == b,
        _ => false,
    }
}

fn hash_send(h: &mut Fnv, what: &SendWhat) {
    match what {
        SendWhat::Token => h.byte(0),
        SendWhat::Acc => h.byte(1),
        SendWhat::Blocks(idxs) => {
            h.byte(2);
            h.u64(idxs.len() as u64);
            for &i in idxs {
                h.u64(u64::from(i));
            }
        }
    }
}

fn hash_recv(h: &mut Fnv, what: &RecvWhat) {
    match what {
        RecvWhat::Token => h.byte(0),
        RecvWhat::CombineAcc => h.byte(1),
        RecvWhat::ReplaceAcc => h.byte(2),
        RecvWhat::Blocks(idxs) => {
            h.byte(3);
            h.u64(idxs.len() as u64);
            for &i in idxs {
                h.u64(u64::from(i));
            }
        }
    }
}

/// FNV-1a, hand-rolled so the digest is stable across Rust releases
/// (std's `DefaultHasher` makes no such promise).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.byte(b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{algorithms_for, build};

    #[test]
    fn every_planned_schedule_validates() {
        for op in CollOp::all() {
            for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 16, 33] {
                for alg in algorithms_for(op, n) {
                    let s = build(op, alg, n).unwrap();
                    s.validate()
                        .unwrap_or_else(|e| panic!("{op:?}/{alg:?}/{n}: {e}"));
                }
            }
        }
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        let a = build(CollOp::Barrier, Algorithm::Dissemination, 8).unwrap();
        let b = build(CollOp::Barrier, Algorithm::Dissemination, 8).unwrap();
        assert_eq!(a.digest(), b.digest());
        let c = build(CollOp::Barrier, Algorithm::Tree, 8).unwrap();
        assert_ne!(a.digest(), c.digest());
        let d = build(CollOp::Barrier, Algorithm::Dissemination, 9).unwrap();
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn validate_catches_an_unmatched_send() {
        let mut s = build(CollOp::Barrier, Algorithm::Ring, 4).unwrap();
        s.plans[0].rounds[0].sends.push(SendStep {
            to: 2,
            what: SendWhat::Token,
        });
        assert!(s.validate().is_err());
    }
}
