//! The schedule: a collective algorithm as data.
//!
//! A [`Schedule`] holds, for every rank, an ordered list of rounds; a
//! round issues sends and then completes (and folds in) receives. The
//! planners in [`crate::plan`] write schedules; the executors in
//! [`crate::exec`] and [`crate::sim`] read them through
//! [`Schedule::rounds`], or the same rounds by index where a rank
//! resumes mid-schedule. Rounds are *rank-local*: rank A's round 3
//! receive may match rank B's round 0 send — matching relies on
//! per-pair FIFO delivery, which both the simulated fabric and mplite's
//! socket mesh guarantee.
//!
//! The steps live in four flat, rank-major tables: per rank its first
//! round, per round its first send and first receive, then the sends
//! and the receives themselves. Every step is `Copy` — a block list is
//! a cyclic [`BlockRange`] — so a schedule of any size is four
//! allocations.
//!
//! Schedules are expressed in *virtual* ranks with the root at virtual
//! rank 0; executors rotate peers by the actual root, so one plan
//! serves every root.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::op::CollOp;
use crate::plan::Algorithm;

/// The block slots `first, first + 1, …` (`count` of them), taken
/// modulo the rank count: every block list a planner emits is one such
/// cyclic range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRange {
    /// First slot, by virtual origin rank.
    pub first: u32,
    /// Number of slots.
    pub count: u32,
}

impl BlockRange {
    /// The slots in order, wrapping at `n`.
    pub fn slots(self, n: usize) -> impl Iterator<Item = u32> {
        let n = n as u64;
        (0..u64::from(self.count)).map(move |j| ((u64::from(self.first) + j) % n) as u32)
    }
}

/// What a send step puts on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendWhat {
    /// An empty synchronization token (barrier traffic).
    Token,
    /// The rank's running reduction accumulator.
    Acc,
    /// The range's block slots, by virtual origin rank. A single block
    /// travels raw; several are framed with [`crate::op::pack_blocks`].
    Blocks(BlockRange),
}

/// What a receive step does with the arriving bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvWhat {
    /// Expect an empty token; keep nothing.
    Token,
    /// Fold into the accumulator under the run's reduction.
    CombineAcc,
    /// Overwrite the accumulator (result-distribution phases).
    ReplaceAcc,
    /// Store into the range's block slots (mirror of
    /// [`SendWhat::Blocks`]).
    Blocks(BlockRange),
}

/// One send: `what` goes to virtual rank `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendStep {
    /// Destination virtual rank.
    pub to: u32,
    /// Payload selector.
    pub what: SendWhat,
}

/// One receive: bytes from virtual rank `from` are applied per `what`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvStep {
    /// Source virtual rank.
    pub from: u32,
    /// Application rule; receives apply in listed order, which fixes
    /// the reduction fold order across backends.
    pub what: RecvWhat,
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
    /// Virtual rank `v`'s rounds are `first_round[v]..first_round[v + 1]`.
    first_round: Vec<u32>,
    /// Round `i` sends `sends[rounds[i].0..rounds[i + 1].0]` and
    /// receives `recvs[rounds[i].1..rounds[i + 1].1]`; a sentinel ends it.
    rounds: Vec<(u32, u32)>,
    sends: Vec<SendStep>,
    recvs: Vec<RecvStep>,
}

impl Schedule {
    /// Virtual rank `v`'s rounds in execution order: each is the sends
    /// issued at round entry and the receives the round then completes,
    /// in application order. Idle phases are simply absent — a rank
    /// that participates twice in a ring has exactly two rounds.
    pub fn rounds(
        &self,
        v: usize,
    ) -> impl ExactSizeIterator<Item = (&[SendStep], &[RecvStep])> + '_ {
        self.round_ids(v).map(|i| self.round(i))
    }

    /// Virtual rank `v`'s rounds as indices for [`Schedule::round`].
    pub(crate) fn round_ids(&self, v: usize) -> Range<usize> {
        self.first_round[v] as usize..self.first_round[v + 1] as usize
    }

    /// Round `i`'s sends as indices into the send table.
    pub(crate) fn send_ids(&self, i: usize) -> Range<usize> {
        self.rounds[i].0 as usize..self.rounds[i + 1].0 as usize
    }

    /// Round `i`'s receives as indices into the receive table.
    pub(crate) fn recv_ids(&self, i: usize) -> Range<usize> {
        self.rounds[i].1 as usize..self.rounds[i + 1].1 as usize
    }

    /// Round `i` of [`Schedule::rounds`], addressed by its index.
    pub(crate) fn round(&self, i: usize) -> (&[SendStep], &[RecvStep]) {
        (&self.sends[self.send_ids(i)], &self.recvs[self.recv_ids(i)])
    }

    /// Total point-to-point messages the schedule moves.
    pub fn total_messages(&self) -> usize {
        self.sends.len()
    }

    /// Total receive steps; a validated schedule has one per message.
    pub(crate) fn total_receives(&self) -> usize {
        self.recvs.len()
    }

    /// The deepest per-rank round count (the latency-critical depth).
    pub fn max_rounds(&self) -> usize {
        (0..self.nranks)
            .map(|v| self.round_ids(v).len())
            .fold(0, usize::max)
    }

    /// Every rank's round count, if all ranks have rank 0's, each round
    /// is exactly one send and one receive, and in round `k` every rank
    /// receives from the rank whose send targets it. Rank `v`'s round
    /// `k` of such a schedule, its send and its receive all have index
    /// `v * depth + k` in their tables.
    pub(crate) fn permutation_depth(&self) -> Option<usize> {
        let (n, depth) = (self.nranks, self.round_ids(0).len());
        let mut ranks = self.first_round.iter().enumerate();
        let mut rounds = self.rounds.iter().enumerate();
        let permutes = ranks.all(|(v, &f)| f as usize == v * depth)
            && rounds.all(|(i, &(s, r))| (s as usize, r as usize) == (i, i))
            && (0..n).all(|v| {
                (0..depth).all(|k| {
                    let to = self.sends[v * depth + k].to as usize;
                    to < n && self.recvs[to * depth + k].from as usize == v
                })
            });
        permutes.then_some(depth)
    }

    /// The send table: every rank's sends, rank by rank, round by round.
    pub(crate) fn sends(&self) -> &[SendStep] {
        &self.sends
    }

    /// Structural self-check: peers in range, no self-sends, and for
    /// every ordered rank pair the FIFO sequence of sent payload
    /// classes equals the FIFO sequence of expected receive classes.
    /// Returns a description of the first defect found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nranks;
        // Per ordered pair, keyed `(to, from)` so the first defect is
        // reported in (receiver, sender) order: classes sent and expected.
        let mut pairs: BTreeMap<(usize, usize), (Vec<SendWhat>, Vec<RecvWhat>)> = BTreeMap::new();
        for me in 0..n {
            for (sends, recvs) in self.rounds(me) {
                for s in sends {
                    let to = s.to as usize;
                    if to >= n {
                        return Err(format!("rank {me} sends to out-of-range {to}"));
                    }
                    if to == me {
                        return Err(format!("rank {me} sends to itself"));
                    }
                    pairs.entry((to, me)).or_default().0.push(s.what);
                }
                for r in recvs {
                    let from = r.from as usize;
                    if from >= n {
                        return Err(format!("rank {me} receives from out-of-range {from}"));
                    }
                    if from == me {
                        return Err(format!("rank {me} receives from itself"));
                    }
                    pairs.entry((me, from)).or_default().1.push(r.what);
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
                if !classes_match(*sw, *rw) {
                    return Err(format!(
                        "pair {from}->{to} message {i}: send {sw:?} vs recv {rw:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Stable structural digest (FNV-1a over a canonical rendering, a
    /// block range hashed as the slot list it stands for). Two backends
    /// handed the same digest are executing byte-identical schedules,
    /// which is what the cross-backend tests check.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        // Both enums hash as their declaration index.
        h.byte(self.op as u8);
        h.byte(self.algorithm as u8);
        let n = self.nranks;
        h.u64(n as u64);
        for v in 0..n {
            h.u64(self.round_ids(v).len() as u64);
            for (sends, recvs) in self.rounds(v) {
                h.u64(sends.len() as u64);
                for s in sends {
                    h.u64(u64::from(s.to));
                    match s.what {
                        SendWhat::Token => h.byte(0),
                        SendWhat::Acc => h.byte(1),
                        SendWhat::Blocks(range) => h.blocks(2, range, n),
                    }
                }
                h.u64(recvs.len() as u64);
                for r in recvs {
                    h.u64(u64::from(r.from));
                    match r.what {
                        RecvWhat::Token => h.byte(0),
                        RecvWhat::CombineAcc => h.byte(1),
                        RecvWhat::ReplaceAcc => h.byte(2),
                        RecvWhat::Blocks(range) => h.blocks(3, range, n),
                    }
                }
            }
        }
        h.finish()
    }
}

fn classes_match(s: SendWhat, r: RecvWhat) -> bool {
    match (s, r) {
        (SendWhat::Token, RecvWhat::Token) => true,
        (SendWhat::Acc, RecvWhat::CombineAcc | RecvWhat::ReplaceAcc) => true,
        (SendWhat::Blocks(a), RecvWhat::Blocks(b)) => a == b,
        _ => false,
    }
}

/// Narrow a rank, round or step index to a table entry.
pub(crate) fn idx32(i: usize) -> u32 {
    #[expect(
        clippy::expect_used,
        reason = "a schedule of more than u32::MAX steps cannot be held in memory"
    )]
    u32::try_from(i).expect("index fits a u32")
}

/// Writes a schedule's tables. [`Builder::plan`] calls a per-rank
/// planner for every virtual rank in order; the planner opens each of
/// that rank's rounds with [`Builder::round`] and appends its steps.
/// The first pass only counts, so the second fills tables allocated
/// once at their exact size.
pub(crate) struct Builder {
    /// Counting, not writing: steps only bump `counts`.
    sizing: bool,
    /// Rounds, sends and receives seen by the sizing pass.
    counts: [usize; 3],
    schedule: Schedule,
}

impl Builder {
    /// The `n`-rank schedule whose virtual rank `v` has the rounds
    /// `rank(builder, v)` writes.
    pub(crate) fn plan(
        op: CollOp,
        algorithm: Algorithm,
        n: usize,
        rank: impl Fn(&mut Builder, usize),
    ) -> Schedule {
        let mut b = Builder {
            sizing: true,
            counts: [0; 3],
            schedule: Schedule {
                op,
                algorithm,
                nranks: n,
                first_round: Vec::new(),
                rounds: Vec::new(),
                sends: Vec::new(),
                recvs: Vec::new(),
            },
        };
        for v in 0..n {
            rank(&mut b, v);
        }
        let [rounds, sends, recvs] = b.counts;
        let s = &mut b.schedule;
        s.first_round.reserve_exact(n + 1);
        s.rounds.reserve_exact(rounds + 1);
        s.sends.reserve_exact(sends);
        s.recvs.reserve_exact(recvs);
        b.sizing = false;
        for v in 0..n {
            let first = idx32(b.schedule.rounds.len());
            b.schedule.first_round.push(first);
            rank(&mut b, v);
        }
        let s = &mut b.schedule;
        s.first_round.push(idx32(s.rounds.len()));
        b.push_round();
        b.schedule
    }

    fn push_round(&mut self) {
        let s = &mut self.schedule;
        s.rounds.push((idx32(s.sends.len()), idx32(s.recvs.len())));
    }

    /// Open the current rank's next round.
    pub(crate) fn round(&mut self) -> &mut Builder {
        if self.sizing {
            self.counts[0] += 1;
        } else {
            self.push_round();
        }
        self
    }

    /// Append a send of `what` to virtual rank `to` to the open round.
    pub(crate) fn send(&mut self, to: usize, what: SendWhat) -> &mut Builder {
        if self.sizing {
            self.counts[1] += 1;
        } else {
            self.schedule.sends.push(SendStep {
                to: idx32(to),
                what,
            });
        }
        self
    }

    /// Append a receive from virtual rank `from`, applied per `what`, to
    /// the open round.
    pub(crate) fn recv(&mut self, from: usize, what: RecvWhat) -> &mut Builder {
        if self.sizing {
            self.counts[2] += 1;
        } else {
            let from = idx32(from);
            self.schedule.recvs.push(RecvStep { from, what });
        }
        self
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
    /// A block range under class byte `class`: its length, then every
    /// slot it stands for over `n` ranks.
    fn blocks(&mut self, class: u8, range: BlockRange, n: usize) {
        self.byte(class);
        self.u64(u64::from(range.count));
        for i in range.slots(n) {
            self.u64(u64::from(i));
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
        // Rank 0 sends a token rank 1 never posts for.
        let s = Builder::plan(CollOp::Barrier, Algorithm::Ring, 2, |b, v| {
            if v == 0 {
                b.round().send(1, SendWhat::Token);
            }
        });
        assert_eq!(s.validate(), Err("pair 0->1: 1 sends vs 0 receives".into()));
    }
}
