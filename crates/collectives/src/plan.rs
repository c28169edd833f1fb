//! Planners: generate a [`Schedule`] for an (op, algorithm, ranks)
//! triple.
//!
//! Each planner encodes one textbook algorithm in virtual-rank space
//! (root = virtual rank 0):
//!
//! * **Linear** — everything through the root; the naive reference the
//!   property tests compare against.
//! * **Tree** — binomial trees (gather and/or broadcast phases), the
//!   shape mplite's hand-rolled collectives used.
//! * **Dissemination** — the ⌈log₂ n⌉-round barrier of Hensgen et al.
//!   and, for allgather, Bruck's algorithm (both handle any n).
//! * **RecursiveDoubling** — pairwise exchange inside the largest
//!   power-of-two core, with excess ranks folded in and released
//!   (allgather requires power-of-two n outright).
//! * **Ring** — neighbour-only traffic: pipelined chains for
//!   bcast/reduce, the classic simultaneous ring for allgather, and a
//!   two-circulation token ring for barrier.

use std::fmt;

use crate::op::CollOp;
use crate::schedule::{idx32, BlockRange, Builder, RecvWhat, Schedule, SendWhat};

/// The algorithm families the planners implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Star through the root: O(n) messages at the root, 1–2 rounds.
    Linear,
    /// Binomial tree: ⌈log₂ n⌉ rounds, any n.
    Tree,
    /// Dissemination (barrier) / Bruck (allgather): ⌈log₂ n⌉ rounds,
    /// any n, no root bottleneck.
    Dissemination,
    /// Pairwise exchange by XOR distance; non-power-of-two jobs fold
    /// the excess into the power-of-two core first.
    RecursiveDoubling,
    /// Nearest-neighbour ring traffic only.
    Ring,
}

impl Algorithm {
    /// Stable lower-case name (CSV/figure labels).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Linear => "linear",
            Algorithm::Tree => "tree",
            Algorithm::Dissemination => "dissemination",
            Algorithm::RecursiveDoubling => "recursive-doubling",
            Algorithm::Ring => "ring",
        }
    }

    /// All five families, in declaration order.
    pub fn all() -> [Algorithm; 5] {
        [
            Algorithm::Linear,
            Algorithm::Tree,
            Algorithm::Dissemination,
            Algorithm::RecursiveDoubling,
            Algorithm::Ring,
        ]
    }
}

/// Why a plan could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The op × algorithm combination is not defined.
    Unsupported {
        /// Requested collective.
        op: CollOp,
        /// Requested algorithm family.
        algorithm: Algorithm,
    },
    /// The combination exists only for power-of-two rank counts.
    NeedsPowerOfTwo {
        /// Requested collective.
        op: CollOp,
        /// Requested algorithm family.
        algorithm: Algorithm,
        /// Offending rank count.
        nranks: usize,
    },
    /// A collective over zero ranks is meaningless.
    NoRanks,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Unsupported { op, algorithm } => {
                write!(f, "no {} planner for {}", algorithm.name(), op.name())
            }
            PlanError::NeedsPowerOfTwo {
                op,
                algorithm,
                nranks,
            } => write!(
                f,
                "{} {} requires a power-of-two rank count, got {nranks}",
                algorithm.name(),
                op.name()
            ),
            PlanError::NoRanks => write!(f, "a collective needs at least one rank"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Every algorithm with a planner for `op` at `n` ranks, in
/// [`Algorithm::all`] order.
pub fn algorithms_for(op: CollOp, n: usize) -> Vec<Algorithm> {
    Algorithm::all()
        .into_iter()
        .filter(|&alg| build(op, alg, n.max(1)).is_ok())
        .collect()
}

/// The deterministic default algorithm the public mplite entry points
/// use. Depends only on values every rank agrees on (`op`, `n`), so all
/// ranks of a job always pick the same schedule.
pub fn auto_algorithm(op: CollOp, n: usize) -> Algorithm {
    match op {
        // The shapes the hand-rolled mplite collectives used.
        CollOp::Barrier => Algorithm::Dissemination,
        CollOp::Bcast | CollOp::Reduce | CollOp::Allreduce => Algorithm::Tree,
        // Ring is bandwidth-optimal once the job is wide enough for the
        // root to be a real bottleneck; small jobs keep the tree's
        // ⌈log₂ n⌉ latency.
        CollOp::Allgather => {
            if n >= 8 {
                Algorithm::Ring
            } else {
                Algorithm::Tree
            }
        }
    }
}

/// Build the schedule for `op` via `algorithm` over `n` ranks.
pub fn build(op: CollOp, algorithm: Algorithm, n: usize) -> Result<Schedule, PlanError> {
    use SendWhat::{Acc, Token};
    if n == 0 {
        return Err(PlanError::NoRanks);
    }
    let unsupported = Err(PlanError::Unsupported { op, algorithm });
    // Virtual rank `v`'s rounds, written by one planner or, for a
    // two-phase algorithm, by both phases in turn.
    let rank: Planner = if n == 1 {
        // Degenerate single-rank job: every supported combination is an
        // empty plan; unsupported combinations still error.
        match (op, algorithm) {
            (CollOp::Bcast | CollOp::Reduce, Algorithm::Dissemination)
            | (CollOp::Bcast | CollOp::Reduce, Algorithm::RecursiveDoubling) => return unsupported,
            _ => |_, _, _| {},
        }
    } else {
        match (op, algorithm) {
            (CollOp::Barrier, Algorithm::Linear) => |b, n, v| {
                fan_in(b, n, v, Token);
                fan_out(b, n, v, Token);
            },
            (CollOp::Barrier, Algorithm::Tree) => |b, n, v| {
                reduce_tree(b, n, v, Token);
                bcast_tree(b, n, v, Token);
            },
            (CollOp::Barrier, Algorithm::Dissemination) => dissemination_barrier,
            (CollOp::Barrier, Algorithm::RecursiveDoubling) => |b, n, v| rd_fold(b, n, v, Token),
            (CollOp::Barrier, Algorithm::Ring) => ring_barrier,
            (CollOp::Bcast, Algorithm::Linear) => |b, n, v| fan_out(b, n, v, ONE_BLOCK),
            (CollOp::Bcast, Algorithm::Tree) => |b, n, v| bcast_tree(b, n, v, ONE_BLOCK),
            (CollOp::Bcast, Algorithm::Ring) => |b, n, v| chain_down(b, n, v, ONE_BLOCK),
            (CollOp::Reduce, Algorithm::Linear) => |b, n, v| fan_in(b, n, v, Acc),
            (CollOp::Reduce, Algorithm::Tree) => |b, n, v| reduce_tree(b, n, v, Acc),
            (CollOp::Reduce, Algorithm::Ring) => chain_up,
            (CollOp::Allreduce, Algorithm::Linear) => |b, n, v| {
                fan_in(b, n, v, Acc);
                fan_out(b, n, v, Acc);
            },
            (CollOp::Allreduce, Algorithm::Tree) => |b, n, v| {
                reduce_tree(b, n, v, Acc);
                bcast_tree(b, n, v, Acc);
            },
            (CollOp::Allreduce, Algorithm::RecursiveDoubling) => |b, n, v| rd_fold(b, n, v, Acc),
            (CollOp::Allreduce, Algorithm::Ring) => |b, n, v| {
                chain_up(b, n, v);
                chain_down(b, n, v, Acc);
            },
            (CollOp::Allgather, Algorithm::Linear) => linear_allgather,
            (CollOp::Allgather, Algorithm::Tree) => allgather_tree,
            (CollOp::Allgather, Algorithm::Dissemination) => bruck_allgather,
            (CollOp::Allgather, Algorithm::RecursiveDoubling) => {
                if !n.is_power_of_two() {
                    return Err(PlanError::NeedsPowerOfTwo {
                        op,
                        algorithm,
                        nranks: n,
                    });
                }
                rd_allgather
            }
            (CollOp::Allgather, Algorithm::Ring) => ring_allgather,
            _ => return unsupported,
        }
    };
    Ok(Builder::plan(op, algorithm, n, |b, v| rank(b, n, v)))
}

// ---- small construction helpers -----------------------------------------

/// Writes virtual rank `v`'s rounds of an `n`-rank schedule.
type Planner = fn(&mut Builder, usize, usize);

/// The `count` block slots from `first`.
fn blocks(first: usize, count: usize) -> BlockRange {
    BlockRange {
        first: idx32(first),
        count: idx32(count),
    }
}

/// The bcast payload: block slot 0.
const ONE_BLOCK: SendWhat = SendWhat::Blocks(BlockRange { first: 0, count: 1 });

/// How a receiver keeps `what`: a block range in its slots, an
/// accumulator in place of its own, a token not at all.
fn stored(what: SendWhat) -> RecvWhat {
    match what {
        SendWhat::Token => RecvWhat::Token,
        SendWhat::Acc => RecvWhat::ReplaceAcc,
        SendWhat::Blocks(range) => RecvWhat::Blocks(range),
    }
}

/// How a reducing receiver takes `what`: an accumulator folds into its
/// own.
fn folded(what: SendWhat) -> RecvWhat {
    match what {
        SendWhat::Acc => RecvWhat::CombineAcc,
        other => stored(other),
    }
}

/// Highest set bit of `v` (v > 0).
fn high_bit(v: usize) -> usize {
    1usize << (usize::BITS - 1 - v.leading_zeros())
}

// ---- linear (the naive reference) ---------------------------------------

/// Every rank sends `up` to the root, which folds them in rank order in
/// one round — the reference fold order.
fn fan_in(b: &mut Builder, n: usize, v: usize, up: SendWhat) {
    b.round();
    if v != 0 {
        b.send(0, up);
        return;
    }
    for r in 1..n {
        b.recv(r, folded(up));
    }
}

/// The root sends `what` to every rank in one round.
fn fan_out(b: &mut Builder, n: usize, v: usize, what: SendWhat) {
    b.round();
    if v != 0 {
        b.recv(0, stored(what));
        return;
    }
    for r in 1..n {
        b.send(r, what);
    }
}

fn linear_allgather(b: &mut Builder, n: usize, v: usize) {
    b.round();
    for to in (0..n).filter(|&to| to != v) {
        b.send(to, SendWhat::Blocks(blocks(v, 1)));
    }
    for from in (0..n).filter(|&from| from != v) {
        b.recv(from, RecvWhat::Blocks(blocks(from, 1)));
    }
}

// ---- binomial trees ------------------------------------------------------

/// Broadcast `what` down the binomial tree rooted at 0. `what` must be
/// sendable by every rank once received (`Acc` or a block range).
fn bcast_tree(b: &mut Builder, n: usize, v: usize, what: SendWhat) {
    if v != 0 {
        b.round().recv(v - high_bit(v), stored(what));
    }
    let mut bit = if v == 0 { 1 } else { high_bit(v) << 1 };
    if v + bit < n {
        b.round();
    }
    while v + bit < n {
        b.send(v + bit, what);
        bit <<= 1;
    }
}

/// Binomial reduction of `up` to virtual rank 0, mirroring
/// [`bcast_tree`]: each rank folds its children in increasing-bit order
/// (one round per child, matching the serialized receives of the
/// hand-rolled version), then sends up and leaves.
fn reduce_tree(b: &mut Builder, n: usize, v: usize, up: SendWhat) {
    let mut bit = 1usize;
    while bit < n {
        if v & bit != 0 {
            b.round().send(v & !bit, up);
            break;
        }
        if v + bit < n {
            b.round().recv(v + bit, folded(up));
        }
        bit <<= 1;
    }
}

/// Tree allgather: binomial gather of blocks at virtual rank 0, then a
/// binomial broadcast of the full framed set — the gather+bcast shape
/// of mplite's original `allgather`.
fn allgather_tree(b: &mut Builder, n: usize, v: usize) {
    // Gather phase: at bit level b, rank v (with v & b set) owns the
    // contiguous block range [v, min(v + b, n)) and ships it up.
    let mut bit = 1usize;
    while bit < n {
        if v & bit != 0 {
            let held = blocks(v, (v + bit).min(n) - v);
            b.round().send(v & !bit, SendWhat::Blocks(held));
            break;
        }
        if v + bit < n {
            let sub = blocks(v + bit, (v + 2 * bit).min(n) - (v + bit));
            b.round().recv(v + bit, RecvWhat::Blocks(sub));
        }
        bit <<= 1;
    }
    bcast_tree(b, n, v, SendWhat::Blocks(blocks(0, n)));
}

// ---- dissemination / Bruck ----------------------------------------------

fn dissemination_barrier(b: &mut Builder, n: usize, v: usize) {
    let mut step = 1usize;
    while step < n {
        b.round()
            .send((v + step) % n, SendWhat::Token)
            .recv((v + n - step) % n, RecvWhat::Token);
        step <<= 1;
    }
}

/// Bruck's allgather: after round k every rank holds the cyclic block
/// range starting at itself of length min(2^(k+1), n). Works for any n
/// in ⌈log₂ n⌉ rounds.
fn bruck_allgather(b: &mut Builder, n: usize, v: usize) {
    let mut step = 1usize;
    while step < n {
        let cnt = step.min(n - step);
        let from = (v + step) % n;
        b.round()
            .send((v + n - step) % n, SendWhat::Blocks(blocks(v, cnt)))
            .recv(from, RecvWhat::Blocks(blocks(from, cnt)));
        step <<= 1;
    }
}

// ---- recursive doubling --------------------------------------------------

/// Recursive doubling with non-power-of-two folding, shared by barrier
/// and allreduce: excess ranks (>= core) send `carry` into the core, the
/// core runs pairwise XOR exchanges, then results flow back out.
fn rd_fold(b: &mut Builder, n: usize, v: usize, carry: SendWhat) {
    let core = high_bit(n);
    let excess = n - core;
    if v >= core {
        // Fold in, wait, get released.
        b.round().send(v - core, carry);
        b.round().recv(v - core, stored(carry));
        return;
    }
    if v < excess {
        b.round().recv(v + core, folded(carry));
    }
    let mut bit = 1usize;
    while bit < core {
        b.round().send(v ^ bit, carry).recv(v ^ bit, folded(carry));
        bit <<= 1;
    }
    if v < excess {
        b.round().send(v + core, carry);
    }
}

/// Recursive-doubling allgather (power-of-two n only): at round k each
/// rank owns the aligned block range of length 2^k containing itself
/// and swaps it with its XOR partner.
fn rd_allgather(b: &mut Builder, n: usize, v: usize) {
    let mut bit = 1usize;
    while bit < n {
        let mine = blocks(v & !(bit - 1), bit);
        let theirs = blocks((v ^ bit) & !(bit - 1), bit);
        b.round()
            .send(v ^ bit, SendWhat::Blocks(mine))
            .recv(v ^ bit, RecvWhat::Blocks(theirs));
        bit <<= 1;
    }
}

// ---- rings ---------------------------------------------------------------

/// Token ring barrier: one circulation gathers (everyone has entered by
/// the time the token returns to 0), a second releases.
fn ring_barrier(b: &mut Builder, n: usize, v: usize) {
    if v == 0 {
        b.round().send(1, SendWhat::Token);
        b.round().recv(n - 1, RecvWhat::Token);
        b.round().send(1, SendWhat::Token);
        return;
    }
    b.round().recv(v - 1, RecvWhat::Token);
    b.round().send((v + 1) % n, SendWhat::Token);
    b.round().recv(v - 1, RecvWhat::Token);
    if v + 1 < n {
        b.round().send(v + 1, SendWhat::Token);
    }
}

/// Pipelined chain 0 → 1 → … → n−1 of `what`: a broadcast, or the
/// allreduce's second phase.
fn chain_down(b: &mut Builder, n: usize, v: usize, what: SendWhat) {
    if v != 0 {
        b.round().recv(v - 1, stored(what));
    }
    if v + 1 < n {
        b.round().send(v + 1, what);
    }
}

/// Chain reduction n−1 → … → 1 → 0: each rank folds its upstream
/// neighbour's partial result into its own and passes it on.
fn chain_up(b: &mut Builder, n: usize, v: usize) {
    if v + 1 < n {
        b.round().recv(v + 1, RecvWhat::CombineAcc);
    }
    if v != 0 {
        b.round().send(v - 1, SendWhat::Acc);
    }
}

/// The classic simultaneous ring allgather: n−1 rounds; in round r each
/// rank forwards the block that originated r hops upstream.
fn ring_allgather(b: &mut Builder, n: usize, v: usize) {
    for r in 0..n - 1 {
        let outgoing = blocks((v + n - r) % n, 1);
        let incoming = blocks((v + n - r - 1) % n, 1);
        b.round()
            .send((v + 1) % n, SendWhat::Blocks(outgoing))
            .recv((v + n - 1) % n, RecvWhat::Blocks(incoming));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logarithmic_algorithms_have_logarithmic_depth() {
        for n in [4usize, 16, 64, 256, 1024] {
            let log2 = n.trailing_zeros() as usize;
            let diss = build(CollOp::Barrier, Algorithm::Dissemination, n).unwrap();
            assert_eq!(diss.max_rounds(), log2, "dissemination n={n}");
            let rd = build(CollOp::Allreduce, Algorithm::RecursiveDoubling, n).unwrap();
            assert_eq!(rd.max_rounds(), log2, "rd n={n}");
            let tree = build(CollOp::Barrier, Algorithm::Tree, n).unwrap();
            assert!(tree.max_rounds() <= 2 * log2, "tree n={n}");
        }
    }

    #[test]
    fn message_counts_match_the_textbook() {
        let n = 16;
        let diss = build(CollOp::Barrier, Algorithm::Dissemination, n).unwrap();
        assert_eq!(diss.total_messages(), n * 4); // n per round, log n rounds
        let ring = build(CollOp::Allgather, Algorithm::Ring, n).unwrap();
        assert_eq!(ring.total_messages(), n * (n - 1));
        let tree = build(CollOp::Bcast, Algorithm::Tree, n).unwrap();
        assert_eq!(tree.total_messages(), n - 1);
        let lin = build(CollOp::Allreduce, Algorithm::Linear, n).unwrap();
        assert_eq!(lin.total_messages(), 2 * (n - 1));
    }

    #[test]
    fn unsupported_combinations_are_typed_errors() {
        assert_eq!(
            build(CollOp::Bcast, Algorithm::Dissemination, 4),
            Err(PlanError::Unsupported {
                op: CollOp::Bcast,
                algorithm: Algorithm::Dissemination
            })
        );
        assert!(matches!(
            build(CollOp::Allgather, Algorithm::RecursiveDoubling, 6),
            Err(PlanError::NeedsPowerOfTwo { nranks: 6, .. })
        ));
        assert_eq!(
            build(CollOp::Barrier, Algorithm::Tree, 0),
            Err(PlanError::NoRanks)
        );
    }

    #[test]
    fn auto_algorithm_is_total_and_supported() {
        for op in CollOp::all() {
            for n in [1usize, 2, 3, 7, 8, 9, 64] {
                let alg = auto_algorithm(op, n);
                assert!(
                    build(op, alg, n).is_ok(),
                    "auto {op:?} n={n} chose unsupported {alg:?}"
                );
            }
        }
    }

    #[test]
    fn single_rank_plans_are_empty() {
        for op in CollOp::all() {
            for alg in algorithms_for(op, 1) {
                let s = build(op, alg, 1).unwrap();
                assert_eq!(s.total_messages(), 0, "{op:?}/{alg:?}");
            }
        }
    }
}
