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
use crate::schedule::{RankPlan, RecvStep, RecvWhat, Round, Schedule, SendStep, SendWhat};

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
    if n == 0 {
        return Err(PlanError::NoRanks);
    }
    let unsupported = Err(PlanError::Unsupported { op, algorithm });
    let plans = if n == 1 {
        // Degenerate single-rank job: every supported combination is an
        // empty plan; unsupported combinations still error.
        match (op, algorithm) {
            (CollOp::Bcast | CollOp::Reduce, Algorithm::Dissemination)
            | (CollOp::Bcast | CollOp::Reduce, Algorithm::RecursiveDoubling) => return unsupported,
            _ => vec![RankPlan::default()],
        }
    } else {
        match (op, algorithm) {
            (CollOp::Barrier, Algorithm::Linear) => linear_barrier(n),
            (CollOp::Barrier, Algorithm::Tree) => barrier_tree(n),
            (CollOp::Barrier, Algorithm::Dissemination) => dissemination_barrier(n),
            (CollOp::Barrier, Algorithm::RecursiveDoubling) => {
                rd_fold(n, SendWhat::Token, RecvWhat::Token, RecvWhat::Token)
            }
            (CollOp::Barrier, Algorithm::Ring) => ring_barrier(n),
            (CollOp::Bcast, Algorithm::Linear) => linear_bcast(n),
            (CollOp::Bcast, Algorithm::Tree) => bcast_tree(n, one_block()),
            (CollOp::Bcast, Algorithm::Ring) => ring_bcast(n),
            (CollOp::Reduce, Algorithm::Linear) => linear_reduce(n),
            (CollOp::Reduce, Algorithm::Tree) => reduce_tree(n),
            (CollOp::Reduce, Algorithm::Ring) => ring_reduce(n),
            (CollOp::Allreduce, Algorithm::Linear) => concat(linear_reduce(n), acc_fanout(n)),
            (CollOp::Allreduce, Algorithm::Tree) => concat(reduce_tree(n), acc_bcast_tree(n)),
            (CollOp::Allreduce, Algorithm::RecursiveDoubling) => {
                rd_fold(n, SendWhat::Acc, RecvWhat::CombineAcc, RecvWhat::ReplaceAcc)
            }
            (CollOp::Allreduce, Algorithm::Ring) => concat(ring_reduce(n), acc_ring(n)),
            (CollOp::Allgather, Algorithm::Linear) => linear_allgather(n),
            (CollOp::Allgather, Algorithm::Tree) => allgather_tree(n),
            (CollOp::Allgather, Algorithm::Dissemination) => bruck_allgather(n),
            (CollOp::Allgather, Algorithm::RecursiveDoubling) => {
                if !n.is_power_of_two() {
                    return Err(PlanError::NeedsPowerOfTwo {
                        op,
                        algorithm,
                        nranks: n,
                    });
                }
                rd_allgather(n)
            }
            (CollOp::Allgather, Algorithm::Ring) => ring_allgather(n),
            _ => return unsupported,
        }
    };
    Ok(Schedule {
        op,
        algorithm,
        nranks: n,
        plans,
    })
}

// ---- small construction helpers -----------------------------------------

fn empty_plans(n: usize) -> Vec<RankPlan> {
    vec![RankPlan::default(); n]
}

fn send(to: usize, what: SendWhat) -> SendStep {
    SendStep {
        to: to as u32,
        what,
    }
}

fn recv(from: usize, what: RecvWhat) -> RecvStep {
    RecvStep {
        from: from as u32,
        what,
    }
}

fn round(sends: Vec<SendStep>, recvs: Vec<RecvStep>) -> Round {
    Round { sends, recvs }
}

fn one_block() -> SendWhat {
    SendWhat::Blocks(vec![0])
}

/// Append `b`'s rounds after `a`'s, rank by rank (phase composition).
fn concat(mut a: Vec<RankPlan>, b: Vec<RankPlan>) -> Vec<RankPlan> {
    for (pa, pb) in a.iter_mut().zip(b) {
        pa.rounds.extend(pb.rounds);
    }
    a
}

/// Highest set bit of `v` (v > 0).
fn high_bit(v: usize) -> usize {
    1usize << (usize::BITS - 1 - v.leading_zeros())
}

// ---- linear (the naive reference) ---------------------------------------

fn linear_barrier(n: usize) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    let gather: Vec<RecvStep> = (1..n).map(|r| recv(r, RecvWhat::Token)).collect();
    let release: Vec<SendStep> = (1..n).map(|r| send(r, SendWhat::Token)).collect();
    plans[0].rounds.push(round(Vec::new(), gather));
    plans[0].rounds.push(round(release, Vec::new()));
    for plan in plans.iter_mut().skip(1) {
        plan.rounds
            .push(round(vec![send(0, SendWhat::Token)], Vec::new()));
        plan.rounds
            .push(round(Vec::new(), vec![recv(0, RecvWhat::Token)]));
    }
    plans
}

fn linear_bcast(n: usize) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    let fanout: Vec<SendStep> = (1..n).map(|r| send(r, one_block())).collect();
    plans[0].rounds.push(round(fanout, Vec::new()));
    for plan in plans.iter_mut().skip(1) {
        plan.rounds
            .push(round(Vec::new(), vec![recv(0, RecvWhat::Blocks(vec![0]))]));
    }
    plans
}

fn linear_reduce(n: usize) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    // Root folds contributions in rank order — the reference fold order.
    let gather: Vec<RecvStep> = (1..n).map(|r| recv(r, RecvWhat::CombineAcc)).collect();
    plans[0].rounds.push(round(Vec::new(), gather));
    for plan in plans.iter_mut().skip(1) {
        plan.rounds
            .push(round(vec![send(0, SendWhat::Acc)], Vec::new()));
    }
    plans
}

/// Root fans its accumulator out to everyone (allreduce distribution).
fn acc_fanout(n: usize) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    let fanout: Vec<SendStep> = (1..n).map(|r| send(r, SendWhat::Acc)).collect();
    plans[0].rounds.push(round(fanout, Vec::new()));
    for plan in plans.iter_mut().skip(1) {
        plan.rounds
            .push(round(Vec::new(), vec![recv(0, RecvWhat::ReplaceAcc)]));
    }
    plans
}

fn linear_allgather(n: usize) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    for (me, plan) in plans.iter_mut().enumerate() {
        let sends: Vec<SendStep> = (0..n)
            .filter(|&to| to != me)
            .map(|to| send(to, SendWhat::Blocks(vec![me as u32])))
            .collect();
        let recvs: Vec<RecvStep> = (0..n)
            .filter(|&from| from != me)
            .map(|from| recv(from, RecvWhat::Blocks(vec![from as u32])))
            .collect();
        plan.rounds.push(round(sends, recvs));
    }
    plans
}

// ---- binomial trees ------------------------------------------------------

/// Broadcast `what` down the binomial tree rooted at 0. `what` must be
/// sendable by every rank once received (`Acc` or a single block).
fn bcast_tree_with(n: usize, what: SendWhat, store: RecvWhat) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    for (v, plan) in plans.iter_mut().enumerate() {
        if v != 0 {
            let parent = v - high_bit(v);
            plan.rounds
                .push(round(Vec::new(), vec![recv(parent, store.clone())]));
        }
        let mut bit = if v == 0 { 1 } else { high_bit(v) << 1 };
        let mut sends = Vec::new();
        while v + bit < n {
            sends.push(send(v + bit, what.clone()));
            bit <<= 1;
        }
        if !sends.is_empty() {
            plan.rounds.push(round(sends, Vec::new()));
        }
    }
    plans
}

fn bcast_tree(n: usize, what: SendWhat) -> Vec<RankPlan> {
    let store = match &what {
        SendWhat::Blocks(idxs) => RecvWhat::Blocks(idxs.clone()),
        SendWhat::Acc => RecvWhat::ReplaceAcc,
        SendWhat::Token => RecvWhat::Token,
    };
    bcast_tree_with(n, what, store)
}

fn acc_bcast_tree(n: usize) -> Vec<RankPlan> {
    bcast_tree(n, SendWhat::Acc)
}

/// Binomial reduction to virtual rank 0, mirroring [`bcast_tree`]:
/// each rank folds its children in increasing-bit order (one round per
/// child, matching the serialized receives of the hand-rolled version),
/// then sends up and leaves.
fn reduce_tree_with(n: usize, up: SendWhat, fold: RecvWhat) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    for (v, plan) in plans.iter_mut().enumerate() {
        let mut bit = 1usize;
        while bit < n {
            if v & bit != 0 {
                plan.rounds
                    .push(round(vec![send(v & !bit, up.clone())], Vec::new()));
                break;
            }
            if v + bit < n {
                plan.rounds
                    .push(round(Vec::new(), vec![recv(v + bit, fold.clone())]));
            }
            bit <<= 1;
        }
    }
    plans
}

fn reduce_tree(n: usize) -> Vec<RankPlan> {
    reduce_tree_with(n, SendWhat::Acc, RecvWhat::CombineAcc)
}

fn barrier_tree(n: usize) -> Vec<RankPlan> {
    concat(
        reduce_tree_with(n, SendWhat::Token, RecvWhat::Token),
        bcast_tree(n, SendWhat::Token),
    )
}

/// Tree allgather: binomial gather of blocks at virtual rank 0, then a
/// binomial broadcast of the full framed set — the gather+bcast shape
/// of mplite's original `allgather`.
fn allgather_tree(n: usize) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    // Gather phase: at bit level b, rank v (with v & b set) owns the
    // contiguous block range [v, min(v + b, n)) and ships it up.
    for (v, plan) in plans.iter_mut().enumerate() {
        let mut bit = 1usize;
        while bit < n {
            if v & bit != 0 {
                let held: Vec<u32> = (v..(v + bit).min(n)).map(|b| b as u32).collect();
                plan.rounds.push(round(
                    vec![send(v & !bit, SendWhat::Blocks(held))],
                    Vec::new(),
                ));
                break;
            }
            if v + bit < n {
                let sub: Vec<u32> = ((v + bit)..(v + 2 * bit).min(n))
                    .map(|b| b as u32)
                    .collect();
                plan.rounds.push(round(
                    Vec::new(),
                    vec![recv(v + bit, RecvWhat::Blocks(sub))],
                ));
            }
            bit <<= 1;
        }
    }
    let everything = SendWhat::Blocks((0..n as u32).collect());
    concat(plans, bcast_tree(n, everything))
}

// ---- dissemination / Bruck ----------------------------------------------

fn dissemination_barrier(n: usize) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    let mut step = 1usize;
    while step < n {
        for (v, plan) in plans.iter_mut().enumerate() {
            plan.rounds.push(round(
                vec![send((v + step) % n, SendWhat::Token)],
                vec![recv((v + n - step % n) % n, RecvWhat::Token)],
            ));
        }
        step <<= 1;
    }
    plans
}

/// Bruck's allgather: after round k every rank holds the cyclic block
/// range starting at itself of length min(2^(k+1), n). Works for any n
/// in ⌈log₂ n⌉ rounds.
fn bruck_allgather(n: usize) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    let mut step = 1usize;
    while step < n {
        let cnt = step.min(n - step);
        for (v, plan) in plans.iter_mut().enumerate() {
            let to = (v + n - step) % n;
            let from = (v + step) % n;
            let sent: Vec<u32> = (0..cnt).map(|j| ((v + j) % n) as u32).collect();
            let got: Vec<u32> = (0..cnt).map(|j| ((v + step + j) % n) as u32).collect();
            plan.rounds.push(round(
                vec![send(to, SendWhat::Blocks(sent))],
                vec![recv(from, RecvWhat::Blocks(got))],
            ));
        }
        step <<= 1;
    }
    plans
}

// ---- recursive doubling --------------------------------------------------

/// Recursive doubling with non-power-of-two folding, shared by barrier
/// and allreduce: excess ranks (>= core) send into the core, the core
/// runs pairwise XOR exchanges, then results flow back out.
fn rd_fold(n: usize, carry: SendWhat, fold: RecvWhat, release: RecvWhat) -> Vec<RankPlan> {
    let core = high_bit(n);
    let excess = n - core;
    let mut plans = empty_plans(n);
    for (v, plan) in plans.iter_mut().enumerate() {
        if v >= core {
            // Fold in, wait, get released.
            plan.rounds
                .push(round(vec![send(v - core, carry.clone())], Vec::new()));
            plan.rounds
                .push(round(Vec::new(), vec![recv(v - core, release.clone())]));
            continue;
        }
        if v < excess {
            plan.rounds
                .push(round(Vec::new(), vec![recv(v + core, fold.clone())]));
        }
        let mut bit = 1usize;
        while bit < core {
            plan.rounds.push(round(
                vec![send(v ^ bit, carry.clone())],
                vec![recv(v ^ bit, fold.clone())],
            ));
            bit <<= 1;
        }
        if v < excess {
            plan.rounds
                .push(round(vec![send(v + core, carry.clone())], Vec::new()));
        }
    }
    plans
}

/// Recursive-doubling allgather (power-of-two n only): at round k each
/// rank owns the aligned block range of length 2^k containing itself
/// and swaps it with its XOR partner.
fn rd_allgather(n: usize) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    for (v, plan) in plans.iter_mut().enumerate() {
        let mut bit = 1usize;
        while bit < n {
            let base = v & !(bit - 1);
            let mine: Vec<u32> = (base..base + bit).map(|b| b as u32).collect();
            let pbase = (v ^ bit) & !(bit - 1);
            let theirs: Vec<u32> = (pbase..pbase + bit).map(|b| b as u32).collect();
            plan.rounds.push(round(
                vec![send(v ^ bit, SendWhat::Blocks(mine))],
                vec![recv(v ^ bit, RecvWhat::Blocks(theirs))],
            ));
            bit <<= 1;
        }
    }
    plans
}

// ---- rings ---------------------------------------------------------------

/// Token ring barrier: one circulation gathers (everyone has entered by
/// the time the token returns to 0), a second releases.
fn ring_barrier(n: usize) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    plans[0]
        .rounds
        .push(round(vec![send(1, SendWhat::Token)], Vec::new()));
    plans[0]
        .rounds
        .push(round(Vec::new(), vec![recv(n - 1, RecvWhat::Token)]));
    plans[0]
        .rounds
        .push(round(vec![send(1, SendWhat::Token)], Vec::new()));
    for (v, plan) in plans.iter_mut().enumerate().skip(1) {
        plan.rounds
            .push(round(Vec::new(), vec![recv(v - 1, RecvWhat::Token)]));
        plan.rounds
            .push(round(vec![send((v + 1) % n, SendWhat::Token)], Vec::new()));
        plan.rounds
            .push(round(Vec::new(), vec![recv(v - 1, RecvWhat::Token)]));
        if v + 1 < n {
            plan.rounds
                .push(round(vec![send(v + 1, SendWhat::Token)], Vec::new()));
        }
    }
    plans
}

/// Pipelined chain broadcast 0 → 1 → … → n−1.
fn ring_bcast(n: usize) -> Vec<RankPlan> {
    chain_down(n, one_block(), RecvWhat::Blocks(vec![0]))
}

/// Chain distribution of the accumulator (allreduce second phase).
fn acc_ring(n: usize) -> Vec<RankPlan> {
    chain_down(n, SendWhat::Acc, RecvWhat::ReplaceAcc)
}

fn chain_down(n: usize, what: SendWhat, store: RecvWhat) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    plans[0]
        .rounds
        .push(round(vec![send(1, what.clone())], Vec::new()));
    for (v, plan) in plans.iter_mut().enumerate().skip(1) {
        plan.rounds
            .push(round(Vec::new(), vec![recv(v - 1, store.clone())]));
        if v + 1 < n {
            plan.rounds
                .push(round(vec![send(v + 1, what.clone())], Vec::new()));
        }
    }
    plans
}

/// Chain reduction n−1 → … → 1 → 0: each rank folds its upstream
/// neighbour's partial result into its own and passes it on.
fn ring_reduce(n: usize) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    plans[n - 1]
        .rounds
        .push(round(vec![send(n - 2, SendWhat::Acc)], Vec::new()));
    for v in (1..n - 1).rev() {
        plans[v]
            .rounds
            .push(round(Vec::new(), vec![recv(v + 1, RecvWhat::CombineAcc)]));
        plans[v]
            .rounds
            .push(round(vec![send(v - 1, SendWhat::Acc)], Vec::new()));
    }
    plans[0]
        .rounds
        .push(round(Vec::new(), vec![recv(1, RecvWhat::CombineAcc)]));
    plans
}

/// The classic simultaneous ring allgather: n−1 rounds; in round r each
/// rank forwards the block that originated r hops upstream.
fn ring_allgather(n: usize) -> Vec<RankPlan> {
    let mut plans = empty_plans(n);
    for r in 0..n - 1 {
        for (v, plan) in plans.iter_mut().enumerate() {
            let outgoing = ((v + n - r) % n) as u32;
            let incoming = ((v + n - r - 1) % n) as u32;
            plan.rounds.push(round(
                vec![send((v + 1) % n, SendWhat::Blocks(vec![outgoing]))],
                vec![recv((v + n - 1) % n, RecvWhat::Blocks(vec![incoming]))],
            ));
        }
    }
    plans
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
