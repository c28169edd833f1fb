//! Schedule executors: the blocking one (real transports) and the
//! in-memory reference stepper the property tests compare against.
//!
//! Both interpret a [`Schedule`] with identical semantics — per round,
//! post every receive, issue every send, then complete and apply the
//! receives in listed order — so any transport that preserves per-pair
//! FIFO order produces byte-identical results.

use mpsim::multirank::PairTable;

use crate::lifecycle::{step, CollRound};
use crate::schedule::Schedule;
use crate::state::{CollOutput, RankState, Reduction};

/// The transport surface [`run_blocking`] needs: non-blocking receive
/// posting, blocking completion, and a send that may block until the
/// payload is accepted. Implemented by mplite's `Comm` (real sockets /
/// in-process channels).
pub trait CollTransport {
    /// Transport error type.
    type Err;
    /// Handle for a posted-but-incomplete receive.
    type Pending;
    /// This process's rank.
    fn rank(&self) -> usize;
    /// Number of ranks in the job.
    fn nranks(&self) -> usize;
    /// Post a receive from `from` on `tag` without blocking.
    fn post(&self, from: usize, tag: i32) -> Self::Pending;
    /// Block until a posted receive completes; yields the payload.
    fn complete(&self, pending: Self::Pending) -> Result<Vec<u8>, Self::Err>;
    /// Send `payload` to `to` on `tag`, blocking until accepted.
    fn send(&self, to: usize, tag: i32, payload: Vec<u8>) -> Result<(), Self::Err>;
}

/// Per-call execution context: the actual root and, for reducing ops,
/// the element interpretation.
#[derive(Debug, Clone, Copy)]
pub struct ExecCtx {
    /// Actual root rank; the schedule's virtual rank 0 maps onto it.
    pub root: usize,
    /// Element interpretation for CombineAcc steps; `None` for
    /// non-reducing ops.
    pub reduction: Option<Reduction>,
}

/// Translate a virtual rank to an actual rank under `root` rotation.
pub fn actual_rank(virt: usize, root: usize, n: usize) -> usize {
    (virt + root) % n
}

/// Translate an actual rank to its virtual rank under `root` rotation.
pub fn virtual_rank(rank: usize, root: usize, n: usize) -> usize {
    (rank + n - root % n) % n
}

/// Execute this rank's plan of `schedule` over a blocking transport.
/// All collective traffic travels on the single `tag`; matching within
/// the tag relies on the transport's per-pair FIFO order.
// analyze: hot
pub fn run_blocking<T: CollTransport>(
    transport: &T,
    schedule: &Schedule,
    ctx: ExecCtx,
    tag: i32,
    contribution: &[u8],
) -> Result<CollOutput, T::Err> {
    let n = transport.nranks();
    debug_assert_eq!(n, schedule.nranks);
    let me = transport.rank();
    let vrank = virtual_rank(me, ctx.root, n);
    let mut state = RankState::init(schedule.op, n, vrank, contribution);
    let mut life = CollRound::initial();
    for round in &schedule.plans[vrank].rounds {
        life = step(life, "post");
        let pending: Vec<_> = round
            .recvs
            .iter()
            .map(|r| transport.post(actual_rank(r.from as usize, ctx.root, n), tag))
            .collect();
        for s in &round.sends {
            let payload = state.payload(&s.what);
            transport.send(actual_rank(s.to as usize, ctx.root, n), tag, payload)?;
            life = step(life, "send");
        }
        life = step(life, "drain");
        for (r, p) in round.recvs.iter().zip(pending) {
            let bytes = transport.complete(p)?;
            state.apply(&r.what, &bytes, ctx.reduction);
            life = step(life, "recv");
        }
        life = step(life, "finish");
    }
    assert!(life.is_terminal());
    Ok(state.into_output(schedule.op, vrank))
}

/// Run a whole schedule in-process with plain queues: the reference
/// executor. Rank `i` contributes `contributions[i]` (actual-rank
/// indexed) and the outputs come back actual-rank indexed too.
///
/// Ranks advance round-robin — issue sends, then complete receives in
/// order, yielding when a queue is empty — so any schedule a blocking
/// mesh can finish, this can too; a cycle of ranks all waiting on
/// absent messages panics with a deadlock diagnosis instead of hanging.
// analyze: hot
pub fn run_local(schedule: &Schedule, ctx: ExecCtx, contributions: &[Vec<u8>]) -> Vec<CollOutput> {
    use std::collections::VecDeque;
    let n = schedule.nranks;
    assert_eq!(contributions.len(), n, "one contribution per rank");

    struct Rank {
        state: RankState,
        life: CollRound,
        round: usize,
        /// Next unissued send / next uncompleted recv within the round.
        next_send: usize,
        next_recv: usize,
    }
    let mut ranks: Vec<Rank> = (0..n)
        .map(|me| {
            let vrank = virtual_rank(me, ctx.root, n);
            let mut life = CollRound::initial();
            if !schedule.plans[vrank].rounds.is_empty() {
                life = step(life, "post");
            }
            Rank {
                state: RankState::init(schedule.op, n, vrank, &contributions[me]),
                life,
                round: 0,
                next_send: 0,
                next_recv: 0,
            }
        })
        .collect();
    // Per ordered actual-rank pair, FIFO of in-flight payloads.
    let mut wires: PairTable<VecDeque<Vec<u8>>> = PairTable::new(n);

    loop {
        let mut progressed = false;
        let mut all_done = true;
        #[expect(
            clippy::needless_range_loop,
            reason = "`me` is the actual rank: it keys `wires` and the virtual-rank map too"
        )]
        for me in 0..n {
            let vrank = virtual_rank(me, ctx.root, n);
            let rounds = &schedule.plans[vrank].rounds;
            while let Some(round) = rounds.get(ranks[me].round) {
                all_done = false;
                if ranks[me].next_send < round.sends.len() {
                    let s = &round.sends[ranks[me].next_send];
                    let payload = ranks[me].state.payload(&s.what);
                    let to = actual_rank(s.to as usize, ctx.root, n);
                    wires.pair(me, to).push_back(payload);
                    ranks[me].life = step(ranks[me].life, "send");
                    ranks[me].next_send += 1;
                    progressed = true;
                    continue;
                }
                if ranks[me].next_send == round.sends.len() && ranks[me].next_recv == 0 {
                    ranks[me].life = step(ranks[me].life, "drain");
                    // Mark the drain by bumping next_send past the end.
                    ranks[me].next_send += 1;
                    progressed = true;
                }
                if ranks[me].next_recv < round.recvs.len() {
                    let r = &round.recvs[ranks[me].next_recv];
                    let from = actual_rank(r.from as usize, ctx.root, n);
                    let Some(bytes) = wires.pair(from, me).pop_front() else {
                        break; // blocked on this recv; let others run
                    };
                    ranks[me].state.apply(&r.what, &bytes, ctx.reduction);
                    ranks[me].life = step(ranks[me].life, "recv");
                    ranks[me].next_recv += 1;
                    progressed = true;
                    continue;
                }
                // Round complete.
                ranks[me].life = step(ranks[me].life, "finish");
                ranks[me].round += 1;
                ranks[me].next_send = 0;
                ranks[me].next_recv = 0;
                if ranks[me].round < rounds.len() {
                    ranks[me].life = step(ranks[me].life, "post");
                }
                progressed = true;
            }
        }
        if all_done {
            break;
        }
        assert!(
            progressed,
            "schedule deadlocked: every unfinished rank is blocked on a receive \
             ({:?} {} over {} ranks)",
            schedule.op,
            schedule.algorithm.name(),
            n
        );
    }
    ranks
        .into_iter()
        .enumerate()
        .map(|(me, r)| {
            assert!(r.life.is_terminal());
            r.state
                .into_output(schedule.op, virtual_rank(me, ctx.root, n))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{CollOp, Dtype, ReduceOp};
    use crate::plan::{build, Algorithm};

    fn no_reduce(root: usize) -> ExecCtx {
        ExecCtx {
            root,
            reduction: None,
        }
    }

    #[test]
    fn local_allreduce_sums_across_every_algorithm() {
        for alg in [
            Algorithm::Linear,
            Algorithm::Tree,
            Algorithm::RecursiveDoubling,
            Algorithm::Ring,
        ] {
            let n = 6;
            let s = build(CollOp::Allreduce, alg, n).unwrap();
            let contribs: Vec<Vec<u8>> = (0..n)
                .map(|r| ((r + 1) as u64).to_le_bytes().to_vec())
                .collect();
            let ctx = ExecCtx {
                root: 0,
                reduction: Some(Reduction {
                    dtype: Dtype::U64,
                    op: ReduceOp::Sum,
                }),
            };
            let outs = run_local(&s, ctx, &contribs);
            for out in outs {
                assert_eq!(out.acc, 21u64.to_le_bytes(), "{alg:?}");
            }
        }
    }

    #[test]
    fn local_bcast_rotates_roots() {
        let n = 5;
        let s = build(CollOp::Bcast, Algorithm::Tree, n).unwrap();
        for root in 0..n {
            let contribs: Vec<Vec<u8>> = (0..n)
                .map(|r| {
                    if r == root {
                        b"hello".to_vec()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let outs = run_local(&s, no_reduce(root), &contribs);
            for out in outs {
                assert_eq!(out.acc, b"hello", "root {root}");
            }
        }
    }

    #[test]
    fn virtual_actual_rank_mapping_inverts() {
        for n in [2usize, 3, 8] {
            for root in 0..n {
                for v in 0..n {
                    assert_eq!(virtual_rank(actual_rank(v, root, n), root, n), v);
                }
            }
        }
    }
}
