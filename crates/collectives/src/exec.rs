//! Schedule executors: the blocking one (real transports) and the
//! in-memory reference stepper the property tests compare against.
//!
//! Both interpret a [`Schedule`] with identical semantics — per round,
//! post every receive, issue every send, then complete and apply the
//! receives in listed order — so any transport that preserves per-pair
//! FIFO order produces byte-identical results.

use std::ops::Range;

use crate::lifecycle::{step, CollRound};
use crate::schedule::{idx32, Schedule};
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
    // Each round walks the machine's tokens from `Idle` back to `Idle`,
    // so the rank provably ends every round at rest.
    let mut idle = CollRound::start();
    for (sends, recvs) in schedule.rounds(vrank) {
        let mut life = idle.post();
        let pending: Vec<_> = recvs
            .iter()
            .map(|r| transport.post(actual_rank(r.from as usize, ctx.root, n), tag))
            .collect();
        for s in sends {
            let payload = state.payload(s.what);
            transport.send(actual_rank(s.to as usize, ctx.root, n), tag, payload)?;
            life = life.send();
        }
        let mut life = life.drain();
        for (r, p) in recvs.iter().zip(pending) {
            let bytes = transport.complete(p)?;
            state.apply(r.what, &bytes, ctx.reduction);
            life = life.recv();
        }
        idle = life.finish();
    }
    Ok(state.into_output(schedule.op, vrank))
}

/// Run a whole schedule in-process with plain queues: the reference
/// executor. Rank `i` contributes `contributions[i]` (actual-rank
/// indexed) and the outputs come back actual-rank indexed too.
///
/// A rank runs as far as it can — issue sends, then complete receives
/// in order — and yields when the queue it needs is empty. It runs
/// again only once a message lands on one of its queues, so a chain of
/// n hops costs O(n), not a sweep of every rank per hop. Any schedule a
/// blocking mesh can finish, this can too; a cycle of ranks all waiting
/// on absent messages panics with a deadlock diagnosis instead of
/// hanging.
pub fn run_local(schedule: &Schedule, ctx: ExecCtx, contributions: &[Vec<u8>]) -> Vec<CollOutput> {
    use std::collections::{BTreeMap, VecDeque};
    let n = schedule.nranks;
    assert_eq!(contributions.len(), n, "one contribution per rank");

    struct Rank {
        state: RankState,
        life: CollRound,
        /// The rounds still to run, by `Schedule::round` index.
        rounds: Range<u32>,
        /// Next unissued send / next uncompleted recv within the round.
        next_send: usize,
        next_recv: usize,
        /// Waiting in the ready stack to run, and the rank below it.
        queued: bool,
        below: Option<usize>,
    }
    let mut ranks: Vec<Rank> = (0..n)
        .map(|me| {
            let vrank = virtual_rank(me, ctx.root, n);
            let ids = schedule.round_ids(vrank);
            let rounds = idx32(ids.start)..idx32(ids.end);
            let mut life = CollRound::initial();
            if !rounds.is_empty() {
                life = step(life, "post");
            }
            Rank {
                state: RankState::init(schedule.op, n, vrank, &contributions[me]),
                life,
                rounds,
                next_send: 0,
                next_recv: 0,
                queued: true,
                below: (me + 1 < n).then_some(me + 1),
            }
        })
        .collect();
    // Per receiver, per sender, FIFO of in-flight payloads (actual
    // ranks); a pair costs memory only once a message uses it.
    let mut wires: Vec<BTreeMap<usize, VecDeque<Vec<u8>>>> = vec![BTreeMap::new(); n];
    // The top of a stack, threaded through `Rank::below`, of the ranks
    // that may progress: all at first, then each receiver a message
    // lands for.
    let mut ready = (n > 0).then_some(0);

    while let Some(me) = ready {
        ready = ranks[me].below;
        ranks[me].queued = false;
        while !ranks[me].rounds.is_empty() {
            let (sends, recvs) = schedule.round(ranks[me].rounds.start as usize);
            if ranks[me].next_send < sends.len() {
                let s = sends[ranks[me].next_send];
                let payload = ranks[me].state.payload(s.what);
                let to = actual_rank(s.to as usize, ctx.root, n);
                wires[to].entry(me).or_default().push_back(payload);
                if !ranks[to].queued {
                    ranks[to].queued = true;
                    ranks[to].below = ready;
                    ready = Some(to);
                }
                ranks[me].life = step(ranks[me].life, "send");
                ranks[me].next_send += 1;
                continue;
            }
            if ranks[me].next_send == sends.len() && ranks[me].next_recv == 0 {
                ranks[me].life = step(ranks[me].life, "drain");
                // Mark the drain by bumping next_send past the end.
                ranks[me].next_send += 1;
            }
            if ranks[me].next_recv < recvs.len() {
                let r = recvs[ranks[me].next_recv];
                let from = actual_rank(r.from as usize, ctx.root, n);
                let Some(bytes) = wires[me].get_mut(&from).and_then(VecDeque::pop_front) else {
                    break; // blocked on this recv until `from` sends
                };
                ranks[me].state.apply(r.what, &bytes, ctx.reduction);
                ranks[me].life = step(ranks[me].life, "recv");
                ranks[me].next_recv += 1;
                continue;
            }
            // Round complete.
            ranks[me].life = step(ranks[me].life, "finish");
            ranks[me].rounds.start += 1;
            ranks[me].next_send = 0;
            ranks[me].next_recv = 0;
            if !ranks[me].rounds.is_empty() {
                ranks[me].life = step(ranks[me].life, "post");
            }
        }
    }
    let stuck = ranks.iter().any(|r| !r.rounds.is_empty());
    assert!(
        !stuck,
        "schedule deadlocked: every unfinished rank is blocked on a receive \
         ({:?} {} over {} ranks)",
        schedule.op,
        schedule.algorithm.name(),
        n
    );
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
    #[should_panic(
        expected = "schedule deadlocked: every unfinished rank is blocked on a receive (Barrier linear over 2 ranks)"
    )]
    fn a_receive_cycle_is_diagnosed_not_hung() {
        use crate::schedule::{Builder, RecvWhat, SendWhat};
        // Each rank waits for the other before it sends.
        let s = Builder::plan(CollOp::Barrier, Algorithm::Linear, 2, |b, v| {
            b.round().recv(1 - v, RecvWhat::Token);
            b.round().send(1 - v, SendWhat::Token);
        });
        assert_eq!(s.validate(), Ok(()));
        run_local(&s, no_reduce(0), &[Vec::new(), Vec::new()]);
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
