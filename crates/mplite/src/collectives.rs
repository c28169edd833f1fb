//! Collective operations over the point-to-point layer.
//!
//! MP_Lite supported "many common global operations" (§3.4); this module
//! provides the same set: barrier, broadcast, reduce / allreduce over
//! numeric slices, gather / allgather, scatter and all-to-all.
//!
//! The algorithms themselves live in the `collectives` crate as data —
//! a [`Schedule`](::collectives::Schedule) of per-rank rounds built by
//! [`::collectives::build`] — and run here through
//! [`run_blocking`] over [`Comm`]'s tagged point-to-point layer. The
//! same schedules drive the simulated N-rank backend, so the real and
//! simulated collectives are byte-identical by construction. Every
//! entry point has a `*_with` variant taking an explicit
//! [`Algorithm`]; the plain names use the deterministic default from
//! [`auto_algorithm`] (which depends only on the op and the job size,
//! so ranks can never disagree on it). Gather, scatter and all-to-all
//! remain hand-rolled: they are personalized (per-peer payloads), which
//! the schedule vocabulary does not model; their receives still go
//! through the same deadline-bounded transport, one posted receive per
//! source.
//!
//! All collectives use reserved negative tags derived from a per-job
//! sequence number, so they never collide with user traffic and
//! back-to-back collectives never collide with each other. As in MPI,
//! every rank must call the same collectives in the same order.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ::collectives::{
    auto_algorithm, build, run_blocking, CollOutput, CollTransport, ExecCtx, PlanError, Reduction,
};
use ::collectives::{CollOp, Dtype};

use crate::buf::Bytes;
use crate::comm::Comm;
use crate::error::{MpError, Result};
use crate::message::RecvSlot;

/// Reduction operators for [`Comm::reduce`] / [`Comm::allreduce`]
/// (shared with the simulated backend).
pub use ::collectives::ReduceOp;

/// Algorithm families accepted by the `*_with` entry points.
pub use ::collectives::Algorithm;

/// Element types usable in reductions.
pub trait ReduceElem: Copy + Send + 'static {
    /// Serialized size of one element.
    const WIDTH: usize;
    /// The byte-level encoding the schedule executor combines under.
    const DTYPE: Dtype;
    /// Append the little-endian encoding of `self`.
    fn write(self, out: &mut Vec<u8>);
    /// Decode one element.
    fn read(bytes: &[u8]) -> Self;
}

macro_rules! impl_reduce_elem {
    ($t:ty, $dtype:expr) => {
        impl ReduceElem for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const DTYPE: Dtype = $dtype;
            fn write(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(crate::message::le_bytes(bytes))
            }
        }
    };
}

impl_reduce_elem!(f64, Dtype::F64);
impl_reduce_elem!(f32, Dtype::F32);
impl_reduce_elem!(i64, Dtype::I64);
impl_reduce_elem!(i32, Dtype::I32);
impl_reduce_elem!(u64, Dtype::U64);

fn encode_slice<T: ReduceElem>(xs: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(xs.len() * T::WIDTH);
    for &x in xs {
        x.write(&mut out);
    }
    out
}

fn decode_slice<T: ReduceElem>(bytes: &[u8]) -> Result<Vec<T>> {
    if !bytes.len().is_multiple_of(T::WIDTH) {
        return Err(MpError::Truncated {
            got: bytes.len(),
            want: bytes.len() / T::WIDTH * T::WIDTH,
        });
    }
    Ok(bytes.chunks_exact(T::WIDTH).map(T::read).collect())
}

fn plan_err(e: PlanError) -> MpError {
    MpError::BadArg(match e {
        PlanError::Unsupported { .. } => "algorithm does not support this collective",
        PlanError::NeedsPowerOfTwo { .. } => "algorithm requires a power-of-two rank count",
        PlanError::NoRanks => "collective over zero ranks",
    })
}

/// [`Comm`] as a schedule transport: posted receives are raw
/// [`RecvSlot`]s (post-then-send keeps symmetric exchanges
/// deadlock-free), sends are blocking internal isends.
///
/// Every receive completion runs under the communicator's collective
/// round deadline: a peer that stops making progress is declared dead
/// ([`MpError::RankDead`]), the verdict is broadcast so every survivor
/// fails the same way, and the collective returns instead of hanging.
struct CommTransport<'a> {
    comm: &'a Comm,
    deadline: std::time::Duration,
}

impl CollTransport for CommTransport<'_> {
    type Err = MpError;
    /// The awaited source rank rides along so a deadline expiry can be
    /// pinned on the rank that failed to deliver.
    type Pending = (usize, Arc<RecvSlot>);

    fn rank(&self) -> usize {
        self.comm.rank()
    }

    fn nranks(&self) -> usize {
        self.comm.nprocs()
    }

    fn post(&self, from: usize, tag: i32) -> (usize, Arc<RecvSlot>) {
        (from, self.comm.post_internal(from as i32, tag))
    }

    fn complete(&self, (from, slot): (usize, Arc<RecvSlot>)) -> Result<Vec<u8>> {
        match slot.wait_deadline(self.deadline) {
            Some(Ok(msg)) => Ok(msg.data.to_vec()),
            Some(Err(e)) => Err(self.comm.classify_peer_error(e)),
            None => {
                self.comm.report_dead(
                    from,
                    &format!("rank {from} presumed dead: collective round deadline expired"),
                );
                Err(MpError::RankDead { rank: from })
            }
        }
    }

    fn send(&self, to: usize, tag: i32, payload: Vec<u8>) -> Result<()> {
        self.comm
            .isend_internal(to, tag, Bytes::from(payload))?
            .wait()
            .map_err(|e| self.comm.classify_peer_error(e))
    }
}

impl Comm {
    /// This communicator as a schedule transport, under the current
    /// collective round deadline.
    fn transport(&self) -> CommTransport<'_> {
        CommTransport {
            comm: self,
            deadline: self.coll_deadline(),
        }
    }

    /// Reserve the next collective tag; all ranks call the collectives
    /// in the same order, so the sequence numbers agree. `rem_euclid`
    /// keeps the tag inside the reserved `[-1_000_000, -1]` window even
    /// after the `i32` sequence counter overflows (a plain `%` would go
    /// below the window once `fetch_add` wraps the counter negative).
    fn coll_tag(&self) -> i32 {
        let seq = self.coll_seq.fetch_add(1, Ordering::Relaxed);
        // Tags below -2 are reserved: leave room for 2^20 in-flight rounds.
        -1_000_000 + seq.rem_euclid(1_000_000)
    }

    /// Build and run one schedule over this communicator. Exactly one
    /// collective tag is consumed regardless of algorithm, so mixed
    /// algorithm sequences stay tag-synchronized across ranks.
    fn run_schedule(
        &self,
        op: CollOp,
        algorithm: Algorithm,
        root: usize,
        reduction: Option<Reduction>,
        contribution: &[u8],
    ) -> Result<CollOutput> {
        let n = self.nprocs();
        if root >= n {
            return Err(MpError::BadRank {
                rank: root,
                nprocs: n,
            });
        }
        let schedule = build(op, algorithm, n).map_err(plan_err)?;
        let tag = self.coll_tag();
        run_blocking(
            &self.transport(),
            &schedule,
            ExecCtx { root, reduction },
            tag,
            contribution,
        )
    }

    /// Block until every rank has entered the barrier (dissemination
    /// algorithm: ⌈log₂ n⌉ rounds).
    pub fn barrier(&self) -> Result<()> {
        self.barrier_with(auto_algorithm(CollOp::Barrier, self.nprocs()))
    }

    /// [`Comm::barrier`] with an explicit algorithm.
    pub fn barrier_with(&self, algorithm: Algorithm) -> Result<()> {
        self.run_schedule(CollOp::Barrier, algorithm, 0, None, &[])?;
        Ok(())
    }

    /// Broadcast `data` from `root`; every rank returns the payload.
    /// Binomial tree: ⌈log₂ n⌉ rounds.
    pub fn bcast(&self, root: usize, data: Option<Bytes>) -> Result<Bytes> {
        self.bcast_with(Algorithm::Tree, root, data)
    }

    /// [`Comm::bcast`] with an explicit algorithm.
    pub fn bcast_with(
        &self,
        algorithm: Algorithm,
        root: usize,
        data: Option<Bytes>,
    ) -> Result<Bytes> {
        let contribution = if self.rank() == root {
            data.ok_or(MpError::BadArg("root must supply the broadcast payload"))?
        } else {
            Bytes::new()
        };
        let out = self.run_schedule(CollOp::Bcast, algorithm, root, None, &contribution)?;
        Ok(Bytes::from(out.acc))
    }

    /// Elementwise reduction to `root`. Returns `Some(result)` on root,
    /// `None` elsewhere. All ranks must pass equal-length slices.
    pub fn reduce<T: ReduceElem>(
        &self,
        root: usize,
        data: &[T],
        op: ReduceOp,
    ) -> Result<Option<Vec<T>>> {
        self.reduce_with(Algorithm::Tree, root, data, op)
    }

    /// [`Comm::reduce`] with an explicit algorithm.
    pub fn reduce_with<T: ReduceElem>(
        &self,
        algorithm: Algorithm,
        root: usize,
        data: &[T],
        op: ReduceOp,
    ) -> Result<Option<Vec<T>>> {
        let out = self.run_schedule(
            CollOp::Reduce,
            algorithm,
            root,
            Some(Reduction {
                dtype: T::DTYPE,
                op,
            }),
            &encode_slice(data),
        )?;
        if self.rank() == root {
            Ok(Some(decode_slice(&out.acc)?))
        } else {
            Ok(None)
        }
    }

    /// Reduction delivered to every rank (binomial reduce + broadcast).
    pub fn allreduce<T: ReduceElem>(&self, data: &[T], op: ReduceOp) -> Result<Vec<T>> {
        self.allreduce_with(Algorithm::Tree, data, op)
    }

    /// [`Comm::allreduce`] with an explicit algorithm.
    pub fn allreduce_with<T: ReduceElem>(
        &self,
        algorithm: Algorithm,
        data: &[T],
        op: ReduceOp,
    ) -> Result<Vec<T>> {
        let out = self.run_schedule(
            CollOp::Allreduce,
            algorithm,
            0,
            Some(Reduction {
                dtype: T::DTYPE,
                op,
            }),
            &encode_slice(data),
        )?;
        decode_slice(&out.acc)
    }

    /// Gather every rank's payload everywhere. The algorithm selector
    /// picks the binomial gather+bcast tree for small jobs and the
    /// bandwidth-optimal ring once the job is wide enough for the root
    /// to bottleneck; both produce identical results.
    pub fn allgather(&self, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        self.allgather_with(auto_algorithm(CollOp::Allgather, self.nprocs()), data)
    }

    /// [`Comm::allgather`] with an explicit algorithm.
    pub fn allgather_with(&self, algorithm: Algorithm, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        let out = self.run_schedule(CollOp::Allgather, algorithm, 0, None, data)?;
        Ok(out.blocks)
    }

    /// Gather every rank's payload at `root` (rank order). Returns
    /// `Some(parts)` on root, `None` elsewhere.
    pub fn gather(&self, root: usize, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        let tag = self.coll_tag();
        let n = self.nprocs();
        if root >= n {
            return Err(MpError::BadRank {
                rank: root,
                nprocs: n,
            });
        }
        if self.rank() == root {
            let t = self.transport();
            let pending: Vec<_> = (0..n)
                .filter(|&r| r != root)
                .map(|r| t.post(r, tag))
                .collect();
            let mut parts: Vec<Vec<u8>> = vec![Vec::new(); n];
            parts[root] = data.to_vec();
            for p @ (src, _) in pending {
                parts[src] = t.complete(p)?;
            }
            Ok(Some(parts))
        } else {
            self.isend_internal(root, tag, Bytes::copy_from_slice(data))?
                .wait()?;
            Ok(None)
        }
    }

    /// Distribute one slice per rank from `root`. On root, `parts` must
    /// have exactly `nprocs` entries; elsewhere pass `None`.
    pub fn scatter(&self, root: usize, parts: Option<Vec<Bytes>>) -> Result<Bytes> {
        let tag = self.coll_tag();
        let n = self.nprocs();
        if root >= n {
            return Err(MpError::BadRank {
                rank: root,
                nprocs: n,
            });
        }
        if self.rank() == root {
            let parts = parts.ok_or(MpError::BadArg("root must supply scatter parts"))?;
            if parts.len() != n {
                return Err(MpError::BadArg("scatter needs one part per rank"));
            }
            let mine = parts[root].clone();
            let mut sends = Vec::new();
            for (dst, part) in parts.into_iter().enumerate() {
                if dst != root {
                    sends.push(self.isend_internal(dst, tag, part)?);
                }
            }
            for s in sends {
                s.wait()?;
            }
            Ok(mine)
        } else {
            let t = self.transport();
            Ok(Bytes::from(t.complete(t.post(root, tag))?))
        }
    }

    /// Personalized all-to-all exchange: `parts[j]` goes to rank `j`;
    /// returns what every rank sent to this one, in rank order.
    pub fn alltoall(&self, parts: Vec<Bytes>) -> Result<Vec<Vec<u8>>> {
        let tag = self.coll_tag();
        let n = self.nprocs();
        if parts.len() != n {
            return Err(MpError::BadArg("alltoall needs one part per rank"));
        }
        let me = self.rank();
        let t = self.transport();
        let pending: Vec<_> = (0..n)
            .filter(|&r| r != me)
            .map(|r| t.post(r, tag))
            .collect();
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
        out[me] = parts[me].to_vec();
        let mut sends = Vec::new();
        for (dst, part) in parts.into_iter().enumerate() {
            if dst != me {
                sends.push(self.isend_internal(dst, tag, part)?);
            }
        }
        for p @ (src, _) in pending {
            out[src] = t.complete(p)?;
        }
        for s in sends {
            s.wait()?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn barrier_synchronizes_all_sizes() {
        for n in [1, 2, 3, 4, 5, 8] {
            Universe::run(n, |comm| {
                for _ in 0..5 {
                    comm.barrier().unwrap();
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn barrier_works_under_every_algorithm() {
        for alg in Algorithm::all() {
            for n in [2, 3, 5, 8] {
                Universe::run(n, move |comm| {
                    for _ in 0..3 {
                        comm.barrier_with(alg).unwrap();
                    }
                })
                .unwrap();
            }
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for n in [2, 3, 5, 8] {
            for root in 0..n {
                Universe::run(n, move |comm| {
                    let data =
                        (comm.rank() == root).then(|| Bytes::from(format!("payload-from-{root}")));
                    let got = comm.bcast(root, data).unwrap();
                    assert_eq!(&got[..], format!("payload-from-{root}").as_bytes());
                })
                .unwrap();
            }
        }
    }

    #[test]
    fn bcast_ring_matches_tree() {
        for n in [2, 4, 6] {
            for root in 0..n {
                Universe::run(n, move |comm| {
                    let mk = || (comm.rank() == root).then(|| Bytes::from(vec![root as u8; 64]));
                    let tree = comm.bcast_with(Algorithm::Tree, root, mk()).unwrap();
                    let ring = comm.bcast_with(Algorithm::Ring, root, mk()).unwrap();
                    let lin = comm.bcast_with(Algorithm::Linear, root, mk()).unwrap();
                    assert_eq!(&tree[..], &ring[..]);
                    assert_eq!(&tree[..], &lin[..]);
                })
                .unwrap();
            }
        }
    }

    #[test]
    fn reduce_sum_matches_reference() {
        for n in [2, 3, 4, 7] {
            Universe::run(n, move |comm| {
                let mine: Vec<f64> = (0..8).map(|i| (comm.rank() * 8 + i) as f64).collect();
                let got = comm.reduce(0, &mine, ReduceOp::Sum).unwrap();
                if comm.rank() == 0 {
                    let got = got.unwrap();
                    for (i, &v) in got.iter().enumerate() {
                        let expect: f64 = (0..n).map(|r| (r * 8 + i) as f64).sum();
                        assert_eq!(v, expect, "n={n} elem {i}");
                    }
                } else {
                    assert!(got.is_none());
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn allreduce_min_max_prod() {
        Universe::run(4, |comm| {
            let r = comm.rank() as i64 + 1;
            let mine = [r, -r, 2 * r];
            let min = comm.allreduce(&mine, ReduceOp::Min).unwrap();
            assert_eq!(min, vec![1, -4, 2]);
            let max = comm.allreduce(&mine, ReduceOp::Max).unwrap();
            assert_eq!(max, vec![4, -1, 8]);
            let prod = comm.allreduce(&[r], ReduceOp::Prod).unwrap();
            assert_eq!(prod, vec![24]);
        })
        .unwrap();
    }

    #[test]
    fn gather_collects_in_rank_order() {
        Universe::run(4, |comm| {
            let mine = vec![comm.rank() as u8; comm.rank() + 1];
            let got = comm.gather(2, &mine).unwrap();
            if comm.rank() == 2 {
                let parts = got.unwrap();
                for (r, p) in parts.iter().enumerate() {
                    assert_eq!(p, &vec![r as u8; r + 1]);
                }
            } else {
                assert!(got.is_none());
            }
        })
        .unwrap();
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        Universe::run(3, |comm| {
            let mine = format!("rank{}", comm.rank());
            let got = comm.allgather(mine.as_bytes()).unwrap();
            assert_eq!(got.len(), 3);
            for (r, p) in got.iter().enumerate() {
                assert_eq!(p, format!("rank{r}").as_bytes());
            }
        })
        .unwrap();
    }

    #[test]
    fn scatter_distributes_parts() {
        Universe::run(4, |comm| {
            let parts = (comm.rank() == 1).then(|| {
                (0..4)
                    .map(|i| Bytes::from(vec![i as u8; 4]))
                    .collect::<Vec<_>>()
            });
            let mine = comm.scatter(1, parts).unwrap();
            assert_eq!(&mine[..], &[comm.rank() as u8; 4]);
        })
        .unwrap();
    }

    #[test]
    fn alltoall_transposes() {
        Universe::run(3, |comm| {
            let parts: Vec<Bytes> = (0..3)
                .map(|dst| Bytes::from(format!("{}->{}", comm.rank(), dst)))
                .collect();
            let got = comm.alltoall(parts).unwrap();
            for (src, p) in got.iter().enumerate() {
                assert_eq!(p, format!("{}->{}", src, comm.rank()).as_bytes());
            }
        })
        .unwrap();
    }

    #[test]
    fn alltoall_rejects_a_wrong_part_count_and_keeps_tags_in_step() {
        Universe::run(2, |comm| {
            let parts = vec![Bytes::from("x"); 3];
            assert!(matches!(comm.alltoall(parts), Err(MpError::BadArg(_))));
            comm.barrier().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn recursive_doubling_allreduce_matches_tree_allreduce() {
        // Both algorithms must produce identical results for every job
        // size, including non-powers-of-two.
        for n in [1, 2, 3, 4, 5, 6, 8] {
            Universe::run(n, move |comm| {
                let mine: Vec<f64> = (0..16)
                    .map(|i| (comm.rank() * 31 + i * 7) as f64 * 0.5)
                    .collect();
                let tree = comm.allreduce(&mine, ReduceOp::Sum).unwrap();
                let rd = comm
                    .allreduce_with(Algorithm::RecursiveDoubling, &mine, ReduceOp::Sum)
                    .unwrap();
                for (a, b) in tree.iter().zip(&rd) {
                    assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
                }
                let tree_max = comm.allreduce(&mine, ReduceOp::Max).unwrap();
                let rd_max = comm
                    .allreduce_with(Algorithm::RecursiveDoubling, &mine, ReduceOp::Max)
                    .unwrap();
                assert_eq!(tree_max, rd_max, "n={n}");
            })
            .unwrap();
        }
    }

    #[test]
    fn ring_allgather_matches_tree_allgather() {
        for n in [1, 2, 3, 5, 7] {
            Universe::run(n, move |comm| {
                let mine = format!("payload-from-rank-{}", comm.rank());
                let tree = comm
                    .allgather_with(Algorithm::Tree, mine.as_bytes())
                    .unwrap();
                let ring = comm
                    .allgather_with(Algorithm::Ring, mine.as_bytes())
                    .unwrap();
                assert_eq!(tree, ring, "n={n}");
                for (r, p) in ring.iter().enumerate() {
                    assert_eq!(p, format!("payload-from-rank-{r}").as_bytes());
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn allgather_bruck_matches_ring() {
        for n in [2, 3, 5, 6, 8] {
            Universe::run(n, move |comm| {
                let mine = vec![comm.rank() as u8 + 1; comm.rank() % 3 + 1];
                let bruck = comm
                    .allgather_with(Algorithm::Dissemination, &mine)
                    .unwrap();
                let ring = comm.allgather_with(Algorithm::Ring, &mine).unwrap();
                assert_eq!(bruck, ring, "n={n}");
            })
            .unwrap();
        }
    }

    #[test]
    fn mixed_algorithm_sequences_stay_in_sync() {
        // Interleaving the algorithm families must not desynchronize the
        // collective tag sequence.
        Universe::run(4, |comm| {
            for round in 0..10i64 {
                let a = comm.allreduce(&[round], ReduceOp::Sum).unwrap();
                let b = comm
                    .allreduce_with(Algorithm::RecursiveDoubling, &[round], ReduceOp::Sum)
                    .unwrap();
                assert_eq!(a, b);
                let g = comm
                    .allgather_with(Algorithm::Ring, &round.to_le_bytes())
                    .unwrap();
                assert_eq!(g.len(), 4);
                comm.barrier().unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn collectives_interleave_with_p2p() {
        Universe::run(2, |comm| {
            let peer = 1 - comm.rank();
            comm.send(peer, 1, b"before").unwrap();
            comm.barrier().unwrap();
            let sum = comm.allreduce(&[1i64], ReduceOp::Sum).unwrap();
            assert_eq!(sum, vec![2]);
            let (data, _) = comm.recv(peer as i32, 1).unwrap();
            assert_eq!(&data[..], b"before");
        })
        .unwrap();
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        Universe::run(1, |comm| {
            comm.barrier().unwrap();
            let b = comm.bcast(0, Some(Bytes::from("solo"))).unwrap();
            assert_eq!(&b[..], b"solo");
            let r = comm.allreduce(&[5.0f64], ReduceOp::Sum).unwrap();
            assert_eq!(r, vec![5.0]);
            let g = comm.allgather(b"x").unwrap();
            assert_eq!(g, vec![b"x".to_vec()]);
        })
        .unwrap();
    }

    #[test]
    fn severed_rank_is_classified_rank_dead_and_poisons_survivors() {
        // Rank 2 "crashes" (no FIN); ranks 0 and 1 attempt an allreduce.
        // Neither may hang: both must get MpError::RankDead { rank: 2 },
        // whether they observe the EOF directly or learn it from the
        // POISON broadcast.
        let mut comms = Universe::local(3).expect("mesh");
        for c in &comms {
            c.set_coll_deadline(std::time::Duration::from_secs(2));
        }
        let c2 = comms.pop().expect("rank 2");
        let c1 = comms.pop().expect("rank 1");
        let c0 = comms.pop().expect("rank 0");
        let killer = std::thread::spawn(move || {
            c2.sever();
            drop(c2);
        });
        let survivors: Vec<_> = [c0, c1]
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    let r = c.allreduce(&[1i64], ReduceOp::Sum);
                    let dead = c.dead_ranks();
                    (r, dead)
                })
            })
            .collect();
        killer.join().expect("killer");
        for (rank, t) in survivors.into_iter().enumerate() {
            let (r, dead) = t.join().expect("survivor thread");
            let err = r.expect_err("collective with a dead rank must fail");
            assert!(
                matches!(err, MpError::RankDead { rank: 2 }),
                "rank {rank}: got {err}"
            );
            assert_eq!(dead, vec![2], "rank {rank} records the verdict");
        }
    }

    #[test]
    fn silent_peer_hits_the_round_deadline_as_rank_dead() {
        // Rank 1 stays connected but never enters the collective: the
        // EOF path can't fire, so only the round deadline can save rank
        // 0 from hanging.
        let mut comms = Universe::local(2).expect("mesh");
        let c1 = comms.pop().expect("rank 1");
        let c0 = comms.pop().expect("rank 0");
        c0.set_coll_deadline(std::time::Duration::from_millis(200));
        let waiter = std::thread::spawn(move || c0.barrier());
        let err = waiter
            .join()
            .expect("waiter thread")
            .expect_err("deadline must fire");
        assert!(matches!(err, MpError::RankDead { rank: 1 }), "{err}");
        drop(c1);
    }

    /// Run `call` on rank `caller` of a two-rank job whose other rank
    /// stays connected but silent. The call must fail with `RankDead`
    /// naming the silent rank under a 200 ms round deadline; the
    /// watchdog turns a hang into a failure.
    fn silent_peer_is_rank_dead<T: 'static>(
        caller: usize,
        call: impl FnOnce(&Comm) -> Result<T> + Send + 'static,
    ) {
        let mut comms = Universe::local(2).expect("mesh");
        let silent = comms.remove(1 - caller);
        let comm = comms.pop().expect("caller");
        comm.set_coll_deadline(std::time::Duration::from_millis(200));
        let (tx, rx) = std::sync::mpsc::channel();
        let caller_thread = std::thread::spawn(move || tx.send(call(&comm).err()));
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("collective still blocked after the 5 s watchdog")
            .expect("the round deadline must fire");
        caller_thread
            .join()
            .expect("caller thread")
            .expect("result sent");
        assert!(
            matches!(err, MpError::RankDead { rank } if rank == 1 - caller),
            "{err}"
        );
        drop(silent);
    }

    #[test]
    fn gather_root_hits_the_round_deadline_on_a_silent_peer() {
        silent_peer_is_rank_dead(0, |c| c.gather(0, b"mine"));
    }

    #[test]
    fn scatter_leaf_hits_the_round_deadline_on_a_silent_root() {
        silent_peer_is_rank_dead(1, |c| c.scatter(0, None));
    }

    #[test]
    fn alltoall_hits_the_round_deadline_on_a_silent_peer() {
        silent_peer_is_rank_dead(0, |c| {
            c.alltoall(vec![Bytes::from("to-0"), Bytes::from("to-1")])
        });
    }

    #[test]
    fn coll_tag_stays_in_reserved_window_across_overflow() {
        // The i32 sequence counter wraps negative at i32::MAX; rem_euclid
        // must keep every tag inside [-1_000_000, -1] regardless.
        Universe::run(1, |comm| {
            comm.coll_seq.store(i32::MAX - 2, Ordering::Relaxed);
            for _ in 0..6 {
                let tag = comm.coll_tag();
                assert!(
                    (-1_000_000..0).contains(&tag),
                    "tag {tag} escaped the reserved window"
                );
            }
        })
        .unwrap();
    }

    #[test]
    fn collectives_survive_sequence_overflow() {
        // Live collectives across the wrap: tags on both sides of the
        // overflow must keep matching across ranks.
        Universe::run(3, |comm| {
            comm.coll_seq.store(i32::MAX - 2, Ordering::Relaxed);
            for round in 0..6i64 {
                let s = comm.allreduce(&[round], ReduceOp::Sum).unwrap();
                assert_eq!(s, vec![3 * round]);
                let g = comm.allgather(&round.to_le_bytes()).unwrap();
                assert_eq!(g.len(), 3);
                comm.barrier().unwrap();
            }
        })
        .unwrap();
    }
}
