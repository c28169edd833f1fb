//! The N-rank world pays per message, not per rank pair.
//!
//! `MultiSession` keeps one flat queue of unmatched posts and arrivals
//! per receiver, and `run_local` one `BTreeMap` per receiver keyed by
//! sender, so building a world is O(ranks) and a pair costs memory only
//! once a message uses it. These witnesses would need gigabytes with a dense
//! `n * n` table; they also pin what the queues must not change:
//! per-pair FIFO matching, byte-identical results across executors, and
//! the exact event count of a 256-rank barrier. Symmetric collectives
//! over 4 096 ranks are timed on their two-rank quotient; they must
//! count exactly the events that stepping every rank executes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use collectives::{
    build, run_local, run_sim, time_sim, Algorithm, CollOp, Dtype, ExecCtx, ReduceOp, Reduction,
    SimOptions, SimTiming,
};
use hwmodel::presets::pcs_ga620;
use mpsim::libs::{mpich, MpichConfig};
use mpsim::MultiSession;
use protosim::multinode::MultiNet;
use simcore::trace::{SharedSink, SpanRec, TraceSink};
use simcore::{SimDuration, SimRng};

/// Per `(from, to)` pair a receive was posted for, the lengths of the
/// messages it got, in the order received.
type PairLog = BTreeMap<(usize, usize), Vec<u64>>;

#[test]
fn a_65536_rank_session_builds_empty() {
    // Dense, this is 2^32 pair slots of 64 bytes: 256 GiB.
    let sess = MultiSession::new(mpich(MpichConfig::tuned()).profile, 1 << 16);
    assert_eq!(sess.nranks(), 1 << 16);
    assert!(!sess.has_unmatched());
}

#[test]
fn tree_allreduce_over_4096_ranks_agrees_between_sim_and_local() {
    const N: usize = 4096;
    let schedule = build(CollOp::Allreduce, Algorithm::Tree, N).expect("plan");
    let ctx = ExecCtx {
        root: 0,
        reduction: Some(Reduction {
            dtype: Dtype::U64,
            op: ReduceOp::Sum,
        }),
    };
    let contributions: Vec<Vec<u8>> = (0..N as u64)
        .map(|r| {
            (0..4u64)
                .flat_map(|i| (r.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i).to_le_bytes())
                .collect()
        })
        .collect();
    let local = run_local(&schedule, ctx, &contributions);
    let report = run_sim(
        &pcs_ga620(),
        &mpich(MpichConfig::tuned()).profile,
        &schedule,
        ctx,
        &contributions,
        &SimOptions::default(),
    );
    assert!(report.all_completed());
    assert_eq!(local.len(), N);
    for (rank, (sim, local)) in report.outputs.iter().zip(&local).enumerate() {
        assert_eq!(sim.as_ref(), Some(local), "rank {rank}");
    }
}

/// The fault-free 256-rank dissemination barrier that the benchmark
/// ladder times (`collectives.barrier256_host_ns_per_event`) executes an
/// exact number of events: a drift in the N-rank world's event stream
/// shows here before it shows in any timing.
#[test]
fn a_256_rank_barrier_takes_8448_events() {
    const N: usize = 256;
    let schedule = build(CollOp::Barrier, Algorithm::Dissemination, N).expect("plan");
    let report = run_sim(
        &pcs_ga620(),
        &mpich(MpichConfig::tuned()).profile,
        &schedule,
        ExecCtx {
            root: 0,
            reduction: None,
        },
        &vec![Vec::new(); N],
        &SimOptions::default(),
    );
    assert!(report.all_completed());
    assert_eq!(report.events, 8448);
}

/// Takes every record and keeps none.
struct Discard;

impl TraceSink for Discard {
    fn span(&self, _: SpanRec) {}
}

/// `op` by `algorithm` over 4 096 ranks of 1 KiB each, timed plain and
/// stepped (a trace sink steps every rank): the same events, every rank
/// finished at the same instant. Returns the plain timing.
fn symmetric_at_4096(op: CollOp, algorithm: Algorithm) -> SimTiming {
    const N: usize = 4096;
    let schedule = build(op, algorithm, N).expect("plan");
    let profile = mpich(MpichConfig::tuned()).profile;
    let lengths = vec![1024; N];
    let time = |trace: Option<SharedSink>| {
        let opts = SimOptions {
            trace,
            ..SimOptions::default()
        };
        time_sim(&pcs_ga620(), &profile, &schedule, 0, &lengths, &opts)
    };
    let plain = time(None);
    let stepped = time(Some(Rc::new(Discard)));
    assert!(plain.all_completed());
    assert_eq!(plain.events, stepped.events);
    assert_eq!(plain.seconds.to_bits(), stepped.seconds.to_bits());
    let last = Some(plain.seconds);
    assert!(plain.finish_secs.iter().all(|&t| t == last));
    assert!(stepped.finish_secs.iter().all(|&t| t == last));
    plain
}

#[test]
fn a_4096_rank_recursive_doubling_allreduce_counts_every_ranks_events() {
    let timing = symmetric_at_4096(CollOp::Allreduce, Algorithm::RecursiveDoubling);
    assert_eq!(timing.events, 200_704);
}

#[test]
fn a_4096_rank_barrier_counts_every_ranks_events() {
    let timing = symmetric_at_4096(CollOp::Barrier, Algorithm::Dissemination);
    assert_eq!(timing.events, 200_704);
}

/// Sends and posts over random pairs, in a seeded random interleaving
/// and spread over simulated time so that they race deliveries: every
/// pair must hand its messages over in send order, nothing may cross
/// pairs, and the session must end drained.
#[test]
fn interleaved_sends_and_posts_keep_per_pair_fifo_and_drain() {
    const N: usize = 24;
    const MSGS: usize = 1500;
    for seed in [1u64, 7, 42] {
        let mut rng = SimRng::new(seed);
        // One send and one post per message, shuffled together.
        let mut ops: Vec<(bool, usize, usize)> = Vec::with_capacity(2 * MSGS);
        for _ in 0..MSGS {
            let from = rng.next_below(N as u64) as usize;
            let to = (from + 1 + rng.next_below(N as u64 - 1) as usize) % N;
            ops.push((true, from, to));
            ops.push((false, from, to));
        }
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.next_below(i as u64 + 1) as usize);
        }

        let mut eng = MultiNet::engine(pcs_ga620(), N);
        let sess = MultiSession::new(mpich(MpichConfig::tuned()).profile, N);
        let got: Rc<RefCell<PairLog>> = Rc::default();
        let mut sent: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        // A message is told apart by its length: message `k` is
        // `24 + k` bytes long and `ids[k]` is its `(from, to, seq)`.
        let mut ids: Vec<(usize, usize, u64)> = Vec::with_capacity(MSGS);
        // Same-instant events run in insertion order, so the ops execute
        // in list order and per-pair sequence numbers can be dealt here.
        let mut at = SimDuration::ZERO;
        for (is_send, from, to) in ops {
            if rng.next_below(2) == 0 {
                at += SimDuration::from_micros_f64(rng.uniform(0.0, 30.0));
            }
            let sess = sess.clone();
            if is_send {
                let seq = sent.entry((from, to)).or_default();
                let body = vec![0u8; 24 + ids.len()];
                ids.push((from, to, *seq));
                *seq += 1;
                eng.schedule_in(at, move |e| sess.send(e, from, to, 0, Rc::new(body)));
            } else {
                let got = Rc::clone(&got);
                eng.schedule_in(at, move |e| {
                    sess.post_recv(
                        e,
                        to,
                        from,
                        0,
                        Box::new(move |_, len| {
                            got.borrow_mut().entry((from, to)).or_default().push(len);
                        }),
                    );
                });
            }
        }
        eng.run();

        assert!(!sess.has_unmatched(), "seed {seed}");
        let got = got.borrow();
        assert_eq!(
            got.values().map(Vec::len).sum::<usize>(),
            MSGS,
            "seed {seed}"
        );
        for (pair, lens) in got.iter() {
            let seqs: Vec<u64> = lens
                .iter()
                .map(|&len| {
                    let (from, to, seq) = ids[len as usize - 24];
                    assert_eq!((from, to), *pair, "seed {seed}: a message crossed pairs");
                    seq
                })
                .collect();
            let in_order: Vec<u64> = (0..sent[pair]).collect();
            assert_eq!(seqs, in_order, "seed {seed}, pair {pair:?}");
        }
    }
}
