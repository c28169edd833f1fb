//! Orbit compression's oracle: a symmetric collective timed on its
//! two-rank quotient must equal the same collective stepped rank by
//! rank.
//!
//! `collectives::time_sim` times a fault-free, untraced, symmetric
//! schedule (one send and one receive per round, round `k`'s sends a
//! permutation of one length) on two ranks and counts every rank's
//! events. A trace sink turns that off, so the same call with a
//! keep-nothing sink steps all `n` ranks: every run here is made both
//! ways and must agree on the bits of `seconds` and every finish time,
//! on `events` and on `completed`. Shapes the predicate rejects (tree,
//! the chain ring allreduce, rooted ops, folds for non-power-of-two
//! rank counts) step both times and must pass it trivially.
//!
//! Run the wide sweep (up to 1 024 ranks, every size) with
//! `cargo test --release --test orbits -- --include-ignored`.

use std::rc::Rc;

use collectives::{
    algorithms_for, build, time_sim, Algorithm, CollOp, RankFault, RecoveryPolicy, Schedule,
    SimOptions, SimTiming,
};
use faultlab::FaultPlan;
use hwmodel::kernel::linux_2_4;
use hwmodel::presets::pcs_ga620;
use mpsim::libs::{mp_lite, mpich, MpichConfig};
use mpsim::LibProfile;
use simcore::trace::{SharedSink, SpanRec, TraceSink};

/// Takes every record and keeps none.
struct Discard;

impl TraceSink for Discard {
    fn span(&self, _: SpanRec) {}
}

/// MPICH tuned and default (rendezvous above 128 KiB) and MP_Lite
/// (eager at every size).
fn profiles() -> [LibProfile; 3] {
    [
        mpich(MpichConfig::tuned()).profile,
        mpich(MpichConfig::default()).profile,
        mp_lite(&linux_2_4().with_raised_sockbuf_max()).profile,
    ]
}

/// Below one 1 448-byte segment, three segments, and past MPICH's
/// 128 KiB rendezvous threshold.
const SIZES: [u64; 3] = [64, 4 << 10, 160 << 10];

/// Contribution lengths for `op` over `n` ranks at `bytes`. An
/// allgather's `bytes` is what every rank ends with, so its largest
/// messages cross the rendezvous threshold at every `n` without the
/// run growing with `n` squared.
fn lengths(op: CollOp, n: usize, root: usize, bytes: u64) -> Vec<u64> {
    (0..n)
        .map(|r| match op {
            CollOp::Barrier => 0,
            CollOp::Bcast if r != root => 0,
            CollOp::Allgather => (bytes / n as u64).next_multiple_of(8).max(8),
            _ => bytes,
        })
        .collect()
}

/// Everything a timing says, floats by their bits.
fn exact(t: &SimTiming) -> (u64, u64, Vec<Option<u64>>, usize) {
    let finish = t.finish_secs.iter().map(|s| s.map(f64::to_bits)).collect();
    (t.seconds.to_bits(), t.events, finish, t.completed)
}

/// Times `schedule` plain and again with a keep-nothing sink, which
/// steps every rank, and wants the two to agree exactly. Returns the
/// plain timing.
fn same_as_stepped(
    profile: &LibProfile,
    schedule: &Schedule,
    root: usize,
    lengths: &[u64],
    opts: impl Fn() -> SimOptions,
) -> SimTiming {
    let spec = pcs_ga620();
    let plain = time_sim(&spec, profile, schedule, root, lengths, &opts());
    let sink: SharedSink = Rc::new(Discard);
    let traced = SimOptions {
        trace: Some(sink),
        ..opts()
    };
    let stepped = time_sim(&spec, profile, schedule, root, lengths, &traced);
    let label = format!(
        "{:?} {:?} n={} root={root} lengths={:?}.. under {}",
        schedule.op,
        schedule.algorithm,
        schedule.nranks,
        &lengths[..lengths.len().min(4)],
        profile.name
    );
    assert_eq!(exact(&plain), exact(&stepped), "{label}");
    assert_eq!(plain.recovery, stepped.recovery, "{label}");
    plain
}

/// Past this many ranks the linear allgather, an all-to-all in one
/// round that the predicate rejects at every n > 2, is left out: each
/// receiver's posts are matched by a linear scan, so one run at 1 024
/// ranks takes seconds.
const ALL_TO_ALL_MAX_RANKS: usize = 256;

/// Every op × algorithm over `ranks`, roots 0 and n − 1, every profile
/// and size; returns how many points ran.
fn sweep(ranks: impl Iterator<Item = usize> + Clone) -> usize {
    let mut points = 0;
    for profile in &profiles() {
        for op in CollOp::all() {
            for n in ranks.clone() {
                for alg in algorithms_for(op, n) {
                    if (op, alg) == (CollOp::Allgather, Algorithm::Linear)
                        && n > ALL_TO_ALL_MAX_RANKS
                    {
                        continue;
                    }
                    let schedule = build(op, alg, n).expect("algorithms_for plans it");
                    let sizes = if op == CollOp::Barrier {
                        &SIZES[..1]
                    } else {
                        &SIZES[..]
                    };
                    for root in [0, n - 1] {
                        for &bytes in sizes {
                            let lengths = lengths(op, n, root, bytes);
                            let t = same_as_stepped(profile, &schedule, root, &lengths, || {
                                SimOptions::default()
                            });
                            assert!(t.all_completed(), "{op:?} {alg:?} n={n}");
                            points += 1;
                        }
                    }
                }
            }
        }
    }
    points
}

#[test]
fn orbits_match_stepping_exactly() {
    let points = sweep((2..=17).chain([32, 64, 128, 256]));
    assert!(points > 5_000, "{points} points");

    // Near-misses: a symmetric 16-rank recursive-doubling allreduce
    // with one thing that can tell its ranks apart. Each must step, and
    // a quotient could not match stepping on any of them: a degraded
    // rank finishes late alone, a recovery policy arms per-rank
    // deadlines and a late kill is one event, both counted in
    // `events`, and unequal allgather blocks make round lengths differ.
    let n = 16;
    let profile = mpich(MpichConfig::tuned()).profile;
    let allreduce = build(CollOp::Allreduce, Algorithm::RecursiveDoubling, n).expect("plan");
    let equal = lengths(CollOp::Allreduce, n, 0, 4096);
    let degraded = same_as_stepped(&profile, &allreduce, 0, &equal, || {
        SimOptions::with_fault(RankFault::Degrade {
            rank: 3,
            extra_us: 50.0,
        })
    });
    let first = degraded.finish_secs[0];
    assert!(degraded.finish_secs.iter().any(|&t| t != first));
    let clean = same_as_stepped(&profile, &allreduce, 0, &equal, SimOptions::default);
    let watched = same_as_stepped(&profile, &allreduce, 0, &equal, || SimOptions {
        recovery: Some(RecoveryPolicy {
            deadline_us: 2_000.0,
            backoff_us: 500.0,
            max_epochs: 4,
        }),
        ..SimOptions::default()
    });
    assert!(watched.all_completed() && watched.events > clean.events);
    let late_kill = same_as_stepped(&profile, &allreduce, 0, &equal, || SimOptions {
        plan: Some(FaultPlan::parse("kill-rank=5@1000ms").expect("plan")),
        ..SimOptions::default()
    });
    assert!(late_kill.all_completed());
    assert_eq!(late_kill.events, clean.events + 1);
    let allgather = build(CollOp::Allgather, Algorithm::RecursiveDoubling, n).expect("plan");
    let unequal: Vec<u64> = (0..n as u64).map(|r| 8 * (r + 1)).collect();
    same_as_stepped(&profile, &allgather, 0, &unequal, SimOptions::default);
}

#[test]
#[ignore = "minutes in a debug build; CI runs it with --release"]
fn orbits_match_stepping_exactly_up_to_1024_ranks() {
    let wide = (2..=40).chain([48, 63, 64, 65, 100, 128, 255, 256, 512, 1000, 1024]);
    let points = sweep(wide);
    assert!(points > 10_000, "{points} points");
}
