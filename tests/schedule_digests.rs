//! Every planned schedule, pinned.
//!
//! `coll_timeline` pins what the simulated runs of the schedules do, at
//! up to 64 ranks. This test pins the schedules themselves, wider: for
//! every op × planner algorithm × rank count below, one line of
//! `Schedule::digest()` (every step of every rank, in order),
//! `total_messages()`, `max_rounds()`, and the round counts of virtual
//! ranks 0 and n−1. The text is compared with
//! `tests/golden/schedule_digests.txt`; on a mismatch the fresh text is
//! written beside the test binary's scratch directory and the first
//! differing line is reported.

use std::fmt::Write as _;

use collectives::{algorithms_for, build, CollOp, Schedule};

const GOLDEN: &str = include_str!("golden/schedule_digests.txt");

/// Rank counts: every small one, both sides of the powers of two, and
/// the widest `coll_scaling` point.
fn rank_counts() -> impl Iterator<Item = usize> {
    (1..=17).chain([31, 32, 33, 64, 100, 255, 256, 1000, 1024])
}

/// Rounds of virtual rank `v`.
fn rounds_of(schedule: &Schedule, v: usize) -> usize {
    schedule.rounds(v).len()
}

fn digests() -> String {
    let mut out = String::new();
    for op in CollOp::all() {
        for n in rank_counts() {
            for alg in algorithms_for(op, n) {
                let s = build(op, alg, n).expect("algorithms_for lists only what builds");
                writeln!(
                    out,
                    "{} {} n={n} digest={:016x} messages={} max_rounds={} rounds0={} rounds_last={}",
                    op.name(),
                    alg.name(),
                    s.digest(),
                    s.total_messages(),
                    s.max_rounds(),
                    rounds_of(&s, 0),
                    rounds_of(&s, n - 1),
                )
                .expect("writing to a String cannot fail");
            }
        }
    }
    out
}

#[test]
fn every_schedule_matches_its_golden() {
    let got = digests();
    if got != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("schedule_digests.txt");
        let _ = std::fs::write(&path, &got);
        let (line, (want, have)) = GOLDEN
            .lines()
            .zip(got.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((
                GOLDEN.lines().count().min(got.lines().count()),
                ("<end>", "<end>"),
            ));
        panic!(
            "the planned schedules drifted from tests/golden/schedule_digests.txt at line {}:\n  golden: {want}\n  now:    {have}\nthe whole new text is in {}",
            line + 1,
            path.display()
        );
    }
}
