//! The self-healing contract, enforced end to end:
//!
//! * **deterministic** — the same seed + fault plan reproduces the
//!   `RecoveryReport` and the full trace byte-identically;
//! * **bounded** — a seeded 64-rank allreduce losing two ranks
//!   mid-collective heals in exactly two membership epochs and the 62
//!   survivors finish with the correct wrapped-integer sum;
//! * **complete** — *any* single-rank death, for every algorithm at
//!   every awkward rank count (primes included), still yields the
//!   correct reduction over the survivors;
//! * **replayed** — a partial or healed run keeps an output for exactly
//!   the ranks that finished, and each is what the fault-free data
//!   executor gives that rank over the group that ran last.

use collectives::{
    algorithms_for, build, run_local, run_sim, CollOp, Dtype, ExecCtx, RankFault, RecoveryPolicy,
    ReduceOp, Reduction, Schedule, SimOptions, SimReport,
};
use faultlab::FaultPlan;
use hwmodel::presets::pcs_ga620;
use mpsim::libs::{mpich, MpichConfig};
use simcore::trace::SharedSink;
use tracelab::Tracer;

const RED: Reduction = Reduction {
    dtype: Dtype::U64,
    op: ReduceOp::Sum,
};

/// Deterministic one-element contribution per rank: a rank-and-constant
/// mix so survivor sums are distinguishable from full sums.
fn contributions(n: usize) -> Vec<Vec<u8>> {
    (0..n as u64)
        .map(|r| {
            r.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(1)
                .to_le_bytes()
                .to_vec()
        })
        .collect()
}

fn survivor_sum(contributions: &[Vec<u8>], evicted: &[usize]) -> u64 {
    contributions
        .iter()
        .enumerate()
        .filter(|(r, _)| !evicted.contains(r))
        .fold(0u64, |acc, (_, c)| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&c[..8]);
            acc.wrapping_add(u64::from_le_bytes(b))
        })
}

fn run(schedule: &Schedule, n: usize, options: &SimOptions) -> SimReport {
    run_sim(
        &pcs_ga620(),
        &mpich(MpichConfig::tuned()).profile,
        schedule,
        ExecCtx {
            root: 0,
            reduction: Some(RED),
        },
        &contributions(n),
        options,
    )
}

/// One traced run of the 64-rank two-kill scenario; returns the report
/// and the exported Chrome trace JSON.
fn traced_two_kill_run() -> (SimReport, String) {
    let n = 64;
    let schedule = build(
        CollOp::Allreduce,
        collectives::Algorithm::RecursiveDoubling,
        n,
    )
    .expect("64-rank recursive-doubling allreduce plans");
    let plan = FaultPlan::parse("seed=7,kill-rank=9@50us,kill-rank=23@120us").expect("valid plan");
    let tracer = Tracer::new();
    let report = run(
        &schedule,
        n,
        &SimOptions {
            trace: Some(tracer.clone() as SharedSink),
            faults: Vec::new(),
            plan: Some(plan),
            recovery: Some(RecoveryPolicy {
                deadline_us: 300.0,
                backoff_us: 100.0,
                max_epochs: 4,
            }),
        },
    );
    let json =
        tracelab::export::chrome_trace_json(&tracer.events(), &|track| format!("track-{track}"));
    (report, json)
}

#[test]
fn same_seed_and_plan_reproduce_report_and_trace_byte_identically() {
    let (a, trace_a) = traced_two_kill_run();
    let (b, trace_b) = traced_two_kill_run();
    let rec_a = a.recovery.expect("first run recovery report");
    let rec_b = b.recovery.expect("second run recovery report");
    assert_eq!(rec_a, rec_b, "recovery reports must be identical");
    assert_eq!(
        rec_a.to_text(),
        rec_b.to_text(),
        "rendered reports must be byte-identical"
    );
    assert_eq!(trace_a, trace_b, "traces must be byte-identical");
    assert!(
        trace_a.contains("coll-suspect") && trace_a.contains("coll-evict"),
        "trace records the recovery lifecycle"
    );
}

#[test]
fn two_timed_kills_heal_into_sixty_two_survivors() {
    let n = 64;
    let (report, _) = traced_two_kill_run();
    let rec = report.recovery.as_ref().expect("recovery report");
    assert_eq!(rec.evicted, vec![9, 23], "both killed ranks evicted");
    assert_eq!(rec.epochs.len(), 2, "one membership epoch per eviction");
    assert_eq!(report.completed, n - 2, "62 survivors completed");
    assert!(report.all_survivors_completed());
    let want = survivor_sum(&contributions(n), &rec.evicted).to_le_bytes();
    for (r, out) in report.outputs.iter().enumerate() {
        if rec.evicted.contains(&r) {
            continue;
        }
        let out = out
            .as_ref()
            .unwrap_or_else(|| panic!("rank {r} has no output"));
        assert_eq!(out.acc, want, "rank {r} holds the survivor sum");
    }
}

#[test]
fn any_single_rank_death_reduces_correctly_over_survivors() {
    // Primes, powers of two, and their awkward neighbours.
    let counts = [2usize, 3, 4, 5, 7, 8, 9, 13, 16, 17];
    let policy = RecoveryPolicy {
        deadline_us: 2_000.0,
        backoff_us: 500.0,
        max_epochs: 4,
    };
    for n in counts {
        for algorithm in algorithms_for(CollOp::Allreduce, n) {
            let Ok(schedule) = build(CollOp::Allreduce, algorithm, n) else {
                continue;
            };
            for victim in 0..n {
                let report = run(
                    &schedule,
                    n,
                    &SimOptions {
                        trace: None,
                        faults: vec![RankFault::Dead(victim)],
                        plan: None,
                        recovery: Some(policy),
                    },
                );
                let rec = report.recovery.as_ref().unwrap_or_else(|| {
                    panic!("{algorithm:?} n={n} victim={victim}: no recovery report")
                });
                assert_eq!(
                    rec.evicted,
                    vec![victim],
                    "{algorithm:?} n={n}: exactly the dead rank is evicted"
                );
                assert!(
                    report.all_survivors_completed(),
                    "{algorithm:?} n={n} victim={victim}: survivors stalled"
                );
                let want = survivor_sum(&contributions(n), &[victim]).to_le_bytes();
                for (r, out) in report.outputs.iter().enumerate() {
                    if r == victim {
                        continue;
                    }
                    let out = out.as_ref().unwrap_or_else(|| {
                        panic!("{algorithm:?} n={n} victim={victim}: rank {r} has no output")
                    });
                    assert_eq!(
                        out.acc, want,
                        "{algorithm:?} n={n} victim={victim}: rank {r} sum wrong"
                    );
                }
            }
        }
    }
}

/// Rank `r`'s input to `op` over `n` ranks, root 0: blocks of unequal
/// length for allgather, three elements for a reduction, the root's
/// payload for bcast.
fn inputs(op: CollOp, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|r| match op {
            CollOp::Barrier => Vec::new(),
            CollOp::Bcast if r != 0 => Vec::new(),
            CollOp::Allgather => vec![r as u8 + 1; 8 * (r + 1)],
            _ => contributions(n)[r].repeat(3),
        })
        .collect()
}

/// Holds `report` to the replay contract: a rank has an output if and
/// only if it has a finish time, and each output equals `run_local`'s
/// for that rank over the last group's schedule and inputs (the
/// survivors', replanned, once recovery evicted anyone).
fn assert_replayed(label: &str, schedule: &Schedule, inputs: &[Vec<u8>], report: &SimReport) {
    let (op, n) = (schedule.op, schedule.nranks);
    let evicted = report.recovery.as_ref().map_or(&[][..], |r| &r.evicted[..]);
    let world: Vec<usize> = (0..n).filter(|r| !evicted.contains(r)).collect();
    let algorithm = report
        .recovery
        .as_ref()
        .and_then(|r| r.epochs.last())
        .map_or(schedule.algorithm, |e| e.algorithm);
    let last = build(op, algorithm, world.len()).expect("the replanned group plans");
    // A re-elected root: any survivor gives a bcast the same outputs.
    let root = world.iter().position(|&w| w == 0).unwrap_or(0);
    let group_inputs: Vec<Vec<u8>> = world
        .iter()
        .enumerate()
        .map(|(g, &w)| match op {
            CollOp::Bcast if g == root => inputs[0].clone(),
            CollOp::Bcast => Vec::new(),
            _ => inputs[w].clone(),
        })
        .collect();
    let ctx = ExecCtx {
        root,
        reduction: matches!(op, CollOp::Reduce | CollOp::Allreduce).then_some(RED),
    };
    let want = run_local(&last, ctx, &group_inputs);
    for r in 0..n {
        let out = report.outputs[r].as_ref();
        assert_eq!(
            out.is_some(),
            report.finish_secs[r].is_some(),
            "{label}: rank {r} has an output iff it finished"
        );
        if let Some(out) = out {
            let g = world
                .iter()
                .position(|&w| w == r)
                .expect("a finished rank survived");
            assert_eq!(out, &want[g], "{label}: rank {r}'s output");
        }
    }
}

#[test]
fn partial_runs_keep_exactly_the_fault_free_outputs_of_finished_ranks() {
    let n = 8;
    let (spec, profile) = (pcs_ga620(), mpich(MpichConfig::tuned()).profile);
    let policy = RecoveryPolicy {
        deadline_us: 2_000.0,
        backoff_us: 500.0,
        max_epochs: 4,
    };
    let kill = |text: String| Some(FaultPlan::parse(&text).expect("valid plan"));
    let (mut partial_with_outputs, mut replanned_twice) = (0, 0);
    for op in CollOp::all() {
        let inputs = inputs(op, n);
        let ctx = ExecCtx {
            root: 0,
            reduction: matches!(op, CollOp::Reduce | CollOp::Allreduce).then_some(RED),
        };
        for algorithm in algorithms_for(op, n) {
            let schedule = build(op, algorithm, n).expect("8 ranks plan");
            let sim = |opts: SimOptions| run_sim(&spec, &profile, &schedule, ctx, &inputs, &opts);
            let clean = sim(SimOptions::default());
            assert_replayed(&format!("{op:?} {algorithm:?}"), &schedule, &inputs, &clean);
            // Halfway through the fault-free run, in whole microseconds.
            let half_us = (clean.seconds * 5e5) as u64;
            for r in 0..n {
                for (what, opts) in [
                    ("dead", SimOptions::with_fault(RankFault::Dead(r))),
                    (
                        "timed kill",
                        SimOptions {
                            plan: kill(format!("kill-rank={r}@{half_us}us")),
                            ..SimOptions::default()
                        },
                    ),
                ] {
                    let report = sim(opts);
                    let label = format!("{op:?} {algorithm:?} {what} rank {r}");
                    assert_replayed(&label, &schedule, &inputs, &report);
                    if report.completed > 0 && !report.all_completed() {
                        partial_with_outputs += 1;
                    }
                }
            }
            let report = sim(SimOptions {
                faults: vec![RankFault::Dead(2)],
                plan: kill(format!("kill-rank=6@{half_us}us")),
                recovery: Some(policy),
                ..SimOptions::default()
            });
            let label = format!("{op:?} {algorithm:?} two kills recover");
            if report
                .recovery
                .as_ref()
                .is_some_and(|r| r.evicted.len() == 2)
            {
                replanned_twice += 1;
            }
            assert_replayed(&label, &schedule, &inputs, &report);
        }
    }
    assert!(
        partial_with_outputs > 50,
        "only {partial_with_outputs} partial runs kept any output"
    );
    assert!(
        replanned_twice > 5,
        "only {replanned_twice} two-kill runs evicted both ranks"
    );
}

#[test]
fn a_bcast_whose_root_dies_re_roots_on_a_payload_holder() {
    // Tree bcast over 8 ranks: rank 1 is dead, so its subtree (3, 5, 7)
    // stalls while 2, 4 and 6 receive. The root dies after its sends,
    // before the replan, so the second epoch stalls on it too; the third
    // must re-root on rank 2, the lowest survivor holding the payload.
    let n = 8;
    let schedule = build(CollOp::Bcast, collectives::Algorithm::Tree, n).expect("tree plans");
    let payload = b"carried by the holders".to_vec();
    let mut inputs = vec![Vec::new(); n];
    inputs[0] = payload.clone();
    let report = run_sim(
        &pcs_ga620(),
        &mpich(MpichConfig::tuned()).profile,
        &schedule,
        ExecCtx {
            root: 0,
            reduction: None,
        },
        &inputs,
        &SimOptions {
            faults: vec![RankFault::Dead(1)],
            plan: Some(FaultPlan::parse("kill-rank=0@1000us").expect("valid plan")),
            recovery: Some(RecoveryPolicy {
                deadline_us: 2_000.0,
                backoff_us: 500.0,
                max_epochs: 4,
            }),
            ..SimOptions::default()
        },
    );
    let rec = report.recovery.as_ref().expect("recovery armed");
    assert_eq!(rec.evicted, vec![1, 0], "{rec:?}");
    assert!(report.all_survivors_completed(), "{rec:?}");
    for r in 2..n {
        let out = report.outputs[r].as_ref().expect("a survivor finished");
        assert_eq!(out.acc, payload, "rank {r}");
    }
}
