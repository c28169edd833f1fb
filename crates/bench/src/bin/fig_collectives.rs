//! Regenerate the collective-scaling figures, the CI smoke CSV, and the
//! seeded collective chaos report.
//!
//! Five modes:
//!
//! * *(default)* — sweep the schedule-driven collectives over the
//!   simulated GA-620 fabric and write
//!   `results/collective_scaling.{csv,svg}` (allreduce latency vs rank
//!   count at 1 KiB per rank, one curve per algorithm × library
//!   profile) and `results/collective_sizes.{csv,svg}` (16-rank
//!   allreduce latency vs per-rank payload, 64 B … 1 MiB).
//! * `--smoke OUT` — write the deterministic 64-rank barrier smoke CSV
//!   ([`clusterlab::smoke_csv`]) to `OUT`; CI diffs this against the
//!   committed golden `crates/clusterlab/golden/collective_smoke.csv`.
//! * `--chaos PLAN` — run a 64-rank dissemination barrier under the
//!   seeded [`faultlab::FaultPlan`] `PLAN` (e.g. `seed=7,kill-after=1`)
//!   and print the annotated (possibly partial) report; kill plans run
//!   a third time with the self-healing cycle armed and report the
//!   eviction/replan outcome.
//! * `--recovery OUT` — write the deterministic seeded 64-rank
//!   allreduce chaos-recovery report ([`clusterlab::recovery_smoke`])
//!   to `OUT`; CI diffs this against the committed golden
//!   `crates/clusterlab/golden/recovery_smoke.txt`.
//! * `--real` — wall-clock sweep of the *real* in-process mplite
//!   collectives beyond the 8 ranks the PR 7 baseline stopped at
//!   (2 … 32 ranks, 1 KiB per rank), written to
//!   `results/collective_real.{csv,svg}`. Each point amortizes mesh
//!   setup over many rounds, and times a fixed number of universes
//!   after one untimed warm-up.

use std::fs;
use std::time::Instant;

use bench::{results_dir, write_collective_pair};
use clusterlab::{chaos_collective, recovery_smoke, CollConfig, CollCurve, CollPoint};
use collectives::{Algorithm, CollOp};
use faultlab::FaultPlan;
use hwmodel::presets::pcs_ga620;
use mpsim::libs::{mpich, MpichConfig};
use simcore::units::ns_to_us;

/// Rounds per universe in the real sweep: enough to amortize the mesh
/// setup (thread spawn + TCP connect) that one `Universe::run` pays.
const REAL_ROUNDS: usize = 32;

/// Timed universes per real point, after the untimed warm-up one.
const REAL_RUNS: usize = 3;

/// One wall-clock point: spin up an in-process `n`-rank mplite universe
/// and run [`REAL_ROUNDS`] collectives in it, once to warm up and then
/// [`REAL_RUNS`] times on the clock, reporting the mean per-collective
/// latency. Returns `None` when a rank fails (the sweep skips the point
/// rather than aborting the figure).
fn real_point(n: usize, op: CollOp, algorithm: Algorithm, bytes: u64) -> Option<CollPoint> {
    let elems = (bytes.max(8) / 8) as usize;
    let run = || {
        mplite::Universe::run(n, move |comm| {
            let mine: Vec<u64> = (0..elems as u64)
                .map(|i| {
                    (comm.rank() as u64)
                        .wrapping_mul(0x9e37_79b9)
                        .wrapping_add(i)
                })
                .collect();
            for _ in 0..REAL_ROUNDS {
                match op {
                    CollOp::Barrier => comm.barrier_with(algorithm).expect("barrier"),
                    _ => {
                        let sum = comm
                            .allreduce_with(algorithm, &mine, mplite::ReduceOp::Sum)
                            .expect("allreduce");
                        assert_eq!(sum.len(), elems);
                    }
                }
            }
        })
    };
    if run().is_err() {
        return None;
    }
    let started = Instant::now();
    for _ in 0..REAL_RUNS {
        run().expect("warmed-up universe");
    }
    let elapsed_ns = started.elapsed().as_nanos() as f64;
    Some(CollPoint {
        ranks: n,
        bytes,
        latency_us: ns_to_us(elapsed_ns / (REAL_RUNS * REAL_ROUNDS) as f64),
        events: REAL_RUNS as u64,
    })
}

/// Real in-process mplite collectives, 2 … 32 ranks: the follow-on PR 7
/// deferred. Wall-clock numbers, so no golden — the figure shows shape,
/// not a committed value.
fn real_curves() -> Vec<CollCurve> {
    let ranks = [2usize, 4, 8, 16, 24, 32];
    let sweeps = [
        (CollOp::Allreduce, Algorithm::Tree, 1024u64),
        (CollOp::Allreduce, Algorithm::RecursiveDoubling, 1024),
        (CollOp::Barrier, Algorithm::Dissemination, 0),
    ];
    sweeps
        .into_iter()
        .map(|(op, algorithm, bytes)| CollCurve {
            label: format!("real {}/{}", op.name(), algorithm.name()),
            points: ranks
                .iter()
                .filter_map(|&n| real_point(n, op, algorithm, bytes))
                .collect(),
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => {
            let out = args.get(1).expect("--smoke needs an output path");
            fs::write(out, clusterlab::smoke_csv())
                .unwrap_or_else(|e| panic!("writing {out}: {e}"));
            println!("wrote {out}");
        }
        Some("--chaos") => {
            let spec = args.get(1).expect("--chaos needs a fault plan");
            let plan = FaultPlan::parse(spec).expect("valid fault plan");
            let c = CollConfig {
                spec: pcs_ga620(),
                profile: mpich(MpichConfig::tuned()).profile,
                op: CollOp::Barrier,
                algorithm: Algorithm::Dissemination,
                bytes: 0,
            };
            print!("{}", chaos_collective(&plan, &c, 64));
        }
        Some("--recovery") => {
            let out = args.get(1).expect("--recovery needs an output path");
            fs::write(out, recovery_smoke()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
            println!("wrote {out}");
        }
        Some("--real") => {
            write_collective_pair(
                &results_dir(),
                "collective_real",
                "Real in-process mplite collectives (wall clock, this machine)",
                "ranks (log)",
                &real_curves(),
            );
        }
        Some(other) => panic!(
            "unknown mode {other}; use --smoke OUT, --chaos PLAN, --recovery OUT, --real, or no args"
        ),
        None => bench::write_collective_figures(&results_dir()),
    }
}
