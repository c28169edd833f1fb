//! Collective-scaling sweeps: latency of schedule-driven collectives
//! versus rank count and message size, per algorithm × library profile.
//!
//! The paper measures point-to-point curves; applications pay for
//! *collectives*, whose cost scales with the job size. This module
//! sweeps the `collectives` schedules over the simulated N-rank fabric
//! ([`collectives::run_sim`]) and renders the results next to the
//! ping-pong figures: latency vs ranks at a fixed payload, and latency
//! vs payload at a fixed rank count, one curve per algorithm. A seeded
//! chaos variant injects a dead or degraded rank and reports the
//! (annotated, partial) outcome instead of hanging — the same
//! graceful-degradation contract the ping-pong chaos sweeps enforce.

use std::fmt::Write as _;

use collectives::{
    build, run_sim, time_sim, Algorithm, CollOp, Dtype, ExecCtx, RankFault, RecoveryPolicy,
    ReduceOp, Reduction, Schedule, SimOptions,
};
use faultlab::FaultPlan;
use hwmodel::ClusterSpec;
use mpsim::LibProfile;
use simcore::{units, SimRng};

/// One collective measurement configuration.
#[derive(Clone)]
pub struct CollConfig {
    /// Per-node hardware description.
    pub spec: ClusterSpec,
    /// Library per-message cost profile.
    pub profile: LibProfile,
    /// The collective to measure.
    pub op: CollOp,
    /// The algorithm family to plan with.
    pub algorithm: Algorithm,
    /// Per-rank payload bytes (rounded up to whole u64 elements for
    /// reducing ops; ignored by barrier).
    pub bytes: u64,
}

/// One measured point of a collective-scaling curve.
#[derive(Debug, Clone)]
pub struct CollPoint {
    /// Rank count.
    pub ranks: usize,
    /// Per-rank payload bytes.
    pub bytes: u64,
    /// Completion latency (last rank finished), microseconds.
    pub latency_us: f64,
    /// Logical simulation events executed (work proxy); a symmetric run
    /// counts every rank's.
    pub events: u64,
}

/// A labeled curve of collective measurements.
#[derive(Debug, Clone)]
pub struct CollCurve {
    /// Legend label, e.g. `"allreduce/ring"`.
    pub label: String,
    /// Measured points in sweep order.
    pub points: Vec<CollPoint>,
}

/// Length of rank `rank`'s contribution to `op`: `bytes` rounded up to
/// whole u64 elements, or none for a barrier and a bcast's non-roots.
fn contribution_len(op: CollOp, rank: usize, bytes: u64) -> u64 {
    match op {
        CollOp::Barrier => 0,
        CollOp::Bcast if rank != 0 => 0,
        _ => bytes.max(8).div_ceil(8) * 8,
    }
}

/// Deterministic `len`-byte contribution of rank `rank`, each u64
/// element a rank-and-index mix, so reductions have non-trivial,
/// reproducible inputs.
fn contribution(rank: usize, len: u64) -> Vec<u8> {
    let elems = len / 8;
    let mut out = Vec::with_capacity((elems * 8) as usize);
    for i in 0..elems {
        let v = (rank as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn reduction_for(op: CollOp) -> Option<Reduction> {
    match op {
        CollOp::Reduce | CollOp::Allreduce => Some(Reduction {
            dtype: Dtype::U64,
            op: ReduceOp::Sum,
        }),
        CollOp::Barrier | CollOp::Bcast | CollOp::Allgather => None,
    }
}

fn contributions_for(op: CollOp, n: usize, bytes: u64) -> Vec<Vec<u8>> {
    (0..n)
        .map(|r| contribution(r, contribution_len(op, r, bytes)))
        .collect()
}

fn plan(cfg: &CollConfig, n: usize) -> Option<Schedule> {
    build(cfg.op, cfg.algorithm, n).ok()
}

/// Measure one (config, rank-count) point; `None` when the algorithm
/// does not support the combination (e.g. recursive-doubling allgather
/// at a non-power-of-two size). Only the timing half runs, over the
/// contributions' lengths: no bytes are built.
pub fn measure(cfg: &CollConfig, n: usize) -> Option<CollPoint> {
    let schedule = plan(cfg, n)?;
    let lengths: Vec<u64> = (0..n)
        .map(|r| contribution_len(cfg.op, r, cfg.bytes))
        .collect();
    let timing = time_sim(
        &cfg.spec,
        &cfg.profile,
        &schedule,
        0,
        &lengths,
        &SimOptions::default(),
    );
    assert!(
        timing.all_completed(),
        "fault-free collective must complete on every rank"
    );
    Some(CollPoint {
        ranks: n,
        bytes: cfg.bytes,
        latency_us: units::secs_to_us(timing.seconds),
        events: timing.events,
    })
}

/// Latency vs rank count at the config's fixed payload.
pub fn scale_ranks(cfg: &CollConfig, rank_counts: &[usize]) -> CollCurve {
    CollCurve {
        label: format!("{}/{}", cfg.op.name(), cfg.algorithm.name()),
        points: rank_counts
            .iter()
            .filter_map(|&n| measure(cfg, n))
            .collect(),
    }
}

/// Latency vs per-rank payload at a fixed rank count.
pub fn scale_sizes(cfg: &CollConfig, ranks: usize, sizes: &[u64]) -> CollCurve {
    CollCurve {
        label: format!("{}/{}", cfg.op.name(), cfg.algorithm.name()),
        points: sizes
            .iter()
            .filter_map(|&bytes| {
                let cfg = CollConfig {
                    bytes,
                    ..cfg.clone()
                };
                measure(&cfg, ranks)
            })
            .collect(),
    }
}

/// Render curves as CSV: `label,ranks,bytes,latency_us,events`.
pub fn to_csv(curves: &[CollCurve]) -> String {
    let mut out = String::from("label,ranks,bytes,latency_us,events\n");
    for c in curves {
        for p in &c.points {
            let _ = writeln!(
                out,
                "{},{},{},{:.3},{}",
                c.label, p.ranks, p.bytes, p.latency_us, p.events
            );
        }
    }
    out
}

/// Render curves as an SVG figure: log-x (ranks or bytes, whichever the
/// sweep varied), log-y latency in microseconds, one polyline per
/// curve — the companion shape to the ping-pong throughput figures.
pub fn svg_figure(
    title: &str,
    x_label: &str,
    curves: &[CollCurve],
    width: u32,
    height: u32,
) -> String {
    const COLORS: [&str; 10] = [
        "#000000", "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2",
        "#7f7f7f", "#17becf",
    ];
    let xv = |p: &CollPoint| -> f64 {
        if x_label.contains("byte") {
            p.bytes.max(1) as f64
        } else {
            p.ranks.max(1) as f64
        }
    };
    let (ml, mr, mt, mb) = (70.0, 16.0, 34.0, 46.0);
    let pw = f64::from(width) - ml - mr;
    let ph = f64::from(height) - mt - mb;
    let all: Vec<(f64, f64)> = curves
        .iter()
        .flat_map(|c| c.points.iter().map(|p| (xv(p), p.latency_us.max(1e-3))))
        .collect();
    let mut lx0 = f64::MAX;
    let mut lx1 = f64::MIN;
    let mut ly0 = f64::MAX;
    let mut ly1 = f64::MIN;
    for &(x, y) in &all {
        lx0 = lx0.min(x.ln());
        lx1 = lx1.max(x.ln());
        ly0 = ly0.min(y.ln());
        ly1 = ly1.max(y.ln());
    }
    if all.is_empty() {
        lx0 = 0.0;
        lx1 = 1.0;
        ly0 = 0.0;
        ly1 = 1.0;
    }
    let x = |v: f64| ml + (v.ln() - lx0) / (lx1 - lx0).max(1e-9) * pw;
    let y = |v: f64| mt + (1.0 - (v.max(1e-3).ln() - ly0) / (ly1 - ly0).max(1e-9)) * ph;

    let mut out = String::new();
    let _ = write!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" font-family="sans-serif" font-size="11">"#
    );
    let _ = write!(
        out,
        r#"<rect width="{width}" height="{height}" fill="white"/><text x="{}" y="18" text-anchor="middle" font-size="13">{title}</text>"#,
        f64::from(width) / 2.0
    );
    // Log-decade gridlines on y.
    let mut decade = 10f64.powf(ly0.exp().log10().floor());
    while decade.ln() <= ly1 + 1e-9 {
        if decade.ln() >= ly0 - 1e-9 {
            let gy = y(decade);
            let _ = write!(
                out,
                r##"<line x1="{ml}" y1="{gy:.1}" x2="{:.1}" y2="{gy:.1}" stroke="#ddd"/><text x="{:.1}" y="{:.1}" text-anchor="end">{decade}</text>"##,
                ml + pw,
                ml - 4.0,
                gy + 4.0
            );
        }
        decade *= 10.0;
    }
    // X ticks at each measured value (sweeps are short).
    let mut xs: Vec<f64> = all.iter().map(|&(x, _)| x).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    xs.dedup();
    for v in xs {
        let gx = x(v);
        let label = if v >= 1_048_576.0 {
            format!("{}M", v / 1_048_576.0)
        } else if v >= 1024.0 && x_label.contains("byte") {
            format!("{}k", v / 1024.0)
        } else {
            format!("{v}")
        };
        let _ = write!(
            out,
            r##"<line x1="{gx:.1}" y1="{mt}" x2="{gx:.1}" y2="{:.1}" stroke="#eee"/><text x="{gx:.1}" y="{:.1}" text-anchor="middle">{label}</text>"##,
            mt + ph,
            mt + ph + 14.0
        );
    }
    let _ = write!(
        out,
        r#"<text x="{:.1}" y="{:.1}" text-anchor="middle">{x_label}</text><text x="14" y="{:.1}" transform="rotate(-90 14 {:.1})" text-anchor="middle">latency (us, log)</text>"#,
        ml + pw / 2.0,
        mt + ph + 32.0,
        mt + ph / 2.0,
        mt + ph / 2.0
    );
    for (i, c) in curves.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let pts: Vec<String> = c
            .points
            .iter()
            .map(|p| format!("{:.1},{:.1}", x(xv(p)), y(p.latency_us.max(1e-3))))
            .collect();
        let _ = write!(
            out,
            r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="1.6"/>"#,
            pts.join(" ")
        );
        let ly = mt + 6.0 + 14.0 * i as f64;
        let _ = write!(
            out,
            r#"<line x1="{:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{color}" stroke-width="2"/><text x="{:.1}" y="{:.1}">{}</text>"#,
            ml + 8.0,
            ml + 28.0,
            ml + 32.0,
            ly + 4.0,
            c.label
        );
    }
    out.push_str("</svg>");
    out
}

/// The algorithms the barrier smoke sweep exercises, in label order.
fn smoke_algorithms() -> [Algorithm; 4] {
    [
        Algorithm::Tree,
        Algorithm::Dissemination,
        Algorithm::RecursiveDoubling,
        Algorithm::Ring,
    ]
}

/// The CI smoke sweep: a seeded 64-rank simulated barrier sweep (ranks
/// 4→64, four algorithms, MPICH-tuned profile on the GA620 cluster),
/// rendered as CSV. Fully deterministic: the committed golden copy in
/// `golden/collective_smoke.csv` must match byte-for-byte.
pub fn smoke_csv() -> String {
    let curves: Vec<CollCurve> = smoke_algorithms()
        .into_iter()
        .map(|algorithm| {
            let cfg = CollConfig {
                spec: hwmodel::presets::pcs_ga620(),
                profile: mpsim::libs::mpich(mpsim::libs::MpichConfig::tuned()).profile,
                op: CollOp::Barrier,
                algorithm,
                bytes: 0,
            };
            scale_ranks(&cfg, &[4, 8, 16, 32, 64])
        })
        .collect();
    to_csv(&curves)
}

/// Run one collective under a seeded fault plan and report the outcome.
///
/// The plan's seed picks the victim rank; a kill plan (`kill-after=...`
/// or `kill-listener`) makes the victim dead (it never enters the
/// collective), otherwise the victim is degraded by the plan's jitter
/// (default 5 ms) per send. A dead rank must yield an annotated
/// *partial* report — stalled peers and all — rather than a hang; a
/// degraded rank must finish, slower.
///
/// Kill plans run a third time with the self-healing cycle armed: the
/// dead rank must be evicted and every survivor must complete over the
/// replanned schedule.
pub fn chaos_collective(plan: &FaultPlan, cfg: &CollConfig, ranks: usize) -> String {
    let schedule = match build(cfg.op, cfg.algorithm, ranks) {
        Ok(s) => s,
        Err(e) => return format!("collective chaos: cannot plan: {e}\n"),
    };
    let mut rng = SimRng::new(plan.seed);
    let victim = rng.next_below(ranks as u64) as usize;
    let kill = plan.kill_after.is_some() || plan.kill_listener;
    let extra_us = if plan.jitter_us > 0.0 {
        plan.jitter_us
    } else {
        5_000.0
    };
    let fault = if kill {
        RankFault::Dead(victim)
    } else {
        RankFault::Degrade {
            rank: victim,
            extra_us,
        }
    };
    let run = |faults: Vec<RankFault>, recovery: Option<RecoveryPolicy>| {
        run_sim(
            &cfg.spec,
            &cfg.profile,
            &schedule,
            ExecCtx {
                root: 0,
                reduction: reduction_for(cfg.op),
            },
            &contributions_for(cfg.op, ranks, cfg.bytes),
            &SimOptions {
                trace: None,
                faults,
                plan: None,
                recovery,
            },
        )
    };
    let clean = run(Vec::new(), None);
    let faulty = run(vec![fault], None);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "collective chaos: {} {} over {ranks} ranks (seed {})",
        cfg.op.name(),
        cfg.algorithm.name(),
        plan.seed
    );
    if kill {
        let _ = writeln!(
            out,
            "fault: rank {victim} degraded to dead — never enters the collective"
        );
    } else {
        let _ = writeln!(
            out,
            "fault: rank {victim} degraded by {extra_us:.0} us of CPU per send"
        );
    }
    let _ = writeln!(
        out,
        "clean run: {:.1} us, {} events, {}/{ranks} ranks completed",
        units::secs_to_us(clean.seconds),
        clean.events,
        clean.completed
    );
    if faulty.all_completed() {
        let _ = writeln!(
            out,
            "faulty run: complete — {:.1} us ({:.2}x clean), {}/{ranks} ranks completed",
            units::secs_to_us(faulty.seconds),
            if clean.seconds > 0.0 {
                faulty.seconds / clean.seconds
            } else {
                1.0
            },
            faulty.completed
        );
    } else {
        let stalled: Vec<usize> = faulty
            .finish_secs
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_none())
            .map(|(r, _)| r)
            .collect();
        let _ = writeln!(
            out,
            "faulty run: partial report — {}/{ranks} ranks completed, event queue drained without a hang",
            faulty.completed
        );
        let _ = writeln!(out, "stalled ranks (waiting on the dead rank): {stalled:?}");
    }
    if kill {
        let healed = run(
            vec![fault],
            Some(RecoveryPolicy {
                deadline_us: 5_000.0,
                backoff_us: 1_000.0,
                max_epochs: 4,
            }),
        );
        match healed.recovery.as_ref() {
            Some(rec) if healed.all_survivors_completed() && !rec.evicted.is_empty() => {
                let _ = writeln!(
                    out,
                    "recovery run: healed — evicted {:?} in {} epoch(s), {}/{ranks} survivors completed",
                    rec.evicted,
                    rec.epochs.len(),
                    healed.completed
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "recovery run: FAILED to heal — {}/{ranks} completed, report {:?}",
                    healed.completed, healed.recovery
                );
            }
        }
    }
    out
}

/// The CI chaos-recovery smoke: a seeded 64-rank simulated allreduce
/// with two timed `kill-rank` deaths and the self-healing cycle armed.
/// Both ranks must be evicted (one membership epoch each), the 62
/// survivors must complete over the replanned schedules, and the
/// wrapped-u64 survivor sum must check out. Fully deterministic: the
/// committed golden copy in `golden/recovery_smoke.txt` must match
/// byte-for-byte.
pub fn recovery_smoke() -> String {
    let cfg = CollConfig {
        spec: hwmodel::presets::pcs_ga620(),
        profile: mpsim::libs::mpich(mpsim::libs::MpichConfig::tuned()).profile,
        op: CollOp::Allreduce,
        algorithm: Algorithm::RecursiveDoubling,
        bytes: 8,
    };
    let ranks = 64;
    let plan_text = "seed=7,kill-rank=9@50us,kill-rank=23@120us";
    let plan = FaultPlan::parse(plan_text).expect("smoke fault plan parses");
    let policy = RecoveryPolicy {
        deadline_us: 300.0,
        backoff_us: 100.0,
        max_epochs: 4,
    };
    let schedule =
        build(cfg.op, cfg.algorithm, ranks).expect("64-rank recursive-doubling allreduce plans");
    let contributions = contributions_for(cfg.op, ranks, cfg.bytes);
    let report = run_sim(
        &cfg.spec,
        &cfg.profile,
        &schedule,
        ExecCtx {
            root: 0,
            reduction: reduction_for(cfg.op),
        },
        &contributions,
        &SimOptions {
            trace: None,
            faults: Vec::new(),
            plan: Some(plan),
            recovery: Some(policy),
        },
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos-recovery smoke: {} {} over {ranks} ranks, plan `{plan_text}`",
        cfg.op.name(),
        cfg.algorithm.name(),
    );
    let Some(rec) = report.recovery.as_ref() else {
        out.push_str("recovery report missing (policy not armed?)\n");
        return out;
    };
    out.push_str(&rec.to_text());
    let _ = writeln!(
        out,
        "{}/{ranks} survivors completed in {:.1} us",
        report.completed,
        units::secs_to_us(report.seconds)
    );
    let mut expected = 0u64;
    for (r, c) in contributions.iter().enumerate() {
        if rec.evicted.contains(&r) {
            continue;
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&c[..8]);
        expected = expected.wrapping_add(u64::from_le_bytes(b));
    }
    let ok = report
        .outputs
        .iter()
        .enumerate()
        .filter(|(r, _)| !rec.evicted.contains(r))
        .all(|(_, o)| o.as_ref().is_some_and(|o| o.acc == expected.to_le_bytes()));
    if ok && report.all_survivors_completed() {
        let _ = writeln!(out, "survivor sum ok: {expected:#018x}");
    } else {
        let _ = writeln!(out, "survivor sum MISMATCH (want {expected:#018x})");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(op: CollOp, algorithm: Algorithm, bytes: u64) -> CollConfig {
        CollConfig {
            spec: hwmodel::presets::pcs_ga620(),
            profile: mpsim::libs::mpich(mpsim::libs::MpichConfig::tuned()).profile,
            op,
            algorithm,
            bytes,
        }
    }

    #[test]
    fn barrier_latency_grows_logarithmically_not_linearly() {
        let c = cfg(CollOp::Barrier, Algorithm::Dissemination, 0);
        let curve = scale_ranks(&c, &[4, 16, 64]);
        let l4 = curve.points[0].latency_us;
        let l64 = curve.points[2].latency_us;
        // 16x the ranks must cost far less than 16x the time (log rounds).
        assert!(l64 > l4, "more ranks cost more");
        assert!(
            l64 < l4 * 8.0,
            "dissemination is logarithmic: {l4} -> {l64}"
        );
    }

    #[test]
    fn allreduce_size_sweep_is_monotone_at_large_sizes() {
        let c = cfg(CollOp::Allreduce, Algorithm::Ring, 0);
        let curve = scale_sizes(&c, 8, &[1024, 65_536, 1_048_576]);
        assert_eq!(curve.points.len(), 3);
        assert!(curve.points[2].latency_us > curve.points[1].latency_us);
        assert!(curve.points[1].latency_us > curve.points[0].latency_us);
    }

    #[test]
    fn smoke_csv_matches_committed_golden() {
        let expected = include_str!("../golden/collective_smoke.csv");
        assert_eq!(
            smoke_csv(),
            expected,
            "seeded collective smoke sweep drifted from golden/collective_smoke.csv; \
             if the change is intentional, regenerate with \
             `cargo run --release -p bench --bin fig_collectives -- --smoke \
             crates/clusterlab/golden/collective_smoke.csv`"
        );
    }

    #[test]
    fn recovery_smoke_matches_committed_golden() {
        let expected = include_str!("../golden/recovery_smoke.txt");
        assert_eq!(
            recovery_smoke(),
            expected,
            "seeded chaos-recovery smoke drifted from golden/recovery_smoke.txt; \
             if the change is intentional, regenerate with \
             `cargo run --release -p bench --bin fig_collectives -- --recovery \
             crates/clusterlab/golden/recovery_smoke.txt`"
        );
    }

    #[test]
    fn chaos_kill_heals_with_recovery_armed() {
        let plan = FaultPlan::parse("seed=7,kill-after=1").expect("valid plan");
        let report = chaos_collective(
            &plan,
            &cfg(CollOp::Allreduce, Algorithm::RecursiveDoubling, 64),
            16,
        );
        assert!(report.contains("recovery run: healed"), "{report}");
    }

    #[test]
    fn chaos_kill_reports_partial_not_hang() {
        let plan = FaultPlan::parse("seed=7,kill-after=1").expect("valid plan");
        let report = chaos_collective(
            &plan,
            &cfg(CollOp::Barrier, Algorithm::Dissemination, 0),
            16,
        );
        assert!(report.contains("partial"), "{report}");
        assert!(report.contains("degraded"), "{report}");
        assert!(report.contains("stalled"), "{report}");
    }

    #[test]
    fn chaos_degrade_completes_slower() {
        let plan = FaultPlan::parse("seed=3,jitter=2000us").expect("valid plan");
        let report = chaos_collective(&plan, &cfg(CollOp::Allreduce, Algorithm::Tree, 512), 8);
        assert!(report.contains("degraded"), "{report}");
        assert!(report.contains("complete"), "{report}");
    }

    #[test]
    fn csv_round_trips_through_the_expected_header() {
        let c = cfg(CollOp::Barrier, Algorithm::Tree, 0);
        let csv = to_csv(&[scale_ranks(&c, &[4, 8])]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("label,ranks,bytes,latency_us,events"));
        assert_eq!(lines.count(), 2);
    }

    #[test]
    fn svg_contains_every_curve_label() {
        let curves = vec![
            scale_ranks(&cfg(CollOp::Barrier, Algorithm::Tree, 0), &[4, 8]),
            scale_ranks(&cfg(CollOp::Barrier, Algorithm::Ring, 0), &[4, 8]),
        ];
        let svg = svg_figure("t", "ranks", &curves, 640, 420);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert!(svg.contains("barrier/tree") && svg.contains("barrier/ring"));
    }
}
