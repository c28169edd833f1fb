//! The whole N-rank timeline, pinned.
//!
//! The collective goldens (`results/collective_*.csv`) keep only the
//! slowest rank's latency and the event count of each run, so a change
//! could move one rank's finish time, an output byte or a recovery
//! verdict without anything noticing. This test records, per run:
//!
//! * every rank's finish time in integer nanoseconds;
//! * `events` and `completed`;
//! * a digest of every rank's output;
//! * the `RecoveryReport`, when a policy is armed;
//! * a digest of what the `SimOptions::trace` sink saw: every span and
//!   instant, and the instant of every dispatched event.
//!
//! The runs cover every op × planner algorithm × {2, 3, 5, 16, 64}
//! ranks × {mpich-tuned, mp-lite}, at 8 B and 1 KiB (and 256 KiB at
//! small rank counts, past MPICH's rendezvous threshold), plus dead,
//! degraded, timed-kill, degrade-window and two-kill recovery runs. The
//! text is compared with `tests/golden/coll_timeline.txt`; on a
//! mismatch the fresh text is written beside the test binary's scratch
//! directory and the first differing line is reported.

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;

use collectives::{
    algorithms_for, build, run_sim, CollOp, Dtype, ExecCtx, RankFault, RecoveryPolicy, ReduceOp,
    Reduction, SimOptions, SimReport,
};
use faultlab::FaultPlan;
use hwmodel::kernel::linux_2_4;
use hwmodel::presets::pcs_ga620;
use mpsim::libs::{mp_lite, mpich, MpichConfig};
use mpsim::LibProfile;
use simcore::trace::{SpanRec, TraceSink};
use simcore::SimTime;

const GOLDEN: &str = include_str!("golden/coll_timeline.txt");

/// FNV-1a, 64 bit: a digest that is the same on every platform.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(self, v: u64) -> Fnv {
        self.bytes(&v.to_le_bytes())
    }
}

/// A trace sink that folds everything it sees into digests.
struct Digest {
    records: Cell<Fnv>,
    spans: Cell<u64>,
    instants: Cell<u64>,
    dispatched: Cell<Fnv>,
    events: Cell<u64>,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            records: Cell::new(Fnv::new()),
            spans: Cell::new(0),
            instants: Cell::new(0),
            dispatched: Cell::new(Fnv::new()),
            events: Cell::new(0),
        }
    }
}

impl TraceSink for Digest {
    fn span(&self, rec: SpanRec) {
        let h = self
            .records
            .get()
            .bytes(rec.stage.as_bytes())
            .u64(rec.track.into())
            .u64(rec.start.as_nanos())
            .u64(rec.end.as_nanos())
            .u64(rec.bytes)
            .u64(rec.msg);
        self.records.set(h);
        self.spans.set(self.spans.get() + 1);
    }

    fn instant(&self, name: &'static str, track: u32, at: SimTime, bytes: u64, msg: u64) {
        let h = self
            .records
            .get()
            .bytes(name.as_bytes())
            .u64(track.into())
            .u64(at.as_nanos())
            .u64(bytes)
            .u64(msg);
        self.records.set(h);
        self.instants.set(self.instants.get() + 1);
    }

    fn event_dispatched(&self, at: SimTime) {
        self.dispatched
            .set(self.dispatched.get().u64(at.as_nanos()));
        self.events.set(self.events.get() + 1);
    }
}

/// Every (dtype, op) pair, so the digests pin each reduction loop.
fn reductions() -> Vec<Reduction> {
    let mut out = Vec::new();
    for dtype in [Dtype::U64, Dtype::F64, Dtype::I64, Dtype::F32, Dtype::I32] {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
            out.push(Reduction { dtype, op });
        }
    }
    out
}

/// Deterministic per-rank bytes: small element values for floats, so
/// products stay finite over a few dozen ranks, and wide ones for the
/// integer types, so wrapping shows.
fn contributions(n: usize, bytes: usize, dtype: Dtype) -> Vec<Vec<u8>> {
    (0..n)
        .map(|r| {
            let mut out = Vec::with_capacity(bytes);
            let mut i = 0u64;
            while out.len() < bytes {
                let x = (r as u64 + 1)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
                match dtype {
                    Dtype::F64 => out.extend((1.0 + (x >> 60) as f64 / 16.0).to_le_bytes()),
                    Dtype::F32 => out.extend((1.0 + (x >> 60) as f32 / 16.0).to_le_bytes()),
                    Dtype::I32 => out.extend(((x >> 32) as i32).to_le_bytes()),
                    Dtype::I64 | Dtype::U64 => out.extend(x.to_le_bytes()),
                }
                i += 1;
            }
            out.truncate(bytes);
            out
        })
        .collect()
}

fn profiles() -> [(&'static str, LibProfile); 2] {
    [
        ("mpich-tuned", mpich(MpichConfig::tuned()).profile),
        (
            "mp-lite",
            mp_lite(&linux_2_4().with_raised_sockbuf_max()).profile,
        ),
    ]
}

fn ns(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

/// One run as one line of the golden.
fn record(out: &mut String, label: &str, report: &SimReport, digest: &Digest) {
    let mut outputs = Fnv::new();
    for o in &report.outputs {
        match o {
            None => outputs = outputs.u64(u64::MAX),
            Some(o) => {
                outputs = outputs.u64(o.acc.len() as u64).bytes(&o.acc);
                outputs = outputs.u64(o.blocks.len() as u64);
                for b in &o.blocks {
                    outputs = outputs.u64(b.len() as u64).bytes(b);
                }
            }
        }
    }
    let finish: Vec<String> = report
        .finish_secs
        .iter()
        .map(|f| f.map_or_else(|| "-".to_string(), |s| ns(s).to_string()))
        .collect();
    let _ = write!(
        out,
        "{label}: events={} completed={} out={:016x} trace={:016x}/{}s/{}i dispatched={:016x}/{} finish_ns=[{}]",
        report.events,
        report.completed,
        outputs.0,
        digest.records.get().0,
        digest.spans.get(),
        digest.instants.get(),
        digest.dispatched.get().0,
        digest.events.get(),
        finish.join(","),
    );
    if let Some(rec) = &report.recovery {
        let _ = write!(out, " | {}", rec.to_text().trim_end().replace('\n', " | "));
    }
    out.push('\n');
}

struct Case<'a> {
    label: String,
    profile: &'a LibProfile,
    op: CollOp,
    algorithm: collectives::Algorithm,
    n: usize,
    bytes: usize,
    root: usize,
    reduction: Reduction,
    opts: SimOptions,
}

fn run(out: &mut String, case: Case<'_>) {
    let schedule = build(case.op, case.algorithm, case.n).expect("the planner covers this shape");
    let ctx = ExecCtx {
        root: case.root,
        reduction: matches!(case.op, CollOp::Reduce | CollOp::Allreduce).then_some(case.reduction),
    };
    let inputs = contributions(case.n, case.bytes, case.reduction.dtype);
    let digest = Rc::new(Digest::new());
    let opts = SimOptions {
        trace: Some(digest.clone()),
        ..case.opts
    };
    let report = run_sim(&pcs_ga620(), case.profile, &schedule, ctx, &inputs, &opts);
    assert_eq!(report.events, digest.events.get(), "{}", case.label);
    record(out, &case.label, &report, &digest);
}

fn timeline() -> String {
    let reds = reductions();
    let mut next_red = 0usize;
    let mut out = String::new();
    for (lib, profile) in &profiles() {
        for n in [2usize, 3, 5, 16, 64] {
            for op in CollOp::all() {
                let sizes: &[usize] = match op {
                    CollOp::Barrier => &[0],
                    _ if n <= 5 => &[8, 1024, 256 << 10],
                    _ => &[8, 1024],
                };
                for alg in algorithms_for(op, n) {
                    for &bytes in sizes {
                        let reduction = reds[next_red % reds.len()];
                        next_red += 1;
                        let root = if bytes == 1024 { n - 1 } else { 0 };
                        run(
                            &mut out,
                            Case {
                                label: format!(
                                    "{lib} {} {} n={n} {bytes}B root={root} {:?}/{:?}",
                                    op.name(),
                                    alg.name(),
                                    reduction.dtype,
                                    reduction.op
                                ),
                                profile,
                                op,
                                algorithm: alg,
                                n,
                                bytes,
                                root,
                                reduction,
                                opts: SimOptions::default(),
                            },
                        );
                    }
                }
            }
        }
    }
    faults(&mut out);
    out
}

fn faults(out: &mut String) {
    let (lib, profile) = &profiles()[0];
    let policy = RecoveryPolicy {
        deadline_us: 2_000.0,
        backoff_us: 500.0,
        max_epochs: 4,
    };
    let plan = |text: &str| FaultPlan::parse(text).expect("the plan parses");
    let sum = Reduction {
        dtype: Dtype::U64,
        op: ReduceOp::Sum,
    };
    let shapes = [
        (CollOp::Barrier, collectives::Algorithm::Dissemination, 0),
        (
            CollOp::Allreduce,
            collectives::Algorithm::RecursiveDoubling,
            1024,
        ),
        (CollOp::Allreduce, collectives::Algorithm::Tree, 64),
        (CollOp::Bcast, collectives::Algorithm::Tree, 1024),
        (CollOp::Allgather, collectives::Algorithm::Ring, 64),
        (CollOp::Reduce, collectives::Algorithm::Linear, 64),
    ];
    type Faults = (
        &'static str,
        fn() -> Vec<RankFault>,
        Option<&'static str>,
        bool,
    );
    let variants: [Faults; 8] = [
        ("dead=3", || vec![RankFault::Dead(3)], None, false),
        ("dead=3 recover", || vec![RankFault::Dead(3)], None, true),
        ("dead=0 recover", || vec![RankFault::Dead(0)], None, true),
        (
            "degrade=2+500us",
            || {
                vec![RankFault::Degrade {
                    rank: 2,
                    extra_us: 500.0,
                }]
            },
            None,
            false,
        ),
        (
            "plan",
            Vec::new,
            Some("seed=1,kill-rank=5@40us,degrade=10us..400us@0.25"),
            false,
        ),
        (
            "plan recover",
            Vec::new,
            Some("seed=1,kill-rank=5@40us,degrade=10us..400us@0.25"),
            true,
        ),
        (
            "two kills recover",
            || vec![RankFault::Dead(2)],
            Some("seed=3,kill-rank=6@300us"),
            true,
        ),
        (
            "late kills recover",
            Vec::new,
            Some("seed=4,kill-rank=0@150us,kill-rank=7@2500us,degrade=100us..3ms@0.5"),
            true,
        ),
    ];
    for (op, algorithm, bytes) in shapes {
        for (name, faults, plan_text, recover) in &variants {
            let n = 8;
            run(
                out,
                Case {
                    label: format!(
                        "{lib} {} {} n={n} {bytes}B faults: {name}",
                        op.name(),
                        algorithm.name()
                    ),
                    profile,
                    op,
                    algorithm,
                    n,
                    bytes,
                    root: 0,
                    reduction: sum,
                    opts: SimOptions {
                        faults: faults(),
                        plan: plan_text.map(plan),
                        recovery: recover.then_some(policy),
                        ..SimOptions::default()
                    },
                },
            );
        }
    }
}

#[test]
fn the_n_rank_timeline_matches_its_golden() {
    let got = timeline();
    if got != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("coll_timeline.txt");
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
            "the N-rank timeline drifted from tests/golden/coll_timeline.txt at line {}:\n  golden: {want}\n  now:    {have}\nthe whole new text is in {}",
            line + 1,
            path.display()
        );
    }
}
