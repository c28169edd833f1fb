//! The three simulator workloads (`figures`, `coll_scaling`,
//! `coll_sizes`): their cases, the timed op, the output checks, and the
//! replay of an op through the lower public seams for the traced run.

use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use clusterlab::collective::{measure, to_csv as coll_csv};
use clusterlab::{
    all_experiments, checks_for, compare, evaluate, CollConfig, CollCurve, CollPoint, Experiment,
    ExperimentResult,
};
use collectives::{Algorithm, CollOp, Dtype, ExecCtx, ReduceOp, Reduction, SimOptions};
use hwmodel::kernel::linux_2_4;
use hwmodel::presets::pcs_ga620;
use hwmodel::ClusterSpec;
use mpsim::libs::{mp_lite, mpich, MpichConfig};
use mpsim::{LibProfile, MpLib, MultiSession, Session};
use netpipe::{RunOptions, Signature, SimDriver};
use protosim::{Fabric, MultiNet};
use simcore::{units, SimRng};

use crate::span::{Recorder, OP};

/// A committed `results/` file, read at run time (not baked into the
/// harness), so a model change that regenerates them stays consistent.
fn committed(file: &str) -> Result<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../results")
        .join(file);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// `0..n` in an order drawn from `rng` (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut SimRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order
}

/// Boundary counts of a replayed op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Engine events executed.
    pub events: u64,
    /// NetPIPE size points (figures) or collective runs (coll_*).
    pub points: u64,
    /// Simulated payload bytes handed to the layer under the op.
    pub bytes: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.events += o.events;
        self.points += o.points;
        self.bytes += o.bytes;
    }
}

/// A simulator workload: a fixed list of cases, each run once per pass.
pub trait SimPlan {
    /// What one op returns.
    type Out;

    fn len(&self) -> usize;

    /// The timed op: case `i` through the public call users make.
    fn run_case(&self, i: usize) -> Result<Self::Out, String>;

    /// Output checks over the first and the last timed pass (indexed by
    /// case); returns what failed.
    fn check(&self, first: &[Self::Out], last: &[Self::Out]) -> Vec<String>;

    /// Engine events case `i` executed, where the op's output says.
    fn events(out: &Self::Out) -> Option<u64>;

    /// Case `i` again through the lower public seams, a span around
    /// each; `Err` when it does not reproduce `reference`.
    fn replay_case(
        &self,
        i: usize,
        rec: &mut Recorder,
        reference: &Self::Out,
    ) -> Result<Counts, String>;

    /// Attribution probes for case `i`, recorded outside its op span.
    fn probe_case(&self, _i: usize, _rec: &mut Recorder) {}
}

/// When a timed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// After `seconds` of measuring and at least `min_ops` ops.
    Time { seconds: f64, min_ops: usize },
    /// After exactly this many ops.
    Ops(usize),
}

impl Budget {
    pub fn spent(&self, elapsed_s: f64, ops: usize) -> bool {
        match *self {
            Budget::Time { seconds, min_ops } => elapsed_s >= seconds && ops >= min_ops,
            Budget::Ops(n) => ops >= n,
        }
    }
}

/// What a timed loop over whole passes measured.
pub struct SimRun<O> {
    pub samples_ns: Vec<u64>,
    pub wall_s: f64,
    pub first: Vec<O>,
    /// The last pass, when there was more than one.
    pub last: Option<Vec<O>>,
    pub errors: Vec<String>,
}

impl<O> SimRun<O> {
    pub fn last(&self) -> &[O] {
        self.last.as_deref().unwrap_or(&self.first)
    }
}

/// One pass: every case once, in an order drawn from `rng`. Outputs
/// come back indexed by case; a case that failed aborts the pass.
fn run_pass<P: SimPlan>(
    plan: &P,
    rng: &mut SimRng,
    samples_ns: &mut Vec<u64>,
) -> Result<Vec<P::Out>, String> {
    let mut outs: Vec<Option<P::Out>> = (0..plan.len()).map(|_| None).collect();
    for i in shuffled(plan.len(), rng) {
        let t0 = Instant::now();
        let out = plan.run_case(i);
        samples_ns.push(t0.elapsed().as_nanos() as u64);
        outs[i] = Some(out?);
    }
    Ok(outs.into_iter().flatten().collect())
}

/// The untimed warm-up: one full pass.
pub fn warm_up<P: SimPlan>(plan: &P, rng: &mut SimRng) -> Result<(), String> {
    run_pass(plan, rng, &mut Vec::new()).map(drop)
}

/// Closed loop, one client: whole passes until `budget` is spent.
pub fn timed_passes<P: SimPlan>(plan: &P, rng: &mut SimRng, budget: Budget) -> SimRun<P::Out> {
    let mut run = SimRun {
        samples_ns: Vec::with_capacity(1 << 16),
        wall_s: 0.0,
        first: Vec::new(),
        last: None,
        errors: Vec::new(),
    };
    let t0 = Instant::now();
    let mut passes = 0;
    loop {
        match run_pass(plan, rng, &mut run.samples_ns) {
            Ok(outs) if passes == 0 => run.first = outs,
            Ok(outs) => run.last = Some(outs),
            Err(e) => {
                run.errors.push(e);
                break;
            }
        }
        passes += 1;
        run.wall_s = t0.elapsed().as_secs_f64();
        if budget.spent(run.wall_s, run.samples_ns.len()) {
            break;
        }
    }
    run.wall_s = t0.elapsed().as_secs_f64();
    run
}

/// What a traced replay measured.
#[derive(Default)]
pub struct Replay {
    pub ops: u64,
    pub wall_s: f64,
    pub counts: Counts,
    pub errors: Vec<String>,
}

/// Replay `passes` passes under `rec`, one [`OP`] span per case, each
/// checked against `reference` (case-indexed outputs of the timed op).
pub fn replay_passes<P: SimPlan>(
    plan: &P,
    rng: &mut SimRng,
    passes: usize,
    reference: &[P::Out],
    rec: &mut Recorder,
) -> Replay {
    let mut replay = Replay::default();
    for _ in 0..passes {
        for i in shuffled(plan.len(), rng) {
            rec.set_op(replay.ops as u32);
            let t0 = Instant::now();
            let op = rec.enter(OP);
            let result = plan.replay_case(i, rec, &reference[i]);
            rec.exit(op);
            replay.wall_s += t0.elapsed().as_secs_f64();
            plan.probe_case(i, rec);
            replay.ops += 1;
            match result {
                Ok(c) => replay.counts += c,
                Err(e) => replay.errors.push(e),
            }
        }
    }
    replay
}

// ------------------------------------------------------------- figures

/// Every curve of every figure and table of the paper: the 61 entries
/// of `clusterlab::all_experiments()`, in paper order.
pub struct FigPlan {
    exps: Vec<Experiment>,
    /// (experiment, entry) per case.
    cases: Vec<(usize, usize)>,
    opts: RunOptions,
}

/// What one pass of signatures says about the reproduction.
pub struct FigVerdict {
    pub failures: Vec<String>,
    /// Calibration checks that did not pass.
    pub checks_failed: u64,
    /// max |measured / paper - 1| over rows the paper gives a value for.
    pub paper_err_max_pct: f64,
}

impl FigPlan {
    pub fn new() -> FigPlan {
        let exps = all_experiments();
        let cases = exps
            .iter()
            .enumerate()
            .flat_map(|(e, exp)| (0..exp.entries.len()).map(move |n| (e, n)))
            .collect();
        FigPlan {
            exps,
            cases,
            opts: RunOptions::default(),
        }
    }

    pub fn experiments(&self) -> &[Experiment] {
        &self.exps
    }

    pub fn options(&self) -> &RunOptions {
        &self.opts
    }

    /// Cluster and library of case `i`.
    pub fn case(&self, i: usize) -> (&ClusterSpec, &MpLib) {
        let (e, n) = self.cases[i];
        let entry = &self.exps[e].entries[n];
        (
            entry.spec_override.as_ref().unwrap_or(&self.exps[e].spec),
            &entry.lib,
        )
    }

    /// The op, with a hook to configure the driver before the sweep
    /// (trace sink, fault plan).
    pub fn run_case_with(
        &self,
        i: usize,
        prepare: impl FnOnce(&mut SimDriver),
    ) -> Result<Signature, String> {
        let (spec, lib) = self.case(i);
        let mut driver = SimDriver::new(spec.clone(), lib.clone());
        prepare(&mut driver);
        netpipe::run(&mut driver, &self.opts).map_err(|e| {
            let (e_idx, _) = self.cases[i];
            format!("{}/{}: {e}", self.exps[e_idx].id, lib.name())
        })
    }

    /// A pass's signatures regrouped per experiment, in entry order.
    fn results(&self, pass: &[Signature]) -> Vec<ExperimentResult> {
        self.exps
            .iter()
            .enumerate()
            .map(|(e, exp)| ExperimentResult {
                id: exp.id,
                title: exp.title,
                signatures: self
                    .cases
                    .iter()
                    .zip(pass)
                    .filter(|((ce, _), _)| *ce == e)
                    .map(|(_, sig)| sig.clone())
                    .collect(),
            })
            .collect()
    }

    /// Calibration checks, committed-CSV equality and paper error of
    /// one pass.
    pub fn assess(&self, pass: &[Signature]) -> FigVerdict {
        let mut v = FigVerdict {
            failures: Vec::new(),
            checks_failed: 0,
            paper_err_max_pct: 0.0,
        };
        for (exp, res) in self.exps.iter().zip(self.results(pass)) {
            for c in evaluate(&res, &checks_for(exp.id)) {
                if !c.pass {
                    v.checks_failed += 1;
                    v.failures.push(format!(
                        "{}: check failed: {} (measured {:.3})",
                        exp.id, c.desc, c.measured
                    ));
                }
            }
            let file = format!("{}.csv", exp.id);
            match committed(&file) {
                Ok(want) if want == netpipe::to_csv(&res.signatures) => {}
                Ok(_) => v.failures.push(format!(
                    "{file}: regenerated CSV differs from results/{file}"
                )),
                Err(e) => v.failures.push(e),
            }
            for row in compare(exp, &res) {
                let pairs = [
                    (row.paper_mbps, row.measured_mbps),
                    (row.paper_lat_us, row.measured_lat_us),
                ];
                for (paper, measured) in pairs {
                    if let Some(p) = paper.filter(|p| *p > 0.0) {
                        v.paper_err_max_pct =
                            v.paper_err_max_pct.max(100.0 * (measured / p - 1.0).abs());
                    }
                }
            }
        }
        v
    }

    fn csvs(&self, pass: &[Signature]) -> Vec<String> {
        self.results(pass)
            .iter()
            .map(|r| netpipe::to_csv(&r.signatures))
            .collect()
    }
}

/// One simulated round trip through the steps `SimDriver::roundtrip`
/// performs, a span around each. Returns the simulated round-trip
/// seconds (`None` if the transfer stalled) and the events executed.
pub fn replay_point(
    rec: &mut Recorder,
    spec: &ClusterSpec,
    lib: &MpLib,
    bytes: u64,
) -> (Option<f64>, u64) {
    let s = rec.enter("hwmodel:ClusterSpec::clone");
    let spec = spec.clone();
    rec.exit(s);
    let s = rec.enter("protosim:Fabric::engine");
    let mut eng = Fabric::engine(spec);
    rec.exit(s);
    let s = rec.enter("mpsim:Session::establish");
    let session = Session::establish(&mut eng.world, lib);
    rec.exit(s);
    let out = Rc::new(Cell::new(None));
    let s = rec.enter("mpsim:pingpong");
    let out2 = Rc::clone(&out);
    mpsim::pingpong(
        &session,
        &mut eng,
        bytes,
        1,
        Box::new(move |_, t| out2.set(Some(t))),
    );
    rec.exit(s);
    // From outside, dispatch and the protosim/mpsim event bodies the
    // engine calls cannot be told apart: this span holds both.
    let s = rec.enter("simcore:Engine::run");
    eng.run();
    rec.exit(s);
    let events = eng.events_executed();
    let s = rec.enter("protosim:Fabric::drop");
    drop(session);
    drop(eng);
    rec.exit(s);
    (out.get(), events)
}

impl SimPlan for FigPlan {
    type Out = Signature;

    fn len(&self) -> usize {
        self.cases.len()
    }

    fn run_case(&self, i: usize) -> Result<Signature, String> {
        self.run_case_with(i, |_| {})
    }

    fn check(&self, first: &[Signature], last: &[Signature]) -> Vec<String> {
        let mut failures = self.assess(last).failures;
        for ((exp, a), b) in self.exps.iter().zip(self.csvs(first)).zip(self.csvs(last)) {
            if a != b {
                failures.push(format!("{}: first-pass and last-pass CSVs differ", exp.id));
            }
        }
        failures
    }

    fn events(_: &Signature) -> Option<u64> {
        None
    }

    fn replay_case(
        &self,
        i: usize,
        rec: &mut Recorder,
        reference: &Signature,
    ) -> Result<Counts, String> {
        let (spec, lib) = self.case(i);
        let mut counts = Counts::default();
        let mut unfaithful = 0usize;
        let s = rec.enter("netpipe:sizes");
        let sizes = netpipe::sizes(&self.opts.schedule);
        rec.exit(s);
        for (k, &bytes) in sizes.iter().enumerate() {
            let (rt, events) = replay_point(rec, spec, lib, bytes);
            counts += Counts {
                events,
                points: 1,
                bytes: 2 * bytes,
            };
            // The runner reports half the round trip of one trial.
            let want = reference.points.get(k).map(|p| (p.bytes, p.seconds));
            if rt.map(|t| (bytes, t / 2.0)) != want {
                unfaithful += 1;
            }
        }
        if unfaithful > 0 || sizes.len() != reference.points.len() {
            return Err(format!(
                "{}: replay differs from SimDriver::roundtrip on {unfaithful} of {} points",
                lib.name(),
                sizes.len()
            ));
        }
        Ok(counts)
    }
}

// --------------------------------------------------------- collectives

struct CollCase {
    curve: usize,
    cfg: CollConfig,
    ranks: usize,
}

/// A grid of `clusterlab::collective::measure` calls whose CSV is
/// committed under `results/`: exactly `fig_collectives`' sweeps.
pub struct CollPlan {
    golden: &'static str,
    labels: Vec<String>,
    cases: Vec<CollCase>,
}

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Tree,
    Algorithm::RecursiveDoubling,
    Algorithm::Ring,
];

/// The two library profiles `fig_collectives` compares.
fn profiles() -> [(&'static str, LibProfile); 2] {
    [
        ("mpich-tuned", mpich(MpichConfig::tuned()).profile),
        (
            "mp-lite",
            mp_lite(&linux_2_4().with_raised_sockbuf_max()).profile,
        ),
    ]
}

impl CollPlan {
    /// One curve per profile × algorithm, one case per `(ranks, bytes)`.
    fn grid(golden: &'static str, points: &[(usize, u64)]) -> CollPlan {
        let mut plan = CollPlan {
            golden,
            labels: Vec::new(),
            cases: Vec::new(),
        };
        for (pname, profile) in profiles() {
            for algorithm in ALGORITHMS {
                let curve = plan.labels.len();
                plan.labels.push(format!(
                    "{pname} {}/{}",
                    CollOp::Allreduce.name(),
                    algorithm.name()
                ));
                for &(ranks, bytes) in points {
                    plan.cases.push(CollCase {
                        curve,
                        ranks,
                        cfg: CollConfig {
                            spec: pcs_ga620(),
                            profile: profile.clone(),
                            op: CollOp::Allreduce,
                            algorithm,
                            bytes,
                        },
                    });
                }
            }
        }
        plan
    }

    /// Allreduce, 1 KiB per rank, 4 … 1024 ranks.
    pub fn scaling() -> CollPlan {
        let points: Vec<(usize, u64)> = (2..=10).map(|p| (1usize << p, 1024)).collect();
        CollPlan::grid("collective_scaling.csv", &points)
    }

    /// 16-rank allreduce, 64 B … 1 MiB per rank in powers of four.
    pub fn sizes() -> CollPlan {
        let points: Vec<(usize, u64)> = (6..=20).step_by(2).map(|p| (16, 1u64 << p)).collect();
        CollPlan::grid("collective_sizes.csv", &points)
    }

    fn csv(&self, pass: &[CollPoint]) -> String {
        let curves: Vec<CollCurve> = self
            .labels
            .iter()
            .enumerate()
            .map(|(curve, label)| CollCurve {
                label: label.clone(),
                points: self
                    .cases
                    .iter()
                    .zip(pass)
                    .filter(|(c, _)| c.curve == curve)
                    .map(|(_, p)| p.clone())
                    .collect(),
            })
            .collect();
        coll_csv(&curves)
    }
}

/// Allreduce as every grid point runs it: wrapping `u64` sum, root 0.
pub const SUM_U64: ExecCtx = ExecCtx {
    root: 0,
    reduction: Some(Reduction {
        dtype: Dtype::U64,
        op: ReduceOp::Sum,
    }),
};

/// Rank `rank`'s allreduce input, as `clusterlab::collective` builds it
/// (that function is private; the replay has to supply the same bytes).
pub fn contribution(rank: usize, bytes: u64) -> Vec<u8> {
    let elems = bytes.max(8).div_ceil(8);
    (0..elems)
        .flat_map(|i| {
            (rank as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i)
                .to_le_bytes()
        })
        .collect()
}

impl SimPlan for CollPlan {
    type Out = CollPoint;

    fn len(&self) -> usize {
        self.cases.len()
    }

    fn run_case(&self, i: usize) -> Result<CollPoint, String> {
        let c = &self.cases[i];
        measure(&c.cfg, c.ranks)
            .ok_or_else(|| format!("{}: no plan for {} ranks", self.labels[c.curve], c.ranks))
    }

    fn check(&self, first: &[CollPoint], last: &[CollPoint]) -> Vec<String> {
        let mut failures = Vec::new();
        let csv = self.csv(last);
        match committed(self.golden) {
            Ok(want) if want == csv => {}
            Ok(_) => failures.push(format!(
                "{0}: regenerated CSV differs from results/{0}",
                self.golden
            )),
            Err(e) => failures.push(e),
        }
        if self.csv(first) != csv {
            failures.push(format!(
                "{}: first-pass and last-pass CSVs differ",
                self.golden
            ));
        }
        failures
    }

    fn events(out: &CollPoint) -> Option<u64> {
        Some(out.events)
    }

    fn replay_case(
        &self,
        i: usize,
        rec: &mut Recorder,
        reference: &CollPoint,
    ) -> Result<Counts, String> {
        let CollCase { cfg, ranks, curve } = &self.cases[i];
        let s = rec.enter("collectives:build");
        let schedule = collectives::build(cfg.op, cfg.algorithm, *ranks);
        rec.exit(s);
        let schedule = schedule.map_err(|e| format!("{}: {e}", self.labels[*curve]))?;
        let s = rec.enter("clusterlab:contributions");
        let contributions: Vec<Vec<u8>> = (0..*ranks).map(|r| contribution(r, cfg.bytes)).collect();
        rec.exit(s);
        // As in the figures replay, the engine's dispatch and the
        // mpsim/protosim event bodies run inside this one call.
        let s = rec.enter("collectives:run_sim");
        let report = collectives::run_sim(
            &cfg.spec,
            &cfg.profile,
            &schedule,
            SUM_U64,
            &contributions,
            &SimOptions::default(),
        );
        rec.exit(s);
        let s = rec.enter("collectives:SimReport::drop");
        let got = (
            report.all_completed(),
            units::secs_to_us(report.seconds),
            report.events,
        );
        drop(report);
        drop(contributions);
        drop(schedule);
        rec.exit(s);
        if got != (true, reference.latency_us, reference.events) {
            return Err(format!(
                "{} at {} ranks x {} B: replay gave {:?}, measure() gave ({}, {})",
                self.labels[*curve], ranks, cfg.bytes, got, reference.latency_us, reference.events
            ));
        }
        Ok(Counts {
            events: got.2,
            points: 1,
            bytes: *ranks as u64 * cfg.bytes,
        })
    }

    /// What the per-rank set-up of this case's size costs on its own.
    fn probe_case(&self, i: usize, rec: &mut Recorder) {
        let CollCase { cfg, ranks, .. } = &self.cases[i];
        let s = rec.enter("probe:protosim:MultiNet::engine");
        let eng = MultiNet::engine(cfg.spec.clone(), *ranks);
        rec.exit(s);
        let s = rec.enter("probe:mpsim:MultiSession::new");
        let session = MultiSession::new(cfg.profile.clone(), *ranks);
        rec.exit(s);
        drop((eng, session));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_case_order() {
        let order = |seed| {
            let mut rng = SimRng::new(seed);
            (shuffled(61, &mut rng), shuffled(61, &mut rng))
        };
        let (a1, a2) = order(42);
        assert_eq!((a1.clone(), a2.clone()), order(42));
        assert_ne!(a1, a2, "each pass draws a fresh order");
        assert_ne!(a1, order(43).0);
        let mut sorted = a1;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..61).collect::<Vec<_>>());
    }

    #[test]
    fn grids_are_the_committed_figures() {
        assert_eq!(FigPlan::new().len(), 61);
        let scaling = CollPlan::scaling();
        assert_eq!((scaling.len(), scaling.labels.len()), (54, 6));
        let sizes = CollPlan::sizes();
        assert_eq!(sizes.len(), 48);
        assert_eq!(sizes.cases[7].cfg.bytes, 1 << 20);
        assert_eq!(
            scaling.labels[1],
            "mpich-tuned allreduce/recursive-doubling"
        );
    }

    #[test]
    fn budget_needs_both_time_and_ops() {
        let b = Budget::Time {
            seconds: 2.0,
            min_ops: 10,
        };
        assert!(!b.spent(1.9, 100) && !b.spent(2.1, 9) && b.spent(2.0, 10));
        assert!(Budget::Ops(3).spent(0.0, 3) && !Budget::Ops(3).spent(9.0, 2));
    }
}
