//! One benchmark run: set up, measure, check the outputs, report.
//!
//! An untraced run yields the end-to-end metrics. A traced run replays
//! a tenth of that work under the span recorder, measures the per-layer
//! ladder, and yields the per-layer metrics. Both print a report for
//! people and, as the last line of standard output, one JSON object for
//! the driver.

use std::path::{Path, PathBuf};
use std::time::Instant;

use simcore::SimRng;

use crate::json::{metric, Json};
use crate::ladder;
use crate::metrics::{
    Workload, END_TO_END, OPS_PER_S, OP_P50_US, OP_P99_US, PEAK_RSS_MIB, PER_LAYER, SETUP_S,
};
use crate::sim::{
    replay_passes, timed_passes, warm_up, Budget, CollPlan, Counts, FigPlan, Replay, SimPlan,
};
use crate::span::{chrome_trace, Attribution, Recorder};
use crate::stats::{highest_supported, median, percentile, samples_beyond};
use crate::wire::{self, WirePlan};

/// Set-ups per untraced run; `setup_s` is their median, so the first
/// one — which pays the process's page faults and lazy init — does not
/// decide it.
const SETUPS: usize = 3;

/// A timed loop keeps going past its seconds until it has this many
/// ops: the whole-run p99 stored beside the gated one then has ten
/// samples beyond it.
const MIN_OPS: usize = 1000;

/// The sentinels may disagree by this much between the start and the
/// end of a run before the run is flagged noisy.
const NOISY: f64 = 0.15;

/// What to run, all from the command line and all recorded in the
/// result.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// One pass (or a handful of round trips) per workload, one set-up,
    /// no sentinels, no ladder: exercises every output check quickly.
    pub smoke: bool,
}

impl Args {
    /// The command line that asks for exactly this run.
    pub fn command_line(&self) -> Vec<String> {
        let mut cl: Vec<String> = ["run", "--workload", self.workload.name()]
            .map(String::from)
            .to_vec();
        cl.extend(["--seed".into(), self.seed.to_string()]);
        cl.extend(["--seconds".into(), self.seconds.to_string()]);
        cl.extend(["--trace".into(), u8::from(self.trace).to_string()]);
        if self.smoke {
            cl.push("--smoke".into());
        }
        cl
    }

    fn json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::U64(self.seed)),
            ("seconds", Json::U64(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("smoke", Json::Bool(self.smoke)),
        ])
    }
}

/// A metric as reported: name, value, unit.
pub type Reported = (&'static str, f64, &'static str);

/// The verdict of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Reported>,
    pub noisy: Option<bool>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Any failure marks every op of the workload failed: a pass whose
    /// CSV is wrong has no op that can be called right.
    pub fn failed(&self) -> u64 {
        if self.correct() {
            0
        } else {
            self.attempted
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted as f64
    }

    /// The line the driver reads.
    pub fn line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed())),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(n, v, u)| (n, metric(v, u)))),
            ),
        ])
    }
}

/// Where trace and result files go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(file: &str, doc: &Json) -> Result<PathBuf, String> {
    let dir = out_dir();
    let path = dir.join(file);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The value of `field` (e.g. `"VmHWM:"`) in `/proc/self/status`.
pub fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix(field))?;
    Some(value.trim().to_string())
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    proc_status("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Where the run ran: the cores it was allowed (one, when pinned) and
/// the parallelism the standard library sees.
fn host() -> Json {
    Json::obj([
        (
            "cpus_allowed_list",
            proc_status("Cpus_allowed_list:").map_or(Json::Null, Json::Str),
        ),
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or(Json::Null, |n| Json::U64(n.get() as u64)),
        ),
    ])
}

/// Two short, steady measurements taken at both ends of a run. When
/// the host changed speed in between, the run's numbers are not worth
/// arguing about.
struct Sentinel {
    rawtcp_us: f64,
    hold_ns: f64,
}

impl Sentinel {
    fn take() -> Result<Sentinel, String> {
        Ok(Sentinel {
            rawtcp_us: ladder::rawtcp_p50_us_64b()?,
            // Median of five short batches: the first one after process
            // start runs on a cold core and reads a fifth slow.
            hold_ns: median(&[(); 5].map(|()| ladder::hold_ns_per_event(1_000, 200_000))),
        })
    }

    fn disagrees(&self, later: &Sentinel) -> bool {
        let off = |a: f64, b: f64| (a / b - 1.0).abs() > NOISY;
        off(self.rawtcp_us, later.rawtcp_us) || off(self.hold_ns, later.hold_ns)
    }

    fn json(&self) -> Json {
        Json::obj([
            ("netpipe.rawtcp_p50_us_64B", Json::F64(self.rawtcp_us)),
            ("simcore.hold_ns_per_event_1e3", Json::F64(self.hold_ns)),
        ])
    }

    /// The verdict on a run's two sentinels (`None` in smoke mode,
    /// which takes none), and both for the result file.
    fn verdict(
        ends: [Option<Result<Sentinel, String>>; 2],
        failures: &mut Vec<String>,
    ) -> (Option<bool>, Json) {
        let mut taken = Vec::new();
        for (when, s) in ["start", "end"].into_iter().zip(ends) {
            match s {
                Some(Ok(s)) => taken.push((when, s)),
                Some(Err(e)) => failures.push(format!("sentinel at {when}: {e}")),
                None => {}
            }
        }
        let noisy = match &taken[..] {
            [(_, a), (_, b)] => Some(a.disagrees(b)),
            _ => None,
        };
        (
            noisy,
            Json::obj(taken.iter().map(|(when, s)| (*when, s.json()))),
        )
    }
}

/// A run of consecutive ops: one pass of a simulator workload, about a
/// second of round trips on the wire. Every timing metric of a run is
/// the median over its slices of the slice's value, so host noise that
/// hits a minority of slices does not move it.
struct Slice {
    ops: usize,
    ops_per_s: f64,
    p50_us: f64,
    /// Of a slice of fewer than 100 ops, the slowest op.
    p99_us: f64,
}

impl Slice {
    fn of(samples_ns: &[u64]) -> Slice {
        let mut sorted = samples_ns.to_vec();
        sorted.sort_unstable();
        Slice {
            ops: sorted.len(),
            ops_per_s: sorted.len() as f64 / (sorted.iter().sum::<u64>() as f64 / 1e9),
            p50_us: percentile(&sorted, 50.0) as f64 / 1e3,
            p99_us: percentile(&sorted, 99.0) as f64 / 1e3,
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("ops_per_s", Json::F64(self.ops_per_s)),
            ("p50_us", Json::F64(self.p50_us)),
            ("p99_us", Json::F64(self.p99_us)),
        ])
    }
}

/// What the timed part of an untraced run measured.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    /// Per-op latency, in the order the ops ran.
    samples_ns: Vec<u64>,
    /// Ops per slice: one pass of a simulator workload, about a second
    /// of round trips on the wire.
    slice_ops: usize,
    wall_s: f64,
    failures: Vec<String>,
}

fn measure_sim<P: SimPlan>(build: impl Fn() -> P, args: &Args) -> Measured {
    let mut rng = SimRng::new(args.seed);
    let mut m = Measured::default();
    let mut plan = None;
    for _ in 0..setups(args) {
        let t0 = Instant::now();
        let p = build();
        if !args.smoke {
            if let Err(e) = warm_up(&p, &mut rng) {
                m.failures.push(format!("warm-up: {e}"));
                return m;
            }
        }
        plan = Some(p);
        m.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let plan = plan.expect("at least one set-up");
    m.slice_ops = plan.len();
    let run = timed_passes(&plan, &mut rng, budget(args, plan.len()));
    m.failures = if run.errors.is_empty() {
        plan.check(&run.first, run.last())
    } else {
        run.errors
    };
    m.samples_ns = run.samples_ns;
    m.wall_s = run.wall_s;
    m
}

fn measure_wire(plan: WirePlan, args: &Args) -> Measured {
    let mut m = Measured {
        slice_ops: plan.slice_ops,
        ..Measured::default()
    };
    let mut driver = None;
    for _ in 0..setups(args) {
        // Tear the previous mesh down first: set-up is timed with one
        // mesh alive, as a user boots it.
        drop(driver.take());
        let t0 = Instant::now();
        match plan.boot(wire_warmup_s(plan, args)) {
            Ok((d, _)) => driver = Some(d),
            Err(e) => {
                m.failures.push(e);
                return m;
            }
        }
        m.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut driver = driver.expect("at least one set-up");
    let run = wire::timed_roundtrips(&mut driver, plan.bytes, budget(args, wire_smoke_ops(plan)));
    m.failures = run.errors;
    m.samples_ns = run.samples_ns;
    m.wall_s = run.wall_s;
    m
}

fn setups(args: &Args) -> usize {
    if args.smoke {
        1
    } else {
        SETUPS
    }
}

/// The untraced budget: the run's seconds, or `smoke_ops` in smoke mode.
fn budget(args: &Args, smoke_ops: usize) -> Budget {
    if args.smoke {
        Budget::Ops(smoke_ops)
    } else {
        Budget::Time {
            seconds: args.seconds as f64,
            min_ops: MIN_OPS,
        }
    }
}

fn wire_warmup_s(plan: WirePlan, args: &Args) -> f64 {
    if args.smoke {
        plan.warmup_s / 100.0
    } else {
        plan.warmup_s
    }
}

fn wire_smoke_ops(plan: WirePlan) -> usize {
    plan.slice_ops / 8
}

fn wire_plan(w: Workload) -> WirePlan {
    match w {
        Workload::WireLarge => WirePlan::LARGE,
        _ => WirePlan::SMALL,
    }
}

/// The untraced run: every end-to-end metric.
pub fn untraced(args: &Args) -> Outcome {
    let before = (!args.smoke).then(Sentinel::take);
    let m = match args.workload {
        Workload::Figures => measure_sim(FigPlan::new, args),
        Workload::CollScaling => measure_sim(CollPlan::scaling, args),
        Workload::CollSizes => measure_sim(CollPlan::sizes, args),
        w @ (Workload::WireSmall | Workload::WireLarge) => measure_wire(wire_plan(w), args),
    };
    let after = (!args.smoke).then(Sentinel::take);

    let mut failures = m.failures;
    let n = m.samples_ns.len();
    // A run shorter than one slice (smoke) is one slice.
    let slices: Vec<Slice> = m
        .samples_ns
        .chunks_exact(m.slice_ops.clamp(1, n.max(1)))
        .map(Slice::of)
        .collect();
    let mut sorted = m.samples_ns;
    sorted.sort_unstable();
    let mut metrics: Vec<Reported> = Vec::new();
    if slices.is_empty() || m.setup_s.is_empty() {
        failures.push("no op was timed".into());
    } else {
        let over_slices = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
        let value = |name: &str| match name {
            SETUP_S => Ok(median(&m.setup_s)),
            OPS_PER_S => Ok(over_slices(|s| s.ops_per_s)),
            OP_P50_US => Ok(over_slices(|s| s.p50_us)),
            OP_P99_US => Ok(over_slices(|s| s.p99_us)),
            PEAK_RSS_MIB => peak_rss_mib(),
            other => Err(format!("no measurement for {other}")),
        };
        for e in &END_TO_END {
            match value(e.name) {
                Ok(v) => metrics.push((e.name, v, e.unit)),
                Err(err) => failures.push(err),
            }
        }
    }

    let (noisy, sentinels) = Sentinel::verdict([before, after], &mut failures);

    let outcome = Outcome {
        attempted: n.max(1) as u64,
        failures,
        metrics,
        noisy,
    };
    report(
        args,
        &outcome,
        vec![
            ("ops", Json::U64(n as u64)),
            ("timed_wall_s", Json::F64(m.wall_s)),
            (
                "setup_s_each",
                Json::Arr(m.setup_s.iter().map(|&s| Json::F64(s)).collect()),
            ),
            ("ops_per_s_whole_run", Json::F64(n as f64 / m.wall_s)),
            (
                "op_p99_us_whole_run",
                sorted.first().map_or(Json::Null, |_| {
                    Json::F64(percentile(&sorted, 99.0) as f64 / 1e3)
                }),
            ),
            (
                "samples_beyond_p99",
                Json::U64(samples_beyond(n, 99.0) as u64),
            ),
            (
                "highest_supported_percentile",
                highest_supported(n).map_or(Json::Null, Json::F64),
            ),
            ("sentinels", sentinels),
            (
                "slice_ops",
                Json::U64(slices.first().map_or(0, |s| s.ops) as u64),
            ),
            (
                "slices",
                Json::Arr(slices.iter().map(Slice::json).collect()),
            ),
        ],
    );
    outcome
}

/// What the untraced reference stretch and the traced replay of the
/// same ops measured.
struct Traced {
    reference_ops: u64,
    reference_wall_s: f64,
    replay: Replay,
}

fn trace_sim<P: SimPlan>(plan: P, args: &Args, rec: &mut Recorder) -> Result<Traced, String> {
    let mut rng = SimRng::new(args.seed);
    if !args.smoke {
        warm_up(&plan, &mut rng).map_err(|e| format!("warm-up: {e}"))?;
    }
    let run = timed_passes(&plan, &mut rng, trace_budget(args, plan.len()));
    if let Some(e) = run.errors.first() {
        return Err(e.clone());
    }
    let check = plan.check(&run.first, run.last());
    let passes = run.samples_ns.len() / plan.len();
    let mut replay = replay_passes(&plan, &mut rng, passes, run.last(), rec);
    replay.errors.extend(check);
    if let Some(events) = run.last().iter().map(P::events).sum::<Option<u64>>() {
        if events * passes as u64 != replay.counts.events {
            replay.errors.push(format!(
                "replay executed {} events, the ops {}",
                replay.counts.events,
                events * passes as u64
            ));
        }
    }
    Ok(Traced {
        reference_ops: run.samples_ns.len() as u64,
        reference_wall_s: run.wall_s,
        replay,
    })
}

fn trace_wire(plan: WirePlan, args: &Args, rec: &mut Recorder) -> Result<Traced, String> {
    let (mut driver, warmup) = plan.boot(wire_warmup_s(plan, args))?;
    let run = wire::timed_roundtrips(
        &mut driver,
        plan.bytes,
        trace_budget(args, wire_smoke_ops(plan)),
    );
    drop(driver);
    if let Some(e) = run.errors.first() {
        return Err(e.clone());
    }
    let mut rng = SimRng::new(args.seed);
    let replay = wire::replay(plan.bytes, warmup, run.samples_ns.len(), &mut rng, rec);
    Ok(Traced {
        reference_ops: run.samples_ns.len() as u64,
        reference_wall_s: run.wall_s,
        replay,
    })
}

/// A tenth of the untraced run's seconds.
fn trace_budget(args: &Args, smoke_ops: usize) -> Budget {
    if args.smoke {
        Budget::Ops(smoke_ops)
    } else {
        Budget::Time {
            seconds: args.seconds as f64 / 10.0,
            min_ops: 0,
        }
    }
}

/// The traced run: every per-layer metric.
pub fn traced(args: &Args) -> Outcome {
    let before = (!args.smoke).then(Sentinel::take);
    let mut rec = Recorder::new(Instant::now(), 0);
    let result = match args.workload {
        Workload::Figures => trace_sim(FigPlan::new(), args, &mut rec),
        Workload::CollScaling => trace_sim(CollPlan::scaling(), args, &mut rec),
        Workload::CollSizes => trace_sim(CollPlan::sizes(), args, &mut rec),
        w @ (Workload::WireSmall | Workload::WireLarge) => trace_wire(wire_plan(w), args, &mut rec),
    };

    let mut failures = Vec::new();
    let mut metrics: Vec<Reported> = Vec::new();
    let mut extras = Vec::new();
    let mut attempted = 1;
    let mut harness: Vec<(&str, f64)> = Vec::new();
    match result {
        Err(e) => failures.push(e),
        Ok(t) => {
            attempted = t.replay.ops.max(1);
            failures.extend(t.replay.errors);
            let attribution = Attribution::of(rec.spans());
            let per_op = |wall_s: f64, ops: u64| wall_s / ops.max(1) as f64;
            harness.push((
                "harness.trace_overhead_x",
                per_op(t.replay.wall_s, t.replay.ops) / per_op(t.reference_wall_s, t.reference_ops),
            ));
            harness.push(("harness.trace_coverage_pct", 100.0 * attribution.coverage()));
            if attribution.coverage() < 0.95 {
                failures.push(format!(
                    "layer spans cover only {:.2} % of op wall",
                    100.0 * attribution.coverage()
                ));
            }
            match write_out(
                &format!("{}.trace.json", args.workload.name()),
                &chrome_trace(rec.spans()),
            ) {
                Ok(path) => println!("trace: {} ({} spans)", path.display(), rec.spans().len()),
                Err(e) => failures.push(e),
            }
            println!(
                "traced replay of {}: {} ops, self time per span",
                args.workload.name(),
                t.replay.ops
            );
            print!("{}", attribution.table());
            let Counts {
                events,
                points,
                bytes,
            } = t.replay.counts;
            println!(
                "  boundary counts: {events} engine events, {points} points, {bytes} payload bytes"
            );
            extras.extend([
                ("replayed_ops", Json::U64(t.replay.ops)),
                ("replay_wall_s", Json::F64(t.replay.wall_s)),
                ("reference_ops", Json::U64(t.reference_ops)),
                ("reference_wall_s", Json::F64(t.reference_wall_s)),
                ("op_wall_ns", Json::U64(attribution.op_wall_ns)),
                ("events", Json::U64(events)),
                ("points", Json::U64(points)),
                ("payload_bytes", Json::U64(bytes)),
                (
                    "layer_self_ns",
                    Json::obj(
                        attribution
                            .layers()
                            .into_iter()
                            .map(|(layer, ns)| (layer, Json::U64(ns))),
                    ),
                ),
            ]);
        }
    }

    let mut values = harness;
    if !args.smoke {
        let l = ladder::measure(args.seed);
        failures.extend(l.failures);
        values.extend(l.values);
    }
    for m in &PER_LAYER {
        match values.iter().find(|(n, _)| *n == m.name) {
            Some(&(_, v)) if v.is_finite() => metrics.push((m.name, v, m.unit)),
            None if args.smoke => {}
            _ => failures.push(format!("{}: not measured", m.name)),
        }
    }

    let after = (!args.smoke).then(Sentinel::take);
    let (noisy, sentinels) = Sentinel::verdict([before, after], &mut failures);
    extras.push(("sentinels", sentinels));

    let outcome = Outcome {
        attempted,
        failures,
        metrics,
        noisy,
    };
    report(args, &outcome, extras);
    outcome
}

/// Print the report for people, write `out/<workload>.result.json`,
/// and leave the driver's line for the caller to print last.
fn report(args: &Args, outcome: &Outcome, extras: Vec<(&'static str, Json)>) {
    let kind = if args.trace { "traced" } else { "untraced" };
    println!(
        "{} ({kind}, seed {}, {} s{}): {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.smoke { ", smoke" } else { "" },
        args.workload.why()
    );
    for &(name, value, unit) in &outcome.metrics {
        // What an end-to-end metric is; what a per-layer one should move.
        let (better, note) = if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
            (m.better, format!("-> {}", m.moves))
        } else if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
            let bound = format!("{} (bound {:.0} %)", m.what, 100.0 * m.bound);
            (m.better, bound)
        } else {
            continue;
        };
        println!(
            "  {name:<44} {value:>16.4} {unit:<5} {:<6} {note}",
            better.as_str()
        );
    }
    println!(
        "  {:<44} {:>16.4} {:<6}({} failed of {} attempted)",
        "fail_frac",
        outcome.fail_frac(),
        "ratio",
        outcome.failed(),
        outcome.attempted
    );
    if let Some(noisy) = outcome.noisy {
        println!("  noisy: {noisy}");
    }
    for f in &outcome.failures {
        println!("  FAILED: {f}");
    }
    let mut doc = vec![
        ("args", args.json()),
        ("host", host()),
        ("result", outcome.line()),
        ("fail_frac", Json::F64(outcome.fail_frac())),
        ("noisy", outcome.noisy.map_or(Json::Null, Json::Bool)),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
    ];
    doc.extend(extras);
    let file = format!("{}.{kind}.result.json", args.workload.name());
    if let Err(e) = write_out(&file, &Json::obj(doc)) {
        println!("  could not write the result file: {e}");
    }
}
