//! The per-layer ladder: one or a few numbers per crate, each measured
//! from outside by timing calls into the crate's public functions.
//! Work per probe is fixed (these numbers explain, they do not gate), so
//! a faster layer finishes its probe sooner.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use clusterlab::{run_experiment, ExperimentResult};
use collectives::{Algorithm, CollOp, ExecCtx, SimOptions};
use faultlab::FaultPlan;
use hwmodel::presets::{pcs_ga620, pcs_myrinet};
use mplite::frame;
use mpsim::libs::{mpich, MpichConfig};
use mpsim::{MultiSession, Session};
use netpipe::{
    Driver, DriverError, MpliteDriver, RealTcpDriver, RealTcpOptions, Signature, SimDriver,
};
use protosim::{raw, tcp, Fabric, MultiNet, RawParams, RecvMode, TcpParams};
use simcore::{Engine, Resource, SimDuration, SimRng, SimTime};
use tracelab::Tracer;

use crate::sim::{contribution, replay_point, CollPlan, FigPlan, SimPlan, SUM_U64};
use crate::span::Recorder;
use crate::stats::{median, percentile};

/// Measured values by metric name, plus what went wrong on the way.
#[derive(Default)]
pub struct Ladder {
    pub values: Vec<(&'static str, f64)>,
    pub failures: Vec<String>,
}

impl Ladder {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }
}

/// Wall nanoseconds of one call of `f`.
fn time_ns(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

/// Median over `reps` calls of `f`'s wall nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| time_ns(&mut f)).collect();
    median(&samples)
}

// ------------------------------------------------------------- simcore

struct Hold {
    rng: SimRng,
}

/// One hold-model event: draw an increment, reschedule. The captured
/// words give the boxed closure the size of a typical model event.
fn hold_event(eng: &mut Engine<Hold>, words: [u64; 3]) {
    let d = 1 + eng.world.rng.next_below(1000);
    let words = [words[0].wrapping_add(d), words[1], words[2]];
    eng.schedule_in(SimDuration(d), move |e| hold_event(e, words));
}

/// The classic hold model: with `pending` events queued on one
/// long-lived engine, host ns per `step` + `schedule_in`.
pub fn hold_ns_per_event(pending: u64, ops: u64) -> f64 {
    let mut eng = Engine::new(Hold {
        rng: SimRng::new(pending),
    });
    for i in 0..pending {
        let at = SimTime(eng.world.rng.next_below(1000));
        eng.schedule_at(at, move |e| hold_event(e, [i, at.0, 0]));
    }
    // Reach the steady state of the queue before timing.
    for _ in 0..pending.min(ops) {
        eng.step();
    }
    let ns = time_ns(|| {
        for _ in 0..ops {
            eng.step();
        }
    });
    assert_eq!(
        eng.pending() as u64,
        pending,
        "hold model keeps its population"
    );
    ns / ops as f64
}

fn resource_serve_ns() -> f64 {
    const CALLS: u64 = 2_000_000;
    let mut r = Resource::with_overhead("probe", 125e6, SimDuration(500));
    let mut now = SimTime::ZERO;
    let ns = time_ns(|| {
        for _ in 0..CALLS {
            now = r.serve(black_box(now), black_box(1500));
        }
    });
    black_box(now);
    ns / CALLS as f64
}

// ------------------------------------------------- hwmodel / protosim / mpsim

fn spec_clone_ns() -> f64 {
    const CALLS: u64 = 200_000;
    time_ns(|| {
        for _ in 0..CALLS {
            let spec = pcs_ga620();
            black_box(black_box(&spec).clone());
        }
    }) / CALLS as f64
}

fn fabric_setup_us() -> f64 {
    const CALLS: u64 = 20_000;
    let spec = pcs_ga620();
    time_ns(|| {
        for _ in 0..CALLS {
            let mut eng = Fabric::engine(spec.clone());
            let conn = tcp::open_default(&mut eng.world);
            black_box((&eng.world.spec, conn));
        }
    }) / CALLS as f64
        / 1e3
}

/// Host ns per engine event of one 8 MiB one-way transfer.
fn transfer_ns_per_event(mut run: impl FnMut() -> u64) -> f64 {
    let mut events = 0;
    let ns = median_ns(9, || events = run());
    ns / events as f64
}

fn tcp_host_ns_per_event() -> f64 {
    transfer_ns_per_event(|| {
        let mut eng = Fabric::engine(pcs_ga620());
        let conn = tcp::open(&mut eng.world, TcpParams::with_bufs(512 << 10));
        tcp::send(&mut eng, conn, 0, 8 << 20, Box::new(|_| {}));
        eng.run();
        eng.events_executed()
    })
}

fn raw_host_ns_per_event() -> f64 {
    transfer_ns_per_event(|| {
        let mut eng = Fabric::engine(pcs_myrinet());
        let conn = raw::open(&mut eng.world, RawParams::gm(RecvMode::Polling));
        raw::send(&mut eng, conn, 0, 8 << 20, Box::new(|_| {}));
        eng.run();
        eng.events_executed()
    })
}

fn multinet_setup_us(n: usize) -> f64 {
    let spec = pcs_ga620();
    median_ns(51, || {
        black_box(MultiNet::engine(spec.clone(), n));
    }) / 1e3
}

/// A 64 B message from every node of a 256-node ring to its neighbour.
fn multinet_send_ns_per_msg() -> f64 {
    const N: usize = 256;
    let mut eng = MultiNet::engine(pcs_ga620(), N);
    let round = |eng: &mut protosim::MultiEngine| {
        for from in 0..N {
            protosim::multinode::send(eng, from, (from + 1) % N, 64, Box::new(|_| {}));
        }
        eng.run();
    };
    round(&mut eng);
    median_ns(41, || round(&mut eng)) / N as f64
}

fn session_establish_us() -> f64 {
    const CALLS: usize = 5_000;
    let (spec, lib) = (pcs_ga620(), mpich(MpichConfig::tuned()));
    let mut total = 0.0;
    for _ in 0..CALLS {
        let mut eng = Fabric::engine(spec.clone());
        total += time_ns(|| {
            black_box(Session::establish(&mut eng.world, &lib));
        });
    }
    total / CALLS as f64 / 1e3
}

/// Host µs per simulated mpich-tuned round trip on `pcs_ga620`.
fn pingpong_us(bytes: u64, reps: usize) -> f64 {
    let (spec, lib) = (pcs_ga620(), mpich(MpichConfig::tuned()));
    let mut rec = Recorder::off();
    median_ns(reps, || {
        black_box(replay_point(&mut rec, &spec, &lib, bytes));
    }) / 1e3
}

fn multisession_new_us(n: usize, reps: usize) -> f64 {
    let profile = mpich(MpichConfig::tuned()).profile;
    median_ns(reps, || {
        black_box(MultiSession::new(profile.clone(), n));
    }) / 1e3
}

/// `post_recv` + `send` of an empty payload around a 256-rank ring.
fn multi_match_ns_per_msg() -> f64 {
    const N: usize = 256;
    let mut eng = MultiNet::engine(pcs_ga620(), N);
    let session = MultiSession::new(mpich(MpichConfig::tuned()).profile, N);
    let empty = Rc::new(Vec::new());
    let mut round = || {
        for from in 0..N {
            let to = (from + 1) % N;
            session.post_recv(&mut eng, to, from, 7, Box::new(|_, _| {}));
            session.send(&mut eng, from, to, 7, Rc::clone(&empty));
        }
        eng.run();
    };
    round();
    let ns = median_ns(41, &mut round);
    assert!(!session.has_unmatched(), "ring leaves nothing unmatched");
    ns / N as f64
}

// --------------------------------------------------------- collectives

fn collectives_rungs(l: &mut Ladder) {
    let plan = |op, alg, n| collectives::build(op, alg, n).expect("the planner covers this shape");
    l.put(
        "collectives.build_us_1024",
        median_ns(21, || {
            black_box(plan(CollOp::Allreduce, Algorithm::Tree, 1024));
        }) / 1e3,
    );

    let tree = plan(CollOp::Allreduce, Algorithm::Tree, 1024);
    let inputs: Vec<Vec<u8>> = (0..1024).map(|r| contribution(r, 1024)).collect();
    l.put(
        "collectives.run_local_us_1024",
        median_ns(9, || {
            black_box(collectives::run_local(&tree, SUM_U64, &inputs));
        }) / 1e3,
    );

    let ring = plan(CollOp::Allreduce, Algorithm::Ring, 16);
    let inputs: Vec<Vec<u8>> = (0..16).map(|r| contribution(r, 1 << 20)).collect();
    let ns = median_ns(5, || {
        black_box(collectives::run_local(&ring, SUM_U64, &inputs));
    });
    l.put(
        "collectives.run_local_mb_per_s_16x1MiB",
        (16u64 << 20) as f64 / 1e6 / (ns / 1e9),
    );

    // The measurement BENCH_collectives.json started.
    let barrier = plan(CollOp::Barrier, Algorithm::Dissemination, 256);
    let (spec, profile) = (pcs_ga620(), mpich(MpichConfig::tuned()).profile);
    let no_reduction = ExecCtx {
        root: 0,
        reduction: None,
    };
    let empty = vec![Vec::new(); 256];
    let mut events = 0;
    let ns = median_ns(21, || {
        let report = collectives::run_sim(
            &spec,
            &profile,
            &barrier,
            no_reduction,
            &empty,
            &SimOptions::default(),
        );
        events = report.events;
        if !report.all_completed() {
            events = 0;
        }
    });
    if events == 0 {
        l.failures.push("256-rank barrier did not complete".into());
    }
    l.put(
        "collectives.barrier256_host_ns_per_event",
        ns / events.max(1) as f64,
    );

    l.put(
        "collectives.recovery64_us",
        median_ns(9, || {
            black_box(clusterlab::recovery_smoke());
        }) / 1e3,
    );
}

// -------------------------------------------------------------- mplite

/// Decimal megabytes per second.
fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9)
}

fn frame_rungs(l: &mut Ladder, rng: &mut SimRng) {
    let block = crate::wire::payload(4 << 20, rng);
    let ns = median_ns(7, || {
        black_box(frame::crc32c(black_box(&block)));
    });
    l.put("mplite.crc32c_mb_per_s", mb_per_s(block.len(), ns));

    for (size, encode, decode) in [
        (
            64usize,
            "mplite.frame_encode_mb_per_s_64B",
            "mplite.frame_decode_mb_per_s_64B",
        ),
        (
            64 << 10,
            "mplite.frame_encode_mb_per_s_64KiB",
            "mplite.frame_decode_mb_per_s_64KiB",
        ),
    ] {
        let payload = &block[..size];
        let frames = (block.len() / size).min(32_768);
        let mut stream = Vec::with_capacity(frames * (size + frame::V2_HEADER_LEN));
        let ns = median_ns(7, || {
            stream.clear();
            for _ in 0..frames {
                let (hdr, len) = frame::build_header(frame::WIRE_V2, 0, 1, black_box(payload));
                stream.extend_from_slice(&hdr[..len]);
                stream.extend_from_slice(payload);
            }
        });
        l.put(encode, mb_per_s(frames * size, ns));

        let mut decoded = 0;
        let ns = median_ns(7, || {
            let mut dec = mplite::FrameDecoder::new(frame::DEFAULT_MAX_MESSAGE);
            decoded = 0;
            for chunk in stream.chunks(64 << 10) {
                match dec.feed(chunk) {
                    Ok(out) => decoded += out.len(),
                    Err(_) => return,
                }
            }
        });
        if decoded != frames {
            l.failures
                .push(format!("{decode}: decoded {decoded} of {frames} frames"));
        }
        l.put(decode, mb_per_s(frames * size, ns));
    }
}

fn mesh_boot_ms(l: &mut Ladder) {
    let mut samples = Vec::new();
    for _ in 0..15 {
        let t0 = Instant::now();
        let comms = mplite::Universe::local(2);
        samples.push(t0.elapsed().as_nanos() as f64 / 1e6);
        if let Err(e) = comms {
            l.failures.push(format!("mplite.mesh_boot_ms: {e}"));
        }
    }
    l.put("mplite.mesh_boot_ms", median(&samples));
}

/// Median time inside `Comm::send` of 64 B while the peer drains.
fn send_call_us(l: &mut Ladder) {
    const SENDS: usize = 5_000;
    const DATA: i32 = 1;
    let name = "mplite.send_call_us_64B";
    let mut comms = match mplite::Universe::local(2) {
        Ok(c) if c.len() == 2 => c,
        _ => {
            l.failures.push(format!("{name}: mesh boot failed"));
            return;
        }
    };
    let (sink, comm) = (
        comms.pop().expect("two ranks"),
        comms.pop().expect("two ranks"),
    );
    let drain = std::thread::spawn(move || {
        while matches!(sink.recv(0, mplite::ANY_TAG), Ok((_, st)) if st.tag == DATA) {}
    });
    let payload = [0x5au8; 64];
    let mut samples = Vec::with_capacity(SENDS);
    for _ in 0..SENDS {
        let t0 = Instant::now();
        let sent = comm.send(1, DATA, &payload);
        samples.push(t0.elapsed().as_nanos() as u64);
        if let Err(e) = sent {
            l.failures.push(format!("{name}: {e}"));
            break;
        }
    }
    let _ = comm.send(1, DATA + 1, b"");
    drop(comm);
    if drain.join().is_err() {
        l.failures.push(format!("{name}: drain rank panicked"));
    }
    samples.sort_unstable();
    l.put(name, percentile(&samples, 50.0) as f64 / 1e3);
}

/// Median round trip of `driver` at `bytes`, µs, after a warm-up.
fn roundtrip_p50_us(
    driver: &mut dyn Driver,
    bytes: u64,
    warmup: usize,
    ops: usize,
) -> Result<f64, DriverError> {
    for _ in 0..warmup {
        driver.roundtrip(bytes)?;
    }
    let mut samples = Vec::with_capacity(ops);
    for _ in 0..ops {
        let t0 = Instant::now();
        driver.roundtrip(bytes)?;
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    Ok(percentile(&samples, 50.0) as f64 / 1e3)
}

/// Warm-up and timed round trips of the 64 B wire probes.
const SMALL: (usize, usize) = (300, 3_000);

/// Median round trip over raw loopback TCP, µs: the floor under `mplite`.
fn rawtcp_p50_us(bytes: u64, (warmup, ops): (usize, usize)) -> Result<f64, String> {
    RealTcpDriver::new(RealTcpOptions::default())
        .and_then(|mut d| roundtrip_p50_us(&mut d, bytes, warmup, ops))
        .map_err(|e| e.to_string())
}

/// The 64 B floor: short and kernel-bound, so also one of the two
/// host-noise sentinels.
pub fn rawtcp_p50_us_64b() -> Result<f64, String> {
    rawtcp_p50_us(64, SMALL)
}

/// The library-vs-raw ratio the paper reports, at both ends of the
/// size range, measured back to back so host noise largely cancels.
fn wire_rungs(l: &mut Ladder) {
    let sizes = [
        (
            64u64,
            SMALL,
            "netpipe.rawtcp_p50_us_64B",
            "mplite.overhead_x_64B",
        ),
        (
            1 << 20,
            (8, 48),
            "netpipe.rawtcp_p50_us_1MiB",
            "mplite.overhead_x_1MiB",
        ),
    ];
    for (bytes, (warmup, ops), raw_name, ratio_name) in sizes {
        let raw = rawtcp_p50_us(bytes, (warmup, ops));
        let lib = MpliteDriver::new()
            .and_then(|mut d| roundtrip_p50_us(&mut d, bytes, warmup, ops))
            .map_err(|e| e.to_string());
        match (raw, lib) {
            (Ok(raw), Ok(lib)) => {
                l.put(raw_name, raw);
                l.put(ratio_name, lib / raw);
            }
            (raw, lib) => {
                for e in [raw.err(), lib.err()].into_iter().flatten() {
                    l.failures.push(format!("{ratio_name}: {e}"));
                }
            }
        }
    }
}

// ------------------------------------- netpipe / clusterlab / tracelab / faultlab

/// Times what passes through to the wrapped driver's `roundtrip`.
struct TimedDriver {
    inner: SimDriver,
    inside_ns: u128,
}

impl Driver for TimedDriver {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn roundtrip(&mut self, bytes: u64) -> Result<f64, DriverError> {
        let t0 = Instant::now();
        let out = self.inner.roundtrip(bytes);
        self.inside_ns += t0.elapsed().as_nanos();
        out
    }

    fn is_deterministic(&self) -> bool {
        self.inner.is_deterministic()
    }
}

/// One pass over every curve, timed as a whole; `prepare` configures
/// each curve's driver before its sweep.
fn figures_pass(
    plan: &FigPlan,
    l: &mut Ladder,
    what: &str,
    mut prepare: impl FnMut(&mut SimDriver),
) -> (f64, Vec<Signature>) {
    let mut sigs = Vec::with_capacity(plan.len());
    let t0 = Instant::now();
    for i in 0..plan.len() {
        match plan.run_case_with(i, &mut prepare) {
            Ok(sig) => sigs.push(sig),
            Err(e) => l.failures.push(format!("{what} pass: {e}")),
        }
    }
    (t0.elapsed().as_secs_f64(), sigs)
}

/// Everything measured over whole `figures` passes.
fn figures_rungs(l: &mut Ladder) {
    let plan = FigPlan::new();
    let (plain_s, plain) = figures_pass(&plan, l, "plain", |_| {});
    if plain.len() != plan.len() {
        return;
    }
    let verdict = plan.assess(&plain);
    l.failures.extend(verdict.failures);
    l.put("clusterlab.checks_failed", verdict.checks_failed as f64);
    l.put("clusterlab.paper_err_max_pct", verdict.paper_err_max_pct);

    // A fresh tracer per curve, as `netpipe_cli --trace` installs one;
    // each is dropped (its ring with it) once its event count is taken.
    let mut events = 0u64;
    let mut current: Option<Rc<Tracer>> = None;
    let (traced_s, traced) = figures_pass(&plan, l, "traced", |d| {
        if let Some(done) = current.take() {
            events += done.events_dispatched();
        }
        let tracer = Tracer::new();
        d.set_trace_sink(tracer.clone());
        current = Some(tracer);
    });
    events += current.map_or(0, |t| t.events_dispatched());
    l.put("tracelab.traced_x", traced_s / plain_s);
    l.put("simcore.events_per_pass.figures", events as f64);
    l.put(
        "simcore.host_ns_per_event.figures",
        plain_s * 1e9 / events.max(1) as f64,
    );

    let lossless = FaultPlan::parse("seed=99").expect("a bare seed is a valid plan");
    assert!(lossless.is_lossless());
    let (lossless_s, with_plan) = figures_pass(&plan, l, "lossless-plan", |d| {
        d.set_fault_plan(lossless.clone());
    });
    l.put("faultlab.lossless_plan_x", lossless_s / plain_s);
    for (what, pass) in [("traced", &traced), ("lossless-plan", &with_plan)] {
        if netpipe::to_csv(pass) != netpipe::to_csv(&plain) {
            l.failures
                .push(format!("{what} pass: CSVs differ from the plain pass"));
        }
    }

    let t0 = Instant::now();
    let threaded: Vec<ExperimentResult> = plan
        .experiments()
        .iter()
        .map(|exp| run_experiment(exp, plan.options()))
        .collect();
    l.put(
        "clusterlab.run_experiment_x",
        t0.elapsed().as_secs_f64() / plain_s,
    );
    black_box(threaded);

    // fig1 alone: runner overhead and the report writers.
    let fig1 = &plan.experiments()[0];
    let (mut wall_ns, mut inside_ns) = (0.0, 0.0);
    for entry in &fig1.entries {
        let mut d = TimedDriver {
            inner: SimDriver::new(fig1.spec.clone(), entry.lib.clone()),
            inside_ns: 0,
        };
        wall_ns += time_ns(|| {
            black_box(netpipe::run(&mut d, plan.options()).is_ok());
        });
        inside_ns += d.inside_ns as f64;
    }
    l.put(
        "netpipe.runner_overhead_pct",
        100.0 * (wall_ns - inside_ns) / wall_ns,
    );
    let sigs = &plain[..fig1.entries.len()];
    l.put(
        "netpipe.report_ms",
        median_ns(9, || {
            black_box(netpipe::to_csv(sigs));
            black_box(netpipe::svg_figure(fig1.title, sigs, 840, 520));
            for sig in sigs {
                black_box(netpipe::to_plotfile(sig));
            }
        }) / 1e6,
    );
}

/// One plain pass of a collective grid: events and host ns per event.
fn coll_pass(l: &mut Ladder, plan: &CollPlan, events_name: &'static str, ns_name: &'static str) {
    let mut events = 0u64;
    let t0 = Instant::now();
    for i in 0..plan.len() {
        match plan.run_case(i) {
            Ok(p) => events += p.events,
            Err(e) => l.failures.push(e),
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    l.put(events_name, events as f64);
    l.put(ns_name, ns / events.max(1) as f64);
}

/// Every rung except the `harness.*` ones, which describe a traced run
/// and are measured by it.
pub fn measure(seed: u64) -> Ladder {
    let mut l = Ladder::default();
    let mut rng = SimRng::new(seed);

    l.put(
        "simcore.hold_ns_per_event_1e3",
        hold_ns_per_event(1_000, 1_000_000),
    );
    l.put(
        "simcore.hold_ns_per_event_1e5",
        hold_ns_per_event(100_000, 1_000_000),
    );
    l.put(
        "simcore.hold_ns_per_event_1e6",
        hold_ns_per_event(1_000_000, 1_000_000),
    );
    l.put("simcore.resource_serve_ns", resource_serve_ns());
    l.put("hwmodel.spec_clone_ns", spec_clone_ns());
    l.put("protosim.fabric_setup_us", fabric_setup_us());
    l.put("protosim.tcp_host_ns_per_event", tcp_host_ns_per_event());
    l.put("protosim.raw_host_ns_per_event", raw_host_ns_per_event());
    l.put("protosim.multinet_setup_us_1024", multinet_setup_us(1024));
    l.put(
        "protosim.multinet_send_ns_per_msg",
        multinet_send_ns_per_msg(),
    );
    l.put("mpsim.session_establish_us", session_establish_us());
    l.put("mpsim.pingpong_us_64B", pingpong_us(64, 2_001));
    l.put("mpsim.pingpong_us_1MiB", pingpong_us(1 << 20, 21));
    l.put(
        "mpsim.multisession_new_us_256",
        multisession_new_us(256, 51),
    );
    l.put(
        "mpsim.multisession_new_us_1024",
        multisession_new_us(1024, 9),
    );
    l.put("mpsim.multi_match_ns_per_msg", multi_match_ns_per_msg());
    collectives_rungs(&mut l);
    frame_rungs(&mut l, &mut rng);
    mesh_boot_ms(&mut l);
    send_call_us(&mut l);
    wire_rungs(&mut l);
    figures_rungs(&mut l);
    coll_pass(
        &mut l,
        &CollPlan::scaling(),
        "simcore.events_per_pass.coll_scaling",
        "simcore.host_ns_per_event.coll_scaling",
    );
    coll_pass(
        &mut l,
        &CollPlan::sizes(),
        "simcore.events_per_pass.coll_sizes",
        "simcore.host_ns_per_event.coll_sizes",
    );
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_model_runs_and_keeps_its_population() {
        let ns = hold_ns_per_event(100, 1_000);
        assert!(ns > 0.0 && ns.is_finite());
    }

    #[test]
    fn timed_driver_is_transparent() {
        let lib = mpich(MpichConfig::tuned());
        let mut plain = SimDriver::new(pcs_ga620(), lib.clone());
        let mut timed = TimedDriver {
            inner: SimDriver::new(pcs_ga620(), lib),
            inside_ns: 0,
        };
        assert!(timed.is_deterministic());
        assert_eq!(
            timed.roundtrip(1000).unwrap(),
            plain.roundtrip(1000).unwrap()
        );
        assert!(timed.inside_ns > 0);
    }
}
