//! A NetPIPE command-line front end.
//!
//! ```text
//! netpipe_cli sim  [--cluster NAME] [--lib NAME] [--max BYTES] [--csv] [--trace OUT.json] [--faults PLAN]
//! netpipe_cli real [--sockbuf BYTES] [--max BYTES] [--csv] [--trace OUT.json] [--faults PLAN]
//! netpipe_cli mplite [--max BYTES] [--csv] [--trace OUT.json] [--faults PLAN]
//! netpipe_cli list
//! ```
//!
//! `sim` measures a modeled library on a simulated 2002 cluster; `real`
//! runs genuine kernel TCP over loopback; `mplite` runs the real
//! message-passing library. Default output is the summary + ASCII figure;
//! `--csv` dumps the raw points instead.
//!
//! `--trace OUT.json` records every pipeline stage of the run into a
//! Chrome trace-event file (open in `chrome://tracing` or Perfetto) and
//! prints a per-stage busy-time summary after the figure. Simulated runs
//! trace with exact virtual timestamps; real runs use the wall clock.
//!
//! `--faults PLAN` injects a deterministic fault plan (e.g.
//! `seed=42,loss=0.02,rto=2ms`, see `faultlab::FaultPlan`) and enables
//! graceful degradation: failing size points are retried, then annotated
//! as degraded/failed, and the run exits 0 with a partial report instead
//! of dying. In `sim` mode the plan drives seeded packet loss /
//! duplication / jitter / degradation windows on the modeled wire; in
//! `real` and `mplite` modes it sets the I/O deadlines, reconnect
//! backoff and (for `real`) the chaos knobs (`kill-after=N`,
//! `kill-listener`).

use std::sync::Arc;

use faultlab::FaultPlan;
use hwmodel::ClusterSpec;
use mpsim::libs as L;
use mpsim::MpLib;
use netpipe::{
    analyze, ascii_figure, fault_report, run, run_streaming, summary_table, to_csv, Driver,
    DriverError, MpliteDriver, RealTcpDriver, RealTcpOptions, RunOptions, ScheduleOptions,
    SimDriver,
};
use protosim::{RawParams, RecvMode};
use simcore::units::{bytes_per_sec_to_mbps, kib, secs_to_us};
use tracelab::{Tracer, WallTracer};

fn clusters() -> Vec<(&'static str, ClusterSpec)> {
    use hwmodel::presets::*;
    vec![
        ("ga620", pcs_ga620()),
        ("trendnet", pcs_trendnet()),
        ("ga622", ds20s_ga622()),
        ("syskonnect", pcs_syskonnect()),
        ("syskonnect-jumbo-pc", pcs_syskonnect_jumbo()),
        ("ds20-jumbo", ds20s_syskonnect_jumbo()),
        ("myrinet", pcs_myrinet()),
        ("giganet", pcs_giganet()),
        ("mvia", pcs_mvia_syskonnect()),
    ]
}

fn libraries(kernel: &hwmodel::KernelModel) -> Vec<(&'static str, MpLib)> {
    vec![
        ("raw-tcp", L::raw_tcp(kib(512))),
        ("raw-tcp-default", L::raw_tcp(kib(64))),
        ("mpich", L::mpich(L::MpichConfig::tuned())),
        ("mpich-default", L::mpich(L::MpichConfig::default())),
        ("lam", L::lammpi(L::LamConfig::tuned())),
        (
            "lam-lamd",
            L::lammpi(L::LamConfig {
                optimized_o: true,
                use_lamd: true,
            }),
        ),
        ("mpipro", L::mpipro(L::MpiProConfig::tuned())),
        ("mplite", L::mp_lite(kernel)),
        ("pvm", L::pvm(L::PvmConfig::tuned())),
        ("pvm-daemon", L::pvm(L::PvmConfig::default())),
        ("tcgmsg", L::tcgmsg_default()),
        ("raw-gm", L::raw_gm(RecvMode::Polling)),
        ("mpich-gm", L::mpich_gm(RecvMode::Hybrid)),
        (
            "mvich",
            L::mvich(L::MvichConfig::tuned(), RawParams::giganet()),
        ),
        ("mplite-via", L::mp_lite_via(RawParams::giganet())),
    ]
}

struct Args {
    mode: String,
    cluster: String,
    lib: String,
    max: u64,
    sockbuf: u32,
    csv: bool,
    stream: u32,
    trace: Option<String>,
    faults: Option<FaultPlan>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv
        .next()
        .ok_or("missing mode: sim | real | mplite | list")?;
    let mut args = Args {
        mode,
        cluster: "ga620".into(),
        lib: "raw-tcp".into(),
        max: 8 * 1024 * 1024,
        sockbuf: 0,
        csv: false,
        stream: 0,
        trace: None,
        faults: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--cluster" => args.cluster = argv.next().ok_or("--cluster needs a value")?,
            "--lib" => args.lib = argv.next().ok_or("--lib needs a value")?,
            "--max" => {
                args.max = argv
                    .next()
                    .ok_or("--max needs a value")?
                    .parse()
                    .map_err(|_| "--max must be an integer byte count")?;
            }
            "--sockbuf" => {
                args.sockbuf = argv
                    .next()
                    .ok_or("--sockbuf needs a value")?
                    .parse()
                    .map_err(|_| "--sockbuf must be an integer byte count")?;
            }
            "--csv" => args.csv = true,
            "--trace" => args.trace = Some(argv.next().ok_or("--trace needs an output path")?),
            "--faults" => {
                let plan = argv.next().ok_or("--faults needs a plan string")?;
                args.faults =
                    Some(FaultPlan::parse(&plan).map_err(|e| format!("bad fault plan: {e}"))?);
            }
            "--stream" => {
                args.stream = argv
                    .next()
                    .ok_or("--stream needs a burst count")?
                    .parse()
                    .map_err(|_| "--stream must be an integer burst count")?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn report(driver: &mut dyn Driver, args: &Args) {
    let mut opts = RunOptions {
        schedule: ScheduleOptions {
            max: args.max,
            ..Default::default()
        },
        ..Default::default()
    };
    // A fault plan switches the runner to graceful degradation: failing
    // points become annotated gaps and the process still exits 0 with a
    // (partial) report — a chaos run that dies is a bug, not a result.
    if let Some(plan) = &args.faults {
        opts = opts.with_resilience(plan.sweep.clone());
    }
    let sig = if args.stream > 0 {
        run_streaming(driver, &opts, args.stream).expect("measurement failed")
    } else {
        run(driver, &opts).expect("measurement failed")
    };
    if args.csv {
        print!("{}", to_csv(std::slice::from_ref(&sig)));
        return;
    }
    println!(
        "{}",
        ascii_figure(&sig.name, std::slice::from_ref(&sig), 92, 20)
    );
    println!("{}", summary_table(std::slice::from_ref(&sig)));
    let a = analyze(&sig);
    println!(
        "n1/2 = {} B   saturation at {} B   fit: t0 = {:.1} us, r_inf = {:.0} Mbps",
        a.n_half,
        a.saturation_bytes,
        secs_to_us(a.t0_s),
        bytes_per_sec_to_mbps(a.r_inf_bps)
    );
    if sig.is_partial() {
        println!("\n{}", fault_report(std::slice::from_ref(&sig)));
    }
}

/// Wall-clock tracing for real drivers: each round trip (or burst)
/// becomes one span on track 0, so the exported timeline shows the
/// measured schedule exactly as it ran.
struct TracedDriver<D: Driver> {
    inner: D,
    tracer: Arc<WallTracer>,
}

impl<D: Driver> Driver for TracedDriver<D> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn roundtrip(&mut self, bytes: u64) -> Result<f64, DriverError> {
        let t0 = self.tracer.now_wall();
        let r = self.inner.roundtrip(bytes);
        self.tracer.span_wall("roundtrip", 0, t0, bytes, 0);
        r
    }

    fn burst(&mut self, bytes: u64, count: u32) -> Result<f64, DriverError> {
        let t0 = self.tracer.now_wall();
        let r = self.inner.burst(bytes, count);
        self.tracer
            .span_wall("burst", 0, t0, bytes * u64::from(count), 0);
        r
    }

    fn is_deterministic(&self) -> bool {
        self.inner.is_deterministic()
    }
}

fn write_trace(path: &str, json: &str, summary: &str) {
    std::fs::write(path, json).expect("cannot write trace file");
    println!("\nper-stage busy time:\n{summary}");
    println!("trace written to {path} (open in chrome://tracing or https://ui.perfetto.dev)");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: netpipe_cli <sim|real|mplite|list> [--cluster C] [--lib L] [--max N] [--sockbuf N] [--stream N] [--csv] [--trace OUT.json] [--faults PLAN]");
            std::process::exit(2);
        }
    };
    match args.mode.as_str() {
        "list" => {
            println!("clusters:");
            for (name, spec) in clusters() {
                println!("  {name:<22} {}", spec.name);
            }
            let kernel = hwmodel::presets::linux_2_4().with_raised_sockbuf_max();
            println!("libraries:");
            for (name, lib) in libraries(&kernel) {
                println!("  {name:<22} {}", lib.name());
            }
        }
        "sim" => {
            let spec = clusters()
                .into_iter()
                .find(|(n, _)| *n == args.cluster)
                .unwrap_or_else(|| {
                    eprintln!("unknown cluster '{}' (try: netpipe_cli list)", args.cluster);
                    std::process::exit(2);
                })
                .1;
            let lib = libraries(&spec.kernel)
                .into_iter()
                .find(|(n, _)| *n == args.lib)
                .unwrap_or_else(|| {
                    eprintln!("unknown library '{}' (try: netpipe_cli list)", args.lib);
                    std::process::exit(2);
                })
                .1;
            println!("# {} on {}\n", lib.name(), spec.name);
            let mut d = SimDriver::new(spec, lib);
            if let Some(plan) = &args.faults {
                d.set_fault_plan(plan.clone());
            }
            let tracer = args.trace.as_ref().map(|_| Tracer::new());
            if let Some(t) = &tracer {
                d.set_trace_sink(t.clone());
            }
            report(&mut d, &args);
            if let Some(counters) = d.fault_counters() {
                println!("faults: {counters}");
            }
            if let (Some(path), Some(t)) = (&args.trace, &tracer) {
                let label = |tr: u32| protosim::track_label(tr);
                write_trace(
                    path,
                    &tracelab::export::chrome_trace_json(&t.events(), &label),
                    &tracelab::export::stage_table(&t.stage_totals(), &label),
                );
            }
        }
        "real" => {
            let opts = RealTcpOptions {
                sockbuf: args.sockbuf,
                nodelay: true,
                plan: args.faults.clone().unwrap_or_default(),
            };
            let d = RealTcpDriver::new(opts).expect("cannot start loopback echo server");
            let (snd, rcv) = d.effective_buffers();
            println!("# real loopback TCP (granted sndbuf={snd}, rcvbuf={rcv})\n");
            match &args.trace {
                None => {
                    let mut d = d;
                    report(&mut d, &args);
                    let counters = d.fault_counters();
                    if counters.any() {
                        println!("faults: {counters}");
                    }
                }
                Some(path) => {
                    let tracer = WallTracer::new();
                    let mut traced = TracedDriver {
                        inner: d,
                        tracer: Arc::clone(&tracer),
                    };
                    traced.inner.set_wall_tracer(Arc::clone(&tracer));
                    report(&mut traced, &args);
                    let label = |_: u32| "loopback tcp".to_string();
                    write_trace(
                        path,
                        &tracelab::export::chrome_trace_json(&tracer.events(), &label),
                        &tracelab::export::stage_table(&tracer.stage_totals(), &label),
                    );
                }
            }
        }
        "mplite" => {
            // The real library traces itself (writer + progress threads)
            // through its process-global wall tracer.
            let tracer = args.trace.as_ref().map(|_| {
                let t = WallTracer::new();
                mplite::trace::install(Arc::clone(&t));
                t
            });
            if let Some(plan) = &args.faults {
                // mplite reads its per-operation socket deadline from the
                // environment at job boot.
                std::env::set_var(
                    "MPLITE_IO_DEADLINE_MS",
                    plan.io_deadline.as_millis().to_string(),
                );
            }
            let mut d = MpliteDriver::new().expect("cannot boot mplite job");
            println!("# real mplite over loopback TCP\n");
            report(&mut d, &args);
            if let (Some(path), Some(t)) = (&args.trace, &tracer) {
                let label = |tr: u32| mplite::trace::track_label(tr);
                write_trace(
                    path,
                    &tracelab::export::chrome_trace_json(&t.events(), &label),
                    &tracelab::export::stage_table(&t.stage_totals(), &label),
                );
            }
        }
        other => {
            eprintln!("unknown mode '{other}'");
            std::process::exit(2);
        }
    }
}
