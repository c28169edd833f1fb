//! Wire-hardening smoke and fuzz driver for CI.
//!
//! Two modes:
//!
//! * `--smoke OUT` — run a fixed real-TCP ping-pong schedule through a
//!   seeded [`faultlab::proxy::ChaosProxy`] (corrupt, truncate, stall and
//!   partition all firing), recovering after every failure, and write
//!   a deterministic report — verdict tallies, fault counters, and the
//!   full sorted fault log — to `OUT`. CI diffs it against the committed
//!   golden `crates/clusterlab/golden/wire_chaos.txt`: the report is a
//!   pure function of (plan seed, schedule), so any drift means the
//!   framing layer, the proxy, or the recovery path changed behaviour.
//! * `--fuzz` — run the in-tree frame-decoder fuzzer
//!   ([`mplite::fuzz::run_seed`]) on the fixed CI seeds and print one
//!   JSON stats line per seed; any unaccounted input or over-cap
//!   allocation aborts with a non-zero exit.

use std::fs;

use faultlab::FaultPlan;
use netpipe::driver::Driver;
use netpipe::real_tcp::{RealTcpDriver, RealTcpOptions};

/// The CI chaos plan: every byte-fault clause fires, seeded. The stall
/// is far below the deadline so it never converts into a timeout, and
/// the partition window sits at frames 15..16 of each direction's
/// virtual clock — late enough that most connections die to other
/// faults first, early enough that long-lived ones walk into it.
const SMOKE_PLAN: &str = "seed=21,corrupt=0.08,truncate=0.02,stall=1ms@0.1,\
                          partition=0|1@1.5ms..1.6ms,deadline=750ms,backoff=5ms";

/// Message sizes swept by the smoke schedule.
const SIZES: [u64; 3] = [64, 1024, 16384];

/// Round trips attempted per size (failures count as attempts — the
/// schedule length is fixed so the byte traffic is reproducible).
const REPS: u32 = 30;

/// Fuzz seeds pinned in CI; `crates/mplite/tests/fuzz_gate.rs` gates the
/// same seeds, so a CI failure here reproduces locally with `cargo test`.
const FUZZ_SEEDS: [u64; 3] = [0xC0FFEE, 2002, 7];

/// Mutated frames per fuzz seed.
const FUZZ_FRAMES: u64 = 10_000;

/// Run the fixed chaos schedule and render the deterministic report.
fn smoke_report() -> String {
    let plan = FaultPlan::parse(SMOKE_PLAN).expect("smoke plan parses");
    let mut opts = RealTcpOptions::default();
    opts.apply_plan(&plan);
    let mut driver = RealTcpDriver::new(opts).expect("driver boots through the proxy");

    let (mut clean, mut frame, mut timeout, mut disconnect) = (0u32, 0u32, 0u32, 0u32);
    let mut untyped: Vec<String> = Vec::new();
    for &bytes in &SIZES {
        for _ in 0..REPS {
            match driver.roundtrip(bytes) {
                Ok(_) => clean += 1,
                Err(e) if e.is_frame() => {
                    frame += 1;
                    let _ = driver.recover();
                }
                Err(e) if e.is_timeout() => {
                    timeout += 1;
                    let _ = driver.recover();
                }
                Err(e) if e.is_disconnect() => {
                    disconnect += 1;
                    let _ = driver.recover();
                }
                Err(e) => {
                    untyped.push(e.to_string());
                    let _ = driver.recover();
                }
            }
        }
    }
    let (counters, log) = driver
        .finish_chaos()
        .expect("a plan with byte faults must raise the proxy");

    let mut out = String::new();
    out.push_str(&format!(
        "wire-chaos smoke: {} roundtrips ({} sizes x {} reps) through a seeded byte-fault proxy\n",
        SIZES.len() as u32 * REPS,
        SIZES.len(),
        REPS,
    ));
    out.push_str(&format!("plan: {plan}\n"));
    out.push_str(&format!(
        "verdicts: clean={clean} frame={frame} timeout={timeout} disconnect={disconnect} untyped={}\n",
        untyped.len()
    ));
    out.push_str(&format!("counters: {counters}\n"));
    out.push_str(&format!("fault log ({} events):\n", log.len()));
    for e in &log {
        out.push_str(&format!("  {e}\n"));
    }
    assert!(
        untyped.is_empty(),
        "untyped failures under chaos: {untyped:?}"
    );
    assert!(clean > 0, "service never recovered: {counters}");
    assert!(
        frame + timeout + disconnect > 0,
        "the plan never fired: {counters}"
    );
    out.push_str("every failure carried a typed verdict; no hangs, no panics\n");
    out
}

/// One JSON stats line per fuzz seed; panics (non-zero exit) if any
/// input went unaccounted or breached the allocation cap.
fn fuzz_lines() -> String {
    let mut out = String::new();
    for seed in FUZZ_SEEDS {
        let r = mplite::fuzz::run_seed(seed, FUZZ_FRAMES);
        assert!(r.accounted(), "seed {seed}: unaccounted inputs: {r:?}");
        assert_eq!(r.cap_violations, 0, "seed {seed}: over-cap alloc: {r:?}");
        let by_error: Vec<String> = r
            .by_error
            .iter()
            .map(|(kind, n)| format!("\"{kind}\":{n}"))
            .collect();
        out.push_str(&format!(
            "{{\"seed\":{},\"frames\":{},\"clean\":{},\"rejected\":{},\
             \"control_classified\":{},\"control_ignored\":{},\
             \"cap_violations\":{},\"by_error\":{{{}}}}}\n",
            r.seed,
            r.frames,
            r.clean,
            r.rejected,
            r.control_classified,
            r.control_ignored,
            r.cap_violations,
            by_error.join(","),
        ));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => {
            let out = args.get(1).expect("--smoke needs an output path");
            fs::write(out, smoke_report()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
            println!("wrote {out}");
        }
        Some("--fuzz") => print!("{}", fuzz_lines()),
        other => panic!(
            "usage: wire_chaos --smoke OUT | --fuzz (got {:?})",
            other.unwrap_or(&String::from("no mode"))
        ),
    }
}
