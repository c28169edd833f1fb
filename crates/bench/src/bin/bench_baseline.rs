//! Produce the committed perf baseline (`BENCH_seed.json`).
//!
//! The simulator's events/sec ratchet anchor: a number a later
//! optimization can be compared against. This binary measures
//! the simulator core on a fixed workload — a two-rank NetPIPE-style
//! ping-pong sweep (1 B … 64 KiB, powers of two) of the tuned MPICH
//! model on the paper's PCs/GA-620 cluster — and reports how many
//! simulation events the engine executes per wall-clock second, once
//! bare and once with a `tracelab::Tracer` instrumenting every fabric.
//! The traced run doubles as the tracing-overhead ratchet.
//!
//! Usage: `cargo run --release -p bench --bin bench_baseline [out.json]`
//! (tune the per-mode measurement budget with `BENCH_MS`, default 500).
//!
//! A second mode anchors the collectives subsystem:
//! `bench_baseline collectives [out.json]` (default
//! `BENCH_collectives.json`) measures a 256-rank *simulated*
//! dissemination barrier (events/run and events/sec) and an 8-rank
//! *real* in-process mplite allreduce (wall time and ops/sec).
//!
//! The event *counts* are deterministic (assert-checked here); only the
//! wall-clock figures vary by host, which is why the committed seed is
//! a ratchet anchor for one machine rather than a portable claim.

use std::cell::Cell;
use std::rc::Rc;

use bench::microbench::{measure, Sample};
use hwmodel::presets::pcs_ga620;
use mpsim::libs::{mpich, MpichConfig};
use mpsim::Session;
use protosim::Fabric;
use tracelab::Tracer;

/// Message sizes for the sweep: 1 B through 64 KiB, powers of two.
fn sizes() -> Vec<u64> {
    (0..=16).map(|p| 1u64 << p).collect()
}

/// Run the full sweep once, returning total engine events executed.
fn sweep(traced: bool) -> u64 {
    let lib = mpich(MpichConfig::tuned());
    let mut events = 0u64;
    for bytes in sizes() {
        let mut eng = Fabric::engine(pcs_ga620());
        if traced {
            protosim::instrument(&mut eng, Tracer::new());
        }
        let session = Session::establish(&mut eng.world, &lib);
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        mpsim::pingpong(
            &session,
            &mut eng,
            bytes,
            1,
            Box::new(move |_, _| done2.set(true)),
        );
        eng.run();
        assert!(done.get(), "pingpong of {bytes} B stalled");
        events += eng.events_executed();
    }
    events
}

fn mode_json(label: &str, events_per_run: u64, s: Sample) -> String {
    let events_per_sec = events_per_run as f64 * s.per_sec();
    format!(
        "  \"{label}\": {{\n    \"events_per_run\": {events_per_run},\n    \
         \"mean_ns\": {},\n    \"min_ns\": {},\n    \"iters\": {},\n    \
         \"events_per_sec\": {events_per_sec:.0}\n  }}",
        s.mean_ns, s.min_ns, s.iters
    )
}

/// One 256-rank simulated dissemination barrier; returns engine events.
fn sim_barrier() -> u64 {
    let schedule = collectives::build(
        collectives::CollOp::Barrier,
        collectives::Algorithm::Dissemination,
        256,
    )
    .expect("dissemination barrier plans for any rank count");
    let report = collectives::run_sim(
        &pcs_ga620(),
        &mpich(MpichConfig::tuned()).profile,
        &schedule,
        collectives::ExecCtx {
            root: 0,
            reduction: None,
        },
        &vec![Vec::new(); 256],
        &collectives::SimOptions::default(),
    );
    assert!(report.all_completed(), "fault-free barrier stalled");
    report.events
}

/// Real in-process allreduce: 8 mplite ranks, 16 rounds of a 1 KiB
/// (128 × f64) tree allreduce. Returns the number of collective ops.
fn real_allreduce() -> u64 {
    const ROUNDS: u64 = 16;
    mplite::Universe::run(8, |comm| {
        let mine: Vec<f64> = (0..128).map(|i| (comm.rank() * 128 + i) as f64).collect();
        for _ in 0..ROUNDS {
            let sum = comm
                .allreduce(&mine, mplite::ReduceOp::Sum)
                .expect("in-process allreduce");
            assert_eq!(sum.len(), 128);
        }
    })
    .expect("8-rank universe");
    ROUNDS
}

fn collectives_mode(out: &str) {
    let barrier_events = sim_barrier();
    assert_eq!(
        barrier_events,
        sim_barrier(),
        "simulation must be deterministic"
    );
    let sim = measure(sim_barrier);
    let real = measure(real_allreduce);
    let real_ops = 16u64;
    let ops_per_sec = real_ops as f64 * real.per_sec();
    let json = format!(
        "{{\n  \"tool\": \"bench-baseline\",\n  \"workload\": \
         \"collectives: 256-rank simulated dissemination barrier + \
         8-rank in-process mplite allreduce (128 f64, 16 rounds)\",\n{},\n  \
         \"real_allreduce\": {{\n    \"ops_per_run\": {real_ops},\n    \
         \"mean_ns\": {},\n    \"min_ns\": {},\n    \"iters\": {},\n    \
         \"ops_per_sec\": {ops_per_sec:.1}\n  }}\n}}\n",
        mode_json("sim_barrier_256", barrier_events, sim),
        real.mean_ns,
        real.min_ns,
        real.iters
    );
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!(
        "sim barrier (256 ranks): {} events/run, {:.0} events/sec ({} iters)",
        barrier_events,
        barrier_events as f64 * sim.per_sec(),
        sim.iters
    );
    println!(
        "real allreduce (8 ranks): {:.1} ops/sec, mean {:.2} ms/run ({} iters)",
        ops_per_sec,
        real.mean_ns as f64 / 1e6,
        real.iters
    );
    println!("wrote {out}");
}

fn main() {
    let first = std::env::args().nth(1);
    if first.as_deref() == Some("collectives") {
        let out = std::env::args()
            .nth(2)
            .unwrap_or_else(|| "BENCH_collectives.json".to_string());
        collectives_mode(&out);
        return;
    }
    let out = first.unwrap_or_else(|| "BENCH_seed.json".to_string());

    // Event counts are exact and reproducible; pin them before timing.
    let bare_events = sweep(false);
    let traced_events = sweep(true);
    assert_eq!(
        bare_events, traced_events,
        "tracing must not change the event stream"
    );

    let bare = measure(|| sweep(false));
    let traced = measure(|| sweep(true));

    let sizes_json: Vec<String> = sizes().iter().map(u64::to_string).collect();
    let json = format!(
        "{{\n  \"tool\": \"bench-baseline\",\n  \"workload\": \
         \"two-rank mpich(tuned) pingpong sweep on pcs_ga620\",\n  \
         \"sweep_sizes_bytes\": [{}],\n{},\n{}\n}}\n",
        sizes_json.join(", "),
        mode_json("untraced", bare_events, bare),
        mode_json("traced", traced_events, traced),
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));

    let overhead = traced.mean_ns as f64 / bare.mean_ns as f64;
    println!(
        "untraced: {} events/run, {:.0} events/sec ({} iters)",
        bare_events,
        bare_events as f64 * bare.per_sec(),
        bare.iters
    );
    println!(
        "traced:   {} events/run, {:.0} events/sec ({} iters, {overhead:.2}x untraced)",
        traced_events,
        traced_events as f64 * traced.per_sec(),
        traced.iters
    );
    println!("wrote {out}");
}
