//! Smoke guard for tracing overhead: running a simulated NetPIPE sweep
//! with a [`tracelab::Tracer`] installed must cost at most
//! [`BUDGET_NS_PER_RECORD`] of extra wall time per record the tracer takes
//! (span, instant or dispatched-event tick).
//!
//! The guard used to be a ratio (`traced <= 2 x untraced + 2 ms`). A ratio
//! measures the simulator as much as the tracer: when the untraced sweep
//! got ~2.6x faster with the tracer's own work untouched, the ratio read
//! 2.0 -> 3.4. The absolute budget is as strict on the tracer as the ratio
//! was when it was written: at the last commit before the simulator sped
//! up, this sweep (127 274 records: 112 192 spans, 512 instants, 14 570
//! dispatches; untraced 3.2-3.8 ms) read 26.4-32.1 ns per record over 14
//! runs, median 28; the budget is 1.5 x that, 42 ns — and the old ratio
//! allowed `untraced + 2 ms` of extra time, 41-46 ns per record.
//!
//! The baseline runs with a sink installed that keeps nothing. Any sink
//! turns the transports' closed-form segment trains off, because a trace
//! records every segment; on a 2-core Xeon VM under this test profile a
//! plain run of the sweep takes 0.14 ms and stepping it 0.80 ms, so
//! `traced - plain` would charge all of that stepping to the tracer.
//! Against the no-op sink both runs step every segment and the difference
//! is the tracer's own work per record again, which is what the 42 ns
//! budget was set on.
//!
//! This is the cheap always-on check; the benchmark ladder's
//! `tracelab.traced_x` and `harness.trace_overhead_x` give real numbers.

use std::time::{Duration, Instant};

use std::rc::Rc;

use hwmodel::presets::pcs_ga620;
use mpsim::libs::{mpich, MpichConfig};
use netpipe::{run, RunOptions, ScheduleOptions, SimDriver};
use simcore::trace::{SpanRec, TraceSink};
use tracelab::Tracer;

/// Takes every record a tracer would and keeps none of them.
struct Discard;

impl TraceSink for Discard {
    fn span(&self, _: SpanRec) {}
}

fn sweep_opts() -> RunOptions {
    RunOptions {
        schedule: ScheduleOptions {
            max: 1024 * 1024,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Minimum wall time over `trials` runs of `f` — the min is far less
/// noise-sensitive than the mean on a shared machine.
fn min_time(trials: usize, mut f: impl FnMut()) -> Duration {
    (0..trials)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .unwrap_or_default()
}

/// 1.5 x the 28 ns per record measured before the simulator sped up.
const BUDGET_NS_PER_RECORD: f64 = 42.0;

#[test]
fn tracing_costs_at_most_its_budget_per_record() {
    let trials = 5;

    let mut plain = SimDriver::new(pcs_ga620(), mpich(MpichConfig::tuned()));
    plain.set_trace_sink(Rc::new(Discard));
    let untraced = min_time(trials, || {
        run(&mut plain, &sweep_opts()).expect("untraced sweep");
    });

    let mut traced_driver = SimDriver::new(pcs_ga620(), mpich(MpichConfig::tuned()));
    let tracer = Tracer::new();
    traced_driver.set_trace_sink(tracer.clone());
    let traced = min_time(trials, || {
        tracer.clear();
        run(&mut traced_driver, &sweep_opts()).expect("traced sweep");
    });

    assert!(
        tracer.span_count() > 0,
        "traced sweep recorded no spans; the guard would be vacuous"
    );

    let records = tracer.span_count() + tracer.instant_count() + tracer.events_dispatched();
    let per_record = traced.saturating_sub(untraced).as_nanos() as f64 / records as f64;
    assert!(
        per_record <= BUDGET_NS_PER_RECORD,
        "tracing overhead too high: {per_record:.1} ns per record over {records} records \
         (traced {traced:?}, untraced {untraced:?}); budget {BUDGET_NS_PER_RECORD} ns"
    );
}
