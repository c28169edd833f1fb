//! The allocation gate: the hot paths the benchmark times, with every
//! heap allocation counted.
//!
//! The paper's thesis is that per-message software work — copies,
//! allocation, locking — sets the curve. This test holds the
//! reproduction to the same standard on its own code: a counting
//! `#[global_allocator]` wraps `System`, and each workload below runs
//! the traffic of one `BENCHMARK.json` workload (a `figures` pass, the
//! `coll_*` allreduce, `wire_*`'s frame codec) under a committed
//! ceiling. Counts are per thread, so libtest's parallel tests never
//! see each other's allocations, and each workload runs once untimed
//! first, so one-time set-up on a shared path is not counted.
//!
//! An allocation added on a gated path fails its test. If it is
//! deliberate, lower the cost elsewhere or raise the ceiling here and
//! say why in the change. A count that falls should lower its ceiling.
//! Run with `--nocapture` to see the live counts and allocations per
//! event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use collectives::{time_sim, Algorithm, CollOp, Dtype, ExecCtx, ReduceOp, Reduction, SimOptions};
use hwmodel::kernel::linux_2_4;
use hwmodel::presets::pcs_ga620;
use mplite::frame::{build_header, FrameDecoder, DEFAULT_MAX_MESSAGE, WIRE_V2};
use mpsim::libs::{lammpi, mp_lite, mpich, pvm, LamConfig, MpichConfig, PvmConfig};
use mpsim::Session;
use netpipe::{RunOptions, SimDriver};
use protosim::Fabric;
use simcore::trace::{SharedSink, SpanRec, TraceSink};

/// Allocations of one `figures` pass: all 61 curves.
const FIGURES_CEILING: u64 = 136_234;
/// Events one `figures` pass executes (CI's exact
/// `simcore.events_per_pass.figures` rung), for the per-event ratio.
const FIGURES_EVENTS: u64 = 5_920_774;
/// Allocations of one 1 MiB round trip each of daemon-routed PVM (the
/// pvmd stop-and-wait relay) and LAM under `-lamd` (the pipelined lamd
/// relay), fresh engine and session included, as `SimDriver` runs a
/// point. The relays move 516 and 256 fragments, but a message is one
/// record moved by typed events, so one allocation per fragment cannot
/// fit.
const DAEMON_1MIB_CEILING: u64 = 39;
const _: () = assert!(DAEMON_1MIB_CEILING < 256);
/// Allocations of `time_sim`, 1 KiB allreduce at 64 ranks, summed over
/// both library profiles and the three algorithms; recursive doubling
/// is symmetric, so it runs on its two-rank quotient.
const COLL_SIM_CEILING: u64 = 462;
/// Allocations of one `time_sim` 1 KiB recursive-doubling allreduce at
/// 1 024 ranks. The schedule is symmetric, so it is timed on its
/// two-rank quotient: a two-node world and a few per-rank vectors, a
/// constant count whatever the rank count.
const COLL_SIM_1024_CEILING: u64 = 29;
/// Allocations of the same allreduce stepped rank by rank, as a trace
/// sink makes it run: set-up only, about one matching queue per rank,
/// since a message carries a length, not bytes, and once its slots are
/// warm allocates nothing.
const COLL_SIM_1024_STEPPED_CEILING: u64 = 1_089;
/// Allocations of one `time_sim` dissemination barrier at 4 096 ranks,
/// timed on its two-rank quotient. Stepping gives each rank its own
/// matching queue, so a stepped run cannot fit under this ceiling.
const BARRIER_4096_CEILING: u64 = 29;
const _: () = assert!(BARRIER_4096_CEILING < 4096);
/// Allocations of one `build` each, at 1 024 ranks, of the three
/// `coll_scaling` allreduce shapes, the dissemination barrier and the
/// Bruck allgather. A planner writes four flat tables, sized exactly
/// by a counting pass, so a schedule costs four allocations whatever
/// its rank count, and one allocation per rank cannot fit.
const BUILD_1024_CEILING: u64 = 20;
const _: () = assert!(BUILD_1024_CEILING < 1024);
/// Allocations of `run_local` on the same three schedules.
const COLL_LOCAL_CEILING: u64 = 1_662;
/// Allocations of 1 000 64 B and 4 1 MiB frame round trips.
const FRAMES_CEILING: u64 = 2_012;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialised `Cell` has no destructor, so the slot is
    // live for the thread's whole life; `try_with` only guards against
    // a platform where that does not hold.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

#[expect(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait; the counter forwards every call to System"
)]
// SAFETY: each method forwards to `System` with the caller's arguments
// unchanged, so every `GlobalAlloc` contract `System` keeps is kept.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (so from `System`) with `layout`, and `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (so from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) that `f`
/// makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Print the live count, per `unit`, and hold it to `ceiling`.
fn gate(workload: &str, count: u64, ceiling: u64, (n, unit): (u64, &str)) {
    println!(
        "{workload}: {count} allocations (ceiling {ceiling}), {:.3} per {unit} over {n}",
        count as f64 / n.max(1) as f64
    );
    assert!(
        count <= ceiling,
        "{workload}: {count} allocations exceed the ceiling of {ceiling}"
    );
}

/// The `figures` workload's op, every curve once: `SimDriver` plus
/// `netpipe::run` under the default options.
#[test]
fn figures_pass_stays_under_its_ceiling() {
    let exps = clusterlab::all_experiments();
    let opts = RunOptions::default();
    let pass = || {
        let mut curves = 0;
        for exp in &exps {
            for entry in &exp.entries {
                let spec = entry.spec_override.as_ref().unwrap_or(&exp.spec);
                let mut driver = SimDriver::new(spec.clone(), entry.lib.clone());
                netpipe::run(&mut driver, &opts).expect("every paper curve runs");
                curves += 1;
            }
        }
        curves
    };
    assert_eq!(pass(), 61);
    let (count, _) = allocations(pass);
    gate(
        "figures pass",
        count,
        FIGURES_CEILING,
        (FIGURES_EVENTS, "event"),
    );
}

/// The daemon relays, one 1 MiB round trip each: what `figures` spends
/// most of its events on, per message.
#[test]
fn daemon_round_trips_stay_under_their_ceiling() {
    let libs = [
        pvm(PvmConfig {
            direct_route: false,
            ..PvmConfig::default()
        }),
        lammpi(LamConfig {
            use_lamd: true,
            ..LamConfig::tuned()
        }),
    ];
    let trips = || {
        let mut events = 0;
        for lib in &libs {
            let mut eng = Fabric::engine(pcs_ga620());
            let session = Session::establish(&mut eng.world, lib);
            let done = Rc::new(Cell::new(false));
            let d = Rc::clone(&done);
            mpsim::pingpong(
                &session,
                &mut eng,
                1 << 20,
                1,
                Box::new(move |_, _| d.set(true)),
            );
            eng.run();
            assert!(done.get(), "a daemon round trip completes");
            events += eng.events_executed();
        }
        events
    };
    trips();
    let (count, events) = allocations(trips);
    gate(
        "1 MiB daemon round trips",
        count,
        DAEMON_1MIB_CEILING,
        (events, "event"),
    );
}

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Tree,
    Algorithm::RecursiveDoubling,
    Algorithm::Ring,
];

const SUM_U64: ExecCtx = ExecCtx {
    root: 0,
    reduction: Some(Reduction {
        dtype: Dtype::U64,
        op: ReduceOp::Sum,
    }),
};

/// The `coll_*` workloads' layers: a 1 KiB allreduce at 64 ranks under
/// both library profiles and all three algorithms, timed as
/// `clusterlab::collective::measure` times it, then the same schedules
/// through the data executor.
#[test]
fn allreduce_at_64_ranks_stays_under_its_ceilings() {
    const RANKS: usize = 64;
    let profiles = [
        mpich(MpichConfig::tuned()).profile,
        mp_lite(&linux_2_4().with_raised_sockbuf_max()).profile,
    ];
    let spec = pcs_ga620();
    let contributions: Vec<Vec<u8>> = (0..RANKS as u64)
        .map(|r| {
            (0..128u64)
                .flat_map(|i| (r * 1000 + i).to_le_bytes())
                .collect()
        })
        .collect();
    let schedules: Vec<_> = ALGORITHMS
        .iter()
        .map(|&a| collectives::build(CollOp::Allreduce, a, RANKS).expect("allreduce plans"))
        .collect();
    let lengths = [1024; RANKS];
    let sim = || {
        let mut events = 0;
        for profile in &profiles {
            for schedule in &schedules {
                let timing = time_sim(
                    &spec,
                    profile,
                    schedule,
                    0,
                    &lengths,
                    &SimOptions::default(),
                );
                assert!(timing.all_completed());
                events += timing.events;
            }
        }
        events
    };
    let local = || {
        for schedule in &schedules {
            let outputs = collectives::run_local(schedule, SUM_U64, &contributions);
            assert_eq!(outputs.len(), RANKS);
        }
    };
    sim();
    local();
    let (count, events) = allocations(sim);
    gate(
        "allreduce time_sim",
        count,
        COLL_SIM_CEILING,
        (events, "event"),
    );
    let (count, ()) = allocations(local);
    let ranks = (ALGORITHMS.len() * RANKS) as u64;
    gate(
        "allreduce run_local",
        count,
        COLL_LOCAL_CEILING,
        (ranks, "rank"),
    );
}

/// Takes every record and keeps none.
struct Discard;

impl TraceSink for Discard {
    fn span(&self, _: SpanRec) {}
}

/// Allocations and events of one fault-free `time_sim` run of `op` by
/// `algorithm` over `ranks` ranks of 1 KiB each, under the tuned MPICH
/// profile, with `trace` installed if given.
fn time_once(
    op: CollOp,
    algorithm: Algorithm,
    ranks: usize,
    trace: Option<SharedSink>,
) -> (u64, u64) {
    let profile = mpich(MpichConfig::tuned()).profile;
    let spec = pcs_ga620();
    let lengths = vec![1024; ranks];
    let schedule = collectives::build(op, algorithm, ranks).expect("the planner covers it");
    let opts = SimOptions {
        trace,
        ..SimOptions::default()
    };
    let sim = || {
        let timing = time_sim(&spec, &profile, &schedule, 0, &lengths, &opts);
        assert!(timing.all_completed());
        timing.events
    };
    sim();
    allocations(sim)
}

/// The largest `coll_scaling` point: 10 240 messages over 1 024 ranks,
/// so an allocation that creeps back per message or per rank shows
/// tenfold.
#[test]
fn allreduce_at_1024_ranks_stays_under_its_ceiling() {
    let (count, events) = time_once(CollOp::Allreduce, Algorithm::RecursiveDoubling, 1024, None);
    gate(
        "1024-rank allreduce time_sim",
        count,
        COLL_SIM_1024_CEILING,
        (events, "event"),
    );
}

/// The same allreduce stepped, as a trace sink makes it: stepping's
/// own allocation discipline stays watched.
#[test]
fn stepped_allreduce_at_1024_ranks_stays_under_its_ceiling() {
    let discard: SharedSink = Rc::new(Discard);
    let (count, events) = time_once(
        CollOp::Allreduce,
        Algorithm::RecursiveDoubling,
        1024,
        Some(discard),
    );
    gate(
        "stepped 1024-rank allreduce time_sim",
        count,
        COLL_SIM_1024_STEPPED_CEILING,
        (events, "event"),
    );
}

/// Every planner the 1 024-rank gates above time, plus the Bruck
/// allgather, whose block lists are the widest: building a schedule
/// allocates nothing per rank, per round or per step.
#[test]
fn builds_at_1024_ranks_stay_under_their_ceiling() {
    const SHAPES: [(CollOp, Algorithm); 5] = [
        (CollOp::Allreduce, Algorithm::Tree),
        (CollOp::Allreduce, Algorithm::RecursiveDoubling),
        (CollOp::Allreduce, Algorithm::Ring),
        (CollOp::Barrier, Algorithm::Dissemination),
        (CollOp::Allgather, Algorithm::Dissemination),
    ];
    let build = || {
        let mut messages = 0;
        for (op, algorithm) in SHAPES {
            let schedule = collectives::build(op, algorithm, 1024).expect("the planner covers it");
            messages += schedule.total_messages() as u64;
        }
        messages
    };
    build();
    let (count, messages) = allocations(build);
    gate(
        "1024-rank builds",
        count,
        BUILD_1024_CEILING,
        (messages, "message"),
    );
}

/// A barrier over 4 096 ranks allocates what one over 1 024 does.
#[test]
fn barrier_at_4096_ranks_stays_under_its_ceiling() {
    let (count, events) = time_once(CollOp::Barrier, Algorithm::Dissemination, 4096, None);
    gate(
        "4096-rank barrier time_sim",
        count,
        BARRIER_4096_CEILING,
        (events, "event"),
    );
}

/// The `wire_*` workloads' codec: `build_header` then
/// `FrameDecoder::feed` of the header and the payload, one decoder per
/// stream as a connection holds it.
#[test]
fn frame_round_trips_stay_under_their_ceiling() {
    let small = vec![0x5au8; 64];
    let large = vec![0xa5u8; 1 << 20];
    let trips = |payload: &[u8], n: usize| {
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_MESSAGE);
        for i in 0..n {
            let (header, len) = build_header(WIRE_V2, 1, i as i32, payload);
            assert!(decoder.feed(&header[..len]).expect("header").is_empty());
            let frames = decoder.feed(payload).expect("payload");
            assert_eq!(frames.len(), 1);
        }
    };
    let both = || {
        trips(&small, 1000);
        trips(&large, 4);
    };
    both();
    let (count, ()) = allocations(both);
    gate("frame round trips", count, FRAMES_CEILING, (1004, "frame"));
}
