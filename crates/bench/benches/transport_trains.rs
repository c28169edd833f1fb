//! Closed-form segment trains against stepping, per transport: the
//! host time of one simulated job as the plain run takes it (trains
//! advanced in closed form, silent deliveries settled in place) and with
//! a no-op trace sink installed (every segment stepped), plus how many of
//! its executed events went through the engine's queue at all.
//!
//! Cases: 8 MiB one way over GA620 TCP in each window class (32 KiB and
//! 64 KiB windows below the message, 512 KiB tuned, 8 MiB whole), under
//! p4's block-synchronous 32 KiB writes, over GM and over M-VIA; and the
//! whole t1 "PVM via pvmd" curve, which is closure-bound and barely
//! touched by either.
//!
//! `cargo bench -p bench --bench transport_trains` (`BENCH_MS` sets the
//! per-measurement budget).

use std::rc::Rc;

use bench::microbench::{group, measure};
use hwmodel::presets::{pcs_ga620, pcs_mvia_syskonnect, pcs_myrinet};
use hwmodel::ClusterSpec;
use mpsim::libs::{pvm, PvmConfig};
use mpsim::Session;
use netpipe::RunOptions;
use protosim::{instrument, raw, tcp, Fabric, Net, RawParams, RecvMode, TcpParams};
use simcore::trace::{SpanRec, TraceSink};
use simcore::units::{kib, mib};

/// Takes every record and keeps none: the cheapest way to force stepping.
struct Discard;

impl TraceSink for Discard {
    fn span(&self, _: SpanRec) {}
}

/// `(events executed, of those dispatched in place)`.
type Counts = (u64, u64);

/// A named job, run plain (`false`) or stepped (`true`).
type Case = (String, Box<dyn Fn(bool) -> Counts>);

fn counts(eng: &Net) -> Counts {
    (eng.events_executed(), eng.events_in_place())
}

fn engine(spec: &ClusterSpec, stepped: bool) -> Net {
    let mut eng = Fabric::engine(spec.clone());
    if stepped {
        instrument(&mut eng, Rc::new(Discard));
    }
    eng
}

fn tcp_8mib(params: &TcpParams, stepped: bool) -> Counts {
    let mut eng = engine(&pcs_ga620(), stepped);
    let conn = tcp::open(&mut eng.world, params.clone());
    tcp::send(&mut eng, conn, 0, mib(8), Box::new(|_| {}));
    eng.run();
    counts(&eng)
}

fn raw_8mib(spec: &ClusterSpec, params: &RawParams, stepped: bool) -> Counts {
    let mut eng = engine(spec, stepped);
    let conn = raw::open(&mut eng.world, params.clone());
    raw::send(&mut eng, conn, 0, mib(8), Box::new(|_| {}));
    eng.run();
    counts(&eng)
}

/// Every size point of the t1 "PVM via pvmd" curve, one round trip each,
/// as `SimDriver` runs them.
fn pvmd_curve(stepped: bool) -> Counts {
    let lib = pvm(PvmConfig::default());
    let spec = pcs_ga620();
    let mut total = (0, 0);
    for bytes in netpipe::sizes(&RunOptions::default().schedule) {
        let mut eng = engine(&spec, stepped);
        let session = Session::establish(&mut eng.world, &lib);
        mpsim::pingpong(&session, &mut eng, bytes, 1, Box::new(|_, _| {}));
        eng.run();
        let (executed, in_place) = counts(&eng);
        total = (total.0 + executed, total.1 + in_place);
    }
    total
}

fn main() {
    let p4 = TcpParams {
        block_sync_writes: true,
        ..TcpParams::with_bufs(kib(32))
    };
    let cases: Vec<Case> = vec![
        window("tcp_32k", TcpParams::with_bufs(kib(32))),
        window("tcp_64k", TcpParams::with_bufs(kib(64))),
        window("tcp_512k", TcpParams::with_bufs(kib(512))),
        window("tcp_8m", TcpParams::with_bufs(mib(8))),
        window("p4_32k", p4),
        (
            "gm".into(),
            Box::new(|s| raw_8mib(&pcs_myrinet(), &RawParams::gm(RecvMode::Polling), s)),
        ),
        (
            "mvia".into(),
            Box::new(|s| raw_8mib(&pcs_mvia_syskonnect(), &RawParams::mvia_sk98lin(), s)),
        ),
        ("t1_pvm_via_pvmd".into(), Box::new(pvmd_curve)),
    ];

    group("transport_trains");
    println!(
        "{:<18} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "case", "closed", "stepped", "speedup", "executed", "queued"
    );
    for (name, run) in &cases {
        let (executed, in_place) = run(false);
        assert_eq!(
            run(true).0,
            executed,
            "{name}: stepping executes the same events"
        );
        let closed = measure(|| run(false)).min_ns;
        let stepped = measure(|| run(true)).min_ns;
        println!(
            "{:<18} {:>9.1} us {:>9.1} us {:>7.1}x {:>10} {:>10}",
            name,
            closed as f64 / 1e3,
            stepped as f64 / 1e3,
            stepped as f64 / closed.max(1) as f64,
            executed,
            executed - in_place
        );
    }
}

fn window(name: &str, params: TcpParams) -> Case {
    (name.into(), Box::new(move |s| tcp_8mib(&params, s)))
}
