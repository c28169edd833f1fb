//! Edge-case integration tests: the corners of the model a user hits when
//! driving the library with unusual parameters.

use std::cell::Cell;
use std::fmt::Debug;
use std::rc::Rc;

use netpipe_rs::prelude::*;
use netpipe_rs::proto::{instrument, raw, tcp, Fabric, Net};
use netpipe_rs::sim::trace::{SharedSink, SpanRec, TraceSink};
use netpipe_rs::sim::SimTime;
use protosim::{RawParams, RecvMode, TcpParams};

/// Takes every record and keeps none.
struct Discard;

impl TraceSink for Discard {
    fn span(&self, _: SpanRec) {}
}

fn discard() -> SharedSink {
    Rc::new(Discard)
}

/// A fresh two-host engine on `spec`, with `sink` installed if given.
fn engine(spec: hwmodel::ClusterSpec, sink: Option<SharedSink>) -> Net {
    let mut eng = Fabric::engine(spec);
    if let Some(sink) = sink {
        instrument(&mut eng, sink);
    }
    eng
}

/// One round trip of `bytes` under `lib`, as `SimDriver` runs a size
/// point: `(events executed, of those dispatched in place, final instant)`.
fn round_trip(
    spec: &hwmodel::ClusterSpec,
    lib: &MpLib,
    bytes: u64,
    sink: Option<SharedSink>,
) -> (u64, u64, SimTime) {
    let mut eng = engine(spec.clone(), sink);
    let session = Session::establish(&mut eng.world, lib);
    netpipe_rs::mp::pingpong(&session, &mut eng, bytes, 1, Box::new(|_, _| {}));
    let end = eng.run();
    (eng.events_executed(), eng.events_in_place(), end)
}

/// Runs `job` plain and again with a fresh `sink()` installed. A sink
/// turns off every closed form and period skip, so the second run steps
/// each segment; it must still execute the same events and end at the
/// same instants. Returns the plain run's result.
fn same_when_stepped<R: PartialEq + Debug>(
    sink: fn() -> SharedSink,
    job: impl Fn(Option<SharedSink>) -> R,
) -> R {
    let plain = job(None);
    assert_eq!(job(Some(sink())), plain, "stepping changed the run");
    plain
}

#[test]
fn one_byte_messages_work_on_every_transport() {
    for (spec, lib) in [
        (pcs_ga620(), raw_tcp(kib(512))),
        (pcs_myrinet(), raw_gm(RecvMode::Polling)),
        (pcs_giganet(), mp_lite_via(RawParams::giganet())),
        (pcs_ga620(), pvm(PvmConfig::default())),
        (
            pcs_ga620(),
            lammpi(LamConfig {
                optimized_o: true,
                use_lamd: true,
            }),
        ),
    ] {
        let name = lib.name().to_string();
        let t = SimDriver::new(spec, lib).roundtrip(1).unwrap();
        assert!(t > 0.0, "{name}");
        assert!(t < 0.01, "{name}: 1-byte roundtrip took {t}s");
    }
}

#[test]
fn eight_megabyte_messages_work_on_every_transport() {
    for (spec, lib) in [
        (pcs_ga620(), raw_tcp(kib(512))),
        (pcs_trendnet(), raw_tcp(kib(64))),
        (pcs_myrinet(), raw_gm(RecvMode::Blocking)),
        (ds20s_syskonnect_jumbo(), tcgmsg_default()),
        (pcs_ga620(), pvm(PvmConfig::default())), // stop-and-wait daemons
    ] {
        let name = lib.name().to_string();
        let t = SimDriver::new(spec, lib).roundtrip(mib(8)).unwrap();
        assert!(t > 0.0 && t.is_finite(), "{name}");
        assert!(t < 30.0, "{name}: 8 MB roundtrip took {t}s");
    }
}

#[test]
fn asymmetric_socket_buffers_use_the_minimum() {
    // W = min(sndbuf, rcvbuf): a big send buffer cannot compensate a tiny
    // receive buffer.
    let small_rcv = TcpParams {
        sndbuf: kib(512),
        rcvbuf: kib(16),
        block_sync_writes: false,
    };
    let both_small = TcpParams::with_bufs(kib(16));
    let both_big = TcpParams::with_bufs(kib(512));
    let time = |p: TcpParams| {
        let mut lib = raw_tcp(kib(512));
        lib.transport = netpipe_rs::mp::Transport::Tcp(p);
        SimDriver::new(pcs_trendnet(), lib)
            .roundtrip(mib(1))
            .unwrap()
    };
    let t_asym = time(small_rcv);
    let t_small = time(both_small);
    let t_big = time(both_big);
    assert_eq!(t_asym, t_small, "window is min(snd, rcv)");
    assert!(t_big < t_asym);
}

#[test]
fn window_of_one_byte_still_completes() {
    let mut lib = raw_tcp(1);
    lib.transport = netpipe_rs::mp::Transport::Tcp(TcpParams::with_bufs(1));
    let t = SimDriver::new(pcs_ga620(), lib).roundtrip(4096).unwrap();
    assert!(t.is_finite() && t > 0.0);
}

#[test]
fn all_gm_recv_modes_complete() {
    for mode in [RecvMode::Polling, RecvMode::Blocking, RecvMode::Hybrid] {
        let t = SimDriver::new(pcs_myrinet(), raw_gm(mode))
            .roundtrip(100_000)
            .unwrap();
        assert!(t > 0.0, "{mode:?}");
    }
}

#[test]
fn fast_ethernet_baseline_is_sane() {
    // §4: Fast Ethernet "just works" — near wire speed with defaults.
    let mut d = SimDriver::new(pcs_fast_ethernet(), raw_tcp(kib(64)));
    let sig = run(&mut d, &RunOptions::quick(1 << 20)).unwrap();
    assert!(
        (80.0..98.0).contains(&sig.final_mbps()),
        "Fast Ethernet plateau {}",
        sig.final_mbps()
    );
}

#[test]
fn bonded_session_on_bonded_cluster_through_harness() {
    let kernel = pcs_fast_ethernet_dual().kernel;
    let mut d = SimDriver::new(pcs_fast_ethernet_dual(), mp_lite_bonded(&kernel, 2));
    let sig = run(&mut d, &RunOptions::quick(1 << 20)).unwrap();
    assert!(
        sig.final_mbps() > 150.0,
        "bonded Fast Ethernet {}",
        sig.final_mbps()
    );
    // Latency region unaffected by striping.
    assert!(sig.latency_us < 80.0, "{}", sig.latency_us);
}

#[test]
fn mvia_requires_its_kernel_but_runs_on_24() {
    // M-VIA on its 2.4.2 kernel behaves as on 2.4 for the TCP-free path.
    let t = SimDriver::new(
        pcs_mvia_syskonnect(),
        mvich(MvichConfig::tuned(), RawParams::mvia_sk98lin()),
    )
    .roundtrip(65536)
    .unwrap();
    assert!(t > 0.0);
}

#[test]
fn breakdown_of_window_limited_config_shows_idle_stages() {
    // TrendNet with default buffers: time goes to stalls, so *no* stage
    // is near saturation — the signature of a tuning problem rather than
    // a hardware limit (§7).
    let b = netpipe_rs::lab::measure_breakdown(&pcs_trendnet(), &raw_tcp(kib(64)), mib(2));
    for s in &b.stages {
        let share = s.busy.as_secs_f64() / b.elapsed_s;
        assert!(
            share < 0.75,
            "{}: {share} — nothing should saturate",
            s.stage
        );
    }
    // Whereas with tuned buffers the NIC saturates.
    let tuned = netpipe_rs::lab::measure_breakdown(&pcs_trendnet(), &raw_tcp(kib(512)), mib(2));
    assert!(tuned.share("host0 nic") > 0.8, "{}", tuned.to_table());
}

#[test]
fn scaling_model_orders_interconnects_correctly() {
    use netpipe_rs::lab::{strong_scaling, AppModel};
    let app = AppModel::stencil_3d();
    let measure = |spec: hwmodel::ClusterSpec, lib: MpLib| {
        let mut d = SimDriver::new(spec, lib);
        run(&mut d, &RunOptions::quick(1 << 20)).unwrap()
    };
    let gm = measure(pcs_myrinet(), raw_gm(RecvMode::Polling));
    let fe = measure(pcs_fast_ethernet(), raw_tcp(kib(64)));
    let e_gm = strong_scaling(&gm, 0.0, &app, &[64])[0].efficiency;
    let e_fe = strong_scaling(&fe, 0.0, &app, &[64])[0].efficiency;
    assert!(
        e_gm > e_fe + 0.1,
        "Myrinet must scale far beyond Fast Ethernet: {e_gm} vs {e_fe}"
    );
}

/// Witness for the engine's queue and the transports' memoised costs:
/// the event count and the final simulated instant of three one-way
/// transfers, recorded at the commit before `simcore` gained its sorted
/// run and typed events. Any change to dispatch order, rounding or a
/// per-segment cost moves one of these six numbers.
#[test]
fn transfer_event_counts_and_end_times_are_pinned() {
    // 8 MiB over tuned GA620 TCP: the steady in-order delivery stream.
    let mut eng = Fabric::engine(pcs_ga620());
    let conn = tcp::open(&mut eng.world, TcpParams::with_bufs(kib(512)));
    tcp::send(&mut eng, conn, 0, mib(8), Box::new(|_| {}));
    let end = eng.run();
    assert_eq!((eng.events_executed(), end), (5795, SimTime(110_226_491)));

    // 4 MiB over TrendNet with the kernel's default buffers: the window
    // fills, so the stall/reopen path runs.
    let mut spec = pcs_trendnet();
    spec.kernel = netpipe_rs::hw::presets::linux_2_4();
    let mut eng = Fabric::engine(spec);
    let conn = tcp::open_default(&mut eng.world);
    tcp::send(&mut eng, conn, 0, mib(4), Box::new(|_| {}));
    let end = eng.run();
    assert_eq!((eng.events_executed(), end), (2962, SimTime(117_293_926)));

    // 8 MiB over Myrinet GM: the windowless OS-bypass path.
    let mut eng = Fabric::engine(pcs_myrinet());
    let conn = raw::open(&mut eng.world, RawParams::gm(RecvMode::Polling));
    raw::send(&mut eng, conn, 0, mib(8), Box::new(|_| {}));
    let end = eng.run();
    assert_eq!((eng.events_executed(), end), (2049, SimTime(81_908_028)));
}

/// Witness for the transports' delivery cursor and closed-form segment
/// trains: `(events executed, final instant)` of one-way transfers in
/// every window class, under p4's block-synchronous writes, over both
/// OS-bypass flavours, and of one daemon-relayed PVM round trip, recorded
/// at the commit before the cursor replaced one queued event per segment.
/// The closed form must count every segment it skips as an executed event
/// and land every stage exactly where stepping would, so each case runs
/// stepped too. A `tracelab::Tracer` must not change the tuned MPICH
/// ping-pong sweep (1 B to 64 KiB) either.
#[test]
fn window_classes_bypass_and_daemon_relay_are_pinned() {
    let tcp_8mib = |params: TcpParams| {
        same_when_stepped(discard, |sink| {
            let mut eng = engine(pcs_ga620(), sink);
            let conn = tcp::open(&mut eng.world, params.clone());
            tcp::send(&mut eng, conn, 0, mib(8), Box::new(|_| {}));
            let end = eng.run();
            (eng.events_executed(), end)
        })
    };
    let raw_8mib = |spec: hwmodel::ClusterSpec, params: RawParams| {
        same_when_stepped(discard, |sink| {
            let mut eng = engine(spec.clone(), sink);
            let conn = raw::open(&mut eng.world, params.clone());
            raw::send(&mut eng, conn, 0, mib(8), Box::new(|_| {}));
            let end = eng.run();
            (eng.events_executed(), end)
        })
    };
    let p4_32k = TcpParams {
        block_sync_writes: true,
        ..TcpParams::with_bufs(kib(32))
    };
    let got = [
        tcp_8mib(TcpParams::with_bufs(kib(32))),
        tcp_8mib(TcpParams::with_bufs(kib(64))),
        tcp_8mib(TcpParams::with_bufs(kib(512))),
        tcp_8mib(TcpParams::with_bufs(mib(8))),
        tcp_8mib(p4_32k),
        raw_8mib(pcs_myrinet(), RawParams::gm(RecvMode::Blocking)),
        raw_8mib(pcs_myrinet(), RawParams::gm(RecvMode::Polling)),
        raw_8mib(pcs_mvia_syskonnect(), RawParams::mvia_sk98lin()),
    ];
    assert_eq!(
        got,
        [
            (5889, SimTime(112_015_135)),
            (5795, SimTime(110_226_491)),
            (5795, SimTime(110_226_491)),
            (5795, SimTime(110_228_918)),
            (6144, SimTime(908_159_560)),
            (2049, SimTime(81_926_028)),
            (2049, SimTime(81_908_028)),
            (5795, SimTime(150_685_884)),
        ]
    );

    // One PVM round trip through both pvmd daemons (stop-and-wait
    // fragments, local pipes, acks): the session's typed relay steps.
    let relay = same_when_stepped(discard, |sink| {
        let mut eng = engine(pcs_ga620(), sink);
        let session = Session::establish(&mut eng.world, &pvm(PvmConfig::default()));
        let rtt = Rc::new(Cell::new(0.0));
        let out = Rc::clone(&rtt);
        netpipe_rs::mp::pingpong(
            &session,
            &mut eng,
            kib(64),
            1,
            Box::new(move |_, t| out.set(t)),
        );
        let end = eng.run();
        assert_eq!(rtt.get(), end.as_secs_f64());
        (eng.events_executed(), end)
    });
    assert_eq!(relay, (340, SimTime(15_315_092)));

    // The tuned MPICH sweep, once per power of two, traced for real.
    let sweep = same_when_stepped(
        || netpipe_rs::trace::Tracer::new(),
        |sink| {
            let lib = mpich(MpichConfig::tuned());
            (0..=16)
                .map(|p| round_trip(&pcs_ga620(), &lib, 1 << p, sink.clone()))
                .map(|(executed, _, end)| (executed, end))
                .collect::<Vec<_>>()
        },
    );
    assert_eq!(sweep.iter().map(|r| r.0).sum::<u64>(), 308);
}

/// Witness for PVM's fragment streams, sent as one message train whose
/// steady state is skipped a period at a time: `(events executed, final
/// instant)` of 8 MiB round trips in both direct modes on the t1, fig2
/// and fig3 clusters (a smooth GA620 window, rough TrendNet and jumbo
/// ones), and of one size a byte past a whole number of 4080-byte
/// fragments — recorded at the commit before the train replaced one
/// closure per fragment. Each case runs stepped too, and so do the two
/// whole t1 curves.
#[test]
fn pvm_fragment_trains_are_pinned() {
    let direct = |spec: hwmodel::ClusterSpec, in_place: bool, bytes: u64| {
        let lib = pvm(PvmConfig {
            direct_route: true,
            in_place,
        });
        same_when_stepped(discard, |sink| {
            let (executed, _, end) = round_trip(&spec, &lib, bytes, sink);
            (executed, end)
        })
    };
    let got = [
        direct(pcs_ga620(), false, mib(8)),
        direct(pcs_ga620(), true, mib(8)),
        direct(pcs_trendnet(), false, mib(8)),
        direct(pcs_trendnet(), true, mib(8)),
        direct(ds20s_syskonnect_jumbo(), false, mib(8)),
        direct(ds20s_syskonnect_jumbo(), true, mib(8)),
        direct(pcs_ga620(), false, 4080 * 500 + 1),
    ];
    assert_eq!(
        got,
        [
            (20570, SimTime(427_166_396)),
            (20570, SimTime(343_280_316)),
            (20826, SimTime(675_152_524)),
            (20826, SimTime(591_266_444)),
            (12602, SimTime(318_423_326)),
            (12602, SimTime(262_499_272)),
            (5010, SimTime(104_137_650)),
        ]
    );

    // A whole t1 curve, one round trip per size as `SimDriver` runs it:
    // per size `(events executed, final instant)`, and over the curve how
    // many events went through the engine's queue at all.
    let t1_curve = |name: &str| {
        let t1 = all_experiments()
            .into_iter()
            .find(|exp| exp.id == "t1_tuning")
            .expect("t1 experiment");
        let entry = t1
            .entries
            .iter()
            .find(|e| e.lib.name() == name)
            .unwrap_or_else(|| panic!("t1 has no {name} curve"));
        let spec = entry.spec_override.as_ref().unwrap_or(&t1.spec);
        // Stepping queues more events, so only the plain run counts them.
        let queued = Cell::new(0);
        let runs = same_when_stepped(discard, |sink| {
            let plain = sink.is_none();
            let mut runs = Vec::new();
            for bytes in netpipe::sizes(&RunOptions::default().schedule) {
                let (executed, in_place, end) = round_trip(spec, &entry.lib, bytes, sink.clone());
                if plain {
                    queued.set(queued.get() + executed - in_place);
                }
                runs.push((executed, end));
            }
            runs
        });
        (runs.iter().map(|r| r.0).sum::<u64>(), queued.get())
    };
    // The direct curve's 4080-byte fragments are one message train a
    // period at a time; the queued count is exact, so a skip that stops
    // engaging shows here first. The daemon-relayed curve steps every
    // relay hop as an event of its own and is barely touched by either.
    assert_eq!(t1_curve("PVM (direct)"), (196_300, 17_006));
    assert_eq!(t1_curve("PVM (via pvmd)"), (392_540, 314_424));
}
