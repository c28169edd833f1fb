//! Edge-case integration tests: the corners of the model a user hits when
//! driving the library with unusual parameters.

use netpipe_rs::prelude::*;
use protosim::{RawParams, RecvMode, TcpParams};

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
    use netpipe_rs::proto::{raw, tcp, Fabric};
    use netpipe_rs::sim::SimTime;

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
/// and land every stage exactly where stepping would.
#[test]
fn window_classes_bypass_and_daemon_relay_are_pinned() {
    use netpipe_rs::proto::{raw, tcp, Fabric};
    use netpipe_rs::sim::SimTime;
    use std::cell::Cell;
    use std::rc::Rc;

    let tcp_8mib = |params: TcpParams| {
        let mut eng = Fabric::engine(pcs_ga620());
        let conn = tcp::open(&mut eng.world, params);
        tcp::send(&mut eng, conn, 0, mib(8), Box::new(|_| {}));
        let end = eng.run();
        (eng.events_executed(), end)
    };
    let raw_8mib = |spec: hwmodel::ClusterSpec, params: RawParams| {
        let mut eng = Fabric::engine(spec);
        let conn = raw::open(&mut eng.world, params);
        raw::send(&mut eng, conn, 0, mib(8), Box::new(|_| {}));
        let end = eng.run();
        (eng.events_executed(), end)
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
            (5795, SimTime(150_685_884)),
        ]
    );

    // One PVM round trip through both pvmd daemons (stop-and-wait
    // fragments, local pipes, acks): the closure-driven relay path.
    let mut eng = Fabric::engine(pcs_ga620());
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
    assert_eq!((eng.events_executed(), end), (340, SimTime(15_315_092)));
    assert_eq!(rtt.get(), end.as_secs_f64());
}
