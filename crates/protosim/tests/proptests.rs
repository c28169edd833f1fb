//! Property tests on transport-model invariants.
//!
//! Cases are drawn from [`SimRng`] with fixed seeds (deterministic,
//! dependency-free) rather than an external property-test harness.

use std::cell::RefCell;
use std::rc::Rc;

use hwmodel::presets::{pcs_ga620, pcs_myrinet, pcs_trendnet};
use protosim::{local, raw, tcp, Conn, Fabric, RawParams, RecvMode, TcpParams};
use simcore::units::kib;
use simcore::SimRng;

/// Run `f` for `cases` deterministic seeds.
fn for_cases(cases: u64, mut f: impl FnMut(&mut SimRng)) {
    for seed in 0..cases {
        let mut rng = SimRng::new(0x7247_4E53 ^ seed);
        f(&mut rng);
    }
}

/// Run a set of sends on one TCP connection; return (per-send completion
/// times in seconds, total bytes the connection delivered).
fn run_tcp(
    spec: hwmodel::ClusterSpec,
    params: TcpParams,
    sends: &[(usize, u64)],
) -> (Vec<f64>, u64) {
    let mut eng = Fabric::engine(spec);
    let conn = tcp::open(&mut eng.world, params);
    let done: Rc<RefCell<Vec<(usize, f64)>>> = Rc::new(RefCell::new(Vec::new()));
    for (i, &(from, bytes)) in sends.iter().enumerate() {
        let done = Rc::clone(&done);
        protosim::send(
            &mut eng,
            conn,
            from,
            bytes,
            Box::new(move |e| done.borrow_mut().push((i, e.now().as_secs_f64()))),
        );
    }
    eng.run();
    let mut times = done.borrow().clone();
    assert_eq!(times.len(), sends.len(), "every send must complete");
    times.sort_by_key(|&(i, _)| i);
    let delivered = match &eng.world.conns[conn.0] {
        Conn::Tcp(t) => t.bytes_delivered,
        _ => unreachable!(),
    };
    (times.into_iter().map(|(_, t)| t).collect(), delivered)
}

/// Byte conservation: whatever mix of sends is issued, exactly the
/// sum of (max(1, bytes)) crosses the connection.
#[test]
fn tcp_conserves_bytes() {
    for_cases(24, |rng| {
        let n = 1 + rng.next_below(11);
        let sends: Vec<(usize, u64)> = (0..n)
            .map(|_| (rng.next_below(2) as usize, 1 + rng.next_below(199_999)))
            .collect();
        let (_, delivered) = run_tcp(pcs_ga620(), TcpParams::with_bufs(kib(512)), &sends);
        let expect: u64 = sends.iter().map(|&(_, b)| b.max(1)).sum();
        assert_eq!(delivered, expect);
    });
}

/// FIFO per direction: same-direction messages complete in issue order.
#[test]
fn tcp_fifo_per_direction() {
    for_cases(24, |rng| {
        let n = 2 + rng.next_below(8);
        let sends: Vec<(usize, u64)> = (0..n)
            .map(|_| (0usize, 1 + rng.next_below(149_999)))
            .collect();
        let (times, _) = run_tcp(pcs_ga620(), TcpParams::with_bufs(kib(256)), &sends);
        for w in times.windows(2) {
            assert!(w[1] >= w[0], "completion order violated: {times:?}");
        }
    });
}

/// Tiny windows still deliver (the SWS guard cannot deadlock), just
/// slowly.
#[test]
fn tiny_windows_never_deadlock() {
    for_cases(24, |rng| {
        let bytes = 1 + rng.next_below(99_999);
        let window = 1 + rng.next_below(4095);
        let (times, delivered) = run_tcp(pcs_ga620(), TcpParams::with_bufs(window), &[(0, bytes)]);
        assert_eq!(delivered, bytes.max(1));
        assert!(times[0] > 0.0);
    });
}

/// The TrendNet pathology is monotone: for a fixed large transfer,
/// bigger windows never take longer.
#[test]
fn trendnet_window_monotone() {
    for_cases(12, |rng| {
        let w1 = 13 + rng.next_below(7) as u32;
        let w2 = 13 + rng.next_below(7) as u32;
        let (lo, hi) = (1u64 << w1.min(w2), 1u64 << w1.max(w2));
        let (t_lo, _) = run_tcp(pcs_trendnet(), TcpParams::with_bufs(lo), &[(0, 2_000_000)]);
        let (t_hi, _) = run_tcp(pcs_trendnet(), TcpParams::with_bufs(hi), &[(0, 2_000_000)]);
        assert!(t_hi[0] <= t_lo[0] * 1.0001);
    });
}

/// Raw (OS-bypass) transports conserve bytes and keep FIFO order too.
#[test]
fn raw_conserves_bytes() {
    for_cases(24, |rng| {
        let n = 1 + rng.next_below(7);
        let sizes: Vec<u64> = (0..n).map(|_| 1 + rng.next_below(499_999)).collect();
        let mut eng = Fabric::engine(pcs_myrinet());
        let conn = raw::open(&mut eng.world, RawParams::gm(RecvMode::Polling));
        let order: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &bytes) in sizes.iter().enumerate() {
            let order = Rc::clone(&order);
            protosim::send(
                &mut eng,
                conn,
                0,
                bytes,
                Box::new(move |_| order.borrow_mut().push(i)),
            );
        }
        eng.run();
        let expect: u64 = sizes.iter().map(|&b| b.max(1)).sum();
        let delivered = match &eng.world.conns[conn.0] {
            Conn::Raw(r) => r.bytes_delivered,
            _ => unreachable!(),
        };
        assert_eq!(delivered, expect);
        let got: Vec<usize> = order.borrow().clone();
        let want: Vec<usize> = (0..sizes.len()).collect();
        assert_eq!(got, want);
    });
}

/// Local pipes: time scales (weakly) with bytes, and the completion
/// callback always fires.
#[test]
fn local_pipe_monotone() {
    for_cases(24, |rng| {
        let a = 1 + rng.next_below(999_999);
        let b = 1 + rng.next_below(999_999);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let time_for = |bytes: u64| {
            let mut eng = Fabric::engine(pcs_ga620());
            let conn = local::open(&mut eng.world, 0);
            let out = Rc::new(std::cell::Cell::new(None));
            let o = Rc::clone(&out);
            protosim::send(
                &mut eng,
                conn,
                0,
                bytes,
                Box::new(move |e| o.set(Some(e.now().as_secs_f64()))),
            );
            eng.run();
            out.get().expect("completion callback fired")
        };
        assert!(time_for(hi) >= time_for(lo));
    });
}

// ------------------------------------------------------------------
// Closed form vs stepping
// ------------------------------------------------------------------

use std::cell::Cell;

use faultlab::FaultPlan;
use hwmodel::presets::{
    ds20s_syskonnect_jumbo, pcs_ga620_dual, pcs_giganet, pcs_mvia_syskonnect,
    pcs_trendnet as trendnet,
};
use protosim::{instrument, ConnId, Net, NetEvent, Upper};
use simcore::trace::{SpanRec, TraceSink};
use simcore::{SimDuration, SimTime};

/// A sink that records nothing but the instants of dispatched events:
/// installing it turns every closed form off.
#[derive(Default)]
struct Ticks(RefCell<Vec<SimTime>>);

impl TraceSink for Ticks {
    fn span(&self, _: SpanRec) {}
    fn event_dispatched(&self, at: SimTime) {
        self.0.borrow_mut().push(at);
    }
}

/// The layer a run binds above its fabric: a train's last part completes
/// with the event that carries the train's index, logged at its instant.
struct Log(Rc<RefCell<Vec<(usize, SimTime)>>>);

impl Upper<Fabric, NetEvent> for Log {
    fn dispatch(&self, eng: &mut Net, ev: NetEvent) {
        if let NetEvent::Upper { msg, .. } = ev {
            self.0.borrow_mut().push((msg as usize, eng.now()));
        }
    }
}

/// One generated scenario: a cluster, its connections, the sends (each
/// issued at an instant by a closure, or at once), and a fault plan.
#[derive(Debug, Clone)]
struct Scenario {
    spec: hwmodel::ClusterSpec,
    conns: Vec<Transport>,
    /// `(issue instant ns, connection, sending endpoint, bytes)`.
    sends: Vec<(u64, usize, usize, u64)>,
    /// Message trains, issued like the sends.
    trains: Vec<TrainSend>,
    plan: Option<FaultPlan>,
}

/// A message train: issued at `at` ns on connection `conn` from `from`,
/// its first part handed over `lead` ns later.
#[derive(Debug, Clone)]
struct TrainSend {
    at: u64,
    conn: usize,
    from: usize,
    lead: u64,
    spacing: u64,
    part: u64,
    bytes: u64,
}

#[derive(Debug, Clone)]
enum Transport {
    Tcp(TcpParams, usize),
    Raw(RawParams, usize),
}

fn scenario(rng: &mut SimRng) -> Scenario {
    // Sizes on and off the segment and packet grids (1448-byte MSS,
    // 4096-byte GM/Giganet packets, 8972-byte jumbo MSS).
    let size = |rng: &mut SimRng| match rng.next_below(6) {
        0 => 1 + rng.next_below(3000),
        1 => 1 + rng.next_below(70_000),
        2 => [1448, 4096, 8972][rng.next_below(3) as usize] * (1 + rng.next_below(200)),
        3 => 1 << rng.next_below(21),
        _ => 1 + rng.next_below(1 << 20),
    };
    let mut sends: Vec<(u64, usize, usize, u64)> = Vec::new();
    let n_sends = 1 + rng.next_below(5) as usize;
    for _ in 0..n_sends {
        let at = match rng.next_below(3) {
            0 => 0,
            _ => rng.next_below(3_000_000),
        };
        sends.push((at, 0, rng.next_below(2) as usize, size(rng)));
    }
    let largest = sends.iter().map(|s| s.3).max().unwrap_or(1);
    let tcp = |rng: &mut SimRng, channel| {
        // Windows below, at and above the message size, and the
        // non-multiple of the MSS that 32 KiB is.
        let bufs = match rng.next_below(5) {
            0 => kib(32),
            1 => largest.max(1),
            2 => 4 * largest.max(kib(64)),
            3 => kib(8) + rng.next_below(kib(120)),
            _ => 1 + rng.next_below(4096),
        };
        let mut params = TcpParams::with_bufs(bufs);
        params.block_sync_writes = rng.next_below(3) == 0;
        Transport::Tcp(params, channel)
    };
    let (spec, conns) = match rng.next_below(8) {
        0 => (pcs_ga620(), vec![tcp(rng, 0)]),
        1 => (trendnet(), vec![tcp(rng, 0)]),
        2 => (ds20s_syskonnect_jumbo(), vec![tcp(rng, 0)]),
        // Bonded channels: a connection per card, sharing CPU and PCI.
        3 => (pcs_ga620_dual(), vec![tcp(rng, 0), tcp(rng, 1)]),
        4 => (
            pcs_myrinet(),
            vec![
                Transport::Raw(RawParams::gm(RecvMode::Polling), 0),
                tcp(rng, 0),
            ],
        ),
        5 => (
            pcs_myrinet(),
            vec![Transport::Raw(RawParams::gm(RecvMode::Blocking), 0)],
        ),
        6 => (pcs_giganet(), vec![Transport::Raw(RawParams::giganet(), 0)]),
        _ => (
            pcs_mvia_syskonnect(),
            vec![Transport::Raw(RawParams::mvia_sk98lin(), 0)],
        ),
    };
    for send in &mut sends {
        send.1 = rng.next_below(conns.len() as u64) as usize;
    }
    let plan = match rng.next_below(4) {
        0 => Some(FaultPlan::parse(&format!("seed={}", rng.next_below(1000))).expect("plan")),
        1 => Some(
            FaultPlan::parse(&format!(
                "seed={},loss=0.01,dup=0.01,jitter=3us,rto=1ms",
                rng.next_below(1000)
            ))
            .expect("plan"),
        ),
        _ => None,
    };
    Scenario {
        spec,
        conns,
        sends,
        trains: Vec::new(),
        plan,
    }
}

/// A scenario of message trains the way a fragmenting library sends them:
/// parts below, at and above one MSS and off its grid, 1 to 3 000 of
/// them launched 0 to 100 µs apart, over windows below, at and above the
/// part size (smooth, rough, and under p4's block-synchronous writes), on
/// the GA620, TrendNet and jumbo clusters, one way or both ways at once,
/// lossless or lossy.
fn train_scenario(rng: &mut SimRng) -> Scenario {
    let spec = match rng.next_below(3) {
        0 => pcs_ga620(),
        1 => trendnet(),
        _ => ds20s_syskonnect_jumbo(),
    };
    let part = match rng.next_below(5) {
        0 => 4080,
        1 => 1 + rng.next_below(1448),
        2 => 1448 * (1 + rng.next_below(6)),
        3 => 1449 + rng.next_below(20_000),
        _ => 8948 * (1 + rng.next_below(2)) + rng.next_below(3),
    };
    let count = match rng.next_below(4) {
        0 => 1 + rng.next_below(8),
        1 => 1 + rng.next_below(3000),
        _ => 200 + rng.next_below(2800),
    };
    let bytes = part * (count - 1) + 1 + rng.next_below(part);
    let bufs = match rng.next_below(6) {
        0 => (part / 2).max(1),
        1 => part,
        2 => 2 * part,
        3 => kib(16) << rng.next_below(3),
        4 => kib(64),
        _ => kib(256) + rng.next_below(kib(256)),
    };
    let mut params = TcpParams::with_bufs(bufs);
    params.block_sync_writes = rng.next_below(4) == 0;
    let spacing = match rng.next_below(3) {
        0 => 0,
        1 => 6_000,
        _ => rng.next_below(100_001),
    };
    let mut trains = vec![TrainSend {
        at: 0,
        conn: 0,
        from: rng.next_below(2) as usize,
        lead: rng.next_below(20_000),
        spacing,
        part,
        bytes,
    }];
    if rng.next_below(3) == 0 {
        // The other way at once, launched from inside the run.
        let mut back = trains[0].clone();
        back.from = 1 - back.from;
        back.at = rng.next_below(2_000_000);
        back.bytes = part * rng.next_below(count) + 1 + rng.next_below(part);
        trains.push(back);
    }
    let plan = match rng.next_below(5) {
        0 => Some(FaultPlan::parse(&format!("seed={}", rng.next_below(1000))).expect("plan")),
        1 => Some(
            FaultPlan::parse(&format!(
                "seed={},loss=0.002,dup=0.002,jitter=2us,rto=1ms",
                rng.next_below(1000)
            ))
            .expect("plan"),
        ),
        _ => None,
    };
    Scenario {
        spec,
        conns: vec![Transport::Tcp(params, 0)],
        sends: Vec::new(),
        trains,
        plan,
    }
}

/// Everything a run leaves behind that a closed form could get wrong.
#[derive(Debug, PartialEq)]
struct Outcome {
    now: SimTime,
    executed: u64,
    /// `(send index, completion instant)` in completion order.
    done: Vec<(usize, SimTime)>,
    delivered: Vec<u64>,
    /// `(busy_until, items, bytes, busy time)` of every resource.
    resources: Vec<(SimTime, u64, u64, SimDuration)>,
}

struct Run {
    eng: Net,
    done: Rc<RefCell<Vec<(usize, SimTime)>>>,
    conns: Vec<ConnId>,
}

impl Run {
    fn new(sc: &Scenario, sink: Option<Rc<Ticks>>) -> Run {
        let mut eng = Fabric::engine(sc.spec.clone());
        if let Some(sink) = sink {
            instrument(&mut eng, sink);
        }
        if let Some(plan) = &sc.plan {
            eng.world.install_faults(plan.clone());
        }
        let conns: Vec<ConnId> = sc
            .conns
            .iter()
            .map(|t| match t {
                Transport::Tcp(p, ch) => tcp::open_on_channel(&mut eng.world, p.clone(), *ch),
                Transport::Raw(p, ch) => raw::open_on_channel(&mut eng.world, p.clone(), *ch),
            })
            .collect();
        let done: Rc<RefCell<Vec<(usize, SimTime)>>> = Rc::default();
        for (i, &(at, c, from, bytes)) in sc.sends.iter().enumerate() {
            let (conn, done) = (conns[c], Rc::clone(&done));
            let on_done: protosim::Continuation =
                Box::new(move |e: &mut Net| done.borrow_mut().push((i, e.now())));
            if at == 0 {
                protosim::send(&mut eng, conn, from, bytes, on_done);
            } else {
                eng.schedule_at(SimTime(at), move |e| {
                    protosim::send(e, conn, from, bytes, on_done)
                });
            }
        }
        eng.world.bind(Rc::new(Log(Rc::clone(&done))));
        for (j, tr) in sc.trains.iter().enumerate() {
            let (i, conn) = (sc.sends.len() + j, conns[tr.conn]);
            let tr = tr.clone();
            let launch = move |e: &mut Net| {
                let train = protosim::Train {
                    t0: e.now() + SimDuration(tr.lead),
                    spacing: SimDuration(tr.spacing),
                    part: tr.part,
                    bytes: tr.bytes,
                };
                protosim::transmit_train(e, conn, tr.from, train, i as u32, 0);
            };
            if tr.at == 0 {
                launch(&mut eng);
            } else {
                eng.schedule_at(SimTime(tr.at), launch);
            }
        }
        Run { eng, done, conns }
    }

    fn outcome(&self) -> Outcome {
        let w = &self.eng.world;
        let mut resources = Vec::new();
        let mut note = |r: &simcore::Resource| {
            resources.push((
                r.busy_until(),
                r.items_served(),
                r.bytes_served(),
                r.busy_time(),
            ))
        };
        for host in &w.hosts {
            note(&host.cpu);
            note(&host.pci);
            host.nics.iter().for_each(&mut note);
        }
        w.wires.iter().flatten().for_each(&mut note);
        Outcome {
            now: self.eng.now(),
            executed: self.eng.events_executed(),
            done: self.done.borrow().clone(),
            delivered: self
                .conns
                .iter()
                .map(|c| match &w.conns[c.0] {
                    Conn::Tcp(t) => t.bytes_delivered,
                    Conn::Raw(r) => r.bytes_delivered,
                    Conn::Local(l) => l.bytes_delivered,
                })
                .collect(),
            resources,
        }
    }
}

/// The closed form (segment trains advanced at once, silent deliveries
/// settled in place) against stepping, which a trace sink forces: the same
/// completions, clock, executed-event count, delivered bytes and resource
/// accounting — at the end, and at `run_until` and `event_limit` cuts
/// that land mid-train. Stepping one event per `step()` call, with no
/// in-place dispatch at all, also agrees, down to the dispatch instants.
#[test]
fn closed_form_matches_stepping_exactly() {
    let (mut in_place, mut executed) = (0u64, 0u64);
    for_cases(400, |rng| {
        let sc = scenario(rng);
        let (a, b) = three_ways(&sc, rng);
        in_place += a;
        executed += b;
    });
    assert!(
        in_place * 2 > executed,
        "the generator rarely leaves the queue: {in_place} of {executed} events in place"
    );
}

/// Message trains, whose steady state repeats whole periods that the
/// plain run skips: the same three ways and the same cuts, which mostly
/// land inside a skipped stretch.
#[test]
fn skipped_periods_match_stepping_exactly() {
    let (mut in_place, mut executed) = (0u64, 0u64);
    for_cases(160, |rng| {
        let sc = train_scenario(rng);
        let (a, b) = three_ways(&sc, rng);
        in_place += a;
        executed += b;
    });
    // Lossy plans, launches that outpace the window and short trains
    // step; the rest skip.
    assert!(
        in_place * 2 > executed,
        "periods are rarely skipped: {in_place} of {executed} events in place"
    );
}

/// Run `sc` plain (trains in closed form, silent deliveries settled and
/// periods skipped in place), with a no-op sink (every event stepped), and
/// one `step()` at a time: the same completions, clock, executed-event
/// count, delivered bytes and resource accounting — at the end, and at a
/// `run_until` and an `event_limit` cut drawn from `rng` — and the same
/// dispatch instants. Returns the plain run's `(in place, executed)`
/// events.
fn three_ways(sc: &Scenario, rng: &mut SimRng) -> (u64, u64) {
    let closed = || Run::new(sc, None);
    let stepped = || Run::new(sc, Some(Rc::new(Ticks::default())));

    // Whole runs, three ways.
    let mut a = closed();
    a.eng.run();
    let mut b = stepped();
    b.eng.run();
    let ticks_b = Rc::new(Ticks::default());
    let mut c = Run::new(sc, Some(Rc::clone(&ticks_b)));
    let ticks_c = Rc::new(Ticks::default());
    let mut d = Run::new(sc, Some(Rc::clone(&ticks_c)));
    c.eng.run();
    while d.eng.step() {}
    let want = b.outcome();
    assert_eq!(a.outcome(), want, "closed form vs stepping: {sc:?}");
    assert_eq!(d.outcome(), want, "step() vs run(): {sc:?}");
    assert_eq!(*ticks_b.0.borrow(), *ticks_c.0.borrow(), "{sc:?}");
    assert_eq!(ticks_c.0.borrow().len() as u64, want.executed);
    assert!(want.done.len() <= sc.sends.len() + sc.trains.len());

    // Cuts: a horizon and an event budget somewhere inside the run.
    let horizon = SimTime(rng.next_below(want.now.0.max(1)));
    let limit = rng.next_below(want.executed.max(1));
    let (mut a2, mut b2) = (closed(), stepped());
    a2.eng.run_until(horizon);
    b2.eng.run_until(horizon);
    assert_eq!(a2.outcome(), b2.outcome(), "run_until({horizon}): {sc:?}");
    a2.eng.event_limit = a2.eng.events_executed() + limit;
    b2.eng.event_limit = b2.eng.events_executed() + limit;
    a2.eng.run();
    b2.eng.run();
    assert_eq!(a2.outcome(), b2.outcome(), "event_limit {limit}: {sc:?}");
    a2.eng.event_limit = u64::MAX;
    b2.eng.event_limit = u64::MAX;
    a2.eng.run();
    b2.eng.run();
    assert_eq!(a2.outcome(), want, "resumed after the cuts: {sc:?}");
    assert_eq!(b2.outcome(), want, "resumed after the cuts: {sc:?}");
    (a.eng.events_in_place(), want.executed)
}

/// Period skipping engages at all: PVM's 8 MiB fragment stream (4080-byte
/// parts over a 64 KiB GA620 window) executes tens of thousands of events
/// yet pushes a few hundred.
#[test]
fn a_long_fragment_stream_is_mostly_skipped() {
    let mut eng = Fabric::engine(pcs_ga620());
    let conn = tcp::open(&mut eng.world, TcpParams::with_bufs(kib(64)));
    let done = Rc::default();
    eng.world.bind(Rc::new(Log(Rc::clone(&done))));
    let train = protosim::Train {
        t0: SimTime::ZERO,
        spacing: SimDuration::ZERO,
        part: 4080,
        bytes: 8 << 20,
    };
    protosim::transmit_train(&mut eng, conn, 0, train, 0, 0);
    eng.run();
    assert_eq!(done.borrow().len(), 1);
    let queued = eng.events_executed() - eng.events_in_place();
    assert!(
        queued * 20 < eng.events_executed(),
        "{queued} of {} events went through the queue",
        eng.events_executed()
    );
}

/// The closed form engages at all: an 8 MiB transfer over a tuned GA620
/// window executes thousands of events yet pushes a handful.
#[test]
fn a_long_transfer_is_mostly_dispatched_in_place() {
    let mut eng = Fabric::engine(pcs_ga620());
    let conn = tcp::open(&mut eng.world, TcpParams::with_bufs(kib(64)));
    let done = Rc::new(Cell::new(false));
    let flag = Rc::clone(&done);
    tcp::send(
        &mut eng,
        conn,
        0,
        8 << 20,
        Box::new(move |_| flag.set(true)),
    );
    eng.run();
    assert!(done.get());
    let queued = eng.events_executed() - eng.events_in_place();
    assert!(
        queued * 100 < eng.events_executed(),
        "{queued} of {} events went through the queue",
        eng.events_executed()
    );
}
