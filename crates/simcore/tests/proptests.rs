//! Property tests for the simulation kernel invariants that the rest of
//! the workspace relies on.
//!
//! Randomized cases are generated from the crate's own [`SimRng`] with
//! fixed seeds, so every run explores the same case set — failures are
//! reproducible by construction and no external property-test harness
//! is needed.

use simcore::{Engine, Event, OnlineStats, Resource, SimDuration, SimRng, SimTime};

/// Run `f` for `cases` deterministic seeds.
fn for_cases(cases: u64, mut f: impl FnMut(&mut SimRng)) {
    for seed in 0..cases {
        let mut rng = SimRng::new(0xC0FFEE ^ seed);
        f(&mut rng);
    }
}

fn random_vec(rng: &mut SimRng, min_len: u64, max_len: u64, bound: u64) -> Vec<u64> {
    let len = min_len + rng.next_below(max_len - min_len);
    (0..len).map(|_| rng.next_below(bound)).collect()
}

/// Events fire in nondecreasing time order regardless of insertion order.
#[test]
fn event_order_is_total() {
    for_cases(32, |rng| {
        let times = random_vec(rng, 1, 200, 1_000_000);
        let mut eng: Engine<Vec<u64>> = Engine::new(Vec::new());
        for &t in &times {
            eng.schedule_at(SimTime(t), move |e| e.world.push(t));
        }
        eng.run();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(&eng.world, &sorted);
    });
}

/// Same schedule → identical execution trace (determinism).
#[test]
fn runs_are_reproducible() {
    for_cases(32, |rng| {
        let times = random_vec(rng, 1, 100, 1_000_000);
        let run = |ts: &[u64]| {
            let mut eng: Engine<Vec<(u64, u64)>> = Engine::new(Vec::new());
            for (i, &t) in ts.iter().enumerate() {
                let i = i as u64;
                eng.schedule_at(SimTime(t), move |e| {
                    let now = e.now().as_nanos();
                    e.world.push((now, i));
                });
            }
            eng.run();
            eng.world
        };
        assert_eq!(run(&times), run(&times));
    });
}

// ---------------------------------------------------------------------
// Queue order: random event programs against a sort-by-(time, seq) model.
// ---------------------------------------------------------------------

/// How a program node schedules one child.
#[derive(Clone, Copy)]
enum How {
    ClosureAt,
    ClosureIn,
    TypedAt,
    TypedIn,
}

/// One child of a program node: scheduled `how`, `delta` ns from the
/// parent's instant (`back` ns *before* it when `delta` is `None` — a
/// past time the engine clamps to now).
struct Spawn {
    how: How,
    delta: Option<u64>,
    back: u64,
}

/// The children of node `id`: a pure function of `(seed, id)`, so the
/// engine-driven program and the reference model grow the same tree.
fn children(seed: u64, id: u32) -> Vec<Spawn> {
    let mut rng = SimRng::new(seed ^ (u64::from(id) << 20) ^ 0x9E37);
    (0..rng.next_below(4))
        .map(|_| {
            let how = match rng.next_below(4) {
                0 => How::ClosureAt,
                1 => How::ClosureIn,
                2 => How::TypedAt,
                _ => How::TypedIn,
            };
            // Same-instant bursts, short hops (mostly appended to the
            // run), long hops (which later short hops undercut, sending
            // them to the heap), and — in release builds, where the
            // engine clamps instead of asserting — times in the past.
            let (delta, back) = match rng.next_below(8) {
                0 | 1 => (Some(0), 0),
                2..=4 => (Some(rng.next_below(50)), 0),
                5 | 6 => (Some(rng.next_below(5_000)), 0),
                _ if cfg!(debug_assertions) => (Some(1), 0),
                _ => (None, 1 + rng.next_below(500)),
            };
            Spawn { how, delta, back }
        })
        .collect()
}

struct Program {
    seed: u64,
    max_nodes: u32,
    next_id: u32,
    /// `(instant, node)` in dispatch order.
    log: Vec<(u64, u32)>,
}

struct Node(u32);

impl Event<Program> for Node {
    fn dispatch(self, eng: &mut Engine<Program, Node>) {
        fire(eng, self.0);
    }
}

fn fire(eng: &mut Engine<Program, Node>, id: u32) {
    let now = eng.now();
    eng.world.log.push((now.as_nanos(), id));
    for spawn in children(eng.world.seed, id) {
        if eng.world.next_id >= eng.world.max_nodes {
            break;
        }
        let child = eng.world.next_id;
        eng.world.next_id += 1;
        let at = match spawn.delta {
            Some(d) => now + SimDuration(d),
            None => SimTime(now.as_nanos().saturating_sub(spawn.back)),
        };
        // `schedule_in` cannot express a past time; it takes the forward
        // distance (zero for a past one, which is what clamping yields).
        let ahead = at.saturating_since(now);
        match spawn.how {
            How::ClosureAt => eng.schedule_at(at, move |e| fire(e, child)),
            How::ClosureIn => eng.schedule_in(ahead, move |e| fire(e, child)),
            How::TypedAt => eng.schedule_event_at(at, Node(child)),
            How::TypedIn => eng.schedule_event_in(ahead, Node(child)),
        }
    }
}

/// The reference: keep every pending `(time, seq, node)` in a plain list
/// and always dispatch the least. Returns the dispatch log and, for each
/// prefix length `k`, how many events had been scheduled after `k`
/// dispatches (so `pending == scheduled[k] - k`).
fn model(seed: u64, roots: &[(u64, u32)], max_nodes: u32) -> (Vec<(u64, u32)>, Vec<usize>) {
    let mut pending: Vec<(u64, u64, u32)> = Vec::new();
    let mut seq = 0u64;
    for &(t, id) in roots {
        pending.push((t, seq, id));
        seq += 1;
    }
    let mut next_id = roots.len() as u32;
    let mut log = Vec::new();
    let mut scheduled = vec![pending.len()];
    while let Some(pos) = (0..pending.len()).min_by_key(|&i| (pending[i].0, pending[i].1)) {
        let (now, _, id) = pending.swap_remove(pos);
        log.push((now, id));
        for spawn in children(seed, id) {
            if next_id >= max_nodes {
                break;
            }
            let at = match spawn.delta {
                Some(d) => now + d,
                None => now, // clamped
            };
            pending.push((at, seq, next_id));
            seq += 1;
            next_id += 1;
        }
        scheduled.push(log.len() + pending.len());
    }
    (log, scheduled)
}

/// Whatever mix of closures and typed events a program schedules — in
/// order, out of order, in the past, in same-instant bursts, behind a
/// far-future event parked in the sorted run — the engine dispatches in
/// exactly `(time, seq)` order, `pending()` counts both containers, and
/// `run_until` / `event_limit` stop at exactly the model's prefix.
#[test]
fn dispatch_order_matches_sorted_reference() {
    for_cases(96, |rng| {
        let seed = rng.next_u64();
        let max_nodes = 50 + rng.next_below(1_500) as u32;
        let mut roots: Vec<(u64, u32)> = Vec::new();
        if rng.next_below(3) == 0 {
            // Parked first, so it is the run's back from the start and
            // every later event is "earlier than the run's back".
            roots.push((1 << 40, 0));
        }
        for _ in 0..1 + rng.next_below(12) {
            roots.push((rng.next_below(2_000), roots.len() as u32));
        }
        let (want, scheduled) = model(seed, &roots, max_nodes);
        assert!(want.windows(2).all(|w| w[0].0 <= w[1].0));

        let mut eng = Engine::with_events(Program {
            seed,
            max_nodes,
            next_id: roots.len() as u32,
            log: Vec::new(),
        });
        for &(t, id) in &roots {
            if id % 2 == 0 {
                eng.schedule_at(SimTime(t), move |e| fire(e, id));
            } else {
                eng.schedule_event_at(SimTime(t), Node(id));
            }
        }
        let check = |eng: &Engine<Program, Node>, k: usize| {
            assert_eq!(eng.world.log, want[..k], "seed {seed:#x}");
            assert_eq!(eng.events_executed(), k as u64);
            assert_eq!(eng.pending(), scheduled[k] - k, "seed {seed:#x}");
        };
        check(&eng, 0);

        // A few `run_until` boundaries, some landing exactly on an
        // event's instant (which is then included).
        let mut horizon = 0;
        for _ in 0..rng.next_below(4) {
            horizon = match rng.next_below(2) {
                0 => horizon + rng.next_below(3_000),
                _ => want[rng.next_below(want.len() as u64) as usize]
                    .0
                    .max(horizon),
            };
            eng.run_until(SimTime(horizon));
            check(
                &eng,
                want.iter().take_while(|&&(t, _)| t <= horizon).count(),
            );
        }

        // An event limit somewhere in what is left, then the rest.
        let done = eng.world.log.len();
        let limit = done + rng.next_below((want.len() - done) as u64 + 1) as usize;
        eng.event_limit = limit as u64;
        eng.run();
        check(&eng, limit);
        assert!(!eng.step(), "the limit holds until raised");
        eng.event_limit = u64::MAX;
        let end = eng.run();
        check(&eng, want.len());
        assert_eq!(eng.pending(), 0);
        if limit < want.len() {
            assert_eq!(end.as_nanos(), want[want.len() - 1].0);
        }
    });
}

/// A FIFO resource conserves bytes and never overlaps service periods:
/// total busy time equals the sum of individual service times, and each
/// completion is at least `service_time` after the request.
#[test]
fn resource_conservation() {
    for_cases(32, |rng| {
        let n = 1 + rng.next_below(99);
        let mut reqs: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.next_below(1_000_000), 1 + rng.next_below(99_999)))
            .collect();
        let rate = (1 + rng.next_below(9_999)) as f64 * 1e6;
        let mut r = Resource::new("r", rate);
        reqs.sort_by_key(|&(t, _)| t); // callers arrive in time order
        let mut total_bytes = 0u64;
        let mut expected_busy = SimDuration::ZERO;
        let mut last_done = SimTime::ZERO;
        for &(t, bytes) in &reqs {
            let service = r.service_time(bytes);
            let done = r.serve(SimTime(t), bytes);
            // FIFO: completions are nondecreasing.
            assert!(done >= last_done);
            // Completion no earlier than request + service time.
            assert!(done >= SimTime(t) + service);
            last_done = done;
            total_bytes += bytes;
            expected_busy += service;
        }
        assert_eq!(r.bytes_served(), total_bytes);
        assert_eq!(r.busy_time(), expected_busy);
        // The resource can never have been busy longer than the horizon.
        assert!(r.busy_time() <= last_done - SimTime::ZERO);
    });
}

/// for_bytes is monotone in bytes and antitone in rate.
#[test]
fn service_time_monotone() {
    for_cases(64, |rng| {
        let b1 = rng.next_below(1 << 30);
        let b2 = rng.next_below(1 << 30);
        let r = rng.uniform(1.0, 1e12);
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        assert!(SimDuration::for_bytes(lo, r) <= SimDuration::for_bytes(hi, r));
        assert!(SimDuration::for_bytes(hi, r * 2.0) <= SimDuration::for_bytes(hi, r));
    });
}

/// OnlineStats::merge is equivalent to pushing everything sequentially,
/// for any split point.
#[test]
fn stats_merge_associative() {
    for_cases(32, |rng| {
        let n = 1 + rng.next_below(199) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(-1e6, 1e6)).collect();
        let split = rng.next_below(n as u64 + 1) as usize;
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-6);
        assert!((a.variance() - whole.variance()).abs() < 1e-3);
    });
}

/// SimRng::next_below always respects its bound.
#[test]
fn rng_bound_respected() {
    for_cases(64, |rng| {
        let seed = rng.next_u64();
        let bound = 1 + rng.next_below(999_999);
        let mut sampler = SimRng::new(seed);
        for _ in 0..100 {
            assert!(sampler.next_below(bound) < bound);
        }
    });
}
