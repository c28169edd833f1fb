//! Microbenchmarks of the simulation kernel itself: event queue
//! throughput, resource reservations, and RNG — the hot paths every
//! experiment in the workspace multiplies.

use std::hint::black_box;

use bench::microbench;
use simcore::{Engine, Event, Resource, SimDuration, SimRng, SimTime};

/// A 12-byte typed hold event: the largest that keeps the queue record
/// within 40 bytes.
struct RandomHold([u32; 3]);

impl Event<SimRng> for RandomHold {
    fn dispatch(self, e: &mut Engine<SimRng, RandomHold>) {
        let d = 1 + e.world.next_below(1000);
        let [a, b, c] = self.0;
        e.schedule_event_in(SimDuration(d), RandomHold([a.wrapping_add(d as u32), b, c]));
    }
}

/// Reschedules itself `world` ns ahead: behind every pending event.
struct OrderedHold([u32; 3]);

impl Event<u64> for OrderedHold {
    fn dispatch(self, e: &mut Engine<u64, OrderedHold>) {
        let behind_all = SimDuration(e.world);
        let [a, b, c] = self.0;
        e.schedule_event_in(behind_all, OrderedHold([a.wrapping_add(1), b, c]));
    }
}

fn steps<W, E: Event<W>>(eng: &mut Engine<W, E>, ops: u64) -> usize {
    for _ in 0..ops {
        eng.step();
    }
    eng.pending()
}

fn main() {
    let g = microbench::group("event_queue");
    for n in [1_000u64, 10_000, 100_000] {
        g.bench(&format!("schedule_run/{n}"), || {
            let mut eng: Engine<u64> = Engine::new(0);
            for i in 0..n {
                // Reverse order stresses the heap.
                eng.schedule_at(SimTime(n - i), |e| e.world += 1);
            }
            eng.run();
            eng.world
        });
    }

    let g = microbench::group("event_chain");
    g.bench("event_chain_100k", || {
        fn tick(e: &mut Engine<u64>) {
            e.world += 1;
            if e.world < 100_000 {
                e.schedule_in(SimDuration(1), tick);
            }
        }
        let mut eng = Engine::new(0u64);
        eng.schedule_at(SimTime::ZERO, tick);
        eng.run();
        eng.world
    });

    // The hold model (each event reschedules itself a random distance
    // ahead, population constant), closure and typed, and its ordered
    // twin: each event reschedules itself behind everything pending — a
    // transport's in-order segment stream, which the engine's sorted run
    // takes in O(1). 350 and 2 048 pending are a 512 kB TCP window of
    // 1 500-byte segments and an 8 MiB GM message of 4 kB packets.
    const OPS: u64 = 200_000;
    let g = microbench::group("hold");
    for pending in [350u64, 2_048, 100_000] {
        g.bench(&format!("closure_random/{pending}"), || {
            fn hold(e: &mut Engine<SimRng>, words: [u64; 3]) {
                let d = 1 + e.world.next_below(1000);
                let words = [words[0].wrapping_add(d), words[1], words[2]];
                e.schedule_in(SimDuration(d), move |e| hold(e, words));
            }
            let mut eng = Engine::new(SimRng::new(pending));
            for i in 0..pending {
                let at = SimTime(eng.world.next_below(1000));
                eng.schedule_at(at, move |e| hold(e, [i, at.0, 0]));
            }
            steps(&mut eng, OPS)
        });
        g.bench(&format!("typed_random/{pending}"), || {
            let mut eng = Engine::with_events(SimRng::new(pending));
            for i in 0..pending {
                let at = SimTime(eng.world.next_below(1000));
                eng.schedule_event_at(at, RandomHold([i as u32, 0, 0]));
            }
            steps(&mut eng, OPS)
        });
    }
    for pending in [350u64, 2_048] {
        g.bench(&format!("closure_ordered/{pending}"), || {
            fn hold(e: &mut Engine<u64>, words: [u64; 3]) {
                let behind_all = SimDuration(e.world);
                let words = [words[0].wrapping_add(1), words[1], words[2]];
                e.schedule_in(behind_all, move |e| hold(e, words));
            }
            let mut eng = Engine::new(pending);
            for i in 0..pending {
                eng.schedule_at(SimTime(i), move |e| hold(e, [i, 0, 0]));
            }
            steps(&mut eng, OPS)
        });
        g.bench(&format!("typed_ordered/{pending}"), || {
            let mut eng = Engine::with_events(pending);
            for i in 0..pending {
                eng.schedule_event_at(SimTime(i), OrderedHold([i as u32, 0, 0]));
            }
            steps(&mut eng, OPS)
        });
    }

    let g = microbench::group("resource");
    g.bench("resource_serve_1m", || {
        let mut r = Resource::new("wire", 125e6);
        let mut t = SimTime::ZERO;
        for i in 0..1_000_000u64 {
            t = r.serve(t, 1500 + (i & 0xff));
        }
        t
    });

    let g = microbench::group("rng");
    let mut rng = SimRng::new(42);
    g.bench("next_u64_1m", || {
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            acc ^= rng.next_u64();
        }
        black_box(acc)
    });
}
