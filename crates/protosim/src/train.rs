//! Segment trains: the run-length delivery cursor behind each direction
//! of a [`tcp`](crate::tcp) or [`raw`](crate::raw) connection, and the
//! closed form that advances a train of identical segments through the
//! FIFO stages of a transfer at once.
//!
//! # The cursor
//!
//! A transport resolves every segment's delivery instant when it sends
//! the segment, and those instants rise in send order: the last stage a
//! segment crosses is a FIFO [`Resource`]. So a direction's pending
//! deliveries form one sorted sequence, kept here as runs of
//! `(t0, step, count, seg, seq0)`: `count` deliveries of `seg` bytes, the
//! k-th at `t0 + k·step` under the engine sequence number `seq0 + k`. The
//! numbers are [`reserve`](simcore::Engine::reserve)d where one event per
//! segment would be pushed, and only the cursor's front is queued, under
//! its reserved key ([`Cursor::armed`]). When it fires, [`advance`] keeps
//! delivering in place while the engine proves the next delivery is the
//! next event, settling runs that only move counters in O(1). The order
//! of all events, their sequence numbers and the executed-event count
//! stay exactly what one queued event per segment gave.
//!
//! # The closed form
//!
//! A segment crossing stage `i` starts at `max(arrival, busy-until)`. A
//! train of segments of one size, reaching the first stage `Δ` apart, keeps
//! each stage on one branch of that `max` for a computable number of
//! segments: a stage still busy when the next segment arrives hands
//! segments on `dur` apart, and its margin `busy − arrival` moves by
//! `dur − Δ` per segment; a stage idle when it arrives passes the spacing
//! `Δ` through, and stays idle for good iff `dur ≤ Δ`. Each stage's output
//! spacing is the next stage's `Δ`. [`extrapolate`] works out how many more
//! segments keep every stage on its branch; along that stretch every
//! reservation is the last one plus a fixed step, so
//! [`Resource::fast_forward`] lands each stage exactly where stepping the
//! segments one by one would — integer nanoseconds, no rounding.
//!
//! Transports use it only where nothing observes single segments: no
//! tracer, a fault plan that is absent or lossless ([`Leg::closed_form`]),
//! and never from a message's first segment (it carries the syscall or
//! the library's send overhead, so the next one is not identical).

use std::collections::VecDeque;

use simcore::{Resource, SimDuration, SimTime};

use crate::fabric::{Conn, ConnId, Net, NetEvent};

/// `count` deliveries of `seg` bytes: the k-th lands at `t0 + k·step`
/// under sequence number `seq0 + k`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Run {
    pub t0: SimTime,
    pub step: SimDuration,
    pub seq0: u64,
    pub count: u64,
    pub seg: u32,
}

impl Run {
    /// A single delivery.
    pub fn one(at: SimTime, seq: u64, seg: u32) -> Run {
        Run {
            t0: at,
            step: SimDuration::ZERO,
            seq0: seq,
            count: 1,
            seg,
        }
    }

    /// When the `k`-th delivery lands.
    #[inline]
    pub fn at(&self, k: u64) -> SimTime {
        self.t0 + self.step * k
    }

    /// Append `next` if it continues this run: same segment size,
    /// consecutive sequence numbers, and the same spacing (a one-entry run
    /// adopts the gap to `next` as its spacing).
    fn absorb(&mut self, next: &Run) -> bool {
        if next.seg != self.seg || self.seq0 + self.count != next.seq0 {
            return false;
        }
        let step = if self.count == 1 {
            next.t0.saturating_since(self.t0)
        } else {
            self.step
        };
        if self.t0 + step * self.count != next.t0 || (next.count > 1 && next.step != step) {
            return false;
        }
        self.step = step;
        self.count += next.count;
        true
    }

    /// Drop the first `n` deliveries.
    #[inline]
    fn skip(&mut self, n: u64) {
        debug_assert!(n <= self.count);
        self.t0 += self.step * n;
        self.seq0 += n;
        self.count -= n;
    }
}

/// One direction's pending deliveries in time order. The front run is
/// held inline (`count == 0` when none is pending), so a cursor of one
/// run never touches the `VecDeque`.
#[derive(Debug, Default)]
pub(crate) struct Cursor {
    head: Run,
    rest: VecDeque<Run>,
    /// An event for the front delivery is queued under its reserved key,
    /// or the front's own delivery loop is running and will queue it.
    pub armed: bool,
}

impl Cursor {
    /// The front run, if any delivery is pending.
    #[inline]
    pub fn front(&self) -> Option<&Run> {
        (self.head.count > 0).then_some(&self.head)
    }

    /// Whether no delivery is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.count == 0
    }

    /// Append deliveries, later than every pending one.
    #[inline]
    pub fn push(&mut self, run: Run) {
        debug_assert!(run.count > 0);
        if self.head.count == 0 {
            self.head = run;
            return;
        }
        let back = self.rest.back_mut().unwrap_or(&mut self.head);
        debug_assert!(
            (back.at(back.count - 1), back.seq0 + back.count - 1) < (run.t0, run.seq0),
            "deliveries appended out of order"
        );
        if !back.absorb(&run) {
            self.rest.push_back(run);
        }
    }

    /// Take the front delivery's segment length.
    #[inline]
    pub fn pop(&mut self) -> Option<u32> {
        if self.head.count == 0 {
            return None;
        }
        let seg = self.head.seg;
        self.skip(1);
        Some(seg)
    }

    /// The front run, when nothing holds it yet: the caller queues its
    /// first delivery, and the cursor counts as armed from now on.
    #[inline]
    pub fn arm(&mut self) -> Option<Run> {
        if self.armed || self.head.count == 0 {
            return None;
        }
        self.armed = true;
        Some(self.head)
    }

    /// Drop the first `n` deliveries, all of the front run.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.head.skip(n);
        if self.head.count == 0 {
            if let Some(next) = self.rest.pop_front() {
                self.head = next;
            }
        }
    }
}

/// A transport whose directions deliver through a [`Cursor`].
pub(crate) trait Flow {
    /// The event that fires a direction's front delivery.
    fn event(conn: ConnId, dir: usize) -> NetEvent;

    /// This transport's state behind `conn`.
    fn of(conn: &mut Conn) -> &mut Self;

    /// How many of `run`'s first deliveries on `dir` would only move
    /// counters: none completes a message or wakes a sender.
    fn silent(&self, dir: usize, run: &Run) -> u64;

    /// Account `n` such deliveries of `seg` bytes each.
    fn settle(&mut self, dir: usize, n: u64, seg: u64);
}

/// Called by a direction's delivery event after each delivery it made:
/// settle the silent deliveries at the cursor's front that the engine
/// proves come next, in O(1) per run. Returns `true` when the next
/// delivery is due in place — already accounted as executed, for the
/// caller to deliver — and `false` once the front (if any) is queued.
// analyze: hot
pub(crate) fn advance<F: Flow>(eng: &mut Net, conn: ConnId, dir: usize) -> bool {
    loop {
        let cursor = eng.world.cursor(conn, dir);
        let Some(&front) = cursor.front() else {
            cursor.armed = false;
            return false;
        };
        if eng.in_place_budget(front.t0, front.step, front.seq0, 1) == 0 {
            // The loop held the cursor armed; its front goes to the queue.
            eng.schedule_event_keyed(front.t0, front.seq0, F::event(conn, dir));
            return false;
        }
        let silent = match front.count {
            1 => 0,
            _ => {
                let (c, _) = eng.world.conn_and_cursor(conn, dir);
                F::of(c).silent(dir, &front)
            }
        };
        if silent == 0 {
            eng.dispatch_in_place(front.t0, SimDuration::ZERO, 1);
            return true;
        }
        // Settle the silent prefix the engine proves next; if the one
        // after it is proven too, it is due in place.
        let span = front.count.min(silent + 1);
        let budget = eng.in_place_budget(front.t0, front.step, front.seq0, span);
        let quiet = silent.min(budget);
        {
            let (c, cursor) = eng.world.conn_and_cursor(conn, dir);
            F::of(c).settle(dir, quiet, u64::from(front.seg));
            cursor.skip(quiet);
        }
        eng.dispatch_in_place(front.t0, front.step, quiet);
        if quiet < budget {
            eng.dispatch_in_place(front.at(quiet), SimDuration::ZERO, 1);
            return true;
        }
        if quiet < front.count {
            let seq = front.seq0 + quiet;
            eng.schedule_event_keyed(front.at(quiet), seq, F::event(conn, dir));
            return false;
        }
    }
}

/// The shortest train worth the closed form: working it out and
/// fast-forwarding the stages costs about what stepping three segments
/// does, so shorter ones are stepped.
pub(crate) const MIN_TRAIN: u64 = 4;

/// The last segment's crossing of one FIFO stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hop {
    /// When it reached the stage.
    pub arrival: SimTime,
    /// When the stage finished it: the stage's busy-until now.
    pub done: SimTime,
    /// Its service time at the stage.
    pub dur: SimDuration,
}

/// How many more segments, identical to the one that crossed `hops` and
/// reaching the first stage `d_in` after it and each other, keep every
/// stage on its branch of `start = max(arrival, busy)` — at most `cap` —
/// and the spacing of each stage's completions along the train.
pub(crate) fn extrapolate<const N: usize>(
    hops: &[Hop; N],
    d_in: SimDuration,
    cap: u64,
) -> (u64, [SimDuration; N]) {
    let mut n = cap;
    let mut steps = [SimDuration::ZERO; N];
    let mut delta = d_in;
    for (hop, step) in hops.iter().zip(&mut steps) {
        if n == 0 {
            break;
        }
        if hop.done >= hop.arrival + delta {
            // Still busy when the next segment arrives: it leaves `dur`
            // after the last, while its margin moves by `dur - delta`.
            if hop.dur < delta {
                let margin = hop.done - (hop.arrival + delta);
                n = n.min(1 + margin.as_nanos() / (delta - hop.dur).as_nanos());
            }
            *step = hop.dur;
        } else if hop.done == hop.arrival + hop.dur {
            // Idle when each segment arrives (`dur < delta` here), so it
            // passes the arrival spacing through, indefinitely.
            *step = delta;
        } else {
            // Busy for the last segment, idle for the next: the first
            // step differs from the rest. Step it and try again.
            n = 0;
        }
        delta = *step;
    }
    (n, steps)
}

/// Land every stage where `n` more segments of `extrapolate`'s train
/// leave it. `bytes[i]` is what stage `i` accounts per segment.
pub(crate) fn fast_forward<const N: usize>(
    stages: [&mut Resource; N],
    hops: &[Hop; N],
    steps: &[SimDuration; N],
    bytes: [u64; N],
    n: u64,
) {
    for (i, stage) in stages.into_iter().enumerate() {
        debug_assert_eq!(stage.busy_until(), hops[i].done, "{}", stage.name());
        stage.fast_forward(n, steps[i], hops[i].dur, bytes[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;

    fn run(t0: u64, step: u64, seq0: u64, count: u64, seg: u32) -> Run {
        Run {
            t0: SimTime(t0),
            step: SimDuration(step),
            seq0,
            count,
            seg,
        }
    }

    fn drain(c: &mut Cursor) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(&front) = c.front() {
            out.push((front.t0.0, front.seq0, front.seg));
            assert_eq!(c.pop(), Some(front.seg));
        }
        out
    }

    #[test]
    fn singles_merge_into_one_arithmetic_run() {
        let mut c = Cursor::default();
        for k in 0..5 {
            c.push(Run::one(SimTime(100 + 10 * k), 7 + k, 1448));
        }
        assert_eq!(c.front(), Some(&run(100, 10, 7, 5, 1448)));
        assert!(c.rest.is_empty());
        // A closed-form run continuing the spacing joins it too.
        c.push(run(150, 10, 12, 3, 1448));
        assert_eq!(c.front(), Some(&run(100, 10, 7, 8, 1448)));
    }

    #[test]
    fn a_break_in_size_spacing_or_numbering_starts_a_new_run() {
        let mut c = Cursor::default();
        c.push(run(0, 10, 0, 3, 1448));
        c.push(Run::one(SimTime(30), 3, 912)); // other size
        c.push(Run::one(SimTime(45), 4, 912)); // one-entry run adopts 15
        c.push(Run::one(SimTime(55), 5, 912)); // spacing 10 != 15
        c.push(Run::one(SimTime(70), 7, 912)); // seq 6 went to someone else
        c.push(run(80, 4, 8, 2, 912)); // gap 10 from 70, own spacing 4
        assert_eq!(c.front(), Some(&run(0, 10, 0, 3, 1448)));
        assert_eq!(
            c.rest.iter().copied().collect::<Vec<_>>(),
            vec![
                run(30, 15, 3, 2, 912),
                Run::one(SimTime(55), 5, 912),
                Run::one(SimTime(70), 7, 912),
                run(80, 4, 8, 2, 912),
            ]
        );
    }

    #[test]
    fn pop_and_skip_cross_run_boundaries_in_order() {
        let mut c = Cursor::default();
        c.push(run(0, 10, 0, 2, 100));
        c.push(Run::one(SimTime(25), 2, 50));
        c.push(run(40, 5, 3, 3, 100));
        c.skip(1);
        assert_eq!(c.front(), Some(&run(10, 10, 1, 1, 100)));
        c.skip(1);
        assert_eq!(c.front(), Some(&Run::one(SimTime(25), 2, 50)));
        assert_eq!(
            drain(&mut c),
            vec![(25, 2, 50), (40, 3, 100), (45, 4, 100), (50, 5, 100)]
        );
        assert_eq!(c.pop(), None);
        assert!(c.front().is_none());
        // Emptied, it takes a fresh head.
        c.push(Run::one(SimTime(60), 9, 1));
        assert_eq!(drain(&mut c), vec![(60, 9, 1)]);
    }

    /// A FIFO tandem stepped one segment at a time: each stage serves a
    /// segment for `dur[i]` starting at `max(arrival, busy)`; stage `i+1`
    /// sees it `gap[i]` after stage `i` finishes.
    struct Tandem {
        busy: Vec<u64>,
        dur: Vec<u64>,
        gap: Vec<u64>,
    }

    impl Tandem {
        /// Send one segment reaching stage 0 at `at`; its hops.
        fn send(&mut self, at: u64) -> Vec<Hop> {
            let mut arrival = at;
            let mut hops = Vec::new();
            for i in 0..self.busy.len() {
                let done = arrival.max(self.busy[i]) + self.dur[i];
                self.busy[i] = done;
                hops.push(Hop {
                    arrival: SimTime(arrival),
                    done: SimTime(done),
                    dur: SimDuration(self.dur[i]),
                });
                arrival = done + self.gap[i];
            }
            hops
        }
    }

    /// `extrapolate` against stepping: from random stage costs, random
    /// initial backlogs and a random first-stage spacing, every segment
    /// it claims lands at each stage exactly `k` steps on, and the first
    /// segment past its count breaks the pattern at some stage (unless
    /// the cap bound it).
    #[test]
    fn extrapolate_agrees_with_a_stepped_fifo_tandem() {
        const STAGES: usize = 4;
        let mut claimed = 0u64;
        for seed in 0..3000u64 {
            let mut rng = SimRng::new(0x7A1D ^ seed);
            let mut tandem = Tandem {
                busy: (0..STAGES).map(|_| rng.next_below(400)).collect(),
                dur: (0..STAGES).map(|_| rng.next_below(40)).collect(),
                gap: (0..STAGES).map(|_| rng.next_below(3) * 5).collect(),
            };
            let d_in = rng.next_below(50);
            let cap = 1 + rng.next_below(60);
            let mut at = rng.next_below(100);
            // A few stepped segments first, as a transport would send.
            let mut last = tandem.send(at);
            for _ in 0..rng.next_below(4) {
                at += d_in;
                last = tandem.send(at);
            }
            let hops: [Hop; STAGES] = last.clone().try_into().expect("four stages");
            let (n, steps) = extrapolate(&hops, SimDuration(d_in), cap);
            assert!(n <= cap);
            claimed += n;
            let mut broke = false;
            for k in 1..=n + 1 {
                at += d_in;
                let next = tandem.send(at);
                let on_train = (0..STAGES).all(|i| next[i].done == hops[i].done + steps[i] * k);
                if k <= n {
                    assert!(on_train, "seed {seed}: segment {k} of {n} left the train");
                } else {
                    broke = !on_train;
                }
            }
            assert!(
                broke || n == cap || n == 0,
                "seed {seed}: stopped at {n} < cap {cap} though segment {} stayed on",
                n + 1
            );
        }
        assert!(
            claimed > 10_000,
            "the generator rarely forms trains: {claimed}"
        );
    }

    #[test]
    fn fast_forward_lands_where_stepping_does() {
        let mut stepped = [
            Resource::with_overhead("cpu", 125e6, SimDuration(700)),
            Resource::new("wire", 100e6),
        ];
        let mut jumped = stepped.clone();
        let serve = |r: &mut [Resource; 2], at: SimTime| {
            let t1 = r[0].serve(at, 1500);
            let t2 = r[1].serve(t1 + SimDuration(50), 1538);
            [
                Hop {
                    arrival: at,
                    done: t1,
                    dur: r[0].service_time(1500),
                },
                Hop {
                    arrival: t1 + SimDuration(50),
                    done: t2,
                    dur: r[1].service_time(1538),
                },
            ]
        };
        serve(&mut stepped, SimTime(0));
        let hops = serve(&mut jumped, SimTime(0));
        let (n, steps) = extrapolate(&hops, SimDuration::ZERO, 40);
        assert_eq!(n, 40, "a bulk send keeps both stages busy");
        let [a, b] = &mut jumped;
        fast_forward([a, b], &hops, &steps, [1500, 1538], n);
        for _ in 0..n {
            serve(&mut stepped, SimTime(0));
        }
        for (s, j) in stepped.iter().zip(&jumped) {
            assert_eq!(s.busy_until(), j.busy_until());
            assert_eq!(s.items_served(), j.items_served());
            assert_eq!(s.bytes_served(), j.bytes_served());
            assert_eq!(s.busy_time(), j.busy_time());
        }
    }
}
