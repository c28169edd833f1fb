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
//!
//! # Message trains and whole periods
//!
//! A library that fragments a message sends it as one [`Train`] of parts
//! ([`transmit_train`]): typed launches under reserved keys, every part an
//! ordinary transport job, every completion but the last a silent
//! counted event. Once such a stream settles, a TCP direction's state
//! relative to `(now, next_seq)` repeats exactly, part after part or
//! window cycle after window cycle; [`period`] recognises the repeat by
//! its fingerprint and skips whole periods at once.
//!
//! [`Leg::closed_form`]: crate::fabric::Leg::closed_form

use std::collections::VecDeque;

use simcore::{Period, Resource, Served, SimDuration, SimTime};

use crate::fabric::{submit, Conn, ConnId, Done, Net, NetEvent};
use crate::tcp::TcpConn;

/// `count` deliveries of `seg` bytes: the k-th lands at `t0 + k·step`
/// under sequence number `seq0 + k`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) t0: SimTime,
    pub(crate) step: SimDuration,
    pub(crate) seq0: u64,
    pub(crate) count: u64,
    pub(crate) seg: u32,
}

impl Run {
    /// A single delivery.
    pub(crate) fn one(at: SimTime, seq: u64, seg: u32) -> Run {
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
    pub(crate) fn at(&self, k: u64) -> SimTime {
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

/// One direction's pending deliveries in time order, and the keys of its
/// other pending events. The front run is held inline (`count == 0` when
/// none is pending), so a cursor of one run never touches the `VecDeque`.
#[derive(Default)]
pub(crate) struct Cursor {
    head: Run,
    rest: VecDeque<Run>,
    /// An event for the front delivery is queued under its reserved key,
    /// or the front's own delivery loop is running and will queue it.
    pub(crate) armed: bool,
    /// Keys of the queued completions of this direction's silent train
    /// parts ([`Done::Silent`]), in key order.
    pub(crate) silent: VecDeque<(SimTime, u64)>,
    /// Key of the queued window reopen, if any.
    pub(crate) reopen: Option<(SimTime, u64)>,
    /// Events this direction has executed: deliveries, silent
    /// completions and reopens.
    pub(crate) own: u64,
    /// Fingerprints at its last part completions (see [`period`]).
    pub(crate) periods: Option<Box<Periods>>,
}

impl Cursor {
    /// The front run, if any delivery is pending.
    #[inline]
    pub(crate) fn front(&self) -> Option<&Run> {
        (self.head.count > 0).then_some(&self.head)
    }

    /// Whether no delivery is pending.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.head.count == 0
    }

    /// Append deliveries, later than every pending one.
    #[inline]
    pub(crate) fn push(&mut self, run: Run) {
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

    /// Take the front delivery: its segment length and sequence number.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u32, u64)> {
        if self.head.count == 0 {
            return None;
        }
        let front = (self.head.seg, self.head.seq0);
        self.skip(1);
        Some(front)
    }

    /// The front run, when nothing holds it yet: the caller queues its
    /// first delivery, and the cursor counts as armed from now on.
    #[inline]
    pub(crate) fn arm(&mut self) -> Option<Run> {
        if self.armed || self.head.count == 0 {
            return None;
        }
        self.armed = true;
        Some(self.head)
    }

    /// Drop the first `n` deliveries, all of the front run.
    #[inline]
    pub(crate) fn skip(&mut self, n: u64) {
        self.head.skip(n);
        if self.head.count == 0 {
            if let Some(next) = self.rest.pop_front() {
                self.head = next;
            }
        }
    }

    /// The pending runs, front first.
    fn runs(&self) -> impl Iterator<Item = &Run> {
        self.front().into_iter().chain(&self.rest)
    }

    /// Move every pending delivery and event key `dt` later and `dseq`
    /// sequence numbers on.
    fn shift(&mut self, dt: SimDuration, dseq: u64) {
        let runs = std::iter::once(&mut self.head).chain(&mut self.rest);
        for run in runs.filter(|r| r.count > 0) {
            run.t0 += dt;
            run.seq0 += dseq;
        }
        for key in self.silent.iter_mut().chain(&mut self.reopen) {
            key.0 += dt;
            key.1 += dseq;
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
            cursor.own += quiet;
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
    pub(crate) arrival: SimTime,
    /// When the stage finished it: the stage's busy-until now.
    pub(crate) done: SimTime,
    /// Its service time at the stage.
    pub(crate) dur: SimDuration,
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

// ---------------------------------------------------------------------
// Message trains
// ---------------------------------------------------------------------

/// A message handed to its transport as a train of parts (see
/// [`transmit_train`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Train {
    /// When the first part is handed over.
    pub t0: SimTime,
    /// Between one part's hand-off and the next.
    pub spacing: SimDuration,
    /// Bytes in every part but the last.
    pub part: u64,
    /// Bytes in the whole message: `ceil(bytes / part)` parts, at least
    /// one, the last holding what is left.
    pub bytes: u64,
}

/// A train whose last part is not handed over yet.
pub(crate) struct Launches {
    conn: ConnId,
    from: usize,
    train: Train,
    count: u64,
    /// The index of the next part to hand over.
    next: u64,
    /// The sequence number reserved for part 0's launch.
    seq0: u64,
    /// What the last part completes.
    done: Done,
}

/// Send `train.bytes` from endpoint `from` of `conn` as a train of parts,
/// the k-th handed to the transport at `t0 + k·spacing` as a message of
/// its own; the last part's completion is the [`NetEvent::Upper`]
/// carrying `msg` and `step`. Every other part's completion is a silent
/// event: counted, keyed, running nothing. The launches are one typed
/// event under sequence numbers reserved here, dispatched in place while
/// the engine proves each is next.
pub fn transmit_train(eng: &mut Net, conn: ConnId, from: usize, train: Train, msg: u32, step: u8) {
    assert!(train.part > 0, "a train of empty parts");
    let count = train.bytes.div_ceil(train.part).max(1);
    let seq0 = eng.reserve(count);
    let slot = eng.world.trains.park(Launches {
        conn,
        from,
        train,
        count,
        next: 0,
        seq0,
        done: Done::Upper { msg, step },
    });
    eng.schedule_event_keyed(train.t0, seq0, NetEvent::Launch { slot });
}

/// A train's next part is due: hand it over, and the parts after it in
/// place while the engine proves each is the next event — those a
/// window-stalled sender would only queue all at once.
// Cold beside the event dispatch that calls it: kept out of line.
#[inline(never)]
pub(crate) fn on_launch(eng: &mut Net, slot: u32) {
    loop {
        let l = eng.world.trains.get_mut(slot);
        let (conn, from, part, spacing) = (l.conn, l.from, l.train.part, l.train.spacing);
        l.next += 1;
        if l.next == l.count {
            let l = eng.world.trains.take(slot);
            let last = l.train.bytes - (l.count - 1) * part;
            return submit(eng, conn, from, last, l.done);
        }
        submit(eng, conn, from, part, Done::Silent);
        let l = eng.world.trains.get_mut(slot);
        let ((at, seq), quiet) = (l.key(), l.count - 1 - l.next);
        let n = eng.in_place_budget(at, spacing, seq, quiet);
        if n > 1 && crate::tcp::queue_stalled(&mut eng.world, conn, from, part, n) {
            eng.dispatch_in_place(at, spacing, n);
            eng.world.trains.get_mut(slot).next += n;
        }
        let (at, seq) = eng.world.trains.get_mut(slot).key();
        if eng.in_place_budget(at, SimDuration::ZERO, seq, 1) == 0 {
            eng.schedule_event_keyed(at, seq, NetEvent::Launch { slot });
            return;
        }
        eng.dispatch_in_place(at, SimDuration::ZERO, 1);
    }
}

impl Launches {
    /// The key of the next launch: its instant and reserved sequence
    /// number.
    fn key(&self) -> (SimTime, u64) {
        let next = self.next;
        (self.train.t0 + self.train.spacing * next, self.seq0 + next)
    }
}

// ---------------------------------------------------------------------
// Whole periods
// ---------------------------------------------------------------------

/// How many part completions back a period may reach: a smooth window
/// repeats every part, a rough one once per stall/reopen cycle.
const DEPTH: usize = 32;

/// The fewest parts a direction must hold before its completions are
/// fingerprinted: a shorter train rarely outlasts its transient.
pub(crate) const MIN_PARTS: usize = 2 * DEPTH;

/// Absolute readings at one fingerprint, whose differences are a
/// period's deltas.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    now: SimTime,
    seq: u64,
    executed: u64,
    own: u64,
    delivered: u64,
    stages: [Served; 6],
}

/// One completion's fingerprint: the hash of its short prefix (the
/// signature), and — once that signature had been seen before — the hash
/// and words of the whole of it.
#[derive(Default)]
struct Mark {
    sig: u64,
    full: Option<u64>,
    words: Vec<u64>,
    tally: Tally,
}

fn hash(words: &[u64]) -> u64 {
    let mut h = 0u64;
    for &w in words {
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
    h
}

/// The fingerprints of one direction's state at its last [`DEPTH`] part
/// completions, newest last, in a ring of reused buffers.
///
/// Most completions of a transient differ already in a few words (a
/// backlog draining, a window filling), so each is taken in two steps:
/// its signature, a short prefix, always; the rest only when an earlier
/// completion had the same signature. A period is confirmed against a
/// whole earlier fingerprint, so it is found one period after its state
/// first repeats.
#[derive(Default)]
pub(crate) struct Periods {
    marks: Vec<Mark>,
    /// Where the next mark goes.
    next: usize,
    /// How many marks are valid.
    len: usize,
    /// The fingerprint being taken.
    words: Vec<u64>,
}

impl Periods {
    /// Drop every mark: the next completion starts a fresh history.
    fn forget(&mut self) {
        self.len = 0;
    }

    /// The marks newest first, with how many completions back each is.
    fn back(&self) -> impl Iterator<Item = (usize, &Mark)> {
        (1..=self.len).map(|p| (p, &self.marks[(self.next + DEPTH - p) % DEPTH]))
    }

    /// Whether an earlier completion's signature is `sig`.
    fn seen(&self, sig: u64) -> bool {
        self.back().any(|(_, m)| m.sig == sig)
    }

    /// Keep the fingerprint in `self.words` — its signature `sig`, and
    /// the whole of it when `full` — as the newest mark; return the whole
    /// fingerprint it repeats, `p` completions back, with `p`.
    fn record(&mut self, sig: u64, full: bool, tally: Tally) -> Option<(usize, Tally)> {
        let full = full.then(|| hash(&self.words));
        let found = full.and_then(|h| {
            self.back()
                .find(|(_, m)| m.full == Some(h) && m.words == self.words)
                .map(|(p, m)| (p, m.tally))
        });
        if self.marks.len() < DEPTH {
            self.marks.push(Mark::default());
        }
        let m = &mut self.marks[self.next];
        std::mem::swap(&mut m.words, &mut self.words);
        (m.sig, m.full, m.tally) = (sig, full, tally);
        self.next = (self.next + 1) % DEPTH;
        self.len = (self.len + 1).min(DEPTH);
        found
    }
}

/// At a silent part's completion on direction `dir` of `conn`, inside the
/// delivery keyed `(now, run_seq)`: fingerprint the direction, and when
/// the state repeats the one `p` completions back, skip as many whole
/// periods of `p` parts as the train and the engine allow.
///
/// The fingerprint holds, relative to `(now, next_seq)`, everything the
/// direction's future depends on while only its own events run: the six
/// stages' backlogs (an idle stage as 0), the transport's window and job
/// state ([`TcpConn::period_words`]), the delivery cursor's runs, the keys of
/// its queued silent completions and reopen, and the running delivery's
/// own key. Equal to an earlier one, it is a fixed point of the period
/// map — the model is invariant under shifting every instant and every
/// sequence number alike — so the future repeats the period exactly for
/// as long as the parts ahead are identical and nothing else runs. The
/// period must have run only this direction's events; a skip must not
/// reach the train's last part, nor pass any other queued event, the
/// horizon or `event_limit` ([`simcore::Engine::periods_budget`]).
/// Nothing observes single segments here
/// ([`Leg::closed_form`](crate::fabric::Leg)).
// Cold beside the per-delivery path that calls it: kept out of line.
#[inline(never)]
pub(crate) fn period(eng: &mut Net, conn: ConnId, dir: usize, run_seq: u64) {
    let (now, next, executed) = (eng.now(), eng.next_seq(), eng.events_executed());
    let (tally, (parts, then)) = {
        let (c, mut leg) = eng.world.leg(conn, dir);
        if !leg.closed_form() {
            return;
        }
        let tcp = TcpConn::of(c);
        let stages = leg
            .stages(tcp.channel, dir)
            .map(|s| (s.busy_until(), s.served()));
        let cursor = &mut *leg.cursor;
        let mut per = cursor.periods.take().unwrap_or_default();
        per.words.clear();
        if !tcp.period_words(dir, &mut per.words) {
            per.forget();
            cursor.periods = Some(per);
            return;
        }
        let w = &mut per.words;
        let rel = |t: SimTime| t.saturating_since(now).as_nanos();
        w.extend(stages.iter().map(|&(busy, _)| rel(busy)));
        w.extend([next - run_seq, cursor.rest.len() as u64]);
        w.extend([cursor.silent.len() as u64, cursor.reopen.is_some().into()]);
        let sig = hash(w);
        let full = per.seen(sig);
        if full {
            let w = &mut per.words;
            for r in cursor.runs() {
                w.extend([rel(r.t0), r.step.as_nanos(), next - r.seq0, r.count]);
                w.push(r.seg.into());
            }
            for &(t, seq) in cursor.silent.iter().chain(&cursor.reopen) {
                w.extend([rel(t), next - seq]);
            }
        }
        let tally = Tally {
            now,
            seq: next,
            executed,
            own: cursor.own,
            delivered: tcp.bytes_delivered,
            stages: stages.map(|(_, served)| served),
        };
        let found = per.record(sig, full, tally);
        cursor.periods = Some(per);
        match found {
            Some(found) => (tally, found),
            None => return,
        }
    };
    let period = Period {
        time: now - then.now,
        seqs: next - then.seq,
        events: executed - then.executed,
    };
    if tally.own - then.own != period.events {
        // Something else ran in between: not this direction's period.
        return;
    }
    let (c, cursor) = eng.world.conn_and_cursor(conn, dir);
    let n = TcpConn::of(c).parts_left(dir) / parts as u64;
    if n == 0 {
        return;
    }
    // Take this direction's queued events back out of the queue: they are
    // the next to fire, or a skip would cross something else.
    let mut keys: Vec<_> = cursor
        .silent
        .iter()
        .chain(&cursor.reopen)
        .copied()
        .collect();
    keys.sort_unstable();
    // Reached once a fingerprint has matched, about once per message,
    // not per delivery.
    let mut taken = Vec::with_capacity(keys.len());
    for &(t, seq) in &keys {
        match eng.take_keyed(t, seq) {
            Some(ev) => taken.push((t, seq, ev)),
            None => break,
        }
    }
    let m = if taken.len() == keys.len() {
        eng.periods_budget(run_seq, period, n)
    } else {
        0
    };
    let (dt, dseq) = (period.time * m, period.seqs * m);
    if m > 0 {
        eng.dispatch_periods(period, m);
        let (c, mut leg) = eng.world.leg(conn, dir);
        let tcp = TcpConn::of(c);
        tcp.skip_parts(
            dir,
            parts * m as usize,
            (tally.delivered - then.delivered) * m,
        );
        let stages = leg.stages(tcp.channel, dir);
        for ((stage, now), then) in stages.into_iter().zip(tally.stages).zip(then.stages) {
            let mut per = now.since(&then);
            // A stage served in the period ends each one `time` later.
            per.shift = if per.items > 0 {
                period.time
            } else {
                SimDuration::ZERO
            };
            stage.repeat(m, &per);
        }
        leg.cursor.shift(dt, dseq);
        leg.cursor.own += period.events * m;
        if let Some(per) = &mut leg.cursor.periods {
            per.forget();
        }
    }
    for (t, seq, ev) in taken {
        eng.schedule_event_keyed(t + dt, seq + dseq, ev);
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
            assert_eq!(c.pop(), Some((front.seg, front.seq0)));
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

    /// Record `words` whole, with the first word as its signature.
    fn mark(per: &mut Periods, words: &[u64], now: u64) -> Option<(usize, u64)> {
        per.words.clear();
        per.words.extend_from_slice(words);
        let tally = Tally {
            now: SimTime(now),
            ..Tally::default()
        };
        let sig = words.first().copied().unwrap_or(0);
        per.record(sig, true, tally)
            .map(|(p, then)| (p, then.now.0))
    }

    #[test]
    fn a_signature_alone_never_confirms_a_period() {
        let mut per = Periods::default();
        let tally = Tally::default();
        per.words.extend([7, 8, 9]);
        assert!(!per.seen(7));
        assert_eq!(per.record(7, false, tally).map(|(p, _)| p), None);
        assert!(per.seen(7));
        // The same state again, taken whole: nothing whole to confirm it.
        per.words.extend([7, 8, 9]);
        assert_eq!(per.record(7, true, tally).map(|(p, _)| p), None);
        // Once more: now it repeats the whole one, one completion back.
        per.words.extend([7, 8, 9]);
        assert_eq!(per.record(7, true, tally).map(|(p, _)| p), Some(1));
    }

    #[test]
    fn a_fingerprint_repeats_only_when_every_word_does() {
        let base: Vec<u64> = (0..24).map(|w| 1000 + 7 * w).collect();
        for i in 0..base.len() {
            for delta in [1, 1 << 40] {
                let mut per = Periods::default();
                assert_eq!(mark(&mut per, &base, 10), None);
                let mut other = base.clone();
                other[i] ^= delta;
                assert_eq!(mark(&mut per, &other, 20), None, "word {i} changed");
                // The original again: a period of two completions.
                assert_eq!(mark(&mut per, &base, 30), Some((2, 10)));
                // A fingerprint one word longer or shorter is another one.
                assert_eq!(mark(&mut per, &base[..i], 40), None);
            }
        }
        // Equal hashes are confirmed word by word.
        let mut per = Periods::default();
        mark(&mut per, &base, 10);
        per.marks[0].words[3] += 1;
        assert_eq!(mark(&mut per, &base, 20), None);
        assert_eq!(mark(&mut per, &base, 30), Some((1, 20)));
    }

    #[test]
    fn fingerprints_reach_back_depth_completions_and_forget_resets() {
        let mut per = Periods::default();
        for k in 0..DEPTH as u64 {
            assert_eq!(mark(&mut per, &[k], k), None);
        }
        // The oldest mark is still within reach...
        assert_eq!(mark(&mut per, &[0], 99), Some((DEPTH, 0)));
        // ...and now overwritten: `[1]` is DEPTH back, `[0]` one back.
        assert_eq!(mark(&mut per, &[1], 100), Some((DEPTH, 1)));
        per.forget();
        assert_eq!(mark(&mut per, &[1], 101), None);
        assert_eq!(mark(&mut per, &[1], 102), Some((1, 101)));
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
