//! The simulated backend: run a schedule over N simulated ranks.
//!
//! A run has two halves. The timing half ([`time_sim`]) carries each
//! message as a length: every rank gets a round cursor, and rounds
//! advance event-driven over [`mpsim::Mailboxes`] on the
//! switched [`protosim::multinode`] fabric, all in one world. The driver
//! is the layer bound above the fabric, and every hop of every message,
//! every round start and every timed fault is a typed [`MultiEvent`],
//! so a message allocates nothing once its slots are warm. Every cost
//! the model charges is per message or per byte, so no payload bytes
//! move: each send's length comes from [`crate::op::send_len`], once
//! per epoch, from the per-rank contribution lengths.
//!
//! The data half is [`crate::exec::run_local`] itself. [`run_sim`]
//! times the run, then replays the final epoch's schedule over its
//! survivors and keeps the outputs of exactly the ranks that finished.
//! That is sound because a validated schedule's message contents
//! depend only on the schedule and the inputs: a rank that finishes got
//! the bytes it would have got with no faults. The simulation decides
//! *when* things happen, never *what*.
//!
//! Faults come in three flavours: a list of [`RankFault`]s (kills at
//! time zero, per-rank degradation), a full [`faultlab::FaultPlan`]
//! (timed `kill-rank=R@T` deaths and fabric-wide degrade windows), and
//! — when a [`RecoveryPolicy`] is armed — the self-healing cycle of
//! [`crate::recovery`]: detect the stall, evict the dead rank, replan
//! over the survivors, resume. Without recovery a rank death still ends
//! as a bounded *partial* report, never a hang.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use faultlab::{DegradeWindow, FaultPlan};
use hwmodel::ClusterSpec;
use mpsim::LibProfile;
use mpsim::Mailboxes;
use protosim::multinode::{MultiEngine, MultiEvent, MultiNet};
use protosim::Slots;
use protosim::Upper;
use simcore::trace::{stages, SharedSink, SpanRec};
use simcore::units::us_to_secs;
use simcore::{SimDuration, SimTime};

use crate::exec::{actual_rank, run_local, virtual_rank, ExecCtx};
use crate::lifecycle::{step, CollRound};
use crate::op::{send_len, CollOp};
use crate::plan::{auto_algorithm, build, Algorithm};
use crate::recovery::{EpochRecord, Membership, RecoveryPolicy, RecoveryReport};
use crate::schedule::{idx32, Builder, Schedule};
use crate::state::CollOutput;

/// Trace track carrying rank `rank`'s collective-round spans, disjoint
/// from the per-resource hardware tracks.
pub(crate) fn coll_track(rank: usize) -> u32 {
    (1 << 16) + rank as u32
}

/// A per-rank fault to inject into a simulated collective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankFault {
    /// The rank never starts its schedule. Without recovery its peers
    /// stall and the run ends partial instead of hanging; with recovery
    /// the rank is evicted and the survivors complete.
    Dead(usize),
    /// The rank pays `extra_us` microseconds of CPU per send.
    Degrade {
        /// Victim rank.
        rank: usize,
        /// Added per-send CPU microseconds.
        extra_us: f64,
    },
}

/// Optional knobs for a simulated run.
#[derive(Default)]
pub struct SimOptions {
    /// Emit per-round spans (stage [`stages::COLL_ROUND`], track
    /// `coll_track`) to this sink.
    pub trace: Option<SharedSink>,
    /// Rank faults to inject; any number, so multi-failure scenarios
    /// are expressible.
    pub faults: Vec<RankFault>,
    /// A full fault plan: its `kill-rank=R@T` clauses become timed rank
    /// deaths and its degrade windows stretch every send issued while
    /// open. The plan's wire-level knobs (loss/dup/reorder/jitter) are
    /// not modelled on the multi-rank fabric.
    pub plan: Option<FaultPlan>,
    /// Arm the self-healing cycle: detect stalls, evict dead ranks,
    /// replan over survivors (see `crate::recovery`).
    pub recovery: Option<RecoveryPolicy>,
}

impl SimOptions {
    /// Options injecting a single fault — the common chaos-sweep shape.
    pub fn with_fault(fault: RankFault) -> SimOptions {
        SimOptions {
            faults: vec![fault],
            ..SimOptions::default()
        }
    }
}

/// What the timing half of a simulated run produced: a [`SimReport`]
/// without the outputs.
#[derive(Debug)]
pub struct SimTiming {
    /// Simulated seconds until the last completing rank finished.
    pub seconds: f64,
    /// Logical events executed (work proxy for events/sec); a
    /// symmetric run counts every rank's.
    pub events: u64,
    /// Per-rank completion times, seconds; `None` if unfinished.
    pub finish_secs: Vec<Option<f64>>,
    /// Count of ranks that completed their whole plan.
    pub completed: usize,
    /// What the self-healing cycle did; `Some` exactly when a
    /// [`RecoveryPolicy`] was armed (empty epochs on a clean run).
    pub recovery: Option<RecoveryReport>,
}

impl SimTiming {
    /// True when every rank completed.
    pub fn all_completed(&self) -> bool {
        self.completed == self.finish_secs.len()
    }
}

/// What a simulated collective run produced.
#[derive(Debug)]
pub struct SimReport {
    /// Simulated seconds until the last completing rank finished.
    pub seconds: f64,
    /// Logical events executed (work proxy for events/sec); a
    /// symmetric run counts every rank's.
    pub events: u64,
    /// Per-rank outputs; `None` for ranks that never finished.
    pub outputs: Vec<Option<CollOutput>>,
    /// Per-rank completion times, seconds; `None` if unfinished.
    pub finish_secs: Vec<Option<f64>>,
    /// Count of ranks that completed their whole plan.
    pub completed: usize,
    /// What the self-healing cycle did; `Some` exactly when a
    /// [`RecoveryPolicy`] was armed (empty epochs on a clean run).
    pub recovery: Option<RecoveryReport>,
}

impl SimReport {
    /// True when every rank completed.
    pub fn all_completed(&self) -> bool {
        self.completed == self.outputs.len()
    }

    /// True when every rank *not evicted by recovery* completed — the
    /// best possible outcome once a rank has died.
    pub fn all_survivors_completed(&self) -> bool {
        let evicted = self.recovery.as_ref().map_or(0, |r| r.evicted.len());
        self.completed + evicted == self.outputs.len()
    }
}

/// What a posted receive completes: receive `slot` of rank `rank`'s
/// current round, whose arrival is `Driver::arrived[recv]`.
#[derive(Debug, Clone, Copy)]
struct RecvSlot {
    rank: u32,
    slot: u32,
    recv: u32,
}

struct RankRun {
    life: CollRound,
    /// Rounds completed.
    round: usize,
    /// The current round and the rest, by [`Schedule::round`] index.
    rounds: Range<usize>,
    /// Receives still outstanding in the current round.
    waiting: usize,
    round_start: SimTime,
    finish: Option<SimTime>,
}

/// Per-epoch recovery runtime: the membership machines plus this
/// epoch's verdicts.
struct RecoveryRt {
    policy: RecoveryPolicy,
    /// World-indexed membership machines, carried across epochs.
    member: Vec<Membership>,
    /// Set once a rank is evicted; the epoch then drains and replans.
    aborted: bool,
    evicted: Option<usize>,
    evict_at_us: f64,
    suspects_cleared: usize,
}

impl RecoveryRt {
    /// Proof of life for a suspect: step it back to `Active`.
    fn clear_if_suspect(&mut self, rank: usize) {
        if let Membership::Suspect(suspect) = self.member[rank] {
            self.member[rank] = suspect.proof().resume().into();
            self.suspects_cleared += 1;
        }
    }
}

/// How many times one round's recv deadline re-arms before giving up on
/// detection (a stall that outlives this without any rank dying is a
/// planner bug, not a failure to recover from).
const MAX_DEADLINE_REARMS: u32 = 64;

/// An armed recv deadline: rank `rank` waits in round `round`.
struct Deadline {
    rank: usize,
    round: usize,
    rearms: u32,
}

/// One epoch's schedule as the driver reads it: the schedule, the
/// group rank its virtual rank 0 sits at, and every send's length,
/// parallel to the schedule's send table.
struct Plan {
    schedule: Schedule,
    root: usize,
    lens: Vec<u64>,
}

impl Plan {
    /// `schedule` rooted at group rank `root`, each send sized from the
    /// group-indexed contribution `lengths`.
    fn new(schedule: Schedule, root: usize, lengths: &[u64]) -> Plan {
        let n = schedule.nranks;
        let mut lens = Vec::with_capacity(schedule.total_messages());
        let block = |v: u32| lengths[actual_rank(v as usize, root, n)];
        for v in 0..n {
            let acc = lengths[actual_rank(v, root, n)];
            for (sends, _) in schedule.rounds(v) {
                lens.extend(sends.iter().map(|s| send_len(s.what, n, acc, block)));
            }
        }
        Plan {
            schedule,
            root,
            lens,
        }
    }

    /// The two-rank quotient of `schedule` over the contribution
    /// `lengths`, or `None` if it is not symmetric. It is symmetric when
    /// all contributions have one length; every rank has the same number
    /// of rounds, each of exactly one send and one receive; in round `k`
    /// every rank receives from the rank whose send targets it, so the
    /// sends form a permutation; and all of round `k`'s sends have one
    /// length. Each is a property of the schedule alone, whatever the
    /// root's rotation. Both ranks of the quotient get rank 0's rounds,
    /// every peer mapped to the other rank.
    fn quotient(schedule: &Schedule, lengths: &[u64]) -> Option<Plan> {
        let n = schedule.nranks;
        let len = lengths[0];
        if lengths.iter().any(|&l| l != len) {
            return None;
        }
        let depth = schedule.permutation_depth()?;
        let sized = |what| send_len(what, n, len, |_| len);
        // Each send against rank 0's send of the same round.
        let sends = schedule.sends();
        let mut pairs = sends.iter().zip(sends[..depth].iter().cycle());
        if !pairs.all(|(s, s0)| s.what == s0.what || sized(s.what) == sized(s0.what)) {
            return None;
        }
        let quotient = Builder::plan(schedule.op, schedule.algorithm, 2, |b, v| {
            for (sends, recvs) in schedule.rounds(0) {
                b.round()
                    .send(1 - v, sends[0].what)
                    .recv(1 - v, recvs[0].what);
            }
        });
        let rank0 = || sends[..depth].iter().map(|s| sized(s.what));
        let lens = rank0().chain(rank0()).collect();
        Some(Plan {
            schedule: quotient,
            root: 0,
            lens,
        })
    }

    /// Number of ranks the plan runs.
    fn ranks(&self) -> usize {
        self.schedule.nranks
    }

    /// The group rank of virtual rank `v`.
    fn peer(&self, v: u32) -> usize {
        actual_rank(v as usize, self.root, self.ranks())
    }

    /// Group rank `g`'s rounds by [`Schedule::round`] index.
    fn rounds(&self, g: usize) -> Range<usize> {
        self.schedule
            .round_ids(virtual_rank(g, self.root, self.ranks()))
    }

    /// The lengths of round `i`'s sends.
    fn lens(&self, i: usize) -> &[u64] {
        &self.lens[self.schedule.send_ids(i)]
    }
}

/// The survivors' carry between epochs: world-indexed kill switches,
/// membership machines and bcast payload holders.
#[derive(Default)]
struct Carry {
    killed: Vec<bool>,
    member: Vec<Membership>,
    /// Who holds the bcast payload (empty for other ops): the root, and
    /// every rank that completed a receiving round. Every holder holds
    /// the original root's bytes.
    holders: Vec<bool>,
}

/// One epoch's layer above the fabric: the session's mailboxes and
/// every rank's round cursor, driven by [`MultiEvent`]s.
struct Driver {
    plan: Rc<Plan>,
    sess: Mailboxes<RecvSlot>,
    ranks: Vec<RankRun>,
    /// Lengths arrived, parallel to the schedule's receive table.
    arrived: Vec<Option<u64>>,
    trace: Option<SharedSink>,
    /// Group index → world rank (identity in the original epoch).
    world: Vec<usize>,
    /// World-indexed kill switches, flipped by timed kill events.
    killed: Vec<bool>,
    /// World-indexed bcast payload holders (see [`Carry::holders`]).
    holders: Vec<bool>,
    /// Simulated time spent in earlier epochs (trace offset).
    base: SimDuration,
    recovery: Option<RecoveryRt>,
    deadlines: Slots<Deadline>,
}

/// The [`Driver`] as the fabric holds it.
struct Epoch(RefCell<Driver>);

impl Upper<MultiNet, MultiEvent> for Epoch {
    fn dispatch(&self, eng: &mut MultiEngine, ev: MultiEvent) {
        self.0.borrow_mut().dispatch(eng, ev);
    }
}

impl Driver {
    /// An untraced driver for one epoch of `plan` over the (possibly
    /// compacted) group `world`, starting at time zero, taking the carry.
    fn new(
        profile: &LibProfile,
        plan: Plan,
        world: Vec<usize>,
        carry: Carry,
        policy: Option<RecoveryPolicy>,
    ) -> Driver {
        let m = plan.ranks();
        Driver {
            sess: Mailboxes::new(profile.clone(), m),
            ranks: (0..m)
                .map(|g| RankRun {
                    life: CollRound::initial(),
                    round: 0,
                    rounds: plan.rounds(g),
                    waiting: 0,
                    round_start: SimTime::ZERO,
                    finish: None,
                })
                .collect(),
            arrived: vec![None; plan.schedule.total_receives()],
            plan: Rc::new(plan),
            trace: None,
            world,
            killed: carry.killed,
            holders: carry.holders,
            base: SimDuration::ZERO,
            recovery: policy.map(|policy| RecoveryRt {
                policy,
                member: carry.member,
                aborted: false,
                evicted: None,
                evict_at_us: 0.0,
                suspects_cleared: 0,
            }),
            deadlines: Slots::default(),
        }
    }

    fn dispatch(&mut self, eng: &mut MultiEngine, ev: MultiEvent) {
        match ev {
            MultiEvent::SendReady { msg } => self.sess.send_ready(eng, msg),
            MultiEvent::Landed { msg } => self.sess.landed(eng, msg),
            MultiEvent::Deliver { msg } => {
                if let Some((to, bytes)) = self.sess.deliver(msg) {
                    self.on_arrival(eng, to, bytes);
                }
            }
            MultiEvent::Arrive { msg } => {
                let (to, bytes) = self.sess.arrive(msg);
                self.on_arrival(eng, to, bytes);
            }
            MultiEvent::StartRound { rank } => self.start_round(eng, rank as usize),
            MultiEvent::Kill { rank } => self.killed[rank as usize] = true,
            MultiEvent::Deadline { slot } => {
                let d = self.deadlines.take(slot);
                self.check_deadline(eng, d);
            }
            MultiEvent::Evict { rank } => self.check_eviction(eng, rank as usize),
            MultiEvent::Segment { .. } | MultiEvent::Resume { .. } => {}
        }
    }

    /// Epoch-local time shifted onto the whole-run timeline.
    fn abs(&self, t: SimTime) -> SimTime {
        t + self.base
    }

    fn dead(&self, g: usize) -> bool {
        self.killed[self.world[g]]
    }

    fn aborted(&self) -> bool {
        self.recovery.as_ref().is_some_and(|rt| rt.aborted)
    }

    /// Enter `rank`'s next round: post receives, issue sends. A round
    /// with no receives completes immediately.
    fn start_round(&mut self, eng: &mut MultiEngine, rank: usize) {
        if self.dead(rank) || self.aborted() {
            return;
        }
        let plan = Rc::clone(&self.plan);
        loop {
            let r = &mut self.ranks[rank];
            let Some(i) = r.rounds.clone().next() else {
                r.finish = Some(eng.now());
                if let Some(t) = &self.trace {
                    t.instant(
                        stages::COLL_DONE,
                        coll_track(self.world[rank]),
                        self.abs(eng.now()),
                        0,
                        self.world[rank] as u64,
                    );
                }
                return;
            };
            let (sends, recvs) = plan.schedule.round(i);
            r.round_start = eng.now();
            r.life = step(r.life, "post");
            for _ in sends {
                r.life = step(r.life, "send");
            }
            r.life = step(r.life, "drain");
            r.waiting = recvs.len();
            let ids = plan.schedule.recv_ids(i);
            for (slot, (r, recv)) in recvs.iter().zip(ids).enumerate() {
                let to = RecvSlot {
                    rank: idx32(rank),
                    slot: idx32(slot),
                    recv: idx32(recv),
                };
                self.sess.post_recv(eng, rank, plan.peer(r.from), 0, to);
            }
            for (s, &bytes) in sends.iter().zip(plan.lens(i)) {
                self.sess.send(eng, rank, plan.peer(s.to), 0, bytes);
            }
            if !recvs.is_empty() {
                let round = self.ranks[rank].round;
                self.arm_deadline(eng, rank, round, 0);
                return; // the last arrival resumes this rank
            }
            // No receives: the round is already complete; close it and
            // loop into the next one.
            self.complete_round(eng, rank);
        }
    }

    fn on_arrival(&mut self, eng: &mut MultiEngine, to: RecvSlot, bytes: u64) {
        let rank = to.rank as usize;
        if self.dead(rank) || self.aborted() {
            return;
        }
        let r = &mut self.ranks[rank];
        if let Some(rt) = &mut self.recovery {
            // An arrival from a suspect is proof of life.
            let from = self.plan.schedule.round(r.rounds.start).1[to.slot as usize].from;
            rt.clear_if_suspect(self.world[self.plan.peer(from)]);
        }
        r.life = step(r.life, "recv");
        self.arrived[to.recv as usize] = Some(bytes);
        r.waiting -= 1;
        if r.waiting == 0 {
            self.complete_round(eng, rank);
            self.start_round(eng, rank);
        }
    }

    /// Close the round: a bcast rank that received now holds the
    /// payload; emit the round's span and advance the cursor.
    fn complete_round(&mut self, eng: &mut MultiEngine, rank: usize) {
        let r = &mut self.ranks[rank];
        let arrived = &self.arrived[self.plan.schedule.recv_ids(r.rounds.start)];
        if !arrived.is_empty() {
            if let Some(holds) = self.holders.get_mut(self.world[rank]) {
                *holds = true;
            }
        }
        r.life = step(r.life, "finish");
        if let Some(t) = &self.trace {
            t.span(SpanRec {
                stage: stages::COLL_ROUND,
                track: coll_track(self.world[rank]),
                start: r.round_start + self.base,
                end: eng.now() + self.base,
                bytes: arrived.iter().flatten().sum(),
                msg: (r.round + 1) as u64,
            });
        }
        r.round += 1;
        r.rounds.start += 1;
    }

    /// Arm the recv deadline for `rank`'s round `round` (no-op when no
    /// recovery policy is installed).
    fn arm_deadline(&mut self, eng: &mut MultiEngine, rank: usize, round: usize, rearms: u32) {
        let Some(rt) = &self.recovery else { return };
        let delay = SimDuration::from_micros_f64(rt.policy.deadline_us);
        let slot = self.deadlines.park(Deadline {
            rank,
            round,
            rearms,
        });
        eng.schedule_event_in(delay, MultiEvent::Deadline { slot });
    }

    /// The recv deadline fired: if its rank is still stuck in its
    /// round, every source it is missing becomes a suspect, with a probe
    /// verdict scheduled one backoff later.
    fn check_deadline(&mut self, eng: &mut MultiEngine, d: Deadline) {
        let dead = self.dead(d.rank);
        let Some(rt) = &mut self.recovery else { return };
        if rt.aborted || dead {
            return;
        }
        let r = &self.ranks[d.rank];
        if r.finish.is_some() || r.round != d.round || r.waiting == 0 {
            return; // the round completed in time
        }
        let i = r.rounds.start;
        let arrived = &self.arrived[self.plan.schedule.recv_ids(i)];
        let recvs = self.plan.schedule.round(i).1.iter();
        let missing = recvs.zip(arrived).filter(|(_, arrived)| arrived.is_none());
        for (from, _) in missing {
            let s = self.world[self.plan.peer(from.from)];
            if let Membership::Active(active) = rt.member[s] {
                rt.member[s] = active.deadline().into();
                if let Some(t) = &self.trace {
                    t.instant(
                        stages::COLL_SUSPECT,
                        coll_track(s),
                        eng.now() + self.base,
                        0,
                        s as u64,
                    );
                }
            }
            if matches!(rt.member[s], Membership::Suspect(_)) {
                let delay = SimDuration::from_micros_f64(rt.policy.backoff_us);
                eng.schedule_event_in(delay, MultiEvent::Evict { rank: idx32(s) });
            }
        }
        if d.rearms < MAX_DEADLINE_REARMS {
            self.arm_deadline(eng, d.rank, d.round, d.rearms + 1);
        }
    }

    /// Probe verdict for suspect world rank `s`: a live rank acks and
    /// is cleared; a dead one is evicted, ending the epoch. One
    /// eviction per epoch — later verdicts re-run after the replan.
    fn check_eviction(&mut self, eng: &mut MultiEngine, s: usize) {
        let Some(rt) = &mut self.recovery else { return };
        let Membership::Suspect(suspect) = rt.member[s] else {
            return; // already cleared (or evicted by an earlier verdict)
        };
        if !self.killed[s] {
            rt.clear_if_suspect(s);
            return;
        }
        if rt.aborted {
            return; // one eviction per epoch
        }
        rt.member[s] = suspect.evict().into();
        rt.evicted = Some(s);
        rt.evict_at_us = self.base.as_micros_f64() + eng.now().as_micros_f64();
        rt.aborted = true;
        if let Some(t) = &self.trace {
            t.instant(
                stages::COLL_EVICT,
                coll_track(s),
                eng.now() + self.base,
                0,
                s as u64,
            );
        }
    }
}

/// What one epoch's engine run produced.
struct EpochOutcome {
    events: u64,
    aborted: bool,
    evicted: Option<usize>,
    evict_at_us: f64,
    cleared: usize,
    /// Group-indexed epoch-relative finish seconds.
    finished: Vec<Option<f64>>,
}

/// Endpoint faults resolved out of `SimOptions`, world-rank indexed.
#[derive(Default)]
struct FaultSet {
    /// `(world rank, at_us)` timed deaths.
    kills: Vec<(usize, f64)>,
    /// `(world rank, extra_us)` per-send degradation.
    degrades: Vec<(usize, f64)>,
    /// Fabric-wide degrade windows, absolute microseconds.
    windows: Vec<DegradeWindow>,
}

impl FaultSet {
    /// The faults of `opts`, each rank checked against the `n`-rank
    /// world once, here.
    fn from_options(opts: &SimOptions, n: usize) -> FaultSet {
        let mut kills = Vec::new();
        let mut degrades = Vec::new();
        for f in &opts.faults {
            match *f {
                RankFault::Dead(r) => kills.push((r, 0.0)),
                RankFault::Degrade { rank, extra_us } => degrades.push((rank, extra_us)),
            }
        }
        let mut windows = Vec::new();
        if let Some(plan) = &opts.plan {
            for k in &plan.kills {
                kills.push((k.rank, k.at_us));
            }
            windows = plan.degrade.clone();
        }
        for &rank in kills
            .iter()
            .map(|(r, _)| r)
            .chain(degrades.iter().map(|(r, _)| r))
        {
            assert!(rank < n, "fault on rank {rank}: outside the {n}-rank world");
        }
        FaultSet {
            kills,
            degrades,
            windows,
        }
    }
}

/// Run one epoch: a fresh engine and session over the (possibly
/// compacted) group, with kills and degradation applied and — when a
/// policy is armed — the detection machinery live.
#[expect(
    clippy::too_many_arguments,
    reason = "one epoch needs the whole run's context; a struct would only rename it"
)]
fn run_epoch(
    spec: &ClusterSpec,
    profile: &LibProfile,
    op: CollOp,
    plan: Plan,
    trace: &Option<SharedSink>,
    base_us: f64,
    world: Vec<usize>,
    carry: &mut Carry,
    policy: Option<RecoveryPolicy>,
    faults: &FaultSet,
) -> EpochOutcome {
    let m = plan.ranks();
    let mut eng = MultiNet::engine(spec.clone(), m);
    if let Some(t) = trace {
        eng.set_trace_sink(Rc::clone(t));
    }
    let taken = std::mem::take(carry);
    let mut driver = Driver::new(profile, plan, world, taken, policy);
    driver.trace = trace.clone();
    driver.base = SimDuration::from_micros_f64(base_us);
    for &(w, extra_us) in &faults.degrades {
        if let Some(g) = driver.world.iter().position(|&x| x == w) {
            driver.sess.set_rank_overhead_us(g, extra_us);
        }
    }
    if !faults.windows.is_empty() {
        // Window clocks are whole-run absolute; the epoch engine starts
        // at zero, so shift them back by the time already elapsed.
        driver.sess.set_degrade_windows(
            faults
                .windows
                .iter()
                .map(|w| DegradeWindow {
                    start_us: w.start_us - base_us,
                    end_us: w.end_us - base_us,
                    factor: w.factor,
                })
                .collect(),
        );
    }
    for &(w, at_us) in &faults.kills {
        if at_us <= base_us {
            driver.killed[w] = true;
        } else if driver.world.contains(&w) {
            let at = SimDuration::from_micros_f64(at_us - base_us);
            eng.schedule_event_in(at, MultiEvent::Kill { rank: idx32(w) });
        }
    }
    for g in 0..m {
        if !driver.dead(g) {
            // Dead at epoch start: never runs, its peers stall.
            eng.schedule_event_at(SimTime::ZERO, MultiEvent::StartRound { rank: idx32(g) });
        }
    }
    let epoch = Rc::new(Epoch(RefCell::new(driver)));
    eng.world.bind(epoch.clone());
    eng.run();
    let events = eng.events_executed();
    drop(eng);
    let mut driver = epoch.0.borrow_mut();
    let aborted = driver.aborted();
    assert!(
        driver.sess.unmatched() == 0 || aborted || (0..m).any(|g| driver.dead(g)),
        "fault-free {op:?} epoch over {m} ranks left unmatched sends or receives"
    );
    let finished = driver
        .ranks
        .iter()
        .map(|r| r.finish.map(SimTime::as_secs_f64))
        .collect();
    carry.killed = std::mem::take(&mut driver.killed);
    carry.holders = std::mem::take(&mut driver.holders);
    let rt = driver.recovery.as_mut();
    let outcome = EpochOutcome {
        events,
        aborted,
        evicted: rt.as_ref().and_then(|rt| rt.evicted),
        evict_at_us: rt.as_ref().map_or(0.0, |rt| rt.evict_at_us),
        cleared: rt.as_ref().map_or(0, |rt| rt.suspects_cleared),
        finished,
    };
    if let Some(rt) = rt {
        carry.member = std::mem::take(&mut rt.member);
    }
    outcome
}

/// Time a fault-free, untraced, symmetric epoch of `m` ranks on its
/// two-rank `quotient` (see [`Plan::quotient`]). Each node's CPU, NIC
/// and ports serve only its own traffic, the switch never blocks, and
/// each round sends every rank exactly one message of one length from
/// exactly one sender, so every rank runs the events and times of
/// quotient rank 0. The events are logical: every rank's are counted.
fn run_orbits(
    spec: &ClusterSpec,
    profile: &LibProfile,
    op: CollOp,
    quotient: Plan,
    m: usize,
) -> EpochOutcome {
    let mut carry = Carry {
        killed: vec![false; 2],
        ..Carry::default()
    };
    let pair = run_epoch(
        spec,
        profile,
        op,
        quotient,
        &None,
        0.0,
        vec![0, 1],
        &mut carry,
        None,
        &FaultSet::default(),
    );
    assert!(
        pair.events.is_multiple_of(2) && pair.finished[0] == pair.finished[1],
        "the two ranks of a {op:?} quotient ran apart"
    );
    EpochOutcome {
        events: pair.events / 2 * m as u64,
        finished: vec![pair.finished[0]; m],
        ..pair
    }
}

/// Time `schedule` over `spec` hardware with `profile` library costs,
/// rooted at `root`, with rank `r` contributing `lengths[r]` bytes. No
/// payload bytes exist: this is [`run_sim`] without the outputs.
///
/// With a [`RecoveryPolicy`] armed the run is an epoch loop: each
/// eviction compacts the group, re-elects the root if it died (a
/// broadcast re-roots on the lowest survivor already holding the
/// payload), replans, and re-executes. Reducing accumulators restart
/// from the original contributions (exactly-once safety), so the final
/// result is the reduction over the *survivors'* inputs.
///
/// A symmetric schedule — equal lengths, and rounds that each send one
/// message along a permutation and receive from that round's sender —
/// is timed on its two-rank quotient unless a trace sink, a rank fault,
/// a fault plan or a recovery policy could tell its ranks apart: the
/// same finish times and logical events as stepping every rank, at the
/// cost of two.
pub fn time_sim(
    spec: &ClusterSpec,
    profile: &LibProfile,
    schedule: &Schedule,
    root: usize,
    lengths: &[u64],
    opts: &SimOptions,
) -> SimTiming {
    let n = schedule.nranks;
    assert_eq!(lengths.len(), n, "one contribution length per rank");
    let faults = FaultSet::from_options(opts, n);
    let bcast = schedule.op == CollOp::Bcast;
    let mut carry = Carry {
        killed: vec![false; n],
        member: vec![Membership::initial(); n],
        holders: if bcast {
            (0..n).map(|w| w == root).collect()
        } else {
            Vec::new()
        },
    };
    let orbits = opts.trace.is_none()
        && opts.faults.is_empty()
        && opts.plan.is_none()
        && opts.recovery.is_none();
    let mut root_world = root;
    // The schedule replanned over the survivors, once a rank is evicted.
    let mut replanned: Option<Schedule> = None;
    let mut cur_world: Vec<usize> = (0..n).collect();
    let mut base_us = 0.0f64;
    let mut events = 0u64;
    let mut finish_secs: Vec<Option<f64>> = vec![None; n];
    let mut report = RecoveryReport {
        deadline_us: opts.recovery.map_or(0.0, |p| p.deadline_us),
        backoff_us: opts.recovery.map_or(0.0, |p| p.backoff_us),
        ..RecoveryReport::default()
    };

    loop {
        if let [w] = cur_world[..] {
            // The fabric needs two nodes; a one-rank collective is a
            // no-op its rank finishes at once, unless it is dead by then.
            let killed = faults.kills.iter().any(|&(k, t)| k == w && t <= base_us);
            if !(carry.killed[w] || killed) {
                finish_secs[w] = Some(us_to_secs(base_us));
            }
            break;
        }
        #[expect(
            clippy::expect_used,
            reason = "eviction always re-elects a surviving root before replanning"
        )]
        let groot = cur_world
            .iter()
            .position(|&w| w == root_world)
            .expect("the root is always re-elected among survivors");
        // Every bcast holder holds the original root's bytes.
        let group_lengths: Vec<u64> = cur_world
            .iter()
            .map(|&w| lengths[if bcast { root } else { w }])
            .collect();
        let epoch = replanned.as_ref().unwrap_or(schedule);
        let quotient = orbits.then(|| Plan::quotient(epoch, &group_lengths));
        let outcome = match quotient.flatten() {
            Some(quotient) => run_orbits(spec, profile, schedule.op, quotient, cur_world.len()),
            None => run_epoch(
                spec,
                profile,
                schedule.op,
                Plan::new(epoch.clone(), groot, &group_lengths),
                &opts.trace,
                base_us,
                cur_world.clone(),
                &mut carry,
                opts.recovery,
                &faults,
            ),
        };
        events += outcome.events;
        report.suspects_cleared += outcome.cleared;
        if !outcome.aborted {
            for (&w, secs) in cur_world.iter().zip(outcome.finished) {
                finish_secs[w] = secs.map(|s| us_to_secs(base_us) + s);
            }
            break;
        }

        // An eviction ended the epoch: compact, re-elect, replan.
        #[expect(
            clippy::expect_used,
            reason = "check_eviction is only armed when a policy is installed"
        )]
        let policy = opts
            .recovery
            .expect("epochs only abort under a recovery policy");

        #[expect(
            clippy::expect_used,
            reason = "aborted is set by check_eviction together with the evicted rank"
        )]
        let ev = outcome.evicted.expect("aborted epoch without an eviction");
        report.evicted.push(ev);
        let survivors: Vec<usize> = cur_world.iter().copied().filter(|&w| w != ev).collect();
        let m = survivors.len();
        base_us = outcome.evict_at_us + policy.backoff_us;
        let cur_algorithm = replanned.as_ref().unwrap_or(schedule).algorithm;
        let algorithm = if build(schedule.op, cur_algorithm, m).is_ok() {
            cur_algorithm
        } else {
            auto_algorithm(schedule.op, m)
        };
        report.epochs.push(EpochRecord {
            epoch: report.epochs.len() + 1,
            evicted: ev,
            at_us: outcome.evict_at_us,
            survivors: m,
            algorithm,
        });
        if let Some(t) = &opts.trace {
            t.instant(
                stages::COLL_REPLAN,
                coll_track(ev),
                SimTime::ZERO + SimDuration::from_micros_f64(base_us),
                0,
                m as u64,
            );
        }
        if report.epochs.len() > policy.max_epochs {
            break; // give up: bounded recovery, partial report
        }
        if root_world == ev {
            if bcast {
                match survivors.iter().copied().find(|&w| carry.holders[w]) {
                    Some(w) => root_world = w,
                    // The payload died with the root before reaching
                    // any survivor: nothing left to broadcast.
                    None => break,
                }
            } else {
                root_world = survivors[0];
            }
        }
        replanned = Some(replan(schedule.op, algorithm, m));
        cur_world = survivors;
        report.retries += 1;
    }

    let completed = finish_secs.iter().flatten().count();
    let seconds = finish_secs.iter().flatten().copied().fold(0.0f64, f64::max);
    SimTiming {
        seconds,
        events,
        finish_secs,
        completed,
        recovery: opts.recovery.is_some().then_some(report),
    }
}

/// `op` by `algorithm` over a survivor group of `m` ranks.
fn replan(op: CollOp, algorithm: Algorithm, m: usize) -> Schedule {
    #[expect(
        clippy::expect_used,
        reason = "recovery picks an algorithm that plans m ranks, falling back to auto_algorithm, which plans every group size"
    )]
    build(op, algorithm, m).expect("replanned schedule builds for the survivor group")
}

/// Simulate `schedule` over `spec` hardware with `profile` library
/// costs. `contributions` are actual-rank indexed; so are the outputs.
///
/// This is [`time_sim`] over the contributions' lengths, then
/// [`run_local`] over the schedule of the group that ran last: every
/// rank, or the survivors replanned. Only the ranks with a finish time
/// keep an output. A barrier's outputs are all empty, so it replays
/// nothing.
pub fn run_sim(
    spec: &ClusterSpec,
    profile: &LibProfile,
    schedule: &Schedule,
    ctx: ExecCtx,
    contributions: &[Vec<u8>],
    opts: &SimOptions,
) -> SimReport {
    let n = schedule.nranks;
    assert_eq!(contributions.len(), n, "one contribution per rank");
    let lengths: Vec<u64> = contributions.iter().map(|c| c.len() as u64).collect();
    let timing = time_sim(spec, profile, schedule, ctx.root, &lengths, opts);
    let mut outputs = vec![None; n];
    let rec = timing.recovery.as_ref();
    let evicted = rec.map_or(&[][..], |r| &r.evicted[..]);
    if timing.completed > 0 {
        let world: Vec<usize> = (0..n).filter(|w| !evicted.contains(w)).collect();
        let outs = if schedule.op == CollOp::Barrier {
            // Every barrier output is empty: there is nothing to replay.
            vec![CollOutput::default(); world.len()]
        } else {
            let last = rec.and_then(|r| r.epochs.last());
            let replanned = last.map(|e| replan(schedule.op, e.algorithm, world.len()));
            // The root, or once it is evicted the lowest survivor: where a
            // reduction re-roots, and as good as any holder for a bcast,
            // whose every rank outputs the original root's bytes.
            let root = world.iter().position(|&w| w == ctx.root).unwrap_or(0);
            let bcast = schedule.op == CollOp::Bcast;
            let input = |g, w| contributions[if bcast && g == root { ctx.root } else { w }].clone();
            let inputs: Vec<Vec<u8>> = world
                .iter()
                .enumerate()
                .map(|(g, &w)| input(g, w))
                .collect();
            let replay = ExecCtx { root, ..ctx };
            run_local(replanned.as_ref().unwrap_or(schedule), replay, &inputs)
        };
        for (&w, out) in world.iter().zip(outs) {
            if timing.finish_secs[w].is_some() {
                outputs[w] = Some(out);
            }
        }
    }
    SimReport {
        seconds: timing.seconds,
        events: timing.events,
        outputs,
        finish_secs: timing.finish_secs,
        completed: timing.completed,
        recovery: timing.recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{CollOp, Dtype, ReduceOp};
    use crate::plan::{algorithms_for, build, Algorithm};
    use crate::state::{RankState, Reduction};

    fn sum_ctx() -> ExecCtx {
        ExecCtx {
            root: 0,
            reduction: Some(Reduction {
                dtype: Dtype::U64,
                op: ReduceOp::Sum,
            }),
        }
    }

    fn u64s(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|r| ((r + 1) as u64).to_le_bytes().to_vec())
            .collect()
    }

    #[test]
    fn simulated_allreduce_matches_the_arithmetic() {
        for alg in [
            Algorithm::Tree,
            Algorithm::RecursiveDoubling,
            Algorithm::Ring,
        ] {
            let n = 6;
            let s = build(CollOp::Allreduce, alg, n).unwrap();
            let report = run_sim(
                &hwmodel::presets::pcs_ga620(),
                &mpsim::libs::mpich(Default::default()).profile,
                &s,
                sum_ctx(),
                &u64s(n),
                &SimOptions::default(),
            );
            assert!(report.all_completed(), "{alg:?}");
            assert!(report.seconds > 0.0);
            assert!(report.recovery.is_none());
            for out in report.outputs {
                assert_eq!(out.unwrap().acc, 21u64.to_le_bytes(), "{alg:?}");
            }
        }
    }

    #[test]
    fn every_fault_free_plan_leaves_the_session_drained() {
        // `run_epoch` asserts the drained session; this sweeps the whole
        // planner matrix through it.
        for op in CollOp::all() {
            for n in [2usize, 5, 16] {
                for alg in algorithms_for(op, n) {
                    let s = build(op, alg, n).unwrap();
                    let report = run_sim(
                        &hwmodel::presets::pcs_ga620(),
                        &mpsim::libs::mpich(Default::default()).profile,
                        &s,
                        sum_ctx(),
                        &u64s(n),
                        &SimOptions::default(),
                    );
                    assert!(report.all_completed(), "{op:?} {alg:?} {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unmatched sends or receives")]
    fn a_send_nobody_receives_fails_the_epoch() {
        // Rank 0 sends a token rank 1 never posts for: every rank
        // "finishes", and only the drained-session check can tell.
        let s = Builder::plan(CollOp::Barrier, Algorithm::Linear, 2, |b, v| {
            if v == 0 {
                b.round().send(1, crate::schedule::SendWhat::Token);
            }
        });
        run_sim(
            &hwmodel::presets::pcs_ga620(),
            &mpsim::libs::mpich(Default::default()).profile,
            &s,
            ExecCtx {
                root: 0,
                reduction: None,
            },
            &vec![Vec::new(); 2],
            &SimOptions::default(),
        );
    }

    /// Steps `schedule` rooted at `root` the way [`run_local`] does and
    /// checks each send's bytes against the length the timing half
    /// gives the same step.
    fn check_timed_lengths(schedule: &Schedule, root: usize, inputs: &[Vec<u8>]) {
        use std::collections::VecDeque;
        let n = schedule.nranks;
        let label = format!(
            "{:?} {:?} n={n} root={root}",
            schedule.op, schedule.algorithm
        );
        let lengths: Vec<u64> = inputs.iter().map(|c| c.len() as u64).collect();
        let plan = Plan::new(schedule.clone(), root, &lengths);
        let ctx = sum_ctx();
        let mut states: Vec<RankState> = (0..n)
            .map(|g| RankState::init(schedule.op, n, virtual_rank(g, root, n), &inputs[g]))
            .collect();
        let mut round = vec![0usize; n];
        let mut sent = vec![false; n];
        let mut next_recv = vec![0usize; n];
        // `wires[to][from]`: bytes in flight, in send order.
        let mut wires = vec![vec![VecDeque::new(); n]; n];
        let mut checked = 0;
        let mut progressed = true;
        while progressed {
            progressed = false;
            for g in 0..n {
                let Some(i) = plan.rounds(g).nth(round[g]) else {
                    continue;
                };
                let ((sends, recvs), lens) = (plan.schedule.round(i), plan.lens(i));
                if !sent[g] {
                    for (s, &len) in sends.iter().zip(lens) {
                        let bytes = states[g].payload(s.what);
                        assert_eq!(bytes.len() as u64, len, "{label}: rank {g} {:?}", s.what);
                        wires[plan.peer(s.to)][g].push_back(bytes);
                        checked += 1;
                    }
                    sent[g] = true;
                    progressed = true;
                }
                while let Some(r) = recvs.get(next_recv[g]) {
                    let Some(bytes) = wires[g][plan.peer(r.from)].pop_front() else {
                        break;
                    };
                    states[g].apply(r.what, &bytes, ctx.reduction);
                    next_recv[g] += 1;
                    progressed = true;
                }
                if next_recv[g] == recvs.len() {
                    (round[g], sent[g], next_recv[g]) = (round[g] + 1, false, 0);
                    progressed = true;
                }
            }
        }
        assert_eq!(checked, schedule.total_messages(), "{label}: stalled");
    }

    #[test]
    fn timed_lengths_equal_the_replayed_bytes() {
        for op in CollOp::all() {
            for n in [2usize, 3, 5, 16] {
                for alg in algorithms_for(op, n) {
                    let s = build(op, alg, n).unwrap();
                    let roots = if op == CollOp::Bcast {
                        vec![0, n - 1]
                    } else {
                        vec![0]
                    };
                    for root in roots {
                        let inputs: Vec<Vec<u8>> = (0..n)
                            .map(|r| match op {
                                CollOp::Barrier => Vec::new(),
                                CollOp::Bcast if r != root => Vec::new(),
                                CollOp::Allgather => vec![r as u8; 8 * (r + 1)],
                                _ => (r as u64 * 3 + 1).to_le_bytes().repeat(3),
                            })
                            .collect();
                        check_timed_lengths(&s, root, &inputs);
                    }
                }
            }
        }
    }

    #[test]
    fn the_quotient_admits_the_symmetric_shapes() {
        use Algorithm::{Dissemination as Dis, Linear, RecursiveDoubling as Rd, Ring};
        use CollOp::{Allgather, Allreduce, Barrier};
        // The shapes whose plans pass the predicate at `lengths`.
        let admitted = |n: usize, lengths: &[u64]| {
            let mut shapes = Vec::new();
            for op in CollOp::all() {
                for alg in algorithms_for(op, n) {
                    let s = build(op, alg, n).unwrap();
                    if Plan::quotient(&s, lengths).is_some() {
                        shapes.push((op, alg));
                    }
                }
            }
            shapes
        };
        for n in [2usize, 3, 5, 8, 12, 16] {
            let mut want = vec![(Barrier, Dis)];
            if n.is_power_of_two() {
                want.extend([(Barrier, Rd), (Allreduce, Rd)]);
            }
            if n == 2 {
                want.push((Allgather, Linear));
            }
            want.push((Allgather, Dis));
            if n.is_power_of_two() {
                want.push((Allgather, Rd));
            }
            want.push((Allgather, Ring));
            assert_eq!(admitted(n, &vec![8; n]), want, "n={n}");
            let unequal: Vec<u64> = (1..=n as u64).map(|r| 8 * r).collect();
            assert_eq!(admitted(n, &unequal), [], "n={n} unequal");
        }
    }

    #[test]
    fn the_quotient_refuses_a_round_of_unequal_sends() {
        use crate::schedule::{BlockRange, RecvWhat, SendWhat};
        // A permutation in its one round, over equal contributions, but
        // rank 1 sends two blocks where rank 0 sends one.
        let range = |v: usize| BlockRange {
            first: v as u32,
            count: v as u32 + 1,
        };
        let s = Builder::plan(CollOp::Allgather, Algorithm::Dissemination, 2, |b, v| {
            b.round()
                .send(1 - v, SendWhat::Blocks(range(v)))
                .recv(1 - v, RecvWhat::Blocks(range(1 - v)));
        });
        assert_eq!(s.permutation_depth(), Some(1));
        assert!(Plan::quotient(&s, &[8, 8]).is_none());
    }

    #[test]
    #[should_panic(expected = "left unmatched sends or receives")]
    fn a_skewed_schedule_steps_into_its_deadlock() {
        use crate::schedule::{RecvWhat, SendWhat};
        // One send and one receive per round, but each rank waits in
        // round 0 for what its peer sends in round 1: every pair matches
        // and nobody finishes. A quotient would finish it.
        let s = Builder::plan(CollOp::Barrier, Algorithm::Dissemination, 3, |b, v| {
            for hop in [1, 2] {
                let peer = (v + hop) % 3;
                b.round()
                    .send(peer, SendWhat::Token)
                    .recv(peer, RecvWhat::Token);
            }
        });
        assert_eq!(s.validate(), Ok(()));
        let spec = hwmodel::presets::pcs_ga620();
        let profile = mpsim::libs::mpich(Default::default()).profile;
        time_sim(&spec, &profile, &s, 0, &[0; 3], &SimOptions::default());
    }

    /// An 8-rank barrier under `opts`.
    fn barrier_of_8(opts: SimOptions) -> SimReport {
        let n = 8;
        let s = build(CollOp::Barrier, Algorithm::Dissemination, n).unwrap();
        run_sim(
            &hwmodel::presets::pcs_ga620(),
            &mpsim::libs::mpich(Default::default()).profile,
            &s,
            ExecCtx {
                root: 0,
                reduction: None,
            },
            &vec![Vec::new(); n],
            &opts,
        )
    }

    #[test]
    #[should_panic(expected = "fault on rank 20: outside the 8-rank world")]
    fn a_dead_rank_outside_the_world_is_rejected() {
        barrier_of_8(SimOptions::with_fault(RankFault::Dead(20)));
    }

    #[test]
    #[should_panic(expected = "fault on rank 20: outside the 8-rank world")]
    fn a_degraded_rank_outside_the_world_is_rejected() {
        barrier_of_8(SimOptions::with_fault(RankFault::Degrade {
            rank: 20,
            extra_us: 5.0,
        }));
    }

    #[test]
    #[should_panic(expected = "fault on rank 20: outside the 8-rank world")]
    fn a_timed_kill_outside_the_world_is_rejected() {
        // At 5 us this used to be ignored, and at 0 us to index out of
        // bounds.
        barrier_of_8(SimOptions {
            plan: Some(FaultPlan::parse("kill-rank=20@5us").expect("plan")),
            ..SimOptions::default()
        });
    }

    #[test]
    fn dead_rank_yields_partial_report_not_a_hang() {
        let n = 8;
        let s = build(CollOp::Barrier, Algorithm::Dissemination, n).unwrap();
        let report = run_sim(
            &hwmodel::presets::pcs_ga620(),
            &mpsim::libs::mpich(Default::default()).profile,
            &s,
            ExecCtx {
                root: 0,
                reduction: None,
            },
            &vec![Vec::new(); n],
            &SimOptions::with_fault(RankFault::Dead(3)),
        );
        assert!(!report.all_completed());
        assert!(report.outputs[3].is_none());
        assert!(report.completed < n);
    }

    #[test]
    fn a_dead_lone_rank_is_not_complete() {
        let dead = [
            SimOptions::with_fault(RankFault::Dead(0)),
            SimOptions {
                plan: Some(FaultPlan::parse("kill-rank=0@0").expect("plan")),
                ..SimOptions::default()
            },
        ];
        for op in [CollOp::Barrier, CollOp::Allreduce] {
            let s = build(op, Algorithm::Tree, 1).unwrap();
            for opts in &dead {
                let spec = hwmodel::presets::pcs_ga620();
                let profile = mpsim::libs::mpich(Default::default()).profile;
                let timing = time_sim(&spec, &profile, &s, 0, &[8], opts);
                assert_eq!(
                    (timing.completed, &timing.finish_secs[..]),
                    (0, &[None][..])
                );
                let report = run_sim(&spec, &profile, &s, sum_ctx(), &u64s(1), opts);
                assert_eq!(report.completed, 0, "{op:?}");
                assert_eq!(report.outputs, vec![None]);
                assert_eq!(report.finish_secs, vec![None]);
            }
            let alive = run_sim(
                &hwmodel::presets::pcs_ga620(),
                &mpsim::libs::mpich(Default::default()).profile,
                &s,
                sum_ctx(),
                &u64s(1),
                &SimOptions::default(),
            );
            assert_eq!(alive.finish_secs, vec![Some(0.0)]);
            assert_eq!(alive.completed, 1);
        }
    }

    #[test]
    fn timed_kill_from_a_plan_is_partial_without_recovery() {
        let n = 8;
        let s = build(CollOp::Barrier, Algorithm::Dissemination, n).unwrap();
        let report = run_sim(
            &hwmodel::presets::pcs_ga620(),
            &mpsim::libs::mpich(Default::default()).profile,
            &s,
            ExecCtx {
                root: 0,
                reduction: None,
            },
            &vec![Vec::new(); n],
            &SimOptions {
                plan: Some(FaultPlan::parse("seed=1,kill-rank=5@40us").expect("plan")),
                ..SimOptions::default()
            },
        );
        assert!(!report.all_completed());
        assert!(report.outputs[5].is_none());
    }

    #[test]
    fn recovery_evicts_the_dead_rank_and_survivors_complete() {
        let n = 8;
        let s = build(CollOp::Allreduce, Algorithm::RecursiveDoubling, n).unwrap();
        let report = run_sim(
            &hwmodel::presets::pcs_ga620(),
            &mpsim::libs::mpich(Default::default()).profile,
            &s,
            sum_ctx(),
            &u64s(n),
            &SimOptions {
                faults: vec![RankFault::Dead(3)],
                recovery: Some(RecoveryPolicy {
                    deadline_us: 2_000.0,
                    backoff_us: 500.0,
                    max_epochs: 4,
                }),
                ..SimOptions::default()
            },
        );
        let rec = report.recovery.as_ref().expect("recovery armed");
        assert_eq!(rec.evicted, vec![3]);
        assert_eq!(rec.epochs.len(), 1);
        assert!(report.all_survivors_completed(), "{rec:?}");
        // Survivor sum: 1+2+..+8 minus the dead rank's 4.
        let expect = (1u64 + 2 + 3 + 5 + 6 + 7 + 8).to_le_bytes();
        for (r, out) in report.outputs.iter().enumerate() {
            if r == 3 {
                assert!(out.is_none());
            } else {
                assert_eq!(out.as_ref().unwrap().acc, expect, "rank {r}");
            }
        }
    }

    #[test]
    fn degraded_rank_slows_the_collective() {
        let n = 8;
        let s = build(CollOp::Barrier, Algorithm::Dissemination, n).unwrap();
        let run = |faults: Vec<RankFault>| {
            run_sim(
                &hwmodel::presets::pcs_ga620(),
                &mpsim::libs::mpich(Default::default()).profile,
                &s,
                ExecCtx {
                    root: 0,
                    reduction: None,
                },
                &vec![Vec::new(); n],
                &SimOptions {
                    faults,
                    ..SimOptions::default()
                },
            )
        };
        let clean = run(Vec::new());
        let slow = run(vec![RankFault::Degrade {
            rank: 2,
            extra_us: 5_000.0,
        }]);
        assert!(slow.all_completed());
        assert!(slow.seconds > clean.seconds * 2.0);
    }
}
